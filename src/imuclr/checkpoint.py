"""Binary checkpoint container for trained models.

Layout (all integers little-endian):

    magic   8 bytes  b"UMTSCKPT"
    version u32
    header  u32 length + UTF-8 JSON (encoder config, skeleton, sample rate,
            training window, skeleton hash)
    count   u32 number of parameters
    per parameter:
        u32 name length, name bytes,
        u32 rank, u32 per dimension,
        float64 little-endian values (C order)
    crc     u32 CRC32 of every preceding byte

Values are stored as float64 whatever dtype they trained in; pre-training
runs in float32, so a pretrained checkpoint's values are float32 numbers held
exactly. Round-tripping save -> load -> save is byte-identical; parameter
order and JSON key order are fixed. Saving goes through formats.write_atomic,
so a crash leaves the old file or the new one. Loading verifies magic,
version, CRC and that the stored skeleton hash matches the stored skeleton.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptCheckpoint, VersionMismatch
from .formats import write_atomic
from .graph_encoder import EncoderConfig
from .skeleton import SkeletonStructure

MAGIC = b"UMTSCKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """Named parameter tensors plus everything needed to rebuild the model."""

    config: EncoderConfig
    structure: SkeletonStructure
    sample_rate: float
    params: dict  # name -> np.ndarray; saved and loaded as float64
    train_window: int | None = None
    label_names: tuple | None = None  # classifier column order, set by fine-tuning

    @property
    def skeleton_hash(self):
        return self.structure.structure_hash()

    def has_classifier(self):
        return "classifier.weight" in self.params


def _header_dict(ckpt):
    return {
        "encoder": ckpt.config.to_dict(),
        "sample_rate": ckpt.sample_rate,
        "skeleton": {"names": list(ckpt.structure.names), "parents": list(ckpt.structure.parents)},
        "skeleton_hash": ckpt.skeleton_hash,
        "train_window": ckpt.train_window,
        "label_names": None if ckpt.label_names is None else list(ckpt.label_names),
    }


def save_checkpoint(path, ckpt):
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    header = json.dumps(_header_dict(ckpt), sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(header))
    blob += header
    blob += struct.pack("<I", len(ckpt.params))
    for name in ckpt.params:
        # ascontiguousarray would promote 0-d tensors to 1-d; keep the rank
        arr = np.asarray(ckpt.params[name], dtype="<f8")
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.copy(arr, order="C")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<I", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<I", d)
        blob += arr.tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    write_atomic(path, bytes(blob))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint(f"checkpoint truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpoint("bad magic; not a checkpoint file")
    version = struct.unpack("<I", data[len(MAGIC) : len(MAGIC) + 4])[0]
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"checkpoint version {version}, supported {FORMAT_VERSION}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptCheckpoint("CRC32 mismatch; file is corrupt")
    rd = _Reader(data[:-4])
    rd.take(len(MAGIC) + 4)
    header_len = rd.u32()
    try:
        header = json.loads(rd.take(header_len).decode("utf-8"))
        config = EncoderConfig.from_dict(header["encoder"])
        structure = SkeletonStructure(
            names=tuple(header["skeleton"]["names"]),
            parents=tuple(header["skeleton"]["parents"]),
        )
        sample_rate = float(header["sample_rate"])
        train_window = header.get("train_window")
        label_names = header.get("label_names")
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptCheckpoint(f"malformed checkpoint header: {exc}") from exc
    if header.get("skeleton_hash") != structure.structure_hash():
        raise CorruptCheckpoint("stored skeleton hash does not match stored skeleton")
    params = {}
    count = rd.u32()
    for _ in range(count):
        name = rd.take(rd.u32()).decode("utf-8")
        rank = rd.u32()
        if rank > 8:
            raise CorruptCheckpoint(f"implausible tensor rank {rank}")
        shape = tuple(rd.u32() for _ in range(rank))
        n_values = int(np.prod(shape)) if shape else 1
        raw = rd.take(8 * n_values)
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if rd.pos != len(rd.data):
        raise CorruptCheckpoint(f"{len(rd.data) - rd.pos} trailing bytes after parameters")
    return Checkpoint(
        config=config,
        structure=structure,
        sample_rate=sample_rate,
        params=params,
        train_window=train_window if train_window is None else int(train_window),
        label_names=None if label_names is None else tuple(label_names),
    )
