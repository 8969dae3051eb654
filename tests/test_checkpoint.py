import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_structure, torn_writes
from imuclr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from imuclr.errors import CorruptCheckpoint, VersionMismatch
from imuclr.graph_encoder import EncoderConfig


def sample_checkpoint(rng=None):
    rng = rng or np.random.default_rng(0)
    cfg = EncoderConfig(blocks=((6, 4, 3), (4, 8, 5)), partition="distance", embedding_dim=16)
    params = {
        "block0.spatial": rng.standard_normal((2, 4, 6)),
        "proj.bias": rng.standard_normal(16),
        "log_inv_gamma": np.asarray(2.659),
    }
    return Checkpoint(
        config=cfg,
        structure=chain_structure(5),
        sample_rate=20.0,
        params=params,
        train_window=40,
        label_names=("walk", "run"),
    )


def test_save_load_save_byte_identical(tmp_path):
    ckpt = sample_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    back = load_checkpoint(p1)
    save_checkpoint(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_save_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    old = path.read_bytes()
    with torn_writes(), pytest.raises(OSError, match="killed midway"):
        save_checkpoint(path, sample_checkpoint(np.random.default_rng(1)))
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["m.ckpt"]


def test_load_restores_everything(tmp_path):
    ckpt = sample_checkpoint()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    back = load_checkpoint(p)
    assert back.config == ckpt.config
    assert back.structure == ckpt.structure
    assert back.sample_rate == ckpt.sample_rate
    assert back.train_window == 40
    assert back.label_names == ("walk", "run")
    assert list(back.params) == list(ckpt.params)  # order preserved
    for k in ckpt.params:
        assert np.array_equal(back.params[k], ckpt.params[k])


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = p.read_bytes()
    for cut in (5, 11, len(blob) // 2, len(blob) - 1):
        (tmp_path / "t.ckpt").write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(tmp_path / "t.ckpt")


def test_version_bump_reports_mismatch(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = bytearray(p.read_bytes())
    blob[8] = 99  # version field is right after the magic
    p.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_checkpoint(p)


def test_flipped_payload_byte_fails_crc(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "a.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


def test_garbage_header_with_valid_crc(tmp_path):
    import struct
    import zlib

    from imuclr.checkpoint import FORMAT_VERSION, MAGIC

    body = b"not json at all"
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", len(body)) + body
    blob += struct.pack("<I", 0)  # zero parameters
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    p = tmp_path / "a.ckpt"
    p.write_bytes(blob)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_loader_never_crashes_on_garbage(tmp_path_factory, blob):
    p = tmp_path_factory.mktemp("fuzz") / "g.ckpt"
    p.write_bytes(blob)
    try:
        load_checkpoint(p)
    except (CorruptCheckpoint, VersionMismatch):
        pass
