"""Text and binary file formats for skeletons, recordings, embeddings,
descriptions, device mappings and dataset manifests.

Layouts are documented field by field in FORMATS.md at the repository root.
Every reader raises ParseError (or a subclass) with the offending path and
line number; arbitrary bytes never escape as uncaught exceptions. Floats in
text files are written with repr(), which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DuplicateId, BadQuaternion, ParseError
from .inference import DeviceMapping
from .simulate import MotionTimeSeries, SkeletonSequence
from .text_embeddings import DescriptionSet, TextEmbeddingTable

TIMESERIES_MAGIC = b"UMTS"
TIMESERIES_BINARY_VERSION = 1

QUAT_NORM_OK = (0.9, 1.1)
QUAT_NORM_MIN = 1e-6


def write_atomic(path, data):
    """Write bytes to path so that a crash leaves the old file or the new one, never a torn one.

    The bytes go to a temporary file in path's directory, are flushed and
    fsync'ed, and only then renamed over path; a failure removes the
    temporary file.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _read_bytes(path):
    """The bytes of path, read until EOF in reads sized from its fstat size.

    The first read asks for one byte more than the file holds, so it comes
    back short, and the read that finds EOF asks for what the first left
    unfilled: one byte, not another buffer of the file's size, which would
    raise the peak memory of a load. A file that grew is read on in reads
    of the first one's size.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunk = os.fstat(fd).st_size + 1
            size, parts = chunk, []
            while part := os.read(fd, size):
                parts.append(part)
                size = size - len(part) or chunk
        finally:
            os.close(fd)
    except OSError as exc:
        if exc.filename is None:  # os.read's errors (a directory's among them) name no file; open() names it
            exc.filename = os.fspath(path)
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    return b"".join(parts)  # one part is returned as it is, not copied


def _decoded(raw, path):
    """raw as UTF-8 text; its splitlines() are the lines a text-mode read of the file gives."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 text: {exc}", path=path) from exc


def _read_lines(path):
    # the bytes are freed before the split, so a file is never held three times over
    return _decoded(_read_bytes(path), path).splitlines()


def _floats(fields, path, line_no):
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"expected numbers, got {fields!r}", path=path, line=line_no) from exc


def _ints(fields, path, line_no):
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {fields!r}", path=path, line=line_no) from exc


def _frame(line, width, path, line_no):
    """The `width` floats of one frame line."""
    fields = line.split()
    if len(fields) != width:
        raise ParseError(f"expected {width} values per frame, got {len(fields)}", path=path, line=line_no)
    return _floats(fields, path, line_no)


def _frames(lines, width, path, first_line_no):
    """The (len(lines), width) finite floats of a block of frame lines.

    One loadtxt call parses a valid block. A block it rejects or reads to
    another shape (a blank line, a wrong value count, a token that float()
    takes and numpy does not, such as 1_0) goes through _frame line by line,
    which raises the located ParseError or parses it as float() does. A
    nan or inf value (1e400 included) then fails at the first line holding one.
    """
    block = None
    # a first line of the wrong width skips loadtxt: it sizes nothing from a
    # bad header and never sees a block without data, which it warns about
    if len(lines[0].split()) == width:
        try:
            block = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape != (len(lines), width):
        block = np.array([_frame(line, width, path, first_line_no + i) for i, line in enumerate(lines)])
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise ParseError("frame values must be finite", path=path, line=first_line_no + int(finite.argmin()))
    return block


# ---------------------------------------------------------------------------
# Skeleton motion files: header "V T fs", then T lines of 7*V reals
# (px py pz qw qx qy qz per joint).
# ---------------------------------------------------------------------------


def _skeleton_header(lines, path):
    """(V, T, fs) of the header line, the first of lines."""
    if not lines:
        raise ParseError("empty skeleton file", path=path, line=1)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"header must be 'V T fs', got {lines[0]!r}", path=path, line=1)
    v, t = _ints(header[:2], path, 1)
    (fs,) = _floats(header[2:], path, 1)
    if v < 1 or t < 3 or not 0 < fs < np.inf:
        raise ParseError(f"invalid header values V={v} T={t} fs={fs}", path=path, line=1)
    return v, t, fs


def read_skeleton_header(path):
    """(V, T, fs) of a skeleton file, read from its first line alone and checked as read_skeleton_file checks it."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    # the first line by splitlines(), as read_skeleton_file splits the whole file
    return _skeleton_header(_decoded(first, path).splitlines(), path)


def read_skeleton_file(path):
    lines = _read_lines(path)
    v, t, fs = _skeleton_header(lines, path)
    if len(lines) < 1 + t:
        raise ParseError(f"expected {t} frame lines, file has {len(lines) - 1}", path=path, line=len(lines))
    frames = _frames(lines[1 : 1 + t], 7 * v, path, 2).reshape(t, v, 7)
    quats = frames[:, :, 3:7]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(quats, axis=2)
    # a component above ~1e154 overflows its square: scale by the largest one
    huge = np.isinf(norms)
    if huge.any():
        scale = np.abs(quats[huge]).max(axis=1, keepdims=True)
        norms[huge] = scale[:, 0] * np.linalg.norm(quats[huge] / scale, axis=1)
    zero = np.any(norms < QUAT_NORM_MIN, axis=1)
    if zero.any():
        raise BadQuaternion("quaternion with (near-)zero norm", path=path, line=2 + int(zero.argmax()))
    off_norm = np.any((norms < QUAT_NORM_OK[0]) | (norms > QUAT_NORM_OK[1]), axis=1)
    if off_norm.any():
        warnings.warn(
            f"{path}:{2 + int(off_norm.argmax())}: quaternion norm outside {QUAT_NORM_OK} on "
            f"{int(off_norm.sum())} of {t} frame lines (first shown), normalizing",
            stacklevel=2,
        )
    positions = np.ascontiguousarray(frames[:, :, 0:3].transpose(1, 0, 2))
    orientations = np.ascontiguousarray((quats / norms[:, :, None]).transpose(1, 0, 2))
    return SkeletonSequence(positions=positions, orientations=orientations, frame_rate=fs)


def write_skeleton_file(path, seq):
    lines = [f"{seq.num_joints} {seq.num_frames} {float(seq.frame_rate)!r}\n"]
    for i in range(seq.num_frames):
        fields = []
        for j in range(seq.num_joints):
            fields += [repr(float(x)) for x in seq.positions[j, i]]
            fields += [repr(float(x)) for x in seq.orientations[j, i]]
        lines.append(" ".join(fields) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Time-series files. Text: "V T fs C" header, mask line, then T lines of
# C*V reals in joint-major order (ax ay az gx gy gz per joint). Binary:
# magic UMTS + u32 version, then the same numbers as little-endian float64.
# ---------------------------------------------------------------------------


def write_timeseries_file(path, series, binary=False):
    c, t, v = series.data.shape
    if binary:
        payload = np.concatenate(
            [
                np.array([v, t, series.sample_rate, c], dtype=np.float64),
                series.mask.astype(np.float64),
                # joint-major: frame rows of [joint0 c0..c5, joint1 c0..c5, ...]
                series.data.transpose(1, 2, 0).reshape(-1),
            ]
        )
        version = np.array([TIMESERIES_BINARY_VERSION], dtype="<u4").tobytes()
        write_atomic(path, TIMESERIES_MAGIC + version + payload.astype("<f8").tobytes())
        return
    lines = [
        f"{v} {t} {float(series.sample_rate)!r} {c}\n",
        " ".join("1" if m else "0" for m in series.mask) + "\n",
    ]
    frame = series.data.transpose(1, 2, 0).reshape(t, v * c)
    lines += [" ".join(repr(float(x)) for x in frame[i]) + "\n" for i in range(t)]
    write_atomic(path, "".join(lines).encode("utf-8"))


def _parse_timeseries_binary(raw, path):
    """Data, mask and rate of the bytes of a binary time-series file, magic already checked.

    The payload is viewed in place, not copied; the channel-major data is
    the one copy made of it. The checks run in the order FORMATS.md gives.
    """
    version = int.from_bytes(raw[4:8], "little") if len(raw) >= 8 else -1
    if version != TIMESERIES_BINARY_VERSION:
        raise ParseError(f"unsupported binary version {version}", path=path)
    if len(raw) % 8 != 0:  # the magic and version take 8 bytes
        raise ParseError("payload is not a whole number of float64 values", path=path)
    body = np.frombuffer(raw, dtype="<f8", offset=8)
    header = body[:4].tolist()
    if len(header) < 4 or not all(map(math.isfinite, header)):
        raise ParseError("truncated or invalid binary header", path=path)
    v, t, fs, c = header
    if not (v.is_integer() and t.is_integer() and c.is_integer()):
        raise ParseError(f"binary header values V, T and C must be whole numbers, got V={v} T={t} C={c}", path=path)
    v, t, c = int(v), int(t), int(c)
    if not (1 <= v <= 10**6 and 1 <= t <= 10**9 and 1 <= c <= 10**6) or fs <= 0:
        raise ParseError(f"invalid binary header values V={v} T={t} fs={fs} C={c}", path=path)
    need = 4 + v + t * v * c
    if body.size != need:
        raise ParseError(f"expected {need} float64 values, found {body.size}", path=path)
    if not np.isfinite(body[4:]).all():
        raise ParseError("mask and frame values must be finite", path=path)
    mask = body[4 : 4 + v] != 0.0
    return body[4 + v :].reshape(t, v, c).transpose(2, 0, 1).copy(), mask, fs


def read_timeseries_file(path):
    raw = _read_bytes(path)  # read once: the magic picks the parser
    if raw[:4] == TIMESERIES_MAGIC:
        data, mask, fs = _parse_timeseries_binary(raw, path)
    else:
        lines = _decoded(raw, path).splitlines()
        if len(lines) < 2:
            raise ParseError("file needs a header and a mask line", path=path, line=1)
        header = lines[0].split()
        if len(header) != 4:
            raise ParseError(f"header must be 'V T fs C', got {lines[0]!r}", path=path, line=1)
        v, t = _ints(header[:2], path, 1)
        (fs,) = _floats(header[2:3], path, 1)
        (c,) = _ints(header[3:], path, 1)
        if v < 1 or t < 1 or c < 1 or not 0 < fs < np.inf:
            raise ParseError(f"invalid header values V={v} T={t} fs={fs} C={c}", path=path, line=1)
        mask_fields = lines[1].split()
        if len(mask_fields) != v or any(f not in ("0", "1") for f in mask_fields):
            raise ParseError(f"mask line must be {v} space-separated 0/1 flags", path=path, line=2)
        mask = np.array([f == "1" for f in mask_fields])
        if len(lines) < 2 + t:
            raise ParseError(f"expected {t} frame lines, file has {len(lines) - 2}", path=path, line=len(lines))
        frames = _frames(lines[2 : 2 + t], c * v, path, 3)
        data = np.ascontiguousarray(frames.reshape(t, v, c).transpose(2, 0, 1))
    if not mask.all() and np.any(data[:, :, ~mask] != 0.0):  # with every joint visible there is nothing to check
        raise ParseError("mask marks joints invisible but their channels are nonzero", path=path)
    return MotionTimeSeries(data, mask, fs)


# ---------------------------------------------------------------------------
# Embedding files: header "N dim", then N lines "id<TAB>text<TAB>v1 .. vdim".
# ---------------------------------------------------------------------------


def read_embedding_file(path):
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty embedding file", path=path, line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'N dim', got {lines[0]!r}", path=path, line=1)
    n, dim = _ints(header, path, 1)
    if n < 0 or dim < 1:
        raise ParseError(f"invalid header values N={n} dim={dim}", path=path, line=1)
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} entries, file has {len(lines) - 1}", path=path, line=len(lines))
    entries = {}
    for i in range(n):
        line_no = 2 + i
        parts = lines[1 + i].split("\t")
        if len(parts) != 3:
            raise ParseError("entry must be 'id<TAB>text<TAB>values'", path=path, line=line_no)
        key, text, value_str = parts
        if key in entries:
            raise DuplicateId(f"duplicate embedding id {key!r}", path=path, line=line_no)
        values = np.array(_floats(value_str.split(), path, line_no))
        if len(values) != dim:
            raise DimMismatch(f"{path}:{line_no}: expected {dim} floats, got {len(values)}")
        if not np.isfinite(values).all():
            raise ParseError("embedding values must be finite", path=path, line=line_no)
        entries[key] = (text, values)
    return TextEmbeddingTable(dim=dim, entries=entries)


def write_embedding_file(path, table):
    lines = [f"{len(table.entries)} {table.dim}\n"]
    for key, (text, vec) in table.entries.items():
        lines.append(f"{key}\t{text}\t" + " ".join(repr(float(x)) for x in vec) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Description files: "seq_id<TAB>kind<TAB>text_id" per line, kind orig|para.
# ---------------------------------------------------------------------------


def read_description_file(path):
    ds = DescriptionSet()
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("line must be 'seq_id<TAB>kind<TAB>text_id'", path=path, line=line_no)
        seq_id, kind, text_id = parts
        if kind not in ("orig", "para"):
            raise ParseError(f"kind must be orig or para, got {kind!r}", path=path, line=line_no)
        ds.add(seq_id, text_id, paraphrase=(kind == "para"))
    return ds


def write_description_file(path, ds):
    lines = []
    for seq_id in ds.originals:
        lines += [f"{seq_id}\torig\t{text_id}\n" for text_id in ds.originals[seq_id]]
        lines += [f"{seq_id}\tpara\t{text_id}\n" for text_id in ds.paraphrases.get(seq_id, [])]
    write_atomic(path, "".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Device mapping files: "location joint_name_or_index" per line.
# ---------------------------------------------------------------------------


def read_mapping_file(path, structure):
    joint_for = {}
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line must be 'location joint'", path=path, line=line_no)
        location, joint = parts
        if location in joint_for:
            raise ParseError(f"duplicate location {location!r}", path=path, line=line_no)
        if joint.removeprefix("-").isdecimal():  # what int() takes; "²" is a digit but not decimal
            idx = int(joint)
        else:
            try:
                idx = structure.joint_index(joint)
            except KeyError:
                raise ParseError(f"unknown joint name {joint!r}", path=path, line=line_no) from None
        if not (0 <= idx < structure.num_joints):
            raise ParseError(f"joint index {idx} out of range", path=path, line=line_no)
        joint_for[location] = idx
    return DeviceMapping(joint_for=joint_for)


# ---------------------------------------------------------------------------
# Manifests: "mapping <path>" once, then sample lines
# "sample<TAB>data_path<TAB>label<TAB>loc1,loc2<TAB>native_fs<TAB>unit_scale".
# ---------------------------------------------------------------------------


@dataclass
class ManifestSample:
    data_path: str
    label: str
    locations: tuple
    native_fs: float
    unit_scale: float


@dataclass
class Manifest:
    mapping_path: str
    samples: list


def read_manifest_file(path):
    mapping_path = None
    samples = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("mapping\t") or line.startswith("mapping "):
            if mapping_path is not None:
                raise ParseError("duplicate mapping line", path=path, line=line_no)
            mapping_path = line[len("mapping") :].strip()
            if not mapping_path:
                raise ParseError("mapping line names no file", path=path, line=line_no)
            continue
        parts = line.split("\t")
        if parts[0] != "sample" or len(parts) != 6:
            raise ParseError(
                "line must be 'sample<TAB>path<TAB>label<TAB>locations<TAB>fs<TAB>scale'",
                path=path,
                line=line_no,
            )
        fs, scale = _floats(parts[4:6], path, line_no)
        locations = tuple(loc for loc in parts[3].split(",") if loc)
        if not locations:
            raise ParseError("sample needs at least one device location", path=path, line=line_no)
        if not 0 < fs < np.inf:
            raise ParseError(f"native fs must be positive and finite, got {fs}", path=path, line=line_no)
        if not np.isfinite(scale):
            raise ParseError(f"unit scale must be finite, got {scale}", path=path, line=line_no)
        samples.append(
            ManifestSample(
                data_path=parts[1], label=parts[2], locations=locations, native_fs=fs, unit_scale=scale
            )
        )
    if mapping_path is None:
        raise ParseError("manifest has no mapping line", path=path)
    if not samples:
        raise ParseError("manifest has no samples", path=path)
    return Manifest(mapping_path=mapping_path, samples=samples)

