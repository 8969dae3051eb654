"""Mutation fuzzing of the `.skel` and `.ts` text readers and the `.tsb` binary reader.

Valid files are built, then damaged the way real files get damaged: a bit
flip, truncation at a byte, a frame line deleted, duplicated or blanked, or
one token swapped for something that float() takes and numpy may not, or
that nothing takes. The text readers must return or raise a PipelineError,
and must agree with the per-line readers below: the same arrays byte for
byte and the same warnings, or the same exception class, message and line.
A `.tsb` file (also what the recording cache holds) gets a bit flip,
truncation, two bytes swapped or one float64 overwritten; it must read to
finite data whose invisible joints are zero, or raise a ParseError naming
the path.
"""

import struct

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import position
from imuclr import formats
from imuclr.errors import BadQuaternion, ParseError, PipelineError
from imuclr.simulate import MotionTimeSeries, SkeletonSequence

SWAP_TOKENS = ["1_0", "１", "٣", "#", "-nan", "1e400", "1e200", "x"]

# ---------------------------------------------------------------------------
# per-line reference readers: one str.split and float() list per frame line,
# which must be finite
# ---------------------------------------------------------------------------


def _numbers(fields, convert, path, line_no):
    try:
        return [convert(f) for f in fields]
    except ValueError as exc:
        kind = "numbers" if convert is float else "integers"
        raise ParseError(f"expected {kind}, got {fields!r}", path=path, line=line_no) from exc


def _ref_frame(line, width, path, line_no):
    fields = line.split()
    if len(fields) != width:
        raise ParseError(f"expected {width} values per frame, got {len(fields)}", path=path, line=line_no)
    row = np.array(_numbers(fields, float, path, line_no))
    if not np.isfinite(row).all():
        raise ParseError("frame values must be finite", path=path, line=line_no)
    return row


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def ref_read_skeleton(path):
    lines = _lines(path)
    if not lines:
        raise ParseError("empty skeleton file", path=path, line=1)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"header must be 'V T fs', got {lines[0]!r}", path=path, line=1)
    v, t = _numbers(header[:2], int, path, 1)
    (fs,) = _numbers(header[2:], float, path, 1)
    if v < 1 or t < 3 or not 0 < fs < np.inf:
        raise ParseError(f"invalid header values V={v} T={t} fs={fs}", path=path, line=1)
    if len(lines) < 1 + t:
        raise ParseError(f"expected {t} frame lines, file has {len(lines) - 1}", path=path, line=len(lines))
    first = _ref_frame(lines[1], 7 * v, path, 2)
    positions, orientations, off_norm = np.empty((v, t, 3)), np.empty((v, t, 4)), []
    for i in range(t):
        row = (first if i == 0 else _ref_frame(lines[1 + i], 7 * v, path, 2 + i)).reshape(v, 7)
        positions[:, i, :] = row[:, 0:3]
        quats = row[:, 3:7]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(quats, axis=1)
        for j in np.flatnonzero(np.isinf(norms)):
            scale = np.abs(quats[j]).max()
            norms[j] = scale * np.linalg.norm(quats[j : j + 1] / scale, axis=1)[0]
        if np.any(norms < formats.QUAT_NORM_MIN):
            raise BadQuaternion("quaternion with (near-)zero norm", path=path, line=2 + i)
        if np.any((norms < formats.QUAT_NORM_OK[0]) | (norms > formats.QUAT_NORM_OK[1])):
            off_norm.append(2 + i)
        orientations[:, i, :] = quats / norms[:, None]
    if off_norm:
        warnings.warn(
            f"{path}:{off_norm[0]}: quaternion norm outside {formats.QUAT_NORM_OK} on "
            f"{len(off_norm)} of {t} frame lines (first shown), normalizing"
        )
    return SkeletonSequence(positions, orientations, fs)


def ref_read_timeseries(path):
    lines = _lines(path)
    if len(lines) < 2:
        raise ParseError("file needs a header and a mask line", path=path, line=1)
    header = lines[0].split()
    if len(header) != 4:
        raise ParseError(f"header must be 'V T fs C', got {lines[0]!r}", path=path, line=1)
    v, t = _numbers(header[:2], int, path, 1)
    (fs,) = _numbers(header[2:3], float, path, 1)
    (c,) = _numbers(header[3:], int, path, 1)
    if v < 1 or t < 1 or c < 1 or not 0 < fs < np.inf:
        raise ParseError(f"invalid header values V={v} T={t} fs={fs} C={c}", path=path, line=1)
    mask_fields = lines[1].split()
    if len(mask_fields) != v or any(f not in ("0", "1") for f in mask_fields):
        raise ParseError(f"mask line must be {v} space-separated 0/1 flags", path=path, line=2)
    mask = np.array([f == "1" for f in mask_fields])
    if len(lines) < 2 + t:
        raise ParseError(f"expected {t} frame lines, file has {len(lines) - 2}", path=path, line=len(lines))
    data = np.empty((c, t, v))
    for i in range(t):
        data[:, i, :] = _ref_frame(lines[2 + i], c * v, path, 3 + i).reshape(v, c).T
    if np.any(data[:, :, ~mask] != 0.0):
        raise ParseError("mask marks joints invisible but their channels are nonzero", path=path)
    return MotionTimeSeries(data, mask, fs)


# ---------------------------------------------------------------------------
# valid files and their mutations
# ---------------------------------------------------------------------------


def _token(x, style):
    return repr(float(x)) if style == 0 else f"{x:.6g}" if style == 1 else f"{x:.2e}"


def skeleton_text(rng, v, t, style):
    positions = rng.standard_normal((t, v, 3)) * 10.0 ** rng.integers(-3, 4)
    quats = rng.standard_normal((t, v, 4))
    # mostly unit norms, some just outside the accepted band
    quats *= rng.choice([1.0, 1.0, 1.0, 0.85, 1.2], size=(t, v, 1)) / np.linalg.norm(quats, axis=2, keepdims=True)
    frames = np.concatenate([positions, quats], axis=2).reshape(t, 7 * v)
    rows = [" ".join(_token(x, style) for x in row) for row in frames]
    return "\n".join([f"{v} {t} {float(rng.choice([20.0, 50.0, 59.94]))!r}"] + rows) + "\n"


def timeseries_text(rng, v, t, c, style):
    mask = rng.random(v) < 0.8
    data = rng.standard_normal((t, v, c)) * mask[None, :, None]
    rows = [" ".join(_token(x, style) for x in row) for row in data.reshape(t, v * c)]
    header = [f"{v} {t} {float(rng.choice([20.0, 50.0, 100.0]))!r} {c}", " ".join("1" if m else "0" for m in mask)]
    return "\n".join(header + rows) + "\n"


def mutate(raw, kind, a, b, token):
    """raw with one fault; a, b in [0, 1) pick the byte, line, bit or token."""
    if kind == "bitflip":
        i = int(a * len(raw))
        return raw[:i] + bytes([raw[i] ^ (1 << int(b * 8))]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[: int(a * len(raw))]
    lines = raw.decode("utf-8").split("\n")[:-1]
    i = int(a * len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines[i] = ""
    else:
        fields = lines[i].split(" ")
        fields[int(b * len(fields))] = token
        lines[i] = " ".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _is_utf8(content):
    try:
        content.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


def outcome(read, path):
    """('ok', arrays, rate, warnings) or ('error', class, message, line) of one read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path)
        except PipelineError as exc:
            return ("error", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(result, SkeletonSequence):
        arrays, rate = (result.positions, result.orientations), result.frame_rate
    else:
        arrays, rate = (result.data, result.mask), result.sample_rate
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    return ("ok", [(a.shape, a.dtype, a.flags.c_contiguous, a.tobytes()) for a in arrays], rate, messages)


def check_against_reference(path, raw, mutant, read, ref_read):
    path.write_bytes(raw)
    valid = outcome(read, path)
    assert valid[0] == "ok" and valid == outcome(ref_read, path)
    path.write_bytes(mutant)
    got = outcome(read, path)
    if _is_utf8(mutant):
        assert got == outcome(ref_read, path)
    else:
        assert got[0] == "error" and got[1] is ParseError


mutations = st.tuples(
    st.sampled_from(["bitflip", "truncate", "delete", "duplicate", "blank", "swap"]),
    position,
    position,
    st.sampled_from(SWAP_TOKENS),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(1, 3),
    t=st.integers(3, 6),
    style=st.integers(0, 2),
    mutation=mutations,
)
@settings(max_examples=500, deadline=None)
def test_mutated_skeleton_matches_per_line_reader(tmp_path_factory, seed, v, t, style, mutation):
    raw = skeleton_text(np.random.default_rng(seed), v, t, style).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "f.skel"
    check_against_reference(path, raw, mutate(raw, *mutation), formats.read_skeleton_file, ref_read_skeleton)
    # the header alone, as pretraining checks joint counts: it fails as the whole read fails
    # on line 1, and takes no header the whole read refuses
    got = outcome(formats.read_skeleton_file, path)
    try:
        header = formats.read_skeleton_header(path)
    except ParseError as exc:
        assert got[0] == "error" and (type(exc), str(exc), exc.line) == got[1:]
        return
    if got[0] == "ok":
        v_read, t_read, _ = got[1][0][0]  # the shape of the positions read
        assert header == (v_read, t_read, got[2])
    else:  # a later fault; a missing frame line is reported on the last line, which may be line 1
        assert got[3] != 1 or "frame lines" in got[2]


@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(1, 3),
    t=st.integers(1, 5),
    c=st.integers(1, 6),
    style=st.integers(0, 2),
    mutation=mutations,
)
@settings(max_examples=500, deadline=None)
def test_mutated_timeseries_matches_per_line_reader(tmp_path_factory, seed, v, t, c, style, mutation):
    raw = timeseries_text(np.random.default_rng(seed), v, t, c, style).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "f.ts"
    check_against_reference(path, raw, mutate(raw, *mutation), formats.read_timeseries_file, ref_read_timeseries)


# ---------------------------------------------------------------------------
# the binary .tsb reader
# ---------------------------------------------------------------------------

SWAP_VALUES = [float("nan"), float("inf"), -0.0, 0.5, 1e-320, 1e308, 2.0**53, -3.0]


def mutate_binary(raw, kind, a, b, value):
    """raw with one fault; a, b in [0, 1) pick the bytes, bit or float64 slot."""
    i, j = int(a * len(raw)), int(b * len(raw))
    if kind == "bitflip":
        return raw[:i] + bytes([raw[i] ^ (1 << int(b * 8))]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[:i]
    if kind == "byteswap":
        out = bytearray(raw)
        out[i], out[j] = raw[j], raw[i]
        return bytes(out)
    k = 8 + 8 * int(a * ((len(raw) - 8) // 8))  # a float64 after the magic and version
    return raw[:k] + struct.pack("<d", value) + raw[k + 8 :]


@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(1, 3),
    t=st.integers(1, 5),
    c=st.integers(1, 6),
    mutation=st.tuples(
        st.sampled_from(["bitflip", "truncate", "byteswap", "value"]), position, position, st.sampled_from(SWAP_VALUES)
    ),
)
@settings(max_examples=500, deadline=None)
def test_mutated_binary_timeseries_reads_valid_or_raises_located(tmp_path_factory, seed, v, t, c, mutation):
    rng = np.random.default_rng(seed)
    mask = rng.random(v) < 0.8
    series = MotionTimeSeries(rng.standard_normal((c, t, v)) * mask, mask, float(rng.choice([20.0, 50.0])))
    path = tmp_path_factory.mktemp("mut") / "f.tsb"
    formats.write_timeseries_file(path, series, binary=True)
    path.write_bytes(mutate_binary(path.read_bytes(), *mutation))
    try:
        got = formats.read_timeseries_file(path)
    except ParseError as exc:
        assert exc.path == path
        return
    c2, t2, v2 = got.data.shape
    assert got.data.dtype == np.float64 and got.mask.shape == (v2,) and got.mask.dtype == bool
    assert np.isfinite(got.data).all() and 0 < got.sample_rate < np.inf
    assert not got.data[:, :, ~got.mask].any()
