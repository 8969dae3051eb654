import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_structure, random_series
from imuclr import formats
from imuclr.errors import (
    BadQuaternion,
    DimMismatch,
    DuplicateId,
    ParseError,
    PipelineError,
    UnknownLocation,
)
from imuclr.simulate import MotionTimeSeries, SkeletonSequence
from imuclr.skeleton import body22
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable


SKEL_FRAME = "0 0 0 1 0 0 0\n"

# ---------------------------------------------------------------------------
# skeleton files
# ---------------------------------------------------------------------------


def test_skeleton_minimal_file(tmp_path):
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + "0 0 0 1 0 0 0\n" * 3)
    seq = formats.read_skeleton_file(p)
    assert seq.num_joints == 1 and seq.num_frames == 3 and seq.frame_rate == 20.0


def test_skeleton_wrong_value_count_names_line(tmp_path):
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + "0 0 0 1 0 0\n" + "0 0 0 1 0 0 0\n" * 2)
    with pytest.raises(ParseError) as exc_info:
        formats.read_skeleton_file(p)
    assert exc_info.value.line == 2


def test_skeleton_oversized_quaternion_warns_and_normalizes(tmp_path):
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + "0 0 0 2 0 0 0\n" * 3)
    with pytest.warns(UserWarning):
        seq = formats.read_skeleton_file(p)
    assert np.allclose(seq.orientations[0, 0], [1, 0, 0, 0])


def test_skeleton_off_norm_quaternions_warn_once_per_file(tmp_path):
    p = tmp_path / "a.skel"
    good, off = "0 0 0 1 0 0 0\n", "0 0 0 1.5 0 0 0\n"
    p.write_text("1 6 20\n" + good + off * 4 + good)
    with pytest.warns(UserWarning) as record:
        formats.read_skeleton_file(p)
    assert len(record) == 1
    assert f"{p}:3:" in str(record[0].message) and "4 of 6" in str(record[0].message)


def test_skeleton_huge_quaternion_normalizes_without_overflow(tmp_path):
    # squaring 1e200 overflows; the norm must still come out finite
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + "0 0 0 1e200 1e200 0 0\n" + SKEL_FRAME * 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seq = formats.read_skeleton_file(p)
    assert [w.category for w in caught] == [UserWarning]
    assert f"{p}:2:" in str(caught[0].message) and "1 of 3" in str(caught[0].message)
    assert np.allclose(seq.orientations[0, 0], [np.sqrt(0.5), np.sqrt(0.5), 0, 0], rtol=0, atol=1e-15)


def test_skeleton_zero_quaternion_rejected(tmp_path):
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + "0 0 0 0 0 0 0\n" * 3)
    with pytest.raises(BadQuaternion):
        formats.read_skeleton_file(p)


@pytest.mark.parametrize(
    "frame", ["0 0 0 -nan 0 0 0", "0 0 0 1e400 0 0 0", "nan 0 0 1 0 0 0"], ids=["quat-nan", "quat-inf", "position-nan"]
)
def test_skeleton_non_finite_value_names_path_and_line(tmp_path, frame):
    p = tmp_path / "a.skel"
    p.write_text("1 3 20\n" + SKEL_FRAME + frame + "\n" + SKEL_FRAME)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="finite") as exc_info:
            formats.read_skeleton_file(p)
    assert exc_info.value.path == p and exc_info.value.line == 3


def test_skeleton_roundtrip(tmp_path, rng):
    from imuclr.quat import sample_unit_quaternions

    v, t = 3, 5
    seq = SkeletonSequence(
        rng.standard_normal((v, t, 3)),
        np.stack([sample_unit_quaternions(t, rng) for _ in range(v)]),
        25.0,
    )
    p = tmp_path / "seq.skel"
    formats.write_skeleton_file(p, seq)
    back = formats.read_skeleton_file(p)
    assert np.allclose(back.positions, seq.positions, atol=1e-15)
    assert np.allclose(back.orientations, seq.orientations, atol=1e-12)
    assert back.frame_rate == seq.frame_rate


# ---------------------------------------------------------------------------
# time-series files
# ---------------------------------------------------------------------------


def test_timeseries_text_roundtrip_exact(tmp_path, rng):
    series = random_series(rng, t=6, v=3)
    p = tmp_path / "x.ts"
    formats.write_timeseries_file(p, series)
    back = formats.read_timeseries_file(p)
    assert np.array_equal(back.data, series.data)  # repr() round-trips exactly
    assert np.array_equal(back.mask, series.mask)
    assert back.sample_rate == series.sample_rate


def test_timeseries_binary_roundtrip_bitexact(tmp_path, rng):
    series = random_series(rng, t=7, v=2)
    p1, p2 = tmp_path / "x.tsb", tmp_path / "y.tsb"
    formats.write_timeseries_file(p1, series, binary=True)
    back = formats.read_timeseries_file(p1)
    formats.write_timeseries_file(p2, back, binary=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_timeseries_mask_inconsistency_rejected(tmp_path, rng):
    series = random_series(rng, t=4, v=2)
    p = tmp_path / "x.ts"
    formats.write_timeseries_file(p, series)
    lines = p.read_text().splitlines()
    lines[1] = "1 0"  # claims joint 1 invisible, data says otherwise
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        formats.read_timeseries_file(p)


def test_timeseries_masked_joints_roundtrip(tmp_path, rng):
    data = rng.standard_normal((6, 4, 3))
    mask = np.array([True, False, True])
    data[:, :, 1] = 0.0
    series = MotionTimeSeries(data, mask, 20.0)
    for binary in (False, True):
        p = tmp_path / f"m{binary}.ts"
        formats.write_timeseries_file(p, series, binary=binary)
        back = formats.read_timeseries_file(p)
        assert np.array_equal(back.mask, mask)


def test_timeseries_non_finite_value_rejected(tmp_path):
    p = tmp_path / "x.ts"
    p.write_text("1 3 20 6\n1\n0 0 0 0 0 0\n0 0 0 0 0 0\nnan 1e400 0 0 0 0\n")
    with pytest.raises(ParseError, match="finite") as exc_info:
        formats.read_timeseries_file(p)
    assert exc_info.value.path == p and exc_info.value.line == 5
    for bad in (np.nan, np.inf):
        data = np.zeros((6, 3, 2))
        data[1, 2, 0] = bad
        p = tmp_path / "x.tsb"
        formats.write_timeseries_file(p, MotionTimeSeries(data, np.ones(2, dtype=bool), 20.0), binary=True)
        with pytest.raises(ParseError, match="finite") as exc_info:
            formats.read_timeseries_file(p)
        assert exc_info.value.path == p


def test_timeseries_header_errors(tmp_path):
    p = tmp_path / "x.ts"
    p.write_text("2 4\n")
    with pytest.raises(ParseError):
        formats.read_timeseries_file(p)
    p.write_text("1 1 20 6\n1 1\n0 0 0 0 0 0\n")  # mask width wrong
    with pytest.raises(ParseError):
        formats.read_timeseries_file(p)


def tsb(*values, version=1, tail=b""):
    """The bytes of a .tsb file: magic, u32 version, values as little-endian float64, then tail."""
    return formats.TIMESERIES_MAGIC + struct.pack("<I", version) + struct.pack(f"<{len(values)}d", *values) + tail


NAN, INF = float("nan"), float("inf")
ONE_JOINT = (1, 1, 20, 6, 1, 0, 0, 0, 0, 0, 0)  # V=1 T=1 fs=20 C=6, visible, one frame of zeros
TWO_JOINTS = (2, 1, 20, 6, 1, 0, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0)  # joint 1 masked and zero


@pytest.mark.parametrize(
    "raw, message",
    [
        # the payloads of 0 to 3 values hold no whole header
        (tsb(), "truncated or invalid binary header"),
        (tsb(1), "truncated or invalid binary header"),
        (tsb(1, 1), "truncated or invalid binary header"),
        (tsb(1, 1, 20), "truncated or invalid binary header"),
        (b"UMTS\x01\x00", "unsupported binary version -1"),
        (tsb(*ONE_JOINT, version=2), "unsupported binary version 2"),
        (tsb(*ONE_JOINT, tail=b"\0\0\0"), "payload is not a whole number of float64 values"),
        (tsb(NAN, 1, 20, 6, 1, 0, 0, 0, 0, 0, 0), "truncated or invalid binary header"),
        (tsb(1, INF, 20, 6, 1, 0, 0, 0, 0, 0, 0), "truncated or invalid binary header"),
        (tsb(1, 1, -INF, 6, 1, 0, 0, 0, 0, 0, 0), "truncated or invalid binary header"),
        (tsb(1, 1, 20, NAN, 1, 0, 0, 0, 0, 0, 0), "truncated or invalid binary header"),
        (tsb(0, 1, 20, 6), "invalid binary header values V=0 T=1 fs=20.0 C=6"),
        (tsb(1, 1, 0, 6, 1, 0, 0, 0, 0, 0, 0), "invalid binary header values V=1 T=1 fs=0.0 C=6"),
        (tsb(1, 2, 20, 6, 1, 0, 0, 0, 0, 0, 0), "expected 17 float64 values, found 11"),
        (tsb(1, 1, 20, 6, NAN, 0, 0, 0, 0, 0, 0), "mask and frame values must be finite"),
        (tsb(1, 1, 20, 6, 1, 0, 0, INF, 0, 0, 0), "mask and frame values must be finite"),
        (tsb(*TWO_JOINTS[:-1], 1e-300), "mask marks joints invisible but their channels are nonzero"),
        # with several faults, the first check in the reader's order names the file
        (tsb(NAN, 1, 20, 6, version=2, tail=b"\0"), "unsupported binary version 2"),
        (tsb(NAN, 1, 20, 6, tail=b"\0"), "payload is not a whole number of float64 values"),
        (tsb(0, NAN, 20, 6), "truncated or invalid binary header"),
        (tsb(0, 1, 20, 6, 1), "invalid binary header values V=0 T=1 fs=20.0 C=6"),
        (tsb(1, 2, 20, 6, NAN, 0, 0, 0, 0, 0, 0), "expected 17 float64 values, found 11"),
        (tsb(*TWO_JOINTS[:-1], NAN), "mask and frame values must be finite"),
    ],
)
def test_timeseries_binary_faults_are_located_in_check_order(tmp_path, raw, message):
    p = tmp_path / "x.tsb"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as caught:
        formats.read_timeseries_file(p)
    assert type(caught.value) is ParseError and caught.value.path == p
    assert str(caught.value) == f"{p}: {message}"


def test_timeseries_binary_smallest_files_read(tmp_path):
    # one visible joint, and two with the second masked, each over one frame
    p = tmp_path / "x.tsb"
    for values, mask in ((ONE_JOINT, [True]), (TWO_JOINTS, [True, False])):
        p.write_bytes(tsb(*values))
        series = formats.read_timeseries_file(p)
        assert series.data.shape == (6, 1, len(mask)) and series.sample_rate == 20.0
        assert series.mask.tolist() == mask
        assert series.data[:, 0, 0].tolist() == list(values[4 + len(mask) : 10 + len(mask)])


def test_timeseries_unreadable_path_is_located(tmp_path):
    for p, reason in (
        (tmp_path / "absent.tsb", "[Errno 2] No such file or directory"),
        (tmp_path, "[Errno 21] Is a directory"),
    ):
        with pytest.raises(ParseError) as caught:
            formats.read_timeseries_file(p)
        assert type(caught.value) is ParseError and caught.value.path == p
        assert str(caught.value) == f"{p}: cannot read file: {reason}: '{p}'"


def test_file_that_grows_while_read_is_read_whole(tmp_path, monkeypatch):
    # the reads are sized from the file's fstat size; bytes appended after it are read too
    p = tmp_path / "f.txt"
    p.write_bytes(b"x" * 1000)
    real_read, sizes = os.read, []

    def growing_read(fd, n):
        if not sizes:
            with open(p, "ab") as fh:
                fh.write(b"y" * 2500)
        sizes.append(n)
        return real_read(fd, n)

    monkeypatch.setattr(os, "read", growing_read)
    assert formats._read_bytes(p) == b"x" * 1000 + b"y" * 2500
    assert sizes == [1001, 1001, 1001, 1001, 504]


@pytest.mark.parametrize(
    "header, shown",
    [
        ((3.5, 1, 20, 6), "V=3.5 T=1.0 C=6.0"),
        ((3, 1.5, 20, 6), "V=3.0 T=1.5 C=6.0"),
        ((3, 1, 20, 6.25), "V=3.0 T=1.0 C=6.25"),
    ],
)
def test_timeseries_binary_header_counts_must_be_whole_numbers(tmp_path, header, shown):
    # each payload has the size of int()'s reading of the header, which used to load as valid
    v, t, c = (int(x) for x in (header[0], header[1], header[3]))
    p = tmp_path / "x.tsb"
    p.write_bytes(tsb(*header, *[1] * v, *[0] * (t * v * c)))
    with pytest.raises(ParseError) as caught:
        formats.read_timeseries_file(p)
    assert type(caught.value) is ParseError and caught.value.path == p
    assert str(caught.value) == f"{p}: binary header values V, T and C must be whole numbers, got {shown}"


# ---------------------------------------------------------------------------
# embedding files
# ---------------------------------------------------------------------------


def test_embedding_file_basic(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 3\na\talpha\t1 0 0\nb\tbeta\t0 1 0\n")
    table = formats.read_embedding_file(p)
    assert table.dim == 3 and set(table.ids()) == {"a", "b"}
    assert table.text("a") == "alpha"


def test_embedding_wrong_float_count_names_line(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 3\na\talpha\t1 0 0\nb\tbeta\t0 1\n")
    with pytest.raises(DimMismatch) as exc_info:
        formats.read_embedding_file(p)
    assert ":3:" in str(exc_info.value)


def test_embedding_duplicate_id(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 2\na\tx\t1 0\na\ty\t0 1\n")
    with pytest.raises(DuplicateId):
        formats.read_embedding_file(p)


def test_embedding_roundtrip(tmp_path, rng):
    table = TextEmbeddingTable(
        dim=4,
        entries={f"id{i}": (f"text {i}", rng.standard_normal(4)) for i in range(3)},
    )
    p = tmp_path / "e.txt"
    formats.write_embedding_file(p, table)
    back = formats.read_embedding_file(p)
    for key in table.ids():
        assert np.array_equal(back.vector(key), table.vector(key))
        assert back.text(key) == table.text(key)


# ---------------------------------------------------------------------------
# descriptions, mappings, manifests
# ---------------------------------------------------------------------------


def test_description_roundtrip(tmp_path):
    ds = DescriptionSet()
    ds.add("seq1", "t0")
    ds.add("seq1", "t1", paraphrase=True)
    ds.add("seq2", "t2")
    p = tmp_path / "d.tsv"
    formats.write_description_file(p, ds)
    back = formats.read_description_file(p)
    assert back.originals == ds.originals
    assert back.paraphrases == ds.paraphrases


def test_description_bad_kind(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("s\tweird\tt0\n")
    with pytest.raises(ParseError):
        formats.read_description_file(p)


def test_mapping_file_names_and_indices(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# comment\nleft_wrist j2\nhip 0\n")
    mapping = formats.read_mapping_file(p, chain_structure(4))
    assert mapping.joint("left_wrist") == 2
    assert mapping.joint("hip") == 0
    with pytest.raises(UnknownLocation):
        mapping.joint("nowhere")


def test_mapping_unknown_joint_name(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("wrist not_a_joint\n")
    with pytest.raises(ParseError):
        formats.read_mapping_file(p, chain_structure(3))


def test_manifest_parse(tmp_path):
    p = tmp_path / "man.tsv"
    p.write_text(
        "mapping devices.txt\n"
        "sample\trec1.ts\twalking\twrist\t50\t1.0\n"
        "sample\trec2.ts\trunning\twrist,hip\t25\t9.81\n"
    )
    man = formats.read_manifest_file(p)
    assert man.mapping_path == "devices.txt"
    assert len(man.samples) == 2
    assert man.samples[1].locations == ("wrist", "hip")
    assert man.samples[1].unit_scale == 9.81


def test_manifest_requires_mapping_and_samples(tmp_path):
    p = tmp_path / "man.tsv"
    p.write_text("sample\tr.ts\tw\twrist\t50\t1\n")
    with pytest.raises(ParseError):
        formats.read_manifest_file(p)
    p.write_text("mapping m.txt\n")
    with pytest.raises(ParseError):
        formats.read_manifest_file(p)


# ---------------------------------------------------------------------------
# text writers: a write that fails keeps the old file
# ---------------------------------------------------------------------------


def _descriptions():
    ds = DescriptionSet()
    ds.add("seq1", "t0")
    ds.add("seq1", "t1", paraphrase=True)
    return ds


@pytest.mark.parametrize(
    "write, value",
    [
        (formats.write_skeleton_file, SkeletonSequence(np.zeros((1, 3, 3)), np.tile([1.0, 0, 0, 0], (1, 3, 1)), 20.0)),
        (formats.write_timeseries_file, MotionTimeSeries(np.ones((6, 2, 1)), np.ones(1, dtype=bool), 20.0)),
        (formats.write_embedding_file, TextEmbeddingTable(dim=2, entries={"a": ("alpha", np.ones(2))})),
        (formats.write_description_file, _descriptions()),
    ],
    ids=["skeleton", "timeseries-text", "embedding", "description"],
)
def test_text_writer_failure_keeps_old_file(tmp_path, monkeypatch, write, value):
    path = tmp_path / "f.txt"
    path.write_bytes(b"old contents\n")

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        write(path, value)
    assert path.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


# ---------------------------------------------------------------------------
# fuzz: every reader fails cleanly on arbitrary bytes
# ---------------------------------------------------------------------------

READERS = [
    formats.read_skeleton_file,
    formats.read_timeseries_file,
    formats.read_embedding_file,
    formats.read_description_file,
    formats.read_manifest_file,
    lambda path: formats.read_mapping_file(path, body22()),
]

@pytest.mark.parametrize(
    "reader, text",
    [
        # header sizes that no frame line holds: rejected before arrays are allocated
        (formats.read_skeleton_file, "1000000000000 3 20\n" + 3 * SKEL_FRAME),
        (formats.read_timeseries_file, "1 1 20 1000000000000\n1\n0 0 0 0 0 0\n"),
        # a digit that int() does not take, read as a joint name
        (lambda path: formats.read_mapping_file(path, body22()), "wrist \u00b2\n"),
        # non-finite rates
        (formats.read_skeleton_file, "1 3 nan\n" + 3 * SKEL_FRAME),
        (formats.read_skeleton_file, "1 3 inf\n" + 3 * SKEL_FRAME),
        (formats.read_timeseries_file, "1 1 nan 6\n1\n0 0 0 0 0 0\n"),
        (formats.read_timeseries_file, "1 1 inf 6\n1\n0 0 0 0 0 0\n"),
        (formats.read_manifest_file, "mapping m.txt\nsample\tr.ts\tw\twrist\tnan\t1\n"),
        # non-finite unit scales, which would be multiplied into the accelerations
        (formats.read_manifest_file, "mapping m.txt\nsample\tr.ts\tw\twrist\t50\tnan\n"),
        (formats.read_manifest_file, "mapping m.txt\nsample\tr.ts\tw\twrist\t50\tinf\n"),
        # non-finite embedding values, which would win or lose every score they enter
        (formats.read_embedding_file, "2 3\na\talpha\t1 0 0\nb\tbeta\t0 nan 0\n"),
        (formats.read_embedding_file, "2 3\na\talpha\t1 0 0\nb\tbeta\t0 1e400 0\n"),
        (formats.read_manifest_file, "mapping \nsample\tr.ts\tw\twrist\t50\t1\n"),
    ],
    ids=["skel-huge-V", "ts-huge-C", "mapping-superscript", "skel-fs-nan", "skel-fs-inf", "ts-fs-nan",
         "ts-fs-inf", "manifest-fs-nan", "manifest-scale-nan", "manifest-scale-inf", "embedding-nan", "embedding-1e400",
         "manifest-empty-mapping"],
)
def test_reader_rejects_header_and_field_values(tmp_path, reader, text):
    path = tmp_path / "f.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        reader(path)


@given(st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_readers_never_crash_on_garbage(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    path.write_bytes(blob)
    for reader in READERS:
        try:
            reader(path)
        except PipelineError:
            pass  # ParseError family is the contract


@given(st.text(max_size=200))
@settings(max_examples=60, deadline=None)
def test_readers_never_crash_on_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.txt"
    path.write_text(text, encoding="utf-8")
    for reader in READERS:
        try:
            reader(path)
        except PipelineError:
            pass
