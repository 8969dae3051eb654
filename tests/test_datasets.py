import functools
import multiprocessing
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
import warnings

import numpy as np
import pytest

from conftest import chain_structure, in_process, needs_pool, src_env, torn_writes
from imuclr import datasets, formats, workers
from imuclr.datasets import file_hash, load_eval_dataset, load_pretrain_samples
from imuclr.errors import ParseError, ShapeMismatch
from imuclr.simulate import ACCEL, GYRO, MotionTimeSeries, NoiseParams, simulate_sequence
from imuclr.toy import make_toy_sequence


@pytest.fixture
def skel_dir(tmp_path):
    rng = np.random.default_rng(0)
    d = tmp_path / "skel"
    d.mkdir()
    for i in range(3):
        formats.write_skeleton_file(d / f"s{i}.skel", make_toy_sequence(i % 2, rng, duration=0.5))
    return d


def copy_skeletons(skel_dir):
    """A new directory beside skel_dir holding copies of its .skel files."""
    fresh = pathlib.Path(tempfile.mkdtemp(dir=skel_dir.parent))
    for path in skel_dir.glob("*.skel"):
        shutil.copyfile(path, fresh / path.name)
    return fresh


def fresh_load(skel_dir, **kwargs):
    """load_pretrain_samples of copies of skel_dir's .skel files in a new directory: each file hashed and simulated."""
    return load_pretrain_samples(copy_skeletons(skel_dir), **kwargs)


def test_load_from_skeletons_and_cache(skel_dir):
    noise = NoiseParams(0.05, 0.005)
    first = load_pretrain_samples(skel_dir, fs=20.0, noise=noise, seed=4)
    assert [s.seq_id for s in first] == ["s0", "s1", "s2"]
    cache = skel_dir / ".simcache"
    assert len(list(cache.glob("*.tsb"))) == 3
    # second load must come from cache, bit-identical
    again = load_pretrain_samples(skel_dir, fs=20.0, noise=noise, seed=4)
    for a, b in zip(first, again):
        assert np.array_equal(a.series.data, b.series.data)


def test_cache_key_respects_seed_and_sigma(skel_dir):
    load_pretrain_samples(skel_dir, fs=20.0, noise=NoiseParams(0.05, 0.005), seed=4)
    load_pretrain_samples(skel_dir, fs=20.0, noise=NoiseParams(0.05, 0.005), seed=5)
    load_pretrain_samples(skel_dir, fs=20.0, noise=NoiseParams(0.01, 0.005), seed=4)
    assert len(list((skel_dir / ".simcache").glob("*.tsb"))) == 9


def test_noise_stream_is_per_file_content(skel_dir):
    # noise is seeded with the run seed and the content hash: a copy under another
    # name gets the same noise and shares its cache entry, other files do not
    shutil.copyfile(skel_dir / "s1.skel", skel_dir / "copy.skel")
    fresh = fresh_load(skel_dir, fs=20.0, noise=NoiseParams(0.5, 0.0), seed=0)
    assert [s.seq_id for s in fresh] == ["copy", "s0", "s1", "s2"]
    assert np.array_equal(fresh[0].series.data, fresh[2].series.data)
    assert not np.array_equal(fresh[1].series.data, fresh[2].series.data)
    warm = load_pretrain_samples(skel_dir, fs=20.0, noise=NoiseParams(0.5, 0.0), seed=0)
    assert len(list((skel_dir / ".simcache").glob("*.tsb"))) == 3
    for w, f in zip(warm, fresh):
        assert np.array_equal(w.series.data, f.series.data), w.seq_id


def test_adding_a_file_leaves_other_files_alone(skel_dir):
    cache = skel_dir / ".simcache"
    before = {s.seq_id: s.series.data for s in load_pretrain_samples(skel_dir, seed=1)}
    entries = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.glob("*.tsb")}
    # new content whose name sorts before every other file
    formats.write_skeleton_file(skel_dir / "a.skel", make_toy_sequence(1, np.random.default_rng(9), duration=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        after = load_pretrain_samples(skel_dir, seed=1)
    assert [s.seq_id for s in after] == ["a", "s0", "s1", "s2"]
    for sample in after[1:]:
        assert np.array_equal(sample.series.data, before[sample.seq_id]), sample.seq_id
    for name, (data, mtime) in entries.items():
        assert (cache / name).read_bytes() == data and (cache / name).stat().st_mtime_ns == mtime, name
    assert len(list(cache.glob("*.tsb"))) == 4


def test_interrupted_cache_write_leaves_no_entry(skel_dir):
    with torn_writes(), pytest.warns(UserWarning, match="killed midway"):
        torn = load_pretrain_samples(skel_dir, seed=1)
    assert os.listdir(skel_dir / ".simcache") == []
    fresh = fresh_load(skel_dir, seed=1)
    assert_same_samples(torn, fresh)
    assert_same_samples(load_pretrain_samples(skel_dir, seed=1), fresh)


def settle_index(d, after_ns=10**10, pattern="*.skel"):
    """Date d's hash index after_ns past the newest ctime of d's files matching pattern, as if written well after it."""
    stamp = max(p.stat().st_ctime_ns for p in d.glob(pattern)) + after_ns
    os.utime(d / datasets.HASH_INDEX, ns=(stamp, stamp))


def count_hashes(monkeypatch):
    """The names datasets.file_hash is called on from now on, in call order."""
    calls = []
    real = datasets.file_hash

    def counting(path):
        calls.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(datasets, "file_hash", counting)
    return calls


def index_state(d):
    index = d / datasets.HASH_INDEX
    return index.read_bytes(), index.stat().st_mtime_ns


def assert_index_is_current(d):
    rows = [row.split("\t") for row in (d / datasets.HASH_INDEX).read_text().splitlines()]
    names = sorted(p.name for p in d.glob("*.skel"))
    assert [row[0] for row in rows] == names
    for name, *stat, digest in rows:
        st = (d / name).stat()
        assert stat == [str(v) for v in (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev)]
        assert digest == file_hash(d / name)


def assert_same_samples(a, b):
    assert [s.seq_id for s in a] == [s.seq_id for s in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.series.data, y.series.data), x.seq_id


def test_warm_arrays_are_writable_own_their_memory_and_equal_the_cold_ones(skel_dir):
    cold = load_pretrain_samples(skel_dir, seed=1)
    warm = load_pretrain_samples(skel_dir, seed=1)
    entries = sorted((skel_dir / ".simcache").glob("*.tsb"))
    read = [formats.read_timeseries_file(p) for p in entries]
    assert len(warm) == len(read) == 3
    for x, y in zip(cold, warm):
        for a, b in ((x.series.data, y.series.data), (x.series.mask, y.series.mask)):
            assert (a.shape, a.dtype, a.flags.c_contiguous) == (b.shape, b.dtype, b.flags.c_contiguous)
            assert a.tobytes() == b.tobytes()
    for series in [s.series for s in warm] + read:
        for a in (series.data, series.mask):
            assert a.flags.writeable and a.flags.owndata and a.base is None
        series.data[0, 0, 0] += 1.0  # no read-only view of the file's bytes


def test_warm_load_with_a_current_index_hashes_and_writes_nothing(skel_dir, monkeypatch):
    cold = load_pretrain_samples(skel_dir, seed=1)
    assert_index_is_current(skel_dir)
    settle_index(skel_dir)
    cache = skel_dir / ".simcache"
    index_before = index_state(skel_dir)
    entries = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()}
    calls = count_hashes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = load_pretrain_samples(skel_dir, seed=1)
    assert calls == []
    assert index_state(skel_dir) == index_before
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()} == entries
    assert sorted(entries) == sorted(p.name for p in cache.glob("*.tsb"))  # the index is not in .simcache
    assert_same_samples(warm, cold)
    # copies in a new directory are each hashed, and this directory's index is neither read nor written
    assert_same_samples(fresh_load(skel_dir, seed=1), cold)
    assert calls == ["s0.skel", "s1.skel", "s2.skel"]
    assert index_state(skel_dir) == index_before


def test_same_size_rewrite_with_restored_mtime_is_hashed_and_simulated_again(skel_dir, monkeypatch):
    load_pretrain_samples(skel_dir, seed=1)
    settle_index(skel_dir)
    path = skel_dir / "s0.skel"
    st = path.stat()
    data = path.read_bytes()
    start = data.index(b"\n") + 1  # the first joint's x position of the first frame
    assert data[start : start + 4] == b"0.0 "
    path.write_bytes(data[:start] + b"0.5" + data[start + 3 :])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns, path.stat().st_ino) == (st.st_size, st.st_mtime_ns, st.st_ino)
    calls = count_hashes(monkeypatch)
    with pytest.warns(UserWarning, match="removed 1 entries"):  # the old content's entry
        warm = load_pretrain_samples(skel_dir, seed=1)
    assert calls == ["s0.skel"]
    assert_same_samples(warm, fresh_load(skel_dir, seed=1))
    assert len(list((skel_dir / ".simcache").glob("*.tsb"))) == 3
    assert_index_is_current(skel_dir)


def test_index_not_newer_than_a_file_change_is_not_trusted_for_that_file(skel_dir, monkeypatch):
    # git's racy-clean rule: a row counts only if the file last changed strictly
    # before the index was written, since a later change in the same tick keeps its stat
    load_pretrain_samples(skel_dir, seed=1)
    ctimes = {p.name: p.stat().st_ctime_ns for p in skel_dir.glob("*.skel")}
    newest = max(ctimes.values())
    calls = count_hashes(monkeypatch)
    settle_index(skel_dir, after_ns=1)
    load_pretrain_samples(skel_dir, seed=1)
    assert calls == []
    settle_index(skel_dir, after_ns=0)
    load_pretrain_samples(skel_dir, seed=1)
    assert calls == sorted(name for name, ctime in ctimes.items() if ctime == newest)
    assert index_state(skel_dir)[1] != newest  # rewritten, so that the next load may trust it
    assert_index_is_current(skel_dir)


def _random_bytes(text):
    return np.random.default_rng(0).bytes(300)


def _drop_digest_of_s0(text):
    first, rest = text.split("\n", 1)
    return first.rsplit("\t", 1)[0] + "\n" + rest


def _non_numeric_size_of_s0(text):
    name, size, rest = text.split("\t", 2)
    return "\t".join((name, "x" + size, rest))


def _row_for_a_vanished_file(text):
    return text + text.split("\n")[0].replace("s0.skel", "gone.skel", 1) + "\n"


@pytest.mark.parametrize(
    "spoil, hashed",
    [
        (_random_bytes, ["s0.skel", "s1.skel", "s2.skel"]),
        (_drop_digest_of_s0, ["s0.skel"]),
        (_non_numeric_size_of_s0, ["s0.skel"]),
        (_row_for_a_vanished_file, []),
    ],
    ids=["random-bytes", "field-count", "non-numeric", "vanished-file"],
)
def test_bad_index_rows_are_hashed_again_and_rewritten(skel_dir, monkeypatch, spoil, hashed):
    cold = load_pretrain_samples(skel_dir, seed=1)
    index = skel_dir / datasets.HASH_INDEX
    spoiled = spoil(index.read_text())
    index.write_bytes(spoiled if isinstance(spoiled, bytes) else spoiled.encode())
    settle_index(skel_dir)
    calls = count_hashes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = load_pretrain_samples(skel_dir, seed=1)
    assert calls == hashed
    assert_same_samples(warm, cold)
    assert_index_is_current(skel_dir)
    assert len(list((skel_dir / ".simcache").iterdir())) == 3


def test_torn_index_write_leaves_the_old_index_or_none(skel_dir):
    index = skel_dir / datasets.HASH_INDEX
    with torn_writes(), pytest.warns(UserWarning, match="killed midway"):
        load_pretrain_samples(skel_dir, seed=1)
    assert not index.exists()
    load_pretrain_samples(skel_dir, seed=1)
    old = index.read_bytes()
    formats.write_skeleton_file(skel_dir / "a.skel", make_toy_sequence(1, np.random.default_rng(9), duration=0.5))
    with torn_writes(), pytest.warns(UserWarning, match="killed midway"):
        load_pretrain_samples(skel_dir, seed=1)
    assert index.read_bytes() == old
    assert not list(skel_dir.rglob("*.tmp"))
    assert_same_samples(load_pretrain_samples(skel_dir, seed=1), fresh_load(skel_dir, seed=1))
    assert_index_is_current(skel_dir)


def test_joint_counts_are_checked_from_the_headers_of_files_to_simulate(skel_dir, monkeypatch):
    calls = []
    real = formats.read_skeleton_header
    def counting(path):
        calls.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(formats, "read_skeleton_header", counting)
    cold = load_pretrain_samples(skel_dir, seed=1, num_joints=22)
    assert calls == ["s0.skel", "s1.skel", "s2.skel"]
    warm = load_pretrain_samples(skel_dir, seed=1, num_joints=22)  # served from .simcache: no header is read
    assert calls == ["s0.skel", "s1.skel", "s2.skel"]
    assert_same_samples(warm, cold)
    with pytest.raises(ParseError, match="sequence 's0' has 22 joints, skeleton has 5") as caught:
        load_pretrain_samples(skel_dir, seed=2, num_joints=5)
    assert caught.value.path == str(skel_dir / "s0.skel")


def test_overflowing_simulation_is_a_located_error_and_not_cached(tmp_path):
    # a finite but huge position overflows the second derivative at 20 Hz
    d = tmp_path / "skel"
    d.mkdir()
    still = "0 0 0 1 0 0 0\n"
    (d / "a.skel").write_text("1 4 20\n" + still + "1e307 0 0 1 0 0 0\n" + still * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as caught:
            load_pretrain_samples(d, fs=20.0, seed=0)
    assert caught.value.path == str(d / "a.skel")
    assert not list((d / ".simcache").iterdir())


def test_dir_of_recordings_without_skeletons_is_located_error(tmp_path, rng):
    # already simulated recordings are not pretraining input; nothing is written
    d = tmp_path / "sim"
    d.mkdir()
    series = MotionTimeSeries(rng.standard_normal((6, 5, 3)), np.ones(3, dtype=bool), 20.0)
    formats.write_timeseries_file(d / "r0.ts", series)
    formats.write_timeseries_file(d / "r1.tsb", series, binary=True)
    with pytest.raises(ParseError, match="no .skel files") as caught:
        load_pretrain_samples(d)
    assert caught.value.path == d
    assert sorted(os.listdir(d)) == ["r0.ts", "r1.tsb"]


def test_empty_dir_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_pretrain_samples(tmp_path)


@pytest.fixture
def manifest_dir(tmp_path, rng):
    d = tmp_path / "real"
    d.mkdir()
    # 2-device recording at 40 Hz, accel in g units
    series = MotionTimeSeries(rng.standard_normal((6, 9, 2)), np.ones(2, dtype=bool), 40.0)
    formats.write_timeseries_file(d / "rec.ts", series)
    (d / "map.txt").write_text("wrist 2\nhip 0\n")
    (d / "manifest.tsv").write_text(
        "mapping map.txt\nsample\trec.ts\twalk\twrist,hip\t40\t9.81\n"
    )
    return d, series


def test_eval_dataset_scales_resamples_assigns(manifest_dir):
    d, raw = manifest_dir
    out = load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0)
    assert len(out) == 1
    series, label = out[0]
    assert label == "walk"
    assert series.sample_rate == 20.0
    assert series.num_frames == 5  # floor(8 * 20/40) + 1
    assert series.num_joints == 4
    assert np.array_equal(series.mask, [True, False, True, False])
    # device slot 0 (wrist) lands at joint 2 with accel scaled by 9.81
    assert np.allclose(series.data[0, 0, 2], raw.data[0, 0, 0] * 9.81)
    # gyro channels are not unit-scaled
    assert np.allclose(series.data[3, 0, 2], raw.data[3, 0, 0])


def test_eval_dataset_windows(manifest_dir):
    d, _ = manifest_dir
    with pytest.warns(UserWarning, match="dropped 1 tail frames from 1 of 1 recordings"):
        out = load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=40.0, window=4)
    assert [s.num_frames for s, _ in out] == [4, 4]


def test_eval_dataset_reports_dropped_tail(tmp_path, rng):
    # 100 frames at window 40 give 2 windows and drop 20 frames; 80 frames drop none
    d = tmp_path / "tail"
    d.mkdir()
    (d / "map.txt").write_text("wrist 2\n")
    lines = ["mapping map.txt"]
    for name, frames in (("long.ts", 100), ("even.ts", 80)):
        series = MotionTimeSeries(rng.standard_normal((6, frames, 1)), np.ones(1, dtype=bool), 20.0)
        formats.write_timeseries_file(d / name, series)
        lines.append(f"sample\t{name}\twalk\twrist\t20\t1.0")
    (d / "manifest.tsv").write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="dropped 20 tail frames from 1 of 2 recordings"):
        out = load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0, window=40)
    assert [s.num_frames for s, _ in out] == [40, 40, 40, 40]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0, window=20)) == 9


def test_eval_dataset_fs_mismatch(manifest_dir):
    d, _ = manifest_dir
    (d / "manifest.tsv").write_text("mapping map.txt\nsample\trec.ts\twalk\twrist,hip\t25\t1.0\n")
    with pytest.raises(ParseError):
        load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0)


def test_eval_dataset_device_count_mismatch(manifest_dir):
    d, _ = manifest_dir
    (d / "manifest.tsv").write_text("mapping map.txt\nsample\trec.ts\twalk\twrist\t40\t1.0\n")
    with pytest.raises(ShapeMismatch):
        load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0)


@pytest.mark.parametrize("channels", [4, 8])
def test_eval_recording_without_six_channels_is_located_error(manifest_dir, channels):
    # channels 6 and 7 used to be dropped without a word; 4 channels failed with an unlocated ShapeMismatch
    d, _ = manifest_dir
    series = MotionTimeSeries(np.ones((channels, 9, 2)), np.ones(2, dtype=bool), 40.0)
    for name, binary in (("rec.ts", False), ("rec.tsb", True)):
        formats.write_timeseries_file(d / name, series, binary=binary)
        (d / "manifest.tsv").write_text(f"mapping map.txt\nsample\t{name}\twalk\twrist,hip\t40\t9.81\n")
        for _ in range(2):  # parsed, then read from its cache entry
            with pytest.raises(ParseError) as caught:
                load_eval_dataset(d / "manifest.tsv", chain_structure(4), model_fs=20.0)
            assert type(caught.value) is ParseError and caught.value.path == str(d / name)
            assert str(caught.value).endswith(f"a recording has 6 channels per device, this one {channels}")


# ---------------------------------------------------------------------------
# the .simcache entries of parsed evaluation recordings
# ---------------------------------------------------------------------------


@pytest.fixture
def rec_dir(tmp_path, rng):
    """Four 2-device text recordings at 40 Hz, a mapping, and manifests over all of them and over each half."""
    d = tmp_path / "recs"
    d.mkdir()
    (d / "map.txt").write_text("wrist 2\nhip 0\n")
    rows = []
    for i in range(4):
        mask = np.array([True, i != 3])  # the last recording's hip device is off
        series = MotionTimeSeries(rng.standard_normal((6, 9 + 4 * i, 2)) * mask, mask, 40.0)
        formats.write_timeseries_file(d / f"r{i}.ts", series)
        rows.append(f"sample\tr{i}.ts\tc{i % 2}\twrist,hip\t40\t9.81\n")
    for name, chosen in (("all", rows), ("first", rows[:2]), ("second", rows[2:])):
        (d / f"{name}.tsv").write_text("mapping map.txt\n" + "".join(chosen))
    return d


def windows_of(manifest):
    return load_eval_dataset(manifest, chain_structure(4), model_fs=20.0)


def load_eval(manifest):
    """windows_of(manifest), with any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return windows_of(manifest)


def parsed(manifest, monkeypatch):
    """load_eval_dataset with no cache: every recording parsed, nothing written."""
    with monkeypatch.context() as mp:
        mp.setattr(datasets, "_recording_entries", lambda paths, failures: {})
        return load_eval(manifest)


def assert_same_windows(a, b):
    assert len(a) == len(b)
    for (x, label_x), (y, label_y) in zip(a, b):
        assert label_x == label_y and x.sample_rate == y.sample_rate
        for u, v in ((x.data, y.data), (x.mask, y.mask)):
            assert (u.shape, u.dtype, u.flags.c_contiguous) == (v.shape, v.dtype, v.flags.c_contiguous)
            assert u.tobytes() == v.tobytes()


def entry_state(d):
    cache = d / ".simcache"
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()} if cache.exists() else {}


def count_reads(monkeypatch):
    """The paths formats.read_timeseries_file is called on from now on."""
    calls = []
    real = formats.read_timeseries_file

    def counting(path):
        calls.append(str(path))
        return real(path)

    monkeypatch.setattr(formats, "read_timeseries_file", counting)
    return calls


def test_recording_cache_serves_the_parse_byte_for_byte(rec_dir, monkeypatch):
    manifest = rec_dir / "all.tsv"
    expected = parsed(manifest, monkeypatch)
    assert not (rec_dir / ".simcache").exists() and not (rec_dir / datasets.HASH_INDEX).exists()
    cold = load_eval(manifest)
    entries = entry_state(rec_dir)
    digests = [file_hash(rec_dir / f"r{i}.ts") for i in range(4)]
    assert sorted(entries) == sorted(f"v{datasets.CACHE_VERSION}_{d}.tsb" for d in digests)
    for i, digest in enumerate(digests):  # an entry is the binary form of its recording
        text = formats.read_timeseries_file(rec_dir / f"r{i}.ts")
        formats.write_timeseries_file(rec_dir / "x.tsb", text, binary=True)
        assert entries[f"v{datasets.CACHE_VERSION}_{digest}.tsb"][0] == (rec_dir / "x.tsb").read_bytes()
    os.remove(rec_dir / "x.tsb")
    settle_index(rec_dir, pattern="*.ts")
    index_before = index_state(rec_dir)
    hashes, reads = count_hashes(monkeypatch), count_reads(monkeypatch)
    warm = load_eval(manifest)
    assert hashes == []
    assert reads == [str(rec_dir / ".simcache" / f"v{datasets.CACHE_VERSION}_{d}.tsb") for d in digests]
    assert index_state(rec_dir) == index_before and entry_state(rec_dir) == entries
    assert_same_windows(cold, expected)
    assert_same_windows(warm, expected)


def test_binary_recordings_get_no_entry(rec_dir, monkeypatch):
    for i in range(4):
        formats.write_timeseries_file(rec_dir / f"r{i}.tsb", formats.read_timeseries_file(rec_dir / f"r{i}.ts"),
                                      binary=True)
        os.remove(rec_dir / f"r{i}.ts")
    manifest = rec_dir / "all.tsv"
    manifest.write_text(manifest.read_text().replace(".ts\t", ".tsb\t"))
    expected = parsed(manifest, monkeypatch)
    hashes = count_hashes(monkeypatch)
    assert_same_windows(load_eval(manifest), expected)
    assert_same_windows(load_eval(manifest), expected)
    assert hashes == []
    assert not (rec_dir / ".simcache").exists() and not (rec_dir / datasets.HASH_INDEX).exists()


def test_recording_rewritten_with_restored_stat_is_parsed_again(rec_dir, monkeypatch):
    manifest = rec_dir / "all.tsv"
    load_eval(manifest)
    settle_index(rec_dir, pattern="*.ts")
    path = rec_dir / "r1.ts"
    st = path.stat()
    data = path.read_bytes()
    start = data.index(b"\n", data.index(b"\n") + 1) + 1  # the first frame value
    digit = data.index(b"1", start)
    path.write_bytes(data[:digit] + b"2" + data[digit + 1 :])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns, path.stat().st_ino) == (st.st_size, st.st_mtime_ns, st.st_ino)
    hashes, reads = count_hashes(monkeypatch), count_reads(monkeypatch)
    with pytest.warns(UserWarning, match="removed 1 entries that no current file maps to"):
        warm = windows_of(manifest)
    assert hashes == ["r1.ts"] and str(path) in reads
    assert_same_windows(warm, parsed(manifest, monkeypatch))
    assert f"v{datasets.CACHE_VERSION}_{file_hash(path)}.tsb" in entry_state(rec_dir)
    assert len(entry_state(rec_dir)) == 4


def test_a_recording_listed_twice_is_unit_scaled_for_each_row(rec_dir):
    # scaling works in place on the array each read returns, so the first row's scale must not reach the second
    manifest = rec_dir / "twice.tsv"
    manifest.write_text("mapping map.txt\nsample\tr0.ts\tc0\twrist,hip\t40\t2\nsample\tr0.ts\tc1\twrist,hip\t40\t1\n")
    for _ in range(2):  # parsed, then read from its cache entry
        (twice, _), (once, _) = load_eval(manifest)
        assert np.any(once.data[ACCEL] != 0.0)
        assert np.array_equal(twice.data[ACCEL], 2.0 * once.data[ACCEL])
        assert twice.data[GYRO].tobytes() == once.data[GYRO].tobytes()
    assert len(entry_state(rec_dir)) == 1


def test_two_manifests_over_one_directory_evict_nothing_of_each_other(rec_dir, monkeypatch):
    first, second = rec_dir / "first.tsv", rec_dir / "second.tsv"
    load_eval(first)
    load_eval(second)
    entries = entry_state(rec_dir)
    assert len(entries) == 4
    settle_index(rec_dir, pattern="*.ts")
    index_before = index_state(rec_dir)
    hashes = count_hashes(monkeypatch)
    for manifest in (first, second, first):
        load_eval(manifest)  # warnings are errors: no eviction
    assert hashes == [] and entry_state(rec_dir) == entries and index_state(rec_dir) == index_before


def test_recording_named_with_a_doubled_separator_is_parsed_once(rec_dir, monkeypatch):
    sub = rec_dir / "sub"
    sub.mkdir()
    os.rename(rec_dir / "r0.ts", sub / "r0.ts")
    manifest = rec_dir / "doubled.tsv"
    manifest.write_text("mapping map.txt\nsample\tsub//r0.ts\tc0\twrist,hip\t40\t9.81\n")
    reads = count_reads(monkeypatch)
    for _ in range(3):
        load_eval(manifest)
    assert reads.count(os.path.join(str(rec_dir), "sub//r0.ts")) == 1
    assert list(entry_state(sub)) == [f"v{datasets.CACHE_VERSION}_{file_hash(sub / 'r0.ts')}.tsb"]


# ---------------------------------------------------------------------------
# both loaders: one cache, one eviction rule, one write-failure policy
# ---------------------------------------------------------------------------


@pytest.fixture(params=["skeletons", "recordings"])
def loader(request, skel_dir, rec_dir, monkeypatch):
    """One loader over its directory of sources.

    load() reads through the cache, reference() gives the same result
    without it, other() loads some of the same files in another way (the
    skeletons at another rate; the first half of the recordings), and
    same(a, b) asserts two results equal.
    """
    if request.param == "skeletons":
        return types.SimpleNamespace(
            dir=skel_dir, pattern="*.skel", same=assert_same_samples,
            load=functools.partial(load_pretrain_samples, skel_dir, seed=1),
            reference=functools.partial(fresh_load, skel_dir, seed=1),
            other=functools.partial(load_pretrain_samples, skel_dir, fs=10.0, seed=1),
        )
    return types.SimpleNamespace(
        dir=rec_dir, pattern="*.ts", same=assert_same_windows,
        load=functools.partial(windows_of, rec_dir / "all.tsv"),
        reference=lambda: parsed(rec_dir / "all.tsv", monkeypatch),
        other=functools.partial(windows_of, rec_dir / "first.tsv"),
    )


def test_cache_serves_no_entry_of_another_version(loader, monkeypatch):
    loader.load()
    old = set(os.listdir(loader.dir / ".simcache"))
    monkeypatch.setattr(datasets, "CACHE_VERSION", datasets.CACHE_VERSION + 1)
    reads = count_reads(monkeypatch)
    with pytest.warns(UserWarning, match=f"removed {len(old)} entries that no current file maps to"):
        again = loader.load()
    assert not [path for path in reads if ".simcache" in path]
    new = set(os.listdir(loader.dir / ".simcache"))
    assert len(new) == len(old) and not new & old
    assert all(name.startswith(f"v{datasets.CACHE_VERSION}_") for name in new)
    loader.same(again, loader.reference())


def test_orphaned_entries_are_removed(loader):
    cache = loader.dir / ".simcache"
    loader.load()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a current file's entries under other inputs, or outside this load, stay
        loader.other()
    first, *_, last = sorted(loader.dir.glob(loader.pattern))
    gone = {name for name in os.listdir(cache) if name.startswith(f"v{datasets.CACHE_VERSION}_{file_hash(last)}")}
    kept = set(os.listdir(cache)) - gone
    assert gone and kept
    os.remove(last)
    digest = file_hash(first)
    (cache / f"v0_{digest}.tsb").write_bytes(b"UMTS")  # another version
    (cache / f"{digest}_i0_fs20.0_sa0.05_sg0.005_seed1_g0.tsb").write_bytes(b"UMTS")  # no version head
    (cache / "stray.tmp").write_bytes(b"")  # not an entry: kept
    with pytest.warns(UserWarning, match=f"removed {len(gone) + 2} entries that no current file maps to") as caught:
        loader.other()
    assert len(caught) == 1
    assert set(os.listdir(cache)) == kept | {"stray.tmp"}


def test_file_named_with_a_tab_keeps_its_entry(skel_dir):
    # such a name can have no index row: its entry is kept for the digest this load computed
    os.rename(skel_dir / "s1.skel", skel_dir / "a\tb.skel")
    cold = load_pretrain_samples(skel_dir, seed=1)
    entries = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (skel_dir / ".simcache").iterdir()}
    assert len(entries) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            assert_same_samples(load_pretrain_samples(skel_dir, seed=1), cold)
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (skel_dir / ".simcache").iterdir()} == entries
    assert "a\tb" not in (skel_dir / datasets.HASH_INDEX).read_text()


def refuse_write(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


@pytest.mark.parametrize("how", ["no-cache-dir", "no-writes"])
def test_unwritable_cache_still_loads_with_one_warning(loader, monkeypatch, how):
    # chmod does not stop root, so the refusals are patched in
    expected = loader.reference()
    cache = loader.dir / ".simcache"
    if how == "no-cache-dir":
        monkeypatch.setattr(datasets.os, "mkdir", refuse_write)
    else:
        cache.mkdir()
        (cache / "v0_000000000000.tsb").write_bytes(b"")  # an orphan it cannot remove
        monkeypatch.setattr(formats, "write_atomic", refuse_write)
        monkeypatch.setattr(datasets.os, "remove", refuse_write)
    for _ in range(2):
        with pytest.warns(UserWarning, match="cannot write the cache") as caught:
            out = loader.load()
        assert len([w for w in caught if "cannot write" in str(w.message)]) == 1
        loader.same(out, expected)
    assert not (loader.dir / datasets.HASH_INDEX).exists()
    left = [p.name for p in cache.glob("*.tsb")]
    assert left == ([] if how == "no-cache-dir" else ["v0_000000000000.tsb"])


def test_entry_gone_before_its_read_is_rebuilt(loader, monkeypatch):
    # another process may evict an entry after the load listed the cache and before it reads the entry
    expected = loader.reference()
    loader.load()
    entries = entry_state(loader.dir)
    victim = str(sorted((loader.dir / ".simcache").glob("*.tsb"))[1])
    real, removed = formats.read_timeseries_file, []

    def evicting(path):
        if str(path) == victim:
            os.remove(path)
            removed.append(path)
        return real(path)

    monkeypatch.setattr(formats, "read_timeseries_file", evicting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = loader.load()
    assert removed == [victim]
    loader.same(warm, expected)
    assert {name: data for name, (data, _) in entry_state(loader.dir).items()} == {
        name: data for name, (data, _) in entries.items()
    }


def test_unreadable_cache_entry_is_a_located_error(loader):
    # an entry of either kind that fails to read is a ParseError naming it, to be deleted by hand
    loader.load()
    entry = sorted((loader.dir / ".simcache").glob("*.tsb"))[0]
    entry.write_bytes(entry.read_bytes()[:-3])
    with pytest.raises(ParseError) as caught:
        loader.load()
    assert caught.value.path == str(entry)


def test_skeleton_and_recording_loaders_keep_each_others_rows_and_entries(skel_dir, rec_dir, monkeypatch):
    for p in rec_dir.iterdir():
        shutil.move(p, skel_dir / p.name)
    manifest = skel_dir / "all.tsv"
    load_pretrain_samples(skel_dir, seed=1)
    load_eval(manifest)
    rows = [row.split("\t")[0] for row in (skel_dir / datasets.HASH_INDEX).read_text().splitlines()]
    assert rows == sorted([f"r{i}.ts" for i in range(4)] + ["s0.skel", "s1.skel", "s2.skel"])
    settle_index(skel_dir, pattern="*")
    state = index_state(skel_dir), entry_state(skel_dir), sorted(os.listdir(skel_dir / ".simcache"))
    hashes = count_hashes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither loader evicts the other's entries
        load_pretrain_samples(skel_dir, seed=1)
        load_eval(manifest)
        load_pretrain_samples(skel_dir, seed=1)
    assert hashes == []
    assert (index_state(skel_dir), entry_state(skel_dir), sorted(os.listdir(skel_dir / ".simcache"))) == state


# ---------------------------------------------------------------------------
# simulation in the worker pool
# ---------------------------------------------------------------------------


def cache_bytes(d):
    return [(p.name, p.read_bytes()) for p in sorted((d / ".simcache").iterdir())]


pooled_or_not = pytest.mark.parametrize(
    "pool", [pytest.param(True, marks=needs_pool, id="pooled"), pytest.param(False, id="in-process")]
)


@needs_pool
def test_pooled_cold_load_equals_an_in_process_one(skel_dir, fresh_pool, monkeypatch):
    noise = NoiseParams(0.05, 0.005)
    pool_dir, serial_dir = copy_skeletons(skel_dir), copy_skeletons(skel_dir)
    pool = load_pretrain_samples(pool_dir, fs=20.0, noise=noise, seed=4)
    assert workers._pool is not None and len(multiprocessing.active_children()) == 2
    in_process(monkeypatch)
    serial = load_pretrain_samples(serial_dir, fs=20.0, noise=noise, seed=4)
    assert [s.seq_id for s in pool] == [s.seq_id for s in serial] == ["s0", "s1", "s2"]
    for a, b in zip(pool, serial):
        path = serial_dir / f"{a.seq_id}.skel"
        rng = np.random.default_rng([4, int(file_hash(path), 16)])
        direct = simulate_sequence(formats.read_skeleton_file(path), noise=noise, target_fs=20.0, rng=rng)
        assert a.series.data.tobytes() == b.series.data.tobytes() == direct.data.tobytes(), a.seq_id
        assert np.array_equal(a.series.mask, b.series.mask) and a.series.sample_rate == b.series.sample_rate
    assert cache_bytes(pool_dir) == cache_bytes(serial_dir)
    assert len(cache_bytes(pool_dir)) == 3


def write_frames(path, *quaternions, x=0.0):
    """A one-joint .skel file at 20 Hz at rest at (x, 0, 0), one frame per quaternion (w first)."""
    lines = [f"{x!r} 0 0 {' '.join(map(repr, q))}\n" for q in quaternions]
    path.write_text(f"1 {len(lines)} 20\n" + "".join(lines))


@pooled_or_not
def test_off_norm_quaternions_warn_once_each_in_file_order_through_the_callers_filters(tmp_path, fresh_pool,
                                                                                      monkeypatch, pool):
    if not pool:
        in_process(monkeypatch)
    good, off = (1.0, 0.0, 0.0, 0.0), (1.5, 0.0, 0.0, 0.0)
    for d in (tmp_path / "record", tmp_path / "error"):
        d.mkdir()
        write_frames(d / "a.skel", good, good, good, good)
        write_frames(d / "b.skel", good, off, good, good)
        write_frames(d / "c.skel", good, good, good, good, x=1.0)
        write_frames(d / "d.skel", off, off, good, good)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_pretrain_samples(tmp_path / "record")
    warned = [str(w.message).split(":")[0] for w in caught]
    assert warned == [str(tmp_path / "record" / name) for name in ("b.skel", "d.skel")]
    assert "on 1 of 4 frame lines" in str(caught[0].message) and "on 2 of 4 frame lines" in str(caught[1].message)
    assert {w.filename for w in caught} == {__file__}  # issued in the caller, whose filters apply
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="b.skel:3: quaternion norm outside"):
            load_pretrain_samples(tmp_path / "error")
    entries = [name for name, _ in cache_bytes(tmp_path / "error")]
    first = file_hash(tmp_path / "error" / "a.skel")
    assert len(entries) == 1 and entries[0].startswith(f"v{datasets.CACHE_VERSION}_{first}_")


def b_and_d_overflow(tmp_path):
    """A directory of a.skel to d.skel, of which b and d overflow the second derivative at 20 Hz."""
    d = tmp_path / "skel"
    d.mkdir()
    still = "0 0 0 1 0 0 0\n"
    for name, jump in (("a", "1"), ("b", "1e307"), ("c", "2"), ("d", "1e307")):
        (d / f"{name}.skel").write_text("1 4 20\n" + still + f"{jump} 0 0 1 0 0 0\n" + still * 2)
    return d


@pooled_or_not
def test_first_failing_file_in_name_order_raises_after_the_entries_before_it(tmp_path, fresh_pool, monkeypatch, pool):
    if not pool:
        in_process(monkeypatch)
    d = b_and_d_overflow(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="overflow") as caught:
            load_pretrain_samples(d, seed=0)
    assert caught.value.path == str(d / "b.skel")
    entries = [name for name, _ in cache_bytes(d)]
    assert len(entries) == 1 and entries[0].startswith(f"v{datasets.CACHE_VERSION}_{file_hash(d / 'a.skel')}_")


def test_an_in_process_load_simulates_no_file_after_the_first_that_fails(tmp_path, monkeypatch):
    in_process(monkeypatch)
    d, real, simulated = b_and_d_overflow(tmp_path), datasets._simulate_file, []

    def recording(path, *args):
        simulated.append(os.path.basename(path))
        return real(path, *args)

    monkeypatch.setattr(datasets, "_simulate_file", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="overflow"):
            load_pretrain_samples(d, seed=0)
    assert simulated == ["a.skel", "b.skel"]


@needs_pool
def test_a_killed_worker_leaves_the_load_whole_and_the_next_cold_load_gets_a_fresh_pool(skel_dir, fresh_pool,
                                                                                         monkeypatch):
    parent, real = os.getpid(), formats.read_skeleton_file

    def killed_in_a_worker_on_s1(path):
        if os.getpid() != parent and path.endswith("s1.skel"):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path)

    reference = copy_skeletons(skel_dir)
    in_process(monkeypatch)
    expected = load_pretrain_samples(reference, seed=1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(formats, "read_skeleton_file", killed_in_a_worker_on_s1)
    killed = copy_skeletons(skel_dir)
    samples = load_pretrain_samples(killed, seed=1)
    assert [a.series.data.tobytes() for a in samples] == [b.series.data.tobytes() for b in expected]
    assert cache_bytes(killed) == cache_bytes(reference)
    assert workers._pool is None and not multiprocessing.active_children()  # the broken pool was dropped
    monkeypatch.setattr(formats, "read_skeleton_file", real)
    assert_same_samples(fresh_load(skel_dir, seed=1), expected)
    assert workers._pool is not None and len(multiprocessing.active_children()) == 2


def test_warm_loads_and_one_file_to_simulate_start_no_process(skel_dir, fresh_pool):
    (skel_dir / "s2.skel").rename(skel_dir.parent / "s2.skel")
    load_pretrain_samples(skel_dir, seed=1)  # two files to simulate
    workers.drop_pool()
    load_pretrain_samples(skel_dir, seed=1)  # none
    (skel_dir.parent / "s2.skel").rename(skel_dir / "s2.skel")
    load_pretrain_samples(skel_dir, seed=1)  # one
    single = skel_dir.parent / "single"
    single.mkdir()
    shutil.copyfile(skel_dir / "s0.skel", single / "s0.skel")
    load_pretrain_samples(single, seed=2)  # one
    assert workers._pool is None and not multiprocessing.active_children()


@needs_pool
def test_workers_keep_the_module_code_they_were_forked_with(skel_dir, fresh_pool, monkeypatch):
    expected = fresh_load(skel_dir, seed=1)
    real = datasets.simulate_sequence

    def doubled(*args, **kwargs):
        series = real(*args, **kwargs)
        return MotionTimeSeries(2.0 * series.data, series.mask, series.sample_rate)

    monkeypatch.setattr(datasets, "simulate_sequence", doubled)
    assert_same_samples(fresh_load(skel_dir, seed=1), expected)  # the pool's workers predate the patch
    workers.drop_pool()
    patched = fresh_load(skel_dir, seed=1)  # fresh workers, forked with it
    for a, b in zip(patched, expected):
        assert np.array_equal(a.series.data, 2.0 * b.series.data), a.seq_id


def running(pid):
    """Whether pid names a process that is neither gone nor a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_pool
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the parent-death signal is Linux's")
def test_workers_die_with_a_parent_killed_by_a_signal(skel_dir):
    # without the parent-death signal they would wait forever on their task queue
    code = (
        "import multiprocessing, sys; from imuclr import datasets, workers; workers.usable_cpus = lambda: 2; "
        "datasets.load_pretrain_samples(sys.argv[1]); "
        "print(*[p.pid for p in multiprocessing.active_children()], flush=True); sys.stdin.read()"
    )
    with subprocess.Popen([sys.executable, "-c", code, str(skel_dir)], env=src_env(), text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as parent:
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=60)
    deadline = time.monotonic() + 30
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2 and not survivors
