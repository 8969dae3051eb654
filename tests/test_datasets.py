import os
import shutil
import warnings

import numpy as np
import pytest

from conftest import chain_structure, torn_writes
from imuclr import datasets, formats
from imuclr.datasets import file_hash, load_eval_dataset, load_pretrain_samples
from imuclr.errors import ParseError, ShapeMismatch
from imuclr.simulate import MotionTimeSeries, NoiseParams
from imuclr.toy import make_toy_sequence


@pytest.fixture
def skel_dir(tmp_path):
    rng = np.random.default_rng(0)
    d = tmp_path / "skel"
    d.mkdir()
    for i in range(3):
        formats.write_skeleton_file(d / f"s{i}.skel", make_toy_sequence(i % 2, rng, duration=0.5))
    return d


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
    fresh = load_pretrain_samples(skel_dir, fs=20.0, noise=NoiseParams(0.5, 0.0), seed=0, cache=False)
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


def test_orphaned_cache_entries_are_removed(skel_dir):
    cache = skel_dir / ".simcache"
    load_pretrain_samples(skel_dir, seed=1)
    load_pretrain_samples(skel_dir, fs=10.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a current file's entries at another rate are not orphans
        load_pretrain_samples(skel_dir, seed=1)
    assert len(list(cache.glob("*.tsb"))) == 6
    # an entry named by content hash and sorted index, with no SIM_VERSION head, is an orphan too
    digest = file_hash(skel_dir / "s0.skel")
    (cache / f"{digest}_i0_fs20.0_sa0.05_sg0.005_seed1_g0.tsb").write_bytes(b"UMTS")
    os.remove(skel_dir / "s1.skel")
    with pytest.warns(UserWarning, match="removed 3 entries"):
        load_pretrain_samples(skel_dir, seed=1)
    assert len(list(cache.glob("*.tsb"))) == 4


def test_cache_serves_no_entry_of_another_simulator_version(skel_dir, monkeypatch):
    first = load_pretrain_samples(skel_dir, seed=1)
    monkeypatch.setattr(datasets, "SIM_VERSION", datasets.SIM_VERSION + 1)
    with pytest.warns(UserWarning, match="removed 3 entries"):
        again = load_pretrain_samples(skel_dir, seed=1)
    assert len(list((skel_dir / ".simcache").glob("*.tsb"))) == 3
    for a, b in zip(first, again):
        assert np.array_equal(a.series.data, b.series.data)


def test_interrupted_cache_write_leaves_no_entry(skel_dir):
    with torn_writes(), pytest.raises(OSError, match="killed midway"):
        load_pretrain_samples(skel_dir, seed=1)
    assert os.listdir(skel_dir / ".simcache") == []
    loaded = load_pretrain_samples(skel_dir, seed=1)
    fresh = load_pretrain_samples(skel_dir, seed=1, cache=False)
    for a, b in zip(loaded, fresh):
        assert np.array_equal(a.series.data, b.series.data)


def settle_index(d, after_ns=10**10):
    """Date d's hash index after_ns past the newest skeleton file's ctime, as if written well after it."""
    stamp = max(p.stat().st_ctime_ns for p in d.glob("*.skel")) + after_ns
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
    # without the cache every file is hashed, and the index is neither read nor written
    assert_same_samples(load_pretrain_samples(skel_dir, seed=1, cache=False), cold)
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
    assert_same_samples(warm, load_pretrain_samples(skel_dir, seed=1, cache=False))
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
    with torn_writes(), pytest.raises(OSError, match="killed midway"):
        load_pretrain_samples(skel_dir, seed=1)
    assert not index.exists()
    load_pretrain_samples(skel_dir, seed=1)
    old = index.read_bytes()
    formats.write_skeleton_file(skel_dir / "a.skel", make_toy_sequence(1, np.random.default_rng(9), duration=0.5))
    with torn_writes(), pytest.raises(OSError, match="killed midway"):
        load_pretrain_samples(skel_dir, seed=1)
    assert index.read_bytes() == old
    assert not list(skel_dir.rglob("*.tmp"))
    assert_same_samples(load_pretrain_samples(skel_dir, seed=1), load_pretrain_samples(skel_dir, seed=1, cache=False))
    assert_index_is_current(skel_dir)


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
