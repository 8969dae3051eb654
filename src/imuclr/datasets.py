"""Disk-backed dataset assembly for the command-line pipeline.

Pre-training data is a directory of skeleton motion files, simulated on
first use, each from its own content, and cached under .simcache keyed by
simulator version, content hash, rate, noise levels, seed and gravity.
Evaluation data is described by a manifest referencing per-device
recordings. Each text recording is parsed once and kept as a binary entry
under .tscache beside it, keyed by reader version and content hash; the
recordings are then unit-scaled, resampled to the model rate, assigned to
skeleton joints and cut into windows, and a warning reports the tail frames
the windows leave out. Both caches take the content hashes from their
directory's .simcache.index, re-used while a file's stat is unchanged.
"""

from __future__ import annotations

import hashlib
import os
import warnings

import numpy as np

from . import formats
from .contrastive import PretrainSample
from .errors import NonFinite, ParseError, ShapeMismatch
from .inference import assign_to_joints, windows
from .simulate import ACCEL, GYRO, MotionTimeSeries, NoiseParams, resample_series, simulate_sequence

SKELETON_EXT = ".skel"
BINARY_EXT = ".tsb"  # a recording named so is read as it is, without a .tscache entry
SIM_VERSION = 1  # heads every .simcache key; bump it when simulate.py changes its output
READER_VERSION = 1  # heads every .tscache key; bump it when read_timeseries_file changes its output
RECORDING_CACHE = ".tscache"
HASH_INDEX = ".simcache.index"  # beside .simcache and .tscache, which hold only their entries


def file_hash(path):
    """First 12 hex digits of the SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def _indexed_hashes(data_dir, names, present):
    """(digests, rows, changed) of the named files of data_dir.

    digests holds each file's file_hash, re-used from data_dir/.simcache.index
    where a row is trusted. A row (name, st_size, st_mtime_ns, st_ctime_ns,
    st_ino, st_dev, digest, tab-separated) is trusted when the file's stat
    still equals it and its st_ctime_ns is older than the index's own
    st_mtime_ns, so a rewrite within one timestamp tick of the index is
    hashed again. Any other file is hashed. An unreadable or malformed
    index, or a bad row, costs only hashing.

    rows maps a name to its row without the name: the named files' rows as
    checked now, and the index's rows of the other names of present (the
    directory's names), so loaders of different files of one directory keep
    each other's rows. changed says whether a file was hashed or the rows
    differ from the index, which _write_index then rewrites; a load that
    hashes nothing of an unchanged directory writes nothing.
    """
    path = os.path.join(data_dir, HASH_INDEX)
    old_text, written, rows = "", 0, {}
    try:
        with open(path, "rb") as fh:
            written = os.fstat(fh.fileno()).st_mtime_ns
            old_text = fh.read().decode("utf-8", "surrogateescape")
    except OSError:
        pass
    for row in old_text.split("\n"):
        name, tab, rest = row.partition("\t")
        if tab and name in present:
            rows[name] = rest
    digests, hashed = [], False
    for name in names:
        file_path = os.path.join(data_dir, name)
        st = os.stat(file_path)  # before the read: a change during it leaves the row stale
        signature = f"{st.st_size}\t{st.st_mtime_ns}\t{st.st_ctime_ns}\t{st.st_ino}\t{st.st_dev}\t"
        rest = rows.get(name, "")
        digest = rest[len(signature):]
        trusted = (
            rest.startswith(signature)
            and st.st_ctime_ns < written
            and len(digest) == 12
            and not digest.strip("0123456789abcdef")
        )
        if not trusted:
            digest = file_hash(file_path)
            hashed = True
        digests.append(digest)
        if "\t" not in name and "\n" not in name:  # such a name cannot be a row; it is hashed every load
            rows[name] = signature + digest
    return digests, rows, hashed or _index_text(rows) != old_text


def _index_text(rows):
    return "".join(f"{name}\t{rows[name]}\n" for name in sorted(rows))


def _write_index(data_dir, rows):
    """Write rows as data_dir/.simcache.index, atomically."""
    formats.write_atomic(os.path.join(data_dir, HASH_INDEX), _index_text(rows).encode("utf-8", "surrogateescape"))


def _evict(cache_dir, live, sources):
    """Delete the .tsb entries of cache_dir that start with none of the prefixes live; warn once with their count."""
    orphans = [n for n in os.listdir(cache_dir) if n.endswith(".tsb") and not n.startswith(live)]
    for name in orphans:
        os.remove(os.path.join(cache_dir, name))
    if orphans:
        warnings.warn(f"{cache_dir}: removed {len(orphans)} entries that no current {sources} maps to", stacklevel=3)


def load_pretrain_samples(data_dir, fs=20.0, noise=None, seed=0, gravity=False, cache=True, num_joints=None):
    """One PretrainSample per skeleton file of data_dir, in sorted name order.

    A directory with no skeleton file is a ParseError naming it, raised
    before anything is written. With num_joints given, a file to simulate
    whose header gives another joint count is a ParseError naming it, found
    from the headers alone before any simulation and any write. A file's
    noise is seeded with the run seed and the file's content hash, so its
    simulation depends on that file alone. With cache set, results are kept
    under data_dir/.simcache, keyed by exactly the simulation's inputs:
    SIM_VERSION, content hash, rate, noise levels, seed and gravity. Entries
    that do not start with SIM_VERSION and a current file's hash are
    deleted, with one warning giving their count. With cache set, the
    content hashes come from data_dir/.simcache.index, so a file whose stat
    is unchanged since it was last hashed is not read again (see
    _indexed_hashes); without it, every file is hashed.
    """
    if noise is None:
        noise = NoiseParams()
    present = os.listdir(data_dir)
    skel_files = sorted(n for n in present if n.endswith(SKELETON_EXT))
    if not skel_files:
        raise ParseError(f"no {SKELETON_EXT} files", path=data_dir)
    cache_dir = os.path.join(data_dir, ".simcache")
    if cache:
        hashes, rows, changed = _indexed_hashes(data_dir, skel_files, set(present))
    else:
        hashes = [file_hash(os.path.join(data_dir, name)) for name in skel_files]
    inputs = f"fs{fs!r}_sa{noise.sigma_accel!r}_sg{noise.sigma_gyro!r}_seed{seed}_g{int(gravity)}.tsb"
    entries = [os.path.join(cache_dir, f"v{SIM_VERSION}_{digest}_{inputs}") for digest in hashes]
    hits = [cache and os.path.exists(entry) for entry in entries]
    for name, hit in zip(skel_files, hits):
        if num_joints is None or hit:
            continue
        path = os.path.join(data_dir, name)
        v = formats.read_skeleton_header(path)[0]
        if v != num_joints:
            raise ParseError(f"sequence {name[: -len(SKELETON_EXT)]!r} has {v} joints, skeleton has {num_joints}",
                             path=path)
    if cache:
        os.makedirs(cache_dir, exist_ok=True)
        if changed:
            _write_index(data_dir, rows)
        _evict(cache_dir, tuple(f"v{SIM_VERSION}_{digest}_" for digest in hashes), f"{SKELETON_EXT} file")
    samples = []
    for name, digest, entry, hit in zip(skel_files, hashes, entries, hits):
        if hit:
            series = formats.read_timeseries_file(entry)
        else:
            path = os.path.join(data_dir, name)
            try:
                series = simulate_sequence(
                    formats.read_skeleton_file(path),
                    noise=noise,
                    target_fs=fs,
                    rng=np.random.default_rng([seed, int(digest, 16)]),
                    gravity=gravity,
                )
            except NonFinite as exc:
                raise ParseError(str(exc), path=path) from None
            if cache:
                formats.write_timeseries_file(entry, series, binary=True)
        samples.append(PretrainSample(seq_id=name[: -len(SKELETON_EXT)], series=series))
    return samples


def _device_series_to_mapping_input(series, locations):
    """Split a V=#devices recording into per-location (accel, gyro) pairs."""
    if series.num_joints != len(locations):
        raise ShapeMismatch(
            f"recording has {series.num_joints} device slots but manifest lists {len(locations)}"
        )
    out = {}
    for i, loc in enumerate(locations):
        accel = series.data[ACCEL, :, i].T
        gyro = series.data[GYRO, :, i].T
        out[loc] = (accel, gyro)
    return out


def _recording_entries(paths, failures):
    """{path: its .tscache entry} of the text recordings among paths; a name ending in .tsb is binary and gets none.

    Per directory, the content hashes come from its .simcache.index, which
    is rewritten when it changed, and the entries of its .tscache that no
    file with a row in that index maps to are deleted, with one warning
    giving their count, so a load of one manifest keeps the entries of
    other manifests' recordings in the directory. An OSError of listing the
    directory, creating the cache or writing to it goes to failures. One of
    the first two, or of stat'ing or reading a recording (which its parse
    then reports), leaves that directory without entries.
    """
    by_dir = {}
    for path in paths:
        if not path.endswith(BINARY_EXT):
            by_dir.setdefault(os.path.dirname(path), set()).add(os.path.basename(path))
    entries = {}
    for data_dir, names in by_dir.items():
        cache_dir = os.path.join(data_dir, RECORDING_CACHE)
        try:
            present = set(os.listdir(data_dir))  # first, so that a missing data_dir is not created
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            failures.append(exc)
            continue
        names = sorted(names & present)
        try:
            digests, rows, changed = _indexed_hashes(data_dir, names, present)
        except OSError:
            continue
        try:
            if changed:
                _write_index(data_dir, rows)
            _evict(cache_dir, tuple(f"v{READER_VERSION}_{rest[-12:]}." for rest in rows.values()), "recording")
        except OSError as exc:
            failures.append(exc)
        for name, digest in zip(names, digests):
            entries[os.path.join(data_dir, name)] = os.path.join(cache_dir, f"v{READER_VERSION}_{digest}{BINARY_EXT}")
    return entries


def load_eval_dataset(manifest_path, structure, model_fs, window=None):
    """(MotionTimeSeries, label_name) pairs from a manifest.

    A text recording is parsed on its first load and kept, byte for byte,
    as a binary entry of .tscache in its directory, named by READER_VERSION
    and its content hash (see _recording_entries); later loads read the
    entry. When the cache cannot be created or written, the load goes on
    from the parse, with one warning per call. Accelerometer channels are
    multiplied by the per-sample unit scale, everything is resampled to the
    model rate, devices are assigned to their mapped joints and long
    recordings are cut into non-overlapping windows (see inference.windows).
    When windows leave tail frames out, one warning per call gives their
    total and the number of recordings cut.
    """
    manifest = formats.read_manifest_file(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    mapping = formats.read_mapping_file(os.path.join(base, manifest.mapping_path), structure)
    paths = [os.path.join(base, item.data_path) for item in manifest.samples]
    failures = []
    entries = _recording_entries(paths, failures)
    dataset = []
    dropped_frames = cut_recordings = 0
    for item, path in zip(manifest.samples, paths):
        entry = entries.get(path)
        if entry is not None and os.path.exists(entry):
            series = formats.read_timeseries_file(entry)
        else:
            series = formats.read_timeseries_file(path)
            if entry is not None:
                try:
                    formats.write_timeseries_file(entry, series, binary=True)
                except OSError as exc:
                    failures.append(exc)
        if abs(series.sample_rate - item.native_fs) > 1e-9:
            raise ParseError(
                f"file says {series.sample_rate} Hz but manifest says {item.native_fs} Hz",
                path=path,
            )
        data = series.data.copy()
        data[ACCEL] *= item.unit_scale
        series = MotionTimeSeries(data, series.mask, series.sample_rate)
        if series.sample_rate != model_fs:
            series = resample_series(series, model_fs)
        device_data = _device_series_to_mapping_input(series, item.locations)
        assigned = assign_to_joints(device_data, mapping, structure.num_joints, model_fs)
        pieces = windows(assigned, window)
        dropped = assigned.num_frames - sum(p.num_frames for p in pieces)
        if dropped:
            dropped_frames += dropped
            cut_recordings += 1
        dataset += [(piece, item.label) for piece in pieces]
    if failures:
        warnings.warn(
            f"{manifest_path}: cannot write the recording cache ({failures[0]}); "
            f"recordings missing from it are parsed on every load",
            stacklevel=2,
        )
    if dropped_frames:
        warnings.warn(
            f"{manifest_path}: dropped {dropped_frames} tail frames from {cut_recordings} of "
            f"{len(manifest.samples)} recordings (windows of {window} frames)",
            stacklevel=2,
        )
    return dataset
