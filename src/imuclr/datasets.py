"""Disk-backed dataset assembly for the command-line pipeline.

Pre-training data is a directory of skeleton motion files, simulated on
first use, each from its own content. A load with two or more files to
simulate hands them to a pool of forked worker processes, one per usable
CPU, started by the first such load and kept until the interpreter exits
(see _submit); the results are byte-identical to an in-process load.
Evaluation data is described by a
manifest referencing per-device recordings, which are parsed, unit-scaled,
resampled to the model rate, assigned to skeleton joints and cut into
windows; a warning reports the tail frames the windows leave out.

Both loaders keep what they derive from a file in one cache, .simcache in
the file's directory: a simulation under CACHE_VERSION, the file's content
hash and the simulation's inputs, a parsed text recording under
CACHE_VERSION and its content hash. The hashes come from the directory's
.simcache.index, re-used while a file's stat is unchanged. Both evict and
handle a cache they cannot write the same way (see _open_cache, _cached).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import sys
import warnings

import numpy as np

from . import formats
from .contrastive import PretrainSample
from .errors import NonFinite, ParseError, ShapeMismatch
from .inference import assign_to_joints, windows
from .simulate import ACCEL, GYRO, MotionTimeSeries, NoiseParams, resample_series, simulate_sequence

SKELETON_EXT = ".skel"
BINARY_EXT = ".tsb"  # a recording named so is read as it is, without a cache entry
CACHE_VERSION = 1  # heads every entry's name; bump it when simulate.py or read_timeseries_file changes its output
HASH_INDEX = ".simcache.index"  # beside .simcache, which holds only entries


def file_hash(path):
    """First 12 hex digits of the SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def _indexed_hashes(data_dir, names, present):
    """(digests, rows, index) of the named files of data_dir.

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
    each other's rows. index is the bytes of the new index when a file was
    hashed or the rows differ from the old one, for _open_cache to write,
    and None otherwise: a load that hashes nothing of an unchanged
    directory writes nothing.
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
    text = "".join(f"{name}\t{rows[name]}\n" for name in sorted(rows))
    return digests, rows, text.encode("utf-8", "surrogateescape") if hashed or text != old_text else None


def _entry(data_dir, digest, suffix):
    """The cache entry of data_dir named by CACHE_VERSION, a content hash and suffix."""
    return os.path.join(data_dir, ".simcache", f"v{CACHE_VERSION}_{digest}{suffix}")


def _open_cache(data_dir, rows, index, digests, failures):
    """Create data_dir/.simcache, write index unless None and delete the entries no current file maps to.

    An entry is kept when it starts with v<CACHE_VERSION>_<digest> for the
    digest of a row (rows, from _indexed_hashes) or of this load (digests,
    names with no row included), so loaders of different files of one
    directory keep each other's entries; one warning counts the deleted.
    An OSError goes to failures; if the cache cannot be created, that is all.
    """
    cache_dir = os.path.join(data_dir, ".simcache")
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        failures.append(exc)
        return
    head = f"v{CACHE_VERSION}_"
    live = {head + d for d in digests} | {head + rest[-12:] for rest in rows.values()}
    removed = 0
    try:
        if index is not None:
            formats.write_atomic(os.path.join(data_dir, HASH_INDEX), index)
        for name in os.listdir(cache_dir):
            if name.endswith(BINARY_EXT) and name[: len(head) + 12] not in live:
                os.remove(os.path.join(cache_dir, name))
                removed += 1
    except OSError as exc:
        failures.append(exc)
    if removed:
        warnings.warn(f"{cache_dir}: removed {removed} entries that no current file maps to", stacklevel=3)


def _cached(entry, build, failures):
    """The series of entry when it exists, else build()'s, written as entry unless None; OSErrors go to failures."""
    if entry is not None and os.path.exists(entry):
        return formats.read_timeseries_file(entry)
    series = build()
    if entry is not None:
        try:
            formats.write_timeseries_file(entry, series, binary=True)
        except OSError as exc:
            failures.append(exc)
    return series


def _warn_unwritable(source, failures):
    if failures:
        warnings.warn(
            f"{source}: cannot write the cache ({failures[0]}); entries it lacks are rebuilt on every load",
            stacklevel=3,
        )


_pool = None  # the process-wide ProcessPoolExecutor of _simulate_file, or None (see _submit)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drop_pool():
    """Shut the simulation pool down, if there is one; the next load with files to simulate starts another."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        atexit.unregister(_drop_pool)
        pool.shutdown(cancel_futures=True)


def _submit(jobs):
    """{path: future of _simulate_file(*job)} for jobs (path first), or {} when they are to run in-process.

    Two or more jobs go to the process-wide pool: a ProcessPoolExecutor with
    the fork start method and one worker per usable CPU, started by the
    first such call and shut down at interpreter exit. Its workers keep the
    module code they were forked with. The jobs run in-process when there
    are fewer than two, one usable CPU, no fork start method, or CPython
    3.12 or later, which deprecates forking a process that has threads
    (BLAS's among them). A pool found broken is dropped, and the jobs run
    in-process.
    """
    global _pool
    if len(jobs) < 2 or _usable_cpus() < 2 or sys.version_info >= (3, 12):
        return {}
    import multiprocessing  # here, not at the top: a warm load never pays for these imports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _pool is None:
        if "fork" not in multiprocessing.get_all_start_methods():
            return {}
        _pool = ProcessPoolExecutor(_usable_cpus(), multiprocessing.get_context("fork"), _die_with_parent)
        atexit.register(_drop_pool)
    try:
        return {job[0]: _pool.submit(_simulate_file, *job) for job in jobs}
    except BrokenProcessPool:
        _drop_pool()
        return {}


def _die_with_parent():
    """Pool worker initializer: on Linux, the kernel kills the worker when the thread that forked it exits.

    So the worker dies with its process, even one killed by a signal, which
    would otherwise leave it blocked forever on its empty task queue. A pool
    whose workers died so is found broken and replaced.
    """
    import ctypes
    import signal

    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    except (AttributeError, OSError):  # no prctl: not Linux
        pass


def _simulate_file(path, digest, fs, noise, seed, gravity):
    """Read and simulate one skeleton file: ((data bytes, shape) or None, warnings caught, exception or None).

    The noise is seeded with [seed, digest]. The body of a pool worker and
    of an in-process load alike; load_pretrain_samples rebuilds the series
    and re-issues the warnings. A NonFinite simulation is a ParseError
    naming path.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seq = formats.read_skeleton_file(path)
            rng = np.random.default_rng([seed, int(digest, 16)])
            data = simulate_sequence(seq, noise=noise, target_fs=fs, rng=rng, gravity=gravity).data
            result, error = (data.tobytes(), data.shape), None
        except NonFinite as exc:
            result, error = None, ParseError(str(exc), path=path)
        except Exception as exc:  # handed to the caller, which raises it in file order
            result, error = None, exc
    return result, [w.message for w in caught], error


def _outcome(future, job):
    """future's result; _simulate_file(*job)'s when there is no future or its pool broke, which drops the pool."""
    if future is not None:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return future.result()
        except BrokenProcessPool:
            _drop_pool()
    return _simulate_file(*job)


def load_pretrain_samples(data_dir, fs=20.0, noise=None, seed=0, gravity=False, num_joints=None):
    """One PretrainSample per skeleton file of data_dir, in sorted name order.

    A directory with no skeleton file is a ParseError naming it, raised
    before anything is written. With num_joints given, a file to simulate
    whose header gives another joint count is a ParseError naming it, found
    from the headers alone before any simulation and any write. A file's
    noise is seeded with the run seed and the file's content hash, so its
    simulation depends on that file alone, and files are simulated in a
    pool of worker processes when there are several (see _submit). Each
    file's warnings are re-issued here and its entry written in sorted name
    order; the first file that fails raises its error, after the entries of
    the files before it. Results are kept under data_dir/.simcache, keyed
    by exactly the simulation's inputs: CACHE_VERSION, content hash, rate,
    noise levels, seed and gravity (see _open_cache for eviction). When the
    cache cannot be written, the load goes on, with one warning.
    """
    if noise is None:
        noise = NoiseParams()
    present = os.listdir(data_dir)
    skel_files = sorted(n for n in present if n.endswith(SKELETON_EXT))
    if not skel_files:
        raise ParseError(f"no {SKELETON_EXT} files", path=data_dir)
    digests, rows, index = _indexed_hashes(data_dir, skel_files, set(present))
    inputs = f"_fs{fs!r}_sa{noise.sigma_accel!r}_sg{noise.sigma_gyro!r}_seed{seed}_g{int(gravity)}{BINARY_EXT}"
    entries = [_entry(data_dir, digest, inputs) for digest in digests]
    jobs = [(os.path.join(data_dir, n), digest, fs, noise, seed, gravity) for n, digest in zip(skel_files, digests)]
    todo = [job for job, entry in zip(jobs, entries) if not os.path.exists(entry)]
    if num_joints is not None:
        for path, *_ in todo:
            v = formats.read_skeleton_header(path)[0]
            if v != num_joints:
                seq_id = os.path.basename(path)[: -len(SKELETON_EXT)]
                raise ParseError(f"sequence {seq_id!r} has {v} joints, skeleton has {num_joints}", path=path)
    failures = []
    _open_cache(data_dir, rows, index, digests, failures)
    futures = _submit(todo)
    samples = []
    try:
        for name, job, entry in zip(skel_files, jobs, entries):

            def simulate():
                result, caught, error = _outcome(futures.pop(job[0], None), job)
                for warning in caught:
                    warnings.warn(warning, stacklevel=4)
                if error is not None:
                    raise error
                data = np.frombuffer(result[0]).reshape(result[1]).copy()
                return MotionTimeSeries(data, np.ones(data.shape[2], dtype=bool), fs)

            samples.append(PretrainSample(seq_id=name[: -len(SKELETON_EXT)], series=_cached(entry, simulate, failures)))
    finally:
        for future in futures.values():  # those of the files after one that failed
            future.cancel()
    _warn_unwritable(data_dir, failures)
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
    """{path: its cache entry} of the text recordings among paths; a name ending in .tsb is binary and gets none.

    An OSError of listing a directory, or of stat'ing or reading a recording
    (which its parse then reports), goes to failures and leaves that
    directory without entries.
    """
    by_dir = {}
    for path in paths:
        if not path.endswith(BINARY_EXT):
            by_dir.setdefault(os.path.dirname(path), set()).add(os.path.basename(path))
    entries = {}
    for data_dir, names in by_dir.items():
        try:
            present = set(os.listdir(data_dir))
            names = sorted(names & present)
            digests, rows, index = _indexed_hashes(data_dir, names, present)
        except OSError as exc:
            failures.append(exc)
            continue
        _open_cache(data_dir, rows, index, digests, failures)
        for name, digest in zip(names, digests):
            entries[os.path.join(data_dir, name)] = _entry(data_dir, digest, BINARY_EXT)
    return entries


def load_eval_dataset(manifest_path, structure, model_fs, window=None):
    """(MotionTimeSeries, label_name) pairs from a manifest.

    A text recording is parsed on its first load and kept, byte for byte,
    as a binary entry of .simcache in its directory, named by CACHE_VERSION
    and its content hash (see _recording_entries); later loads read the
    entry. When the cache cannot be written, the load goes on from the
    parse, with one warning per call. Accelerometer channels are
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
        series = _cached(entries.get(path), lambda: formats.read_timeseries_file(path), failures)
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
    _warn_unwritable(manifest_path, failures)
    if dropped_frames:
        warnings.warn(
            f"{manifest_path}: dropped {dropped_frames} tail frames from {cut_recordings} of "
            f"{len(manifest.samples)} recordings (windows of {window} frames)",
            stacklevel=2,
        )
    return dataset
