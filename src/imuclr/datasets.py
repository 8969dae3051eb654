"""Disk-backed dataset assembly for the command-line pipeline.

Pre-training data is a directory of skeleton motion files, simulated on
first use, each from its own content, in the worker pool of
imuclr.workers (which says when a load runs in-process); the results are
byte-identical to an in-process load. Evaluation data is described by a
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

import hashlib
import os
import warnings

import numpy as np

from . import formats, workers
from .contrastive import PretrainSample
from .errors import NonFinite, ParseError, ShapeMismatch
from .inference import assign_to_joints, windows
from .simulate import ACCEL, GYRO, MotionTimeSeries, NoiseParams, resample_series, simulate_sequence

SKELETON_EXT = ".skel"
BINARY_EXT = ".tsb"  # a recording named so is read as it is, without a cache entry
CACHE_VERSION = 1  # heads every entry's name; bump it when simulate.py or read_timeseries_file changes its output
CACHE_DIR = ".simcache"  # in a data directory; holds only entries
HASH_INDEX = ".simcache.index"  # beside CACHE_DIR


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
    base = os.path.join(data_dir, "")  # with a trailing separator: a file's path is base + name
    for name in names:
        file_path = base + name
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


def _entry_name(digest, suffix):
    """The name in .simcache of the entry of a file's content hash digest: CACHE_VERSION, digest, suffix."""
    return f"v{CACHE_VERSION}_{digest}{suffix}"


def _cache_names(data_dir, failures):
    """The names in data_dir/.simcache; none when it does not exist yet, or cannot be listed, which goes to failures."""
    try:
        return set(os.listdir(os.path.join(data_dir, CACHE_DIR)))
    except FileNotFoundError:
        return set()
    except OSError as exc:
        failures.append(exc)
        return set()


def _open_cache(data_dir, rows, index, digests, failures, listed):
    """Create data_dir/.simcache, write index unless None and delete the entries no current file maps to.

    listed holds the names the cache held when the load listed it
    (_cache_names); an entry among them is kept when it starts with
    v<CACHE_VERSION>_<digest> for the digest of a row (rows, from
    _indexed_hashes) or of this load (digests, names with no row included),
    so loaders of different files of one directory keep each other's
    entries; one warning counts the deleted. An OSError goes to failures;
    if the cache cannot be created, that is all.
    """
    cache_dir = os.path.join(data_dir, CACHE_DIR)
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
        for name in listed:
            if name.endswith(BINARY_EXT) and name[: len(head) + 12] not in live:
                os.remove(os.path.join(cache_dir, name))
                removed += 1
    except OSError as exc:
        failures.append(exc)
    if removed:
        warnings.warn(f"{cache_dir}: removed {removed} entries that no current file maps to", stacklevel=3)


def _cached(entry, exists, build, failures):
    """The series of entry when exists says it is there, else build()'s, written as entry unless None.

    An entry that is gone by the time it is read is built as if exists had
    been false. OSErrors of the write go to failures.
    """
    if exists:
        try:
            return formats.read_timeseries_file(entry)
        except ParseError:
            if os.path.exists(entry):
                raise
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


def _simulate_file(path, digest, fs, noise, seed, gravity):
    """Read and simulate one skeleton file: (data array or None, warnings caught, exception or None).

    The noise is seeded with [seed, digest]. The body of a pool worker and
    of an in-process load alike; load_pretrain_samples builds the series
    and re-issues the warnings. A NonFinite simulation is a ParseError
    naming path.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seq = formats.read_skeleton_file(path)
            rng = np.random.default_rng([seed, int(digest, 16)])
            data = simulate_sequence(seq, noise=noise, target_fs=fs, rng=rng, gravity=gravity).data
            result, error = np.ascontiguousarray(data), None
        except NonFinite as exc:
            result, error = None, ParseError(str(exc), path=path)
        except Exception as exc:  # handed to the caller, which raises it in file order
            result, error = None, exc
    return result, [w.message for w in caught], error


def load_pretrain_samples(data_dir, fs=20.0, noise=None, seed=0, gravity=False, num_joints=None):
    """One PretrainSample per skeleton file of data_dir, in sorted name order.

    A directory with no skeleton file is a ParseError naming it, raised
    before anything is written. With num_joints given, a file to simulate
    whose header gives another joint count is a ParseError naming it, found
    from the headers alone before any simulation and any write. A file's
    noise is seeded with the run seed and the file's content hash, so its
    simulation depends on that file alone, and files are simulated in a
    pool of worker processes when there are several (see workers). Each
    file's warnings are re-issued here and its entry written in sorted name
    order; the first file that fails raises its error, after the entries of
    the files before it. In the pool the files after it are still
    simulated, and nothing is cancelled; in-process they never start.
    Results are kept under data_dir/.simcache, keyed by exactly the
    simulation's inputs: CACHE_VERSION, content hash, rate, noise levels,
    seed and gravity (see _open_cache for eviction). When the cache cannot
    be written, the load goes on, with one warning.
    """
    if noise is None:
        noise = NoiseParams()
    present = os.listdir(data_dir)
    skel_files = sorted(n for n in present if n.endswith(SKELETON_EXT))
    if not skel_files:
        raise ParseError(f"no {SKELETON_EXT} files", path=data_dir)
    digests, rows, index = _indexed_hashes(data_dir, skel_files, set(present))
    inputs = f"_fs{fs!r}_sa{noise.sigma_accel!r}_sg{noise.sigma_gyro!r}_seed{seed}_g{int(gravity)}{BINARY_EXT}"
    names = [_entry_name(digest, inputs) for digest in digests]
    failures = []
    listed = _cache_names(data_dir, failures)  # the one listing: which entries exist, and which to evict
    base = os.path.join(data_dir, "")
    jobs = [(base + n, digest, fs, noise, seed, gravity) for n, digest in zip(skel_files, digests)]
    todo = [job for job, name in zip(jobs, names) if name not in listed]
    if num_joints is not None:
        for path, *_ in todo:
            v = formats.read_skeleton_header(path)[0]
            if v != num_joints:
                seq_id = os.path.basename(path)[: -len(SKELETON_EXT)]
                raise ParseError(f"sequence {seq_id!r} has {v} joints, skeleton has {num_joints}", path=path)
    _open_cache(data_dir, rows, index, digests, failures, listed)
    simulated = workers.run(_simulate_file, todo)  # todo's results, in file order
    cache_dir = os.path.join(data_dir, CACHE_DIR, "")  # an entry's path is cache_dir + its name
    samples = []
    for skel_file, job, name in zip(skel_files, jobs, names):

        def simulate():
            # a listed entry gone by its read is simulated here
            data, caught, error = _simulate_file(*job) if name in listed else next(simulated)
            for warning in caught:
                warnings.warn(warning, stacklevel=4)
            if error is not None:
                raise error
            return MotionTimeSeries(data, np.ones(data.shape[2], dtype=bool), fs)

        series = _cached(cache_dir + name, name in listed, simulate, failures)
        samples.append(PretrainSample(seq_id=skel_file[: -len(SKELETON_EXT)], series=series))
    _warn_unwritable(data_dir, failures)
    return samples


def _recording_entries(paths, failures):
    """{path: (its cache entry, whether the cache listed it)} of the text recordings among paths.

    A name ending in .tsb is binary and gets no entry. Each directory's
    .simcache is listed once, and the eviction reuses the listing. An
    OSError of listing a directory, or of stat'ing or reading a recording
    (which its parse then reports), goes to failures and leaves that
    directory without entries.
    """
    by_dir = {}  # {directory: {file name: [the paths naming it, as given]}}
    for path in paths:
        if not path.endswith(BINARY_EXT):
            by_dir.setdefault(os.path.dirname(path), {}).setdefault(os.path.basename(path), []).append(path)
    entries = {}
    for data_dir, named in by_dir.items():
        try:
            present = set(os.listdir(data_dir))
            names = sorted(named.keys() & present)
            digests, rows, index = _indexed_hashes(data_dir, names, present)
        except OSError as exc:
            failures.append(exc)
            continue
        listed = _cache_names(data_dir, failures)
        _open_cache(data_dir, rows, index, digests, failures, listed)
        for name, digest in zip(names, digests):
            entry = _entry_name(digest, BINARY_EXT)
            entries.update(dict.fromkeys(named[name], (os.path.join(data_dir, CACHE_DIR, entry), entry in listed)))
    return entries


def load_eval_dataset(manifest_path, structure, model_fs, window=None):
    """(MotionTimeSeries, label_name) pairs from a manifest.

    A text recording is parsed on its first load and kept, byte for byte,
    as a binary entry of .simcache in its directory, named by CACHE_VERSION
    and its content hash (see _recording_entries); later loads read the
    entry when the listing of .simcache taken before any write names it, so
    a recording listed twice is parsed for each row on the load that writes
    its entry. When the cache cannot be written, the load goes on from the
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
        entry, listed = entries.get(path, (None, False))
        series = _cached(entry, listed, lambda: formats.read_timeseries_file(path), failures)
        if series.data.shape[0] != 6:  # ax ay az gx gy gz per device (FORMATS.md)
            raise ParseError(f"a recording has 6 channels per device, this one {series.data.shape[0]}", path=path)
        if abs(series.sample_rate - item.native_fs) > 1e-9:
            raise ParseError(
                f"file says {series.sample_rate} Hz but manifest says {item.native_fs} Hz",
                path=path,
            )
        series.data[ACCEL] *= item.unit_scale  # in place: every read or parse returns a fresh array
        if series.sample_rate != model_fs:
            series = resample_series(series, model_fs)
        data, locations = series.data, item.locations
        if data.shape[2] != len(locations):
            raise ShapeMismatch(f"recording has {data.shape[2]} device slots but manifest lists {len(locations)}")
        devices = {loc: (data[ACCEL, :, i].T, data[GYRO, :, i].T) for i, loc in enumerate(locations)}
        assigned = assign_to_joints(devices, mapping, structure.num_joints, model_fs)
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
