"""Disk-backed dataset assembly for the command-line pipeline.

Pre-training data is a directory of skeleton motion files, simulated on
first use, each from its own content, and cached under .simcache keyed by
simulator version, content hash, rate, noise levels, seed and gravity; the
content hashes are kept in .simcache.index, re-used while a file's stat is
unchanged.
Evaluation data is described by a manifest referencing per-device
recordings, which are unit-scaled, resampled to the model rate, assigned to
skeleton joints and cut into windows; a warning reports the tail frames the
windows leave out.
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
SIM_VERSION = 1  # heads every .simcache key; bump it when simulate.py changes its output
HASH_INDEX = ".simcache.index"  # beside .simcache, which holds only its entries


def file_hash(path):
    """First 12 hex digits of the SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def _indexed_hashes(data_dir, names):
    """file_hash of each named file of data_dir, re-used from data_dir/.simcache.index where a row is trusted.

    A row (name, st_size, st_mtime_ns, st_ctime_ns, st_ino, st_dev, digest,
    tab-separated) is trusted when the file's stat still equals it and its
    st_ctime_ns is older than the index's own st_mtime_ns, so a rewrite
    within one timestamp tick of the index is hashed again. Any other file
    is hashed. An unreadable or malformed index, or a bad row, costs only
    hashing. The index is rewritten, atomically, only when a file was hashed
    or a row changes, so a load that hashes nothing writes nothing.
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
        name, _, rest = row.partition("\t")
        rows[name] = rest
    digests, new_rows, rewrite = [], [], False
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
        digests.append(digest)
        if "\t" not in name and "\n" not in name:  # such a name cannot be a row; it is hashed every load
            new_rows.append(f"{name}\t{signature}{digest}\n")
            rewrite = rewrite or not trusted
    new_text = "".join(new_rows)
    if rewrite or new_text != old_text:
        formats.write_atomic(path, new_text.encode("utf-8", "surrogateescape"))
    return digests


def load_pretrain_samples(data_dir, fs=20.0, noise=None, seed=0, gravity=False, cache=True):
    """One PretrainSample per skeleton file of data_dir, in sorted name order.

    A directory with no skeleton file is a ParseError naming it, raised
    before anything is written. A file's noise is seeded with the run seed
    and the file's content hash, so its simulation depends on that file
    alone. With cache set, results are kept under data_dir/.simcache, keyed
    by exactly the simulation's inputs: SIM_VERSION, content hash, rate,
    noise levels, seed and gravity. Entries that do not start with
    SIM_VERSION and a current file's hash are deleted, with one warning
    giving their count. With cache set, the content hashes come from
    data_dir/.simcache.index, so a file whose stat is unchanged since it was
    last hashed is not read again (see _indexed_hashes); without it, every
    file is hashed.
    """
    if noise is None:
        noise = NoiseParams()
    skel_files = sorted(n for n in os.listdir(data_dir) if n.endswith(SKELETON_EXT))
    if not skel_files:
        raise ParseError(f"no {SKELETON_EXT} files", path=data_dir)
    cache_dir = os.path.join(data_dir, ".simcache")
    if not cache:
        hashes = [file_hash(os.path.join(data_dir, name)) for name in skel_files]
    else:
        os.makedirs(cache_dir, exist_ok=True)
        hashes = _indexed_hashes(data_dir, skel_files)
        live = tuple(f"v{SIM_VERSION}_{digest}_" for digest in hashes)
        orphans = [n for n in os.listdir(cache_dir) if n.endswith(".tsb") and not n.startswith(live)]
        for name in orphans:
            os.remove(os.path.join(cache_dir, name))
        if orphans:
            warnings.warn(
                f"{cache_dir}: removed {len(orphans)} entries that no current {SKELETON_EXT} file maps to",
                stacklevel=2,
            )
    inputs = f"fs{fs!r}_sa{noise.sigma_accel!r}_sg{noise.sigma_gyro!r}_seed{seed}_g{int(gravity)}.tsb"
    samples = []
    for name, digest in zip(skel_files, hashes):
        cache_path = os.path.join(cache_dir, f"v{SIM_VERSION}_{digest}_{inputs}")
        if cache and os.path.exists(cache_path):
            series = formats.read_timeseries_file(cache_path)
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
                formats.write_timeseries_file(cache_path, series, binary=True)
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


def load_eval_dataset(manifest_path, structure, model_fs, window=None):
    """(MotionTimeSeries, label_name) pairs from a manifest.

    Accelerometer channels are multiplied by the per-sample unit scale,
    everything is resampled to the model rate, devices are assigned to their
    mapped joints and long recordings are cut into non-overlapping windows
    (see inference.windows). When windows leave tail frames out, one
    warning per call gives their total and the number of recordings cut.
    """
    manifest = formats.read_manifest_file(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    mapping = formats.read_mapping_file(os.path.join(base, manifest.mapping_path), structure)
    dataset = []
    dropped_frames = cut_recordings = 0
    for item in manifest.samples:
        path = os.path.join(base, item.data_path)
        series = formats.read_timeseries_file(path)
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
    if dropped_frames:
        warnings.warn(
            f"{manifest_path}: dropped {dropped_frames} tail frames from {cut_recordings} of "
            f"{len(manifest.samples)} recordings (windows of {window} frames)",
            stacklevel=2,
        )
    return dataset
