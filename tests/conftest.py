import contextlib
import json
import multiprocessing
import os
import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

import imuclr
from imuclr import autodiff as ad
from imuclr import workers
from imuclr.simulate import MotionTimeSeries
from imuclr.skeleton import SkeletonStructure


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_series(rng, t=8, v=4, fs=20.0):
    """Random full-mask recording for augmentation/masking tests."""
    return MotionTimeSeries(rng.standard_normal((6, t, v)), np.ones(v, dtype=bool), fs)


def src_env():
    """os.environ for a subprocess that imports this imuclr, installed or not."""
    src = os.path.dirname(os.path.dirname(imuclr.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def fresh_pool(monkeypatch):
    """No worker pool before or after the test, so a pool the test starts forks from its patched code.

    The pool counts two usable CPUs, so it starts on a one-CPU host too.
    """
    workers.drop_pool()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    yield
    workers.drop_pool()


def in_process(monkeypatch):
    """From now on, the pool's callers run in-process, as on a one-CPU host."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)


def pooled():
    """Whether this interpreter can hand work to forked workers (see imuclr.workers)."""
    return sys.version_info < (3, 12) and "fork" in multiprocessing.get_all_start_methods()


needs_pool = pytest.mark.skipif(not pooled(), reason="no forked workers on this interpreter")


def chain_structure(v):
    """Simple path graph 0-1-2-...-(v-1)."""
    return SkeletonStructure(
        names=tuple(f"j{i}" for i in range(v)),
        parents=(-1,) + tuple(range(v - 1)),
    )


def cotangent(shape, seed=0):
    """Fixed random weights that contract() pairs with a tensor of `shape`."""
    return np.random.default_rng(seed).standard_normal(shape)


def contract(t, seed=0):
    """Scalar <t, W> for W = cotangent(t.shape, seed), as one tracked node.

    Its gradient with respect to t is exactly W, so a gradient check through
    it weighs every output coordinate differently, unlike a plain sum. W
    takes t's dtype, so the contraction keeps it.
    """
    w = cotangent(t.shape, seed).astype(t.value.dtype)

    def backward(g):
        t._accumulate(g * w)

    return ad.Tensor(np.sum(t.value * w), t.requires_grad, (t,), backward)


class _TornFile:
    """A binary file whose first write stores half its bytes and then raises, as a kill would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        self.fh.flush()
        raise OSError("writer killed midway")


@contextlib.contextmanager
def torn_writes():
    """Within it, every file imuclr.formats opens for writing fails halfway through its first write."""
    from imuclr import formats

    def torn_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return fh if "r" in mode else _TornFile(fh)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "open", torn_open, raising=False)
        yield


# a mutation position in [0, 1): integers scattered by the golden ratio, since
# hypothesis draws floats, and integers too, so close to 0 that most swaps would
# hit a file's header and few non-finite tokens would reach a later line
position = st.integers(0, 999).map(lambda k: k * 0.6180339887498949 % 1.0)


def rewrite_checkpoint(raw, header_changes, old=b"", new=b""):
    """Checkpoint bytes raw with header_changes set in its JSON header and old replaced by new after it.

    The header length and the CRC32 are recomputed, so the result reaches the loader's checks behind them.
    """
    length = struct.unpack("<I", raw[12:16])[0]
    header = json.loads(raw[16 : 16 + length])
    header.update(header_changes)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = raw[:12] + struct.pack("<I", len(text)) + text + raw[16 + length : -4].replace(old, new)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


# rewrite_checkpoint arguments that give well-formed files no Model can score, with the CorruptCheckpoint
# message that refuses each: loaded, they would fail in eval with a traceback (a zero range() step in
# inference.windows, a KeyError in Model.encoder_params, a ValueError in resampling, a bare ValueError
# or TypeError from the loader)
UNSCORABLE = [
    pytest.param({"train_window": 0}, b"", b"", "training window 0 is neither null nor an int >= 1", id="window_0"),
    pytest.param({}, b"block0.scale", b"block0.scalf", "parameter 'block0.scale' is missing", id="renamed"),
    pytest.param({"sample_rate": float("nan")}, b"", b"", "sample rate nan is not a finite positive number", id="nan"),
    pytest.param({"train_window": "x"}, b"", b"", "training window 'x' is neither null nor an int >= 1", id="window_x"),
    pytest.param({"label_names": 5}, b"", b"", "label names 5 are neither null nor a list of strings", id="labels_5"),
]
