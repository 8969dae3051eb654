import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

from imuclr import autodiff as ad
from imuclr.simulate import MotionTimeSeries
from imuclr.skeleton import SkeletonStructure


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_series(rng, t=8, v=4, fs=20.0):
    """Random full-mask recording for augmentation/masking tests."""
    return MotionTimeSeries(rng.standard_normal((6, t, v)), np.ones(v, dtype=bool), fs)


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
