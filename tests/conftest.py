import numpy as np
import pytest

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
    """Scalar <t, W> for W = cotangent(t.shape, seed), built from tape ops.

    Its gradient with respect to t is exactly W, so a gradient check through
    it weighs every output coordinate differently, unlike a plain sum.
    """
    w = cotangent(t.shape, seed).reshape(-1, 1)
    row = ad.reshape(t, (1, w.shape[0]))
    return ad.reshape(ad.matmul(row, ad.Tensor(w)), ())
