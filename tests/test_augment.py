import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from imuclr.augment import JointMask, apply_mask, rotate_augment, sample_joint_mask, sample_joint_rotations
from imuclr.errors import BadRange, ShapeMismatch


def test_norms_preserved_per_timestep():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_series(rng)
        y = rotate_augment(x, sample_joint_rotations(x.num_joints, rng))
        for part in (slice(0, 3), slice(3, 6)):
            n_in = np.linalg.norm(x.data[part], axis=0)
            n_out = np.linalg.norm(y.data[part], axis=0)
            assert np.abs(n_in - n_out).max() < 1e-9


def test_identity_rotations_give_identical_output():
    rng = np.random.default_rng(1)
    x = random_series(rng)
    eye = np.tile(np.eye(3), (x.num_joints, 1, 1))
    y = rotate_augment(x, rotations=eye)
    assert np.array_equal(y.data, x.data)


def test_recorded_rotation_inverts():
    rng = np.random.default_rng(2)
    x = random_series(rng)
    rots = sample_joint_rotations(x.num_joints, rng)
    y = rotate_augment(x, rotations=rots)
    back = rotate_augment(y, rotations=rots.transpose(0, 2, 1))
    assert np.abs(back.data - x.data).max() < 1e-9


def test_masked_joints_stay_zero():
    rng = np.random.default_rng(3)
    x = random_series(rng, v=5)
    x = apply_mask(x, JointMask(frozenset({0, 2}), 5))
    y = rotate_augment(x, sample_joint_rotations(x.num_joints, rng))
    assert np.all(y.data[:, :, [1, 3, 4]] == 0.0)


def test_rotation_same_joint_constant_over_time():
    rng = np.random.default_rng(4)
    x = random_series(rng, t=6, v=2)
    rots = sample_joint_rotations(2, rng)
    y = rotate_augment(x, rotations=rots)
    for j in range(2):
        for t in range(6):
            assert np.allclose(y.data[:3, t, j], rots[j] @ x.data[:3, t, j])
            assert np.allclose(y.data[3:, t, j], rots[j] @ x.data[3:, t, j])


def test_rotations_shape_checked():
    rng = np.random.default_rng(5)
    x = random_series(rng, v=3)
    with pytest.raises(ShapeMismatch):
        rotate_augment(x, rotations=np.eye(3)[None])


def test_mask_full_range_selects_all():
    m = sample_joint_mask(5, 5, 5, np.random.default_rng(0))
    assert m.selected == frozenset(range(5))


@given(st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_mask_size_contract(seed):
    m = sample_joint_mask(22, 1, 5, np.random.default_rng(seed))
    assert 1 <= len(m.selected) <= 5
    assert all(0 <= j < 22 for j in m.selected)


def test_mask_selection_frequencies():
    # P(joint selected) = E[k]/V = 3/22 for k ~ U{1..5}; check 3 sigma
    v, n = 22, 100_000
    rng = np.random.default_rng(10)
    counts = np.zeros(v)
    for _ in range(n):
        for j in sample_joint_mask(v, 1, 5, rng).selected:
            counts[j] += 1
    p = 3.0 / 22.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.abs(counts / n - p).max() < 3 * sigma


def test_mask_bad_ranges():
    rng = np.random.default_rng(0)
    for bad in [(0, 3), (3, 2), (1, 23)]:
        with pytest.raises(BadRange):
            sample_joint_mask(22, bad[0], bad[1], rng)


def test_apply_mask_all_selected_unchanged():
    rng = np.random.default_rng(6)
    x = random_series(rng, v=4)
    y = apply_mask(x, JointMask(frozenset(range(4)), 4))
    assert np.array_equal(y.data, x.data)


def test_apply_mask_zeroes_everything_else():
    rng = np.random.default_rng(7)
    x = random_series(rng, v=6)
    m = JointMask(frozenset({1, 4}), 6)
    y = apply_mask(x, m)
    assert np.all(y.data[:, :, [0, 2, 3, 5]] == 0.0)
    assert np.array_equal(y.data[:, :, [1, 4]], x.data[:, :, [1, 4]])
    assert np.array_equal(y.mask, [False, True, False, False, True, False])


def test_apply_mask_idempotent():
    rng = np.random.default_rng(8)
    x = random_series(rng, v=5)
    m = JointMask(frozenset({0, 3}), 5)
    once = apply_mask(x, m)
    twice = apply_mask(once, m)
    assert np.array_equal(once.data, twice.data)
    assert np.array_equal(once.mask, twice.mask)


def test_apply_mask_shape_mismatch():
    rng = np.random.default_rng(9)
    with pytest.raises(ShapeMismatch):
        apply_mask(random_series(rng, v=4), JointMask(frozenset({0}), 5))


def test_rotate_and_mask_commute():
    rng = np.random.default_rng(11)
    x = random_series(rng, v=6)
    rots = sample_joint_rotations(6, rng)
    m = JointMask(frozenset({1, 2, 5}), 6)
    a = apply_mask(rotate_augment(x, rotations=rots), m)
    b = rotate_augment(apply_mask(x, m), rotations=rots)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.mask, b.mask)


def test_joint_mask_validation():
    with pytest.raises(BadRange):
        JointMask(frozenset(), 4)
    with pytest.raises(BadRange):
        JointMask(frozenset({4}), 4)
