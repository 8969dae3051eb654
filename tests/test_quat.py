import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imuclr import quat
from imuclr.errors import NonUnitQuaternion, ShapeMismatch

unit_quats = st.builds(
    lambda seed: quat.sample_unit_quaternions(1, np.random.default_rng(seed))[0],
    st.integers(0, 2**32 - 1),
)


def test_identity_element():
    q = np.array([0.3, -0.4, 0.5, 0.2])
    assert np.allclose(quat.quat_mul([1, 0, 0, 0], q), q)
    assert np.allclose(quat.quat_mul(q, [1, 0, 0, 0]), q)


def test_hamilton_table():
    i, j, k = [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    assert np.allclose(quat.quat_mul(i, j), k)
    assert np.allclose(quat.quat_mul(j, k), i)
    assert np.allclose(quat.quat_mul(k, i), j)


def test_norm_identity():
    q = np.array([1.0, 2.0, -3.0, 0.5])
    out = quat.quat_mul(q, quat.quat_conj(q))
    assert np.allclose(out, [np.dot(q, q), 0, 0, 0])


def test_conj_involution():
    q = np.array([0.3, 1.0, -2.0, 0.7])
    assert np.array_equal(quat.quat_conj(quat.quat_conj(q)), q)


@given(st.integers(0, 2**31), st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_conj_antihomomorphism(sa, sb):
    a = quat.sample_unit_quaternions(1, np.random.default_rng(sa))[0]
    b = quat.sample_unit_quaternions(1, np.random.default_rng(sb))[0]
    left = quat.quat_conj(quat.quat_mul(a, b))
    right = quat.quat_mul(quat.quat_conj(b), quat.quat_conj(a))
    assert np.allclose(left, right, atol=1e-12)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_mul_associative(seed):
    r = np.random.default_rng(seed)
    a, b, c = r.standard_normal((3, 4))
    left = quat.quat_mul(quat.quat_mul(a, b), c)
    right = quat.quat_mul(a, quat.quat_mul(b, c))
    assert np.allclose(left, right, atol=1e-12)


def test_rotate_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quat.rotate_global_to_local([1, 0, 0, 0], v), v)


def test_rotate_90_about_z():
    # global x-axis seen from a frame rotated +90 deg about z is -y
    q = np.array([np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2])
    out = quat.rotate_global_to_local(q, [1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


@given(unit_quats, st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_rotate_preserves_norm(q, vseed):
    v = np.random.default_rng(vseed).standard_normal(3)
    out = quat.rotate_global_to_local(q, v)
    assert np.isclose(np.linalg.norm(out), np.linalg.norm(v), atol=1e-12)


@given(unit_quats, st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_rotate_inverse_roundtrip(q, vseed):
    v = np.random.default_rng(vseed).standard_normal(3)
    there = quat.rotate_global_to_local(q, v)
    back = quat.rotate_global_to_local(quat.quat_conj(q), there)
    assert np.allclose(back, v, atol=1e-9)


def test_rotate_rejects_non_unit():
    with pytest.raises(NonUnitQuaternion):
        quat.rotate_global_to_local([1.1, 0, 0, 0], [1, 0, 0])
    with pytest.raises(NonUnitQuaternion):
        quat.rotate_global_to_local([[1.0, 0, 0, 0], [np.nan, 0, 0, 0]], [1, 0, 0])


def test_quat_to_matrix_matches_rotation():
    rng = np.random.default_rng(3)
    qs = quat.sample_unit_quaternions(10, rng)
    for q, m in zip(qs, quat.quats_to_matrices(qs)):
        v = rng.standard_normal(3)
        assert np.allclose(m.T @ v, quat.rotate_global_to_local(q, v), atol=1e-12)


def test_sampled_rotations_are_orthonormal():
    rng = np.random.default_rng(0)
    qs = quat.sample_unit_quaternions(2000, rng)
    ms = quat.quats_to_matrices(qs)
    eye = np.einsum("nij,nik->njk", ms, ms)
    assert np.abs(eye - np.eye(3)).max() < 1e-9
    assert np.abs(np.linalg.det(ms) - 1.0).max() < 1e-9
    assert np.all(qs[:, 0] >= 0.0)


def test_sampling_deterministic():
    q1 = quat.sample_unit_quaternions(3, np.random.default_rng(42))
    q2 = quat.sample_unit_quaternions(3, np.random.default_rng(42))
    assert np.array_equal(q1, q2)
    assert np.array_equal(quat.quats_to_matrices(q1), quat.quats_to_matrices(q2))


def test_sampling_uniform_mean():
    rng = np.random.default_rng(7)
    ms = quat.quats_to_matrices(quat.sample_unit_quaternions(100_000, rng))
    mean = (ms @ np.array([1.0, 0.0, 0.0])).mean(axis=0)
    assert np.linalg.norm(mean) < 0.02


def test_continuity_flips_sign():
    q = quat.sample_unit_quaternions(1, np.random.default_rng(0))[0]
    fixed = quat.enforce_continuity([q, -q])
    assert np.allclose(fixed, [q, q])


def test_continuity_keeps_continuous():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 1, 20)
    qs = np.stack([np.cos(t), np.sin(t), np.zeros_like(t), np.zeros_like(t)], axis=1)
    assert np.array_equal(quat.enforce_continuity(qs), qs)


@given(st.integers(0, 2**31), st.integers(2, 30), st.sampled_from([(), (1,), (3,), (2, 3)]))
@settings(max_examples=30, deadline=None)
def test_continuity_postcondition(seed, n, paths):
    # time runs along axis 0, one path per index of the shape between
    rng = np.random.default_rng(seed)
    qs = quat.sample_unit_quaternions(n * int(np.prod(paths)), rng).reshape((n,) + paths + (4,))
    signs = rng.choice([-1.0, 1.0], size=(n,) + paths + (1,))
    fixed = quat.enforce_continuity(qs * signs)
    dots = np.sum(fixed[1:] * fixed[:-1], axis=-1)
    assert np.all(dots >= 0.0)
    assert np.array_equal(np.abs(fixed), np.abs(qs))
    assert np.array_equal(fixed[0], (qs * signs)[0])


def test_continuity_rejects_empty():
    for shape in [(0, 4), (0, 3, 4), (4,), (5, 3)]:
        with pytest.raises(ShapeMismatch):
            quat.enforce_continuity(np.zeros(shape))
