import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imuclr import quat, simulate
from imuclr.errors import BadRate, NegativeSigma, NonUnitQuaternion, TooShort
from imuclr.simulate import (
    MotionTimeSeries,
    NoiseParams,
    SkeletonSequence,
    add_noise,
    differentiate,
    resample,
    resample_series,
    simulate_sequence,
)


def identity_orientations(v, t):
    q = np.zeros((v, t, 4))
    q[..., 0] = 1.0
    return q


def single_joint_sequence(positions, fs, orientations=None):
    positions = np.asarray(positions, dtype=np.float64)[None]
    if orientations is None:
        orientations = identity_orientations(1, positions.shape[1])
    else:
        orientations = np.asarray(orientations)[None]
    return SkeletonSequence(positions, orientations, fs)


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------


def test_differentiate_constant_is_zero():
    x = np.full((10, 3), 4.2)
    assert np.allclose(differentiate(x, 20.0, 1), 0.0)
    assert np.allclose(differentiate(x, 20.0, 2), 0.0)


def test_differentiate_ramp():
    fs = 20.0
    x = (np.arange(12) / fs)[:, None]
    assert np.allclose(differentiate(x, fs, 1), 1.0)
    assert np.abs(differentiate(x, fs, 2)).max() < 1e-10


def test_differentiate_sine_against_analytic():
    fs, f = 20.0, 1.0
    t = np.arange(40) / fs
    x = np.sin(2 * np.pi * f * t)[:, None]
    d1 = differentiate(x, fs, 1)[1:-1, 0]
    truth = 2 * np.pi * f * np.cos(2 * np.pi * f * t)[1:-1]
    assert np.abs(d1 - truth).max() <= 0.02 * np.abs(truth).max()


@given(st.integers(0, 2**31), st.integers(3, 12))
@settings(max_examples=40, deadline=None)
def test_differentiate_exact_on_quadratics(seed, t):
    # central differences are exact for degree <= 2 at interior points
    a, b, c = np.random.default_rng(seed).standard_normal(3)
    fs = 10.0
    ts = np.arange(t) / fs
    x = (a * ts**2 + b * ts + c)[:, None]
    d1 = differentiate(x, fs, 1)[1:-1, 0]
    d2 = differentiate(x, fs, 2)[1:-1, 0]
    assert np.allclose(d1, (2 * a * ts + b)[1:-1], atol=1e-8)
    assert np.allclose(d2, 2 * a, atol=1e-7)


def test_differentiate_too_short():
    with pytest.raises(TooShort):
        differentiate(np.zeros((2, 3)), 20.0, 1)


# ---------------------------------------------------------------------------
# acceleration / angular velocity of one joint
# ---------------------------------------------------------------------------


def accel_and_gyro(seq, gravity=False):
    """(T, 3) acceleration and angular velocity of joint 0, noise-free at the sequence's own rate."""
    out = simulate_sequence(seq, noise=NoiseParams(0.0, 0.0), target_fs=seq.frame_rate, gravity=gravity)
    return out.data[simulate.ACCEL, :, 0].T, out.data[simulate.GYRO, :, 0].T


def test_stationary_joint_zero_acceleration():
    seq = single_joint_sequence(np.tile([1.0, 2.0, 3.0], (6, 1)), 20.0)
    assert np.allclose(accel_and_gyro(seq)[0], 0.0)


def test_acceleration_constant_in_rotated_frame():
    fs = 50.0
    u = np.array([0.3, -0.2, 0.5])
    t = np.arange(10)[:, None] / fs
    pos = 0.5 * t**2 * u
    q = quat.sample_unit_quaternions(1, np.random.default_rng(8))[0]
    ori = np.tile(q, (10, 1))
    seq = single_joint_sequence(pos, fs, ori)
    a = accel_and_gyro(seq)[0]
    expected = quat.rotate_global_to_local(q, u)
    assert np.allclose(a, expected, atol=1e-9)


def test_centripetal_acceleration_circle():
    r, omega, fs, t_n = 0.5, 2 * np.pi, 100.0, 200
    t = np.arange(t_n) / fs
    pos = np.stack([r * np.cos(omega * t), r * np.sin(omega * t), np.zeros_like(t)], axis=1)
    seq = single_joint_sequence(pos, fs)
    a = np.linalg.norm(accel_and_gyro(seq)[0], axis=1)[1:-1]
    assert np.abs(a - r * omega**2).max() <= 0.01 * r * omega**2


def test_uniform_acceleration_exact():
    g, fs = 9.81, 20.0
    t = np.arange(10) / fs
    pos = np.stack([0.5 * g * t**2, np.zeros_like(t), np.zeros_like(t)], axis=1)
    seq = single_joint_sequence(pos, fs)
    assert np.allclose(accel_and_gyro(seq)[0], [g, 0.0, 0.0], atol=1e-9)


def test_gravity_flag_adds_rotated_gravity():
    seq = single_joint_sequence(np.zeros((6, 3)), 20.0)
    a = accel_and_gyro(seq, gravity=True)[0]
    assert np.allclose(a, [0.0, 0.0, -9.81])


def test_constant_orientation_zero_angular_velocity():
    q = quat.sample_unit_quaternions(1, np.random.default_rng(2))[0]
    seq = single_joint_sequence(np.zeros((8, 3)), 20.0, np.tile(q, (8, 1)))
    assert np.allclose(accel_and_gyro(seq)[1], 0.0, atol=1e-12)


def test_spin_about_z_factor_two():
    omega, fs, t_n = 3.0, 100.0, 200
    t = np.arange(t_n) / fs
    q = np.stack([np.cos(omega * t / 2), np.zeros_like(t), np.zeros_like(t), np.sin(omega * t / 2)], axis=1)
    seq = single_joint_sequence(np.zeros((t_n, 3)), fs, q)
    w = accel_and_gyro(seq)[1][1:-1]
    assert np.abs(w - [0.0, 0.0, omega]).max() < 1e-3


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def base_series(t=50, v=4):
    return MotionTimeSeries(np.zeros((6, t, v)), np.ones(v, dtype=bool), 20.0)


def test_zero_sigma_is_identity():
    x = base_series()
    out = add_noise(x, 0.0, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_noise_statistics():
    x = base_series(t=5000, v=4)  # 60k accel draws, 60k gyro draws
    sa, sg = 0.5, 0.05
    out = add_noise(x, sa, sg, np.random.default_rng(11))
    accel = out.data[:3].ravel()
    gyro = out.data[3:].ravel()
    assert abs(accel.mean()) < 0.01 * sa
    assert abs(accel.std() - sa) < 0.02 * sa
    assert abs(gyro.mean()) < 0.01 * sg
    assert abs(gyro.std() - sg) < 0.02 * sg


def test_noise_deterministic():
    x = base_series()
    a = add_noise(x, 0.1, 0.01, np.random.default_rng(5))
    b = add_noise(x, 0.1, 0.01, np.random.default_rng(5))
    assert np.array_equal(a.data, b.data)


def test_noise_respects_mask():
    data = np.zeros((6, 10, 3))
    mask = np.array([True, False, True])
    x = MotionTimeSeries(data, mask, 20.0)
    out = add_noise(x, 0.3, 0.3, np.random.default_rng(1))
    assert np.all(out.data[:, :, 1] == 0.0)
    assert np.any(out.data[:, :, 0] != 0.0)


def test_negative_sigma_rejected():
    with pytest.raises(NegativeSigma):
        add_noise(base_series(), -0.1, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def test_resample_constant():
    out = resample(np.full((9, 2), 3.3), 45.0, 20.0)
    assert np.allclose(out, 3.3)


def test_resample_ramp_exact():
    out = resample(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]), 40.0, 20.0)
    assert np.array_equal(out, [[0.0], [2.0], [4.0]])


def test_resample_same_rate_identity():
    x = np.random.default_rng(0).standard_normal((7, 3))
    assert np.array_equal(resample(x, 20.0, 20.0), x)


def test_resample_length_contract():
    for t, fs_in, fs_out in [(10, 30.0, 20.0), (7, 20.0, 50.0), (100, 100.0, 20.0)]:
        out = resample(np.zeros((t, 1)), fs_in, fs_out)
        assert out.shape[0] == int(np.floor((t - 1) * fs_out / fs_in + 1e-9)) + 1


def test_resample_bad_rate():
    with pytest.raises(BadRate):
        resample(np.zeros((5, 1)), 0.0, 20.0)


# ---------------------------------------------------------------------------
# simulate_sequence
# ---------------------------------------------------------------------------


def stationary_sequence(v=3, t=10, fs=20.0):
    pos = np.zeros((v, t, 3))
    pos[:, :, 0] = np.arange(v)[:, None]
    return SkeletonSequence(pos, identity_orientations(v, t), fs)


def test_stationary_sequence_zero_output():
    out = simulate_sequence(stationary_sequence(), NoiseParams(0.0, 0.0), 20.0)
    assert np.all(out.data == 0.0)
    assert out.data.shape[0] == 6
    assert out.sample_rate == 20.0
    assert np.all(out.mask)


def test_simulate_spinning_joint_composition():
    omega, fs, t_n, v = 3.0, 100.0, 200, 3
    t = np.arange(t_n) / fs
    pos = np.zeros((v, t_n, 3))
    ori = identity_orientations(v, t_n)
    ori[1] = np.stack(
        [np.cos(omega * t / 2), np.zeros_like(t), np.zeros_like(t), np.sin(omega * t / 2)], axis=1
    )
    seq = SkeletonSequence(pos, ori, fs)
    out = simulate_sequence(seq, NoiseParams(0.0, 0.0), fs)
    gyro_z = out.data[5, 1:-1, 1]
    assert np.abs(gyro_z - omega).max() < 1e-3
    assert np.abs(out.data[:, 1:-1, 0]).max() < 1e-9  # other joints silent


def test_simulate_zero_noise_rng_independent():
    seq = stationary_sequence()
    a = simulate_sequence(seq, NoiseParams(0.0, 0.0), 20.0, np.random.default_rng(1))
    b = simulate_sequence(seq, NoiseParams(0.0, 0.0), 20.0, np.random.default_rng(999))
    assert np.array_equal(a.data, b.data)


def test_simulate_resamples_to_target():
    seq = stationary_sequence(t=21, fs=40.0)
    out = simulate_sequence(seq, NoiseParams(0.0, 0.0), 20.0)
    assert out.sample_rate == 20.0
    assert out.num_frames == 11


def test_simulate_requires_rng_for_noise():
    with pytest.raises(ValueError):
        simulate_sequence(stationary_sequence(), NoiseParams(0.1, 0.0), 20.0, rng=None)


def test_frame_consistency_under_rigid_rotation():
    # rotating all positions and orientations by one global rotation leaves
    # local-frame accelerations and angular velocities unchanged
    rng = np.random.default_rng(21)
    v, t_n, fs = 2, 30, 50.0
    pos = rng.standard_normal((v, t_n, 3)).cumsum(axis=1) * 0.01
    qs = np.stack([quat.enforce_continuity(quat.sample_unit_quaternions(t_n, rng)) for _ in range(v)])
    seq = SkeletonSequence(pos, qs, fs)

    q_r = quat.sample_unit_quaternions(1, rng)[0]
    r = quat.quats_to_matrices(q_r[None])[0]
    pos_rot = pos @ r.T
    qs_rot = np.stack([quat.quat_mul(np.tile(q_r, (t_n, 1)), qs[j]) for j in range(v)])
    seq_rot = SkeletonSequence(pos_rot, qs_rot, fs)

    a = simulate_sequence(seq, NoiseParams(0.0, 0.0), fs)
    b = simulate_sequence(seq_rot, NoiseParams(0.0, 0.0), fs)
    assert np.abs(a.data - b.data).max() < 1e-6


def test_sequence_validation():
    with pytest.raises(TooShort):
        SkeletonSequence(np.zeros((1, 2, 3)), identity_orientations(1, 2), 20.0)
    with pytest.raises(NonUnitQuaternion):
        SkeletonSequence(np.zeros((1, 5, 3)), np.full((1, 5, 4), 0.4), 20.0)
    ori = identity_orientations(1, 5)
    ori[0, 2] = np.nan
    with pytest.raises(NonUnitQuaternion):
        SkeletonSequence(np.zeros((1, 5, 3)), ori, 20.0)


def reference_simulate(seq, noise, target_fs, rng, gravity):
    """simulate_sequence as a loop over joints, one (T, 3) or (T, 4) array at a time."""
    v = seq.num_joints
    data = np.zeros((6, seq.num_frames, v))
    for j in range(v):
        a_global = differentiate(seq.positions[j], seq.frame_rate, order=2)
        if gravity:
            a_global = a_global + simulate.GRAVITY
        data[simulate.ACCEL, :, j] = quat.rotate_global_to_local(seq.orientations[j], a_global).T
        qs = quat.enforce_continuity(seq.orientations[j])
        dq = differentiate(qs, seq.frame_rate, order=1)
        data[simulate.GYRO, :, j] = (2.0 * quat.quat_mul(quat.quat_conj(qs), dq))[:, 1:].T
    series = MotionTimeSeries(data, np.ones(v, dtype=bool), seq.frame_rate)
    if noise.sigma_accel > 0 or noise.sigma_gyro > 0:
        series = add_noise(series, noise.sigma_accel, noise.sigma_gyro, rng)
    if target_fs != seq.frame_rate:
        series = resample_series(series, target_fs)
    return series


def sign_flipping_orientations(rng, v, t):
    """(V, T, 4) unit quaternions along smooth paths, each one negated at random."""
    qs = rng.standard_normal((v, 1, 4)) + 0.2 * rng.standard_normal((v, t, 4)).cumsum(axis=1)
    qs /= np.linalg.norm(qs, axis=2, keepdims=True)
    return qs * rng.choice([-1.0, 1.0], size=(v, t, 1))


@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(1, 5),
    t=st.integers(3, 40),
    fs=st.sampled_from([20.0, 30.0, 59.94, 100.0]),
    resampled=st.booleans(),
    gravity=st.booleans(),
    noisy=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_simulate_equals_per_joint_loop(seed, v, t, fs, resampled, gravity, noisy):
    rng = np.random.default_rng(seed)
    seq = SkeletonSequence(rng.standard_normal((v, t, 3)).cumsum(axis=1), sign_flipping_orientations(rng, v, t), fs)
    noise = NoiseParams(0.05, 0.005) if noisy else NoiseParams(0.0, 0.0)
    target_fs = 20.0 if resampled else fs
    got = simulate_sequence(seq, noise, target_fs, np.random.default_rng(seed), gravity=gravity)
    want = reference_simulate(seq, noise, target_fs, np.random.default_rng(seed), gravity)
    assert got.data.shape == want.data.shape and got.data.tobytes() == want.data.tobytes()
    assert got.sample_rate == want.sample_rate and np.array_equal(got.mask, want.mask)
