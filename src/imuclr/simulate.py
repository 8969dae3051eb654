"""Inertial signal synthesis from skeleton motion.

For every joint at once, acceleration is the second time derivative of
global position rotated into the joint's local frame; angular velocity is
twice the quaternion derivative pre-multiplied by the conjugate orientation.
Zero-mean Gaussian sensor noise and resampling to a target rate complete
the synthetic recording.

Channel layout everywhere: C=6 per joint, ordered ax ay az gx gy gz
(acceleration in m/s^2, angular velocity in rad/s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import (
    BadRate,
    NegativeSigma,
    NonFinite,
    NonUnitQuaternion,
    ShapeMismatch,
    TooShort,
)

GRAVITY = np.array([0.0, 0.0, -9.81])

ACCEL = slice(0, 3)
GYRO = slice(3, 6)


@dataclass
class SkeletonSequence:
    """Global-frame joint trajectories: positions (V,T,3), orientations (V,T,4)."""

    positions: np.ndarray
    orientations: np.ndarray
    frame_rate: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.orientations = np.asarray(self.orientations, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[2] != 3:
            raise ShapeMismatch(f"positions must be (V, T, 3), got {self.positions.shape}")
        if self.orientations.shape != self.positions.shape[:2] + (4,):
            raise ShapeMismatch(
                f"orientations must be (V, T, 4) matching positions, got {self.orientations.shape}"
            )
        if self.num_frames < 3:
            raise TooShort(f"need at least 3 frames, got {self.num_frames}")
        if self.frame_rate <= 0:
            raise BadRate(f"frame_rate must be positive, got {self.frame_rate}")
        if not np.all(np.isfinite(self.positions)):
            raise NonFinite("positions contain NaN or Inf")
        norms = np.linalg.norm(self.orientations, axis=-1)
        # written so that a nan norm fails too
        if not np.all(np.abs(norms - 1.0) <= quat.UNIT_TOL):
            raise NonUnitQuaternion("orientation quaternions must be unit length")

    @property
    def num_joints(self):
        return self.positions.shape[0]

    @property
    def num_frames(self):
        return self.positions.shape[1]


@dataclass
class MotionTimeSeries:
    """Sensor channels as a C x T x V tensor plus a per-joint visibility mask."""

    data: np.ndarray
    mask: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.data.ndim != 3:
            raise ShapeMismatch(f"data must be (C, T, V), got {self.data.shape}")
        if self.mask.shape != (self.data.shape[2],):
            raise ShapeMismatch(
                f"mask must have shape ({self.data.shape[2]},), got {self.mask.shape}"
            )
        if np.any(self.data[:, :, ~self.mask] != 0.0):
            raise ShapeMismatch("masked joints must be all-zero")

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def num_joints(self):
        return self.data.shape[2]

    def copy(self):
        return MotionTimeSeries(self.data.copy(), self.mask.copy(), self.sample_rate)


@dataclass
class NoiseParams:
    """Gaussian sensor-noise levels; defaults are small against typical activity signals."""

    sigma_accel: float = 0.05  # m/s^2
    sigma_gyro: float = 0.005  # rad/s


def differentiate(series, fs, order):
    """First or second time derivative along axis 0 of a (T, ...) series sampled at fs Hz.

    Central differences at interior points; one-sided stencils at the two
    boundary points, chosen so polynomials of degree <= 2 differentiate
    exactly everywhere. Requires T >= 3.
    """
    x = np.asarray(series, dtype=np.float64)
    t = x.shape[0]
    if t < 3:
        raise TooShort(f"need at least 3 samples to differentiate, got {t}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    out = np.empty_like(x)
    if order == 1:
        out[1:-1] = (x[2:] - x[:-2]) * (fs / 2.0)
        out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) * (fs / 2.0)
        out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) * (fs / 2.0)
    else:
        fs2 = fs * fs
        out[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fs2
        if t >= 4:
            out[0] = (2.0 * x[0] - 5.0 * x[1] + 4.0 * x[2] - x[3]) * fs2
            out[-1] = (2.0 * x[-1] - 5.0 * x[-2] + 4.0 * x[-3] - x[-4]) * fs2
        else:
            # T == 3: the 3-point stencil is the unique quadratic fit
            out[0] = (x[0] - 2.0 * x[1] + x[2]) * fs2
            out[-1] = out[0]
    return out


def add_noise(x, sigma_accel, sigma_gyro, rng):
    """Add zero-mean Gaussian noise per channel type to unmasked joints."""
    if sigma_accel < 0 or sigma_gyro < 0:
        raise NegativeSigma(f"sigmas must be >= 0, got {sigma_accel}, {sigma_gyro}")
    noise = rng.standard_normal(x.data.shape)
    noise[ACCEL] *= sigma_accel
    noise[GYRO] *= sigma_gyro
    noise[:, :, ~x.mask] = 0.0
    return MotionTimeSeries(x.data + noise, x.mask.copy(), x.sample_rate)


def resample(x, fs_in, fs_out):
    """Linear interpolation of a (T, k) series onto the uniform fs_out grid.

    Output grid t'_i = i / fs_out spans the original duration:
    T' = floor((T-1) * fs_out / fs_in) + 1.
    """
    if fs_in <= 0 or fs_out <= 0:
        raise BadRate(f"rates must be positive, got fs_in={fs_in}, fs_out={fs_out}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    t = x.shape[0]
    if t < 2:
        raise TooShort(f"need at least 2 samples to resample, got {t}")
    if fs_in == fs_out:
        out = x.copy()
    else:
        t_out = int(np.floor((t - 1) * fs_out / fs_in + 1e-9)) + 1
        grid_in = np.arange(t) / fs_in
        grid_out = np.arange(t_out) / fs_out
        out = np.empty((t_out, x.shape[1]))
        for k in range(x.shape[1]):
            out[:, k] = np.interp(grid_out, grid_in, x[:, k])
    return out[:, 0] if squeeze else out


def resample_series(series, fs_out):
    """resample() applied to every channel of every joint of a MotionTimeSeries."""
    c, t, v = series.data.shape
    flat = resample(series.data.transpose(1, 0, 2).reshape(t, c * v), series.sample_rate, fs_out)
    return MotionTimeSeries(flat.reshape(-1, c, v).transpose(1, 0, 2), series.mask, fs_out)


@np.errstate(over="ignore", invalid="ignore")  # huge finite inputs can overflow: checked at the end
def simulate_sequence(seq, noise=None, target_fs=20.0, rng=None, gravity=False):
    """Full synthetic recording for every joint of a skeleton sequence.

    Computes [accel; gyro] channels for all joints at once on (T, V, .)
    arrays, adds sensor noise, then resamples to target_fs. Acceleration is
    the second derivative of position, plus global gravity if gravity=True
    (as a physical accelerometer reports), in the joint's local frame.
    Angular velocity is the vector part of 2 q* (x) dq/dt, with sign
    continuity enforced on q first, since the double cover would otherwise
    corrupt the derivative. The returned mask is all-true. With zero noise
    the result is independent of rng. Raises NonFinite when the channels
    overflow float64 (positions or orientations moving too fast).
    """
    if noise is None:
        noise = NoiseParams()
    orientations = seq.orientations.transpose(1, 0, 2)
    a_global = differentiate(seq.positions.transpose(1, 0, 2), seq.frame_rate, order=2)
    if gravity:
        a_global = a_global + GRAVITY
    qs = quat.enforce_continuity(orientations)
    dq = differentiate(qs, seq.frame_rate, order=1)
    data = np.empty((6, seq.num_frames, seq.num_joints))
    data[ACCEL] = quat.rotate_global_to_local(orientations, a_global).transpose(2, 0, 1)
    data[GYRO] = (2.0 * quat.quat_mul(quat.quat_conj(qs), dq))[..., 1:].transpose(2, 0, 1)
    series = MotionTimeSeries(data, np.ones(seq.num_joints, dtype=bool), seq.frame_rate)
    if noise.sigma_accel > 0 or noise.sigma_gyro > 0:
        if rng is None:
            raise ValueError("rng is required when noise sigmas are positive")
        series = add_noise(series, noise.sigma_accel, noise.sigma_gyro, rng)
    if target_fs != seq.frame_rate:
        series = resample_series(series, target_fs)
    if not np.all(np.isfinite(series.data)):
        raise NonFinite("simulated channels overflow float64")
    series.sample_rate = target_fs
    return series
