"""Quaternion and rotation primitives.

Conventions used everywhere in this package:
  - quaternions are scalar-first arrays (w, x, y, z) in Hamilton convention
    (i*j = k);
  - orientation quaternions map the joint's local frame into the global
    frame, so the conjugate maps global vectors into the local frame;
  - rotation matrices are 3x3 with R.T @ R = I and det(R) = +1.

All functions are pure; random sampling takes an explicit numpy Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import NonUnitQuaternion, ShapeMismatch

UNIT_TOL = 1e-6


def quat_mul(a, b):
    """Hamilton product a (x) b. Inputs need not be unit quaternions.

    Both arguments may carry leading batch dimensions as long as they
    broadcast; the last axis must have length 4.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q):
    """Conjugate (w, -x, -y, -z)."""
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def rotate_global_to_local(q, v):
    """Map global-frame vector(s) v into the local frame of orientation q.

    Computes the vector part of q* (x) (0, v) (x) q. Raises
    NonUnitQuaternion if any ||q|| deviates from 1 by more than 1e-6.
    Supports batched q of shape (..., 4) with v of shape (..., 3).
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(q, axis=-1)
    # written so that a nan norm fails too
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise NonUnitQuaternion(f"quaternion norm deviates from 1 by {worst:.3e}")
    pure = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    out = quat_mul(quat_mul(quat_conj(q), pure), q)
    return out[..., 1:]


def quat_from_axis_angle(axis, angle):
    """Unit quaternion rotating by `angle` radians about `axis`."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def sample_unit_quaternions(n, rng):
    """n quaternions drawn uniformly from SO(3), canonicalized to w >= 0.

    Normalizes 4-vectors of independent standard normals; the resulting
    direction is uniform on S^3 and therefore uniform over rotations.
    """
    raw = rng.standard_normal((n, 4))
    qs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    qs[qs[:, 0] < 0.0] *= -1.0
    return qs


def quats_to_matrices(qs):
    """Rotation matrices (n, 3, 3) of an (n, 4) array of unit quaternions.

    R @ v is the local-to-global rotation of v, so rotate_global_to_local(q, v)
    equals R.T @ v.
    """
    w, x, y, z = qs[:, 0], qs[:, 1], qs[:, 2], qs[:, 3]
    m = np.empty((qs.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def enforce_continuity(qs):
    """Resolve the q/-q double-cover ambiguity along quaternion paths.

    Flips the sign of q_t whenever dot(q_{t-1}, q_t) < 0 so consecutive
    dot products come out non-negative; the first element is never changed.
    Idempotent. Input shape (T, ..., 4), one path per trailing index, time
    along axis 0; returns a new array.
    """
    qs = np.array(qs, dtype=np.float64)
    if qs.ndim < 2 or qs.shape[-1] != 4 or qs.shape[0] == 0:
        raise ShapeMismatch(f"expected nonempty (T, ..., 4) quaternion sequence, got {qs.shape}")
    dots = np.sum(qs[1:] * qs[:-1], axis=-1)
    # a flip at t inverts the sign of every later raw dot product
    qs[1:] *= np.cumprod(np.where(dots < 0.0, -1.0, 1.0), axis=0)[..., None]
    return qs
