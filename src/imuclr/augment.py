"""Orientation augmentation and joint masking.

One random rotation per joint, held fixed across all timesteps, makes the
downstream encoder insensitive to how a device happens to be mounted. Joint
masking emulates deployments where only a few body locations carry sensors.
Rotations are sampled independently per joint; that is physically
inconsistent for a rigid body but it is exactly the augmentation semantics
the pipeline trains under.
"""

from __future__ import annotations

import numpy as np

from . import quat
from .errors import BadRange, ShapeMismatch
from .simulate import MotionTimeSeries


def sample_joint_rotations(num_joints, rng):
    """One uniform rotation matrix per joint, shape (V, 3, 3)."""
    qs = quat.sample_unit_quaternions(num_joints, rng)
    return quat.quats_to_matrices(qs)


def rotate_joints(data, rotations):
    """Left-multiply each joint's accel and gyro triples of (..., 6, T, V) data by its matrix.

    rotations: (V, 3, 3), one matrix per joint of data's last axis. Written
    as elementwise products summed over j = 0, 1, 2 in that order, so an
    entry's bytes do not depend on the leading batch axes or the layout:
    rotate_augment and pretraining's batch assembly share this code path.
    """
    triples = data.reshape(data.shape[:-3] + (2, 3) + data.shape[-2:])
    r = rotations.transpose(1, 2, 0)[:, :, None, :]  # r[i, j] is (1, V): R[v, i, j] over the joints
    out = r[:, 0] * triples[..., 0:1, :, :]
    for j in (1, 2):
        out += r[:, j] * triples[..., j : j + 1, :, :]
    return out.reshape(data.shape)


def rotate_augment(x, rotations):
    """Left-multiply each joint's accel and gyro triples by one fixed rotation.

    `rotations` has shape (V, 3, 3), one matrix per joint, for example from
    sample_joint_rotations. The same matrix applies to both channel triples
    of a joint at every timestep; masked joints stay zero.
    """
    rotations = np.asarray(rotations, dtype=np.float64)
    if rotations.shape != (x.num_joints, 3, 3):
        raise ShapeMismatch(
            f"rotations must be ({x.num_joints}, 3, 3), got {rotations.shape}"
        )
    out = rotate_joints(x.data, rotations)
    out[:, :, ~x.mask] = 0.0
    return MotionTimeSeries(out, x.mask.copy(), x.sample_rate)


def sample_joint_mask(num_joints, min_k, max_k, rng):
    """Draw k ~ Uniform[min_k, max_k], then k distinct joints uniformly; a (V,) bool array of them."""
    if not (1 <= min_k <= max_k <= num_joints):
        raise BadRange(
            f"need 1 <= min_k <= max_k <= V, got min_k={min_k}, max_k={max_k}, V={num_joints}"
        )
    k = int(rng.integers(min_k, max_k + 1))
    keep = np.zeros(num_joints, dtype=bool)
    keep[rng.choice(num_joints, size=k, replace=False)] = True
    return keep


def apply_mask(x, keep):
    """Zero every channel of joints where the (V,) bool array keep is False; idempotent."""
    if keep.dtype != bool or keep.shape != (x.num_joints,):
        raise ShapeMismatch(f"mask must be a ({x.num_joints},) bool array, got {keep.dtype} {keep.shape}")
    data = x.data.copy()
    data[:, :, ~keep] = 0.0
    return MotionTimeSeries(data, keep & x.mask, x.sample_rate)
