"""Orientation augmentation and joint masking.

One random rotation per joint, held fixed across all timesteps, makes the
downstream encoder insensitive to how a device happens to be mounted. Joint
masking emulates deployments where only a few body locations carry sensors.
Rotations are sampled independently per joint; that is physically
inconsistent for a rigid body but it is exactly the augmentation semantics
the pipeline trains under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import BadRange, ShapeMismatch
from .simulate import MotionTimeSeries


@dataclass(frozen=True)
class JointMask:
    """Subset of joints left visible; everything else is zeroed."""

    selected: frozenset
    num_joints: int

    def __post_init__(self):
        if not (1 <= len(self.selected) <= self.num_joints):
            raise BadRange(
                f"mask must select between 1 and {self.num_joints} joints, got {len(self.selected)}"
            )
        if any(not (0 <= j < self.num_joints) for j in self.selected):
            raise BadRange("mask contains out-of-range joint indices")

    def as_bool(self):
        m = np.zeros(self.num_joints, dtype=bool)
        m[sorted(self.selected)] = True
        return m


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
    """Draw k ~ Uniform[min_k, max_k], then k distinct joints uniformly."""
    if not (1 <= min_k <= max_k <= num_joints):
        raise BadRange(
            f"need 1 <= min_k <= max_k <= V, got min_k={min_k}, max_k={max_k}, V={num_joints}"
        )
    k = int(rng.integers(min_k, max_k + 1))
    chosen = rng.choice(num_joints, size=k, replace=False)
    return JointMask(frozenset(int(j) for j in chosen), num_joints)


def apply_mask(x, mask):
    """Zero every channel of joints outside the mask; idempotent."""
    if mask.num_joints != x.num_joints:
        raise ShapeMismatch(
            f"mask covers {mask.num_joints} joints but series has {x.num_joints}"
        )
    keep = mask.as_bool()
    data = x.data.copy()
    data[:, :, ~keep] = 0.0
    return MotionTimeSeries(data, keep & x.mask, x.sample_rate)
