"""Synthetic three-activity benchmark used by the acceptance suite.

Each activity drives its own disjoint set of six joints of the 22-joint
skeleton with sinusoids at a class-specific frequency, in both position and
orientation, along axes that are fixed per joint. Classes are separable by
which joints move and how fast; the absolute axes carry no class
information once per-joint rotations are applied at test time, which is
exactly what the rotation augmentation is supposed to buy.
"""

from __future__ import annotations

import numpy as np

from .augment import rotate_augment, sample_joint_rotations
from .contrastive import PretrainSample
from .inference import LabelSet
from .quat import quat_from_axis_angle
from .simulate import NoiseParams, SkeletonSequence, simulate_sequence
from .skeleton import body22
from .text_embeddings import DescriptionSet, TextEmbeddingTable

CLASS_NAMES = ("slow_wave", "steady_kick", "rapid_nod")
CLASS_FREQS = (0.5, 1.5, 3.0)  # Hz
# disjoint groups: left arm+leg, right arm+leg, spine+head
CLASS_JOINTS = ((13, 16, 18, 20, 1, 4), (14, 17, 19, 21, 2, 5), (0, 3, 6, 9, 12, 15))
# peak |accel| = amp * (2 pi f)^2, tuned to come out at roughly 8 m/s^2
CLASS_POS_AMPS = (0.80, 0.09, 0.025)  # m
CLASS_ROT_AMPS = (0.90, 0.50, 0.35)  # rad

EMBED_DIM = 64
DESCRIPTIONS_PER_CLASS = 3

_AXES = np.eye(3)


def make_toy_sequence(class_idx, rng, fs=20.0, duration=2.0):
    """One skeleton sequence of the given class with random phases/jitter."""
    v = body22().num_joints
    t = int(round(duration * fs))
    times = np.arange(t) / fs
    positions = np.zeros((v, t, 3))
    # joints rest on a line so the static pose is nondegenerate
    positions[:, :, 0] = 0.05 * np.arange(v)[:, None]
    orientations = np.zeros((v, t, 4))
    orientations[:, :, 0] = 1.0

    freq = CLASS_FREQS[class_idx]
    for joint in CLASS_JOINTS[class_idx]:
        amp_p = CLASS_POS_AMPS[class_idx] * rng.uniform(0.8, 1.2)
        amp_q = CLASS_ROT_AMPS[class_idx] * rng.uniform(0.8, 1.2)
        wave = np.sin(2.0 * np.pi * freq * times + rng.uniform(0.0, 2.0 * np.pi))
        positions[joint] += amp_p * wave[:, None] * _AXES[joint % 3]
        angles = amp_q * np.sin(2.0 * np.pi * freq * times + rng.uniform(0.0, 2.0 * np.pi))
        for i in range(t):
            orientations[joint, i] = quat_from_axis_angle(_AXES[(joint + 1) % 3], angles[i])
    return SkeletonSequence(positions=positions, orientations=orientations, frame_rate=fs)


def toy_text_assets(dim=EMBED_DIM):
    """Orthonormal description embeddings and the matching label set.

    Class c gets DESCRIPTIONS_PER_CLASS descriptions with ids 'c{c}d{k}'
    mapped to distinct basis vectors; the label embedding of a class is its
    first (original) description vector.
    """
    entries = {}
    label_rows = []
    for c, name in enumerate(CLASS_NAMES):
        for k in range(DESCRIPTIONS_PER_CLASS):
            vec = np.zeros(dim)
            vec[c * DESCRIPTIONS_PER_CLASS + k] = 1.0
            text = name if k == 0 else f"{name} variant {k}"
            entries[f"c{c}d{k}"] = (text, vec)
        label_rows.append(entries[f"c{c}d0"][1])
    table = TextEmbeddingTable(dim=dim, entries=entries)
    labels = LabelSet(names=CLASS_NAMES, embeddings=np.stack(label_rows))
    return table, labels


def class_description_ids(class_idx):
    return [f"c{class_idx}d{k}" for k in range(DESCRIPTIONS_PER_CLASS)]


def _toy_recordings(n_per_class, seed, fs, duration, noise, rotated):
    """(class index, i, series) for i < n_per_class of every class in turn.

    One rng drives the motions and, when rotated, one set of per-joint
    rotations drawn after each sequence; the noise stream of the k-th
    recording is seeded with seed xor k.
    """
    if noise is None:
        noise = NoiseParams()
    rng = np.random.default_rng(seed)
    for c in range(len(CLASS_NAMES)):
        for i in range(n_per_class):
            seq = make_toy_sequence(c, rng, fs=fs, duration=duration)
            noise_rng = np.random.default_rng(seed ^ (c * n_per_class + i))
            series = simulate_sequence(seq, noise=noise, target_fs=fs, rng=noise_rng)
            if rotated:
                series = rotate_augment(series, rotations=sample_joint_rotations(series.num_joints, rng))
            yield c, i, series


def make_toy_pretrain_data(n_per_class, seed, fs=20.0, duration=2.0, noise=None):
    """Simulated training samples plus their description assignments.

    Returns (samples, descriptions); sample seq ids are '<class>_<i>'. The
    first description of a class is registered as the original, the rest as
    paraphrases.
    """
    samples = []
    descriptions = DescriptionSet()
    for c, i, series in _toy_recordings(n_per_class, seed, fs, duration, noise, rotated=False):
        seq_id = f"{CLASS_NAMES[c]}_{i:03d}"
        samples.append(PretrainSample(seq_id=seq_id, series=series))
        ids = class_description_ids(c)
        descriptions.add(seq_id, ids[0], paraphrase=False)
        for extra in ids[1:]:
            descriptions.add(seq_id, extra, paraphrase=True)
    return samples, descriptions


def make_toy_test_data(n_per_class, seed, fs=20.0, duration=2.0, noise=None, rotated=True):
    """Held-out (series, class_name) pairs with fresh per-joint rotations."""
    recordings = _toy_recordings(n_per_class, seed, fs, duration, noise, rotated)
    return [(series, CLASS_NAMES[c]) for c, _, series in recordings]
