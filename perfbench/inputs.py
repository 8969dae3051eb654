"""Seeded inputs of the three workloads, written as the program's file formats.

The files are written here rather than with imuclr's writers, so the
program reads them as foreign input. The layouts follow FORMATS.md. The
arrays behind the ingest skeletons and the evaluation recordings are
rebuilt from the seed by the functions below, and the checks compare the
program's output against those arrays.
"""

from __future__ import annotations

import os

import numpy as np

from reference import JointMotion, axis_angle_quat, resampled_frames

NUM_JOINTS = 22

# pretrain: the three-activity toy corpus of the acceptance suite
CLASS_NAMES = ("slow_wave", "steady_kick", "rapid_nod")
CLASS_FREQS = (0.5, 1.5, 3.0)  # Hz
CLASS_JOINTS = ((13, 16, 18, 20, 1, 4), (14, 17, 19, 21, 2, 5), (0, 3, 6, 9, 12, 15))
CLASS_POS_AMPS = (0.80, 0.09, 0.025)  # m
CLASS_ROT_AMPS = (0.90, 0.50, 0.35)  # rad
PRETRAIN_PER_CLASS = 50
PRETRAIN_FS = 20.0
PRETRAIN_FRAMES = 40  # 2 s
EMBED_DIM = 64
DESCRIPTIONS_PER_CLASS = 3

# ingest: closed-form motions at the native mocap rate
INGEST_SEQUENCES = 16
INGEST_FS = 60.0
INGEST_FRAMES = (120, 600)  # 2 s .. 10 s

# zero_shot_eval: 3-device text recordings in g, at 50 Hz
EVAL_PER_CLASS = 8
EVAL_FS = 50.0
EVAL_UNIT_SCALE = 9.81
EVAL_WINDOWS = (3, 6)  # whole windows per recording, plus a tail
DEVICES = ("left_wrist", "right_wrist", "head")
CHECKPOINT_SEED = 0  # the evaluated checkpoint does not depend on --seed
CHECKPOINT_PER_CLASS = 16


def _rows(values):
    return "\n".join(" ".join(map(repr, row)) for row in values.tolist()) + "\n"


def write_skeleton(path, positions, quaternions, fs):
    """.skel text: 'V T fs', then per frame px py pz qw qx qy qz per joint."""
    v, t, _ = positions.shape
    frames = np.concatenate([positions, quaternions], axis=2).transpose(1, 0, 2).reshape(t, 7 * v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v} {t} {float(fs)!r}\n")
        fh.write(_rows(frames))


def write_timeseries_text(path, data, fs):
    """.ts text with every joint visible: header, mask line, joint-major frames."""
    c, t, v = data.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v} {t} {float(fs)!r} {c}\n")
        fh.write(" ".join(["1"] * v) + "\n")
        fh.write(_rows(data.transpose(1, 2, 0).reshape(t, v * c)))


def write_embeddings(path, entries):
    """Embedding file: 'N dim', then id<TAB>text<TAB>values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(entries)} {EMBED_DIM}\n")
        for key, text, vec in entries:
            fh.write(f"{key}\t{text}\t" + " ".join(map(repr, vec.tolist())) + "\n")


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def description_vector(class_idx, k):
    vec = np.zeros(EMBED_DIM)
    vec[class_idx * DESCRIPTIONS_PER_CLASS + k] = 1.0
    return vec


def toy_motion(class_idx, rng, frames=PRETRAIN_FRAMES, fs=PRETRAIN_FS):
    """(positions (V,T,3), quaternions (V,T,4)) of one toy activity sequence."""
    times = np.arange(frames) / fs
    positions = np.zeros((NUM_JOINTS, frames, 3))
    positions[:, :, 0] = 0.05 * np.arange(NUM_JOINTS)[:, None]
    quaternions = np.zeros((NUM_JOINTS, frames, 4))
    quaternions[:, :, 0] = 1.0
    freq = CLASS_FREQS[class_idx]
    for joint in CLASS_JOINTS[class_idx]:
        amp_p = CLASS_POS_AMPS[class_idx] * rng.uniform(0.8, 1.2)
        amp_q = CLASS_ROT_AMPS[class_idx] * rng.uniform(0.8, 1.2)
        wave = np.sin(2.0 * np.pi * freq * times + rng.uniform(0.0, 2.0 * np.pi))
        positions[joint, :, joint % 3] += amp_p * wave
        angles = amp_q * np.sin(2.0 * np.pi * freq * times + rng.uniform(0.0, 2.0 * np.pi))
        quaternions[joint] = axis_angle_quat(np.eye(3)[(joint + 1) % 3], angles)
    return positions, quaternions


def pretrain_ids(per_class=PRETRAIN_PER_CLASS):
    return [(c, f"{name}_{i:03d}") for c, name in enumerate(CLASS_NAMES) for i in range(per_class)]


def write_pretrain_inputs(root, seed):
    """skel/ with 150 toy sequences, descriptions.tsv and embeddings.txt."""
    skel_dir = os.path.join(root, "skel")
    os.makedirs(skel_dir)
    rng = np.random.default_rng(seed)
    lines = []
    for c, seq_id in pretrain_ids():
        positions, quaternions = toy_motion(c, rng)
        write_skeleton(os.path.join(skel_dir, seq_id + ".skel"), positions, quaternions, PRETRAIN_FS)
        for k in range(DESCRIPTIONS_PER_CLASS):
            lines.append(f"{seq_id}\t{'orig' if k == 0 else 'para'}\tc{c}d{k}")
    with open(os.path.join(root, "descriptions.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    entries = [
        (f"c{c}d{k}", name if k == 0 else f"{name} variant {k}", description_vector(c, k))
        for c, name in enumerate(CLASS_NAMES)
        for k in range(DESCRIPTIONS_PER_CLASS)
    ]
    write_embeddings(os.path.join(root, "embeddings.txt"), entries)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def ingest_sequences(seed):
    """[(name, frames, [JointMotion] * V)] for the ingest directory of a seed.

    The lengths are one fixed set spread over INGEST_FRAMES, in an order the
    seed picks, so every seed asks for the same amount of work.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.linspace(*INGEST_FRAMES, INGEST_SEQUENCES).round().astype(int))
    out = []
    for i, frames in enumerate(lengths):
        motions = [JointMotion.random(rng, base=(0.05 * j, 0.0, 1.0)) for j in range(NUM_JOINTS)]
        out.append((f"seq{i:03d}", int(frames), motions))
    return out


def write_ingest_inputs(root, seed):
    skel_dir = os.path.join(root, "skel")
    os.makedirs(skel_dir)
    for name, frames, motions in ingest_sequences(seed):
        times = np.arange(frames) / INGEST_FS
        positions = np.stack([m.positions(times) for m in motions])
        quaternions = np.stack([m.quaternions(times) for m in motions])
        write_skeleton(os.path.join(skel_dir, name + ".skel"), positions, quaternions, INGEST_FS)


# ---------------------------------------------------------------------------
# zero_shot_eval
# ---------------------------------------------------------------------------


def eval_recordings(seed):
    """[(file name, label, (6, T, 3) data in file units)] for one seed.

    Each device carries a class-rate oscillation plus noise; accelerations
    are stored in g, so the manifest's unit scale is 9.81. Lengths give
    3..6 whole windows of 2 s at 20 Hz plus a tail of 1..39 frames; the
    set of lengths is fixed and the seed picks which recording gets which.
    """
    rng = np.random.default_rng(seed)
    count = len(CLASS_NAMES) * EVAL_PER_CLASS
    whole = np.resize(np.arange(EVAL_WINDOWS[0], EVAL_WINDOWS[1] + 1), count)
    tails = np.linspace(1, 39, count).round().astype(int)
    lengths = rng.permutation(40 * whole + tails)
    out = []
    for c, label in enumerate(CLASS_NAMES):
        for i in range(EVAL_PER_CLASS):
            target = int(lengths[c * EVAL_PER_CLASS + i])
            frames = -(-5 * (target - 1) // 2) + 1  # smallest 50 Hz length resampling to `target`
            if resampled_frames(frames, EVAL_FS, 20.0) != target:
                raise ValueError(f"{frames} frames at {EVAL_FS} Hz do not resample to {target}")
            times = np.arange(frames) / EVAL_FS
            phase = rng.uniform(0.0, 2.0 * np.pi, size=(6, 1, 3))
            amp = rng.uniform(0.5, 1.5, size=(6, 1, 3)) * np.array([4.0, 4.0, 4.0, 2.0, 2.0, 2.0])[:, None, None]
            data = amp * np.sin(2.0 * np.pi * CLASS_FREQS[c] * times[None, :, None] + phase)
            data += 0.05 * rng.standard_normal(data.shape)
            data[0:3] /= EVAL_UNIT_SCALE
            out.append((f"rec{c}_{i:02d}.ts", label, data))
    return out


def write_eval_recordings(root, seed):
    """recordings, mapping.txt, manifest.tsv and labels.txt under root."""
    lines = ["mapping mapping.txt"]
    for name, label, data in eval_recordings(seed):
        write_timeseries_text(os.path.join(root, name), data, EVAL_FS)
        lines.append(f"sample\t{name}\t{label}\t{','.join(DEVICES)}\t{EVAL_FS!r}\t{EVAL_UNIT_SCALE!r}")
    with open(os.path.join(root, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(root, "mapping.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{d} {d}\n" for d in DEVICES))
    entries = [(f"label{c}", name, description_vector(c, 0)) for c, name in enumerate(CLASS_NAMES)]
    write_embeddings(os.path.join(root, "labels.txt"), entries)
