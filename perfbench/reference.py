"""Plain-numpy references and the output checks built on them.

Nothing here imports imuclr: the encoder forward pass, the InfoNCE loss,
the closed-form kinematics of the ingest motions, the resampling of the
evaluation recordings and the window-count bounds are written from the
method's definition, so each check compares the program against a
computation made apart from it. A check returns (ok, detail) and never
raises on a mismatch, so a workload can count the operation as failed and
go on.
"""

from __future__ import annotations

import math

import numpy as np

ADJ_ALPHA = 0.001  # diagonal regularizer of the normalized adjacency
INV_GAMMA_CLAMP = 100.0

# ---------------------------------------------------------------------------
# encoder forward pass and InfoNCE loss
# ---------------------------------------------------------------------------


def normalized_adjacency(parents, partition):
    """(K_s, V, V) stack Lambda^-1/2 A_k Lambda^-1/2 built from parent links."""
    v = len(parents)
    neighbor = np.zeros((v, v))
    for child, parent in enumerate(parents):
        if parent >= 0:
            neighbor[parent, child] = neighbor[child, parent] = 1.0
    if partition == "uniform":
        stacks = (np.eye(v) + neighbor)[None]
    elif partition == "distance":
        stacks = np.stack([np.eye(v), neighbor])
    else:
        raise ValueError(f"unknown partition {partition!r}")
    inv_sqrt = 1.0 / np.sqrt(stacks.sum(axis=2) + ADJ_ALPHA)
    return stacks * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]


def encoder_forward(x, params, num_blocks, adj):
    """Embed a (B, 6, T, V) batch; params maps checkpoint names to arrays.

    Per block: spatial graph convolution sum_k W_k x A_k, ReLU, zero-padded
    temporal cross-correlation, per-channel affine, ReLU. Then the mean over
    time and joints, and the linear projection.
    """
    h = np.asarray(x, dtype=np.float64)
    for i in range(num_blocks):
        h = np.einsum("koc,bctv,kvw->botw", params[f"block{i}.spatial"], h, adj, optimize=True)
        h = np.maximum(h, 0.0)
        w_t = params[f"block{i}.temporal"]  # (O, C, K_t)
        k_t, t = w_t.shape[2], h.shape[2]
        pad = (k_t - 1) // 2
        hp = np.pad(h, ((0, 0), (0, 0), (pad, pad), (0, 0)))
        h = sum(np.einsum("oc,bctv->botv", w_t[:, :, j], hp[:, :, j : j + t, :]) for j in range(k_t))
        h = h * params[f"block{i}.scale"][:, None, None] + params[f"block{i}.shift"][:, None, None]
        h = np.maximum(h, 0.0)
    return h.mean(axis=(2, 3)) @ params["proj.weight"] + params["proj.bias"]


def encoder_forward_chunked(x, params, num_blocks, adj, chunk=8):
    """encoder_forward over a long batch in chunks, so memory stays small."""
    parts = [encoder_forward(x[i : i + chunk], params, num_blocks, adj) for i in range(0, len(x), chunk)]
    return np.concatenate(parts)


def inv_gamma(log_inv_gamma):
    return min(math.exp(float(log_inv_gamma)), INV_GAMMA_CLAMP)


def info_nce(series_emb, text_emb, inv_g):
    """-(1/B) sum_i log softmax_k(<G_i, F_k> / gamma)[k=i], stabilized."""
    logits = (series_emb @ text_emb.T) * inv_g
    top = logits.max(axis=1)
    log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return float(np.mean(log_norm - np.diag(logits)))


# ---------------------------------------------------------------------------
# closed-form motions for the ingest workload
# ---------------------------------------------------------------------------


def axis_angle_matrix(axis, angle):
    """Rodrigues rotation matrices; angle may be an array, giving (..., 3, 3)."""
    axis = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    angle = np.asarray(angle, dtype=np.float64)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    s, c = np.sin(angle)[..., None, None], np.cos(angle)[..., None, None]
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def axis_angle_quat(axis, angle):
    """Scalar-first unit quaternions for rotations about one axis, (..., 4)."""
    axis = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    half = 0.5 * np.asarray(angle, dtype=np.float64)
    return np.concatenate([np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1)


def hamilton(a, b):
    """Hamilton product of scalar-first quaternions, broadcasting."""
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


class JointMotion:
    """One joint: p(t) = base + a sin(w t + phi) u, q(t) = q0 (x) rot(n, A sin(v t + psi)).

    The rotation axis n is fixed in the joint's frame, so the body-frame
    angular velocity is A v cos(v t + psi) n, and the body-frame linear
    acceleration is R(q(t))^T p''(t) with p'' = -a w^2 sin(w t + phi) u.
    """

    def __init__(self, base, amp, u, omega, phi, axis0, angle0, n, amp_rot, nu, psi):
        self.base, self.amp, self.u = np.asarray(base), amp, np.asarray(u) / np.linalg.norm(u)
        self.omega, self.phi = omega, phi
        self.axis0, self.angle0 = np.asarray(axis0), angle0
        self.n, self.amp_rot, self.nu, self.psi = np.asarray(n) / np.linalg.norm(n), amp_rot, nu, psi

    @classmethod
    def random(cls, rng, base):
        def unit():
            v = rng.standard_normal(3)
            return v / np.linalg.norm(v)

        # slow enough that the simulator's finite differences at 60 Hz stay
        # well inside the noise, fast enough that a one-frame shift at 20 Hz
        # moves a channel by more than 8 sigma at its peak
        omega = 2 * np.pi * rng.uniform(0.5, 1.0)
        return cls(
            base=base,
            amp=rng.uniform(3.0, 8.0) / omega**2,  # peak acceleration 3..8 m/s^2
            u=unit(),
            omega=omega,
            phi=rng.uniform(0, 2 * np.pi),
            axis0=unit(),
            angle0=rng.uniform(0, np.pi),
            n=unit(),
            amp_rot=rng.uniform(0.3, 0.6),
            nu=2 * np.pi * rng.uniform(0.3, 0.6),
            psi=rng.uniform(0, 2 * np.pi),
        )

    def theta(self, t):
        return self.amp_rot * np.sin(self.nu * t + self.psi)

    def positions(self, t):
        return self.base + self.amp * np.sin(self.omega * t + self.phi)[:, None] * self.u

    def quaternions(self, t):
        return hamilton(axis_angle_quat(self.axis0, self.angle0), axis_angle_quat(self.n, self.theta(t)))

    def accel_local(self, t):
        a_global = -self.amp * self.omega**2 * np.sin(self.omega * t + self.phi)[:, None] * self.u
        rot = axis_angle_matrix(self.axis0, self.angle0) @ axis_angle_matrix(self.n, self.theta(t))
        return np.einsum("tji,tj->ti", rot, a_global)

    def gyro_local(self, t):
        rate = self.amp_rot * self.nu * np.cos(self.nu * t + self.psi)
        return rate[:, None] * self.n


def resampled_frames(t_in, fs_in, fs_out):
    """floor((T - 1) * fs_out / fs_in) + 1 in exact integer arithmetic."""
    return (t_in - 1) * int(fs_out) // int(fs_in) + 1


def check_channels(data, motions, times, sigma_accel, sigma_gyro):
    """Simulated (6, T, V) channels against the closed form, within the noise.

    The residual of each channel group must have an RMS within 20 % of its
    sigma (the noise is there and has its level) and no sample beyond 8
    sigma (a shifted or swapped channel stands out by orders of magnitude).
    """
    accel = np.stack([m.accel_local(times) for m in motions], axis=-1)  # (T, 3, V)
    gyro = np.stack([m.gyro_local(times) for m in motions], axis=-1)
    expected = np.concatenate([accel, gyro], axis=1).transpose(1, 0, 2)
    if data.shape != expected.shape:
        return False, f"channels {data.shape} != expected {expected.shape}"
    for name, rows, sigma in (("accel", slice(0, 3), sigma_accel), ("gyro", slice(3, 6), sigma_gyro)):
        resid = data[rows] - expected[rows]
        rms = float(np.sqrt(np.mean(resid**2)))
        worst = float(np.max(np.abs(resid)))
        if not (0.8 * sigma <= rms <= 1.2 * sigma and worst <= 8.0 * sigma):
            return False, f"{name} residual rms {rms:.4g}, max {worst:.4g} against sigma {sigma}"
    return True, "channels match the closed form"


# ---------------------------------------------------------------------------
# evaluation set-up and scoring
# ---------------------------------------------------------------------------


def resample_linear(x, fs_in, fs_out):
    """(T, k) series onto the uniform fs_out grid spanning the same duration."""
    t_out = resampled_frames(x.shape[0], fs_in, fs_out)
    grid_in = np.arange(x.shape[0]) / fs_in
    grid_out = np.arange(t_out) / fs_out
    return np.stack([np.interp(grid_out, grid_in, x[:, k]) for k in range(x.shape[1])], axis=1)


def window_count_bounds(frames, window):
    """Windows a recording of `frames` may yield: floor(T/w) .. ceil(T/w), at least 1."""
    return max(frames // window, 1), max(-(-frames // window), 1)


def _is_slice(piece, full, rtol, hint):
    """True when piece (C, L, V) equals full[:, o:o+L] (C, T, V) for some offset o.

    The offset `hint` is tried first, then every other one.
    """
    length = piece.shape[1]
    if piece.shape[0] != full.shape[0] or piece.shape[2] != full.shape[2] or length > full.shape[1]:
        return False
    tol = rtol * max(1.0, float(np.max(np.abs(full))))
    offsets = range(full.shape[1] - length + 1)
    for offset in [hint] + [o for o in offsets if o != hint] if hint in offsets else offsets:
        if np.max(np.abs(full[:, offset : offset + length] - piece)) <= tol:
            return True
    return False


def check_windows(pieces, recordings, rtol=1e-12):
    """Eval windows against their recordings, in manifest order.

    pieces: list of (data (C, L, V), mask, label); recordings: list of
    (full data (C, T, V), mask, label, window). Each recording must own a
    run of consecutive pieces, each a slice of it with its mask and label,
    and the run length must lie within window_count_bounds.
    """
    i = 0
    for r, (full, mask, label, window) in enumerate(recordings):
        count = 0
        while i < len(pieces):
            data, piece_mask, piece_label = pieces[i]
            if piece_label != label or not np.array_equal(piece_mask, mask):
                break
            if not _is_slice(data, full, rtol, hint=count * window):
                break
            i += 1
            count += 1
        lo, hi = window_count_bounds(full.shape[1], window)
        if not lo <= count <= hi:
            return False, f"recording {r}: {count} windows, expected {lo}..{hi}"
    if i != len(pieces):
        return False, f"window {i} is no slice of its recording"
    return True, f"{len(pieces)} windows are slices of {len(recordings)} recordings"


def report(y_true, scores):
    """Confusion (rows true class), accuracy, macro F1 and recall@2 from scores."""
    y_true = np.asarray(y_true)
    d = scores.shape[1]
    pred = np.argmax(scores, axis=1)
    confusion = np.zeros((d, d), dtype=np.int64)
    for t, p in zip(y_true, pred):
        confusion[t, p] += 1
    f1s = []
    for c in range(d):
        tp = confusion[c, c]
        predicted, actual = confusion[:, c].sum(), confusion[c, :].sum()
        f1s.append(2.0 * tp / (predicted + actual) if predicted + actual else 0.0)
    top2 = np.argsort(-scores, axis=1, kind="stable")[:, :2]
    r2 = float(np.mean([t in row for t, row in zip(y_true, top2)]))
    return {
        "confusion": confusion,
        "accuracy": float(np.trace(confusion)) / len(y_true),
        "macro_f1": float(np.mean(f1s)),
        "r_at_2": r2,
    }


def check_report(program, expected, windows):
    """A program EvalReport against the report computed from reference scores."""
    confusion = np.asarray(program.confusion)
    if int(confusion.sum()) != windows:
        return False, f"confusion sums to {int(confusion.sum())}, {windows} windows"
    if not np.array_equal(confusion, expected["confusion"]):
        return False, "confusion differs from the reference predictions"
    for key in ("accuracy", "macro_f1", "r_at_2"):
        if abs(getattr(program, key) - expected[key]) > 1e-12:
            return False, f"{key} {getattr(program, key)!r} != reference {expected[key]!r}"
    return True, "report matches the reference"


# ---------------------------------------------------------------------------
# generic comparisons
# ---------------------------------------------------------------------------


def check_close(program, reference, rtol, what):
    """Elementwise |program - reference| <= rtol * max(|reference|, 1)."""
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if program.shape != reference.shape:
        return False, f"{what}: shape {program.shape} != reference {reference.shape}"
    if not np.all(np.isfinite(program)):
        return False, f"{what}: not finite"
    worst = float(np.max(np.abs(program - reference) / np.maximum(np.abs(reference), 1.0)))
    return worst <= rtol, f"{what}: relative error {worst:.3g} (tolerance {rtol:g})"


def check_training_log(epochs):
    """on_epoch records (epoch, mean_loss, inv_gamma): finite, 1/gamma <= clamp, loss falls."""
    if len(epochs) < 2:
        return False, f"{len(epochs)} epochs logged"
    for epoch, loss, inv_g in epochs:
        if not (math.isfinite(loss) and math.isfinite(inv_g) and 0.0 < inv_g <= INV_GAMMA_CLAMP):
            return False, f"epoch {epoch}: loss {loss!r}, 1/gamma {inv_g!r}"
    if not epochs[-1][1] < epochs[0][1]:
        return False, f"last epoch loss {epochs[-1][1]:.6f} not below first {epochs[0][1]:.6f}"
    return True, "training log is finite, clamped and falling"
