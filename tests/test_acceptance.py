"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two pre-training runs (with and without rotation augmentation) are
module-scoped fixtures shared by the end-to-end criteria; everything else
is self-contained and fast. Run with `pytest -v -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from imuclr import augment, quat
from imuclr.autodiff import Tensor, grad_check
from imuclr.checkpoint import load_checkpoint, save_checkpoint
from imuclr.contrastive import Temperature, TrainConfig, contrastive_loss, pretrain
from imuclr.graph_encoder import EncoderConfig, build_adjacency, encode_batch, init_encoder_params
from imuclr.inference import (
    DeviceMapping,
    FinetuneConfig,
    LabelSet,
    Model,
    assign_to_joints,
    evaluate,
    finetune,
    report_from_scores,
    zero_shot_classify,
)
from imuclr.simulate import MotionTimeSeries, NoiseParams, SkeletonSequence, simulate_sequence
from imuclr.skeleton import body22
from imuclr.toy import make_toy_pretrain_data, make_toy_test_data, toy_text_assets

EPOCHS = 120
TRAIN_SEED, DATA_SEED, TEST_SEED = 7, 100, 999


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared toy runs (criteria 7, 8, 9)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_assets():
    samples, descriptions = make_toy_pretrain_data(50, seed=DATA_SEED)
    table, labels = toy_text_assets()
    test_set = make_toy_test_data(10, seed=TEST_SEED)
    return samples, descriptions, table, labels, test_set


def _toy_pretrain(toy_assets, rotation_augment):
    samples, descriptions, table, _, _ = toy_assets
    cfg = TrainConfig(
        batch_size=16,
        epochs=EPOCHS,
        lr=1e-4,
        mask_min=1,
        mask_max=5,
        seed=TRAIN_SEED,
        rotation_augment=rotation_augment,
    )
    enc_cfg = EncoderConfig(blocks=((6, 16, 9), (16, 32, 9)), partition="distance", embedding_dim=64)
    return pretrain(samples, descriptions, table, body22(), enc_cfg, cfg)


@pytest.fixture(scope="module")
def model_augmented(toy_assets):
    start = time.time()
    ckpt = _toy_pretrain(toy_assets, rotation_augment=True)
    return Model(ckpt), time.time() - start


@pytest.fixture(scope="module")
def model_no_augment(toy_assets):
    ckpt = _toy_pretrain(toy_assets, rotation_augment=False)
    return Model(ckpt)


# ---------------------------------------------------------------------------
# criteria 1-2: kinematics oracles
# ---------------------------------------------------------------------------


def test_criterion_1_spin_oracle():
    start = time.time()
    omega, fs, t_n = 3.0, 100.0, 200
    ts = np.arange(t_n) / fs
    qs = np.stack(
        [np.cos(omega * ts / 2), np.zeros(t_n), np.zeros(t_n), np.sin(omega * ts / 2)], axis=1
    )
    seq = SkeletonSequence(np.zeros((1, t_n, 3)), qs[None], fs)
    out = simulate_sequence(seq, NoiseParams(0.0, 0.0), fs)
    w = out.data[3:6, 1:-1, 0].T
    err = np.abs(w - [0.0, 0.0, omega]).max()
    elapsed = time.time() - start
    _report(1, "spin kinematics (factor 2)", err < 1e-3 and elapsed < 1.0,
            f"max_err={err:.2e} time={elapsed:.2f}s")


def test_criterion_2_circle_oracle():
    start = time.time()
    r, omega, fs, t_n = 0.5, 2 * np.pi, 100.0, 200
    ts = np.arange(t_n) / fs
    pos = np.stack([r * np.cos(omega * ts), r * np.sin(omega * ts), np.zeros(t_n)], axis=1)
    ori = np.zeros((t_n, 4))
    ori[:, 0] = 1.0
    seq = SkeletonSequence(pos[None], ori[None], fs)
    out = simulate_sequence(seq, NoiseParams(0.0, 0.0), fs)
    a_norm = np.linalg.norm(out.data[0:3, 1:-1, 0], axis=0)
    rel = np.abs(a_norm - r * omega**2).max() / (r * omega**2)
    elapsed = time.time() - start
    _report(2, "centripetal acceleration", rel < 0.01 and elapsed < 1.0,
            f"rel_err={rel:.2e} time={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 3-4: augmentation and SO(3) sampling
# ---------------------------------------------------------------------------


def test_criterion_3_rotation_invariants():
    start = time.time()
    rng = np.random.default_rng(33)
    worst_norm, worst_recover = 0.0, 0.0
    for _ in range(1000):
        data = rng.standard_normal((6, 10, 5))
        x = MotionTimeSeries(data, np.ones(5, dtype=bool), 20.0)
        rots = augment.sample_joint_rotations(5, rng)
        y = augment.rotate_augment(x, rotations=rots)
        for part in (slice(0, 3), slice(3, 6)):
            diff = np.linalg.norm(y.data[part], axis=0) - np.linalg.norm(x.data[part], axis=0)
            worst_norm = max(worst_norm, np.abs(diff).max())
        back = augment.rotate_augment(y, rotations=rots.transpose(0, 2, 1))
        worst_recover = max(worst_recover, np.abs(back.data - x.data).max())
    elapsed = time.time() - start
    _report(3, "rotation augmentation invariants",
            worst_norm < 1e-9 and worst_recover < 1e-9 and elapsed < 5.0,
            f"norm_err={worst_norm:.1e} recover_err={worst_recover:.1e} time={elapsed:.1f}s")


def test_criterion_4_so3_sampling():
    rng = np.random.default_rng(44)
    qs = quat.sample_unit_quaternions(100_000, rng)
    ms = quat.quats_to_matrices(qs)
    ortho = np.abs(np.einsum("nij,nik->njk", ms, ms) - np.eye(3)).max()
    det = np.abs(np.linalg.det(ms) - 1.0).max()
    mean_norm = np.linalg.norm((ms @ np.array([1.0, 0.0, 0.0])).mean(axis=0))
    _report(4, "uniform SO(3) sampling",
            ortho < 1e-9 and det < 1e-9 and mean_norm < 0.02,
            f"ortho={ortho:.1e} det={det:.1e} mean_norm={mean_norm:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end gradient verification
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_verification():
    start = time.time()
    cfg = EncoderConfig(blocks=((6, 8, 3), (8, 8, 3)), partition="distance", embedding_dim=8)
    adj = build_adjacency(body22(), "distance").normalized()
    params = init_encoder_params(cfg, np.random.default_rng(1))
    x = np.random.default_rng(21).standard_normal((2, 6, 16, 22))
    f = Tensor(np.random.default_rng(3).standard_normal((2, 8)) * 0.5)
    temp = Temperature.create(gamma=1.0)
    plist = list(params.values()) + [temp.log_inv_gamma]

    # the net is piecewise linear: the check is only meaningful while no
    # ReLU input sits within an eps-perturbation of its kink, so pin the
    # margin the chosen seeds provide (~4e-5 against eps=1e-5 nudges)
    from imuclr import autodiff as ad_module

    margins = []
    original_relu = ad_module.relu

    def probing_relu(t):
        live = np.abs(t.value)[np.abs(t.value) > 0]
        margins.append(live.min() if live.size else np.inf)
        return original_relu(t)

    ad_module.relu = probing_relu
    try:
        encode_batch(x, adj, params, cfg)
    finally:
        ad_module.relu = original_relu
    assert min(margins) > 2e-5, f"ReLU kink margin {min(margins):.1e} too small for eps=1e-5"

    err = grad_check(lambda: contrastive_loss(encode_batch(x, adj, params, cfg), f, temp), plist, eps=1e-5)
    elapsed = time.time() - start
    n_coords = sum(p.value.size for p in plist)
    _report(5, "finite-difference gradient verification",
            err < 1e-4 and elapsed < 60.0,
            f"max_rel_err={err:.2e} coords={n_coords} time={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: loss closed forms
# ---------------------------------------------------------------------------


def test_criterion_6_loss_closed_forms():
    g1 = np.random.default_rng(0).standard_normal((1, 4))
    single = float(contrastive_loss(Tensor(g1), Tensor(g1.copy()), Temperature.create()).value)

    row = np.random.default_rng(1).standard_normal(4)
    same = np.tile(row, (2, 1))
    twin = float(contrastive_loss(Tensor(same), Tensor(same.copy()), Temperature.create(gamma=0.3)).value)

    f = np.eye(2, 6)
    ortho = float(contrastive_loss(Tensor(f.copy()), Tensor(f.copy()), Temperature.create(gamma=1.0)).value)

    ok = (
        single == 0.0
        and abs(twin - np.log(2.0)) < 1e-9
        and abs(ortho - np.log(1.0 + np.exp(-1.0))) < 1e-9
    )
    _report(6, "contrastive loss closed forms", ok,
            f"B1={single} ln2_err={abs(twin - np.log(2)):.1e} "
            f"ortho_err={abs(ortho - np.log(1 + np.exp(-1))):.1e}")


# ---------------------------------------------------------------------------
# criteria 7-8: toy end-to-end zero-shot and the augmentation ablation
# ---------------------------------------------------------------------------


def test_criterion_7_toy_zero_shot(toy_assets, model_augmented):
    model, train_time = model_augmented
    _, _, _, labels, test_set = toy_assets
    report = evaluate(model, test_set, labels)
    ok = report.accuracy >= 0.95 and report.r_at_2 == 1.0 and train_time < 300.0
    _report(7, "toy end-to-end zero-shot", ok,
            f"acc={report.accuracy:.3f} r_at_2={report.r_at_2:.3f} train_time={train_time:.0f}s")


def test_criterion_8_ablation_echo(toy_assets, model_augmented, model_no_augment):
    _, _, _, labels, test_set = toy_assets
    aug = evaluate(model_augmented[0], test_set, labels)
    plain = evaluate(model_no_augment, test_set, labels)
    gap = aug.accuracy - plain.accuracy
    ok = plain.accuracy <= aug.accuracy and gap >= 0.10
    _report(8, "rotation-augmentation ablation", ok,
            f"augmented={aug.accuracy:.3f} without={plain.accuracy:.3f} gap={gap * 100:.0f}pts")


# ---------------------------------------------------------------------------
# criterion 9: masking soundness
# ---------------------------------------------------------------------------


def test_criterion_9_masking_soundness(toy_assets, model_augmented):
    model, _ = model_augmented
    _, _, _, labels, test_set = toy_assets
    series = test_set[0][0]
    v = series.num_joints
    keep = np.arange(v) == 20

    masked = augment.apply_mask(series, keep)
    tampered_data = series.data.copy()
    rng = np.random.default_rng(5)
    outside = np.setdiff1d(np.arange(v), [20])
    tampered_data[:, :, outside] = rng.standard_normal((6, series.num_frames, v - 1)) * 100
    tampered = augment.apply_mask(
        MotionTimeSeries(tampered_data, series.mask, series.sample_rate), keep
    )
    pred_a, scores_a = zero_shot_classify(masked, model, labels)
    pred_b, scores_b = zero_shot_classify(tampered, model, labels)
    bit_identical = pred_a == pred_b and np.array_equal(scores_a, scores_b)

    device = {"wrist": (series.data[0:3, :, 20].T, series.data[3:6, :, 20].T)}
    assigned = assign_to_joints(device, DeviceMapping({"wrist": 20}), v, series.sample_rate)
    same_tensor = np.array_equal(assigned.data, masked.data) and np.array_equal(
        assigned.mask, masked.mask
    )
    _, scores_c = zero_shot_classify(assigned, model, labels)
    _report(9, "masking soundness",
            bit_identical and same_tensor and np.array_equal(scores_a, scores_c),
            f"bit_identical={bit_identical} assign_matches={same_tensor}")


# ---------------------------------------------------------------------------
# criterion 10: metrics unit suite
# ---------------------------------------------------------------------------


def test_criterion_10_metrics():
    scores = np.zeros((4, 2))
    for i, p in enumerate([0, 1, 1, 1]):
        scores[i, p] = 1.0
    rep = report_from_scores([0, 0, 1, 1], scores)
    hand_ok = np.isclose(rep.macro_f1, (2 / 3 + 4 / 5) / 2) and np.isclose(rep.accuracy, 0.75)

    rng = np.random.default_rng(10)
    monotone = True
    for _ in range(100):
        n, d = int(rng.integers(2, 40)), int(rng.integers(2, 9))
        y = rng.integers(0, d, size=n)
        r = report_from_scores(y, rng.standard_normal((n, d)))
        monotone &= r.r_at_2 >= r.accuracy

    binary_r2 = True
    for _ in range(20):
        y = rng.integers(0, 2, size=12)
        binary_r2 &= report_from_scores(y, rng.standard_normal((12, 2))).r_at_2 == 1.0

    _report(10, "evaluation metrics", hand_ok and monotone and binary_r2,
            f"macro_f1={rep.macro_f1:.4f} r2_ge_acc={monotone} binary_r2={binary_r2}")


# ---------------------------------------------------------------------------
# criterion 11: determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_11_determinism_and_persistence(tmp_path, toy_assets):
    samples, descriptions, table, labels, test_set = toy_assets
    subset = samples[::10]
    cfg = TrainConfig(batch_size=4, epochs=5, lr=1e-4, mask_min=1, mask_max=5, seed=11)
    enc_cfg = EncoderConfig(blocks=((6, 8, 5),), partition="distance", embedding_dim=64)

    paths = []
    for name in ("run1.ckpt", "run2.ckpt"):
        ckpt = pretrain(subset, descriptions, table, body22(), enc_cfg, cfg)
        path = tmp_path / name
        save_checkpoint(path, ckpt)
        paths.append(path)
    runs_identical = paths[0].read_bytes() == paths[1].read_bytes()

    reread = tmp_path / "reread.ckpt"
    save_checkpoint(reread, load_checkpoint(paths[0]))
    roundtrip_identical = reread.read_bytes() == paths[0].read_bytes()

    # fine-tuning must leave the frozen text table untouched
    snapshot = table.state_snapshot()
    model = Model(load_checkpoint(paths[0]))
    gamma_before = model.params["log_inv_gamma"].value.copy()
    train = [(s, l) for (s, l) in test_set[:6]]
    finetune(model, train, LabelSet(names=labels.names), FinetuneConfig(epochs=2, lr=1e-3, batch_size=3))
    text_frozen = all(np.array_equal(table.entries[k][1], v) for k, v in snapshot.items())
    gamma_frozen = np.array_equal(model.params["log_inv_gamma"].value, gamma_before)

    ok = runs_identical and roundtrip_identical and text_frozen and gamma_frozen
    _report(11, "determinism and persistence", ok,
            f"runs_identical={runs_identical} roundtrip={roundtrip_identical} "
            f"text_frozen={text_frozen} gamma_frozen={gamma_frozen}")
