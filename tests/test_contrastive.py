import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imuclr.contrastive as contrastive
from conftest import chain_structure
from imuclr.augment import apply_mask, rotate_augment, sample_joint_mask, sample_joint_rotations
from imuclr.autodiff import Tensor, grad_check
from imuclr.contrastive import (
    PretrainSample,
    Temperature,
    TrainConfig,
    contrastive_loss,
    pretrain,
)
from imuclr.errors import BadRange, DimMismatch, EmptyDataset, EmptyText, NonFinite
from imuclr.graph_encoder import (
    EncoderConfig,
    build_adjacency,
    encode_batch,
    init_encoder_params,
)
from imuclr.inference import crop_stack
from imuclr.simulate import MotionTimeSeries
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable


def test_nan_reading_reaches_the_loss_check():
    # relu passes NaN on, so a NaN in one sample's input is not zeroed away
    # inside the encoder but fails the loss's finiteness check
    rng = np.random.default_rng(6)
    enc = EncoderConfig(blocks=((6, 4, 3),), partition="distance", embedding_dim=4)
    params = init_encoder_params(enc, rng)
    x = rng.standard_normal((3, 6, 5, 3))
    x[1, 2, 3, 0] = np.nan
    emb = encode_batch(x, build_adjacency(chain_structure(3), "distance"), params, enc)
    assert np.isnan(emb.value[1]).all() and np.isfinite(emb.value[[0, 2]]).all()
    with pytest.raises(NonFinite):
        contrastive_loss(emb, Tensor(rng.standard_normal((3, 4))), Temperature.create())


def test_non_finite_loss_names_the_embedding_shape(monkeypatch):
    # finite logits whose loss overflows; the stand-in skips the overflow warning of a real one
    monkeypatch.setattr(contrastive.ad, "softmax_cross_entropy", lambda logits, targets: Tensor(np.array(np.inf)))
    rng = np.random.default_rng(0)
    with pytest.raises(NonFinite, match=r"^contrastive loss over embeddings of shape \(3, 4\) is not finite$"):
        contrastive_loss(Tensor(rng.standard_normal((3, 4))), rng.standard_normal((3, 4)), Temperature.create())


def test_loss_single_pair_is_zero():
    g = np.random.default_rng(0).standard_normal((1, 4))
    loss = contrastive_loss(Tensor(g), Tensor(g.copy()), Temperature.create())
    assert float(loss.value) == 0.0


@pytest.mark.parametrize("gamma", [0.07, 0.5, 1.0, 3.0])
def test_loss_identical_embeddings_ln2(gamma):
    row = np.random.default_rng(1).standard_normal(4)
    same = np.tile(row, (2, 1))
    loss = contrastive_loss(Tensor(same), Tensor(same.copy()), Temperature.create(gamma=gamma))
    assert abs(float(loss.value) - np.log(2.0)) < 1e-9


def test_loss_orthonormal_closed_form():
    f = np.eye(2, 5)
    loss = contrastive_loss(Tensor(f.copy()), Tensor(f.copy()), Temperature.create(gamma=1.0))
    assert abs(float(loss.value) - np.log(1.0 + np.exp(-1.0))) < 1e-9


def test_loss_row_shift_invariance():
    # appending a constant coordinate adds c to every similarity in a row
    rng = np.random.default_rng(2)
    g, f = rng.standard_normal((2, 3, 4))
    c = 7.3
    g_ext = np.concatenate([g, np.full((3, 1), c)], axis=1)
    f_ext = np.concatenate([f, np.ones((3, 1))], axis=1)
    temp = Temperature.create(gamma=1.0)
    a = float(contrastive_loss(Tensor(g), Tensor(f), temp).value)
    b = float(contrastive_loss(Tensor(g_ext), Tensor(f_ext), temp).value)
    assert abs(a - b) < 1e-9


@given(st.integers(0, 2**31), st.integers(2, 6), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_loss_nonnegative(seed, b, d):
    rng = np.random.default_rng(seed)
    loss = contrastive_loss(
        Tensor(rng.standard_normal((b, d))),
        Tensor(rng.standard_normal((b, d))),
        Temperature.create(gamma=float(rng.uniform(0.1, 2.0))),
    )
    assert float(loss.value) >= 0.0


def test_loss_gradient_including_temperature():
    rng = np.random.default_rng(3)
    from imuclr.autodiff import Parameter

    g = Parameter("G", rng.standard_normal((3, 4)))
    f = Parameter("F", rng.standard_normal((3, 4)))
    temp = Temperature.create(gamma=1.0)
    err = grad_check(lambda: contrastive_loss(g, f, temp), [g, f, temp.log_inv_gamma])
    assert err < 1e-6


def test_loss_dim_mismatch():
    with pytest.raises(DimMismatch):
        contrastive_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Temperature.create())


def test_temperature_clamp():
    t = Temperature.create(gamma=0.001)  # 1/gamma = 1000 pre-clamp
    assert t.inv_gamma_value() == 100.0


def test_train_config_validation():
    with pytest.raises(BadRange):
        TrainConfig(batch_size=1)
    with pytest.raises(BadRange):
        TrainConfig(lr=0.0)


# ---------------------------------------------------------------------------
# pretrain loop
# ---------------------------------------------------------------------------

V, T = 4, 6


def tiny_setup(n=6, dim=4):
    rng = np.random.default_rng(77)
    samples, ds = [], DescriptionSet()
    for i in range(n):
        data = rng.standard_normal((6, T, V))
        samples.append(
            PretrainSample(f"s{i}", MotionTimeSeries(data, np.ones(V, dtype=bool), 20.0))
        )
        ds.add(f"s{i}", f"t{i % 2}")
    entries = {f"t{k}": (f"text {k}", rng.standard_normal(dim)) for k in range(2)}
    table = TextEmbeddingTable(dim=dim, entries=entries)
    cfg = TrainConfig(batch_size=3, epochs=2, lr=1e-3, mask_min=1, mask_max=2, seed=5)
    enc = EncoderConfig(blocks=((6, 3, 3),), partition="distance", embedding_dim=dim)
    return samples, ds, table, cfg, enc


def run_pretrain(cfg_overrides=None, capture=None):
    samples, ds, table, cfg, enc = tiny_setup()
    if cfg_overrides:
        cfg = TrainConfig(**{**cfg.__dict__, **cfg_overrides})
    return pretrain(samples, ds, table, chain_structure(V), enc, cfg, on_epoch=capture)


@pytest.mark.parametrize("rotation", [True, False], ids=["rotated", "unrotated"])
def test_batch_assembly_matches_per_sample_composition(rotation):
    # _assemble_batch crops and rotates only the mask's live joints, over the
    # batch at once; it must give the bytes of the per-sample composition,
    # which perfbench's layer replay still runs. Recordings have mixed
    # lengths, some unrecorded (all-zero) joints and a NaN
    v = 22
    rng = np.random.default_rng(21)
    cfg = TrainConfig(batch_size=2, mask_min=1, mask_max=v, rotation_augment=rotation)
    for seed in range(25):
        chosen = []
        for i in range(int(rng.integers(2, 9))):
            data = rng.standard_normal((6, int(rng.integers(1, 50)), v))
            data[int(rng.integers(6)), 0, int(rng.integers(v))] = np.nan
            recorded = rng.random(v) < 0.8
            data[:, :, ~recorded] = 0.0
            chosen.append(PretrainSample(f"s{i}", MotionTimeSeries(data, recorded, 20.0)))
        rng_rot, rng_mask = np.random.default_rng(seed), np.random.default_rng(seed + 100)
        batch = contrastive._assemble_batch(chosen, cfg, rng_rot, rng_mask)
        rng_rot, rng_mask = np.random.default_rng(seed), np.random.default_rng(seed + 100)
        series = [s.series for s in chosen]
        if rotation:
            rotations = sample_joint_rotations(v, rng_rot)
            series = [rotate_augment(s, rotations) for s in series]
        mask = sample_joint_mask(v, cfg.mask_min, cfg.mask_max, rng_mask)
        ref = crop_stack([apply_mask(s, mask) for s in series])
        assert batch.shape == ref.shape and batch.tobytes() == ref.tobytes()


def test_zero_epochs_equals_initialization():
    ckpt = run_pretrain({"epochs": 0})
    samples, ds, table, cfg, enc = tiny_setup()
    seed_seq = np.random.SeedSequence(cfg.seed)
    rng_init = np.random.default_rng(seed_seq.spawn(5)[0])
    fresh = init_encoder_params(enc, rng_init)
    # training runs in float32: the initialization is rounded once, then handed back as float64
    for name, p in fresh.items():
        assert ckpt.params[name].dtype == np.float64
        assert np.array_equal(ckpt.params[name], p.value.astype(np.float32))
    assert ckpt.params["log_inv_gamma"] == np.float32(np.log(1 / 0.07))


def test_identical_seeds_identical_curves():
    h1, h2 = [], []
    c1 = run_pretrain(capture=lambda e, l, g: h1.append((e, l, g)))
    c2 = run_pretrain(capture=lambda e, l, g: h2.append((e, l, g)))
    assert h1 == h2
    assert all(np.array_equal(c1.params[k], c2.params[k]) for k in c1.params)


def test_identity_rotations_match_disabled_augmentation(monkeypatch):
    baseline = run_pretrain({"rotation_augment": False})
    monkeypatch.setattr(
        contrastive,
        "sample_joint_rotations",
        lambda v, rng: np.tile(np.eye(3), (v, 1, 1)),
    )
    forced = run_pretrain({"rotation_augment": True})
    for k in baseline.params:
        assert np.array_equal(baseline.params[k], forced.params[k])


def test_loss_curve_changes_with_seed():
    h1, h2 = [], []
    run_pretrain({"seed": 5}, capture=lambda e, l, g: h1.append(l))
    run_pretrain({"seed": 6}, capture=lambda e, l, g: h2.append(l))
    assert h1 != h2


def test_checkpoint_contents():
    ckpt = run_pretrain()
    assert ckpt.sample_rate == 20.0
    assert ckpt.train_window == T
    assert "log_inv_gamma" in ckpt.params
    assert ckpt.structure.num_joints == V
    assert not ckpt.has_classifier()


def test_pretrain_validations():
    samples, ds, table, cfg, enc = tiny_setup()
    with pytest.raises(EmptyDataset):
        pretrain([], ds, table, chain_structure(V), enc, cfg)
    bad_table = TextEmbeddingTable(dim=3, entries={"t0": ("x", np.zeros(3))})
    with pytest.raises(DimMismatch):
        pretrain(samples, ds, bad_table, chain_structure(V), enc, cfg)
    orphan = DescriptionSet()
    with pytest.raises(EmptyDataset):
        pretrain(samples, orphan, table, chain_structure(V), enc, cfg)


def test_description_without_text_embedding_fails_before_the_first_step(monkeypatch):
    # a paraphrase id the table lacks is named up front, not a KeyError when first drawn
    samples, ds, table, cfg, enc = tiny_setup()
    ds.add("s3", "t9", paraphrase=True)
    steps = []
    monkeypatch.setattr(contrastive.Adam, "step", lambda self: steps.append(self))
    with pytest.raises(EmptyText, match="'s3'.*'t9'"):
        pretrain(samples, ds, table, chain_structure(V), enc, cfg)
    assert steps == []


def test_single_sample_rejected():
    # one sample has no negatives: its loss would be identically zero
    samples, ds, table, cfg, enc = tiny_setup(n=1)
    with pytest.raises(BadRange):
        pretrain(samples, ds, table, chain_structure(V), enc, cfg)


def test_fewer_samples_than_batch_train_one_batch_per_epoch():
    samples, ds, table, _, enc = tiny_setup(n=2)
    cfg = TrainConfig(batch_size=3, epochs=2, lr=1e-3, mask_min=1, mask_max=2, seed=5)
    losses = []
    pretrain(samples, ds, table, chain_structure(V), enc, cfg, on_epoch=lambda e, l, g: losses.append(l))
    assert len(losses) == 2 and all(np.isfinite(losses)) and losses[0] > 0


def test_pretraining_warns_once_with_the_batches_cropped_below_the_window():
    # the training window is the median length, 6; one 3-frame sample cuts the one batch
    # it lands in each epoch to 3 frames, 2 of the 4 batches of 3
    samples, ds, table, cfg, enc = tiny_setup()
    short = samples[4].series
    samples[4] = PretrainSample("s4", MotionTimeSeries(short.data[:, :3], short.mask, short.sample_rate))
    with pytest.warns(UserWarning) as caught:
        ckpt = pretrain(samples, ds, table, chain_structure(V), enc, cfg)
    assert ckpt.train_window == T
    assert [str(w.message) for w in caught] == [
        "pretraining cropped 2 of 4 batches to their shortest recording, below the training window (6)"
    ]


def test_non_finite_step_names_its_epoch_and_step(monkeypatch):
    # 4 samples in batches of 2 make 2 steps an epoch, so the third loss is epoch 1, step 0
    samples, ds, table, _, enc = tiny_setup(n=4)
    cfg = TrainConfig(batch_size=2, epochs=2, lr=1e-3, mask_min=1, mask_max=2, seed=5)
    calls = []

    def loss_failing_third(*args):
        calls.append(args)
        if len(calls) == 3:  # a NaN embedding batch, so the loss's own check names the logits' shape
            args = (Tensor(np.full(args[0].shape, np.nan)),) + args[1:]
        return contrastive_loss(*args)

    monkeypatch.setattr(contrastive, "contrastive_loss", loss_failing_third)
    with pytest.raises(NonFinite, match=r"^epoch 1, step 0: softmax_cross_entropy input of shape \(2, 2\) contains"):
        pretrain(samples, ds, table, chain_structure(V), enc, cfg)
    assert len(calls) == 3
