from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_structure
from imuclr import autodiff as ad
from imuclr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from imuclr.errors import (
    BadRange,
    DimMismatch,
    DuplicateJoint,
    EmptyDataset,
    ShapeMismatch,
    UnknownLocation,
)
from imuclr.graph_encoder import EncoderConfig, init_encoder_params
from imuclr.inference import (
    DeviceMapping,
    FinetuneConfig,
    LabelSet,
    Model,
    assign_to_joints,
    evaluate,
    finetune,
    report_from_scores,
    windows,
    zero_shot_classify,
)
from imuclr.autodiff import Tensor
from imuclr.simulate import MotionTimeSeries
from imuclr.skeleton import body22


# ---------------------------------------------------------------------------
# device assignment
# ---------------------------------------------------------------------------


def test_assign_single_wrist_device():
    t = 5
    accel = np.arange(t * 3, dtype=float).reshape(t, 3)
    gyro = np.ones((t, 3))
    mapping = DeviceMapping({"wrist": 20})
    out = assign_to_joints({"wrist": (accel, gyro)}, mapping, 22, 20.0)
    assert np.array_equal(out.data[:3, :, 20], accel.T)
    assert np.array_equal(out.data[3:, :, 20], gyro.T)
    other = np.delete(np.arange(22), 20)
    assert np.all(out.data[:, :, other] == 0.0)
    assert out.mask.sum() == 1 and out.mask[20]


def test_assign_accel_only_zero_fills_gyro():
    accel = np.ones((4, 3))
    mapping = DeviceMapping({"hip": 0})
    out = assign_to_joints({"hip": (accel, None)}, mapping, 22, 20.0)
    assert np.all(out.data[3:, :, 0] == 0.0)
    assert np.all(out.data[:3, :, 0] == 1.0)


def test_assign_duplicate_joint_rejected():
    mapping = DeviceMapping({"a": 3, "b": 3})
    data = {"a": (np.ones((4, 3)), None), "b": (np.ones((4, 3)), None)}
    with pytest.raises(DuplicateJoint):
        assign_to_joints(data, mapping, 22, 20.0)


def test_assign_unknown_location():
    with pytest.raises(UnknownLocation):
        assign_to_joints({"elbow": (np.ones((4, 3)), None)}, DeviceMapping({}), 22, 20.0)


def test_assign_length_mismatch():
    mapping = DeviceMapping({"a": 0, "b": 1})
    data = {"a": (np.ones((4, 3)), None), "b": (np.ones((5, 3)), None)}
    with pytest.raises(ShapeMismatch):
        assign_to_joints(data, mapping, 22, 20.0)


# ---------------------------------------------------------------------------
# zero-shot classification
# ---------------------------------------------------------------------------


class StubModel:
    def __init__(self, emb):
        self._emb = np.asarray(emb, dtype=np.float64)

    def embed(self, series):
        return self._emb


def test_zero_shot_orthonormal_construction():
    labels = LabelSet(names=("a", "b", "c"), embeddings=np.eye(3))
    pred, scores = zero_shot_classify(None, StubModel([0.0, 1.0, 0.0]), labels)
    assert pred == 1
    assert np.allclose(scores, [0.0, 1.0, 0.0])


def test_zero_shot_scaling_invariance():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal(4)
    base = LabelSet(names=("a", "b", "c"), embeddings=rng.standard_normal((3, 4)))
    scaled = LabelSet(names=base.names, embeddings=7.5 * base.embeddings)
    p1, _ = zero_shot_classify(None, StubModel(emb), base)
    p2, _ = zero_shot_classify(None, StubModel(emb), scaled)
    assert p1 == p2


def test_zero_shot_tie_breaks_low_index():
    labels = LabelSet(names=("a", "b"), embeddings=np.stack([np.ones(3), np.ones(3)]))
    pred, _ = zero_shot_classify(None, StubModel(np.ones(3)), labels)
    assert pred == 0


def test_zero_shot_needs_embeddings():
    with pytest.raises(DimMismatch):
        zero_shot_classify(None, StubModel(np.ones(3)), LabelSet(names=("a", "b")))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def scores_for_predictions(y_pred, d):
    s = np.zeros((len(y_pred), d))
    for i, p in enumerate(y_pred):
        s[i, p] = 1.0
    return s


def test_hand_computed_macro_f1():
    y_true = [0, 0, 1, 1]
    scores = scores_for_predictions([0, 1, 1, 1], 2)
    rep = report_from_scores(y_true, scores)
    assert np.isclose(rep.accuracy, 0.75)
    assert np.isclose(rep.macro_f1, (2 / 3 + 4 / 5) / 2)
    assert np.array_equal(rep.confusion, [[1, 1], [0, 2]])


def test_perfect_predictions():
    y = [0, 1, 2, 1]
    rep = report_from_scores(y, scores_for_predictions(y, 3))
    assert rep.accuracy == rep.macro_f1 == rep.r_at_2 == 1.0


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_two_classes_r2_is_one(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=10)
    rep = report_from_scores(y, rng.standard_normal((10, 2)))
    assert rep.r_at_2 == 1.0


def test_r2_at_least_accuracy_on_random_tables():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n, d = int(rng.integers(2, 30)), int(rng.integers(2, 8))
        y = rng.integers(0, d, size=n)
        rep = report_from_scores(y, rng.standard_normal((n, d)))
        assert rep.r_at_2 >= rep.accuracy


def test_confusion_row_sums():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, size=40)
    rep = report_from_scores(y, rng.standard_normal((40, 3)))
    assert np.array_equal(rep.confusion.sum(axis=1), np.bincount(y, minlength=3))


def test_f1_zero_when_class_never_seen():
    # class 2 neither predicted nor present: F1 contribution 0
    rep = report_from_scores([0, 1], scores_for_predictions([0, 1], 3))
    assert np.isclose(rep.macro_f1, 2 / 3)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        report_from_scores([], np.zeros((0, 3)))


def test_report_text_and_kv():
    rep = report_from_scores([0, 1], scores_for_predictions([0, 1], 2))
    assert "accuracy" in rep.as_text()
    keys = [k for k, _ in rep.as_key_values()]
    assert keys[:3] == ["accuracy", "macro_f1", "r_at_2"]


# ---------------------------------------------------------------------------
# model / finetune / evaluate
# ---------------------------------------------------------------------------


def tiny_checkpoint(v=4, embed=4, seed=0):
    cfg = EncoderConfig(blocks=((6, 3, 3),), partition="distance", embedding_dim=embed)
    params = init_encoder_params(cfg, np.random.default_rng(seed))
    values = {k: p.value.copy() for k, p in params.items()}
    values["log_inv_gamma"] = np.asarray(np.log(1 / 0.07))
    return Checkpoint(
        config=cfg,
        structure=chain_structure(v),
        sample_rate=20.0,
        params=values,
        train_window=8,
    )


def series_of(value, v=4, t=8):
    data = np.full((6, t, v), float(value))
    return MotionTimeSeries(data, np.ones(v, dtype=bool), 20.0)


def test_cross_entropy_uniform_logits():
    loss = ad.softmax_cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]))
    assert np.isclose(float(loss.value), np.log(2.0))


def test_finetune_reaches_full_accuracy_on_separable_data():
    model = Model(tiny_checkpoint())
    labels = LabelSet(names=("low", "high"))
    train = [(series_of(-2.0 + 0.01 * i), "low") for i in range(8)]
    train += [(series_of(2.0 + 0.01 * i), "high") for i in range(8)]
    cfg = FinetuneConfig(epochs=200, lr=1e-2, batch_size=8, seed=0)
    model = finetune(model, train, labels, cfg)
    rep = evaluate(model, train, labels)
    assert rep.accuracy == 1.0


def test_finetune_crops_each_batch_to_its_own_shortest_recording():
    # one 5-frame recording among 20-frame ones must not shorten every batch
    model = Model(tiny_checkpoint())
    labels = LabelSet(names=("a", "b"))
    train = [(series_of(-1.0, t=20), "a"), (series_of(1.0, t=20), "b")] * 4
    train[3] = (series_of(1.0, t=5), "b")
    seen = []
    embed = model.embed_batch_tensor

    def recording_embed(batch):
        seen.append(batch.shape[2])
        return embed(batch)

    model.embed_batch_tensor = recording_embed
    with pytest.warns(UserWarning, match=r"cropped 2 of 4 batches .* training window \(8\)"):
        finetune(model, train, labels, FinetuneConfig(epochs=2, lr=1e-3, batch_size=4))
    assert sorted(seen) == [5, 5, 20, 20]
    unknown_window = Model(replace(tiny_checkpoint(), train_window=None))
    with pytest.warns(UserWarning, match=r"cropped 2 of 4 batches .* training window \(None\)"):
        finetune(unknown_window, train, labels, FinetuneConfig(epochs=2, lr=1e-3, batch_size=4))


def test_finetune_does_not_touch_temperature():
    model = Model(tiny_checkpoint())
    before = model.params["log_inv_gamma"].value.copy()
    labels = LabelSet(names=("a", "b"))
    train = [(series_of(-1.0), "a"), (series_of(1.0), "b")]
    finetune(model, train, labels, FinetuneConfig(epochs=3, lr=1e-2, batch_size=2))
    assert np.array_equal(model.params["log_inv_gamma"].value, before)


def test_finetune_sets_label_names_and_checkpoint_roundtrip():
    model = Model(tiny_checkpoint())
    labels = LabelSet(names=("a", "b"))
    train = [(series_of(-1.0), "a"), (series_of(1.0), "b")]
    model = finetune(model, train, labels, FinetuneConfig(epochs=1, lr=1e-3, batch_size=2))
    ckpt = model.to_checkpoint()
    assert ckpt.label_names == ("a", "b")
    assert ckpt.has_classifier()


def test_evaluate_zero_shot_permutation_invariant():
    model = Model(tiny_checkpoint())
    labels = LabelSet(names=("a", "b"), embeddings=np.random.default_rng(1).standard_normal((2, 4)))
    dataset = [(series_of(v), "a" if v < 0 else "b") for v in (-2.0, -1.0, 1.0, 2.0)]
    rep1 = evaluate(model, dataset, labels)
    rep2 = evaluate(model, dataset[::-1], labels)
    assert rep1.accuracy == rep2.accuracy
    assert np.array_equal(rep1.confusion, rep2.confusion)


def test_evaluate_without_label_embeddings_needs_a_classifier():
    # labels without embeddings are scored by the classifier head
    model = Model(tiny_checkpoint())
    with pytest.raises(ShapeMismatch, match="no classifier head"):
        evaluate(model, [(series_of(1.0), "a")], LabelSet(names=("a", "b")))


def test_checkpoint_with_trained_text_arrays_loads_evaluates_and_finetunes(tmp_path):
    # checkpoints once written with a trained hash text encoder carry three
    # extra arrays that nothing reads; they load and pass through unchanged
    plain = tiny_checkpoint()
    rng = np.random.default_rng(4)
    text = {"text.table": rng.standard_normal((4096, 4)), "text.weight": rng.standard_normal((4, 4)),
            "text.bias": np.zeros(4)}
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, replace(plain, params={**plain.params, **text}))
    ckpt = load_checkpoint(path)
    labels = LabelSet(names=("a", "b"), embeddings=rng.standard_normal((2, 4)))
    dataset = [(series_of(v), "a" if v < 0 else "b") for v in (-2.0, -1.0, 1.0, 2.0)]
    rep = evaluate(Model(ckpt), dataset, labels)
    assert np.array_equal(rep.confusion, evaluate(Model(plain), dataset, labels).confusion)
    cfg = FinetuneConfig(epochs=2, lr=1e-2, batch_size=2, seed=0)
    tuned = finetune(Model(ckpt), dataset, LabelSet(names=("a", "b")), cfg)
    assert evaluate(tuned, dataset, LabelSet(names=("a", "b"))).confusion.sum() == 4
    out = tuned.to_checkpoint()
    for name, arr in text.items():
        assert np.array_equal(out.params[name], arr)


def test_model_joint_count_check():
    model = Model(tiny_checkpoint(v=4))
    with pytest.raises(ShapeMismatch):
        model.embed(series_of(1.0, v=5))


def test_windows_split():
    s = series_of(1.0, t=20)
    parts = windows(s, 8)
    assert [p.num_frames for p in parts] == [8, 8]
    assert windows(s, None) == [s]
    assert windows(series_of(1.0, t=5), 8)[0].num_frames == 5


def test_model_embed_against_body22():
    # smoke: a full-size model embeds a full-size recording
    ckpt = tiny_checkpoint(v=22)
    ckpt = Checkpoint(
        config=ckpt.config,
        structure=body22(),
        sample_rate=20.0,
        params=ckpt.params,
        train_window=8,
    )
    model = Model(ckpt)
    out = model.embed(series_of(0.5, v=22))
    assert out.shape == (4,)


def test_label_set_validation():
    with pytest.raises(BadRange):
        LabelSet(names=("only",))
    with pytest.raises(BadRange):
        LabelSet(names=("a", "a"))
    with pytest.raises(DimMismatch):
        LabelSet(names=("a", "b"), embeddings=np.zeros((3, 4)))
