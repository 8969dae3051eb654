import ctypes
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_structure, in_process, pooled, src_env
from imuclr import autodiff as ad
from imuclr import inference, workers
from imuclr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from imuclr.errors import (
    BadRange,
    DimMismatch,
    DuplicateJoint,
    EmptyDataset,
    NonFinite,
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
    with pytest.warns(UserWarning) as caught:
        finetune(model, train, labels, FinetuneConfig(epochs=2, lr=1e-3, batch_size=4))
    assert [str(w.message) for w in caught] == [
        "fine-tuning cropped 2 of 4 batches to their shortest recording, below the training window (8)"
    ]
    assert caught[0].filename == __file__  # issued in finetune's caller, whose filters apply
    assert sorted(seen) == [5, 5, 20, 20]
    unknown_window = Model(replace(tiny_checkpoint(), train_window=None))
    with pytest.warns(UserWarning, match=r"cropped 2 of 4 batches .* training window \(None\)"):
        finetune(unknown_window, train, labels, FinetuneConfig(epochs=2, lr=1e-3, batch_size=4))


def test_non_finite_step_names_its_epoch_and_step():
    # 4 recordings in batches of 2 make 2 steps an epoch, so the third batch is epoch 1, step 0
    model = Model(tiny_checkpoint())
    labels = LabelSet(names=("a", "b"))
    train = [(series_of(-1.0), "a"), (series_of(1.0), "b")] * 2
    calls = []
    embed = model.embed_batch_tensor

    def embed_failing_third(batch):
        calls.append(batch.shape)
        emb = embed(batch)
        if len(calls) == 3:  # a NaN embedding batch, so the loss's own check names the logits' shape
            emb = Tensor(np.full(emb.shape, np.nan))
        return emb

    model.embed_batch_tensor = embed_failing_third
    with pytest.raises(NonFinite, match=r"^epoch 1, step 0: softmax_cross_entropy input of shape \(2, 2\) contains"):
        finetune(model, train, labels, FinetuneConfig(epochs=2, lr=1e-3, batch_size=2))
    assert len(calls) == 3


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


def test_model_holds_each_parameter_once_and_finetune_leaves_no_gradient():
    ckpt = tiny_checkpoint()
    model = Model(ckpt)
    assert model.ckpt.params == {} and sorted(ckpt.params) == sorted(model.params)
    train = [(series_of(-1.0), "a"), (series_of(1.0), "b")]
    model = finetune(model, train, LabelSet(names=("a", "b")), FinetuneConfig(epochs=2, lr=1e-2, batch_size=2))
    assert model.ckpt.params == {} and "classifier.weight" in model.params
    assert all(p.grad is None for p in model.params.values())
    assert sorted(model.to_checkpoint().params) == sorted(model.params)


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


@pytest.mark.parametrize("shape", [(2,), (), (2, 4, 1)])
def test_label_set_refuses_embeddings_that_are_not_one_row_per_name(shape):
    # a (2,) array has one entry per name, but zero_shot_classify would then fail on its missing dim
    with pytest.raises(DimMismatch, match=r"^label embeddings are \(.*\), not \(D, dim\) with one row per name$"):
        LabelSet(names=("a", "b"), embeddings=np.ones(shape))


# ---------------------------------------------------------------------------
# evaluate in the worker pool
# ---------------------------------------------------------------------------


def random_windows(n, seed=0, v=4):
    """n random (series, label) windows of a 2-label set, labels alternating."""
    rng = np.random.default_rng(seed)
    return [(MotionTimeSeries(rng.standard_normal((6, 8, v)), np.ones(v, dtype=bool), 20.0), "ab"[i % 2])
            for i in range(n)]


def scored(model, dataset, labels, monkeypatch):
    """(score matrix, report key-values) of evaluate: the matrix as report_from_scores receives it."""
    seen = []
    real = inference.report_from_scores

    def recording(y_true, scores):
        seen.append(scores)
        return real(y_true, scores)

    with monkeypatch.context() as mp:
        mp.setattr(inference, "report_from_scores", recording)
        report = evaluate(model, dataset, labels)
    return seen[0], report.as_key_values()


def assert_same_scores(a, b):
    (x, report_x), (y, report_y) = a, b
    assert (x.shape, x.dtype) == (y.shape, y.dtype) and x.tobytes() == y.tobytes()
    assert report_x == report_y


def pool_started():
    return workers._pool is not None and len(multiprocessing.active_children()) == 2


def no_process():
    return workers._pool is None and not multiprocessing.active_children()


def finetuned(float32=False):
    """A fine-tuned Model, whose live parameters differ from its checkpoint's, in float32 on request."""
    ckpt = tiny_checkpoint()
    model = Model(ckpt)
    finetune(model, random_windows(8, seed=1), LabelSet(names=("a", "b")), FinetuneConfig(epochs=2, lr=1e-2,
                                                                                           batch_size=4))
    assert not np.array_equal(model.params["block0.spatial"].value, ckpt.params["block0.spatial"])
    if float32:
        for p in model.params.values():
            p.value = p.value.astype(np.float32)
    return model


def unpooled(monkeypatch):
    """From now on, evaluate scores in-process, on the very model it is given, as below POOL_MIN_WINDOWS."""
    monkeypatch.setattr(inference, "POOL_MIN_WINDOWS", sys.maxsize)


@pytest.fixture
def eager_pool(fresh_pool, monkeypatch):
    """fresh_pool, with evaluate scoring in the pool from its first call of two or more windows."""
    monkeypatch.setattr(inference, "POOL_MIN_WINDOWS", 2)
    monkeypatch.setattr(inference, "_windows_asked", 0)


# evaluate pools only where forked workers can pin the loaded BLAS to one thread each
needs_pinned_pool = pytest.mark.skipif(not (pooled() and workers.blas_pinnable()),
                                       reason="evaluate scores in-process on this interpreter")
ZERO_SHOT = LabelSet(names=("a", "b"), embeddings=np.random.default_rng(3).standard_normal((2, 4)))
CLASSIFIER = LabelSet(names=("a", "b"))


@needs_pinned_pool
@pytest.mark.parametrize("model, labels", [
    pytest.param(lambda: Model(tiny_checkpoint()), ZERO_SHOT, id="zero-shot"),
    pytest.param(finetuned, ZERO_SHOT, id="zero-shot-finetuned"),
    pytest.param(finetuned, CLASSIFIER, id="classifier"),
    pytest.param(lambda: finetuned(float32=True), CLASSIFIER, id="classifier-float32"),
])
def test_pooled_evaluate_equals_an_in_process_one(eager_pool, monkeypatch, model, labels):
    model, dataset = model(), random_windows(21)
    pooled = scored(model, dataset, labels, monkeypatch)
    assert pool_started()
    unpooled(monkeypatch)
    assert_same_scores(pooled, scored(model, dataset, labels, monkeypatch))


@needs_pinned_pool
def test_first_failing_window_in_window_order_raises_as_in_process(eager_pool, monkeypatch):
    # 12 windows in 8 chunks: windows 5 and 9 fall in different chunks, each failing with its own message
    dataset = random_windows(12)
    dataset[5] = random_windows(1, v=3)[0]
    dataset[9] = random_windows(1, v=5)[0]
    model = Model(tiny_checkpoint())
    with pytest.raises(ShapeMismatch) as pooled:
        evaluate(model, dataset, ZERO_SHOT)
    assert pool_started()
    unpooled(monkeypatch)
    with pytest.raises(ShapeMismatch) as serial:
        evaluate(model, dataset, ZERO_SHOT)
    assert type(pooled.value) is type(serial.value) is ShapeMismatch
    assert str(pooled.value) == str(serial.value) == "series has 3 joints, model expects 4"


def test_one_window_one_cpu_or_no_pinnable_blas_starts_no_process(eager_pool, monkeypatch):
    model = Model(tiny_checkpoint())
    one, several = random_windows(1), random_windows(6)
    evaluate(model, one, ZERO_SHOT)
    assert no_process()
    with monkeypatch.context() as mp:
        mp.setattr(workers, "blas_pinnable", lambda: False)
        evaluate(model, several, ZERO_SHOT)
    assert no_process()
    in_process(monkeypatch)
    evaluate(model, several, ZERO_SHOT)
    assert no_process()


@needs_pinned_pool
def test_evaluate_scores_in_process_until_its_calls_have_asked_for_pool_min_windows(fresh_pool, monkeypatch):
    monkeypatch.setattr(inference, "_windows_asked", 0)
    model, dataset = Model(tiny_checkpoint()), random_windows(6)
    calls = (inference.POOL_MIN_WINDOWS - 1) // 6  # asking for fewer than POOL_MIN_WINDOWS in all
    for _ in range(calls):
        evaluate(model, dataset, ZERO_SHOT)
    assert no_process()
    evaluate(model, dataset, ZERO_SHOT)  # POOL_MIN_WINDOWS or more
    assert pool_started()
    assert inference._windows_asked == 6 * (calls + 1)


@needs_pinned_pool
def test_a_killed_worker_leaves_the_call_whole_and_the_next_call_gets_a_fresh_pool(eager_pool, monkeypatch):
    parent, real = os.getpid(), inference.zero_shot_classify
    model, dataset = Model(tiny_checkpoint()), random_windows(10)
    marked = dataset[6][0]

    def killed_in_a_worker_on_window_6(series, *args):
        if os.getpid() != parent and np.array_equal(series.data, marked.data):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(series, *args)

    unpooled(monkeypatch)
    expected = scored(model, dataset, ZERO_SHOT, monkeypatch)
    monkeypatch.setattr(inference, "POOL_MIN_WINDOWS", 2)
    monkeypatch.setattr(inference, "zero_shot_classify", killed_in_a_worker_on_window_6)
    assert_same_scores(scored(model, dataset, ZERO_SHOT, monkeypatch), expected)
    assert no_process()  # the broken pool was dropped
    monkeypatch.setattr(inference, "zero_shot_classify", real)
    assert_same_scores(scored(model, dataset, ZERO_SHOT, monkeypatch), expected)
    assert pool_started()


# Chunk 0 of 8 fails at once (its window 0 has a joint too few) while the worker taking chunk 1 kills itself.
# Prints [error type, message] in-process and pooled, the exceptions of threads, and whether the next call,
# once the broken pool's workers are gone, scores as in-process in a fresh pool.
FAILING_CHUNK_THEN_A_KILLED_WORKER = """
import json, multiprocessing, os, signal, sys, threading, time
import numpy as np
from imuclr import inference, workers
from imuclr.checkpoint import load_checkpoint
from imuclr.inference import LabelSet, Model, evaluate
from imuclr.simulate import MotionTimeSeries

thread_errors = []
threading.excepthook = lambda args: thread_errors.append(repr(args.exc_value))
workers.usable_cpus = lambda: 2
parent, real, rng = os.getpid(), inference.zero_shot_classify, np.random.default_rng(0)
dataset = [(MotionTimeSeries(rng.standard_normal((6, 8, v)), np.ones(v, dtype=bool), 20.0), "ab"[i % 2])
           for i, v in enumerate([3] + [4] * 15)]


def killed_in_a_worker_on_window_2(series, *args):
    if os.getpid() != parent and np.array_equal(series.data, dataset[2][0].data):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(series, *args)


def error_of(windows):
    try:
        evaluate(model, windows, labels)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


inference.zero_shot_classify = killed_in_a_worker_on_window_2
model = Model(load_checkpoint(sys.argv[1]))
labels = LabelSet(names=("a", "b"), embeddings=rng.standard_normal((2, 4)))
inference.POOL_MIN_WINDOWS = sys.maxsize
serial, expected = error_of(dataset), evaluate(model, dataset[3:], labels).as_key_values()
inference.POOL_MIN_WINDOWS = 2
pooled, broken = error_of(dataset), workers._pool
deadline = time.monotonic() + 20
while multiprocessing.active_children() and time.monotonic() < deadline:
    time.sleep(0.01)
report = evaluate(model, dataset[3:], labels).as_key_values()
fresh = workers._pool not in (None, broken) and len(multiprocessing.active_children()) == 2
print(json.dumps(dict(serial=serial, pooled=pooled, thread_errors=thread_errors, fresh=fresh,
                      same=report == expected)))
"""


@needs_pinned_pool
def test_a_failing_pooled_call_then_a_killed_worker_leave_no_thread_error_and_the_process_exits(tmp_path):
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, tiny_checkpoint())
    done = subprocess.run([sys.executable, "-c", FAILING_CHUNK_THEN_A_KILLED_WORKER, str(path)], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["pooled"] == seen["serial"] == ["ShapeMismatch", "series has 3 joints, model expects 4"]
    assert seen["thread_errors"] == [] and "Exception in thread" not in done.stderr
    assert seen["fresh"] and seen["same"]


def blas_threads():
    """The thread count each loaded OpenBLAS reports in this process."""
    counts = []
    for get_num_threads in workers.openblas("get_num_threads"):
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        counts.append(get_num_threads())
    return counts


@needs_pinned_pool
def test_workers_pin_a_multi_threaded_blas_to_one_thread(fresh_pool):
    set_num_threads = workers.openblas("set_num_threads")[0]
    before = blas_threads()
    set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
    set_num_threads(2)  # the parent's BLAS as a multi-threaded default leaves it
    try:
        assert list(workers.run(blas_threads, [(), ()])) == [[1] * len(before)] * 2
        assert blas_threads()[0] == 2  # the parent keeps its own setting
    finally:
        set_num_threads(before[0])
