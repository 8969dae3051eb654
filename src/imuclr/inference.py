"""Zero-shot classification, fine-tuning and evaluation on real recordings.

Real devices cover only a few joints: each device's channels are placed at
its mapped joint, every other joint is zeroed, and the mask marks what is
live, which is exactly the regime the random masking during pre-training
emulates. Zero-shot predictions take the label candidate with the highest
inner product against the recording's embedding; fine-tuning attaches a
linear classifier over the embedding and trains it jointly with the encoder
while the text side stays frozen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import workers
from .autodiff import Adam, Parameter
from .errors import (
    BadRange,
    DimMismatch,
    DuplicateJoint,
    EmptyDataset,
    NonFinite,
    ShapeMismatch,
    UnknownLocation,
)
from .graph_encoder import build_adjacency, encode_batch, encoder_param_shapes
from .simulate import ACCEL, GYRO, MotionTimeSeries

CHUNKS_PER_WORKER = 4  # evaluate's chunks per usable CPU: small pickles in flight, little overhead per chunk
# Measured on one-shot `imuclr eval` runs (2 vCPUs, numpy's OpenBLAS on its default 2 threads; BENCH_28.json):
# scoring in the pool cost about 116 ms more per process (imports, forks, a slow first call) and saved about
# 0.35 ms per window. evaluate scores in-process until its calls in this process have been asked for the
# windows that repay that start.
POOL_START_MS, POOL_SAVED_MS_PER_WINDOW = 116.0, 0.35
POOL_MIN_WINDOWS = math.ceil(POOL_START_MS / POOL_SAVED_MS_PER_WINDOW)
_windows_asked = 0  # the windows all evaluate calls of this process have been asked to score


@dataclass(frozen=True)
class DeviceMapping:
    """Device location name -> joint index in the skeleton structure."""

    joint_for: dict

    def joint(self, location):
        if location not in self.joint_for:
            raise UnknownLocation(f"no joint mapped for device location {location!r}")
        return self.joint_for[location]


@dataclass
class LabelSet:
    """Ordered class names, optionally with one text embedding per class."""

    names: tuple
    embeddings: np.ndarray | None = None  # (D, dim)

    def __post_init__(self):
        if len(self.names) < 2:
            raise BadRange("a label set needs at least 2 classes")
        if len(set(self.names)) != len(self.names):
            raise BadRange("label names must be unique")
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
            if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.names):
                raise DimMismatch(f"label embeddings are {self.embeddings.shape}, not (D, dim) with one row per name")

    @property
    def num_classes(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownLocation(f"label {name!r} not in label set") from None


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    r_at_2: float
    confusion: np.ndarray  # (D, D) counts, rows = true class

    def as_text(self):
        lines = [
            f"accuracy  {self.accuracy:8.4f}",
            f"macro_f1  {self.macro_f1:8.4f}",
            f"r_at_2    {self.r_at_2:8.4f}",
        ]
        return "\n".join(lines)

    def as_key_values(self):
        d = self.confusion.shape[0]
        pairs = [
            ("accuracy", repr(self.accuracy)),
            ("macro_f1", repr(self.macro_f1)),
            ("r_at_2", repr(self.r_at_2)),
        ]
        for i in range(d):
            pairs.append((f"confusion_{i}", " ".join(str(int(c)) for c in self.confusion[i])))
        return pairs


def assign_to_joints(device_data, mapping, num_joints, sample_rate):
    """Place per-device channels into a full-skeleton tensor.

    device_data: ordered mapping of location -> (accel, gyro), each a (T, 3)
    array or None for an absent channel group (zero-filled). All joints
    without a device stay zero and masked out.
    """
    if not device_data:
        raise EmptyDataset("sample has no device channels")
    lengths = set()
    for accel, gyro in device_data.values():
        for arr in (accel, gyro):
            if arr is not None:
                arr = np.asarray(arr)
                if arr.ndim != 2 or arr.shape[1] != 3:
                    raise ShapeMismatch(f"device channels must be (T, 3), got {arr.shape}")
                lengths.add(arr.shape[0])
    if len(lengths) != 1:
        raise ShapeMismatch(f"device channel lengths disagree: {sorted(lengths)}")
    t = lengths.pop()
    data = np.zeros((6, t, num_joints))
    mask = np.zeros(num_joints, dtype=bool)
    for location, (accel, gyro) in device_data.items():
        joint = mapping.joint(location)
        if not (0 <= joint < num_joints):
            raise BadRange(f"location {location!r} maps to joint {joint} outside [0, {num_joints})")
        if mask[joint]:
            raise DuplicateJoint(f"two devices map to joint {joint}")
        mask[joint] = True
        if accel is not None:
            data[ACCEL, :, joint] = np.asarray(accel, dtype=np.float64).T
        if gyro is not None:
            data[GYRO, :, joint] = np.asarray(gyro, dtype=np.float64).T
    return MotionTimeSeries(data, mask, sample_rate)


def crop_stack(series):
    """Stack MotionTimeSeries data as (B, 6, T, V), each cut to the shortest one's T frames."""
    t_min = min(s.num_frames for s in series)
    return np.stack([s.data[:, :t_min, :] for s in series])


class Model:
    """Runtime view of a checkpoint: live parameters plus adjacency.

    `ckpt` supplies the skeleton, sample rate, training window and class
    names, and is kept without its parameter arrays, so the model holds each
    parameter once; training updates the live `params`, which
    to_checkpoint() copies back into a new Checkpoint.
    """

    def __init__(self, ckpt):
        self.ckpt = replace(ckpt, params={})
        self.config = ckpt.config
        self.adj_norm = build_adjacency(ckpt.structure, ckpt.config.partition).normalized()
        self.params = {name: Parameter(name, arr) for name, arr in ckpt.params.items()}

    def encoder_params(self):
        return {n: self.params[n] for n in encoder_param_shapes(self.config)}

    def has_classifier(self):
        return "classifier.weight" in self.params

    def embed(self, series):
        """Frozen embedding of one MotionTimeSeries; (embedding_dim,) ndarray."""
        num_joints = self.ckpt.structure.num_joints
        if series.num_joints != num_joints:
            raise ShapeMismatch(f"series has {series.num_joints} joints, model expects {num_joints}")
        out = encode_batch(series.data[None], self.adj_norm, self.encoder_params(), self.config)
        return out.value[0]

    def embed_batch_tensor(self, batch):
        """Differentiable embedding of a (B, 6, T, V) batch, used by the training loop, fit."""
        return encode_batch(batch, self.adj_norm, self.encoder_params(), self.config)

    def classifier_logits(self, series):
        if not self.has_classifier():
            raise ShapeMismatch("model has no classifier head; fine-tune first")
        emb = self.embed(series)
        return emb @ self.params["classifier.weight"].value + self.params["classifier.bias"].value

    def to_checkpoint(self):
        """A new Checkpoint of the live parameters, as float64 arrays whatever dtype they train in."""
        return replace(self.ckpt, params={name: p.value.astype(np.float64) for name, p in self.params.items()})


def zero_shot_classify(series, model, labels):
    """(predicted class index, score vector) by embedding similarity.

    Ties break toward the lowest class index. Scores are plain inner
    products between the recording embedding and each label embedding.
    """
    if labels.embeddings is None:
        raise DimMismatch("zero-shot classification needs label embeddings")
    emb = model.embed(series)
    if labels.embeddings.shape[1] != emb.shape[0]:
        raise DimMismatch(
            f"label embeddings have dim {labels.embeddings.shape[1]}, model emits {emb.shape[0]}"
        )
    scores = labels.embeddings @ emb
    return int(np.argmax(scores)), scores


@dataclass
class FinetuneConfig:
    epochs: int = 50
    lr: float = 1e-4
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.lr <= 0 or self.batch_size < 1:
            raise BadRange("invalid fine-tuning configuration")


def fit(model, optimizer, epochs, epoch_batches, loss_of, what, on_epoch=None):
    """The one training loop, of pretrain and finetune: optimizer steps on loss_of(embedding, target).

    epoch_batches() yields an epoch's (batch, frames, target): a (B, 6, T, V)
    batch cut to its shortest recording and the recordings' frame counts.
    on_epoch(epoch, mean_loss), if given, follows each epoch. A step's
    NonFinite error is re-raised with its epoch and step (from 0). One
    warning in the caller of pretrain or finetune, led by `what`, counts the
    batches cut below the training window (every cut batch when it is None).
    """
    window = model.ckpt.train_window
    short_batches = num_batches = 0
    for epoch in range(epochs):
        losses = []
        for step, (batch, frames, target) in enumerate(epoch_batches()):
            t = batch.shape[2]
            num_batches += 1
            short_batches += max(frames) > t and (window is None or t < window)
            try:
                loss = loss_of(model.embed_batch_tensor(batch), target)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}, step {step}: {exc}") from exc
            losses.append(float(loss.value))
        if on_epoch is not None:
            on_epoch(epoch, float(np.mean(losses)))
    optimizer.zero_grad()
    if short_batches:
        warnings.warn(
            f"{what} cropped {short_batches} of {num_batches} batches to their shortest "
            f"recording, below the training window ({window})",
            stacklevel=3,
        )


def finetune(model, train_set, labels, cfg):
    """Train encoder + linear head with cross-entropy (see fit); returns model, left without gradients.

    train_set: list of (MotionTimeSeries, label_name). Text embeddings are
    never touched. The classifier is created fresh unless the model already
    carries one. Each batch is cropped to its own shortest recording.
    """
    if not train_set:
        raise EmptyDataset("fine-tuning needs at least one labeled sample")
    rng = np.random.default_rng(cfg.seed)
    d, e = labels.num_classes, model.config.embedding_dim
    if not model.has_classifier():
        model.params["classifier.weight"] = Parameter(
            "classifier.weight", rng.standard_normal((e, d)) / np.sqrt(e)
        )
        model.params["classifier.bias"] = Parameter("classifier.bias", np.zeros(d))
    elif model.params["classifier.weight"].shape != (e, d):
        raise DimMismatch("existing classifier does not match this label set")
    w, b = model.params["classifier.weight"], model.params["classifier.bias"]
    model.ckpt = replace(model.ckpt, label_names=tuple(labels.names))
    optimizer = Adam(list(model.encoder_params().values()) + [w, b], lr=cfg.lr)
    y = np.array([labels.index(name) for _, name in train_set], dtype=np.intp)

    def epoch_batches():
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            chosen = [train_set[i][0] for i in idx]
            yield crop_stack(chosen), [s.num_frames for s in chosen], y[idx]

    def loss_of(emb, target):
        return ad.softmax_cross_entropy(ad.linear(emb, w, b), target)

    fit(model, optimizer, cfg.epochs, epoch_batches, loss_of, "fine-tuning")
    return model


def windows(series, window):
    """Non-overlapping windows of `window` frames, cut from the first frame.

    A recording of T > window frames gives T // window windows and leaves
    out its last T % window frames; load_eval_dataset warns about them. A
    recording of at most `window` frames, or any recording when window is
    None, passes whole.
    """
    t = series.num_frames
    if window is None or t <= window:
        return [series]
    out = []
    for start in range(0, t - window + 1, window):
        out.append(
            MotionTimeSeries(
                series.data[:, start : start + window, :].copy(), series.mask.copy(), series.sample_rate
            )
        )
    return out


def report_from_scores(y_true, scores):
    """EvalReport from a (N, D) score matrix; prediction is the row argmax."""
    y_true = np.asarray(y_true, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or y_true.shape != (scores.shape[0],):
        raise ShapeMismatch("scores must be (N, D) with one true label per row")
    if scores.shape[0] == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    d = scores.shape[1]
    pred = np.argmax(scores, axis=1)
    # stable sort keeps the lowest class index first among ties
    top2 = np.argsort(-scores, axis=1, kind="stable")[:, :2]
    confusion = np.zeros((d, d), dtype=np.int64)
    np.add.at(confusion, (y_true, pred), 1)
    accuracy = float(np.trace(confusion) / len(y_true))
    f1s = []
    for c in range(d):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    r2 = float(np.mean(np.any(top2 == y_true[:, None], axis=1)))
    return EvalReport(accuracy, float(np.mean(f1s)), r2, confusion)


def _score(model, labels, pairs):
    """The (len(pairs), D) score rows of evaluate, one per (series, label_name) pair, in order."""
    if labels.embeddings is None:
        return np.stack([model.classifier_logits(series) for series, _ in pairs])
    return np.stack([zero_shot_classify(series, model, labels)[1] for series, _ in pairs])


def evaluate(model, dataset, labels):
    """Score every (series, label_name) pair and compute the eval metrics.

    Labels with embeddings are scored zero-shot, by embedding similarity;
    labels without them by the classifier head that fine-tuning attaches.
    Once the evaluate calls of this process have been asked for
    POOL_MIN_WINDOWS windows in all, this one's included, the windows are
    cut into CHUNKS_PER_WORKER contiguous chunks per usable CPU, each
    scored in the worker pool of imuclr.workers with the model's live
    parameters, and the rows are stacked in window order, so the scores and
    the report are byte-identical to an in-process run. The first chunk
    that fails raises its error after the chunks before it; in the pool the
    chunks after it still run, and nothing is cancelled, while in-process
    they never start. Before that, and when the pool does not start (see
    workers) or no BLAS can be pinned to one thread per worker
    (workers.blas_pinnable), the windows are scored in-process.
    """
    global _windows_asked
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    y_true = np.array([labels.index(name) for _, name in dataset], dtype=np.intp)
    n = len(dataset)
    _windows_asked += n
    if _windows_asked < POOL_MIN_WINDOWS or not workers.blas_pinnable():
        return report_from_scores(y_true, _score(model, labels, dataset))
    k = min(n, CHUNKS_PER_WORKER * workers.usable_cpus())
    calls = [(model, labels, dataset[n * i // k : n * (i + 1) // k]) for i in range(k)]
    return report_from_scores(y_true, np.concatenate(list(workers.run(_score, calls))))
