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

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Parameter
from .errors import (
    BadRange,
    DimMismatch,
    DuplicateJoint,
    EmptyDataset,
    ShapeMismatch,
    UnknownLocation,
)
from .graph_encoder import build_adjacency, encode_batch, encoder_param_names
from .simulate import ACCEL, GYRO, MotionTimeSeries


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
            if self.embeddings.shape[0] != len(self.names):
                raise DimMismatch("one embedding row per label name required")

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
    names; training updates the live `params`, which to_checkpoint() copies
    back into a new Checkpoint.
    """

    def __init__(self, ckpt):
        self.ckpt = ckpt
        self.config = ckpt.config
        self.adj_norm = build_adjacency(ckpt.structure, ckpt.config.partition).normalized()
        self.params = {name: Parameter(name, arr) for name, arr in ckpt.params.items()}

    def encoder_params(self):
        return {n: self.params[n] for n in encoder_param_names(self.config)}

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
        """Differentiable embedding of a (B, 6, T, V) batch, used by both training loops."""
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


def finetune(model, train_set, labels, cfg):
    """Train encoder + linear head with cross-entropy; returns a new Model.

    train_set: list of (MotionTimeSeries, label_name). Text embeddings are
    never touched. The classifier is created fresh unless the model already
    carries one. Each batch is cropped to its own shortest recording; one
    warning per call counts the batches that cropping cut below the
    checkpoint's training window (every cropped batch when it has none).
    """
    if not train_set:
        raise EmptyDataset("fine-tuning needs at least one labeled sample")
    rng = np.random.default_rng(cfg.seed)
    d = labels.num_classes
    e = model.config.embedding_dim
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
    window = model.ckpt.train_window
    short_batches = num_batches = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            chosen = [train_set[i][0] for i in idx]
            batch = crop_stack(chosen)
            t = batch.shape[2]
            num_batches += 1
            if any(s.num_frames > t for s in chosen) and (window is None or t < window):
                short_batches += 1
            emb = model.embed_batch_tensor(batch)
            logits = ad.linear(emb, w, b)
            loss = ad.softmax_cross_entropy(logits, y[idx])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    if short_batches:
        warnings.warn(
            f"fine-tuning cropped {short_batches} of {num_batches} batches to their shortest "
            f"recording, below the checkpoint's training window ({window})",
            stacklevel=2,
        )
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


def evaluate(model, dataset, labels):
    """Score every (series, label_name) pair and compute the eval metrics.

    Labels with embeddings are scored zero-shot, by embedding similarity;
    labels without them by the classifier head that fine-tuning attaches.
    """
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    y_true = np.array([labels.index(name) for _, name in dataset], dtype=np.intp)
    if labels.embeddings is None:
        rows = [model.classifier_logits(series) for series, _ in dataset]
    else:
        rows = [zero_shot_classify(series, model, labels)[1] for series, _ in dataset]
    return report_from_scores(y_true, np.stack(rows))
