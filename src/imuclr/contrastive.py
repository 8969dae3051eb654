"""Contrastive pre-training of the graph encoder against text embeddings.

For every batch iteration: rotate each joint's channels by one fresh random
rotation shared across the batch, mask all but a few random joints, crop to
the shortest recording (one warning per run counts the batches that this cut
below the training window), encode, pair each sequence with one description
drawn from its originals and paraphrases together, and minimize the softmax
cross-entropy from each time-series embedding to its own raw (unnormalized)
text vector among the in-batch alternatives. The loss runs in that one
direction only. The temperature is learned through its log inverse, clamped
from above.

The encoder trains as the same inference.Model that fine-tuning uses; the
text side is a frozen TextEmbeddingTable, so zero-shot label vectors from
the same text space score against the trained encoder. Training runs in
float32: the live parameters, each batch and the text vectors are cast once,
and the returned checkpoint holds the trained values as float64 arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Parameter
from .augment import rotate_joints, sample_joint_mask, sample_joint_rotations
from .checkpoint import Checkpoint
from .errors import BadRange, DimMismatch, EmptyDataset, EmptyText, NonFinite
from .graph_encoder import init_encoder_params
from .inference import Model
from .simulate import MotionTimeSeries
from .text_embeddings import sample_description

DEFAULT_GAMMA = 0.07
INV_GAMMA_CLAMP = 100.0


@dataclass
class Temperature:
    """Learnable softmax temperature, parameterized as log(1/gamma)."""

    log_inv_gamma: Parameter

    @classmethod
    def create(cls, gamma=DEFAULT_GAMMA):
        return cls(Parameter("log_inv_gamma", np.log(1.0 / gamma)))

    def inv_gamma(self):
        """Differentiable 1/gamma, clamped to (0, INV_GAMMA_CLAMP]."""
        return ad.minimum_const(ad.exp(self.log_inv_gamma), INV_GAMMA_CLAMP)

    def inv_gamma_value(self):
        return float(self.inv_gamma().value)


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 1
    lr: float = 1e-4
    mask_min: int = 1
    mask_max: int = 5
    seed: int = 0
    rotation_augment: bool = True

    def __post_init__(self):
        if self.batch_size < 2:
            raise BadRange("batch_size must be >= 2 for a meaningful contrastive denominator")
        if self.epochs < 0 or self.lr <= 0:
            raise BadRange("epochs must be >= 0 and lr > 0")


@dataclass
class PretrainSample:
    """One pre-training item: a simulated (already noised) recording."""

    seq_id: str
    series: MotionTimeSeries


def contrastive_loss(series_emb, text_emb, temperature):
    """Softmax alignment loss from time-series rows to their paired text rows.

    loss = -(1/B) sum_i log softmax_k(<G_i, F_k>/gamma)[k=i], log-sum-exp
    stabilized. Gradients flow into series_emb, into text_emb when it is a
    tracked tensor, and into the temperature always.
    """
    g, f = ad.as_tensor(series_emb), ad.as_tensor(text_emb)
    if g.ndim != 2 or f.ndim != 2 or g.shape != f.shape:
        raise DimMismatch(f"paired embeddings must share (B, dim), got {g.shape} and {f.shape}")
    logits = ad.mul(ad.matmul(g, ad.transpose(f)), temperature.inv_gamma())
    loss = ad.softmax_cross_entropy(logits, np.arange(g.shape[0]))
    if not np.isfinite(loss.value):
        raise NonFinite(f"contrastive loss over embeddings of shape {g.shape} is not finite")
    return loss


def _batch_indices(n, batch_size, rng):
    """Shuffled batches of exactly batch_size; a short tail is dropped.

    With 2 <= n < batch_size the whole set is one batch of n, so every epoch
    makes one step with n - 1 negatives per sample. pretrain() rejects n = 1,
    whose loss would be identically 0.
    """
    order = rng.permutation(n)
    if n < batch_size:
        return [order]
    usable = (n // batch_size) * batch_size
    return np.split(order[:usable], usable // batch_size)


def _assemble_batch(chosen, cfg, rng_rot, rng_mask):
    """Rotate, mask and crop-stack one batch into a (B, 6, T, V) array.

    Byte for byte what rotate_augment, apply_mask and crop_stack give one
    sample at a time, but only the mask's live joints are cropped and
    rotated, in one call over the batch; every other joint stays zero.
    """
    v = chosen[0].series.num_joints
    rotations = None
    if cfg.rotation_augment:
        rotations = sample_joint_rotations(v, rng_rot)
    live = np.flatnonzero(sample_joint_mask(v, cfg.mask_min, cfg.mask_max, rng_mask))
    series = [s.series for s in chosen]
    t_min = min(s.num_frames for s in series)
    data = np.stack([s.data[:, :t_min, live] for s in series])
    if rotations is not None:
        data = rotate_joints(data, rotations[live])
        # as rotate_augment does: a recording's unrecorded joints are zero, but rotated they may be -0.0
        data.transpose(0, 3, 1, 2)[~np.stack([s.mask[live] for s in series])] = 0.0
    batch = np.zeros((len(series), data.shape[1], t_min, v))
    batch[..., live] = data
    return batch


def pretrain(samples, descriptions, text, structure, encoder_cfg, cfg, on_epoch=None):
    """Run the contrastive pre-training loop and return the final checkpoint.

    samples: list of PretrainSample at a common sample rate. text: the
    frozen TextEmbeddingTable of the description ids, whose dimension
    matches encoder_cfg.embedding_dim. on_epoch, when given, receives
    (epoch, mean_loss, inv_gamma) after every epoch.

    The encoder trains as an inference.Model around a fresh Checkpoint of
    the initial encoder parameters and log(1/gamma), rounded to float32; the
    returned checkpoint holds exactly those, trained, as float64 arrays whose
    values are float32 numbers. The training window is the median recording
    length; each batch is cropped to its shortest recording, and one warning
    per call counts the batches that cropping cut below that window. A
    description id that the text table lacks
    is an EmptyText error before the first step. A NonFinite error from a
    step is re-raised with its epoch and step index (both from 0).

    Randomness is split into independent per-stage streams derived from
    cfg.seed (initialization, batch order, rotations, masks, descriptions),
    so disabling one augmentation never shifts the draws of another stage.
    Single-threaded throughout; identical seeds give bit-identical results.
    """
    if not samples:
        raise EmptyDataset("pre-training needs at least one sample")
    if len(samples) == 1:
        raise BadRange("pre-training needs at least 2 samples: one alone has no negatives")
    if text.dim != encoder_cfg.embedding_dim:
        raise DimMismatch(
            f"text dimension {text.dim} != encoder embedding dimension {encoder_cfg.embedding_dim}"
        )
    rates = {s.series.sample_rate for s in samples}
    if len(rates) != 1:
        raise DimMismatch(f"samples carry mixed sample rates: {sorted(rates)}")
    vectors = {}  # the frozen text side, in the encoder's float32
    for s in samples:
        if s.series.num_joints != structure.num_joints:
            raise DimMismatch(
                f"sequence {s.seq_id!r} has {s.series.num_joints} joints, "
                f"skeleton has {structure.num_joints}"
            )
        text_ids = descriptions.candidates(s.seq_id)
        if not text_ids:
            raise EmptyDataset(f"sequence {s.seq_id!r} has no descriptions")
        for text_id in text_ids:
            if text_id not in text.entries:
                raise EmptyText(f"sequence {s.seq_id!r}: description {text_id!r} has no text embedding")
            vectors[text_id] = text.vector(text_id).astype(np.float32)

    seed_seq = np.random.SeedSequence(cfg.seed)
    rng_init, rng_batch, rng_rot, rng_mask, rng_desc = (
        np.random.default_rng(child) for child in seed_seq.spawn(5)
    )

    params = {name: p.value for name, p in init_encoder_params(encoder_cfg, rng_init).items()}
    params["log_inv_gamma"] = np.log(1.0 / DEFAULT_GAMMA)
    params = {name: np.asarray(value, dtype=np.float32) for name, value in params.items()}
    window = int(np.median([s.series.num_frames for s in samples]))
    model = Model(Checkpoint(encoder_cfg, structure, rates.pop(), params, train_window=window))
    del params  # the model's Parameters hold the one copy trained
    temperature = Temperature(model.params["log_inv_gamma"])
    optimizer = Adam(model.params.values(), lr=cfg.lr)

    short_batches = num_batches = 0
    for epoch in range(cfg.epochs):
        losses = []
        for step, batch_idx in enumerate(_batch_indices(len(samples), cfg.batch_size, rng_batch)):
            chosen = [samples[i] for i in batch_idx]
            batch = _assemble_batch(chosen, cfg, rng_rot, rng_mask)
            t = batch.shape[2]
            num_batches += 1
            if t < window and any(s.series.num_frames > t for s in chosen):
                short_batches += 1
            try:
                g = model.embed_batch_tensor(batch)
                ids = [sample_description(descriptions, s.seq_id, rng_desc) for s in chosen]
                loss = contrastive_loss(g, np.stack([vectors[i] for i in ids]), temperature)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}, step {step}: {exc}") from exc
            losses.append(float(loss.value))
        if on_epoch is not None:
            on_epoch(epoch, float(np.mean(losses)), temperature.inv_gamma_value())
    if short_batches:
        warnings.warn(
            f"pretraining cropped {short_batches} of {num_batches} batches to their shortest "
            f"recording, below the training window ({window})",
            stacklevel=2,
        )
    return model.to_checkpoint()
