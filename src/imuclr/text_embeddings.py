"""Text-side embedding providers.

The primary mode is a frozen table of vectors produced offline by any
external text encoder and loaded from an embedding file. A small trainable
hash embedder exists so the repository works end to end with no external
assets: tokens are hashed into a fixed-size table, mean-pooled and linearly
mapped to the shared dimension.

Both give rows(ids), a (len(ids), dim) Tensor, and their trainable `params`
by name (none for the table), so pre-training treats them alike.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DimMismatch, EmptyText, PipelineError

HASH_SLOTS = 4096

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass
class TextEmbeddingTable:
    """Immutable id -> (text, vector) map with a fixed dimension."""

    dim: int
    entries: dict  # id -> (text, np.ndarray of shape (dim,))

    def __post_init__(self):
        for key, (_, vec) in self.entries.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise DimMismatch(
                    f"entry {key!r} has dimension {vec.shape}, expected ({self.dim},)"
                )
            self.entries[key] = (self.entries[key][0], vec)

    def ids(self):
        return list(self.entries)

    def vector(self, text_id):
        return self.entries[text_id][1]

    def text(self, text_id):
        return self.entries[text_id][0]

    def matrix(self, ids):
        return np.stack([self.vector(i) for i in ids])

    @property
    def params(self):
        return {}  # a frozen table trains nothing

    def rows(self, ids):
        """Constant (len(ids), dim) Tensor of the ids' vectors."""
        return Tensor(self.matrix(ids))

    def l2_normalized(self):
        out = {}
        for key, (text, vec) in self.entries.items():
            n = np.linalg.norm(vec)
            if n == 0:
                raise PipelineError(f"cannot L2-normalize zero vector for id {key!r}")
            out[key] = (text, vec / n)
        return TextEmbeddingTable(self.dim, out)

    def state_snapshot(self):
        """Bit-exact copy of all vectors, for freeze-contract checks."""
        return {k: v.copy() for k, (_, v) in self.entries.items()}


@dataclass
class DescriptionSet:
    """Per-sequence description ids: originals plus generated paraphrases."""

    originals: dict = field(default_factory=dict)  # seq_id -> list of text ids
    paraphrases: dict = field(default_factory=dict)

    def add(self, seq_id, text_id, paraphrase=False):
        bucket = self.paraphrases if paraphrase else self.originals
        bucket.setdefault(seq_id, []).append(text_id)

    def candidates(self, seq_id, include_paraphrases=True):
        ids = list(self.originals.get(seq_id, []))
        if include_paraphrases:
            ids += self.paraphrases.get(seq_id, [])
        return ids


def sample_description(descriptions, seq_id, rng, include_paraphrases=True):
    """Uniform draw over a sequence's originals (plus paraphrases if enabled)."""
    ids = descriptions.candidates(seq_id, include_paraphrases)
    if not ids:
        raise EmptyText(f"sequence {seq_id!r} has no descriptions")
    return ids[int(rng.integers(len(ids)))]


def tokenize(text):
    """Lowercase and split on non-alphanumeric runs."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def token_slot(token):
    """Stable hash of a token into the embedding table; crc32, not hash()."""
    return zlib.crc32(token.encode("utf-8")) % HASH_SLOTS


class TrainableTextEncoder:
    """Hash-embedding text encoder: token table -> mean pool -> linear map.

    `texts` maps description ids to the strings they stand for, so the
    encoder can slot in wherever a frozen TextEmbeddingTable is accepted.
    """

    def __init__(self, dim, rng, texts=None):
        self.dim = dim
        self.texts = dict(texts) if texts else {}
        scale = 1.0 / np.sqrt(dim)
        self.params = {
            "text.table": Parameter("text.table", rng.standard_normal((HASH_SLOTS, dim)) * scale),
            "text.weight": Parameter("text.weight", rng.standard_normal((dim, dim)) * scale),
            "text.bias": Parameter("text.bias", np.zeros(dim)),
        }

    @classmethod
    def from_table(cls, table, rng):
        texts = {key: text for key, (text, _) in table.entries.items()}
        return cls(table.dim, rng, texts=texts)

    def rows(self, ids):
        """Differentiable (len(ids), dim) Tensor embedding the ids' texts."""
        return ad.stack_rows([self.embed(self.texts[i]) for i in ids])

    def embed(self, text):
        """Differentiable embedding of one string; returns a (dim,) Tensor."""
        slots = [token_slot(t) for t in tokenize(text)]
        if not slots:
            raise EmptyText(f"no tokens after normalization in {text!r}")
        pooled = ad.embedding_mean(self.params["text.table"], slots)
        row = ad.reshape(pooled, (1, self.dim))
        out = ad.linear(row, self.params["text.weight"], self.params["text.bias"])
        return ad.reshape(out, (self.dim,))
