"""The text side: a frozen table of description embeddings.

The vectors are produced offline by any external text encoder and loaded
from an embedding file; pre-training aligns the motion encoder to them as
they are (no normalization) and never changes them. Each training pair
draws its text uniformly from the sequence's original descriptions and
their generated paraphrases together. Zero-shot evaluation scores against
label vectors from the same text space, read from their own embedding file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, EmptyText


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


def sample_description(descriptions, seq_id, rng):
    """Uniform draw over a sequence's originals and paraphrases together."""
    ids = descriptions.candidates(seq_id)
    if not ids:
        raise EmptyText(f"sequence {seq_id!r} has no descriptions")
    return ids[int(rng.integers(len(ids)))]
