"""Skeleton graph structure and the built-in 22-joint body tree.

The built-in structure, the one pretraining builds, is the 22-joint body
tree (pelvis root, spine chain, two legs, two arms) that large mocap
corpora use. A checkpoint stores the tree its encoder was built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ShapeMismatch


@dataclass(frozen=True)
class SkeletonStructure:
    """Connected tree over V joints; edge list is (parent, child) pairs."""

    names: tuple[str, ...]
    parents: tuple[int, ...]  # -1 marks the root

    def __post_init__(self):
        v = len(self.names)
        if len(self.parents) != v:
            raise ShapeMismatch("names and parents must have equal length")
        roots = [i for i, p in enumerate(self.parents) if p == -1]
        if len(roots) != 1:
            raise ShapeMismatch(f"expected exactly one root, found {len(roots)}")
        for i, p in enumerate(self.parents):
            if p != -1 and not (0 <= p < v):
                raise ShapeMismatch(f"joint {i} has invalid parent {p}")
        # V-1 parent links over V nodes with one root is a tree iff acyclic
        for i in range(v):
            seen = set()
            j = i
            while j != -1:
                if j in seen:
                    raise ShapeMismatch("parent links contain a cycle")
                seen.add(j)
                j = self.parents[j]

    @property
    def num_joints(self):
        return len(self.names)

    @property
    def edges(self):
        return tuple((p, c) for c, p in enumerate(self.parents) if p != -1)

    def joint_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown joint name {name!r}") from None

    def structure_hash(self):
        """Stable content hash used to pin checkpoints to a skeleton."""
        text = ";".join(f"{n}:{p}" for n, p in zip(self.names, self.parents))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_BODY22 = [
    ("pelvis", -1),
    ("left_hip", 0),
    ("right_hip", 0),
    ("spine1", 0),
    ("left_knee", 1),
    ("right_knee", 2),
    ("spine2", 3),
    ("left_ankle", 4),
    ("right_ankle", 5),
    ("spine3", 6),
    ("left_foot", 7),
    ("right_foot", 8),
    ("neck", 9),
    ("left_collar", 9),
    ("right_collar", 9),
    ("head", 12),
    ("left_shoulder", 13),
    ("right_shoulder", 14),
    ("left_elbow", 16),
    ("right_elbow", 17),
    ("left_wrist", 18),
    ("right_wrist", 19),
]


def body22():
    """The built-in 22-joint body skeleton."""
    return SkeletonStructure(
        names=tuple(n for n, _ in _BODY22),
        parents=tuple(p for _, p in _BODY22),
    )
