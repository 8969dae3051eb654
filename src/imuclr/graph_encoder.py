"""Spatio-temporal graph encoder over the skeleton tree.

Each block applies a partitioned spatial graph convolution (self + neighbor
partitions, symmetrically normalized with a small diagonal regularizer so
isolated rows stay invertible), a temporal convolution per joint, and a
per-channel learnable affine in place of batch normalization. Features are
averaged over joints and time and projected into the shared embedding space
where they meet the text vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import BadStrategy, ShapeMismatch

ALPHA = 0.001  # diagonal regularizer; keeps empty adjacency rows well-defined

STRATEGY_PARTITIONS = {"distance": 2}


@dataclass(frozen=True)
class AdjacencySet:
    """Partitioned 0/1 adjacency stacks with their diagonal normalizers."""

    stacks: np.ndarray  # (K_s, V, V) 0/1
    lambdas: np.ndarray  # (K_s, V) diagonal entries, row sums + alpha

    def normalized(self):
        """Lambda^-1/2 A Lambda^-1/2 per partition, shape (K_s, V, V)."""
        inv_sqrt = 1.0 / np.sqrt(self.lambdas)
        return self.stacks * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]


@dataclass(frozen=True)
class EncoderConfig:
    """Channel chain, temporal kernel sizes and partitioning for the encoder."""

    blocks: tuple = ((6, 32, 9), (32, 64, 9))  # (C_in, C_out, K_t) per block
    partition: str = "distance"
    embedding_dim: int = 64

    def __post_init__(self):
        if self.partition not in STRATEGY_PARTITIONS:
            raise BadStrategy(f"unknown partition strategy {self.partition!r}")
        if not self.blocks or self.blocks[0][0] != 6:
            raise ShapeMismatch("first block must take the 6 sensor channels")
        for (_, c_out, k_t), (c_in, _, _) in zip(self.blocks, self.blocks[1:]):
            if c_out != c_in:
                raise ShapeMismatch("block channel chain is inconsistent")
        if any(k_t % 2 == 0 for _, _, k_t in self.blocks):
            raise ShapeMismatch("temporal kernel sizes must be odd")

    @property
    def num_partitions(self):
        return STRATEGY_PARTITIONS[self.partition]

    @property
    def out_channels(self):
        return self.blocks[-1][1]

    def to_dict(self):
        return {
            "blocks": [list(b) for b in self.blocks],
            "partition": self.partition,
            "embedding_dim": self.embedding_dim,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            blocks=tuple(tuple(b) for b in d["blocks"]),
            partition=d["partition"],
            embedding_dim=int(d["embedding_dim"]),
        )


def build_adjacency(structure, strategy="distance"):
    """Adjacency stacks for a skeleton tree.

    distance (K_s=2), the one strategy: partition 0 is the self-loop
    identity, partition 1 the distance-1 neighbors.
    """
    if strategy not in STRATEGY_PARTITIONS:
        raise BadStrategy(f"unknown partition strategy {strategy!r}")
    v = structure.num_joints
    neighbor = np.zeros((v, v))
    for p, c in structure.edges:
        neighbor[p, c] = 1.0
        neighbor[c, p] = 1.0
    stacks = np.stack([np.eye(v), neighbor])
    lambdas = stacks.sum(axis=2) + ALPHA
    return AdjacencySet(stacks=stacks, lambdas=lambdas)


def encoder_param_shapes(cfg):
    """{name: shape} of every encoder parameter that cfg implies, in the order they are initialized."""
    shapes = {}
    for i, (c_in, c_out, k_t) in enumerate(cfg.blocks):
        shapes[f"block{i}.spatial"] = (cfg.num_partitions, c_out, c_in)
        shapes[f"block{i}.temporal"] = (c_out, c_out, k_t)
        shapes[f"block{i}.scale"] = (c_out,)
        shapes[f"block{i}.shift"] = (c_out,)
    shapes["proj.weight"] = (cfg.out_channels, cfg.embedding_dim)
    shapes["proj.bias"] = (cfg.embedding_dim,)
    return shapes


def init_encoder_params(cfg, rng):
    """Fresh parameter dict for the encoder; deterministic for a given rng.

    Convolutions are He-initialized on their fan-in (K_s * C_in spatial,
    C_out * K_t temporal); affines start as the identity and the projection
    bias at zero, so an all-zero input encodes to the zero vector.
    """
    params = {}
    for name, shape in encoder_param_shapes(cfg).items():
        if name.endswith(".spatial"):
            value = rng.standard_normal(shape) * np.sqrt(2.0 / (shape[0] * shape[2]))
        elif name.endswith(".temporal"):
            value = rng.standard_normal(shape) * np.sqrt(2.0 / (shape[1] * shape[2]))
        elif name == "proj.weight":
            value = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            value = np.ones(shape) if name.endswith(".scale") else np.zeros(shape)
        params[name] = Parameter(name, value)
    return params


def encode_batch(x, adj, params, cfg):
    """Embed a constant (B, 6, T, V) ndarray batch; returns a (B, embedding_dim) Tensor.

    The batch is cast to the parameters' dtype, so the whole pass runs in it,
    and transposed once to the channel-major (6, B, T, V) layout of the
    encoder ops. adj is an AdjacencySet or its normalized (K_s, V, V) stack.
    """
    x = np.asarray(x, dtype=params["block0.spatial"].value.dtype)
    if x.ndim != 4:
        raise ShapeMismatch(f"expected (B, C, T, V) input, got {x.shape}")
    if x.shape[1] != cfg.blocks[0][0]:
        raise ShapeMismatch(f"expected {cfg.blocks[0][0]} channels, got {x.shape[1]}")
    h = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)))
    norm = adj.normalized() if isinstance(adj, AdjacencySet) else np.asarray(adj)
    for i in range(len(cfg.blocks)):
        h = ad.graph_conv(h, params[f"block{i}.spatial"], norm)
        h = ad.relu(h)
        h = ad.time_conv(h, params[f"block{i}.temporal"])
        h = ad.channel_affine(h, params[f"block{i}.scale"], params[f"block{i}.shift"])
        h = ad.relu(h)
    pooled = ad.pool_time_joints(h)
    return ad.linear(pooled, params["proj.weight"], params["proj.bias"])
