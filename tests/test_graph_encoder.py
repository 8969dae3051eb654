import tracemalloc

import numpy as np
import pytest

from conftest import chain_structure, contract
from imuclr import autodiff as ad
from imuclr.autodiff import Parameter, Tensor, grad_check
from imuclr.errors import BadStrategy, ShapeMismatch
from imuclr.graph_encoder import ALPHA, EncoderConfig, build_adjacency, encode_batch, init_encoder_params
from imuclr.simulate import MotionTimeSeries
from imuclr.skeleton import SkeletonStructure, body22


def test_two_joint_chain_uniform():
    adj = build_adjacency(chain_structure(2), "uniform")
    assert np.array_equal(adj.stacks[0], [[1, 1], [1, 1]])
    assert np.allclose(adj.lambdas[0], [2.001, 2.001])


def test_three_joint_chain_distance():
    adj = build_adjacency(chain_structure(3), "distance")
    assert np.array_equal(adj.stacks[0], np.eye(3))
    expected = np.zeros((3, 3))
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        expected[i, j] = 1
    assert np.array_equal(adj.stacks[1], expected)
    assert np.allclose(adj.lambdas[1], [1.001, 2.001, 1.001])


def test_single_node_distance_alpha_row():
    # a one-joint tree has an empty neighbor partition; alpha keeps it defined
    adj = build_adjacency(chain_structure(1), "distance")
    assert np.array_equal(adj.stacks[1], [[0.0]])
    assert np.allclose(adj.lambdas[1], [ALPHA])
    assert np.all(np.isfinite(adj.normalized()))


def test_bad_strategy():
    with pytest.raises(BadStrategy):
        build_adjacency(chain_structure(3), "spiral")


def test_spatial_conv_single_node_uniform():
    adj = build_adjacency(chain_structure(1), "uniform")
    x = Tensor(np.full((1, 1, 1, 1), 5.0))
    phi = Tensor(np.ones((1, 1, 1)))
    out = ad.graph_conv(x, phi, adj.normalized())
    assert np.allclose(out.value, 5.0 / 1.001)


def test_spatial_conv_zero_weights():
    adj = build_adjacency(chain_structure(3), "distance")
    x = Tensor(np.random.default_rng(0).standard_normal((4, 2, 5, 3)))
    out = ad.graph_conv(x, Tensor(np.zeros((2, 3, 4))), adj.normalized())
    assert np.all(out.value == 0.0)


def test_spatial_conv_gradient():
    rng = np.random.default_rng(1)
    adj = build_adjacency(chain_structure(3), "distance")
    x = Parameter("x", rng.standard_normal((2, 1, 4, 3)))
    phi = Parameter("phi", rng.standard_normal((2, 5, 2)))
    assert grad_check(lambda: contract(ad.graph_conv(x, phi, adj.normalized())), [x, phi]) < 1e-6


def test_temporal_conv_k1_identity():
    x = Tensor(np.random.default_rng(2).standard_normal((3, 2, 5, 4)))
    out = ad.time_conv(x, Tensor(np.eye(3)[:, :, None]))
    assert np.array_equal(out.value, x.value)


def test_temporal_conv_averaging_boundary():
    c = 1.7
    x = Tensor(np.full((1, 1, 6, 2), c))
    out = ad.time_conv(x, Tensor(np.full((1, 1, 3), 1.0 / 3.0)))
    assert np.allclose(out.value[0, 0, 1:-1, :], c)
    assert np.allclose(out.value[0, 0, 0, :], 2 * c / 3)
    assert np.allclose(out.value[0, 0, -1, :], 2 * c / 3)


def test_temporal_conv_gradient():
    rng = np.random.default_rng(3)
    x = Parameter("x", rng.standard_normal((3, 2, 6, 4)))
    w = Parameter("w", rng.standard_normal((5, 3, 3)))
    assert grad_check(lambda: contract(ad.time_conv(x, w)), [x, w]) < 1e-6


def test_global_pool_constant():
    out = ad.pool_time_joints(Tensor(np.full((3, 2, 4, 5), 2.5)))
    assert out.shape == (2, 3) and np.allclose(out.value, 2.5)


def test_global_pool_arithmetic_mean():
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 2, 2))
    assert np.allclose(ad.pool_time_joints(x).value, 4.0)


def small_cfg(embed=5):
    return EncoderConfig(blocks=((6, 4, 3), (4, 4, 3)), partition="distance", embedding_dim=embed)


def test_encode_zero_input_zero_vector():
    cfg = small_cfg()
    structure = body22()
    adj = build_adjacency(structure, cfg.partition)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    series = MotionTimeSeries(np.zeros((6, 10, 22)), np.ones(22, dtype=bool), 20.0)
    out = encode_batch(series.data[None], adj, params, cfg).value[0]
    assert np.array_equal(out, np.zeros(cfg.embedding_dim))


def test_encode_output_dimension():
    for embed in (3, 8):
        cfg = small_cfg(embed)
        structure = body22()
        adj = build_adjacency(structure, cfg.partition)
        params = init_encoder_params(cfg, np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((3, 6, 7, 22))
        assert encode_batch(x, adj, params, cfg).value.shape == (3, embed)


def test_encode_ignores_values_at_masked_joints():
    # altering pre-mask values at masked joints cannot change the embedding
    cfg = small_cfg()
    structure = body22()
    adj = build_adjacency(structure, cfg.partition)
    params = init_encoder_params(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    data = rng.standard_normal((6, 9, 22))
    mask = np.zeros(22, dtype=bool)
    mask[[2, 10, 20]] = True
    data[:, :, ~mask] = 0.0
    base = MotionTimeSeries(data.copy(), mask, 20.0)
    tampered = data.copy()
    tampered[:, :, ~mask] = rng.standard_normal((6, 9, 19)) * 50
    tampered[:, :, ~mask] = 0.0  # the mask stage zeroes them again
    out_a = encode_batch(base.data[None], adj, params, cfg).value
    out_b = encode_batch(MotionTimeSeries(tampered, mask, 20.0).data[None], adj, params, cfg).value
    assert np.array_equal(out_a, out_b)


def test_permutation_covariance():
    # permuting joints together with the structure leaves the embedding unchanged
    cfg = small_cfg()
    v = 6
    structure = chain_structure(v)
    rng = np.random.default_rng(5)
    perm = rng.permutation(v)
    inv = np.argsort(perm)
    names = tuple(f"j{i}" for i in range(v))
    new_parents = [0] * v
    for child in range(v):
        p = structure.parents[child]
        new_parents[perm[child]] = -1 if p == -1 else int(perm[p])
    permuted = SkeletonStructure(names=names, parents=tuple(new_parents))

    params = init_encoder_params(cfg, np.random.default_rng(6))
    x = rng.standard_normal((2, 6, 8, v))
    out_a = encode_batch(x, build_adjacency(structure, cfg.partition), params, cfg).value
    out_b = encode_batch(
        x[:, :, :, inv], build_adjacency(permuted, cfg.partition), params, cfg
    ).value
    assert np.abs(out_a - out_b).max() < 1e-9


def test_doubling_one_partition_doubles_output():
    rng = np.random.default_rng(7)
    adj = build_adjacency(chain_structure(4), "distance")
    x = Tensor(rng.standard_normal((3, 1, 5, 4)))
    phi = np.zeros((2, 2, 3))
    phi[0] = rng.standard_normal((2, 3))
    out1 = ad.graph_conv(x, Tensor(phi), adj.normalized()).value
    out2 = ad.graph_conv(x, Tensor(2 * phi), adj.normalized()).value
    assert np.array_equal(out2, 2 * out1)


def test_full_pipeline_gradient():
    cfg = small_cfg()
    structure = body22()
    adj = build_adjacency(structure, cfg.partition).normalized()
    params = init_encoder_params(cfg, np.random.default_rng(1))
    x = np.random.default_rng(21).standard_normal((1, 6, 16, 22))
    plist = list(params.values())
    err = grad_check(lambda: contract(encode_batch(x, adj, params, cfg)), plist)
    assert err < 1e-4


def test_encoder_config_validation():
    with pytest.raises(ShapeMismatch):
        EncoderConfig(blocks=((5, 4, 3),))  # first block must take 6 channels
    with pytest.raises(ShapeMismatch):
        EncoderConfig(blocks=((6, 4, 3), (5, 4, 3)))  # broken chain
    with pytest.raises(ShapeMismatch):
        EncoderConfig(blocks=((6, 4, 4),))  # even kernel
    with pytest.raises(BadStrategy):
        EncoderConfig(blocks=((6, 4, 3),), partition="none")


def test_encode_batch_channel_check():
    cfg = small_cfg()
    adj = build_adjacency(body22(), cfg.partition)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        encode_batch(np.zeros((1, 5, 4, 22)), adj, params, cfg)


def test_backward_frees_the_tape():
    # the toy encoder at its training shapes (B=16, T=40, V=22, widths 16/32,
    # K_t=9): once backward has run, the held loss keeps no activation or
    # interior gradient alive; the graph and its gradients are over 50 MB
    cfg = EncoderConfig(blocks=((6, 16, 9), (16, 32, 9)), partition="distance", embedding_dim=64)
    rng = np.random.default_rng(14)
    params = init_encoder_params(cfg, rng)
    adj = build_adjacency(body22(), cfg.partition).normalized()
    x = rng.standard_normal((16, 6, 40, 22))
    tracemalloc.start()
    try:
        loss = contract(encode_batch(x, adj, params, cfg))
        loss.backward()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.grad is not None and all(p.grad is not None for p in params.values())
    assert held < 5e6
