import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contract, cotangent
from imuclr import autodiff as ad
from imuclr.autodiff import Adam, Parameter, Tensor, grad_check
from imuclr.contrastive import TrainConfig, pretrain
from imuclr.errors import NonFinite, PipelineError, ShapeMismatch
from imuclr.graph_encoder import EncoderConfig, build_adjacency
from imuclr.inference import Model
from imuclr.skeleton import body22
from imuclr.toy import make_toy_pretrain_data, toy_text_assets


def test_matmul_identity():
    a = np.random.default_rng(0).standard_normal((4, 4))
    out = ad.matmul(Tensor(np.eye(4)), Tensor(a))
    assert np.allclose(out.value, a)


def test_log_softmax_symmetry():
    # permuting the classes together with the targets leaves the loss unchanged
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5))
    targets = np.array([1, 4, 4, 0])
    perm = rng.permutation(5)
    inverse = np.argsort(perm)
    a = ad.softmax_cross_entropy(Tensor(x), targets).value
    b = ad.softmax_cross_entropy(Tensor(x[:, perm]), inverse[targets]).value
    assert abs(a - b) < 1e-12


@given(st.integers(0, 2**31), st.integers(1, 5), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_log_softmax_rows_normalize(seed, n, d):
    # one row at a time the loss is -log softmax(x_i)[k]: the k terms sum to 1
    x = np.random.default_rng(seed).standard_normal((n, d)) * 10
    for row in x:
        probs = [np.exp(-float(ad.softmax_cross_entropy(Tensor(row[None]), [k]).value)) for k in range(d)]
        assert abs(sum(probs) - 1.0) < 1e-9


def test_relu_backward_gating():
    x = Parameter("x", np.array([-1.0, 1.0]))
    out = contract(ad.relu(x))
    out.backward()
    assert np.array_equal(x.grad, [0.0, cotangent(2)[1]])


def test_relu_subgradient_zero_at_kink():
    x = Parameter("x", np.array([0.0]))
    contract(ad.relu(x)).backward()
    assert x.grad[0] == 0.0


@pytest.mark.parametrize("view", [np.s_[:], np.s_[::3], np.s_[1:8]])
def test_relu_matches_where_reference_bytes(view):
    # np.maximum in place of np.where(a > 0, a, 0.0): the same bytes for every
    # finite input, -0.0 (which comes out as +0.0), zeros and subnormals included
    rng = np.random.default_rng(13)
    a = rng.standard_normal(100_000) * 10.0 ** rng.integers(-310, 300, 100_000)
    a[::7], a[1::11], a[2::13] = -0.0, 0.0, 5e-324
    x = Parameter("x", a.reshape(100, 1000)[:, view])
    out = ad.relu(x)
    contract(out).backward()
    assert out.value.tobytes() == np.where(x.value > 0, x.value, 0.0).tobytes()
    assert x.grad.tobytes() == (out.grad * (x.value > 0)).tobytes()


def test_relu_passes_nan_on():
    x = Parameter("x", np.array([np.nan, -1.0, 2.0]))
    out = ad.relu(x)
    assert np.isnan(out.value[0]) and np.array_equal(out.value[1:], [0.0, 2.0])
    contract(out).backward()
    assert np.array_equal(x.grad, [0.0, 0.0, cotangent(3)[2]])


def test_quadratic_gradient_analytic():
    theta = Parameter("theta", np.random.default_rng(1).standard_normal(5))
    err = grad_check(lambda: contract(ad.mul(theta, theta)), [theta])
    assert err < 1e-8
    theta.zero_grad()
    contract(ad.mul(theta, theta)).backward()
    assert np.allclose(theta.grad, 2 * theta.value * cotangent(5), atol=1e-12)


def test_constant_function_zero_gradient():
    theta = Parameter("theta", np.ones(3))
    err = grad_check(lambda: Tensor(np.asarray(1.5)), [theta])
    assert err < 1e-10


@pytest.mark.parametrize(
    "name,builder",
    [
        ("add_broadcast", lambda p, q, x: contract(ad.add(ad.matmul(Tensor(x), p), q))),
        ("mul_broadcast", lambda p, q, x: contract(ad.mul(ad.matmul(Tensor(x), p), q))),
        ("transpose", lambda p, q, x: contract(ad.matmul(ad.transpose(p), Tensor(x.T)))),
        ("exp", lambda p, q, x: contract(ad.exp(ad.mul(p, ad.as_tensor(0.3))))),
        ("minimum_const", lambda p, q, x: contract(ad.minimum_const(p, 0.5))),
        ("relu_shifted", lambda p, q, x: contract(ad.relu(ad.add(p, ad.as_tensor(3.0))))),
        ("softmax_cross_entropy",
         lambda p, q, x: ad.softmax_cross_entropy(ad.add(ad.matmul(Tensor(x), p), q), [2, 0, 3, 1, 2])),
        ("softmax_cross_entropy_transposed",
         lambda p, q, x: ad.softmax_cross_entropy(ad.transpose(ad.matmul(Tensor(x), p)), [4, 0, 2, 1])),
    ],
)
def test_primitive_gradients(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    p = Parameter("p", rng.standard_normal((3, 4)))
    q = Parameter("q", rng.standard_normal(4))
    x = rng.standard_normal((5, 3))
    assert grad_check(lambda: builder(p, q, x), [p, q]) < 1e-6


def test_softmax_cross_entropy_repeated_targets_gradient():
    rng = np.random.default_rng(3)
    p = Parameter("p", rng.standard_normal((4, 3)))
    idx = np.array([0, 2, 1, 2])
    assert grad_check(lambda: ad.softmax_cross_entropy(p, idx), [p]) < 1e-6


def test_channel_affine_gradient():
    rng = np.random.default_rng(6)
    x = Parameter("x", rng.standard_normal((3, 2, 4, 5)))
    s = Parameter("s", rng.standard_normal(3))
    h = Parameter("h", rng.standard_normal(3))
    assert grad_check(lambda: contract(ad.channel_affine(x, s, h)), [x, s, h]) < 1e-6


def test_pool_gradient():
    rng = np.random.default_rng(7)
    x = Parameter("x", rng.standard_normal((3, 2, 5, 4)))
    assert ad.pool_time_joints(x).shape == (2, 3)
    assert grad_check(lambda: contract(ad.pool_time_joints(x)), [x]) < 1e-6


def test_graph_and_time_conv_gradients():
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.standard_normal((3, 2, 6, 4)))
    wg = Parameter("wg", rng.standard_normal((2, 5, 3)))
    adj = np.abs(rng.standard_normal((2, 4, 4)))
    assert grad_check(lambda: contract(ad.graph_conv(x, wg, adj)), [x, wg]) < 1e-6
    wt = Parameter("wt", rng.standard_normal((5, 3, 3)))
    assert grad_check(lambda: contract(ad.time_conv(x, wt)), [x, wt]) < 1e-6


def _batch_conv_cols(values, k):
    """Reference im2col of a whole (C,B,T,V) batch: (C*K, B*T*V)."""
    c, b, t, v = values.shape
    pad = (k - 1) // 2
    xp = np.zeros((c, b, t + k - 1, v))
    xp[:, :, pad : pad + t, :] = values
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # (C,B,T,V,K)
    return np.ascontiguousarray(win.transpose(0, 4, 1, 2, 3)).reshape(c * k, b * t * v)


def _batch_conv_same(values, kernel):
    """Reference same-length temporal convolution as one whole-batch GEMM."""
    _, b, t, v = values.shape
    o, c, k = kernel.shape
    cols = _batch_conv_cols(values, k)
    return (kernel.reshape(o, c * k) @ cols).reshape(o, b, t, v), cols


def _check_time_conv(x, w, exact, pooled=False):
    """time_conv's output and gradients against the whole-batch reference.

    exact asks for the output and the input gradient byte for byte. The
    kernel gradient may sum its B*T*V terms in another order, so it is held
    to rtol 1e-12, with an atol for entries that cancel to near zero. pooled
    backpropagates through pool_time_joints, whose gradient reaches
    time_conv as a read-only broadcast view. An input that requires no
    gradient must get none.
    """
    out = ad.time_conv(x, w)
    contract(ad.pool_time_joints(out) if pooled else out).backward()
    g = out.grad
    o = w.shape[0]
    ref, cols = _batch_conv_same(x.value, w.value)
    assert out.shape == ref.shape
    if exact:
        assert out.value.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(out.value, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    if w.requires_grad:
        dw = (g.reshape(o, -1) @ cols.T).reshape(w.shape)
        terms = np.abs(g).reshape(o, -1) @ np.abs(cols).T
        np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12 * terms.max())
    else:
        assert w.grad is None
    if x.requires_grad:
        dx = _batch_conv_same(g, w.value[:, :, ::-1].transpose(1, 0, 2))[0]
        assert x.grad.shape == dx.shape
        if exact:
            assert x.grad.tobytes() == dx.tobytes()
        else:
            np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12 * np.abs(dx).max())
    else:
        assert x.grad is None


@given(
    seed=st.integers(0, 2**31),
    b=st.integers(1, 5),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    t=st.integers(1, 12),
    v=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5, 9]),
)
@settings(max_examples=200, deadline=None)
def test_time_conv_matches_whole_batch_reference(seed, b, c, o, t, v, k):
    # K may exceed T: every window then reaches into the zero padding. At
    # these sizes BLAS picks its kernel (gemv for O or T*V of 1, a small-matrix
    # kernel) by the product's shape, and one GEMM per sample may round the
    # last bit of a sum differently from one GEMM over the batch
    rng = np.random.default_rng(seed)
    x = Parameter("x", rng.standard_normal((c, b, t, v)))
    w = Parameter("w", rng.standard_normal((o, c, k)))
    _check_time_conv(x, w, exact=False)


@pytest.mark.parametrize("width", [16, 32])
def test_time_conv_encoder_shapes_match_reference_bytes(width):
    # the toy encoder's blocks (B=16, T=40, V=22, K=9): forward and input
    # gradient equal the whole-batch reference byte for byte
    rng = np.random.default_rng(width)
    x = Parameter("x", rng.standard_normal((width, 16, 40, 22)))
    w = Parameter("w", rng.standard_normal((width, width, 9)))
    _check_time_conv(x, w, exact=True)


@pytest.mark.parametrize("case", ["broadcast_gradient", "x_constant", "w_constant", "t_below_k"])
def test_time_conv_backward_cases_match_reference(case):
    # backward builds its one im2col per sample from the upstream gradient,
    # which pool_time_joints hands on as a read-only view; it must also give
    # dW alone, dx alone, and handle windows reaching past both ends (T < K)
    rng = np.random.default_rng(14)
    t, k = (3, 9) if case == "t_below_k" else (10, 5)
    x_val, w_val = rng.standard_normal((4, 3, t, 5)), rng.standard_normal((6, 4, k))
    x = Tensor(x_val) if case == "x_constant" else Parameter("x", x_val)
    w = Tensor(w_val) if case == "w_constant" else Parameter("w", w_val)
    _check_time_conv(x, w, exact=False, pooled=case == "broadcast_gradient")


def test_time_conv_holds_no_whole_batch_im2col():
    # tracemalloc sees numpy's buffers; one whole-batch im2col matrix would
    # be (C*K, B*T*V) float64, 8.1 MB here
    c, b, t, v, k = 8, 16, 40, 22, 9
    rng = np.random.default_rng(12)
    x = Parameter("x", rng.standard_normal((c, b, t, v)))
    w = Parameter("w", rng.standard_normal((c, c, k)))
    tracemalloc.start()
    try:
        contract(ad.pool_time_joints(ad.time_conv(x, w))).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < c * k * b * t * v * 8


def test_graph_conv_keeps_no_products_on_the_tape():
    # the K_s products x @ A_k are each the input's size; rebuilt in backward,
    # the forward holds little beyond its (O, B, T, V) output, 3.6 MB here
    c, o, b, t, v = 16, 32, 16, 40, 22
    rng = np.random.default_rng(13)
    x = Parameter("x", rng.standard_normal((c, b, t, v)))
    w = Parameter("w", rng.standard_normal((2, o, c)))
    adj = build_adjacency(body22(), "distance").normalized()
    tracemalloc.start()
    try:
        out = ad.graph_conv(x, w, adj)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * out.value.nbytes
    contract(out).backward()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_graph_is_backpropagated_only_once():
    # loss = 2 (3p): a second backward through the same nodes would add to
    # their stale interior gradients (p.grad 18, not 6 + 6), so it raises
    p = Parameter("p", np.array([1.0]))
    q = ad.mul(p, ad.as_tensor(3.0))
    loss = ad.mul(q, ad.as_tensor(2.0))
    loss.backward()
    assert np.array_equal(p.grad, [6.0])
    with pytest.raises(PipelineError):
        loss.backward()
    with pytest.raises(PipelineError):  # a new graph on a consumed intermediate
        ad.mul(q, ad.as_tensor(4.0)).backward()
    assert np.array_equal(p.grad, [6.0])
    ad.mul(ad.mul(p, ad.as_tensor(3.0)), ad.as_tensor(2.0)).backward()
    assert np.array_equal(p.grad, [12.0])
    assert np.array_equal(loss.grad, [1.0]) and np.array_equal(q.grad, [2.0])


def test_no_input_mutation():
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal((3, 3)))
    a0, b0 = a.value.copy(), b.value.copy()
    out = ad.relu(ad.add(ad.matmul(a, b), b))
    contract(out).backward()
    assert np.array_equal(a.value, a0) and np.array_equal(b.value, b0)


def test_gradient_accumulates_across_uses():
    p = Parameter("p", np.array([2.0]))
    # f = w (p*p + 3p) -> df/dp = w (2p + 3) = 7w
    loss = contract(ad.add(ad.mul(p, p), ad.mul(p, ad.as_tensor(3.0))))
    loss.backward()
    assert np.allclose(p.grad, 7.0 * cotangent(1))


def test_gradient_accumulates_across_backward_calls():
    p = Parameter("p", np.array([1.0, 2.0]))
    contract(p).backward()
    contract(p).backward()
    assert np.allclose(p.grad, 2.0 * cotangent(2))
    p.zero_grad()
    assert p.grad is None


def test_aliased_gradient_is_not_updated_in_place():
    # add hands on its incoming gradient itself; accumulating the second use
    # of r must not write through r.grad into s.grad
    p = Parameter("p", np.array([[1.0, 2.0], [3.0, 4.0]]))
    r = ad.add(p, ad.as_tensor(0.0))
    s = ad.add(r, r)
    contract(s).backward()
    assert np.array_equal(s.grad, cotangent((2, 2)))
    assert np.array_equal(p.grad, 2.0 * cotangent((2, 2)))


def test_backward_requires_scalar():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_exp_overflow_raises():
    with pytest.raises(NonFinite):
        ad.exp(Tensor(np.array([1000.0])))
    with pytest.raises(NonFinite):
        ad.softmax_cross_entropy(Tensor(np.array([[0.0, np.inf]])), [0])


def test_shape_mismatches():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.time_conv(Tensor(np.zeros((2, 1, 4, 3))), Tensor(np.zeros((2, 2, 2))))  # even K
    with pytest.raises(ShapeMismatch):
        ad.graph_conv(Tensor(np.zeros((2, 1, 4, 3))), Tensor(np.zeros((1, 5, 2))), np.zeros((2, 3, 3)))
    # a batch-major (B, C, T, V) tensor is refused by every channel check
    x = Tensor(np.zeros((1, 2, 4, 3)))
    with pytest.raises(ShapeMismatch):
        ad.time_conv(x, Tensor(np.zeros((2, 2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.graph_conv(x, Tensor(np.zeros((1, 5, 2))), np.zeros((1, 3, 3)))
    with pytest.raises(ShapeMismatch):
        ad.channel_affine(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatch):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0])


# ---------------------------------------------------------------------------
# dtype: every op follows its input, so pre-training runs in float32
# ---------------------------------------------------------------------------

ADJ = build_adjacency(body22(), "distance").normalized()  # float64, as Model keeps it

DTYPE_CASES = {
    "add": ([(3, 4), (4,)], ad.add),
    "mul": ([(3, 4), (4,)], ad.mul),
    "matmul": ([(3, 4), (4, 5)], ad.matmul),
    "transpose": ([(3, 4)], ad.transpose),
    "relu": ([(3, 4)], ad.relu),
    "exp": ([(3, 4)], ad.exp),
    "minimum_const": ([(3, 4)], lambda a: ad.minimum_const(a, 0.5)),
    "softmax_cross_entropy": ([(3, 5)], lambda a: ad.softmax_cross_entropy(a, [2, 0, 2])),
    "graph_conv": ([(3, 2, 6, 22), (2, 5, 3)], lambda x, w: ad.graph_conv(x, w, ADJ)),
    "time_conv": ([(3, 2, 6, 4), (5, 3, 3)], ad.time_conv),
    "channel_affine": ([(3, 2, 4, 5), (3,), (3,)], ad.channel_affine),
    "pool_time_joints": ([(3, 2, 5, 4)], ad.pool_time_joints),
    "linear": ([(2, 3), (3, 4), (4,)], ad.linear),
}


def _run_in(dtype, values, op):
    """op on Parameters of dtype holding values: its output value and each input's gradient."""
    params = [Parameter(f"p{i}", v.astype(dtype)) for i, v in enumerate(values)]
    out = op(*params)
    contract(out).backward()
    return [out.value] + [p.grad for p in params]


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_op_follows_float32_input(name):
    # the same float32 numbers through the float64 run: only the arithmetic's
    # precision differs, so each array agrees to rtol 1e-5 of its largest entry
    shapes, op = DTYPE_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    values = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    single, double = _run_in(np.float32, values, op), _run_in(np.float64, values, op)
    for a32, a64 in zip(single, double):
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        np.testing.assert_allclose(a32, a64, rtol=1e-5, atol=1e-5 * np.abs(a64).max())


def test_adam_follows_float32_parameters():
    p = Parameter("p", np.float32([1.0, -2.0, 0.5]))
    q = Parameter("q", np.float32([3.0]))  # no gradient: the zero gradient keeps the dtype too
    p.grad = np.float32([0.1, 0.2, -0.3])
    opt = Adam([p, q], lr=1e-2)
    opt.step()
    assert p.value.dtype == q.value.dtype == np.float32
    assert all(m.dtype == np.float32 for m in opt._m + opt._v)


def _toy_pretrain(epochs):
    """One pretrain() step per epoch: six toy samples in one batch."""
    samples, descriptions = make_toy_pretrain_data(2, seed=3, duration=1.0)
    table, _ = toy_text_assets(dim=9)
    encoder = EncoderConfig(blocks=((6, 4, 3), (4, 8, 3)), embedding_dim=9)
    cfg = TrainConfig(batch_size=6, epochs=epochs, lr=1e-2, mask_min=1, mask_max=5, seed=5)
    return pretrain(samples, descriptions, table, body22(), encoder, cfg)


def test_pretrain_step_tracks_no_float64_node(monkeypatch):
    # a float64 operand anywhere (an uncast text matrix, batch or constant)
    # would show as a float64 node, parent or gradient
    seen = []
    tracked = ad._tracked

    def spy(value, parents, backward):
        seen.extend(p.value.dtype for p in parents)

        def logged(g):
            seen.append(g.dtype)
            backward(g)

        node = tracked(value, parents, None if backward is None else logged)
        seen.append(node.value.dtype)
        return node

    monkeypatch.setattr(ad, "_tracked", spy)
    _toy_pretrain(epochs=1)
    assert len(seen) > 50 and set(seen) == {np.dtype(np.float32)}


def test_pretrain_returns_float64_holding_float32_values():
    ckpt = _toy_pretrain(epochs=2)
    for name, value in ckpt.params.items():
        assert value.dtype == np.float64, name
        assert np.array_equal(value.astype(np.float32).astype(np.float64), value), name
    # inference on the checkpoint runs in float64
    model = Model(ckpt)
    assert model.embed_batch_tensor(np.zeros((1, 6, 5, 22))).value.dtype == np.float64


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # bias correction makes m_hat = g and v_hat = g^2 at t=1, so the update
    # is lr * g / (|g| + eps): magnitude ~ lr for any nonzero gradient
    rng = np.random.default_rng(10)
    p = Parameter("p", rng.standard_normal(6))
    before = p.value.copy()
    g = rng.standard_normal(6) * 100
    p.grad = g.copy()
    Adam([p], lr=1e-3).step()
    delta = p.value - before
    assert np.allclose(np.abs(delta), 1e-3, rtol=1e-5)
    assert np.allclose(np.sign(delta), -np.sign(g))


def test_adam_zero_gradient_no_change():
    p = Parameter("p", np.array([1.0, -2.0]))
    before = p.value.copy()
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.value, before)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(11)
        p = Parameter("p", rng.standard_normal(4))
        opt = Adam([p], lr=1e-2)
        for _ in range(10):
            opt.zero_grad()
            contract(ad.mul(p, p)).backward()
            opt.step()
        return p.value

    assert np.array_equal(run(), run())
