import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contract, cotangent
from imuclr import autodiff as ad
from imuclr.autodiff import Adam, Parameter, Tensor, grad_check
from imuclr.errors import NonFinite, ShapeMismatch


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
        ("reshape", lambda p, q, x: contract(ad.reshape(p, (p.value.size,)))),
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
    rng = np.random.default_rng(hash(name) % 2**32)
    p = Parameter("p", rng.standard_normal((3, 4)))
    q = Parameter("q", rng.standard_normal(4))
    x = rng.standard_normal((5, 3))
    assert grad_check(lambda: builder(p, q, x), [p, q]) < 1e-6


def test_softmax_cross_entropy_repeated_targets_gradient():
    rng = np.random.default_rng(3)
    p = Parameter("p", rng.standard_normal((4, 3)))
    idx = np.array([0, 2, 1, 2])
    assert grad_check(lambda: ad.softmax_cross_entropy(p, idx), [p]) < 1e-6


def test_stack_rows_gradient():
    rng = np.random.default_rng(4)
    ps = [Parameter(f"p{i}", rng.standard_normal(3)) for i in range(3)]
    assert grad_check(lambda: contract(ad.mul(ad.stack_rows(ps), ad.stack_rows(ps))), ps) < 1e-6


def test_embedding_mean_gradient_with_repeats():
    rng = np.random.default_rng(5)
    table = Parameter("table", rng.standard_normal((6, 4)))
    idx = [1, 1, 4]
    assert grad_check(lambda: contract(ad.mul(ad.embedding_mean(table, idx), ad.as_tensor(2.0))), [table]) < 1e-6


# The structured ops take channel-major (C, B, T, V) tensors. Their tests use
# pairwise-distinct C, B, T and V so that a swapped axis raises or fails.


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
    # reshape and add hand on views of their incoming gradient; accumulating
    # the second use of r must not write through r.grad into s.grad
    p = Parameter("p", np.array([1.0, 2.0, 3.0, 4.0]))
    r = ad.reshape(p, (2, 2))
    s = ad.add(r, r)
    contract(s).backward()
    assert np.array_equal(s.grad, cotangent((2, 2)))
    assert np.array_equal(p.grad, 2.0 * cotangent((2, 2)).reshape(-1))


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
