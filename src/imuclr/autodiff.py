"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the graph encoder and the contrastive/cross-entropy
objectives: a taped Tensor, the primitives the model runs, each with a
hand-written backward rule, a finite-difference gradient checker, and Adam.

Every op follows the dtype of its input: float32 values give float32 values,
gradients and scratch buffers, float64 ones float64, through the same code.
A Parameter keeps the float32 or float64 value it is given (anything else
becomes float64), and Adam's moments take their parameter's dtype. The
gradient checker runs in float64, so its tolerances stay tight; the
contrastive pre-training casts its parameters, batches and text vectors to
float32 once and trains in float32, where each GEMM is faster.

The primitives: add, mul (both broadcasting), matmul, transpose, relu,
exp, minimum_const and linear; softmax_cross_entropy for both training
objectives; graph_conv, time_conv, channel_affine and pool_time_joints on
channel-major (C, B, T, V) tensors, so their (C, B*T*V) GEMM operands are
free reshapes. graph_conv stacks its K partitions into one (K*C, B*T*V)
operand, so its channel mix, dW and dx are one GEMM each, and rebuilds
that stack in backward rather than keep it on the tape. time_conv's im2col
matrix is K times its input, so it is built one sample at a time,
(C*K, T*V), and never kept: backward builds one im2col per sample, of the
upstream gradient, and takes both dx and dW from it.
relu passes NaN on, for the loss's finiteness check.

No operation mutates its inputs, and no gradient is updated in place: a
tensor that feeds several downstream ops gets the sum as a new array, so a
backward rule may hand on its incoming gradient or a view of it.

backward() frees the tape as it walks it. Nodes run in reverse topological
order, so once a node's backward rule has run every consumer of it has too;
the node then drops its rule and its parents, and each activation and
interior gradient is freed as soon as nothing upstream needs it. A tensor the
caller still holds keeps its .value and .grad. A graph can be backpropagated
only once: backward() raises PipelineError when it reaches a consumed node,
whether through a second call or through a new graph built on a consumed
intermediate. The mallopt call below keeps the freed buffers in the heap.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import NonFinite, PipelineError, ShapeMismatch

# Every training step frees and reallocates tens of MB of activations and
# gradients. Under glibc's defaults, buffers above a (dynamic) mmap threshold
# are unmapped when freed and the top of the heap is trimmed past 128 KiB, so
# those pages go back to the kernel and are faulted in again on the next step:
# one 5-epoch pretrain() call on the benchmark's corpus took ~460k minor page
# faults, and under 10 with buffers up to 32 MiB served from the heap and
# trimming only past 1 GiB. A no-op where malloc is not glibc's.
_libc = ctypes.CDLL(None)
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


class Tensor:
    """Array node in a computation graph recorded on the fly."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        arr = np.asarray(value)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.value = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def backward(self):
        """Reverse-accumulate d(self)/d(leaf) into every reachable .grad, freeing the graph.

        Raises PipelineError on a graph that was already backpropagated.
        """
        if self.value.size != 1:
            raise ShapeMismatch("backward() requires a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise PipelineError("backward() reached a graph that was already backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        while order:  # popped, so a node is freed once nothing upstream needs it
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # every consumer has run: drop the closure and the inputs it holds
                node._backward = node._parents = None

    def _accumulate(self, g):
        # never in place: g may alias another node's gradient or a read-only view
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        tag = " param" if isinstance(self, Parameter) else ""
        return f"Tensor(shape={self.value.shape}{tag})"


class Parameter(Tensor):
    """Named trainable tensor; gradients persist until zero_grad()."""

    __slots__ = ("name",)

    def __init__(self, name, value):
        value = np.asarray(value)
        dtype = np.float32 if value.dtype == np.float32 else np.float64
        super().__init__(np.array(value, dtype=dtype), requires_grad=True)
        self.name = name

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(value, parents, backward):
    needs = any(p.requires_grad for p in parents)
    return Tensor(value, requires_grad=needs, parents=tuple(parents), backward=backward if needs else None)


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _tracked(out_val, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.value, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.value, b.shape))

    return _tracked(out_val, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out_val = a.value @ b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.value.T)
        if b.requires_grad:
            b._accumulate(a.value.T @ g)

    return _tracked(out_val, (a, b), backward)


def transpose(a):
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose expects a 2-D tensor, got {a.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _tracked(a.value.T.copy(), (a,), backward)


def relu(a):
    """max(a, 0); -0.0 comes out as 0.0 and NaN as NaN."""
    a = as_tensor(a)
    out_val = np.maximum(a.value, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (out_val > 0))  # subgradient 0 at the kink

    return _tracked(out_val, (a,), backward)


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out_val = np.exp(a.value)
    if not np.all(np.isfinite(out_val)):
        raise NonFinite("exp overflow")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_val)

    return _tracked(out_val, (a,), backward)


def minimum_const(a, cap):
    """Elementwise min(a, cap); gradient passes only where a < cap."""
    a = as_tensor(a)
    keep = a.value < cap

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _tracked(np.minimum(a.value, cap), (a,), backward)


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -log softmax(logits[i])[targets[i]].

    logits: (N, D) tensor; targets: N integer class indices, repeats
    allowed. The log-sum-exp is stabilized by the row maximum.
    """
    a = as_tensor(logits)
    idx = np.asarray(targets, dtype=np.intp)
    if a.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeMismatch(f"softmax_cross_entropy expects (N, D) logits and N targets, got {a.shape}")
    if not np.all(np.isfinite(a.value)):
        raise NonFinite("softmax_cross_entropy input contains NaN or Inf")
    n = a.shape[0]
    rows = np.arange(n)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(g):
        if a.requires_grad:
            full = np.zeros(a.shape, dtype=a.value.dtype)
            full[rows, idx] = -float(g) / n
            a._accumulate(full - np.exp(log_probs) * full.sum(axis=1, keepdims=True))

    return _tracked(-np.asarray(log_probs[rows, idx].mean()), (a,), backward)


# ---------------------------------------------------------------------------
# Structured ops for the channel-major C x B x T x V graph tensors
# ---------------------------------------------------------------------------


def graph_conv(x, w, adj_norm):
    """Spatial graph convolution: sum_k Phi_k (x @ A_hat_k).

    x: (C,B,T,V) tensor; w: (K,O,C) weights; adj_norm: constant (K,V,V)
    stack of symmetrically normalized adjacency matrices, cast to x's dtype.
    The K products x @ A_hat_k are stacked into one (K*C, B*T*V) operand, so
    the channel mix of forward, dW and dx are one GEMM each; the stack is
    rebuilt in backward rather than kept on the tape.
    """
    x, w = as_tensor(x), as_tensor(w)
    adj = np.asarray(adj_norm, dtype=x.value.dtype)
    if x.ndim != 4 or w.ndim != 3 or adj.ndim != 3:
        raise ShapeMismatch("graph_conv expects x (C,B,T,V), w (K,O,C), adj (K,V,V)")
    k_s = adj.shape[0]
    if w.shape[0] != k_s or w.shape[2] != x.shape[0] or adj.shape[1:] != (x.shape[3],) * 2:
        raise ShapeMismatch(
            f"graph_conv shape mismatch: x {x.shape}, w {w.shape}, adj {adj.shape}"
        )
    c, b, t, v = x.shape
    o = w.shape[1]
    w_cat = w.value.transpose(1, 0, 2).reshape(o, k_s * c)  # w_cat[o, k*C + c] = w[k, o, c]

    def xa_stack():  # (K*C, B*T*V): row block k is x @ A_hat_k
        return np.matmul(x.value.reshape(-1, v), adj).reshape(k_s * c, -1)

    def backward(g):
        g_cols = g.reshape(o, -1)
        if w.requires_grad:
            w._accumulate((g_cols @ xa_stack().T).reshape(o, k_s, c).transpose(1, 0, 2))
        if x.requires_grad:
            # the transposed adjacency is made contiguous: BLAS runs a strided
            # (V, V) operand at about half speed
            adj_t = np.ascontiguousarray(adj.transpose(0, 2, 1))
            d_xa = (w_cat.T @ g_cols).reshape(k_s, -1, v)
            dx = d_xa[0] @ adj_t[0]
            for k in range(1, k_s):
                dx += d_xa[k] @ adj_t[k]
            x._accumulate(dx.reshape(x.shape))

    return _tracked((w_cat @ xa_stack()).reshape(o, b, t, v), (x, w), backward)


def _sample_cols(values, k):
    """Yield each (C,T,V) sample of (C,B,T,V) values as its (C*K, T*V) im2col matrix.

    One zero-padded (C, T+K-1, V) buffer is refilled per sample and read
    through a fixed (C, K, T*V) strided view, whose reshape is the only copy:
    row c*K + k of the matrix holds the padded sample's frames k .. k+T-1.
    """
    c, b, t, v = values.shape
    pad = (k - 1) // 2
    xp = np.zeros((c, t + k - 1, v), dtype=values.dtype)
    win = np.lib.stride_tricks.as_strided(xp, (c, k, t * v), xp.strides, writeable=False)
    for i in range(b):
        xp[:, pad : pad + t] = values[:, i]
        yield win.reshape(c * k, t * v)


def _conv_same(values, kernel):
    """Same-length temporal convolution of (C,B,T,V) values, one GEMM per sample."""
    _, b, t, v = values.shape
    o, c, k = kernel.shape
    flat = kernel.reshape(o, c * k)
    out = np.empty((o, b, t * v), dtype=np.result_type(values, kernel))
    for i, cols in enumerate(_sample_cols(values, k)):
        np.matmul(flat, cols, out=out[:, i])
    return out.reshape(o, b, t, v)


def time_conv(x, w):
    """Temporal convolution of a (C,B,T,V) tensor with a (O,C,K) kernel, zero-padded to keep T.

    The im2col matrix is K times the size of the input, so it is built one
    sample at a time and never kept on the tape. Backward builds one im2col
    per sample, of the upstream gradient g, and takes both gradients from
    it: dx is the same convolution of g with the flipped, transposed kernel,
    and sum_i G_i @ x_i^T holds dW with its taps reversed.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 3:
        raise ShapeMismatch("time_conv expects x (C,B,T,V) and w (O,C,K)")
    c, b, t, v = x.shape
    o, c2, k = w.shape
    if c2 != c:
        raise ShapeMismatch(f"kernel expects {c2} input channels, tensor has {c}")
    if k % 2 != 1:
        raise ShapeMismatch(f"temporal kernel size must be odd, got {k}")

    def backward(g):
        w_flip = w.value[:, :, ::-1].transpose(1, 0, 2).reshape(c, o * k)
        dx = np.empty((c, b, t * v), dtype=g.dtype) if x.requires_grad else None
        # row (o, K-1-k) of m is dW[o, :, k]: row (o, k') of G_i is g[o] shifted by k' - pad
        m = np.zeros((o * k, c), dtype=g.dtype) if w.requires_grad else None
        for i, cols in enumerate(_sample_cols(g, k)):
            if dx is not None:
                np.matmul(w_flip, cols, out=dx[:, i])
            if m is not None:
                m += cols @ x.value[:, i].reshape(c, t * v).T
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))
        if m is not None:
            w._accumulate(m.reshape(o, k, c)[:, ::-1].transpose(0, 2, 1))

    return _tracked(_conv_same(x.value, w.value), (x, w), backward)


def channel_affine(x, scale, shift):
    """Per-channel learnable scale and shift on a (C,B,T,V) tensor."""
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    c = x.shape[0]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeMismatch(f"affine parameters must have shape ({c},)")
    s = scale.value[:, None, None, None]
    out_val = x.value * s + shift.value[:, None, None, None]

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s)
        if scale.requires_grad:
            scale._accumulate(np.einsum("cbtv,cbtv->c", g, x.value))
        if shift.requires_grad:
            shift._accumulate(g.sum(axis=(1, 2, 3)))

    return _tracked(out_val, (x, scale, shift), backward)


def pool_time_joints(x):
    """Mean over joints and timesteps: (C,B,T,V) -> (B,C)."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeMismatch(f"pool expects (C,B,T,V), got {x.shape}")
    denom = x.shape[2] * x.shape[3]
    out_val = x.value.sum(axis=(2, 3)).T / denom

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g.T[:, :, None, None] / denom, x.shape))

    return _tracked(out_val, (x,), backward)


def linear(x, w, b):
    """Dense layer (B,C) @ (C,E) + (E,)."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# Gradient checking and optimization
# ---------------------------------------------------------------------------


def grad_check(fn, params, eps=1e-5):
    """Max relative error of backward gradients vs central differences.

    fn rebuilds the (deterministic, scalar-valued) computation from the
    current parameter values. Every coordinate of every parameter is
    perturbed by +/- eps; relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.value.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn().value)
            flat[i] = orig - eps
            f_minus = float(fn().value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(an_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(an_flat[i] - numeric) / denom)
    return worst


class Adam:
    """Bias-corrected Adam over a fixed parameter list; fully deterministic."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
