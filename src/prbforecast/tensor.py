"""Minimal dense tensor library with reverse-mode autodiff.

Tensors wrap numpy arrays (float32 by default; float64 is allowed so test
oracles can run at higher precision). Differentiable ops record a backward
closure on a global tape; `backward()` pops and runs the closures from the
end and leaves the tape empty, so a second backward without a fresh forward
pass is an error.

Only the broadcasting the model needs is supported: equal shapes, scalars,
and a trailing-dimension bias vector. Keeps every backward rule auditable.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class AutodiffError(RuntimeError):
    pass


# Single run-level RNG: dropout and parameter init both draw from it, so a
# run is fully determined by (data, config, seed).
_rng = np.random.default_rng(0)


def seed_all(seed: int) -> None:
    global _rng
    _rng = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    return _rng


# Ordered record of differentiable ops as (out_tensor, backward_fn) pairs;
# inputs always precede outputs.
_tape: list = []
_grad_enabled = True


def tape() -> list:
    return _tape


class no_grad:
    """Context manager that suspends tape recording (inference forwards)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)  # a copy: g may be shared
    else:
        t.grad += g.astype(t.data.dtype, copy=False)


def _result(data, inputs, backward_fn) -> Tensor:
    track = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track, dtype=data.dtype)
    if track:
        _tape.append((out, backward_fn))
    return out


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient `g` down to `shape` (undo scalar/bias/batch broadcast)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_addable(a_shape, b_shape):
    if a_shape == b_shape:
        return
    if int(np.prod(b_shape)) == 1 or int(np.prod(a_shape)) == 1:
        return
    # trailing-dimension bias
    if len(b_shape) == 1 and a_shape and a_shape[-1] == b_shape[0]:
        return
    if len(a_shape) == 1 and b_shape and b_shape[-1] == a_shape[0]:
        return
    raise ShapeError(f"cannot add shapes {a_shape} and {b_shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a.shape, b.shape)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(g, b.shape))

    return _result(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a.shape, b.shape)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(-g, b.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a.shape, b.shape)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _reduce_to(g * b.data, a.shape))
        _accumulate(b, _reduce_to(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * a.data.dtype.type(s)

    def backward(g):
        _accumulate(a, g * s)

    return _result(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        da = np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _reduce_to(da, a.shape))
        _accumulate(b, _reduce_to(db, b.shape))

    return _result(data, (a, b), backward)


def _affine(x2: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x2 @ w + b for 2-D x2: the one GEMM behind `linear` and `attention`."""
    out = x2 @ w.data
    out += b.data
    return out


def _affine_backward(x2: np.ndarray, w: Tensor, b: Tensor, g2: np.ndarray,
                     need_dx: bool) -> np.ndarray | None:
    """Accumulate the weight and bias gradients of `_affine` (each one GEMM
    or one column sum over every leading row) and return dx2 if asked."""
    _accumulate(w, x2.T @ g2)
    _accumulate(b, g2.sum(axis=0))
    return g2 @ w.data.T if need_dx else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, for any leading dims: (..., d_in)
    with w (d_in, d_out) and b (d_out,). Forward and both gradients are 2-D
    GEMMs over the flattened leading dims."""
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    data = _affine(x2, w, b).reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g):
        dx2 = _affine_backward(x2, w, b, g.reshape(-1, w.shape[1]), x.requires_grad)
        if dx2 is not None:
            _accumulate(x, dx2.reshape(x.shape))

    return _result(data, (x, w, b), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _result(data, (a,), backward)


def dropout(a: Tensor, p: float) -> Tensor:
    """Zero each element with probability `p`, scaling survivors by 1/(1 - p).
    At `p == 0`, every inference pass's rate, it returns `a` itself and draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    kept = _rng.random(a.shape) >= p

    def scaled_mask():  # rebuilt in backward, so only the boolean mask is saved
        return kept.astype(a.dtype) / a.dtype.type(1.0 - p)

    data = a.data * scaled_mask()

    def backward(g):
        _accumulate(a, g * scaled_mask())

    return _result(data, (a,), backward)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise IndexError(f"embedding index {bad} out of range for table with {rows} rows")
    data = table.data[idx]

    def backward(g):
        if not table.requires_grad:
            return
        # Scatter-add as one GEMM: a one-hot (n, rows) matrix, transposed,
        # times the (n, d) gradient rows; repeated indices sum in the product.
        flat = idx.reshape(-1)
        one_hot = (flat[:, None] == np.arange(rows)).astype(table.data.dtype)
        _accumulate(table, one_hot.T @ g.reshape(-1, table.shape[-1]))

    return _result(data, (table,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            _accumulate(t, piece)

    return _result(data, tuple(tensors), backward)


def slice_lastdim(a: Tensor, start: int, stop: int) -> Tensor:
    data = a.data[..., start:stop]

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        _accumulate(a, full)

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _result(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _result(data, (a,), backward)


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _result(data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g / n, a.shape))

    return _result(data, (a,), backward)


def softmax_lastdim(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction.

    `mask` is an optional additive array (0 for visible, -inf for masked),
    broadcastable to `a.shape`. An all-masked row is a precondition violation
    and raises ValueError; so does a NaN or +inf score, with its own message.
    """
    if a.shape[-1] < 1:
        raise ShapeError("softmax needs a nonempty last dimension")
    data = _softmax(a.data, mask)

    def backward(g):
        _accumulate(a, _softmax_backward(data, g))

    return _result(data, (a,), backward)


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is not None:
        x = x + mask
    m = x.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        # max() propagates NaN, so a row maximum of -inf means every entry
        # of the row is -inf; NaN or +inf is a numerical fault upstream.
        if np.isneginf(m[~np.isfinite(m)]).all():
            raise ValueError("softmax row is fully masked")
        raise ValueError("softmax got non-finite scores (NaN or +inf)")
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - dot) * y


def attention(params, q_in: Tensor, kv_in: Tensor, heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one tape op.

    `params` carries (d, d) weights and (d,) biases named wq, bq, wk, bk,
    wv, bv, wo, bo. q_in is (B, T_q, d), kv_in is (B, T_kv, d); pass the
    same tensor for self-attention. `mask` is an additive (T_q, T_kv) array
    as in `softmax_lastdim`. The four projections are GEMMs over all B*T
    rows; the score and context products are per-row (B, h, T, k) matmuls.
    """
    batch, t_q, d = q_in.shape
    t_kv = kv_in.shape[1]
    if d % heads != 0 or kv_in.shape != (batch, t_kv, d):
        raise ShapeError(f"attention shape mismatch: {q_in.shape} x {kv_in.shape} "
                         f"with {heads} heads")
    head_dim = d // heads
    s = 1.0 / np.sqrt(head_dim)
    p = params
    q2 = q_in.data.reshape(-1, d)
    kv2 = kv_in.data.reshape(-1, d)

    def split(x2, steps):  # (B*T, d) -> (B, h, T, k)
        return x2.reshape(batch, steps, heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x):  # (B, h, T, k) -> (B*T, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    q = split(_affine(q2, p.wq, p.bq), t_q)
    k = split(_affine(kv2, p.wk, p.bk), t_kv)
    v = split(_affine(kv2, p.wv, p.bv), t_kv)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores_dtype = scores.dtype  # backward needs only this, not the array
    scores *= scores_dtype.type(s)
    weights = _softmax(scores, mask)
    ctx2 = merge(np.matmul(weights, v))
    data = _affine(ctx2, p.wo, p.bo).reshape(batch, t_q, d)

    def backward(g):
        # Each intermediate gradient is rounded to its forward array's dtype,
        # as separate tape ops would round it (a float64 mask widens the
        # weights but not the scores).
        dctx = split(_affine_backward(ctx2, p.wo, p.bo, g.reshape(-1, d), True), t_q)
        dv = np.matmul(weights.transpose(0, 1, 3, 2), dctx).astype(v.dtype, copy=False)
        dweights = np.matmul(dctx, v.transpose(0, 1, 3, 2))
        dscores = _softmax_backward(weights, dweights).astype(scores_dtype, copy=False)
        dscores = (dscores * s).astype(scores_dtype, copy=False)
        dq = np.matmul(dscores, k).astype(q.dtype, copy=False)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q).astype(k.dtype, copy=False)
        need_q, need_kv = q_in.requires_grad, kv_in.requires_grad
        dv_in = _affine_backward(kv2, p.wv, p.bv, merge(dv), need_kv)
        dk_in = _affine_backward(kv2, p.wk, p.bk, merge(dk), need_kv)
        dq_in = _affine_backward(q2, p.wq, p.bq, merge(dq), need_q)
        if need_kv:
            _accumulate(kv_in, dv_in.reshape(kv_in.shape))
            _accumulate(kv_in, dk_in.reshape(kv_in.shape))
        if need_q:
            _accumulate(q_in, dq_in.reshape(q_in.shape))

    inputs = (q_in, kv_in, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo)
    return _result(data, inputs, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
               residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis of `x` (of `x + residual` when a residual of
    the same shape is given, as one op), then scale by `gain` and shift by
    `bias`. The residual form is bit-identical to `layer_norm(add(x, r))`."""
    d = x.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last dimension")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), "
                         f"got {gain.shape} and {bias.shape}")
    if residual is None:
        s, inputs = x.data, (x, gain, bias)
    elif residual.shape == x.shape:
        s, inputs = x.data + residual.data, (x, residual, gain, bias)
    else:
        raise ShapeError(f"layer_norm residual {residual.shape} does not match {x.shape}")
    # add.reduce / d and xhat * xhat give the bits of mean() and ** 2, and
    # centring and scaling in place (never in x's own array) the bits of
    # fresh arrays, with fewer large temporaries to allocate.
    mu = np.add.reduce(s, axis=-1, keepdims=True) / d
    xhat = s - mu if residual is None else np.subtract(s, mu, out=s)
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    data = gain.data * xhat + bias.data

    def backward(g):
        dxhat = g * gain.data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        dx = dx.astype(xhat.dtype, copy=False)  # the sum's own grad, as `add` rounds it
        _accumulate(x, dx)
        if residual is not None:
            _accumulate(residual, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))

    return _result(data, inputs, backward)


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every reachable requires_grad tensor. Each op is
    popped off the tape as it runs, so its saved arrays are freed once its
    backward is done; the tape is left empty even if a closure raises.
    Gradients from fan-out are summed."""
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if len(_tape) == 0:
        raise AutodiffError("tape is empty: run a forward pass before backward")
    loss.grad = np.ones_like(loss.data)
    try:
        while _tape:
            out, fn = _tape.pop()
            if out.grad is not None:
                fn(out.grad)
    finally:
        _tape.clear()
