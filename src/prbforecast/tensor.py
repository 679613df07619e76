"""Minimal dense tensor library with reverse-mode autodiff.

Tensors wrap numpy arrays (float32 by default; float64 is allowed so test
oracles can run at higher precision). A tensor that requires grad also holds
a `Slot`: its gradient buffer and the shape and dtype of the array it was
made with, but no values. Differentiable ops record (output slot, backward
closure) pairs on a global tape, and each closure captures only the slots it
adds into and the arrays it reads, never a tensor. So an op's output array
lives only as long as the forward holds its tensor or some backward reads
it. An op may also save only its inputs (and what is dear to rebuild, such
as `attention`'s softmax weights) and rebuild its other intermediates in
backward with the forward's own expressions, bit for bit. That is sound
because no parameter array changes between a forward and its backward; the
closures read the weight arrays in any case. `backward()` pops and runs the
closures from the end and leaves the tape empty, so a second backward
without a fresh forward pass is an error.

A consumer need not keep its input's array either. A producer whose saved
arrays already determine its output gives the output's slot a `rebuild`:
a function that remakes the array with the forward's own expression, from
the same arrays. A consumer keeps that rebuild in place of the array when
there is one (`_kept`), so the array dies once the forward drops it. Only
`layer_norm` provides one (`gain * xhat + bias`); `linear`, `feed_forward`
and `attention` use it.

Only the broadcasting the model needs is supported: equal shapes, scalars,
and a trailing-dimension bias vector. Keeps every backward rule auditable.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class AutodiffError(RuntimeError):
    pass


class NumericalError(ValueError):
    """A NaN or infinity where the arithmetic needs finite values."""


# Single run-level RNG: dropout and parameter init both draw from it, so a
# run is fully determined by (data, config, seed).
_rng = np.random.default_rng(0)


def seed_all(seed: int) -> None:
    global _rng
    _rng = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    return _rng


# Ordered record of differentiable ops as (out_slot, backward_fn) pairs;
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


class Slot:
    """The gradient state of a tensor that requires grad, but no values: the
    gradient buffer and its shape and dtype, fixed when the tensor is made,
    and the producer's `rebuild` of the array, if it has one."""
    __slots__ = ("grad", "shape", "dtype", "rebuild")

    def __init__(self, shape, dtype):
        self.grad = None
        self.shape = shape
        self.dtype = dtype
        self.rebuild = None


class Tensor:
    """A numpy array and, if it requires grad, its `Slot`."""
    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.slot = Slot(arr.shape, arr.dtype) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.slot is None:
            raise AutodiffError("cannot set the gradient of a tensor that does not require grad")
        self.slot.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(slot: Slot | None, g: np.ndarray) -> None:
    """Add `g` into the gradient of `slot`; a None slot (no grad) ignores it."""
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = np.array(g, dtype=slot.dtype)  # a copy: g may be shared
    else:
        slot.grad += g.astype(slot.dtype, copy=False)


def _accumulate_reduced(slot: Slot | None, g: np.ndarray) -> None:
    """`_accumulate` of `g` summed down to the slot's shape (undo a broadcast)."""
    if slot is not None:
        _accumulate(slot, _reduce_to(g, slot.shape))


def _result(data, inputs, backward_fn) -> Tensor:
    """The output tensor of an op on `inputs`. If grad is enabled and an
    input requires grad, the output gets a slot and (slot, backward_fn) goes
    on the tape; otherwise no slot is made."""
    track = _grad_enabled and any(t.slot is not None for t in inputs)
    out = Tensor(data, requires_grad=track, dtype=data.dtype)
    if track:
        _tape.append((out.slot, backward_fn))
    return out


def _kept(t: Tensor):
    """What a consumer keeps to read `t`'s array in backward: a function that
    returns it, the producer's rebuild when there is one, else one that
    returns the array itself."""
    rebuild = None if t.slot is None else t.slot.rebuild
    if rebuild is not None:
        return rebuild
    arr = t.data
    return lambda: arr


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
    sa, sb = a.slot, b.slot

    def backward(g):
        _accumulate_reduced(sa, g)
        _accumulate_reduced(sb, g)

    return _result(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a.shape, b.shape)
    data = a.data - b.data
    sa, sb = a.slot, b.slot

    def backward(g):
        _accumulate_reduced(sa, g)
        _accumulate_reduced(sb, -g)

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a.shape, b.shape)
    x, y = a.data, b.data
    data = x * y
    sa, sb = a.slot, b.slot

    def backward(g):
        _accumulate_reduced(sa, g * y)
        _accumulate_reduced(sb, g * x)

    return _result(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * a.data.dtype.type(s)
    sa = a.slot

    def backward(g):
        _accumulate(sa, g * s)

    return _result(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    x, y = a.data, b.data
    data = np.matmul(x, y)
    sa, sb = a.slot, b.slot

    def backward(g):
        _accumulate_reduced(sa, np.matmul(g, np.swapaxes(y, -1, -2)))
        _accumulate_reduced(sb, np.matmul(np.swapaxes(x, -1, -2), g))

    return _result(data, (a, b), backward)


def _affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x2 @ w + b for 2-D x2: the one GEMM behind `linear` and `attention`."""
    out = x2 @ w
    out += b
    return out


def _affine_backward(x2: np.ndarray, w: np.ndarray, w_slot: Slot | None,
                     b_slot: Slot | None, g2: np.ndarray,
                     need_dx: bool) -> np.ndarray | None:
    """Accumulate the weight and bias gradients of `_affine` (each one GEMM
    or one column sum over every leading row) and return dx2 if asked."""
    _accumulate(w_slot, x2.T @ g2)
    _accumulate(b_slot, g2.sum(axis=0))
    return g2 @ w.T if need_dx else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, for any leading dims: (..., d_in)
    with w (d_in, d_out) and b (d_out,). Forward and both gradients are 2-D
    GEMMs over the flattened leading dims."""
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    w_data, sx, sw, sb, x_kept = w.data, x.slot, w.slot, b.slot, _kept(x)
    data = _affine(x.data.reshape(-1, w_data.shape[0]), w_data, b.data).reshape(
        x.shape[:-1] + (w_data.shape[1],))

    def backward(g):
        x2 = x_kept().reshape(-1, w_data.shape[0])
        dx2 = _affine_backward(x2, w_data, sw, sb, g.reshape(-1, w_data.shape[1]),
                               sx is not None)
        if dx2 is not None:
            _accumulate(sx, dx2.reshape(sx.shape))

    return _result(data, (x, w, b), backward)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 over the last axis of x as one tape op,
    bit-identical to `linear`, `relu`, `linear` in value and gradients.
    Backward keeps x (`_kept`) and rebuilds the hidden layer from it."""
    if (x.data.ndim < 1 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.shape[-1] != w1.shape[0] or b1.shape != (w1.shape[1],)
            or w2.shape[0] != w1.shape[1] or b2.shape != (w2.shape[1],)):
        raise ShapeError(f"feed_forward shape mismatch: {x.shape} x {w1.shape} + {b1.shape}, "
                         f"then x {w2.shape} + {b2.shape}")
    w1_data, b1_data, w2_data = w1.data, b1.data, w2.data
    sx, sw1, sb1, sw2, sb2 = x.slot, w1.slot, b1.slot, w2.slot, b2.slot
    d_in, x_kept = w1_data.shape[0], _kept(x)

    def hidden(x2):  # by the forward, and again by backward
        h = _affine(x2, w1_data, b1_data)
        return np.maximum(h, 0, out=h)

    data = _affine(hidden(x.data.reshape(-1, d_in)), w2_data, b2.data).reshape(
        x.shape[:-1] + (w2_data.shape[1],))

    def backward(g):
        x2 = x_kept().reshape(-1, d_in)
        h = hidden(x2)
        g2 = g.reshape(-1, w2_data.shape[1])
        _affine_backward(h, w2_data, sw2, sb2, g2, False)
        live, h_dtype = h > 0, h.dtype
        del h
        # rounded as the chain rounds it: to the hidden slot's dtype, then
        # masked as `relu` masks (by its output)
        dh = (g2 @ w2_data.T).astype(h_dtype, copy=False) * live
        dx2 = _affine_backward(x2, w1_data, sw1, sb1, dh, sx is not None)
        if dx2 is not None:
            _accumulate(sx, dx2.reshape(sx.shape))

    return _result(data, (x, w1, b1, w2, b2), backward)


def relu(a: Tensor) -> Tensor:
    """max(a, 0). Backward masks by the output: max(a, 0) > 0 exactly where
    a > 0 (NaN and -0.0 included), so the input array need not be kept."""
    data = np.maximum(a.data, 0)
    sa = a.slot

    def backward(g):
        _accumulate(sa, g * (data > 0))

    return _result(data, (a,), backward)


def dropout(a: Tensor, p: float) -> Tensor:
    """Zero each element with probability `p`, scaling survivors by 1/(1 - p).
    At `p == 0`, every inference pass's rate, it returns `a` itself and draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    kept = _rng.random(a.shape) >= p
    dtype, sa = a.dtype, a.slot

    def scaled_mask():  # rebuilt in backward, so only the boolean mask is saved
        return kept.astype(dtype) / dtype.type(1.0 - p)

    data = a.data * scaled_mask()

    def backward(g):
        _accumulate(sa, g * scaled_mask())

    return _result(data, (a,), backward)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise IndexError(f"embedding index {bad} out of range for table with {rows} rows")
    data = table.data[idx]
    st = table.slot

    def backward(g):
        if st is None:
            return
        # Scatter-add as one GEMM: a one-hot (n, rows) matrix, transposed,
        # times the (n, d) gradient rows; repeated indices sum in the product.
        flat = idx.reshape(-1)
        one_hot = (flat[:, None] == np.arange(rows)).astype(st.dtype)
        _accumulate(st, one_hot.T @ g.reshape(-1, st.shape[-1]))

    return _result(data, (table,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    slots = [t.slot for t in tensors]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for slot, piece in zip(slots, pieces):
            _accumulate(slot, piece)

    return _result(data, tuple(tensors), backward)


def slice_lastdim(a: Tensor, start: int, stop: int) -> Tensor:
    data = a.data[..., start:stop]
    sa = a.slot

    def backward(g):
        full = np.zeros(sa.shape, sa.dtype)
        full[..., start:stop] = g
        _accumulate(sa, full)

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    sa = a.slot

    def backward(g):
        _accumulate(sa, g.reshape(sa.shape))

    return _result(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)
    sa = a.slot

    def backward(g):
        _accumulate(sa, g.transpose(inverse))

    return _result(data, (a,), backward)


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)
    sa = a.slot

    def backward(g):
        _accumulate(sa, np.broadcast_to(g, sa.shape))

    return _result(data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean(), dtype=a.data.dtype)
    sa = a.slot

    def backward(g):
        _accumulate(sa, np.broadcast_to(g / n, sa.shape))

    return _result(data, (a,), backward)


def softmax_lastdim(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction.

    `mask` is an optional additive array (0 for visible, -inf for masked),
    broadcastable to `a.shape`. An all-masked row is a precondition violation
    and raises ValueError; a NaN or +inf score raises NumericalError.
    """
    if a.shape[-1] < 1:
        raise ShapeError("softmax needs a nonempty last dimension")
    data = _softmax(a.data, mask)
    sa = a.slot

    def backward(g):
        _accumulate(sa, _softmax_backward(data, g))

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
        raise NumericalError("softmax got non-finite scores (NaN or +inf)")
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
    Backward keeps the inputs (`_kept`, once for self-attention) and the
    softmax weights, rebuilds q, k, v and the context from them, and drops
    each intermediate at its last use.
    """
    batch, t_q, d = q_in.shape
    t_kv = kv_in.shape[1]
    if d % heads != 0 or kv_in.shape != (batch, t_kv, d):
        raise ShapeError(f"attention shape mismatch: {q_in.shape} x {kv_in.shape} "
                         f"with {heads} heads")
    head_dim = d // heads
    s = 1.0 / np.sqrt(head_dim)
    p = params
    # per projection: the weight array, then the weight and bias slots
    proj_q, proj_k, proj_v, proj_o = [(w.data, w.slot, b.slot) for w, b in (
        (p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv), (p.wo, p.bo))]
    bq, bk, bv = p.bq.data, p.bk.data, p.bv.data
    shared = kv_in is q_in
    q_kept = _kept(q_in)
    kv_kept = q_kept if shared else _kept(kv_in)

    def split(x2, steps):  # (B*T, d) -> (B, h, T, k)
        return x2.reshape(batch, steps, heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x):  # (B, h, T, k) -> (B*T, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def project(q2, kv2):  # q, k and v, by the forward and again by backward
        return (split(_affine(q2, proj_q[0], bq), t_q),
                split(_affine(kv2, proj_k[0], bk), t_kv),
                split(_affine(kv2, proj_v[0], bv), t_kv))

    def add_input_grad(slot, x2, proj, dy):  # one projection's share of backward
        dx2 = _affine_backward(x2, *proj, merge(dy), slot is not None)
        if dx2 is not None:
            _accumulate(slot, dx2.reshape(slot.shape))

    q, k, v = project(q_in.data.reshape(-1, d), kv_in.data.reshape(-1, d))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores_dtype = scores.dtype  # backward needs only this, not the array
    scores *= scores_dtype.type(s)
    weights = _softmax(scores, mask)
    data = _affine(merge(np.matmul(weights, v)), proj_o[0], p.bo.data).reshape(batch, t_q, d)
    s_q, s_kv = q_in.slot, kv_in.slot

    def backward(g):
        q2 = q_kept().reshape(-1, d)
        kv2 = q2 if shared else kv_kept().reshape(-1, d)
        q, k, v = project(q2, kv2)
        ctx2 = merge(np.matmul(weights, v))
        # Each intermediate gradient is rounded to its forward array's dtype,
        # as separate tape ops would round it (a mask wider than the scores
        # widens the weights but not the scores).
        dctx = split(_affine_backward(ctx2, *proj_o, g.reshape(-1, d), True), t_q)
        del ctx2
        dv = np.matmul(weights.transpose(0, 1, 3, 2), dctx).astype(v.dtype, copy=False)
        dweights = np.matmul(dctx, v.transpose(0, 1, 3, 2))
        del dctx, v
        # the input gradients are added as they are made: v's, k's, then q's
        add_input_grad(s_kv, kv2, proj_v, dv)
        del dv
        dscores = _softmax_backward(weights, dweights).astype(scores_dtype, copy=False)
        del dweights
        dscores = (dscores * s).astype(scores_dtype, copy=False)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q).astype(k.dtype, copy=False)
        q_dtype = q.dtype
        del q
        add_input_grad(s_kv, kv2, proj_k, dk)
        del dk
        dq = np.matmul(dscores, k).astype(q_dtype, copy=False)
        del dscores, k
        add_input_grad(s_q, q2, proj_q, dq)

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
    gain_data, bias_data = gain.data, bias.data

    def rebuild():  # the output, by the forward and again by its consumers' backward
        return gain_data * xhat + bias_data

    data = rebuild()
    sr = None if residual is None else residual.slot
    sx, sg, sb = x.slot, gain.slot, bias.slot

    def backward(g):
        dxhat = g * gain_data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        dx = dx.astype(xhat.dtype, copy=False)  # the sum's own grad, as `add` rounds it
        _accumulate(sx, dx)
        _accumulate(sr, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(sg, (g * xhat).sum(axis=lead))
        _accumulate(sb, g.sum(axis=lead))

    out = _result(data, inputs, backward)
    if out.slot is not None:
        out.slot.rebuild = rebuild
    return out


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every reachable requires_grad tensor. Each op is
    popped off the tape as it runs, so its saved arrays are freed once its
    backward is done; the tape is left empty even if a closure raises.
    Gradients from fan-out are summed."""
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if len(_tape) == 0:
        raise AutodiffError("tape is empty: run a forward pass before backward")
    try:
        loss.grad = np.ones_like(loss.data)
        while _tape:
            slot, fn = _tape.pop()
            if slot.grad is not None:
                fn(slot.grad)
    finally:
        _tape.clear()
