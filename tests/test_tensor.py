from types import SimpleNamespace

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.model import FeedForwardParams, causal_mask
from prbforecast.tensor import AutodiffError, ShapeError, Tensor

from conftest import assert_grads_close, central_diff, f64_tensor, float64_factory


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_row_times_column(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = f64_tensor(rng, (4, 4))
        b = f64_tensor(rng, (4, 4))

        def loss():
            return float(T.tsum(T.matmul(a, b)).data)

        numeric = central_diff(loss, [a, b])
        loss_t = T.tsum(T.matmul(a, b))
        T.backward(loss_t)
        assert_grads_close(a.grad, numeric[0])
        assert_grads_close(b.grad, numeric[1])

    def test_batched_matmul_reduces_weight_gradient(self):
        rng = np.random.default_rng(1)
        x = f64_tensor(rng, (3, 2, 4))
        w = f64_tensor(rng, (4, 5))

        def loss():
            return float(T.tsum(T.matmul(x, w)).data)

        numeric = central_diff(loss, [x, w])
        T.backward(T.tsum(T.matmul(x, w)))
        assert_grads_close(w.grad, numeric[1])
        assert_grads_close(x.grad, numeric[0])


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((3, 5, 4)))
        w = Tensor(rng.standard_normal((4, 6)))
        b = Tensor(rng.standard_normal(6))
        np.testing.assert_allclose(T.linear(x, w, b).data,
                                   x.data @ w.data + b.data, rtol=1e-6, atol=1e-6)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                     Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))),
                     Tensor(np.zeros(4)))

    def test_gradient_matches_finite_differences_3d_with_bias(self):
        rng = np.random.default_rng(21)
        x = f64_tensor(rng, (3, 2, 4))
        w = f64_tensor(rng, (4, 5))
        b = f64_tensor(rng, (5,))
        probe = Tensor(rng.standard_normal((3, 2, 5)), dtype=np.float64)

        def loss():
            return float((T.linear(x, w, b).data * probe.data).sum())

        numeric = central_diff(loss, [x, w, b])
        T.backward(T.tsum(T.mul(T.linear(x, w, b), probe)))
        for p, num in zip((x, w, b), numeric):
            assert_grads_close(p.grad, num)


def attention_params(rng, d, dtype=np.float64):
    names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    return SimpleNamespace(**{
        n: Tensor(rng.standard_normal((d, d) if n[0] == "w" else d) / np.sqrt(d),
                  requires_grad=True, dtype=dtype) for n in names})


def unfused_attention(p, q_in, kv_in, heads, mask):
    """The op-by-op composition that the fused `attention` replaces."""
    batch, t_q, d = q_in.shape
    t_kv = kv_in.shape[1]
    head_dim = d // heads

    def split(x, steps):
        return T.transpose(T.reshape(x, (batch, steps, heads, head_dim)), (0, 2, 1, 3))

    q = split(T.add(T.matmul(q_in, p.wq), p.bq), t_q)
    k = split(T.add(T.matmul(kv_in, p.wk), p.bk), t_kv)
    v = split(T.add(T.matmul(kv_in, p.wv), p.bv), t_kv)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
    ctx = T.matmul(T.softmax_lastdim(scores, mask=mask), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (batch, t_q, d))
    return T.add(T.matmul(ctx, p.wo), p.bo)


class TestAttention:
    @pytest.mark.parametrize("t_q, t_kv, cross", [(3, 3, False), (2, 5, True)])
    def test_gradient_matches_finite_differences(self, t_q, t_kv, cross):
        rng = np.random.default_rng(22)
        d, heads = 4, 2
        p = attention_params(rng, d)
        q_in = f64_tensor(rng, (2, t_q, d))
        kv_in = f64_tensor(rng, (2, t_kv, d)) if cross else q_in
        mask = None if cross else causal_mask(t_q)
        probe = Tensor(rng.standard_normal((2, t_q, d)), dtype=np.float64)
        leaves = [q_in] + ([kv_in] if cross else []) + list(vars(p).values())

        def loss():
            out = T.attention(p, q_in, kv_in, heads, mask)
            return float((out.data * probe.data).sum())

        numeric = central_diff(loss, leaves)
        T.backward(T.tsum(T.mul(T.attention(p, q_in, kv_in, heads, mask), probe)))
        assert len(leaves) == (10 if cross else 9)
        for leaf, num in zip(leaves, numeric):
            assert_grads_close(leaf.grad, num)

    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_unfused_composition_float32(self, cross):
        rng = np.random.default_rng(23)
        d, heads, t_q = 8, 2, 4
        t_kv = 3 if cross else t_q
        p = attention_params(rng, d, dtype=np.float32)
        q_in = Tensor(rng.standard_normal((5, t_q, d)), requires_grad=True)
        kv_in = Tensor(rng.standard_normal((5, t_kv, d)), requires_grad=True) \
            if cross else q_in
        mask = None if cross else causal_mask(t_q)
        probe = Tensor(rng.standard_normal((5, t_q, d)))
        leaves = [q_in, kv_in] + list(vars(p).values())

        def run(fn):
            for leaf in leaves:
                leaf.grad = None
            out = fn(p, q_in, kv_in, heads, mask)
            T.backward(T.tsum(T.mul(out, probe)))
            return out.data, [leaf.grad.copy() for leaf in leaves]

        fused, fused_grads = run(T.attention)
        unfused, unfused_grads = run(unfused_attention)
        np.testing.assert_allclose(fused, unfused, rtol=1e-5, atol=1e-5)
        for a, b in zip(fused_grads, unfused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_fused_op_is_one_tape_entry(self):
        rng = np.random.default_rng(24)
        p = attention_params(rng, 4)
        x = f64_tensor(rng, (2, 3, 4))
        T.attention(p, x, x, 2, causal_mask(3))
        assert len(T.tape()) == 1

    def test_nan_scores_and_fully_masked_rows_are_distinct_errors(self):
        rng = np.random.default_rng(25)
        p = attention_params(rng, 4)
        x = f64_tensor(rng, (1, 3, 4))
        with pytest.raises(ValueError, match="fully masked"):
            T.attention(p, x, x, 2, np.full((3, 3), -np.inf))
        x.data[0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite scores"):
            T.attention(p, x, x, 2, causal_mask(3))

    def test_bad_shapes_are_errors(self):
        rng = np.random.default_rng(26)
        p = attention_params(rng, 4)
        with pytest.raises(ShapeError):
            T.attention(p, f64_tensor(rng, (1, 3, 4)), f64_tensor(rng, (1, 3, 4)), 3)
        with pytest.raises(ShapeError):
            T.attention(p, f64_tensor(rng, (1, 3, 4)), f64_tensor(rng, (2, 3, 4)), 2)


def storing_attention(params, q_in, kv_in, heads, mask=None):
    """`T.attention` as it was when its backward read saved q, k, v and
    context arrays: the oracle for the op that rebuilds them."""
    batch, t_q, d = q_in.shape
    t_kv = kv_in.shape[1]
    head_dim = d // heads
    s = 1.0 / np.sqrt(head_dim)
    p = params
    proj_q, proj_k, proj_v, proj_o = [(w.data, w.slot, b.slot) for w, b in (
        (p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv), (p.wo, p.bo))]
    q2 = q_in.data.reshape(-1, d)
    kv2 = kv_in.data.reshape(-1, d)

    def split(x2, steps):
        return x2.reshape(batch, steps, heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    q = split(T._affine(q2, proj_q[0], p.bq.data), t_q)
    k = split(T._affine(kv2, proj_k[0], p.bk.data), t_kv)
    v = split(T._affine(kv2, proj_v[0], p.bv.data), t_kv)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores_dtype = scores.dtype
    scores *= scores_dtype.type(s)
    weights = T._softmax(scores, mask)
    ctx2 = merge(np.matmul(weights, v))
    data = T._affine(ctx2, proj_o[0], p.bo.data).reshape(batch, t_q, d)
    s_q, s_kv = q_in.slot, kv_in.slot

    def backward(g):
        dctx = split(T._affine_backward(ctx2, *proj_o, g.reshape(-1, d), True), t_q)
        dv = np.matmul(weights.transpose(0, 1, 3, 2), dctx).astype(v.dtype, copy=False)
        dweights = np.matmul(dctx, v.transpose(0, 1, 3, 2))
        dscores = T._softmax_backward(weights, dweights).astype(scores_dtype, copy=False)
        dscores = (dscores * s).astype(scores_dtype, copy=False)
        dq = np.matmul(dscores, k).astype(q.dtype, copy=False)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q).astype(k.dtype, copy=False)
        need_q, need_kv = s_q is not None, s_kv is not None
        dv_in = T._affine_backward(kv2, *proj_v, merge(dv), need_kv)
        dk_in = T._affine_backward(kv2, *proj_k, merge(dk), need_kv)
        dq_in = T._affine_backward(q2, *proj_q, merge(dq), need_q)
        if need_kv:
            T._accumulate(s_kv, dv_in.reshape(s_kv.shape))
            T._accumulate(s_kv, dk_in.reshape(s_kv.shape))
        if need_q:
            T._accumulate(s_q, dq_in.reshape(s_q.shape))

    inputs = (q_in, kv_in, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo)
    return T._result(data, inputs, backward)


# (cross, causal mask, parameter dtype, query dtype, key/value dtype)
RECOMPUTE_CASES = {
    "encoder_self_f32": (False, False, np.float32, np.float32, np.float32),
    "decoder_layer1_self_f32_tokens_f64_mask": (False, True, np.float32, np.float32,
                                                np.float32),
    "decoder_self_f64_activations": (False, True, np.float32, np.float64, np.float64),
    "decoder_cross_f64_query_f32_memory": (True, False, np.float32, np.float64, np.float32),
    "cross_f32": (True, False, np.float32, np.float32, np.float32),
    "self_f64": (False, False, np.float64, np.float64, np.float64),
    "self_masked_f64": (False, True, np.float64, np.float64, np.float64),
    "cross_f64": (True, False, np.float64, np.float64, np.float64),
}


class TestAttentionRecompute:
    @pytest.mark.parametrize("case", RECOMPUTE_CASES.values(), ids=RECOMPUTE_CASES.keys())
    def test_value_and_gradients_are_bitwise_those_of_the_storing_op(self, case):
        """Backward rebuilds q, k, v and the context from the saved inputs
        with the forward's own calls, so nothing moves by a bit, whatever
        the mix of float32 and float64 (the float64 causal mask widens the
        decoder's activations)."""
        cross, masked, p_dtype, q_dtype, kv_dtype = case
        rng = np.random.default_rng(27)
        batch, d, heads, t_q = 6, 16, 4, 5
        t_kv = 3 if cross else t_q
        p_data = attention_params(rng, d)
        q_data = rng.standard_normal((batch, t_q, d))
        kv_data = rng.standard_normal((batch, t_kv, d))
        probe = Tensor(rng.standard_normal((batch, t_q, d)), dtype=np.float64)
        mask = causal_mask(t_q) if masked else None
        results = []
        for fn in (storing_attention, T.attention):
            p = SimpleNamespace(**{n: Tensor(t.data, requires_grad=True, dtype=p_dtype)
                                   for n, t in vars(p_data).items()})
            q_in = Tensor(q_data, requires_grad=True, dtype=q_dtype)
            kv_in = Tensor(kv_data, requires_grad=True, dtype=kv_dtype) if cross else q_in
            out = fn(p, q_in, kv_in, heads, mask)
            T.backward(T.tsum(T.mul(out, probe)))
            leaves = [q_in] + ([kv_in] if cross else []) + list(vars(p).values())
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestFeedForward:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        p = FeedForwardParams.create(4, 6, float64_factory(rng))
        p.b1.data[:] = rng.standard_normal(6) / 4  # the factory's zeros, made nonzero
        x = f64_tensor(rng, (2, 3, 4))
        probe = Tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
        leaves = [x, p.w1, p.b1, p.w2, p.b2]
        # no pre-activation within a finite-difference step of relu's kink
        assert np.abs(x.data @ p.w1.data + p.b1.data).min() > 0.02

        def loss():
            return float((T.feed_forward(x, *leaves[1:]).data * probe.data).sum())

        numeric = central_diff(loss, leaves)
        T.backward(T.tsum(T.mul(T.feed_forward(x, *leaves[1:]), probe)))
        for leaf, num in zip(leaves, numeric):
            assert_grads_close(leaf.grad, num)

    @pytest.mark.parametrize("x_dtype, dtype1, dtype2", [
        (np.float32, np.float32, np.float32), (np.float64, np.float32, np.float32),
        (np.float64, np.float64, np.float64), (np.float32, np.float32, np.float64)])
    def test_value_and_gradients_are_bitwise_those_of_linear_relu_linear(self, x_dtype,
                                                                         dtype1, dtype2):
        """As in the model: x also feeds a residual layer_norm, so x's
        gradient is a fan-out sum, and the fused op adds its part at the
        chain's place in the tape order. In the decoder, float64 activations
        meet float32 weights; a float64 second layer over a float32 hidden
        layer checks that the hidden gradient is rounded to float32 first."""
        rng = np.random.default_rng(30)
        shape, d_ff = (40, 3, 16), 32
        x_data = rng.standard_normal(shape)
        p_data = [rng.standard_normal(s) / 4 for s in ((16, d_ff), (d_ff,), (d_ff, 16), (16,))]
        probe = Tensor(rng.standard_normal(shape), dtype=np.float64)
        results = []
        for fused in (False, True):
            x = Tensor(x_data, requires_grad=True, dtype=x_dtype)
            w1, b1, w2, b2 = [Tensor(a, requires_grad=True, dtype=dtype)
                              for a, dtype in zip(p_data, (dtype1, dtype1, dtype2, dtype2))]
            gain = Tensor(np.ones(16), requires_grad=True)
            bias = Tensor(np.zeros(16), requires_grad=True)
            f = (T.feed_forward(x, w1, b1, w2, b2) if fused
                 else T.linear(T.relu(T.linear(x, w1, b1)), w2, b2))
            assert len(T.tape()) == (1 if fused else 3)
            out = T.layer_norm(x, gain, bias, residual=f)
            T.backward(T.tsum(T.mul(out, probe)))
            results.append((f.data, x.grad, w1.grad, b1.grad, w2.grad, b2.grad,
                            gain.grad, bias.grad))
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_bad_shapes_are_errors(self):
        x, w1, b1 = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(5))
        with pytest.raises(ShapeError, match=r"\(2, 4\) x \(3, 5\)"):
            T.feed_forward(Tensor(np.zeros((2, 4))), w1, b1, Tensor(np.zeros((5, 3))),
                           Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            T.feed_forward(x, w1, b1, Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            T.feed_forward(x, w1, b1, Tensor(np.zeros((5, 3))), Tensor(np.zeros(4)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_no_overflow_on_large_logits(self):
        out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_masked_position_has_exactly_zero_weight(self):
        mask = np.array([0.0, -np.inf, 0.0])
        out = T.softmax_lastdim(Tensor([1.0, 5.0, 2.0]), mask=mask)
        assert out.data[1] == 0.0
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax_lastdim(Tensor(rng.standard_normal((5, 7))))
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-5)

    def test_all_masked_row_is_an_error(self):
        mask = np.full(3, -np.inf)
        with pytest.raises(ValueError, match="masked"):
            T.softmax_lastdim(Tensor([1.0, 2.0, 3.0]), mask=mask)

    def test_nan_row_is_reported_as_non_finite_scores(self):
        with pytest.raises(ValueError, match="non-finite scores") as err:
            T.softmax_lastdim(Tensor([[1.0, 2.0], [np.nan, 0.0]]))
        assert "masked" not in str(err.value)
        with pytest.raises(ValueError, match="non-finite scores"):
            T.softmax_lastdim(Tensor([np.nan, 0.0, 1.0]),
                              mask=np.array([0.0, -np.inf, 0.0]))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = f64_tensor(rng, (2, 5))
        w = rng.standard_normal((2, 5))

        def loss():
            return float((T.softmax_lastdim(x).data * w).sum())

        numeric = central_diff(loss, [x])
        T.backward(T.tsum(T.mul(T.softmax_lastdim(x), Tensor(w, dtype=np.float64))))
        assert_grads_close(x.grad, numeric[0])


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.arange(4.0))
        out = T.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, np.tile(np.arange(4.0), (2, 1)), atol=1e-3)

    def test_output_mean_is_bias_mean_with_unit_gain(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 8)))
        gain = Tensor(np.ones(8))
        bias = Tensor(rng.standard_normal(8))
        out = T.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1),
                                   np.full(3, bias.data.mean()), atol=1e-5)

    def test_empty_last_dim_is_an_error(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_residual_of_another_shape_is_an_error(self):
        with pytest.raises(ShapeError, match="residual"):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         residual=Tensor(np.zeros((1, 4))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = f64_tensor(rng, (3, 6))
        gain = f64_tensor(rng, (6,))
        bias = f64_tensor(rng, (6,))
        w = rng.standard_normal((3, 6))
        wt = Tensor(w, dtype=np.float64)

        def loss():
            return float((T.layer_norm(x, gain, bias).data * w).sum())

        numeric = central_diff(loss, [x, gain, bias])
        T.backward(T.tsum(T.mul(T.layer_norm(x, gain, bias), wt)))
        assert_grads_close(x.grad, numeric[0])
        assert_grads_close(gain.grad, numeric[1])
        assert_grads_close(bias.grad, numeric[2])

    def test_residual_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x, r = f64_tensor(rng, (3, 6)), f64_tensor(rng, (3, 6))
        gain, bias = f64_tensor(rng, (6,)), f64_tensor(rng, (6,))
        w = rng.standard_normal((3, 6))
        leaves = [x, r, gain, bias]

        def loss():
            return float((T.layer_norm(x, gain, bias, residual=r).data * w).sum())

        numeric = central_diff(loss, leaves)
        out = T.layer_norm(x, gain, bias, residual=r)
        T.backward(T.tsum(T.mul(out, Tensor(w, dtype=np.float64))))
        for leaf, num in zip(leaves, numeric):
            assert_grads_close(leaf.grad, num)

    @pytest.mark.parametrize("x_dtype, r_dtype", [
        (np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float64)])
    def test_residual_is_bitwise_equal_to_add_then_norm(self, x_dtype, r_dtype):
        """As in the model at B=400: float32 throughout in the encoder; in the
        decoder float64 activations (from the float64 causal mask) meet
        float32 gain and bias."""
        rng = np.random.default_rng(6)
        shape = (400, 4, 64)
        probe = Tensor(rng.standard_normal(shape))
        x_data, r_data = rng.standard_normal(shape), rng.standard_normal(shape)
        gain_data, bias_data = rng.standard_normal(64), rng.standard_normal(64)
        results = []
        for fused in (False, True):
            x = Tensor(x_data, requires_grad=True, dtype=x_dtype)
            r = Tensor(r_data, requires_grad=True, dtype=r_dtype)
            gain = Tensor(gain_data, requires_grad=True)
            bias = Tensor(bias_data, requires_grad=True)
            out = (T.layer_norm(x, gain, bias, residual=r) if fused
                   else T.layer_norm(T.add(x, r), gain, bias))
            T.backward(T.tsum(T.mul(out, probe)))
            results.append((out.data, x.grad, r.grad, gain.grad, bias.grad))
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the forward in mean() and ** 2, as the op computed it before
        s = x_data.astype(x_dtype) + r_data.astype(r_dtype)
        mu = s.mean(axis=-1, keepdims=True)
        var = ((s - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (s - mu) * (1.0 / np.sqrt(var + 1e-5))
        want = gain_data.astype(np.float32) * xhat + bias_data.astype(np.float32)
        assert results[1][0].tobytes() == want.tobytes()


class TestElementwise:
    def test_dropout_is_identity_at_inference(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        state = T.get_rng().bit_generator.state
        assert T.dropout(x, 0.0) is x
        assert T.get_rng().bit_generator.state == state

    def test_dropout_scales_survivors(self):
        T.seed_all(7)
        x = Tensor(np.ones(10000), requires_grad=True)
        out = T.dropout(x, 0.25)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, atol=1e-6)
        assert abs(len(kept) / 10000 - 0.75) < 0.02

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_output_mask_is_the_input_mask_bit_for_bit(self, dtype):
        """relu's backward masks by its output, max(x, 0) > 0, so the input
        array need not be kept; that is exactly x > 0 for every float."""
        info = np.finfo(dtype)
        x = np.array([1.5, -1.5, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.max,
                      -info.max, info.tiny, -info.tiny, info.smallest_subnormal,
                      -info.smallest_subnormal, 3 * info.smallest_subnormal], dtype=dtype)
        g = np.linspace(-2.0, 2.0, x.size).astype(dtype)
        a = Tensor(x, requires_grad=True, dtype=dtype)
        T.relu(a)
        _, backward = T.tape()[-1]
        backward(g)
        assert np.array_equal(np.maximum(x, 0) > 0, x > 0)
        assert a.grad.dtype == dtype
        assert a.grad.tobytes() == (g * (x > 0)).tobytes()

    @pytest.mark.parametrize("p", [1.0, -0.1, float("nan")])
    def test_dropout_rejects_a_rate_outside_0_1(self, p):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            T.dropout(Tensor(np.ones(3)), p)

    def test_embedding_lookup_returns_row(self):
        table = Tensor(np.arange(12 * 3, dtype=np.float32).reshape(12, 3))
        out = T.embedding_lookup(table, np.array([11]))
        np.testing.assert_array_equal(out.data[0], table.data[11])

    def test_embedding_lookup_repeated_index_gradient_matches_add_at(self):
        rng = np.random.default_rng(27)
        table = f64_tensor(rng, (5, 3))
        idx = np.array([[4, 1, 4], [0, 4, 1]])
        g = rng.standard_normal((2, 3, 3))
        T.backward(T.tsum(T.mul(T.embedding_lookup(table, idx),
                                Tensor(g, dtype=np.float64))))
        expected = np.zeros((5, 3))
        np.add.at(expected, idx.reshape(-1), g.reshape(-1, 3))
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=1e-12)
        assert (table.grad[[2, 3]] == 0).all()

    def test_embedding_lookup_out_of_range_names_index(self):
        table = Tensor(np.zeros((12, 3)))
        with pytest.raises(IndexError, match="12"):
            T.embedding_lookup(table, np.array([12]))

    def test_sum_backward_through_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_fanout_gradients_are_summed(self):
        x = Tensor([3.0], requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
        T.backward(T.tsum(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_concat_and_slice_roundtrip_gradients(self):
        rng = np.random.default_rng(6)
        a = f64_tensor(rng, (2, 3))
        b = f64_tensor(rng, (2, 2))
        out = T.concat([a, b], axis=-1)
        T.backward(T.tsum(T.slice_lastdim(out, 1, 4)))
        np.testing.assert_allclose(a.grad, [[0, 1, 1], [0, 1, 1]])
        np.testing.assert_allclose(b.grad, [[1, 0], [1, 0]])

    def test_bias_add_broadcast(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.arange(3.0), requires_grad=True)
        T.backward(T.tsum(T.add(x, b)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_incompatible_add_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(AutodiffError, match="scalar"):
            T.backward(y)

    def test_double_backward_without_reforward_errors(self):
        x = Tensor([2.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        T.backward(loss)
        with pytest.raises(AutodiffError, match="empty"):
            T.backward(loss)

    def test_raising_backward_closure_leaves_the_tape_empty(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def fail(g):
            raise RuntimeError("backward failed")

        loss = T.tsum(T._result(x.data * 2, (x,), fail))
        with pytest.raises(RuntimeError, match="backward failed"):
            T.backward(loss)
        assert len(T.tape()) == 0

    def test_loss_that_requires_no_grad_is_an_error_and_clears_the_tape(self):
        T.tsum(Tensor([1.0, 2.0], requires_grad=True))
        with pytest.raises(AutodiffError, match="does not require grad"):
            T.backward(T.tsum(Tensor([3.0])))
        assert len(T.tape()) == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_gradient_is_g_times_the_scaled_keep_mask(self, dtype):
        """The gradient is the incoming one times the forward's scaled mask,
        bit for bit; the decoder runs dropout in float64."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 5)), requires_grad=True, dtype=dtype)
        g = rng.standard_normal((6, 5)).astype(dtype)
        p = 0.3
        T.seed_all(21)
        out = T.dropout(x, p)
        T.backward(T.tsum(T.mul(out, Tensor(g, dtype=dtype))))  # out.grad is g
        T.seed_all(21)
        mask = (T.get_rng().random(x.shape) >= p).astype(dtype) / np.dtype(dtype).type(1 - p)
        assert out.data.tobytes() == (x.data * mask).tobytes()
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == (g * mask).tobytes()

    def test_constant_loss_gives_zero_gradients(self):
        x = Tensor([5.0], requires_grad=True)
        loss = T.tsum(T.scale(x, 0.0))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [0.0])

    def test_outer_product_structure(self):
        rng = np.random.default_rng(8)
        w = f64_tensor(rng, (3, 4))
        x = Tensor(rng.standard_normal((4, 2)), dtype=np.float64)

        def loss():
            return float(T.tsum(T.matmul(w, x)).data)

        numeric = central_diff(loss, [w])
        T.backward(T.tsum(T.matmul(w, x)))
        assert_grads_close(w.grad, numeric[0])
        # dW for sum(Wx) is the outer-product structure ones @ x^T
        expected = np.ones((3, 1)) @ x.data.sum(axis=1, keepdims=True).T
        assert_grads_close(w.grad, expected)

    def test_forward_determinism_with_dropout_seeded(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        T.seed_all(99)
        a = T.dropout(x, 0.5).data.copy()
        T.tape().clear()
        T.seed_all(99)
        b = T.dropout(x, 0.5).data.copy()
        np.testing.assert_array_equal(a, b)
