import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from prbforecast import model as model_module
from prbforecast import tensor as T
from prbforecast.embedding import embed_tokens
from prbforecast.model import (MAX_PARAMS, DecoderOutput, ForecastModel, Hyperparams,
                               causal_mask, param_count)
from prbforecast.training import total_loss

from conftest import assert_grads_close, central_diff, float64_factory

TINY = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                   n_past=2, n_future=2)


def tiny_model(seed=0, dtype=np.float32):
    T.seed_all(seed)
    return ForecastModel(TINY, float64_factory(T.get_rng()) if dtype is np.float64 else None)


def make_batch(hp, batch=1, seed=3):
    rng = np.random.default_rng(seed)
    enc_x = rng.random((batch, hp.n_past, 9)).astype(np.float32)
    targets = rng.random((batch, hp.n_future, 9)).astype(np.float32)

    def meta(steps):
        return np.stack([
            rng.integers(0, 12, (batch, steps)),
            rng.integers(0, 7, (batch, steps)),
            rng.integers(0, 24, (batch, steps)),
            rng.integers(0, 4, (batch, steps)),
            rng.integers(0, 21, (batch, steps)),
        ], axis=-1)

    return enc_x, meta(hp.n_past), targets, meta(hp.n_future)


class TestShapes:
    def test_default_config_encoder_shape(self):
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, _, _ = make_batch(hp)
        with T.no_grad():
            tokens = embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos)
            z = model.encode(tokens)
        assert z.shape == (1, 4, 64)

    def test_default_config_decoder_shapes(self):
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, _, dec_meta = make_batch(hp)
        out = model.forward_block(enc_x[:1], enc_meta[:1], dec_meta[:1])
        assert out.det.shape == (1, 2, 8)
        assert out.quantiles.shape == (1, 2, 3)


class TestEncoder:
    def test_permuting_timesteps_changes_output(self):
        hp = Hyperparams()
        T.seed_all(1)
        model = ForecastModel(hp)
        enc_x, enc_meta, _, _ = make_batch(hp, seed=5)
        with T.no_grad():
            z1 = model.encode(embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos))
            z2 = model.encode(embed_tokens(
                model.embed, enc_x[:, ::-1].copy(), enc_meta[:, ::-1].copy(), model.embed.enc_pos))
        assert not np.allclose(z1.data, z2.data)

    def test_encoder_gradient_matches_finite_differences(self):
        model = tiny_model(seed=2, dtype=np.float64)
        hp = model.hp
        enc_x, enc_meta, _, _ = make_batch(hp, seed=7)
        w = np.random.default_rng(0).standard_normal((1, hp.n_past, hp.d_emb))
        params = model.params()

        def loss():
            tokens = embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos)
            return float((model.encode(tokens).data * w).sum())

        numeric = central_diff(loss, params)
        tokens = embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos)
        z = model.encode(tokens)
        T.backward(T.tsum(T.mul(z, T.Tensor(w, dtype=np.float64))))
        for p, num in zip(params, numeric):
            if p.grad is None:
                assert np.allclose(num, 0.0, atol=1e-6)
            else:
                assert_grads_close(p.grad, num)


class TestDecoder:
    def test_causality_step1_unaffected_by_step2_input(self):
        hp = Hyperparams()
        T.seed_all(4)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, seed=9)
        with T.no_grad():
            tokens = embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos)
            z = model.encode(tokens)

            def run(dec_cont):
                dec_tokens = embed_tokens(model.embed, dec_cont, dec_meta, model.embed.dec_pos)
                det, quant = model.decode(z, dec_tokens)
                return det.data.copy(), quant.data.copy()

            base = np.zeros((1, hp.n_future, 9), dtype=np.float32)
            perturbed = base.copy()
            perturbed[0, 1, :] = 7.5
            det_a, quant_a = run(base)
            det_b, quant_b = run(perturbed)
        np.testing.assert_array_equal(det_a[0, 0], det_b[0, 0])
        np.testing.assert_array_equal(quant_a[0, 0], quant_b[0, 0])
        assert not np.array_equal(det_a[0, 1], det_b[0, 1])

    def test_cross_attention_depends_on_history(self):
        hp = Hyperparams()
        T.seed_all(4)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, seed=9)
        with T.no_grad():
            tokens = embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos)
            z = model.encode(tokens)
            dec_tokens = embed_tokens(
                model.embed, np.zeros((1, hp.n_future, 9), dtype=np.float32),
                dec_meta, model.embed.dec_pos)
            det_a, _ = model.decode(z, dec_tokens)
            zero_z = T.Tensor(np.zeros_like(z.data))
            dec_tokens = embed_tokens(
                model.embed, np.zeros((1, hp.n_future, 9), dtype=np.float32),
                dec_meta, model.embed.dec_pos)
            det_b, _ = model.decode(zero_z, dec_tokens)
        assert not np.allclose(det_a.data, det_b.data)

    def test_causal_mask_structure(self):
        mask = causal_mask(3)
        assert mask[0, 1] == -np.inf and mask[0, 2] == -np.inf
        assert mask[2, 0] == 0.0 and mask[1, 1] == 0.0

    def test_causal_mask_is_built_once_per_size_and_read_only(self):
        mask = causal_mask(4)
        assert causal_mask(4) is mask and causal_mask(3) is not mask
        assert mask.dtype == np.float64 and not mask.flags.writeable
        np.testing.assert_array_equal(mask, np.triu(np.full((4, 4), -np.inf), k=1))


class TestNamedParams:
    def test_tiny_manifest_names_and_shapes(self):
        """The checkpoint manifest: every tensor, in field order."""
        attn = [(f"{w}{x}", shape) for x in "qkvo"
                for w, shape in (("w", (4, 4)), ("b", (4,)))]
        ff = [("w1", (4, 8)), ("b1", (8,)), ("w2", (8, 4)), ("b2", (4,))]

        def ln(*names):
            return [(f"{n}.{p}", (4,)) for n in names for p in ("gain", "bias")]

        expected = (
            [("embed.w_proj", (9, 4)), ("embed.b_proj", (4,)), ("embed.enc_pos", (2, 4)),
             ("embed.dec_pos", (2, 4)), ("embed.month", (12, 4)), ("embed.weekday", (7, 4)),
             ("embed.hour", (24, 4)), ("embed.minute", (4, 4)), ("embed.carrier", (21, 4))]
            + [(f"enc.0.attn.{n}", s) for n, s in attn]
            + [(f"enc.0.ff.{n}", s) for n, s in ff]
            + [(f"enc.0.{n}", s) for n, s in ln("ln1", "ln2")]
            + [(f"dec.0.self_attn.{n}", s) for n, s in attn]
            + [(f"dec.0.cross_attn.{n}", s) for n, s in attn]
            + [(f"dec.0.ff.{n}", s) for n, s in ff]
            + [(f"dec.0.{n}", s) for n, s in ln("ln1", "ln2", "ln3")]
            + [("head.w", (4, 11)), ("head.b", (11,))])
        assert [(n, p.shape) for n, p in tiny_model().named_params()] == expected


class TestTeacherForcing:
    def test_step0_continuous_input_is_zero(self):
        model = tiny_model()
        targets = np.arange(18, dtype=np.float32).reshape(1, 2, 9)
        shifted = model._decoder_continuous_teacher(targets)
        np.testing.assert_array_equal(shifted[0, 0], np.zeros(9))
        np.testing.assert_array_equal(shifted[0, 1], targets[0, 0])

    def test_deterministic_without_dropout(self):
        hp = Hyperparams()
        T.seed_all(6)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, seed=11)
        with T.no_grad():
            det_a, quant_a = model.forward_training(enc_x, enc_meta, targets,
                                                    dec_meta, training=False)
            det_b, quant_b = model.forward_training(enc_x, enc_meta, targets,
                                                    dec_meta, training=False)
        np.testing.assert_array_equal(det_a.data, det_b.data)
        np.testing.assert_array_equal(quant_a.data, quant_b.data)

    @pytest.mark.parametrize("dropout, training", [(0.1, None), (0.1, False), (0.0, True)],
                             ids=["forward_block", "not_training", "training_at_rate_0"])
    def test_a_rate_0_forward_draws_no_random_numbers(self, dropout, training):
        """Dropout is off exactly when its rate is 0: inference and a training
        forward at `dropout=0.0` leave the run-level generator untouched."""
        T.seed_all(8)
        model = ForecastModel(Hyperparams(dropout=dropout))
        enc_x, enc_meta, targets, dec_meta = make_batch(model.hp, batch=3, seed=13)
        state = T.get_rng().bit_generator.state
        if training is None:
            model.forward_block(enc_x, enc_meta, dec_meta)
        else:
            model.forward_training(enc_x, enc_meta, targets, dec_meta, training=training)
        assert T.get_rng().bit_generator.state == state


class TestTapeOps:
    def test_default_training_forward_records_few_ops(self):
        """Projections, attention blocks, feed-forward blocks, residual norms,
        embedding sums and the loss are fused tape ops: the forward records 48
        and the loss one more (59 with each feed-forward block as `linear`,
        `relu`, `linear`). Composing them from matmul, add, embedding_lookup,
        reshape, etc. would record 306."""
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=400)
        det, quant = model.forward_training(enc_x, enc_meta, targets, dec_meta,
                                            training=True)
        total_loss(det, quant, targets, 0.9, 1.2)
        assert len(T.tape()) <= 49

    def test_backward_peak_memory_stays_near_the_forward_activations(self):
        """Backward frees each op's saved arrays once its closure has run, and
        attention and feed_forward rebuild their intermediates there, so the
        traced peak of a B=64 forward, loss and backward reads 3.3 MB. Saving
        the projections and hidden layers instead read 6.4 MB, and a backward
        that keeps the whole tape until the end 7.1 MB. (Against the 2.3 MB
        the forward leaves live, the rebuilt arrays make the ratio 1.4x.)"""
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=64)
        tracemalloc.start()
        try:
            det, quant = model.forward_training(enc_x, enc_meta, targets, dec_meta,
                                                training=True)
            loss = total_loss(det, quant, targets, 0.9, 1.2)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6, f"backward peak {peak} B, forward live {live} B"

    def test_tape_holds_slots_and_no_backward_captures_a_tensor(self):
        """Each tape entry is (output slot, backward), and a backward closure
        captures only the slots it adds into and the arrays it reads, never a
        tensor (nor does any function, tuple, list or dict it captures)."""
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=8)
        det, quant = model.forward_training(enc_x, enc_meta, targets, dec_meta)
        total_loss(det, quant, targets, 0.9, 1.2)

        def captured(obj, seen):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            yield obj
            if callable(obj) and getattr(obj, "__closure__", None):
                inner = [cell.cell_contents for cell in obj.__closure__]
            elif isinstance(obj, (tuple, list)):
                inner = obj
            elif isinstance(obj, dict):
                inner = obj.values()
            else:
                return
            for item in inner:
                yield from captured(item, seen)

        assert len(T.tape()) == 49
        for slot, backward in T.tape():
            assert isinstance(slot, T.Slot)
            held = [type(x).__name__ for x in captured(backward, set())
                    if isinstance(x, T.Tensor)]
            assert not held, f"{backward.__qualname__} captures {held}"

    def test_op_outputs_no_backward_reads_die_while_the_tape_lives(self, monkeypatch):
        """Every array `_affine` returns in a forward and loss is freed as soon
        as the forward drops it, while the tape still holds its ops: attention
        rebuilds q, k and v in backward, feed_forward its hidden layer, and no
        backward reads a projection's output (dropout keeps its mask, the
        residual norm its normalized sum, embedding_sum its indices). Only the
        head output, which det and quant view, stays."""
        made = []
        affine = T._affine

        def traced_affine(*args):
            out = affine(*args)
            made.append(weakref.ref(out))
            return out

        def base(arr):
            while arr.base is not None:
                arr = arr.base
            return arr

        monkeypatch.setattr(T, "_affine", traced_affine)
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=8)
        det, quant = model.forward_training(enc_x, enc_meta, targets, dec_meta)
        loss = total_loss(det, quant, targets, 0.9, 1.2)
        gc.collect()
        assert len(T.tape()) == 49
        # 2 token projections; per encoder layer 4 in attention and 2 in the
        # feed-forward block; per decoder layer 4 in each attention and 2 in
        # the feed-forward block; the head
        assert len(made) == 2 + 2 * 6 + 3 * 10 + 1
        alive = [arr for arr in (r() for r in made) if arr is not None]
        assert len(alive) == 1 and alive[0] is base(det.data) is base(quant.data)
        T.backward(loss)

    def test_forward_and_loss_leave_at_most_16_mb_live_at_b400(self):
        """Traced bytes that a default training forward and loss leave live at
        B=400: about 14 MB when attention and feed_forward save only their
        inputs and the softmax weights, 35 MB when they saved their
        projections and hidden layers, 55 MB when the tape held every op's
        output tensor."""
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=400)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            det, quant = model.forward_training(enc_x, enc_meta, targets, dec_meta)
            total_loss(det, quant, targets, 0.9, 1.2)
            live = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert live <= 16e6, f"{live / 1e6:.1f} MB live after forward and loss"

    def test_forward_block_leaves_the_tape_empty(self):
        hp = Hyperparams()
        T.seed_all(0)
        model = ForecastModel(hp)
        enc_x, enc_meta, _, dec_meta = make_batch(hp, batch=3)
        model.forward_block(enc_x, enc_meta, dec_meta)
        assert len(T.tape()) == 0


class TestInferenceBlock:
    def test_repeated_calls_bit_identical(self):
        hp = Hyperparams()
        T.seed_all(8)
        model = ForecastModel(hp)
        enc_x, enc_meta, _, dec_meta = make_batch(hp, seed=13)
        a = model.forward_block(enc_x, enc_meta, dec_meta)
        b = model.forward_block(enc_x, enc_meta, dec_meta)
        np.testing.assert_array_equal(a.det, b.det)
        np.testing.assert_array_equal(a.quantiles, b.quantiles)

    def test_equals_training_forward_on_zero_targets(self):
        """Both passes share one forward: with zero targets the teacher-forced
        decoder inputs are the block's zeros, so only the sort and clip differ."""
        hp = Hyperparams()
        T.seed_all(8)
        model = ForecastModel(hp)
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, batch=5, seed=21)
        out = model.forward_block(enc_x, enc_meta, dec_meta)
        det, quant = model.forward_training(enc_x, enc_meta, np.zeros_like(targets),
                                            dec_meta, training=False)
        np.testing.assert_array_equal(out.det, det.data)
        np.testing.assert_array_equal(
            out.quantiles, np.clip(np.sort(quant.data, axis=-1), 0.0, 1.0))

    def test_quantiles_monotone_and_bounded(self):
        hp = Hyperparams()
        T.seed_all(8)
        model = ForecastModel(hp)
        for seed in range(5):
            enc_x, enc_meta, _, dec_meta = make_batch(hp, seed=seed)
            out = model.forward_block(enc_x, enc_meta, dec_meta)
            assert (np.diff(out.quantiles, axis=-1) >= 0).all()
            assert (out.quantiles >= 0).all() and (out.quantiles <= 1).all()


class TestParamCount:
    def test_default_config_within_budget(self):
        count = param_count(Hyperparams())
        assert 2.90e5 <= count <= 3.20e5

    def test_matches_hand_enumeration_tiny(self):
        hp = TINY
        d = 4
        embed = 9 * d + d + 2 * d + 2 * d + (12 + 7 + 24 + 4 + 21) * d
        attn = 4 * (d * d + d)
        ff = d * 8 + 8 + 8 * d + d
        enc = attn + ff + 2 * (2 * d)
        dec = 2 * attn + ff + 3 * (2 * d)
        head = d * 11 + 11
        assert param_count(hp) == embed + enc + dec + head

    def test_closed_form_matches_instantiated_tensors(self):
        for hp in (TINY, Hyperparams()):
            T.seed_all(0)
            model = ForecastModel(hp)
            assert sum(p.data.size for p in model.params()) == param_count(hp)

    def test_doubling_dff_changes_count_per_ff_layer(self):
        hp = Hyperparams()
        doubled = Hyperparams(d_ff=512)
        n_ff_layers = hp.n_enc_layers + hp.n_dec_layers
        # both weight matrices double (2*d_emb*d_ff) and the hidden bias
        # doubles (d_ff); the output bias stays d_emb
        delta_per_layer = 2 * hp.d_emb * hp.d_ff + hp.d_ff
        assert param_count(doubled) - param_count(hp) == n_ff_layers * delta_per_layer


class TestModelSizeLimit:
    @pytest.fixture
    def no_drawing(self, monkeypatch):
        def refuse(rng):
            raise AssertionError("a weight was drawn")
        monkeypatch.setattr(model_module, "drawing_factory", refuse)

    def test_oversized_model_is_refused_naming_its_count(self, no_drawing):
        count = param_count(Hyperparams(d_ff=10 ** 7))
        with pytest.raises(ValueError, match=f"a model of {count} parameters"):
            Hyperparams.from_dict({"d_ff": 10 ** 7})

    def test_limit_is_inclusive(self, no_drawing):
        # param_count grows by the same amount for each unit of d_ff
        per_unit = param_count(Hyperparams(d_ff=2)) - param_count(Hyperparams(d_ff=1))
        widest = 1 + (MAX_PARAMS - param_count(Hyperparams(d_ff=1))) // per_unit
        assert param_count(Hyperparams(d_ff=widest)) <= MAX_PARAMS
        assert Hyperparams.from_dict({"d_ff": widest}).d_ff == widest
        with pytest.raises(ValueError, match=f"more than the {MAX_PARAMS} allowed"):
            Hyperparams.from_dict({"d_ff": widest + 1})


class TestFullGradient:
    def test_tiny_model_total_loss_gradcheck(self):
        model = tiny_model(seed=5, dtype=np.float64)
        hp = model.hp
        enc_x, enc_meta, targets, dec_meta = make_batch(hp, seed=17)
        params = model.params()

        def loss():
            det, quant = model.forward_training(enc_x, enc_meta, targets,
                                                dec_meta, training=False)
            return float(total_loss(det, quant, targets, 0.9, 1.2,
                                    hp.quantiles).data)

        numeric = central_diff(loss, params)
        det, quant = model.forward_training(enc_x, enc_meta, targets,
                                            dec_meta, training=False)
        T.backward(total_loss(det, quant, targets, 0.9, 1.2, hp.quantiles))
        for (name, p), num in zip(model.named_params(), numeric):
            analytic = p.grad if p.grad is not None else np.zeros_like(num)
            assert analytic.dtype == np.float64, f"{name} gradient is {analytic.dtype}"
            np.testing.assert_allclose(analytic, num, rtol=1e-3, atol=1e-5,
                                       err_msg=f"gradient mismatch for {name}")
