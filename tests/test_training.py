import dataclasses
import hashlib
import logging
import re

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.data import N_CARRIERS, STEP, Normalizer, sample_dtype
from prbforecast.model import QUANTILES, ForecastModel, Hyperparams
from prbforecast.synth import default_profiles
from prbforecast.tensor import Tensor
from prbforecast.training import (AdamState, CheckpointError, TrainConfig,
                                  TrainingError, adam_step, checkpoint_bytes,
                                  clip_gradients, load_checkpoint,
                                  save_checkpoint, total_loss, train)

from conftest import append_float, central_diff, drop_float, edit_header

TINY = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                   n_past=2, n_future=2)


def make_samples(n, hp=TINY, seed=0):
    """Random windows, each at a random grid instant of 2024 for a random
    carrier, so its calendar rows are those of real instants."""
    rng = np.random.default_rng(seed)
    samples = np.empty(n, sample_dtype(hp.n_past, hp.n_future))
    samples["enc_x"] = rng.random((n, hp.n_past, 9))
    samples["targets"] = rng.random((n, hp.n_future, 9))
    samples["start"] = np.datetime64("2024-01-01T00:00") + rng.integers(0, 366 * 96, n) * STEP
    samples["carrier"] = rng.integers(0, N_CARRIERS, n)
    return samples


class TestPinball:
    """The pinball part of `total_loss`, one quantile column at a time: the
    KPI columns and the other quantile columns equal the truth, so only
    column i contributes, with beta = 1."""

    @staticmethod
    def pinball(y, pred, i):
        y = np.asarray(y, dtype=np.float32).reshape(-1, 1)
        targets = np.zeros(y.shape + (9,), dtype=np.float32)
        targets[..., 8] = y
        quant = np.repeat(y[..., None], 3, axis=-1)
        quant[..., i] = pred
        det = Tensor(np.zeros(y.shape + (8,), dtype=np.float32))
        return float(total_loss(det, Tensor(quant), targets, 0.9, 1.0).data)

    def test_exact_hit_is_zero(self):
        assert self.pinball([1.0], 1.0, 1) == 0.0

    def test_underprediction_penalty(self):
        assert self.pinball([1.0], 0.6, 2) == pytest.approx(0.9 * 0.4, abs=1e-7)

    def test_overprediction_penalty(self):
        assert self.pinball([0.2], 0.6, 2) == pytest.approx(0.1 * 0.4, abs=1e-7)

    def test_minimizer_is_empirical_quantile_by_grid_search(self):
        # with q*n an integer the pinball minimizer is a flat interval of
        # constants; the empirical quantile must attain the grid minimum
        sample = np.arange(0.05, 1.0, 0.1)
        candidates = np.arange(0.0, 1.0001, 0.005)
        for i, q in enumerate(QUANTILES):
            with T.no_grad():
                losses = [self.pinball(sample, c, i) for c in candidates]
                at_quantile = self.pinball(sample, np.quantile(sample, q), i)
            assert at_quantile <= min(losses) + 1e-6


def composed_total_loss(det, quant, targets, alpha, beta):
    """The objective built from separate tensor ops: the reference the fused
    `total_loss` must match bit for bit."""
    dtype = det.data.dtype
    det_target = Tensor(targets[..., :8], dtype=dtype)
    residual = Tensor(targets[..., 8], dtype=dtype)
    err = T.sub(det, det_target)
    loss = T.scale(T.mean(T.mul(err, err)), alpha)
    for i, q in enumerate(QUANTILES):
        pred = T.reshape(T.slice_lastdim(quant, i, i + 1), residual.shape)
        under = T.relu(T.sub(residual, pred))
        over = T.relu(T.sub(pred, residual))
        pinball = T.mean(T.add(T.scale(under, q), T.scale(over, 1.0 - q)))
        loss = T.add(loss, T.scale(pinball, beta))
    return loss


class TestFusedLoss:
    @staticmethod
    def _inputs(dtype, batch=400, steps=2, seed=0):
        """A head output as in training (float32 targets; a float64 head
        comes from the float64 causal mask), with exact ties in both parts."""
        rng = np.random.default_rng(seed)
        targets = rng.random((batch, steps, 9)).astype(np.float32)
        head = rng.random((batch, steps, 11)).astype(dtype)
        head[::7, :, 2] = targets[::7, :, 2]
        head[::5, :, 9] = targets[::5, :, 8]
        head[::11, :, 8] = targets[::11, :, 8]
        return head, targets

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_composed_ops(self, dtype):
        head_data, targets = self._inputs(dtype)
        results = []
        for loss_fn in (composed_total_loss, total_loss):
            head = Tensor(head_data, requires_grad=True, dtype=dtype)
            det, quant = T.slice_lastdim(head, 0, 8), T.slice_lastdim(head, 8, 11)
            loss = loss_fn(det, quant, targets, 0.9, 1.2)
            T.backward(T.scale(loss, 0.7))  # an upstream gradient other than 1
            results.append((loss.data, det.grad, quant.grad, head.grad))
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        targets = rng.random((3, 2, 9))
        # keep every quantile prediction at least 0.05 from its target, so
        # the finite differences never step across a pinball kink
        gaps = rng.uniform(0.05, 0.3, (3, 2, 3)) * rng.choice([-1.0, 1.0], (3, 2, 3))
        det = Tensor(rng.random((3, 2, 8)), requires_grad=True, dtype=np.float64)
        quant = Tensor(targets[..., 8:9] + gaps, requires_grad=True, dtype=np.float64)
        numeric = central_diff(
            lambda: float(total_loss(det, quant, targets, 0.9, 1.2).data), [det, quant])
        T.backward(total_loss(det, quant, targets, 0.9, 1.2))
        assert det.grad.dtype == quant.grad.dtype == np.float64
        np.testing.assert_allclose(det.grad, numeric[0], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(quant.grad, numeric[1], rtol=1e-6, atol=1e-9)


class TestTotalLoss:
    def setup_method(self):
        T.seed_all(0)

    def test_perfect_prediction_is_zero(self):
        target = np.random.default_rng(0).random((2, 2, 9)).astype(np.float32)
        det = Tensor(target[..., :8])
        quant = Tensor(np.repeat(target[..., 8:9], 3, axis=-1))
        loss = total_loss(det, quant, target, 0.9, 1.2)
        assert float(loss.data) == 0.0

    def test_beta_zero_reduces_to_alpha_mse(self):
        rng = np.random.default_rng(1)
        target = rng.random((3, 2, 9)).astype(np.float32)
        det = Tensor(rng.random((3, 2, 8)).astype(np.float32))
        quant = Tensor(rng.random((3, 2, 3)).astype(np.float32))
        loss = total_loss(det, quant, target, 0.7, 1e-9)
        mse = np.mean((det.data - target[..., :8]) ** 2)
        assert float(loss.data) == pytest.approx(0.7 * mse, rel=1e-4)

    def test_hand_computed_single_step(self):
        # one step, alpha=0.9, beta=1.2, arithmetic done by hand:
        # det error 0.1 in one of 8 columns -> mse = 0.01/8 = 0.00125
        # residual truth 0.5; predictions (0.4, 0.5, 0.7) at q=(0.1,0.5,0.9)
        # pinball: 0.1*(0.5-0.4)=0.01; 0; (1-0.9)*(0.7-0.5)=0.02 -> sum 0.03
        # total = 0.9*0.00125 + 1.2*0.03 = 0.037125
        target = np.zeros((1, 1, 9), dtype=np.float32)
        target[0, 0, 8] = 0.5
        det = np.zeros((1, 1, 8), dtype=np.float32)
        det[0, 0, 0] = 0.1
        quant = np.array([[[0.4, 0.5, 0.7]]], dtype=np.float32)
        loss = total_loss(Tensor(det), Tensor(quant), target, 0.9, 1.2)
        assert float(loss.data) == pytest.approx(0.037125, abs=1e-6)

    def test_nonnegative_and_zero_only_at_exact_match(self):
        rng = np.random.default_rng(2)
        target = rng.random((2, 2, 9)).astype(np.float32)
        det = Tensor(rng.random((2, 2, 8)).astype(np.float32))
        quant = Tensor(rng.random((2, 2, 3)).astype(np.float32))
        assert float(total_loss(det, quant, target, 0.9, 1.2).data) > 0.0


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        state = AdamState([p])
        adam_step([p], state, lr=0.01)
        assert float(p.data[0]) == pytest.approx(-0.01, rel=1e-4)

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        adam_step([p], AdamState([p]), lr=0.01, weight_decay=0.0)
        assert float(p.data[0]) == 3.0

    def test_monotone_approach_on_quadratic(self):
        # scalar reference problem f(x) = (x-3)^2 from x=0: the gap shrinks
        # monotonically after warmup (before the oscillatory regime)
        p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        state = AdamState([p])
        gaps = []
        for _ in range(200):
            p.grad = 2.0 * (p.data - 3.0)
            adam_step([p], state, lr=0.01)
            gaps.append(abs(float(p.data[0]) - 3.0))
        assert all(b <= a + 1e-6 for a, b in zip(gaps[10:-1], gaps[11:]))
        assert gaps[-1] < gaps[0] * 0.5

    def test_nan_gradient_aborts(self):
        p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError):
            adam_step([p], AdamState([p]), lr=0.01)

    def test_decoupled_weight_decay_shrinks_before_update(self):
        p = Tensor(np.array([10.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        adam_step([p], AdamState([p]), lr=0.1, weight_decay=0.5)
        assert float(p.data[0]) == pytest.approx(10.0 * (1 - 0.1 * 0.5), rel=1e-6)


class TestClip:
    def _params(self, grads):
        out = []
        for g in grads:
            p = Tensor(np.zeros_like(g), requires_grad=True)
            p.grad = np.asarray(g, dtype=np.float32)
            out.append(p)
        return out

    def test_below_threshold_unchanged(self):
        params = self._params([np.array([0.3, 0.4])])  # norm 0.5
        assert clip_gradients(params, 1.0) == 1.0
        np.testing.assert_allclose(params[0].grad, [0.3, 0.4])

    def test_above_threshold_rescaled_to_max(self):
        params = self._params([np.array([1.2, 1.6])])  # norm 2.0
        clip_gradients(params, 1.0)
        norm = np.linalg.norm(params[0].grad)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_direction_preserved(self):
        g = np.array([3.0, -4.0, 12.0])
        params = self._params([g])
        clip_gradients(params, 1.0)
        cos = np.dot(params[0].grad, g) / (np.linalg.norm(params[0].grad) * np.linalg.norm(g))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rng.standard_normal(7) * rng.uniform(0.1, 5)
            before = np.linalg.norm(g)
            params = self._params([g])
            clip_gradients(params, 1.0)
            assert np.linalg.norm(params[0].grad) <= before + 1e-6


class TestTrainLoop:
    def test_patience_counting_stops_at_epoch_12(self, monkeypatch):
        # val losses 1.0 then 0.9 repeated: stop after 10 stale epochs
        fake_vals = iter([1.0, 0.9] + [0.9] * 30)
        import prbforecast.training as tr
        monkeypatch.setattr(tr, "_evaluate_loss",
                            lambda *a, **k: next(fake_vals))
        cfg = TrainConfig(epochs=50, batch_size=4, lr=1e-4, patience=10, seed=1)
        _, history = train(make_samples(8), make_samples(4, seed=1), TINY, cfg)
        assert len(history) == 12
        assert history[-1]["stopped"] is True

    def test_loss_decreases_on_desk_scale_run(self):
        cfg = TrainConfig(epochs=20, batch_size=16, lr=3e-3, patience=20, seed=3)
        _, history = train(make_samples(50, seed=2), make_samples(10, seed=4),
                           TINY, cfg)
        assert history[-1]["train_loss"] < history[0]["train_loss"] * 0.8

    def test_identical_run_reproduces_checkpoint_bytes(self):
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, patience=10, seed=7)
        norm = Normalizer(mins=np.zeros(8), maxs=np.ones(8))
        m1, _ = train(make_samples(12, seed=5), make_samples(4, seed=6), TINY, cfg)
        b1 = checkpoint_bytes(m1, cfg, norm)
        m2, _ = train(make_samples(12, seed=5), make_samples(4, seed=6), TINY, cfg)
        b2 = checkpoint_bytes(m2, cfg, norm)
        assert b1 == b2

    def test_best_validation_params_restored(self, monkeypatch):
        import prbforecast.training as tr
        vals = iter([0.5] + [0.4] + [0.6] * 30)
        snapshots = {}
        real_eval = tr._evaluate_loss

        def fake_eval(model, *a, **k):
            v = next(vals)
            snapshots[v] = [p.data.copy() for p in model.params()]
            return v

        monkeypatch.setattr(tr, "_evaluate_loss", fake_eval)
        cfg = TrainConfig(epochs=50, batch_size=4, lr=1e-3, patience=5, seed=9)
        model, history = train(make_samples(8), make_samples(4), TINY, cfg)
        for p, best in zip(model.params(), snapshots[0.4]):
            np.testing.assert_array_equal(p.data, best)

    def test_one_log_record_per_epoch_with_time_throughput_and_clip_rate(
            self, monkeypatch, caplog):
        import prbforecast.training as tr
        scales = iter([0.5, 1.0, 1.0] * 3)  # one clipped step of three per epoch
        monkeypatch.setattr(tr, "clip_gradients", lambda *a: next(scales))
        cfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3, patience=10, seed=2)
        with caplog.at_level(logging.INFO, logger="prbforecast.training"):
            _, history = train(make_samples(12), make_samples(4, seed=1), TINY, cfg)
        records = [r for r in caplog.records if r.name == "prbforecast.training"]
        assert len(records) == len(history) == 3
        for epoch, record in enumerate(records, start=1):
            m = re.fullmatch(r"epoch (\d+): train \S+ val \S+, (\S+) s, "
                             r"(\d+) samples/s, clip rate (\S+)", record.getMessage())
            assert m, record.getMessage()
            assert int(m[1]) == epoch
            assert float(m[2]) > 0 and int(m[3]) > 0
            assert m[4] == "0.333"

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            train([], make_samples(4), TINY, TrainConfig())

    def test_non_finite_loss_leaves_tape_clean(self):
        samples = make_samples(8)
        samples["targets"][3, -1, -1] = np.nan  # scored, never fed back
        cfg = TrainConfig(epochs=1, batch_size=8, seed=1)
        with pytest.raises(TrainingError, match="non-finite training loss"):
            train(samples, make_samples(4, seed=1), TINY, cfg)
        assert len(T.tape()) == 0


@pytest.mark.parametrize("value, field, bad", [
    (TINY, "heads", 3),
    (TrainConfig(), "lr", -1.0),
    (default_profiles(1)[0], "base_load", 0.9),
], ids=["Hyperparams", "TrainConfig", "CarrierProfile"])
def test_settings_are_checked_when_made_and_never_change(value, field, bad):
    with pytest.raises(ValueError):
        dataclasses.replace(value, **{field: bad})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


class TestCheckpoint:
    def _trained(self):
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=11)
        norm = Normalizer(mins=np.arange(8.0), maxs=np.arange(8.0) + 2.0)
        model, _ = train(make_samples(10, seed=8), make_samples(4, seed=9), TINY, cfg)
        return model, cfg, norm

    def test_roundtrip_bit_exact_forecast(self, tmp_path):
        model, cfg, norm = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model, cfg, norm)
        loaded, cfg2, norm2 = load_checkpoint(str(path))
        for (n1, p1), (n2, p2) in zip(model.named_params(), loaded.named_params()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(norm.mins, norm2.mins)
        rng = np.random.default_rng(1)
        enc_x = rng.random((1, TINY.n_past, 9)).astype(np.float32)
        meta = np.zeros((1, TINY.n_past, 5), dtype=np.int64)
        dec_meta = np.zeros((1, TINY.n_future, 5), dtype=np.int64)
        a = model.forward_block(enc_x, meta, dec_meta)
        b = loaded.forward_block(enc_x, meta, dec_meta)
        np.testing.assert_array_equal(a.det, b.det)
        np.testing.assert_array_equal(a.quantiles, b.quantiles)
        assert checkpoint_bytes(loaded, cfg2, norm2) == path.read_bytes()

    def test_untrained_tiny_bytes_are_pinned(self):
        """The file format, pinned: a change to any written byte fails here.
        No matrix product runs, so the bytes do not depend on BLAS."""
        T.seed_all(0)
        blob = checkpoint_bytes(ForecastModel(TINY), TrainConfig(epochs=2, seed=11),
                                Normalizer(mins=np.arange(8.0), maxs=np.arange(8.0) + 2.0))
        assert hashlib.sha256(blob).hexdigest() == (
            "7455c345ea0ff26dea7f79a7e8de92e0a994a3e1a9d72b5b46308b24d89903c1")

    def test_trained_tiny_bytes_are_pinned(self):
        """Every gradient byte of two seeded epochs, pinned through the
        weights they leave. Matrix products run here, so the digest is that
        of this float32 BLAS summation order."""
        model, cfg, norm = self._trained()
        assert hashlib.sha256(checkpoint_bytes(model, cfg, norm)).hexdigest() == (
            "7d97fb8295f0c6c56f3e0948bee703aad6563fb24f5a930d902f71c66cb176f4")

    def test_payload_size_matches_param_count(self, tmp_path):
        from prbforecast.model import param_count
        model, cfg, norm = self._trained()
        blob = checkpoint_bytes(model, cfg, norm)
        import json, struct
        header_len = struct.unpack("<II", blob[4:12])[1]
        payload = blob[12 + header_len:]
        assert len(payload) == param_count(TINY) * 4

    def test_corrupted_payload_byte_detected(self, tmp_path):
        model, cfg, norm = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model, cfg, norm)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        model, cfg, norm = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model, cfg, norm)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        model, cfg, norm = self._trained()
        blob = bytearray(checkpoint_bytes(model, cfg, norm))
        blob[4] = 99
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "manifest"},
        lambda h: [h],
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "d_emb": "64"}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "heads": 3}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "width": 64}},
        lambda h: {**h, "train_config": {**h["train_config"], "lr": -1.0}},
        lambda h: {**h, "manifest": [{}] + h["manifest"][1:]},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "quantiles": [0.05, 0.5, 0.95]}},
        lambda h: {**h, "normalizer": {**h["normalizer"],
                                       "mins": [float("nan")] + h["normalizer"]["mins"][1:]}},
        lambda h: {**h, "normalizer": {**h["normalizer"], "mins": h["normalizer"]["mins"][:3]}},
        lambda h: {**h, "train_config": {**h["train_config"], "lr": float("nan")}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "heads": 2.0}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "heads": True}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "heads": 0}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "n_enc_layers": True}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "d_ff": 2 ** 40}},
        lambda h: {**h, "train_config": {**h["train_config"], "epochs": 1.5}},
        lambda h: {**h, "train_config": {**h["train_config"], "seed": "1"}},
        lambda h: {**h, "manifest": [{**h["manifest"][0], "name": "embed.w_in"}]
                   + h["manifest"][1:]},
        lambda h: {**h, "manifest": [{**h["manifest"][0], "shape": [4, 9]}]
                   + h["manifest"][1:]},
        lambda h: {**h, "manifest": h["manifest"][:2] + h["manifest"][3:1:-1]
                   + h["manifest"][4:]},
        lambda h: {**h, "normalizer": None},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "n_enc_layers": 10 ** 9}},
        lambda h: {**h, "hyperparams": {**h["hyperparams"], "d_ff": 16}},
        append_float,  # edits the whole file, not only the header
        drop_float,  # the same
    ], ids=["no_manifest", "list", "str_d_emb", "bad_heads", "unknown_hp",
            "negative_lr", "empty_entry", "other_quantiles", "nan_mins",
            "short_mins", "nan_lr", "float_heads", "bool_heads", "zero_heads",
            "bool_n_enc_layers", "huge_d_ff", "float_epochs", "str_seed",
            "renamed_entry", "transposed_shape", "swapped_entries", "null_normalizer",
            "billion_enc_layers", "wider_d_ff", "one_float_over", "one_float_short"])
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        blob = checkpoint_bytes(*self._trained())
        path.write_bytes(edit(blob) if edit in (append_float, drop_float)
                         else edit_header(blob, edit))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit", [
        lambda blob: edit_header(blob, lambda h: {**h, "hyperparams": {**h["hyperparams"],
                                                                       "d_ff": 16}}),
        append_float,
        drop_float,
    ], ids=["wider_d_ff", "one_float_over", "one_float_short"])
    def test_payload_size_is_checked_against_hyperparams(self, tmp_path, edit):
        # the size check, not a later reshape, must reject each of these
        path = tmp_path / "model.ckpt"
        path.write_bytes(edit(checkpoint_bytes(*self._trained())))
        with pytest.raises(CheckpointError, match="payload bytes"):
            load_checkpoint(str(path))

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        import prbforecast.model
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), *self._trained())
        state = T.get_rng().bit_generator.state

        def refuse(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(prbforecast.model, "drawing_factory", refuse)
        model, _, _ = load_checkpoint(str(path))
        assert isinstance(model, ForecastModel)
        assert T.get_rng().bit_generator.state == state


class TestLocalDescent:
    def test_single_step_decreases_sample_loss_for_most_seeds(self):
        from prbforecast.data import batch_samples
        wins = 0
        trials = 30
        for seed in range(trials):
            T.seed_all(seed)
            model = ForecastModel(TINY)
            sample = make_samples(1, seed=seed + 1000)
            enc_x, enc_meta, targets, dec_meta = batch_samples(sample)

            def loss_value():
                with T.no_grad():
                    det, quant = model.forward_training(
                        enc_x, enc_meta, targets, dec_meta, training=False)
                    return float(total_loss(det, quant, targets, 0.9, 1.2).data)

            before = loss_value()
            model.zero_grads()
            det, quant = model.forward_training(enc_x, enc_meta, targets,
                                                dec_meta, training=False)
            T.backward(total_loss(det, quant, targets, 0.9, 1.2))
            adam_step(model.params(), AdamState(model.params()), lr=1e-3)
            if loss_value() < before:
                wins += 1
        assert wins >= 0.95 * trials
