"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them). Criterion 5 performs a full desk-scale
training run and takes several minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.data import (Normalizer, chronological_split, make_samples,
                              to_datetime64)
from prbforecast.model import embed_tokens
from prbforecast.metrics import (anchor_positions, evaluate, hit_probability,
                                 mae)
from prbforecast.model import QUANTILES, ForecastModel, Hyperparams, param_count
from prbforecast.rollout import rollout, window_from_records
from prbforecast.synth import default_profiles, generate
from prbforecast.training import (TrainConfig, adam_step, AdamState,
                                  checkpoint_bytes, load_checkpoint,
                                  save_checkpoint, total_loss, train)

from conftest import central_diff, float64_factory

TINY = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                   n_past=2, n_future=2)


def report(num: int, description: str, ok: bool):
    print(f"\ncriterion {num} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description}"


def random_batch(hp, batch=1, seed=3, dtype=np.float32):
    rng = np.random.default_rng(seed)
    enc_x = rng.random((batch, hp.n_past, 9)).astype(dtype)
    targets = rng.random((batch, hp.n_future, 9)).astype(dtype)

    def meta(steps):
        return np.stack([
            rng.integers(0, 12, (batch, steps)),
            rng.integers(0, 7, (batch, steps)),
            rng.integers(0, 24, (batch, steps)),
            rng.integers(0, 4, (batch, steps)),
            rng.integers(0, 21, (batch, steps)),
        ], axis=-1)

    return enc_x, meta(hp.n_past), targets, meta(hp.n_future)


def test_criterion_1_full_gradient_check():
    """Analytic gradients of the complete training loss match central finite
    differences (64-bit, h=1e-3) for every parameter of a tiny model."""
    start = time.time()
    T.seed_all(5)
    model = ForecastModel(TINY, float64_factory(T.get_rng()))
    enc_x, enc_meta, targets, dec_meta = random_batch(TINY, seed=17,
                                                      dtype=np.float64)
    params = model.params()

    def loss():
        det, quant = model.forward_training(enc_x, enc_meta, targets,
                                            dec_meta, training=False)
        return float(total_loss(det, quant, targets, 0.9, 1.2,
                                TINY.quantiles).data)

    numeric = central_diff(loss, params)
    det, quant = model.forward_training(enc_x, enc_meta, targets,
                                        dec_meta, training=False)
    T.backward(total_loss(det, quant, targets, 0.9, 1.2, TINY.quantiles))
    ok = True
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(num)
        assert analytic.dtype == np.float64, f"analytic gradient is {analytic.dtype}"
        if not np.allclose(analytic, num, rtol=1e-3, atol=1e-5):
            ok = False
            break
    elapsed = time.time() - start
    report(1, "full finite-difference gradient check", ok and elapsed < 60.0)


def test_criterion_2_pinball_recovers_quantiles():
    """Minimizing the training loss over constant quantile predictors (KPI
    columns exact, residual column set to the sample) recovers each
    empirical quantile within 0.02 of a grid-search oracle."""
    rng = np.random.default_rng(123)
    sample = rng.beta(2.0, 5.0, size=1001).astype(np.float64)
    targets = np.zeros((sample.size, 1, 9))
    targets[:, 0, 8] = sample
    det = T.Tensor(np.zeros((sample.size, 1, 8)), dtype=np.float64)
    zeros = T.Tensor(np.zeros((sample.size, 1, 3)), dtype=np.float64)
    theta = T.Tensor(np.full(3, 0.5), requires_grad=True, dtype=np.float64)
    state = AdamState([theta])
    for _ in range(2000):
        T.backward(total_loss(det, T.add(zeros, theta), targets, 0.9, 1.2))
        adam_step([theta], state, lr=5e-3)
        theta.grad = None
    grid = np.linspace(0.0, 1.0, 4001)
    ok = True
    for q, estimate in zip(QUANTILES, theta.data):
        # independent oracle: exhaustive search over a fine grid
        losses = [np.mean(q * np.maximum(sample - g, 0)
                          + (1 - q) * np.maximum(g - sample, 0)) for g in grid]
        oracle = grid[int(np.argmin(losses))]
        if abs(float(estimate) - oracle) > 0.02:
            ok = False
    report(2, "pinball training matches grid-search quantile oracle", ok)


def test_criterion_3_parameter_budget_and_payload():
    """Default-configuration parameter count is inside [2.90e5, 3.20e5], the
    closed form matches the instantiated tensors, and the checkpoint payload
    holds exactly four bytes per parameter."""
    hp = Hyperparams()
    count = param_count(hp)
    T.seed_all(0)
    model = ForecastModel(hp)
    instantiated = sum(p.data.size for p in model.params())
    blob = checkpoint_bytes(model, TrainConfig(),
                            Normalizer(mins=np.zeros(8), maxs=np.ones(8)))
    import json as _json
    import struct as _struct
    header_len = _struct.unpack("<I", blob[8:12])[0]
    payload = blob[12 + header_len:]
    ok = (2.90e5 <= count <= 3.20e5 and instantiated == count
          and len(payload) == count * 4)
    report(3, "parameter budget and checkpoint payload size", ok)


def test_criterion_4_rollout_invariants_week_horizon():
    """Over a 672-step (one week) rollout: the window always keeps its fixed
    length, the fed-back median equals the emitted q50 bit for bit, a shorter
    rollout is a prefix of a longer one, and quantiles never cross."""
    hp = Hyperparams()
    T.seed_all(21)
    model = ForecastModel(hp)
    rng = np.random.default_rng(22)
    window = rng.random((hp.n_past, 9)).astype(np.float32)
    from datetime import datetime, timezone
    start = datetime(2024, 3, 4, tzinfo=timezone.utc)

    _, out = rollout(model, window[None], [to_datetime64(start)], [2], 672)
    _, short = rollout(model, window[None], [to_datetime64(start)], [2], 96)
    q, det = out.quantiles[0], out.det[0]
    ok = len(q) == len(det) == 672
    ok = ok and (np.array_equal(short.quantiles[0, :, 1], q[:96, 1])
                 and np.array_equal(short.det[0], det[:96]))
    ok = ok and bool(np.all((q[:, 0] <= q[:, 1]) & (q[:, 1] <= q[:, 2])))
    # replay the recursion: window length stays n_past and the residual
    # column of every fed-back row is exactly the emitted median
    state = window.copy()
    i = 0
    while ok and i < 672:
        block = slice(i, i + hp.n_future)
        fed = np.concatenate([np.clip(det[block], 0, 1), q[block, 1:2]],
                             axis=1).astype(np.float32)
        state = np.concatenate([state[len(fed):], fed])
        ok = ok and state.shape == (hp.n_past, 9)
        ok = ok and all(row[8] == np.float32(q50)
                        for q50, row in zip(q[block, 1], fed))
        i += hp.n_future
    report(4, "recursive rollout invariants over 672 steps", ok)


@pytest.mark.slow
def test_criterion_5_desk_scale_learning():
    """Full training run on three synthetic carriers (60/7/14-day split,
    seed 42, default model configuration, at most 50 epochs): the day-ahead
    rollout must reach median MAE <= 0.08, interval hit probability in
    [0.70, 0.97], beat a persistence baseline by >= 20%, all within 20 min."""
    start = time.time()
    series = generate(default_profiles(3, seed=42), n_days=81, seed=42)
    train_s, val_s, test_s = chronological_split(
        series, (60 * 96, 7 * 96, 14 * 96))
    norm = Normalizer.fit(train_s)
    hp = Hyperparams()
    cfg = TrainConfig(epochs=50, seed=42)
    model, history = train(
        make_samples(train_s, norm, hp.n_past, hp.n_future),
        make_samples(val_s, norm, hp.n_past, hp.n_future), hp, cfg)

    result = evaluate(model, norm, test_s, horizon=96, n_anchors=4)
    maes = [c["mae"] for c in result["per_carrier"]]
    hits = [c["hit_prob"] for c in result["per_carrier"]]
    median_mae = float(np.median(maes))
    mean_hit = float(np.mean(hits))

    # persistence baseline: hold the last observed residual for the horizon
    base_maes = []
    for s in test_s:
        errs = []
        for a in anchor_positions(len(s), hp.n_past, 96, 4):
            last = s.values[a - 1, -1]
            truth = s.values[a:a + 96, -1]
            errs.append(mae(truth, [last] * 96))
        base_maes.append(float(np.mean(errs)))
    base_median = float(np.median(base_maes))

    elapsed = time.time() - start
    ok = (median_mae <= 0.08 and 0.70 <= mean_hit <= 0.97
          and median_mae <= 0.8 * base_median and elapsed <= 1200.0)
    print(f"\n  epochs={len(history)} median_mae={median_mae:.4f} "
          f"hit={mean_hit:.3f} persistence={base_median:.4f} "
          f"time={elapsed:.0f}s")
    report(5, "desk-scale training beats persistence within budget", ok)


def test_criterion_6_metric_oracles():
    """Interval hit probability is exactly 0.80 on a constructed 80-of-100
    coverage fixture, and vectorized MAE matches a naive loop to 1e-9."""
    truth = np.linspace(0.2, 0.8, 100)
    lo, hi = truth - 0.01, truth + 0.01
    lo[80:], hi[80:] = truth[80:] + 0.05, truth[80:] + 0.10
    ok = hit_probability(truth, lo, hi) == 0.80
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = rng.random(64), rng.random(64)
        naive = sum(abs(x - y) for x, y in zip(a, b)) / 64
        ok = ok and abs(mae(a, b) - naive) < 1e-9
    report(6, "metric implementations match constructed oracles", ok)


def test_criterion_7_determinism_and_checkpoint_roundtrip(tmp_path):
    """Two identical training runs produce byte-identical checkpoints, and a
    saved-then-loaded model forecasts bit-identically to the original."""
    series = generate(default_profiles(2, seed=31), n_days=4, seed=31)
    train_s, val_s, _ = chronological_split(series, (2 * 96, 96, 96))
    norm = Normalizer.fit(train_s)
    cfg = TrainConfig(epochs=2, batch_size=32, lr=1e-3, seed=13)
    hp = TINY

    def run():
        m, _ = train(make_samples(train_s, norm, hp.n_past, hp.n_future),
                     make_samples(val_s, norm, hp.n_past, hp.n_future),
                     hp, cfg)
        return m

    m1, m2 = run(), run()
    ok = checkpoint_bytes(m1, cfg, norm) == checkpoint_bytes(m2, cfg, norm)

    path = str(tmp_path / "model.rupf")
    save_checkpoint(path, m1, cfg, norm)
    loaded, _, norm2 = load_checkpoint(path)
    s = train_s[0]
    window, next_ts = window_from_records(s, hp.n_past, hp.n_past, norm)
    _, a = rollout(m1, window[None], [next_ts], [s.carrier_id], 24)
    window, next_ts = window_from_records(s, hp.n_past, hp.n_past, norm2)
    _, b = rollout(loaded, window[None], [next_ts], [s.carrier_id], 24)
    ok = ok and (np.array_equal(a.quantiles, b.quantiles)
                 and np.array_equal(a.det, b.det))
    report(7, "training determinism and checkpoint round trip", ok)


def test_criterion_8_decoder_causality():
    """Perturbing the decoder input at step t leaves every output before t
    bit-for-bit unchanged (default configuration)."""
    hp = Hyperparams()
    T.seed_all(41)
    model = ForecastModel(hp)
    enc_x, enc_meta, _, dec_meta = random_batch(hp, seed=42)
    with T.no_grad():
        z = model.encode(embed_tokens(model.embed, enc_x, enc_meta, model.embed.enc_pos))

        def run(dec_cont):
            tokens = embed_tokens(model.embed, dec_cont, dec_meta, model.embed.dec_pos)
            det, quant = model.decode(z, tokens)
            return det.data.copy(), quant.data.copy()

        base = np.zeros((1, hp.n_future, 9), dtype=np.float32)
        bumped = base.copy()
        bumped[0, -1, :] = 123.0
        det_a, quant_a = run(base)
        det_b, quant_b = run(bumped)
    ok = (np.array_equal(det_a[0, :-1], det_b[0, :-1])
          and np.array_equal(quant_a[0, :-1], quant_b[0, :-1])
          and not np.array_equal(det_a[0, -1], det_b[0, -1]))
    report(8, "decoder causality is bit-exact", ok)


def test_criterion_9_inference_latency():
    """A single two-step inference block at the default configuration runs in
    at most 50 ms (median over repeated calls, after warmup)."""
    hp = Hyperparams()
    T.seed_all(51)
    model = ForecastModel(hp)
    enc_x, enc_meta, _, dec_meta = random_batch(hp, seed=52)
    model.forward_block(enc_x, enc_meta, dec_meta)  # warmup
    timings = []
    for _ in range(20):
        t0 = time.perf_counter()
        model.forward_block(enc_x, enc_meta, dec_meta)
        timings.append(time.perf_counter() - t0)
    median_ms = float(np.median(timings)) * 1e3
    print(f"\n  forward_block median {median_ms:.2f} ms")
    report(9, "inference block latency under 50 ms", median_ms <= 50.0)
