import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.data import Normalizer, calendar_meta, to_datetime64
from prbforecast.model import ForecastModel, Hyperparams
from prbforecast.rollout import forecast_to_csv, rollout

UTC = timezone.utc
TINY = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                   n_past=4, n_future=2)
START = datetime(2024, 3, 4, 12, 0, tzinfo=UTC)


def make_model(hp=TINY, seed=0):
    T.seed_all(seed)
    return ForecastModel(hp)


def make_window(hp=TINY, seed=1):
    rng = np.random.default_rng(seed)
    window = rng.random((hp.n_past, 9)).astype(np.float32)
    times = [START - (hp.n_past - i) * timedelta(minutes=15)
             for i in range(hp.n_past)]
    meta = calendar_meta([to_datetime64(t) for t in times], 2)
    return window, meta


class TestRollout:
    def test_step_counts(self):
        model = make_model()
        window, meta = make_window()
        assert len(rollout(model, window[None], meta[None], [START], [2], 96)[0]) == 96
        assert len(rollout(model, window[None], meta[None], [START], [2], 1)[0]) == 1
        assert len(rollout(model, window[None], meta[None], [START], [2], 3)[0]) == 3

    def test_bad_horizon_and_window(self):
        model = make_model()
        window, meta = make_window()
        with pytest.raises(ValueError):
            rollout(model, window[None], meta[None], [START], [2], 0)
        with pytest.raises(ValueError):
            rollout(model, window[:3][None], meta[:3][None], [START], [2], 4)

    def test_window_update_traced_by_hand(self):
        # N=4, M=2: after one block the window is [x2, x3, xhat4, xhat5]
        model = make_model(seed=3)
        window, meta = make_window(seed=4)
        steps = rollout(model, window[None], meta[None], [START], [2], 2)[0]
        fed0 = np.concatenate([np.clip(steps[0].det, 0, 1), [steps[0].q50]])
        fed1 = np.concatenate([np.clip(steps[1].det, 0, 1), [steps[1].q50]])
        expected_window = np.stack([window[2], window[3],
                                    fed0.astype(np.float32),
                                    fed1.astype(np.float32)])
        # a second block must be computed from exactly that window
        continued = rollout(model, window[None], meta[None], [START], [2], 4)[0]
        meta2 = np.concatenate([
            meta[2:],
            calendar_meta([to_datetime64(START),
                           to_datetime64(START + timedelta(minutes=15))], 2)])
        direct = rollout(model, expected_window[None], meta2[None],
                         [START + 2 * timedelta(minutes=15)], [2], 2)[0]
        for a, b in zip(continued[2:], direct):
            assert a.q50 == b.q50 and a.q10 == b.q10 and a.q90 == b.q90
            np.testing.assert_array_equal(a.det, b.det)

    def test_prefix_consistency(self):
        model = make_model(seed=5)
        window, meta = make_window(seed=6)
        short = rollout(model, window[None], meta[None], [START], [2], 2)[0]
        long = rollout(model, window[None], meta[None], [START], [2], 4)[0]
        for a, b in zip(short, long[:2]):
            assert (a.q10, a.q50, a.q90) == (b.q10, b.q50, b.q90)
            np.testing.assert_array_equal(a.det, b.det)

    def test_median_feedback_bit_exact_and_bounded(self):
        model = make_model(seed=7)
        window, meta = make_window(seed=8)
        horizon = 12
        steps = rollout(model, window[None], meta[None], [START], [2], horizon)[0]
        # replay the recursion and compare the residual column of the window
        state = window.copy()
        i = 0
        while i < horizon:
            block = steps[i:i + 2]
            fed = np.stack([
                np.concatenate([np.clip(s.det, 0, 1), [s.q50]]).astype(np.float32)
                for s in block])
            state = np.concatenate([state[2:], fed])
            for s, row in zip(block, fed):
                assert row[8] == np.float32(s.q50)
                assert 0.0 <= row[8] <= 1.0
                assert (row[:8] >= 0).all() and (row[:8] <= 1).all()
            i += 2

    def test_quantiles_never_cross_over_long_horizon(self):
        model = make_model(seed=9)
        window, meta = make_window(seed=10)
        for s in rollout(model, window[None], meta[None], [START], [2], 96)[0]:
            assert s.q10 <= s.q50 <= s.q90

    def test_timestamps_advance_on_grid(self):
        model = make_model(seed=11)
        window, meta = make_window(seed=12)
        steps = rollout(model, window[None], meta[None], [START], [2], 8)[0]
        for i, s in enumerate(steps):
            assert s.timestamp == START + i * timedelta(minutes=15)

    def test_batched_rows_equal_batch_of_one(self):
        model = make_model(seed=15)
        rows = []
        for b, (carrier, hours) in enumerate([(2, 0), (0, 7), (20, 29)]):
            start = START + timedelta(hours=hours, minutes=15 * b)
            window = np.random.default_rng(20 + b).random((TINY.n_past, 9))
            past = [start - (TINY.n_past - i) * timedelta(minutes=15)
                    for i in range(TINY.n_past)]
            meta = calendar_meta([to_datetime64(t) for t in past], carrier)
            rows.append((window.astype(np.float32), meta, start, carrier))
        windows, metas, starts, carriers = zip(*rows)
        horizon = 7  # not a multiple of M=2
        batched = rollout(model, np.stack(windows), np.stack(metas), starts, carriers, horizon)
        assert len(batched) == 3
        for (window, meta, start, carrier), steps in zip(rows, batched):
            alone = rollout(model, window[None], meta[None], [start], [carrier], horizon)[0]
            assert len(steps) == len(alone) == horizon
            for a, b in zip(steps, alone):
                assert (a.timestamp, a.carrier_id) == (b.timestamp, b.carrier_id)
                assert (a.q10, a.q50, a.q90) == (b.q10, b.q50, b.q90)
                np.testing.assert_array_equal(a.det, b.det)


class TestForecastCsv:
    def test_csv_layout(self, tmp_path):
        model = make_model(seed=13)
        window, meta = make_window(seed=14)
        steps = rollout(model, window[None], meta[None], [START], [2], 96)[0]
        norm = Normalizer(mins=np.zeros(8), maxs=np.ones(8) * 10)
        path = tmp_path / "forecast.csv"
        forecast_to_csv(steps, norm, str(path))
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0][:5] == ["timestamp", "carrier_id", "q10", "q50", "q90"]
        assert len(rows) == 97
        prev = None
        for row in rows[1:]:
            q10, q50, q90 = map(float, row[2:5])
            assert q10 <= q50 <= q90
            ts = row[0]
            if prev is not None:
                a = datetime.fromisoformat(prev.replace("Z", "+00:00"))
                b = datetime.fromisoformat(ts.replace("Z", "+00:00"))
                assert b - a == timedelta(minutes=15)
            prev = ts
