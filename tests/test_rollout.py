import csv
import os
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.data import STEP, Normalizer, calendar_meta, to_datetime64
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
    return np.random.default_rng(seed).random((hp.n_past, 9)).astype(np.float32)


def roll(model, window, horizon, start=START, carrier=2):
    """Batch-of-one rollout: its (K,) instants, (K, 3) quantiles, (K, 8) det."""
    times, out = rollout(model, window[None], [to_datetime64(start)], [carrier], horizon)
    return times[0], out.quantiles[0], out.det[0]


class TestRollout:
    def test_step_counts(self):
        model = make_model()
        window = make_window()
        assert len(roll(model, window, 96)[1]) == 96
        assert len(roll(model, window, 1)[1]) == 1
        assert len(roll(model, window, 3)[1]) == 3

    def test_result_shapes(self):
        model = make_model()
        window = make_window()
        times, out = rollout(model, np.stack([window] * 2), [to_datetime64(START)] * 2,
                             [2, 5], 5)
        assert times.shape == (2, 5) and times.dtype == np.dtype("datetime64[m]")
        assert out.det.shape == (2, 5, 8)
        assert out.quantiles.shape == (2, 5, 3)

    def test_bad_horizon_and_window(self):
        model = make_model()
        window = make_window()
        with pytest.raises(ValueError):
            roll(model, window, 0)
        with pytest.raises(ValueError):
            roll(model, window[:3], 4)
        with pytest.raises(ValueError):  # two starts for one window
            rollout(model, window[None], [to_datetime64(START)] * 2, [2], 4)
        with pytest.raises(ValueError):  # two carriers for one window
            rollout(model, window[None], [to_datetime64(START)], [2, 2], 4)

    def test_window_update_traced_by_hand(self):
        # N=4, M=2: after one block the window is [x2, x3, xhat4, xhat5]
        model = make_model(seed=3)
        window = make_window(seed=4)
        _, q, det = roll(model, window, 2)
        fed0 = np.concatenate([np.clip(det[0], 0, 1), [q[0, 1]]])
        fed1 = np.concatenate([np.clip(det[1], 0, 1), [q[1, 1]]])
        expected_window = np.stack([window[2], window[3],
                                    fed0.astype(np.float32),
                                    fed1.astype(np.float32)])
        # a second block must be computed from exactly that window
        _, continued_q, continued_det = roll(model, window, 4)
        _, direct_q, direct_det = roll(model, expected_window, 2,
                                       START + 2 * timedelta(minutes=15))
        np.testing.assert_array_equal(continued_q[2:], direct_q)
        np.testing.assert_array_equal(continued_det[2:], direct_det)

    def test_calendar_rows_come_from_the_start_instant(self):
        """A window that crosses midnight, a month end (Feb 29 -> Mar 1) and a
        weekday change: the first block equals one `forward_block` on the
        calendar rows of the N instants before the start and the M from it."""
        model = make_model(seed=16)
        window = make_window(seed=17)
        start = to_datetime64(datetime(2024, 3, 1, 0, 30, tzinfo=UTC))
        n, m = TINY.n_past, TINY.n_future
        enc_meta = calendar_meta(start + np.arange(-n, 0) * STEP, 20)
        dec_meta = calendar_meta(start + np.arange(m) * STEP, 20)
        assert enc_meta[0, :3].tolist() == [1, 3, 23] and enc_meta[-1, :3].tolist() == [2, 4, 0]
        direct = model.forward_block(window[None], enc_meta[None], dec_meta[None])
        _, out = rollout(model, window[None], [start], [20], 5)
        assert (out.det[:, :m] == direct.det).all()
        assert (out.quantiles[:, :m] == direct.quantiles).all()

    def test_prefix_consistency(self):
        model = make_model(seed=5)
        window = make_window(seed=6)
        _, short_q, short_det = roll(model, window, 2)
        _, long_q, long_det = roll(model, window, 4)
        np.testing.assert_array_equal(short_q, long_q[:2])
        np.testing.assert_array_equal(short_det, long_det[:2])

    def test_median_feedback_bit_exact_and_bounded(self):
        model = make_model(seed=7)
        window = make_window(seed=8)
        horizon = 12
        _, q, det = roll(model, window, horizon)
        # replay the recursion and compare the residual column of the window
        state = window.copy()
        i = 0
        while i < horizon:
            block = slice(i, i + 2)
            fed = np.concatenate([np.clip(det[block], 0, 1), q[block, 1:2]],
                                 axis=1).astype(np.float32)
            state = np.concatenate([state[2:], fed])
            for q50, row in zip(q[block, 1], fed):
                assert row[8] == np.float32(q50)
                assert 0.0 <= row[8] <= 1.0
                assert (row[:8] >= 0).all() and (row[:8] <= 1).all()
            i += 2

    def test_quantiles_never_cross_over_long_horizon(self):
        model = make_model(seed=9)
        window = make_window(seed=10)
        for q10, q50, q90 in roll(model, window, 96)[1]:
            assert q10 <= q50 <= q90

    def test_timestamps_advance_on_grid(self):
        model = make_model(seed=11)
        window = make_window(seed=12)
        times = roll(model, window, 8)[0]
        for i, t in enumerate(times):
            assert t == to_datetime64(START + i * timedelta(minutes=15))

    def test_batched_rows_equal_batch_of_one(self):
        model = make_model(seed=15)
        rows = []
        for b, (carrier, hours) in enumerate([(2, 0), (0, 7), (20, 29)]):
            start = START + timedelta(hours=hours, minutes=15 * b)
            window = np.random.default_rng(20 + b).random((TINY.n_past, 9))
            rows.append((window.astype(np.float32), start, carrier))
        windows, starts, carriers = zip(*rows)
        horizon = 7  # not a multiple of M=2
        times, out = rollout(model, np.stack(windows),
                             [to_datetime64(t) for t in starts], carriers, horizon)
        assert len(times) == 3
        for r, (window, start, carrier) in enumerate(rows):
            alone_times, alone_q, alone_det = roll(model, window, horizon, start, carrier)
            assert times.shape[1] == len(alone_q) == horizon
            np.testing.assert_array_equal(times[r], alone_times)
            np.testing.assert_array_equal(out.quantiles[r], alone_q)
            np.testing.assert_array_equal(out.det[r], alone_det)


class TestForecastCsv:
    def test_no_kpi_outside_the_training_range(self, tmp_path):
        """det outside [0, 1] is clipped before denormalizing, so no column
        holds a negative count that `load_csv` would reject."""
        model = make_model(seed=13)
        window = make_window(seed=14)
        times, q, det = roll(model, window, 96)
        assert (det < 0).any() and (det > 1).any()  # the case under test occurs
        norm = Normalizer(mins=np.full(8, 2.0), maxs=np.full(8, 12.0))
        path = tmp_path / "forecast.csv"
        forecast_to_csv(times, 2, q, det, norm, str(path))
        with open(path) as f:
            kpis = np.array([row[5:] for row in list(csv.reader(f))[1:]], dtype=float)
        assert kpis.min() == 2.0 and kpis.max() == 12.0

    def test_csv_layout(self, tmp_path):
        model = make_model(seed=13)
        window = make_window(seed=14)
        times, q, det = roll(model, window, 96)
        norm = Normalizer(mins=np.zeros(8), maxs=np.ones(8) * 10)
        path = tmp_path / "forecast.csv"
        forecast_to_csv(times, 2, q, det, norm, str(path))
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
        # every value is the rollout's, quantiles as they are, KPIs clipped
        # to [0, 1] and inverted one step at a time
        for i, row in enumerate(rows[1:]):
            assert row[1] == "2"
            assert row[2:5] == [f"{v:.6f}" for v in q[i].tolist()]
            kpis = norm.invert(np.concatenate([np.clip(det[i], 0.0, 1.0), [q[i, 1]]]))[:8]
            assert row[5:] == [f"{v:.6f}" for v in kpis.tolist()]

    def test_interrupted_write_leaves_the_target_as_it_was(self, tmp_path):
        """Rows that raise partway leave an existing file byte-identical and
        no temp file in its directory."""
        model = make_model(seed=13)
        window = make_window(seed=14)
        times, q, det = roll(model, window, 96)
        norm = Normalizer(mins=np.zeros(8), maxs=np.ones(8) * 10)
        path = tmp_path / "forecast.csv"
        forecast_to_csv(times, 2, q, det, norm, str(path))
        before = path.read_bytes()
        q = q.astype(object)
        q[50, 1] = None  # formatting this step raises
        with pytest.raises(TypeError):
            forecast_to_csv(times, 3, q, det, norm, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["forecast.csv"]
