import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.data import STEP, KpiSeries, Normalizer, to_datetime64
from prbforecast.metrics import (PLOT_HEIGHT, abs_err_std, anchor_positions, emit_plot_svg,
                                 evaluate, hit_probability, mae)
from prbforecast.model import ForecastModel, Hyperparams
from prbforecast.rollout import rollout, window_from_records
from prbforecast.synth import default_profiles, generate

UTC = timezone.utc


class TestMae:
    def test_hand_example(self):
        assert mae([0.5, 0.7], [0.4, 0.9]) == pytest.approx(0.15)

    def test_perfect(self):
        assert mae([0.3, 0.3], [0.3, 0.3]) == 0.0

    def test_sign_symmetric(self):
        assert mae([0.5], [0.4]) == mae([0.5], [0.6])

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            truth = rng.random(50)
            pred = rng.random(50)
            naive = sum(abs(a - b) for a, b in zip(truth, pred)) / 50
            assert abs(mae(truth, pred) - naive) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([0.1, 0.2], [0.1])


class TestHitProbability:
    def test_three_of_four(self):
        truth = [0.5, 0.5, 0.5, 0.9]
        assert hit_probability(truth, [0.4] * 4, [0.6] * 4) == 0.75

    def test_full_cover(self):
        truth = np.random.default_rng(1).random(20)
        assert hit_probability(truth, np.zeros(20), np.ones(20)) == 1.0

    def test_boundary_counts_as_hit(self):
        assert hit_probability([0.4], [0.4], [0.6]) == 1.0
        assert hit_probability([0.6], [0.4], [0.6]) == 1.0

    def test_crossing_interval_rejected(self):
        with pytest.raises(ValueError):
            hit_probability([0.5], [0.7], [0.3])

    def test_order_independence(self):
        rng = np.random.default_rng(2)
        truth = rng.random(30)
        lo = truth - rng.random(30) * 0.1
        hi = truth + rng.random(30) * 0.1 - 0.05
        hi = np.maximum(lo, hi)
        perm = rng.permutation(30)
        assert hit_probability(truth, lo, hi) == \
            hit_probability(truth[perm], lo[perm], hi[perm])


class TestAbsErrStd:
    def test_constant_error_is_zero(self):
        assert abs_err_std([0.5, 0.6, 0.7], [0.4, 0.5, 0.6]) == pytest.approx(0.0)

    def test_two_point_population_std(self):
        assert abs_err_std([0.0, 0.2], [0.0, 0.0]) == pytest.approx(0.1)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            truth = rng.random(40)
            pred = rng.random(40)
            errs = [abs(a - b) for a, b in zip(truth, pred)]
            m = sum(errs) / len(errs)
            var = sum((e - m) ** 2 for e in errs) / len(errs)
            assert abs(abs_err_std(truth, pred) - var ** 0.5) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            abs_err_std([0.5], [0.4])


class TestEvaluate:
    def _setup(self):
        hp = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2,
                         d_ff=8, n_past=4, n_future=2)
        T.seed_all(0)
        model = ForecastModel(hp)
        series = generate(default_profiles(2, seed=1), n_days=2, seed=1)
        norm = Normalizer.fit(series)
        return model, norm, series

    def test_single_carrier_single_anchor(self):
        model, norm, series = self._setup()
        report = evaluate(model, norm, series[:1], horizon=8, n_anchors=1)
        assert len(report["per_carrier"]) == 1
        entry = report["per_carrier"][0]
        assert set(entry) >= {"carrier_id", "mae", "abs_err_std", "hit_prob"}
        assert 0.0 <= entry["hit_prob"] <= 1.0

    def test_aggregate_is_mean_of_carriers(self):
        model, norm, series = self._setup()
        report = evaluate(model, norm, series, horizon=8, n_anchors=2)
        maes = [c["mae"] for c in report["per_carrier"]]
        assert report["aggregate"]["mean_mae"] == pytest.approx(np.mean(maes), abs=1e-12)
        hits = [c["hit_prob"] for c in report["per_carrier"]]
        assert report["aggregate"]["mean_hit_prob"] == pytest.approx(np.mean(hits), abs=1e-12)

    def test_base_case_equals_one_forward_block(self):
        model, norm, series = self._setup()
        hp = model.hp
        report = evaluate(model, norm, series[:1], horizon=hp.n_future, n_anchors=1)
        s = series[0]
        window, next_ts = window_from_records(s, hp.n_past, hp.n_past, norm)
        _, out = rollout(model, window[None], [next_ts], [s.carrier_id], hp.n_future)
        truth = s.values[hp.n_past:hp.n_past + hp.n_future, -1]
        assert report["per_carrier"][0]["mae"] == pytest.approx(
            mae(truth, out.quantiles[0, :, 1]), abs=1e-12)

    def test_each_carrier_is_the_mean_over_its_own_anchors(self):
        """Carriers of different lengths get anchor lists of different
        lengths; each carrier's scores equal the mean of the 1-D scores of
        its anchors, each rolled out alone."""
        model, norm, series = self._setup()
        hp, horizon = model.hp, 8
        short = KpiSeries(series[0].carrier_id, series[0].times[:hp.n_past + horizon + 1],
                          series[0].values[:hp.n_past + horizon + 1])
        report = evaluate(model, norm, [short, series[1]], horizon=horizon, n_anchors=4)
        entries = report["per_carrier"]
        assert [len(c["anchors"]) for c in entries] == [2, 4]
        for s, entry in zip([short, series[1]], entries):
            maes, stds, hits = [], [], []
            for a in entry["anchors"]:
                window, start = window_from_records(s, a, hp.n_past, norm)
                _, out = rollout(model, window[None], [start], [s.carrier_id], horizon)
                q10, q50, q90 = out.quantiles[0].T
                truth = s.values[a:a + horizon, -1]
                maes.append(mae(truth, q50))
                stds.append(abs_err_std(truth, q50))
                hits.append(hit_probability(truth, q10, q90))
            assert entry["mae"] == float(np.mean(maes))
            assert entry["abs_err_std"] == float(np.mean(stds))
            assert entry["hit_prob"] == float(np.mean(hits))

    def test_anchor_out_of_range(self):
        model, norm, series = self._setup()
        with pytest.raises(ValueError):
            evaluate(model, norm, series, horizon=10000, n_anchors=1)

    def test_constructed_fixture_hits_exactly_080(self):
        # intervals built to cover truth on exactly 80 of 100 steps
        truth = np.linspace(0.2, 0.8, 100)
        lo = truth - 0.01
        hi = truth + 0.01
        lo[80:] = truth[80:] + 0.05   # miss
        hi[80:] = truth[80:] + 0.10
        assert hit_probability(truth, lo, hi) == 0.80


class TestAnchorPositions:
    def test_single_anchor_at_earliest(self):
        assert anchor_positions(100, 4, 50, 1) == [4]

    def test_even_spacing_endpoints(self):
        anchors = anchor_positions(200, 4, 96, 4)
        assert anchors[0] == 4 and anchors[-1] == 104
        assert len(anchors) == 4

    def test_too_short(self):
        with pytest.raises(ValueError):
            anchor_positions(50, 4, 96, 1)

    def test_matches_the_evenly_spaced_comprehension(self):
        """Oracle: the comprehension over every requested anchor, which the
        function keeps only while anchors are fewer than positions."""
        def oracle(lo, span, n):
            if n == 1:
                return [lo]
            return sorted({lo + round(i * span / (n - 1)) for i in range(n)})

        for span in range(120):
            for n in range(1, span + 30):
                assert anchor_positions(span + 10, 4, 6, n) == oracle(4, span, n), (span, n)

    def test_huge_count_returns_every_position_at_once(self):
        # one iteration per anchor would not end: 10**15 of them
        assert anchor_positions(200, 4, 96, 10 ** 15) == list(range(4, 105))


class TestSvg:
    def _forecast(self, k):
        """(K,) instants and (K, 3) quantiles of a made-up rollout row."""
        start = to_datetime64(datetime(2024, 3, 4, tzinfo=UTC))
        mid = np.random.default_rng(4).random(k) * 0.5 + 0.25
        times = start + np.arange(k) * STEP
        return times, np.stack([mid - 0.1, mid, mid + 0.1], axis=1)

    def test_valid_xml_with_expected_elements(self, tmp_path):
        path = tmp_path / "plot.svg"
        times, quantiles = self._forecast(96)
        truth = np.random.default_rng(5).random(96)
        emit_plot_svg(truth, times, 0, quantiles, str(path))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        polygon = root.find(f"{ns}polygon")
        assert polygon is not None

    def test_band_polygon_has_2k_vertices(self, tmp_path):
        k = 24
        path = tmp_path / "plot.svg"
        times, quantiles = self._forecast(k)
        emit_plot_svg(np.full(k, 0.5), times, 0, quantiles, str(path))
        root = ET.parse(path).getroot()
        polygon = root.find("{http://www.w3.org/2000/svg}polygon")
        assert len(polygon.get("points").split()) == 2 * k

    def test_values_outside_unit_range_are_clipped_to_the_frame(self, tmp_path):
        k, height, margin = 16, PLOT_HEIGHT, 40.0
        path = tmp_path / "plot.svg"
        times, quantiles = self._forecast(k)
        quantiles[::2] += 1.5   # every other step above 1
        quantiles[1::2] -= 1.5  # the rest below 0
        truth = np.where(np.arange(k) % 2 == 0, -0.7, 2.3)
        emit_plot_svg(truth, times, 0, quantiles, str(path))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        shapes = root.findall(f"{ns}polyline") + root.findall(f"{ns}polygon")
        assert len(shapes) == 3
        ys = [float(p.split(",")[1]) for shape in shapes
              for p in shape.get("points").split()]
        assert len(ys) == 4 * k
        assert all(margin <= y <= height - margin for y in ys)
        assert min(ys) == margin and max(ys) == height - margin

    def test_empty_series_is_error_and_no_file(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
            emit_plot_svg(np.array([]), np.array([], "datetime64[m]"), 0,
                          np.empty((0, 3)), str(path))
        assert not path.exists()
