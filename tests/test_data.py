import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from prbforecast import data as D
from prbforecast.data import (IngestionError, KpiRecord, KpiSeries, Normalizer,
                              calendar_indices, chronological_split, load_csv,
                              make_samples, residual_ratio, save_csv)

UTC = timezone.utc


def make_record(ts, carrier=0, residual=0.5):
    return KpiRecord(timestamp=ts, carrier_id=carrier, prb_mean=10.0,
                     prb_total=100.0, active_tti=5000.0, prb_pdsch=8.0,
                     prb_pucch=1.0, ue_max=30.0, ue_avg=20.0, dl_tput=15.0,
                     residual_prb=residual)


def make_series(n, carrier=0, start=None):
    start = start or datetime(2024, 3, 4, tzinfo=UTC)
    records = []
    for i in range(n):
        r = make_record(start + i * timedelta(minutes=15), carrier,
                        residual=0.5 + 0.4 * np.sin(i / 10))
        r.prb_mean = 10.0 + i % 7
        r.dl_tput = 15.0 + (i % 5)
        records.append(r)
    return KpiSeries(carrier, records)


class TestResidualRatio:
    def test_quarter_used(self):
        assert residual_ratio(100, 25) == 0.75

    def test_idle_carrier(self):
        assert residual_ratio(100, 0) == 1.0

    def test_full_load(self):
        assert residual_ratio(100, 100) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            residual_ratio(0, 0)
        with pytest.raises(ValueError):
            residual_ratio(100, 101)


class TestCalendarIndices:
    def test_known_monday(self):
        # 2024-03-04 is a Monday (calendar oracle: datetime.weekday)
        ts = datetime(2024, 3, 4, 10, 45, tzinfo=UTC)
        assert ts.weekday() == 0
        assert calendar_indices(ts, 5) == (2, 0, 10, 3, 5)

    def test_minute_zero_is_slot_zero(self):
        ts = datetime(2024, 6, 1, 8, 0, tzinfo=UTC)
        assert calendar_indices(ts, 0)[3] == 0

    def test_december_is_month_eleven(self):
        ts = datetime(2024, 12, 25, 0, 0, tzinfo=UTC)
        assert calendar_indices(ts, 0)[0] == 11

    def test_unaligned_minute_rejected(self):
        with pytest.raises(ValueError):
            calendar_indices(datetime(2024, 3, 4, 10, 7, tzinfo=UTC), 0)


class TestCsvRoundtrip:
    def test_two_carriers_96_rows_each(self, tmp_path):
        path = tmp_path / "kpi.csv"
        save_csv([make_series(96, 0), make_series(96, 1)], str(path))
        series = load_csv(str(path))
        assert [s.carrier_id for s in series] == [0, 1]
        assert [len(s) for s in series] == [96, 96]

    def test_shuffled_rows_load_identically(self, tmp_path):
        path = tmp_path / "kpi.csv"
        save_csv([make_series(50, 0), make_series(50, 1)], str(path))
        lines = path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        random.Random(3).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows) + "\n")
        a = load_csv(str(path))
        b = load_csv(str(shuffled))
        for sa, sb in zip(a, b):
            assert sa.carrier_id == sb.carrier_id
            assert [r.timestamp for r in sa.records] == [r.timestamp for r in sb.records]
            np.testing.assert_array_equal(sa.feature_matrix(), sb.feature_matrix())

    def test_duplicate_timestamp_rejected(self, tmp_path):
        series = make_series(10)
        series.records.append(make_record(series.records[-1].timestamp))
        path = tmp_path / "dup.csv"
        save_csv([series], str(path))
        with pytest.raises(IngestionError, match="duplicate"):
            load_csv(str(path))

    def test_grid_gap_names_first_gap(self, tmp_path):
        series = make_series(10)
        del series.records[4]
        path = tmp_path / "gap.csv"
        save_csv([series], str(path))
        with pytest.raises(IngestionError, match="gap.*2024-03-04T00:45:00Z"):
            load_csv(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5)], str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ","
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="missing field"):
            load_csv(str(path))

    def test_carrier_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5)], str(path))
        content = path.read_text().replace(",0,", ",21,")
        path.write_text(content)
        with pytest.raises(IngestionError, match="carrier"):
            load_csv(str(path))

    def test_residual_out_of_range_rejected(self, tmp_path):
        series = make_series(5)
        path = tmp_path / "bad.csv"
        save_csv([series], str(path))
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = "1.500000"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="residual"):
            load_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5)], str(path))
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[2] = value  # prb_mean
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=r":4: prb_mean must be finite"):
            load_csv(str(path))


class TestSplit:
    def test_80_10_10(self):
        series = [make_series(100, 0), make_series(100, 1)]
        train, val, test = chronological_split(series, (0.8, 0.1, 0.1))
        assert all(len(s) == 80 for s in train)
        assert all(len(s) == 10 for s in val)
        assert all(len(s) == 10 for s in test)

    def test_val_precedes_test_per_carrier(self):
        train, val, test = chronological_split([make_series(100)], (60, 20, 20))
        assert train[0].records[-1].timestamp < val[0].records[0].timestamp
        assert val[0].records[-1].timestamp < test[0].records[0].timestamp

    def test_no_window_crosses_split_boundary(self):
        n_past, n_future = 4, 2
        series = [make_series(60)]
        train, val, test = chronological_split(series, (40, 10, 10))
        norm = Normalizer.fit(train)
        train_ts = {r.timestamp for r in train[0].records}
        for part in (val, test):
            samples = make_samples(part, norm, n_past, n_future)
            part_ts = {r.timestamp for r in part[0].records}
            # brute-force boundary enumeration: all sample instants stay inside
            feats = norm.apply(part[0].feature_matrix()).astype(np.float32)
            for i, s in enumerate(samples):
                np.testing.assert_array_equal(s.encoder_inputs, feats[i:i + n_past])
            assert part_ts.isdisjoint(train_ts)

    def test_insufficient_length(self):
        with pytest.raises(ValueError):
            chronological_split([make_series(10)], (8, 4, 4))


class TestNormalizer:
    def test_midpoint_maps_to_half(self):
        records = [make_record(datetime(2024, 1, 1, tzinfo=UTC) + i * timedelta(minutes=15))
                   for i in range(2)]
        records[0].prb_mean, records[1].prb_mean = 10.0, 20.0
        norm = Normalizer.fit([KpiSeries(0, records)])
        feats = records[0].features()
        feats[0] = 15.0
        assert norm.apply(feats)[0] == pytest.approx(0.5)

    def test_roundtrip_within_1e6(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.feature_matrix()
        back = norm.invert(norm.apply(feats))
        np.testing.assert_allclose(back[:, :8], feats[:, :8], atol=1e-6)

    def test_out_of_range_clipped(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.records[0].features()
        feats[0] = norm.maxs[0] + 5.0
        assert norm.apply(feats)[0] == 1.0

    def test_residual_passes_through(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.records[0].features()
        assert norm.apply(feats)[-1] == feats[-1]

    def test_constant_feature_maps_to_zero_with_warning(self, caplog):
        series = make_series(10)
        for r in series.records:
            r.prb_total = 100.0
        import logging
        with caplog.at_level(logging.WARNING, logger="prbforecast.data"):
            norm = Normalizer.fit([series])
        assert any("constant" in m for m in caplog.messages)
        assert norm.apply(series.records[0].features())[1] == 0.0


class TestMakeSamples:
    def test_sample_count_by_anchor_enumeration(self):
        series = make_series(10)
        norm = Normalizer.fit([series])
        samples = make_samples([series], norm, 4, 2, stride=1)
        # anchors enumerated by hand: starts 0..4 fit a 6-step window in 10
        assert len(samples) == 5

    def test_boundary_single_sample(self):
        series = make_series(6)
        norm = Normalizer.fit([series])
        samples = make_samples([series], norm, 4, 2)
        assert len(samples) == 1
        feats = norm.apply(series.feature_matrix()).astype(np.float32)
        np.testing.assert_array_equal(samples[0].encoder_inputs, feats[:4])
        np.testing.assert_array_equal(samples[0].decoder_targets, feats[4:6])

    def test_decoder_meta_follows_grid(self):
        series = make_series(10)
        norm = Normalizer.fit([series])
        s = make_samples([series], norm, 4, 2)[0]
        expected = [calendar_indices(series.records[4 + i].timestamp, 0)
                    for i in range(2)]
        assert s.decoder_meta.tolist() == [list(e) for e in expected]

    def test_meta_is_contiguous_grid_segment(self):
        series = make_series(12)
        norm = Normalizer.fit([series])
        for s in make_samples([series], norm, 4, 2):
            slots = np.concatenate([s.encoder_meta[:, 3], s.decoder_meta[:, 3]])
            hours = np.concatenate([s.encoder_meta[:, 2], s.decoder_meta[:, 2]])
            combined = hours * 4 + slots
            np.testing.assert_array_equal(np.diff(combined) % 96, np.ones(5))

    def test_too_short_series_rejected(self):
        series = make_series(5)
        norm = Normalizer.fit([series])
        with pytest.raises(ValueError):
            make_samples([series], norm, 4, 2)
