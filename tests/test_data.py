import csv
import os
import random
import re
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prbforecast import data as D
from prbforecast.cli import main
from prbforecast.data import (STEP, IngestionError, KpiSeries, Normalizer,
                              batch_samples, calendar_meta, chronological_split,
                              load_csv, make_samples, residual_ratio,
                              sample_dtype, save_csv, to_datetime64)

UTC = timezone.utc

# one row in FEATURE_NAMES order, residual last
ROW = [10.0, 100.0, 5000.0, 8.0, 1.0, 30.0, 20.0, 15.0, 0.5]


def make_series(n, carrier=0, start=None):
    start = start or datetime(2024, 3, 4, tzinfo=UTC)
    i = np.arange(n)
    values = np.tile(ROW, (n, 1))
    values[:, 0] = 10.0 + i % 7                # prb_mean
    values[:, 7] = 15.0 + i % 5                # dl_tput
    values[:, 8] = 0.5 + 0.4 * np.sin(i / 10)  # residual_prb
    return KpiSeries(carrier, to_datetime64(start) + i * STEP, values)


def meta_of(ts, carrier_id):
    return tuple(calendar_meta(to_datetime64(ts), carrier_id).tolist())


def calendar_oracle(ts, carrier_id):
    """The calendar row of one aware UTC datetime, from `datetime` fields."""
    return ts.month - 1, ts.weekday(), ts.hour, ts.minute // 15, carrier_id


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
        assert meta_of(ts, 5) == (2, 0, 10, 3, 5)

    def test_minute_zero_is_slot_zero(self):
        ts = datetime(2024, 6, 1, 8, 0, tzinfo=UTC)
        assert meta_of(ts, 0)[3] == 0

    def test_december_is_month_eleven(self):
        ts = datetime(2024, 12, 25, 0, 0, tzinfo=UTC)
        assert meta_of(ts, 0)[0] == 11

    def test_unaligned_minute_rejected(self):
        with pytest.raises(ValueError):
            calendar_meta(np.datetime64("2024-03-04T10:07"), 0)

    @pytest.mark.parametrize("carrier", [0, 20])
    def test_matches_datetime_oracle_over_2024_and_the_year_end(self, carrier):
        # every step of leap year 2024 (29 February included) and into 2025
        times = np.arange(np.datetime64("2024-01-01T00:00"),
                          np.datetime64("2025-01-02T00:00"), STEP)
        expected = [calendar_oracle(t.astype(datetime).replace(tzinfo=UTC), carrier) for t in times]
        assert calendar_meta(times, carrier).tolist() == [list(e) for e in expected]


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
            assert sa.times.tolist() == sb.times.tolist()
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        s = make_series(10)
        series = KpiSeries(0, np.append(s.times, s.times[-1]), np.vstack([s.values, ROW]))
        path = tmp_path / "dup.csv"
        save_csv([series], str(path))
        with pytest.raises(IngestionError, match="duplicate timestamp 2024-03-04T02:15:00Z"):
            load_csv(str(path))

    def test_grid_gap_names_first_gap(self, tmp_path):
        s = make_series(10)
        series = KpiSeries(0, np.delete(s.times, 4), np.delete(s.values, 4, axis=0))
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

    @pytest.mark.parametrize("column, value, message", [
        (2, "-1.0", "prb_mean must be nonnegative, got -1.0"),
        (8, "31.0", "ue_avg 31.0 exceeds ue_max 30.0"),
        (0, "2024-03-04T25:00:00Z", "malformed timestamp '2024-03-04T25:00:00Z'"),
        (0, "2024-03-04T00:37:00Z", "timestamp '2024-03-04T00:37:00Z' not on the 15-minute grid"),
        (0, "9999-12-31T23:45:00-01:00", "malformed timestamp '9999-12-31T23:45:00-01:00'"),
        (5, "eight", "could not convert string to float: 'eight'"),
        (0, "2024-03-04T00:30:00xZ", "malformed timestamp '2024-03-04T00:30:00xZ'"),
        (0, "2024-03-04T00:30:00 Z", "malformed timestamp '2024-03-04T00:30:00 Z'"),
        (0, "2024-03-04T00:30:00x+00:00", "malformed timestamp '2024-03-04T00:30:00x+00:00'"),
        (0, "2024-03-04T00:30:00\x1cZ", "malformed timestamp '2024-03-04T00:30:00\\x1cZ'"),
        (0, "2024-03-04x00:30:00Z", "malformed timestamp '2024-03-04x00:30:00Z'"),
        (0, "2024-03-04\x1c00:30:00Z", "malformed timestamp '2024-03-04\\x1c00:30:00Z'"),
    ], ids=["negative_feature", "ue_avg_above_ue_max", "malformed_timestamp",
            "off_grid_timestamp", "timestamp_beyond_year_9999", "non_numeric_value",
            "stray_character_before_z", "space_before_z", "stray_character_before_offset",
            "control_character_before_z", "stray_date_time_separator",
            "control_character_as_date_time_separator"])
    def test_bad_value_names_path_and_line(self, tmp_path, column, value, message):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5)], str(path))
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[column] = value
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=re.escape(f"{path}:4: {message}")):
            load_csv(str(path))

    @pytest.mark.parametrize("stamp, message", [
        ("2024-03-04T25:00:00Z", "malformed timestamp '2024-03-04T25:00:00Z'"),
        ("2024-03-04T00:37:00Z", "timestamp '2024-03-04T00:37:00Z' not on the 15-minute grid"),
    ], ids=["malformed_timestamp", "off_grid_timestamp"])
    def test_repeated_bad_timestamp_names_its_first_line(self, tmp_path, stamp, message):
        """Carriers repeat each instant, and load_csv parses each distinct
        timestamp text once; a bad one is still reported at its first line."""
        path = tmp_path / "bad.csv"
        save_csv([make_series(5, 0), make_series(5, 1)], str(path))
        lines = path.read_text().splitlines()
        for i in (3, 8):  # the third instant of carrier 0, then of carrier 1
            lines[i] = ",".join([stamp] + lines[i].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=re.escape(f"{path}:4: {message}")):
            load_csv(str(path))

    def test_bad_header_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5)], str(path))
        path.write_text(path.read_text().replace("ue_max", "ue_peak", 1))
        with pytest.raises(IngestionError, match=re.escape(f"{path}:1: bad CSV header")):
            load_csv(str(path))


    def test_interrupted_write_leaves_the_target_as_it_was(self, tmp_path):
        """Rows that raise partway leave an existing file byte-identical and
        no temp file in its directory."""
        path = tmp_path / "kpi.csv"
        save_csv([make_series(5)], str(path))
        before = path.read_bytes()
        bad = make_series(50, 1)
        bad.values = bad.values.astype(object)
        bad.values[30, 2] = None  # formatting this row raises
        with pytest.raises(TypeError):
            save_csv([make_series(50, 0), bad], str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["kpi.csv"]


def reference_save(series_list, path):
    """The `csv.writer` writing of KPI series that `save_csv` replaced."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(D.CSV_HEADER)
        for series in sorted(series_list, key=lambda s: s.carrier_id):
            writer.writerows([stamp, series.carrier_id] + [f"{v:.6f}" for v in row]
                             for stamp, row in zip(D.format_instants(series.times),
                                                   series.values.tolist()))


class TestSaveCsvMatchesCsvWriter:
    def assert_same_bytes(self, series_list, tmp_path):
        save_csv(series_list, str(tmp_path / "got.csv"))
        reference_save(series_list, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_generated_series(self, tmp_path):
        from prbforecast import synth
        for seed in (0, 5):
            profiles = synth.default_profiles(4, seed)[::-1]  # written carrier ascending
            self.assert_same_bytes(synth.generate(profiles, n_days=2, seed=seed), tmp_path)

    def test_hand_built_values(self, tmp_path):
        specials = [1e300, -1e300, 1.7976931348623157e308, 5e-324, 4.9999995e-7, 5.0000005e-7,
                    -0.0, 0.0, -4e-7, 0.5, 2.5e-6, 123456789.0000005, np.nan, np.inf, -np.inf]
        values = np.resize(np.array(specials), (len(specials), 9))
        values[:, 0] = specials
        series = KpiSeries(20, make_series(len(specials)).times, values)
        self.assert_same_bytes([make_series(3, 1), series], tmp_path)

    def test_no_rows(self, tmp_path):
        self.assert_same_bytes([make_series(0, 2)], tmp_path)


class TestParseTimestamp:
    # the first and the last grid step of the years 0001-9999
    FIRST_STEP, LAST_STEP = (int(np.datetime64(t).astype(np.int64)) // 15
                             for t in ("0001-01-01T00:00", "9999-12-31T23:45"))

    @pytest.mark.parametrize("text, instant", [
        ("2024-01-01T00:15:00Z", "2024-01-01T00:15"),
        ("2024-01-01T00:15Z", "2024-01-01T00:15"),
        ("2024-01-01T00:15:00.000Z", "2024-01-01T00:15"),
        ("2024-01-01T00:15:00", "2024-01-01T00:15"),
        ("2024-01-01 00:15:00", "2024-01-01T00:15"),
        ("2024-01-01", "2024-01-01T00:00"),
        ("2024-01-01T00Z", "2024-01-01T00:00"),
        ("2024-01-01T05:45:00+05:30", "2024-01-01T00:15"),
        ("2024-01-01T05:15:00+05:00:00", "2024-01-01T00:15"),
        ("2024-01-01T05:15:00+05:00:00.000000", "2024-01-01T00:15"),
    ])
    def test_iso_forms_are_accepted(self, text, instant):
        assert D.parse_timestamp(text) == np.datetime64(instant)

    @pytest.mark.parametrize("text", [
        "20240101T001500Z", "2024-01-01T00:15:00-0100", "2024-01-01T05:15:00+05",
        "2024-W01-1T00:15:00Z", "2024-01-01T00:15:00,000Z", "2024-01-01T00:15:00.0Z",
        "2024-01-01T00:15:00+0000", "2024-01-01+05:00", "2024-01-01T00:159Z",
        "2024-01-01T008Z", "2024-01-01T05:45:009+05:30",
    ])
    def test_forms_outside_the_grammar_are_rejected(self, text):
        """Forms only Python 3.11+ reads, and text `fromisoformat` misreads
        as another instant, exit 1 on every Python."""
        with pytest.raises(IngestionError, match=re.escape(f"malformed timestamp {text!r}")):
            D.parse_timestamp(text)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(step=st.integers(FIRST_STEP, LAST_STEP))
    @example(step=FIRST_STEP)
    @example(step=LAST_STEP)
    def test_what_format_instants_writes_parses_to_the_same_instant(self, step):
        """Every grid instant of the years 0001-9999 round-trips."""
        instant = np.datetime64(step * 15, "m")
        assert D.parse_timestamp(D.format_instants([instant])[0]) == instant

    @pytest.mark.parametrize("text", [
        "2024-01-01T00:15:00xZ", "2024-01-01T00:15:00 Z", "2024-01-01T00:15:00:Z",
        "2024-01-01T00:15:00x+00:00", "2024-01-01T00:15:00 +05:00", "2024-01-01T00:15:00x-0100",
        "2024-01-01T00:15:00x+05", "2024-01-01T00:15:00\x1cZ",
    ])
    def test_a_character_other_than_a_digit_before_the_offset_is_rejected(self, text):
        with pytest.raises(IngestionError, match=re.escape(f"malformed timestamp {text!r}")):
            D.parse_timestamp(text)

    @pytest.mark.parametrize("text", [
        "2024-03-04x00:30:00Z", "2024-03-04\x1c00:30:00Z", "2024-03-04500:30:00Z",
        "2024-03-04-0030", "2024-03-04W00:30", "20240304_003000Z",
    ])
    def test_a_date_time_separator_other_than_t_or_space_is_rejected(self, text):
        with pytest.raises(IngestionError, match=re.escape(f"malformed timestamp {text!r}")):
            D.parse_timestamp(text)


def reference_load(path):
    """The plain-Python reading of a valid KPI CSV: `csv` rows, `int`,
    `float` and `datetime.fromisoformat`, one (carrier, times, values)
    triple per carrier, carrier ascending, time ascending."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    by_carrier = {}
    for stamp, carrier, *cells in rows:
        ts = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        minute = int((ts if ts.tzinfo else ts.replace(tzinfo=UTC)).timestamp()) // 60
        by_carrier.setdefault(int(carrier), []).append((minute, [float(c) for c in cells]))
    out = []
    for carrier in sorted(by_carrier):
        rows = sorted(by_carrier[carrier])
        out.append((carrier, np.array([m for m, _ in rows], dtype="datetime64[m]"),
                    np.array([v for _, v in rows], dtype=np.float64)))
    return out


def full_precision_lines(carriers=(0, 3, 20), n=24, seed=0):
    """Data lines whose values carry every float64 digit (`repr`); dl_tput
    is below 1e-5, so its values are written in exponent notation."""
    rng = np.random.default_rng(seed)
    stamps = D.format_instants(make_series(n).times)
    lines = []
    for carrier in carriers:
        values = rng.random((n, 9)) * [100, 100, 1e6, 100, 10, 40, 20, 1e-5, 1]
        values[:, 5] += values[:, 6]  # ue_max >= ue_avg
        lines += [",".join([t, str(carrier)] + [repr(v) for v in row])
                  for t, row in zip(stamps, values.tolist())]
    return lines


def dialect_variant(name, lines):
    """The text of a KPI CSV with data `lines`, written in variant `name`."""
    header, end = ",".join(D.CSV_HEADER), "\n"
    if name == "shuffled":
        lines = random.Random(5).sample(lines, len(lines))
    elif name == "quoted_fields":
        lines = [",".join(f'"{c}"' for c in line.split(",")) for line in lines]
    elif name == "single_row":
        lines = lines[:1]
    elif name in ("crlf", "lone_cr"):
        end = "\r\n" if name == "crlf" else "\r"
    text = end.join([header] + lines)
    return text if name == "no_trailing_newline" else text + end


def set_cell(column, value, index=3):
    """An edit of a CSV's lines that sets one field of `lines[index]`
    (line 4 by default)."""
    def edit(lines):
        parts = lines[index].split(",")
        parts[column] = value
        lines[index] = ",".join(parts)
    return edit


def assert_reads_like_reference(series, path):
    """`series` from `load_csv(path)` hold, bit for bit, what
    `reference_load(path)` reads."""
    want = reference_load(path)
    assert [s.carrier_id for s in series] == [carrier for carrier, _, _ in want]
    for s, (_, times, values) in zip(series, want):
        for a, b in ((s.times, times), (s.values, values)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


class TestCsvDialect:
    @pytest.mark.parametrize("variant", ["three_carriers", "shuffled", "crlf", "lone_cr",
                                         "quoted_fields", "no_trailing_newline", "single_row"])
    def test_arrays_are_bit_identical_to_a_plain_python_reader(self, tmp_path, variant):
        path = tmp_path / "kpi.csv"
        path.write_bytes(dialect_variant(variant, full_precision_lines()).encode())
        assert_reads_like_reference(load_csv(str(path)), path)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(line=st.integers(1, 10), column=st.integers(0, 10),
           cell=st.text(alphabet=' \t\v\x1c\x1f\xa0"#,._+-0123456789eEinfaZ:T\u0661\r\n',
                        max_size=8))
    def test_what_load_csv_accepts_a_plain_python_reader_reads_identically(
            self, tmp_path_factory, line, column, cell):
        """The columnar pass accepts no cell that `int`, `float` or
        `fromisoformat` reject, and reads none differently."""
        path = tmp_path_factory.mktemp("cell") / "kpi.csv"
        save_csv([make_series(5, 0), make_series(5, 1)], str(path))
        lines = path.read_text().splitlines()
        set_cell(column, cell, line)(lines)
        path.write_text("\n".join(lines) + "\n")
        try:
            series = load_csv(str(path))
        except IngestionError:
            return
        assert_reads_like_reference(series, path)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: ls.insert(3, ""), ":4: missing field"),
        (lambda ls: ls.insert(3, "   "), ":4: missing field"),
        (lambda ls: ls.__setitem__(3, "#" + ls[3]),
         ":4: malformed timestamp '#2024-03-04T00:30:00Z'"),
        (lambda ls: ls.__delitem__(slice(1, None)), ": no data rows after the header"),
        (lambda ls: ls.__setitem__(3, ls[3] + ",1"), ":4: missing field"),
        (set_cell(1, "99999999999999999999999"),
         ":4: carrier_id 99999999999999999999999 outside 0..20"),
        (set_cell(0, "2024-03-04T00:30:00Z" + "x" * 180),
         f":4: malformed timestamp '2024-03-04T00:30:00Z{'x' * 180}'"),
        (set_cell(2, "5_0"), ": could not convert string '5_0' to float64"),
        (set_cell(2, "\x1c12.000000"), ":4: could not convert string to float: '\\x1c12.000000'"),
    ], ids=["blank_line", "whitespace_line", "comment_line", "header_only", "extra_column",
            "carrier_beyond_int64", "200_char_timestamp", "underscore_in_number",
            "control_character_around_number"])
    def test_input_a_columnar_reader_could_accept_exits_1_naming_its_line(
            self, tmp_path, capsys, edit, message):
        path = tmp_path / "bad.csv"
        save_csv([make_series(5, 0), make_series(5, 1)], str(path))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(path), "--out", str(tmp_path / "m.rupf")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{message}")
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("edit, message", [
        (set_cell(1, "0_0"), "could not convert string '0_0' to int64"),
        (set_cell(2, "١٢"), "could not convert string '١٢' to float64"),
        (set_cell(10, '"0.5\n"'), "fewer records than lines"),
    ], ids=["underscore_in_carrier", "arabic_indic_digit", "quoted_line_break"])
    def test_syntax_only_the_row_reader_accepts_is_rejected_naming_the_path(
            self, tmp_path, edit, message):
        """Python's `int`, `float` and `fromisoformat` accept these, the
        columnar read does not; the file is rejected with that read's reason."""
        path = tmp_path / "odd.csv"
        save_csv([make_series(5, 0), make_series(5, 1)], str(path))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        assert [len(t) for _, t, _ in reference_load(path)] == [5, 5]  # a plain reader accepts it
        with pytest.raises(IngestionError, match=re.escape(f"{path}: {message}")):
            load_csv(str(path))


class TestAtomicOpen:
    def test_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        with D.atomic_open(str(tmp_path / "out"), binary=True) as f:
            f.write(b"x")
        assert (tmp_path / "out").stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["out", "plain"]

class TestSplit:
    def test_80_10_10(self):
        series = [make_series(100, 0), make_series(100, 1)]
        train, val, test = chronological_split(series, (0.8, 0.1, 0.1))
        assert all(len(s) == 80 for s in train)
        assert all(len(s) == 10 for s in val)
        assert all(len(s) == 10 for s in test)

    def test_val_precedes_test_per_carrier(self):
        train, val, test = chronological_split([make_series(100)], (60, 20, 20))
        assert train[0].times[-1] < val[0].times[0]
        assert val[0].times[-1] < test[0].times[0]

    def test_no_window_crosses_split_boundary(self):
        n_past, n_future = 4, 2
        series = [make_series(60)]
        train, val, test = chronological_split(series, (40, 10, 10))
        norm = Normalizer.fit(train)
        train_ts = set(train[0].times.tolist())
        for part in (val, test):
            samples = make_samples(part, norm, n_past, n_future)
            part_ts = set(part[0].times.tolist())
            # brute-force boundary enumeration: all sample instants stay inside
            feats = norm.apply(part[0].values).astype(np.float32)
            for i, s in enumerate(samples):
                np.testing.assert_array_equal(s["enc_x"], feats[i:i + n_past])
            assert part_ts.isdisjoint(train_ts)

    def test_carriers_are_cut_at_the_same_instants(self):
        # carrier 1 starts 2 h after carrier 0; both are cut in the shared span
        series = [make_series(30, 0, datetime(2024, 3, 4, tzinfo=UTC)),
                  make_series(30, 1, datetime(2024, 3, 4, 2, tzinfo=UTC))]
        parts = chronological_split(series, (10, 5, 5))
        for part, n in zip(parts, (10, 5, 5)):
            assert [len(s) for s in part] == [n, n]
            np.testing.assert_array_equal(part[0].times, part[1].times)
        assert parts[0][0].times[0] == np.datetime64("2024-03-04T02:00")
        np.testing.assert_array_equal(parts[0][0].values, series[0].values[8:18])

    def test_carriers_sharing_no_instant_cannot_be_split(self):
        series = [make_series(30, 0, datetime(2024, 3, 4, tzinfo=UTC)),
                  make_series(30, 1, datetime(2024, 3, 5, tzinfo=UTC))]
        with pytest.raises(ValueError, match="cannot split 0 steps"):
            chronological_split(series, (10, 5, 5))

    def test_insufficient_length(self):
        with pytest.raises(ValueError):
            chronological_split([make_series(10)], (8, 4, 4))


class TestNormalizer:
    def test_midpoint_maps_to_half(self):
        series = make_series(2, start=datetime(2024, 1, 1, tzinfo=UTC))
        series.values[0, 0], series.values[1, 0] = 10.0, 20.0
        norm = Normalizer.fit([series])
        feats = series.values[0].copy()
        feats[0] = 15.0
        assert norm.apply(feats)[0] == pytest.approx(0.5)

    def test_roundtrip_within_1e6(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.values
        back = norm.invert(norm.apply(feats))
        np.testing.assert_allclose(back[:, :8], feats[:, :8], atol=1e-6)

    def test_out_of_range_clipped(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.values[0].copy()
        feats[0] = norm.maxs[0] + 5.0
        assert norm.apply(feats)[0] == 1.0

    def test_residual_passes_through(self):
        series = make_series(50)
        norm = Normalizer.fit([series])
        feats = series.values[0].copy()
        assert norm.apply(feats)[-1] == feats[-1]

    def test_constant_feature_maps_to_zero_with_warning(self, caplog):
        series = make_series(10)
        series.values[:, 1] = 100.0  # prb_total
        import logging
        with caplog.at_level(logging.WARNING, logger="prbforecast.data"):
            norm = Normalizer.fit([series])
        assert any("constant" in m for m in caplog.messages)
        assert norm.apply(series.values[0])[1] == 0.0


class TestMakeSamples:
    def test_sample_count_by_anchor_enumeration(self):
        series = make_series(10)
        norm = Normalizer.fit([series])
        samples = make_samples([series], norm, 4, 2)
        # anchors enumerated by hand: starts 0..4 fit a 6-step window in 10
        assert len(samples) == 5

    def test_boundary_single_sample(self):
        series = make_series(6)
        norm = Normalizer.fit([series])
        samples = make_samples([series], norm, 4, 2)
        assert len(samples) == 1
        feats = norm.apply(series.values).astype(np.float32)
        np.testing.assert_array_equal(samples[0]["enc_x"], feats[:4])
        np.testing.assert_array_equal(samples[0]["targets"], feats[4:6])

    def test_decoder_meta_follows_grid(self):
        series = make_series(10)
        norm = Normalizer.fit([series])
        _, _, _, dec_meta = batch_samples(make_samples([series], norm, 4, 2)[:1])
        expected = [calendar_oracle(t.astype(datetime).replace(tzinfo=UTC), 0)
                    for t in series.times[4:6]]
        assert dec_meta[0].tolist() == [list(e) for e in expected]

    def test_meta_is_contiguous_grid_segment(self):
        series = make_series(12)
        norm = Normalizer.fit([series])
        _, enc_meta, _, dec_meta = batch_samples(make_samples([series], norm, 4, 2))
        for enc, dec in zip(enc_meta, dec_meta):
            slots = np.concatenate([enc[:, 3], dec[:, 3]])
            hours = np.concatenate([enc[:, 2], dec[:, 2]])
            combined = hours * 4 + slots
            np.testing.assert_array_equal(np.diff(combined) % 96, np.ones(5))

    def test_sample_holds_window_start_and_carrier(self):
        series = make_series(10, carrier=7)
        samples = make_samples([series], Normalizer.fit([series]), 4, 2)
        assert samples.dtype == sample_dtype(4, 2)
        assert samples.dtype.names == ("enc_x", "targets", "start", "carrier")
        assert samples.dtype.itemsize == 232
        np.testing.assert_array_equal(samples["start"], series.times[4:9])
        assert samples["carrier"].tolist() == [7] * 5

    def test_batch_calendar_rows_are_those_of_the_window_instants(self):
        # from Thursday 2024-02-29T23:00: windows cross midnight and the month end
        start = datetime(2024, 2, 29, 23, 0, tzinfo=UTC)
        series = [make_series(12, 20, start), make_series(12, 3, start)]
        samples = make_samples(series, Normalizer.fit(series), 4, 2)
        _, enc_meta, _, dec_meta = batch_samples(samples)
        windows = [(s, i) for s in sorted(series, key=lambda s: s.carrier_id)
                   for i in range(7)]
        assert len(windows) == len(samples)
        for (s, i), enc, dec in zip(windows, enc_meta, dec_meta):
            np.testing.assert_array_equal(enc, calendar_meta(s.times[i:i + 4], s.carrier_id))
            np.testing.assert_array_equal(dec, calendar_meta(s.times[i + 4:i + 6], s.carrier_id))
        # month and weekday of the first window's rows: Feb/Thursday, then Mar/Friday
        rows = np.concatenate([enc_meta[0], dec_meta[0]])[:, :2].tolist()
        assert rows == [[1, 3]] * 4 + [[2, 4]] * 2

    def test_batch_of_a_list_of_records_equals_batch_of_the_array(self):
        series = [make_series(12, 0), make_series(12, 5)]
        samples = make_samples(series, Normalizer.fit(series), 4, 2)
        idx = [9, 0, 3, 13]
        for want, got in zip(batch_samples(samples[idx]),
                             batch_samples([samples[i] for i in idx])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_too_short_series_rejected(self):
        series = make_series(5)
        norm = Normalizer.fit([series])
        with pytest.raises(ValueError):
            make_samples([series], norm, 4, 2)
