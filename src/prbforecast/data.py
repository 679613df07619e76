"""KPI data model: CSV ingestion, residual-PRB arithmetic, normalization,
chronological splitting, and sliding-window sample construction.

All timestamps are UTC on a strict 15-minute grid. Missing intervals are a
hard ingestion error; imputation would silently bias calibration metrics.
"""

from __future__ import annotations

import csv
import itertools
import logging
import os
import re
import secrets
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

STEP = np.timedelta64(15, "m")
N_CARRIERS = 21  # 3 sectors x 7 carriers

FEATURE_NAMES = [
    "prb_mean", "prb_total", "active_tti", "prb_pdsch",
    "prb_pucch", "ue_max", "ue_avg", "dl_tput",
]
N_DET_FEATURES = len(FEATURE_NAMES)          # deterministic head width
ALL_COLUMNS = FEATURE_NAMES + ["residual_prb"]
N_FEATURES = len(ALL_COLUMNS)                # 9, residual last

CSV_HEADER = ["timestamp", "carrier_id"] + ALL_COLUMNS


class IngestionError(ValueError):
    pass


def residual_ratio(n_total: int, n_used: float) -> float:
    """Fraction of a carrier's PRBs left unused in one interval."""
    if n_total <= 0:
        raise ValueError(f"total PRB count must be positive, got {n_total}")
    if n_used < 0 or n_used > n_total:
        raise ValueError(f"used PRBs {n_used} outside [0, {n_total}]")
    return (n_total - n_used) / n_total


# YYYY-MM-DD[(T| )hh[:mm[:ss[.fff|.ffffff]]][Z|±hh:mm[:ss[.ffffff]]]], which
# `fromisoformat` reads alike on every Python from 3.10; outside it, 3.11+
# read more forms and every version misreads some (`2024-01-01T008Z` as 00:00)
TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}"
                       r"(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
                       r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?")


def parse_timestamp(text: str) -> np.datetime64:
    """The instant of `text` in the `TIMESTAMP` form (UTC unless it names an
    offset) as datetime64[m]; it must lie on the 15-minute grid."""
    try:
        if not TIMESTAMP.fullmatch(text):
            raise ValueError("not YYYY-MM-DD[Thh:mm[:ss]][Z|±hh:mm]")
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError) as e:
        raise IngestionError(f"malformed timestamp {text!r}: {e}") from None
    if ts.minute % 15 != 0 or ts.second != 0 or ts.microsecond != 0:
        raise IngestionError(f"timestamp {text!r} not on the 15-minute grid")
    return to_datetime64(ts)


def to_datetime64(ts: datetime) -> np.datetime64:
    """The instant of an aware datetime as datetime64[m]."""
    return np.datetime64(int(ts.timestamp()) // 60, "m")


def format_instants(times) -> list[str]:
    """ISO-8601 UTC text (`2024-01-01T00:00:00Z`) of datetime64 instants."""
    return [f"{stamp}Z" for stamp in np.datetime_as_string(times, unit="s").tolist()]


@dataclass
class KpiSeries:
    """One carrier's KPI history: `times` is a (T,) datetime64[m] array on
    the 15-minute grid, `values` the matching (T, 9) float64 features in
    column order, residual last."""
    carrier_id: int
    times: np.ndarray
    values: np.ndarray

    def validate_grid(self):
        bad = np.flatnonzero(np.diff(self.times) != STEP)
        if bad.size == 0:
            return
        prev, cur = format_instants(self.times[bad[0]:bad[0] + 2])
        if prev == cur:
            raise IngestionError(f"carrier {self.carrier_id}: duplicate timestamp {prev}")
        raise IngestionError(
            f"carrier {self.carrier_id}: gap in 15-minute grid between {prev} and {cur}")

    def __len__(self):
        return len(self.times)


def calendar_meta(times, carrier_id) -> np.ndarray:
    """Calendar rows (month 0..11, weekday 0..6 Monday=0, hour 0..23, minute
    slot 0..3, carrier) for datetime64 instants of any shape; `carrier_id`
    broadcasts against `times`. Returns int64 of shape times.shape + (5,)."""
    times = np.asarray(times, dtype="datetime64[m]")
    minutes = times.astype(np.int64)  # since 1970-01-01T00:00, a Thursday
    if np.any(minutes % 15):
        bad = times[minutes % 15 != 0].flat[0]
        raise ValueError(f"timestamp {bad} not aligned to the 15-minute grid")
    months = times.astype("datetime64[M]").astype(np.int64)
    columns = np.broadcast_arrays(months % 12, (minutes // 1440 + 3) % 7,
                                  minutes // 60 % 24, minutes % 60 // 15,
                                  np.asarray(carrier_id, dtype=np.int64))
    return np.stack(columns, axis=-1)


def step_calendar(starts, carrier_ids, before: int, after: int):
    """(B, before + after) instants from `before` steps before each of B `starts`,
    and their calendar rows: the one rule of training batches and rollouts."""
    times = np.asarray(starts, dtype="datetime64[m]")[:, None] + np.arange(-before, after) * STEP
    return times, calendar_meta(times, np.asarray(carrier_ids)[:, None])


# One CSV data row as `np.loadtxt` reads it: the timestamp text, the carrier
# and the nine values in header order.
ROW_DTYPE = np.dtype([("ts", object), ("carrier", np.int64), ("v", np.float64, (N_FEATURES,))])


def _open_data(path: str):
    """`path` opened for reading, its header line checked."""
    f = open(path, newline="", encoding="utf-8")
    header = next(csv.reader(f), None)
    if header != CSV_HEADER:
        f.close()
        raise IngestionError(f"{path}:1: bad CSV header: {header}")
    return f


def _read_columns(path: str):
    """(instants, carrier ids, values) of every data row in one `np.loadtxt`
    pass; raises ValueError or a Warning on any row it cannot vouch for."""
    with open(path, "rb") as f:
        chunks = iter(partial(f.read, 1 << 16), b"")
        # loadtxt strips these around a number as whitespace; float() and int() do not
        if any(c in chunk for chunk in chunks for c in b"\x1c\x1d\x1e\x1f"):
            raise ValueError("a control character in \\x1c..\\x1f")
    lines_read = itertools.count()
    with _open_data(path) as f, warnings.catch_warnings():
        warnings.simplefilter("error")  # such as loadtxt's on an empty input
        # loadtxt skips blank lines; counting the lines it pulls exposes them
        lines = map(itemgetter(0), zip(f, lines_read))
        rows = np.loadtxt(lines, dtype=ROW_DTYPE, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    if len(rows) != next(lines_read):
        raise ValueError("fewer records than lines (a blank line or a quoted line break)")
    texts = rows["ts"].tolist()
    instants = dict.fromkeys(texts)  # carriers repeat each instant: parse each text once
    for text in instants:
        instants[text] = parse_timestamp(text)
    times = np.fromiter(map(instants.__getitem__, texts), "datetime64[m]", len(texts))
    return times, rows["carrier"], rows["v"]


def _read_rows(path: str):
    """(instants, carrier ids, values) row by row; names the `path:line:` of
    the first row it rejects."""
    stamps, carriers, cells = [], [], []
    instants = {}  # timestamp text -> instant; carriers repeat each instant
    with _open_data(path) as f:
        for lineno, row in enumerate(csv.reader(f), start=2):
            if len(row) != len(CSV_HEADER) or "" in row:
                raise IngestionError(f"{path}:{lineno}: missing field")
            try:
                stamp = instants.get(row[0])
                if stamp is None:
                    stamp = instants[row[0]] = parse_timestamp(row[0])
                stamps.append(stamp)
                carriers.append(int(row[1]))
                cells.extend(map(float, row[2:]))
            except ValueError as e:
                raise IngestionError(f"{path}:{lineno}: {e}") from None
    # carrier ids are an object array if one overflows int64
    return (np.array(stamps, dtype="datetime64[m]"), np.array(carriers),
            np.array(cells, dtype=np.float64).reshape(-1, N_FEATURES))


def load_csv(path: str) -> list[KpiSeries]:
    """Load and validate a KPI CSV; returns one series per carrier,
    carrier_id ascending, time-ordered on a gapless grid. A rejected row is
    named by its `path:line:`, a gap or duplicate by carrier and instant.

    One `np.loadtxt` pass reads a valid file. If it fails, the file is read
    again row by row to name the first bad line; a file that passes that
    read and every check is still rejected, naming the path and the
    columnar pass's reason (syntax Python accepts and loadtxt does not,
    such as `1_0`)."""
    try:
        times, carrier_ids, values = _read_columns(path)
        columnar_error = None
    except (ValueError, Warning) as e:
        times, carrier_ids, values = _read_rows(path)
        columnar_error = e
    if not len(times):
        raise IngestionError(f"{path}: no data rows after the header")

    def reject(bad: np.ndarray, message):
        """Raise for the first row of `bad` (row-major), naming its line."""
        if bad.any():
            row, *col = np.unravel_index(np.argmax(bad), bad.shape)
            raise IngestionError(f"{path}:{row + 2}: {message(row, *col)}")

    reject(~np.isfinite(values),
           lambda r, c: f"{ALL_COLUMNS[c]} must be finite, got {values[r, c]}")
    reject((carrier_ids < 0) | (carrier_ids >= N_CARRIERS),
           lambda r: f"carrier_id {carrier_ids[r]} outside 0..{N_CARRIERS - 1}")
    residual = values[:, -1]
    reject((residual < 0.0) | (residual > 1.0),
           lambda r: f"residual_prb {residual[r]} outside [0,1]")
    reject(values[:, :N_DET_FEATURES] < 0,
           lambda r, c: f"{FEATURE_NAMES[c]} must be nonnegative, got {values[r, c]}")
    ue_max = values[:, FEATURE_NAMES.index("ue_max")]
    ue_avg = values[:, FEATURE_NAMES.index("ue_avg")]
    reject(ue_avg > ue_max, lambda r: f"ue_avg {ue_avg[r]} exceeds ue_max {ue_max[r]}")

    carrier_ids = carrier_ids.astype(np.int64)
    order = np.lexsort((times, carrier_ids))
    times, values, carrier_ids = times[order], values[order], carrier_ids[order]
    ids, starts = np.unique(carrier_ids, return_index=True)
    out = []
    for carrier, lo, hi in zip(ids.tolist(), starts, [*starts[1:], len(order)]):
        series = KpiSeries(carrier, times[lo:hi], values[lo:hi])
        series.validate_grid()
        out.append(series)
    if columnar_error is not None:
        raise IngestionError(f"{path}: {columnar_error}")
    return out


@contextmanager
def atomic_open(path: str, binary: bool = False):
    """The one writer of every output file: a file object on a new temp file
    in `path`'s directory (UTF-8 text, newlines untranslated, or bytes; the
    mode a plain `open` gives), renamed over `path` when the block ends and
    deleted if it raises, so an interrupted write leaves `path` as it was."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{secrets.token_hex(8)}")
    f = open(tmp, "xb") if binary else open(tmp, "x", newline="", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def csv_line(fields) -> str:
    """One CSV line of text fields: comma-separated, CRLF-ended and unquoted,
    as `csv.writer` writes fields that need no quoting."""
    return ",".join(fields) + "\r\n"


def csv_rows(times: np.ndarray, carrier_id: int, values: np.ndarray) -> str:
    """The CSV lines of one carrier: per row its ISO-8601 UTC instant, the
    carrier id and each value of its row of the (T, k) `values` with six
    decimals. None of these fields needs quoting."""
    template = csv_line(["%s", "%s"] + ["%.6f"] * values.shape[1])
    return "".join([template % (stamp, carrier_id, *row)
                    for stamp, row in zip(format_instants(times), values.tolist())])


def save_csv(series_list: list[KpiSeries], path: str) -> int:
    """Write series in the ingestion schema; returns the data row count."""
    rows = 0
    with atomic_open(path) as f:
        f.write(csv_line(CSV_HEADER))
        for series in sorted(series_list, key=lambda s: s.carrier_id):
            f.write(csv_rows(series.times, series.carrier_id, series.values))
            rows += len(series)
    return rows


def shared_span(series_list: list[KpiSeries]) -> list[KpiSeries]:
    """Every series trimmed to the instants that all of them cover (empty
    series if they share none)."""
    lo = max(s.times[0] for s in series_list)
    hi = min(s.times[-1] for s in series_list)
    out = []
    for s in series_list:
        a, b = np.searchsorted(s.times, lo), np.searchsorted(s.times, hi, side="right")
        out.append(KpiSeries(s.carrier_id, s.times[a:b], s.values[a:b]))
    return out


def chronological_split(series_list: list[KpiSeries],
                        parts) -> tuple[list[KpiSeries], list[KpiSeries], list[KpiSeries]]:
    """Split every carrier at the same cut instants, counted in steps of
    the span that all carriers share.

    `parts` is either (train_frac, val_frac, test_frac) summing to <= 1, or
    (train_steps, val_steps, test_steps) as integers. The test part may be
    empty.
    """
    if not series_list:
        raise ValueError("no series to split")
    series_list = shared_span(series_list)
    n = len(series_list[0])
    a, b, c = parts
    if isinstance(a, float) or isinstance(b, float) or isinstance(c, float):
        n_train, n_val = int(n * a), int(n * b)
        n_test = n - n_train - n_val if a + b + c >= 0.999 else int(n * c)
    else:
        n_train, n_val, n_test = int(a), int(b), int(c)
    if n_train < 1 or n_val < 1 or n_test < 0 or n_train + n_val + n_test > n:
        raise ValueError(
            f"cannot split {n} steps into {n_train}/{n_val}/{n_test}")

    def cut(lo, hi):
        return [KpiSeries(s.carrier_id, s.times[lo:hi], s.values[lo:hi])
                for s in series_list]

    return (cut(0, n_train),
            cut(n_train, n_train + n_val),
            cut(n_train + n_val, n_train + n_val + n_test))


@dataclass
class Normalizer:
    """Per-feature min-max scaling fit on the training split only.

    The residual PRB ratio passes through unscaled (already in [0,1]);
    out-of-range values are clipped so recursive rollout never injects
    unbounded features back into the encoder.
    """
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, train_series: list[KpiSeries]) -> "Normalizer":
        stacked = np.concatenate([s.values for s in train_series])
        if stacked.size == 0:
            raise ValueError("cannot fit a normalizer on empty training data")
        mins = stacked[:, :N_DET_FEATURES].min(axis=0)
        maxs = stacked[:, :N_DET_FEATURES].max(axis=0)
        for i, name in enumerate(FEATURE_NAMES):
            if maxs[i] <= mins[i]:
                log.warning("feature %s is constant on the training split; "
                            "it will normalize to 0", name)
        return cls(mins=mins, maxs=maxs)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Map raw 9-column features to [0,1]; residual column untouched."""
        out = np.array(features, dtype=np.float64, copy=True)
        span = self.maxs - self.mins
        live = span > 0
        scaled = (out[..., :N_DET_FEATURES] - self.mins) / np.where(live, span, 1.0)
        out[..., :N_DET_FEATURES] = np.clip(np.where(live, scaled, 0.0), 0.0, 1.0)
        return out

    def invert(self, features: np.ndarray) -> np.ndarray:
        out = np.array(features, dtype=np.float64, copy=True)
        span = self.maxs - self.mins
        out[..., :N_DET_FEATURES] = (out[..., :N_DET_FEATURES] * np.where(span > 0, span, 1.0)
                                     + self.mins)
        return out

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        mins = np.asarray(d["mins"], dtype=np.float64)
        maxs = np.asarray(d["maxs"], dtype=np.float64)
        if not (mins.shape == maxs.shape == (N_DET_FEATURES,)
                and np.isfinite([mins, maxs]).all() and (maxs >= mins).all()):
            raise ValueError(f"normalizer needs {N_DET_FEATURES} finite mins <= maxs")
        return cls(mins=mins, maxs=maxs)


def sample_dtype(n_past: int, n_future: int) -> np.dtype:
    """One (encoder window, decoder target block) pair for a single carrier:
    normalized float32 features over a contiguous N+M grid segment, the
    `datetime64[m]` instant of its first target step, and the carrier."""
    return np.dtype([("enc_x", np.float32, (n_past, N_FEATURES)),
                     ("targets", np.float32, (n_future, N_FEATURES)),
                     ("start", "datetime64[m]"),
                     ("carrier", np.int64)])


def make_samples(series_list: list[KpiSeries], normalizer: Normalizer,
                 n_past: int, n_future: int) -> np.ndarray:
    """Sliding-window samples as one structured array of `sample_dtype`,
    carrier-major then time-major (carrier_id ascending) for deterministic
    batching."""
    window = n_past + n_future
    dtype = sample_dtype(n_past, n_future)
    parts = []
    for series in sorted(series_list, key=lambda s: s.carrier_id):
        if len(series) < window:
            raise ValueError(
                f"carrier {series.carrier_id}: series length {len(series)} "
                f"shorter than N+M={window}")
        feats = normalizer.apply(series.values).astype(np.float32)
        # (samples, window, 9) view, one row per window start
        x = sliding_window_view(feats, window, axis=0).swapaxes(1, 2)
        part = np.empty(len(x), dtype)
        part["enc_x"], part["targets"] = x[:, :n_past], x[:, n_past:]
        part["start"] = series.times[n_past:n_past + len(x)]
        part["carrier"] = series.carrier_id
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def batch_samples(samples):
    """Batched arrays (enc_x, enc_meta, targets, dec_meta) from a sample array
    or a list of its records; calendar rows come from `start` by `step_calendar`."""
    batch = np.asarray(samples, dtype=samples[0].dtype)
    enc_x, targets = (np.ascontiguousarray(batch[k]) for k in ("enc_x", "targets"))
    n = enc_x.shape[1]
    _, meta = step_calendar(batch["start"], batch["carrier"], n, targets.shape[1])
    return enc_x, meta[:, :n], targets, meta[:, n:]
