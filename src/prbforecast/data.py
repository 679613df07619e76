"""KPI data model: CSV ingestion, residual-PRB arithmetic, normalization,
chronological splitting, and sliding-window sample construction.

All timestamps are UTC on a strict 15-minute grid. Missing intervals are a
hard ingestion error; imputation would silently bias calibration metrics.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

log = logging.getLogger(__name__)

STEP = timedelta(minutes=15)
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


def parse_timestamp(text: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as e:
        raise IngestionError(f"malformed timestamp {text!r}: {e}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if ts.minute % 15 != 0 or ts.second != 0 or ts.microsecond != 0:
        raise IngestionError(f"timestamp {text!r} not on the 15-minute grid")
    return ts


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class KpiRecord:
    timestamp: datetime
    carrier_id: int
    prb_mean: float
    prb_total: float
    active_tti: float
    prb_pdsch: float
    prb_pucch: float
    ue_max: float
    ue_avg: float
    dl_tput: float
    residual_prb: float

    def validate(self):
        for name in ALL_COLUMNS:
            if not math.isfinite(getattr(self, name)):
                raise IngestionError(f"{name} must be finite, got {getattr(self, name)}")
        if self.timestamp.minute % 15 != 0:
            raise IngestionError(f"timestamp {self.timestamp} off the 15-minute grid")
        if not 0 <= self.carrier_id < N_CARRIERS:
            raise IngestionError(f"carrier_id {self.carrier_id} outside 0..{N_CARRIERS - 1}")
        if not 0.0 <= self.residual_prb <= 1.0:
            raise IngestionError(f"residual_prb {self.residual_prb} outside [0,1]")
        for name in FEATURE_NAMES:
            if getattr(self, name) < 0:
                raise IngestionError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.ue_avg > self.ue_max:
            raise IngestionError(f"ue_avg {self.ue_avg} exceeds ue_max {self.ue_max}")

    def features(self) -> np.ndarray:
        """All 9 features in column order, residual last."""
        return np.array([getattr(self, c) for c in ALL_COLUMNS], dtype=np.float64)


@dataclass
class KpiSeries:
    carrier_id: int
    records: list[KpiRecord] = field(default_factory=list)

    def validate_grid(self):
        for prev, cur in zip(self.records, self.records[1:]):
            gap = cur.timestamp - prev.timestamp
            if gap == timedelta(0):
                raise IngestionError(
                    f"carrier {self.carrier_id}: duplicate timestamp {prev.timestamp}")
            if gap != STEP:
                raise IngestionError(
                    f"carrier {self.carrier_id}: gap in 15-minute grid between "
                    f"{format_timestamp(prev.timestamp)} and {format_timestamp(cur.timestamp)}")

    def feature_matrix(self) -> np.ndarray:
        return np.stack([r.features() for r in self.records]) if self.records \
            else np.zeros((0, N_FEATURES))

    def __len__(self):
        return len(self.records)


def calendar_indices(ts: datetime, carrier_id: int) -> tuple[int, int, int, int, int]:
    """(month 0..11, weekday 0..6 Monday=0, hour 0..23, minute slot 0..3, carrier)."""
    if ts.minute % 15 != 0:
        raise ValueError(f"timestamp {ts} not aligned to the 15-minute grid")
    return ts.month - 1, ts.weekday(), ts.hour, ts.minute // 15, carrier_id


def load_csv(path: str) -> list[KpiSeries]:
    """Load and validate a KPI CSV; returns one series per carrier,
    carrier_id ascending, records time-ordered on a gapless grid."""
    by_carrier: dict[int, list[KpiRecord]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise IngestionError(f"bad CSV header in {path}: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER) or any(cell == "" for cell in row):
                raise IngestionError(f"{path}:{lineno}: missing field")
            ts = parse_timestamp(row[0])
            try:
                carrier = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as e:
                raise IngestionError(f"{path}:{lineno}: {e}") from None
            rec = KpiRecord(ts, carrier, *values)
            try:
                rec.validate()
            except IngestionError as e:
                raise IngestionError(f"{path}:{lineno}: {e}") from None
            by_carrier.setdefault(carrier, []).append(rec)

    out = []
    for carrier in sorted(by_carrier):
        records = sorted(by_carrier[carrier], key=lambda r: r.timestamp)
        series = KpiSeries(carrier, records)
        series.validate_grid()
        out.append(series)
    return out


def save_csv(series_list: list[KpiSeries], path: str) -> int:
    """Write series in the ingestion schema; returns the data row count."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for series in sorted(series_list, key=lambda s: s.carrier_id):
            for r in series.records:
                writer.writerow(
                    [format_timestamp(r.timestamp), r.carrier_id]
                    + [f"{getattr(r, c):.6f}" for c in ALL_COLUMNS])
                rows += 1
    return rows


def chronological_split(series_list: list[KpiSeries],
                        parts) -> tuple[list[KpiSeries], list[KpiSeries], list[KpiSeries]]:
    """Split every carrier at the same cut instants.

    `parts` is either (train_frac, val_frac, test_frac) summing to <= 1, or
    (train_steps, val_steps, test_steps) as integers.
    """
    if not series_list:
        raise ValueError("no series to split")
    n = min(len(s) for s in series_list)
    a, b, c = parts
    if isinstance(a, float) or isinstance(b, float) or isinstance(c, float):
        n_train, n_val = int(n * a), int(n * b)
        n_test = n - n_train - n_val if a + b + c >= 0.999 else int(n * c)
    else:
        n_train, n_val, n_test = int(a), int(b), int(c)
    if n_train < 1 or n_val < 1 or n_test < 1 or n_train + n_val + n_test > n:
        raise ValueError(
            f"cannot split {n} steps into {n_train}/{n_val}/{n_test}")

    def cut(lo, hi):
        return [KpiSeries(s.carrier_id, s.records[lo:hi]) for s in series_list]

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
        stacked = np.concatenate([s.feature_matrix() for s in train_series])
        if stacked.size == 0:
            raise ValueError("cannot fit a normalizer on empty training data")
        mins = stacked[:, :N_DET_FEATURES].min(axis=0)
        maxs = stacked[:, :N_DET_FEATURES].max(axis=0)
        for i, name in enumerate(FEATURE_NAMES):
            if maxs[i] <= mins[i]:
                log.warning("feature %s is constant on the training split; "
                            "it will normalize to 0", name)
        return cls(mins=mins, maxs=maxs)

    def _spans(self) -> np.ndarray:
        span = self.maxs - self.mins
        return np.where(span > 0, span, 1.0)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Map raw 9-column features to [0,1]; residual column untouched."""
        out = np.array(features, dtype=np.float64, copy=True)
        cols = out[..., :N_DET_FEATURES]
        scaled = (cols - self.mins) / self._spans()
        span = self.maxs - self.mins
        scaled = np.where(span > 0, scaled, 0.0)
        out[..., :N_DET_FEATURES] = np.clip(scaled, 0.0, 1.0)
        return out

    def invert(self, features: np.ndarray) -> np.ndarray:
        out = np.array(features, dtype=np.float64, copy=True)
        out[..., :N_DET_FEATURES] = out[..., :N_DET_FEATURES] * self._spans() + self.mins
        return out

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(mins=np.asarray(d["mins"], dtype=np.float64),
                   maxs=np.asarray(d["maxs"], dtype=np.float64))


@dataclass
class TrainingSample:
    """One (encoder window, decoder target block) pair for a single carrier.

    Feature rows are normalized; meta rows are the five categorical indices
    from `calendar_indices`, covering the contiguous N+M grid segment.
    """
    encoder_inputs: np.ndarray   # (N, 9) float32
    encoder_meta: np.ndarray     # (N, 5) int
    decoder_targets: np.ndarray  # (M, 9) float32
    decoder_meta: np.ndarray     # (M, 5) int


def make_samples(series_list: list[KpiSeries], normalizer: Normalizer,
                 n_past: int, n_future: int, stride: int = 1) -> list[TrainingSample]:
    """Sliding-window samples per carrier, interleaved carrier-major then
    time-major (carrier_id ascending) for deterministic batching."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    samples = []
    window = n_past + n_future
    for series in sorted(series_list, key=lambda s: s.carrier_id):
        if len(series) < window:
            raise ValueError(
                f"carrier {series.carrier_id}: series length {len(series)} "
                f"shorter than N+M={window}")
        feats = normalizer.apply(series.feature_matrix()).astype(np.float32)
        meta = np.array(
            [calendar_indices(r.timestamp, series.carrier_id) for r in series.records],
            dtype=np.int64)
        for start in range(0, len(series) - window + 1, stride):
            mid = start + n_past
            samples.append(TrainingSample(
                encoder_inputs=feats[start:mid],
                encoder_meta=meta[start:mid],
                decoder_targets=feats[mid:mid + n_future],
                decoder_meta=meta[mid:mid + n_future]))
    return samples


def batch_samples(samples: list[TrainingSample]):
    """Stack samples into batched arrays (enc_x, enc_meta, targets, dec_meta)."""
    return (np.stack([s.encoder_inputs for s in samples]),
            np.stack([s.encoder_meta for s in samples]),
            np.stack([s.decoder_targets for s in samples]),
            np.stack([s.decoder_meta for s in samples]))
