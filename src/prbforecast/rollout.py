"""Recursive block-wise inference.

Each block runs one autoregressive forward pass for the next M steps, then
feeds the predictions back: the fed-back vector per step is the 8
deterministic outputs (clipped to [0,1] in normalized units) plus the
median residual quantile, bit-exactly the emitted q=0.5 value. The window
always holds exactly N vectors; future calendar metadata is computed from
the grid, never predicted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .data import (FEATURE_NAMES, N_FEATURES, STEP, KpiSeries, Normalizer,
                   calendar_meta, format_timestamp, to_datetime, to_datetime64)
from .model import ForecastModel


@dataclass
class ForecastStep:
    timestamp: datetime
    carrier_id: int
    q10: float
    q50: float
    q90: float
    det: np.ndarray  # 8 deterministic KPI predictions, normalized units


def rollout(model: ForecastModel, windows: np.ndarray, metas: np.ndarray,
            next_timestamps, carrier_ids, horizon: int) -> list[list[ForecastStep]]:
    """Emit `horizon` forecast steps for each of B rows, advancing all rows
    together in M-step blocks through their fixed-length windows (B, N, 9)
    with metadata (B, N, 5). Row b starts at `next_timestamps[b]` for
    carrier `carrier_ids[b]`. The last block is truncated if the horizon is
    not a multiple of M. Returns one list of steps per row."""
    hp = model.hp
    m = hp.n_future
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    windows = np.array(windows, dtype=np.float32)
    metas = np.array(metas, dtype=np.int64)
    if windows.shape[1:] != (hp.n_past, N_FEATURES) or not (
            0 < len(windows) == len(metas) == len(next_timestamps) == len(carrier_ids)):
        raise ValueError(f"need B >= 1 windows of shape ({hp.n_past}, {N_FEATURES}) with "
                         f"as many metas, timestamps and carriers, got {windows.shape}")
    n_blocks = -(-horizon // m)
    starts = np.array([to_datetime64(ts) for ts in next_timestamps])
    times = starts[:, None] + np.arange(n_blocks * m) * STEP  # (B, n_blocks * M)
    future_meta = calendar_meta(times, np.asarray(carrier_ids)[:, None])
    dets, quants = [], []
    for b in range(n_blocks):
        dec_meta = future_meta[:, b * m:(b + 1) * m]
        out = model.forward_block(windows, metas, dec_meta)
        fed = np.empty((len(windows), m, N_FEATURES), dtype=np.float32)
        fed[..., :hp.n_det] = np.clip(out.det, 0.0, 1.0)
        fed[..., hp.n_det] = out.quantiles[..., 1]
        windows = np.concatenate([windows[:, m:], fed], axis=1)
        metas = np.concatenate([metas[:, m:], dec_meta], axis=1)
        dets.append(out.det)          # (B, M, 8)
        quants.append(out.quantiles)  # (B, M, 3), sorted + clipped
    return [[ForecastStep(timestamp=to_datetime(ts), carrier_id=c,
                          q10=float(q[i, 0]), q50=float(q[i, 1]), q90=float(q[i, 2]),
                          det=d[i].copy())
             for i, ts in enumerate(row[:horizon])]
            for row, c, d, q in zip(times, carrier_ids, np.concatenate(dets, axis=1),
                                    np.concatenate(quants, axis=1))]


def window_from_records(series: KpiSeries, at: int, n_past: int,
                        normalizer: Normalizer):
    """(window, meta, next_timestamp) from the `n_past` observations of
    `series` before index `at`."""
    window = normalizer.apply(series.values[at - n_past:at]).astype(np.float32)
    meta = calendar_meta(series.times[at - n_past:at], series.carrier_id)
    return window, meta, to_datetime(series.times[at - 1] + STEP)


def forecast_to_csv(forecasts: list[ForecastStep], normalizer: Normalizer,
                    path: str) -> None:
    """One row per step: quantiles in ratio units, deterministic KPIs
    denormalized back to native units."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["timestamp", "carrier_id", "q10", "q50", "q90"]
                        + FEATURE_NAMES)
        for step in forecasts:
            padded = np.concatenate([step.det, [step.q50]])
            det_raw = normalizer.invert(padded)[:len(FEATURE_NAMES)]
            writer.writerow(
                [format_timestamp(step.timestamp), step.carrier_id,
                 f"{step.q10:.6f}", f"{step.q50:.6f}", f"{step.q90:.6f}"]
                + [f"{v:.6f}" for v in det_raw])
