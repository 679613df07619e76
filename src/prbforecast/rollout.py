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

import numpy as np

from .data import (FEATURE_NAMES, N_DET_FEATURES, N_FEATURES, STEP, KpiSeries,
                   Normalizer, atomic_open, calendar_meta, format_instants)
from .model import DecoderOutput, ForecastModel


def rollout(model: ForecastModel, windows: np.ndarray, metas: np.ndarray,
            starts, carrier_ids, horizon: int) -> tuple[np.ndarray, DecoderOutput]:
    """Forecast `horizon` steps for each of B rows, advancing all rows
    together in M-step blocks through their fixed-length windows (B, N, 9)
    with metadata (B, N, 5). Row b starts at the `datetime64[m]` instant
    `starts[b]` for carrier `carrier_ids[b]`. The last block is truncated if
    the horizon is not a multiple of M. Returns the (B, K) `datetime64[m]`
    step instants and one `DecoderOutput` with `det` (B, K, 8) and
    `quantiles` (B, K, 3)."""
    hp = model.hp
    m = hp.n_future
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    windows = np.array(windows, dtype=np.float32)
    metas = np.array(metas, dtype=np.int64)
    if windows.shape[1:] != (hp.n_past, N_FEATURES) or not (
            0 < len(windows) == len(metas) == len(starts) == len(carrier_ids)):
        raise ValueError(f"need B >= 1 windows of shape ({hp.n_past}, {N_FEATURES}) with "
                         f"as many metas, starts and carriers, got {windows.shape}")
    n_blocks = -(-horizon // m)
    starts = np.asarray(starts, dtype="datetime64[m]")
    times = starts[:, None] + np.arange(n_blocks * m) * STEP  # (B, n_blocks * M)
    future_meta = calendar_meta(times, np.asarray(carrier_ids)[:, None])
    dets, quants = [], []
    for b in range(n_blocks):
        dec_meta = future_meta[:, b * m:(b + 1) * m]
        out = model.forward_block(windows, metas, dec_meta)
        fed = np.empty((len(windows), m, N_FEATURES), dtype=np.float32)
        fed[..., :N_DET_FEATURES] = np.clip(out.det, 0.0, 1.0)
        fed[..., N_DET_FEATURES] = out.quantiles[..., 1]
        windows = np.concatenate([windows[:, m:], fed], axis=1)
        metas = np.concatenate([metas[:, m:], dec_meta], axis=1)
        dets.append(out.det)          # (B, M, 8)
        quants.append(out.quantiles)  # (B, M, 3), sorted + clipped
    return times[:, :horizon], DecoderOutput(
        det=np.concatenate(dets, axis=1)[:, :horizon],
        quantiles=np.concatenate(quants, axis=1)[:, :horizon])


def window_from_records(series: KpiSeries, at: int, n_past: int,
                        normalizer: Normalizer):
    """(window, meta, next instant) from the `n_past` observations of
    `series` before index `at`; the instant is `datetime64[m]`."""
    window = normalizer.apply(series.values[at - n_past:at]).astype(np.float32)
    meta = calendar_meta(series.times[at - n_past:at], series.carrier_id)
    return window, meta, series.times[at - 1] + STEP


def forecast_to_csv(times: np.ndarray, carrier_id: int, quantiles: np.ndarray,
                    det: np.ndarray, normalizer: Normalizer, path: str) -> None:
    """One row per step of one rollout row, from its (K,) instants, (K, 3)
    quantiles and (K, 8) det: quantiles in ratio units, deterministic KPIs
    clipped to [0, 1] as the rollout feeds them back, then denormalized back
    to native units, so no KPI falls outside the training range."""
    kpis = normalizer.invert(np.clip(det, 0.0, 1.0))
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["timestamp", "carrier_id", "q10", "q50", "q90"] + FEATURE_NAMES)
        writer.writerows([stamp, carrier_id] + [f"{v:.6f}" for v in q + k]
                         for stamp, q, k in zip(format_instants(times), quantiles.tolist(),
                                                kpis.tolist()))
