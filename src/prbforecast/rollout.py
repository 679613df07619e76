"""Recursive block-wise inference.

Each block runs one autoregressive forward pass for the next M steps, then
feeds the predictions back: the fed-back vector per step is the 8
deterministic outputs (clipped to [0,1] in normalized units) plus the
median residual quantile, bit-exactly the emitted q=0.5 value. The window
always holds exactly N vectors. Calendar rows, the window's and the
future's, are computed from the start instants on the grid, never predicted.
"""

from __future__ import annotations

import numpy as np

from .data import (FEATURE_NAMES, N_DET_FEATURES, N_FEATURES, STEP, KpiSeries,
                   Normalizer, atomic_open, csv_line, csv_rows, step_calendar)
from .model import DecoderOutput, ForecastModel


def rollout(model: ForecastModel, windows: np.ndarray, starts, carrier_ids,
            horizon: int) -> tuple[np.ndarray, DecoderOutput]:
    """Forecast `horizon` steps for each of B rows, advancing all rows
    together in M-step blocks from their (B, N, 9) windows. Row b starts at
    the `datetime64[m]` instant `starts[b]` for carrier `carrier_ids[b]`;
    every calendar row, the window's included, comes from that instant. The
    last block is truncated if the horizon is not a multiple of M. Returns
    the (B, K) `datetime64[m]` step instants and one `DecoderOutput` with
    `det` (B, K, 8) and `quantiles` (B, K, 3)."""
    n, m = model.hp.n_past, model.hp.n_future
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    windows = np.asarray(windows, dtype=np.float32)
    if windows.shape[1:] != (n, N_FEATURES) or not (
            0 < len(windows) == len(starts) == len(carrier_ids)):
        raise ValueError(f"need B >= 1 windows of shape ({n}, {N_FEATURES}) with "
                         f"as many starts and carriers, got {windows.shape}")
    steps = -(-horizon // m) * m
    times, meta = step_calendar(starts, carrier_ids, n, steps)  # (B, N + steps)
    seq = np.empty((len(windows), n + steps, N_FEATURES), dtype=np.float32)
    seq[:, :n] = windows
    dets, quants = [], []
    for t in range(0, steps, m):
        out = model.forward_block(seq[:, t:t + n], meta[:, t:t + n], meta[:, n + t:n + t + m])
        seq[:, n + t:n + t + m, :N_DET_FEATURES] = np.clip(out.det, 0.0, 1.0)
        seq[:, n + t:n + t + m, N_DET_FEATURES] = out.quantiles[..., 1]
        dets.append(out.det)          # (B, M, 8)
        quants.append(out.quantiles)  # (B, M, 3), sorted + clipped
    return times[:, n:n + horizon], DecoderOutput(
        det=np.concatenate(dets, axis=1)[:, :horizon],
        quantiles=np.concatenate(quants, axis=1)[:, :horizon])


def window_from_records(series: KpiSeries, at: int, n_past: int,
                        normalizer: Normalizer):
    """(window, next instant) from the `n_past` observations of `series`
    before index `at`; the instant is `datetime64[m]`."""
    window = normalizer.apply(series.values[at - n_past:at]).astype(np.float32)
    return window, series.times[at - 1] + STEP


def forecast_to_csv(times: np.ndarray, carrier_id: int, quantiles: np.ndarray,
                    det: np.ndarray, normalizer: Normalizer, path: str) -> None:
    """One row per step of one rollout row, from its (K,) instants, (K, 3)
    quantiles and (K, 8) det: quantiles in ratio units, deterministic KPIs
    clipped to [0, 1] as the rollout feeds them back, then denormalized back
    to native units, so no KPI falls outside the training range."""
    kpis = normalizer.invert(np.clip(det, 0.0, 1.0))
    with atomic_open(path) as f:
        f.write(csv_line(["timestamp", "carrier_id", "q10", "q50", "q90"] + FEATURE_NAMES))
        f.write(csv_rows(times, carrier_id, np.concatenate([quantiles, kpis], axis=1)))
