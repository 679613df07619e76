"""Forecast evaluation: median MAE, 80% prediction-interval hit
probability and absolute-error spread, each over the last axis (one number
for 1-D inputs, one per row for (rows, K)); per-carrier rollout evaluation
with anchor averaging; and an SVG plot of truth vs. the forecast band.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .data import KpiSeries, Normalizer, atomic_open, format_instants
from .model import ForecastModel
from .rollout import rollout, window_from_records

PLOT_WIDTH, PLOT_HEIGHT = 960, 360  # SVG canvas, px


def mae(truth, median_pred):
    """Mean absolute error of the median forecast."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(median_pred, dtype=np.float64)
    if truth.shape != pred.shape or truth.size == 0:
        raise ValueError(f"length mismatch: {truth.shape} vs {pred.shape}")
    return np.mean(np.abs(truth - pred), axis=-1)


def hit_probability(truth, q10, q90):
    """Fraction of steps whose true value lies inside [q10, q90];
    boundary values count as hits."""
    truth = np.asarray(truth, dtype=np.float64)
    lo = np.asarray(q10, dtype=np.float64)
    hi = np.asarray(q90, dtype=np.float64)
    if truth.shape != lo.shape or truth.shape != hi.shape:
        raise ValueError("length mismatch between truth and interval bounds")
    if np.any(lo > hi):
        raise ValueError("crossing prediction interval (q10 > q90)")
    return np.mean((lo <= truth) & (truth <= hi), axis=-1)


def abs_err_std(truth, median_pred):
    """Population standard deviation of the absolute median error."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(median_pred, dtype=np.float64)
    if truth.shape != pred.shape or truth.ndim == 0 or truth.shape[-1] < 2:
        raise ValueError("need at least 2 matched values")
    return np.std(np.abs(truth - pred), axis=-1)


def anchor_positions(series_len: int, n_past: int, horizon: int,
                     n_anchors: int) -> list[int]:
    """Evenly spaced anchor indices: each leaves N history and K future."""
    lo, hi = n_past, series_len - horizon
    if hi < lo:
        raise ValueError(
            f"series of {series_len} steps too short for N={n_past} history "
            f"plus K={horizon} horizon")
    if n_anchors < 1:
        raise ValueError("need at least one anchor")
    if n_anchors == 1:
        return [lo]
    span = hi - lo
    if n_anchors - 1 >= span:  # spacing of at most one step: every position
        return list(range(lo, hi + 1))
    return sorted({lo + round(i * span / (n_anchors - 1)) for i in range(n_anchors)})


def evaluate(model: ForecastModel, normalizer: Normalizer,
             test_series: list[KpiSeries], horizon: int,
             n_anchors: int = 1, plot_dir: str | None = None) -> dict:
    """Per-carrier rollout metrics on residual PRB, averaged over anchors,
    plus carrier-level aggregates. All (carrier, anchor) rows are rolled
    out as one batch and scored as one (rows, K) array; a carrier's entry is
    the mean over its rows. With `plot_dir`, each carrier's first-anchor
    forecast is also drawn to `carrier_<id>.svg` there."""
    hp = model.hp
    series_list = sorted(test_series, key=lambda s: s.carrier_id)
    if not series_list:
        raise ValueError("no series to evaluate")
    anchors = [anchor_positions(len(s), hp.n_past, horizon, n_anchors)
               for s in series_list]
    rows = [window_from_records(s, a, hp.n_past, normalizer)
            + (s.carrier_id, s.values[a:a + horizon, -1])
            for s, anchor_list in zip(series_list, anchors) for a in anchor_list]
    windows, starts, carriers, truth = map(np.stack, zip(*rows))
    times, out = rollout(model, windows, starts, carriers, horizon)
    q10, q50, q90 = np.moveaxis(out.quantiles, -1, 0)  # (rows, K) each
    maes, stds = mae(truth, q50), abs_err_std(truth, q50)
    hits = hit_probability(truth, q10, q90)
    bounds = np.cumsum([0] + [len(a) for a in anchors])  # rows: carrier-major, then anchor
    per_carrier = [{
        "carrier_id": series.carrier_id,
        "mae": float(np.mean(maes[lo:hi])),
        "abs_err_std": float(np.mean(stds[lo:hi])),
        "hit_prob": float(np.mean(hits[lo:hi])),
        "horizon": horizon,
        "anchors": anchor_list,
    } for series, anchor_list, lo, hi in zip(series_list, anchors, bounds, bounds[1:])]
    if plot_dir:
        os.makedirs(plot_dir, exist_ok=True)
        for series, lo in zip(series_list, bounds):
            emit_plot_svg(truth[lo], times[lo], series.carrier_id, out.quantiles[lo],
                          os.path.join(plot_dir, f"carrier_{series.carrier_id}.svg"))
    carrier_maes = [c["mae"] for c in per_carrier]
    return {
        "per_carrier": per_carrier,
        "aggregate": {
            "mean_mae": float(np.mean(carrier_maes)),
            "mae_std": float(np.std(carrier_maes)),
            "mean_hit_prob": float(np.mean([c["hit_prob"] for c in per_carrier])),
        },
        "metadata": {
            "horizon": horizon,
            "n_anchors": n_anchors,
            "carriers": [c["carrier_id"] for c in per_carrier],
        },
    }


def model_hash(path: str) -> str:
    """SHA-256 (hex) of the checkpoint file at `path`."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_report(report: dict, path: str) -> None:
    with atomic_open(path) as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def emit_plot_svg(truth, times, carrier_id: int, quantiles, path: str) -> None:
    """Standalone SVG of one rollout row, from its (K,) instants and (K, 3)
    quantiles: ground-truth polyline, median polyline, and the q10-q90 band
    as one polygon (q90 forward then q10 reversed, 2K vertices)."""
    truth = np.asarray(truth, dtype=np.float64)
    quantiles = np.asarray(quantiles, dtype=np.float64)
    if truth.size == 0 or truth.size != len(quantiles):
        raise ValueError(f"cannot plot {truth.size} true steps against a forecast "
                         f"of {len(quantiles)}")
    k = len(quantiles)
    width, height, margin = PLOT_WIDTH, PLOT_HEIGHT, 40.0
    xs = margin + (width - 2 * margin) * (np.arange(k) / max(k - 1, 1))

    def points(values, x=xs):
        ys = height - margin - (height - 2 * margin) * np.clip(values, 0.0, 1.0)
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x.tolist(), ys.tolist()))

    band = points(quantiles[:, 2]) + " " + points(quantiles[::-1, 0], xs[::-1])
    start, end = format_instants(times[[0, -1]])
    svg = f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
  <rect width="{width}" height="{height}" fill="white"/>
  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>
  <line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>
  <text x="{margin}" y="20" font-size="13">carrier {carrier_id}: residual PRB, {start} to {end}</text>
  <polygon points="{band}" fill="#7aa6d9" fill-opacity="0.35" stroke="none"/>
  <polyline points="{points(truth)}" fill="none" stroke="#222222" stroke-width="1.2"/>
  <polyline points="{points(quantiles[:, 1])}" fill="none" stroke="#d9662a" stroke-width="1.2"/>
</svg>
"""
    with atomic_open(path) as f:
        f.write(svg)
