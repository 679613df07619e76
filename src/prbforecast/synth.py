"""Seeded synthetic multi-carrier LTE KPI traffic.

Load follows a clipped diurnal sinusoid with weekend attenuation, Gaussian
noise, and occasional bursty load spikes of geometric duration (mean 8 steps
= 2 h) that carve sharp drops into the residual ratio. Everything is a pure
function of (profiles, seed): per-carrier sub-streams are seeded with
seed XOR carrier_id so generation can run per carrier in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .data import N_CARRIERS, N_FEATURES, STEP, KpiSeries, to_datetime64

DEFAULT_START = datetime(2024, 1, 1, tzinfo=timezone.utc)  # a Monday
STEPS_PER_DAY = 96
MEAN_BURST_STEPS = 8

PRB_CLASSES = (50, 75, 100)  # 10/15/20 MHz bandwidth classes


@dataclass(frozen=True)
class CarrierProfile:
    carrier_id: int
    n_prb_total: int
    base_load: float          # b
    diurnal_amplitude: float  # a, with b + a <= 1
    phase_hours: float
    weekend_attenuation: float
    burst_probability: float
    burst_depth: float
    noise_sigma: float

    def __post_init__(self):
        if not 0 <= self.carrier_id < N_CARRIERS:
            raise ValueError(f"carrier_id {self.carrier_id} outside 0..{N_CARRIERS - 1}")
        if self.n_prb_total <= 0:
            raise ValueError("n_prb_total must be positive")
        if not 0.0 <= self.base_load <= 1.0:
            raise ValueError(f"base_load {self.base_load} outside [0,1]")
        if not 0.0 <= self.diurnal_amplitude <= 0.5:
            raise ValueError(f"diurnal_amplitude {self.diurnal_amplitude} outside [0,0.5]")
        if self.base_load + self.diurnal_amplitude > 1.0:
            raise ValueError("base_load + diurnal_amplitude must not exceed 1")
        for name in ("weekend_attenuation", "burst_probability", "burst_depth"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0,1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def default_profiles(n_carriers: int = N_CARRIERS, seed: int = 0) -> list[CarrierProfile]:
    """Reproducible spread of profiles: three bandwidth classes, staggered
    diurnal phases, mild noise so the daily cycle stays learnable."""
    if not 1 <= n_carriers <= N_CARRIERS:
        raise ValueError(f"n_carriers must be in 1..{N_CARRIERS}, got {n_carriers}")
    rng = np.random.default_rng(seed)
    return [CarrierProfile(
        carrier_id=cid,
        n_prb_total=PRB_CLASSES[cid % len(PRB_CLASSES)],
        base_load=float(rng.uniform(0.25, 0.50)),
        diurnal_amplitude=float(rng.uniform(0.20, 0.32)),
        phase_hours=float((cid * 1.7 + rng.uniform(0, 2)) % 24),
        weekend_attenuation=float(rng.uniform(0.6, 0.9)),
        burst_probability=float(rng.uniform(0.002, 0.008)),
        burst_depth=float(rng.uniform(0.15, 0.35)),
        noise_sigma=float(rng.uniform(0.015, 0.035)),
    ) for cid in range(n_carriers)]


def diurnal_load(profile: CarrierProfile, ts: datetime) -> float:
    """Noise-free, burst-free load at `ts` (the clipped sinusoid mean line)."""
    hours = ts.hour + ts.minute / 60.0
    weekday_factor = profile.weekend_attenuation if ts.weekday() >= 5 else 1.0
    raw = profile.base_load + profile.diurnal_amplitude * weekday_factor * \
        math.sin(2 * math.pi * (hours - profile.phase_hours) / 24.0)
    return min(max(raw, 0.0), 1.0)


def _generate_one(profile: CarrierProfile, start: datetime, n_steps: int,
                  seed: int) -> KpiSeries:
    rng = np.random.default_rng(seed ^ profile.carrier_id)
    values = np.empty((n_steps, N_FEATURES))
    # Per step the stream holds the load noise (if sigma > 0), the burst
    # draws (if no burst is running), then six KPI noises. A step's six KPI
    # noises and the next step's load noise are adjacent, so one array draw
    # per step fills both; the load noise drawn after the last step is unused.
    width = 7 if profile.noise_sigma > 0 else 6
    lead = width - 6
    draws = np.empty(n_steps * width + lead)
    in_burst = np.empty(n_steps, dtype=bool)
    rng.standard_normal(out=draws[:lead])
    burst_left = 0
    for i, chunk in enumerate(draws[lead:].reshape(n_steps, width)):
        if burst_left > 0:
            burst_left -= 1
        elif profile.burst_probability > 0 and rng.random() < profile.burst_probability:
            burst_left = 1 + rng.geometric(1.0 / MEAN_BURST_STEPS)
        in_burst[i] = burst_left > 0
        rng.standard_normal(out=chunk)
    draws = draws[:n_steps * width].reshape(n_steps, width)  # step i's draws in row i
    # rng.normal() is 0.0 + 1.0 * z; each KPI noise z enters only as 1 + c * z,
    # where that and z itself give the same sum
    ue_noise, prb_noise, tti_noise, pdsch_noise, pucch_noise, tput_noise = draws[:, lead:].T

    # the noise-free line repeats each week of wall-clock 15-minute steps
    quarter = timedelta(minutes=15)
    week = [diurnal_load(profile, start + j * quarter)
            for j in range(min(n_steps, 7 * STEPS_PER_DAY))]
    load = np.resize(np.array(week), n_steps)
    load = load + (0.0 + profile.noise_sigma * draws[:, 0] if lead else 0.0)  # rng.normal()
    load = np.where(in_burst, load + profile.burst_depth, load)
    load = np.minimum(np.maximum(load, 0.0), 1.0)

    n_prb = profile.n_prb_total
    n_used = np.rint(load * n_prb)
    ue_avg = np.maximum(40.0 * load * (1.0 + 0.1 * ue_noise), 0.0)
    values[:, 0] = np.maximum(load * n_prb * (1 + 0.02 * prb_noise), 0.0)   # prb_mean
    values[:, 1] = n_prb                                                    # prb_total
    values[:, 2] = np.maximum(9.0e5 * load * (1 + 0.05 * tti_noise), 0.0)   # active_tti
    values[:, 3] = np.maximum(0.8 * n_used * (1 + 0.03 * pdsch_noise), 0.0)  # prb_pdsch
    values[:, 4] = np.maximum(0.1 * n_used * (1 + 0.03 * pucch_noise), 0.0)  # prb_pucch
    values[:, 5] = np.ceil(1.5 * ue_avg)                                    # ue_max
    values[:, 6] = ue_avg                                                   # ue_avg
    values[:, 7] = np.maximum(0.36 * n_used * (1 + 0.05 * tput_noise), 0.0)  # dl_tput
    values[:, 8] = (n_prb - n_used) / n_prb                                 # residual_prb
    times = to_datetime64(start) + np.arange(n_steps) * STEP
    return KpiSeries(profile.carrier_id, times, values)


def generate(profiles: list[CarrierProfile], start: datetime = DEFAULT_START,
             n_days: int = 30, seed: int = 0) -> list[KpiSeries]:
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    if start.minute % 15 != 0 or start.second != 0:
        raise ValueError(f"start {start} not aligned to the 15-minute grid")
    n_steps = n_days * STEPS_PER_DAY
    return [_generate_one(p, start, n_steps, seed)
            for p in sorted(profiles, key=lambda p: p.carrier_id)]
