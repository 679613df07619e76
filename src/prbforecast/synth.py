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

from .data import (N_CARRIERS, N_FEATURES, STEP, KpiSeries, residual_ratio,
                   to_datetime64)

DEFAULT_START = datetime(2024, 1, 1, tzinfo=timezone.utc)  # a Monday
STEPS_PER_DAY = 96
MEAN_BURST_STEPS = 8

PRB_CLASSES = (50, 75, 100)  # 10/15/20 MHz bandwidth classes


@dataclass
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

    def validate(self):
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
    profiles = []
    for cid in range(n_carriers):
        profiles.append(CarrierProfile(
            carrier_id=cid,
            n_prb_total=PRB_CLASSES[cid % len(PRB_CLASSES)],
            base_load=float(rng.uniform(0.25, 0.50)),
            diurnal_amplitude=float(rng.uniform(0.20, 0.32)),
            phase_hours=float((cid * 1.7 + rng.uniform(0, 2)) % 24),
            weekend_attenuation=float(rng.uniform(0.6, 0.9)),
            burst_probability=float(rng.uniform(0.002, 0.008)),
            burst_depth=float(rng.uniform(0.15, 0.35)),
            noise_sigma=float(rng.uniform(0.015, 0.035)),
        ))
    for p in profiles:
        p.validate()
    return profiles


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
    burst_left = 0
    ts = start
    for i in range(n_steps):
        eps = rng.normal(0.0, profile.noise_sigma) if profile.noise_sigma > 0 else 0.0
        load = diurnal_load(profile, ts) + eps
        if burst_left > 0:
            burst_left -= 1
        elif profile.burst_probability > 0 and rng.random() < profile.burst_probability:
            burst_left = 1 + rng.geometric(1.0 / MEAN_BURST_STEPS)
        if burst_left > 0:
            load += profile.burst_depth
        load = min(max(load, 0.0), 1.0)

        n_used = round(load * profile.n_prb_total)
        residual = residual_ratio(profile.n_prb_total, n_used)
        ue_noise = rng.normal(0.0, 1.0)
        ue_avg = max(40.0 * load * (1.0 + 0.1 * ue_noise), 0.0)
        ue_max = math.ceil(1.5 * ue_avg)
        values[i] = (
            max(load * profile.n_prb_total * (1 + 0.02 * rng.normal()), 0.0),  # prb_mean
            profile.n_prb_total,                                      # prb_total
            max(9.0e5 * load * (1 + 0.05 * rng.normal()), 0.0),       # active_tti
            max(0.8 * n_used * (1 + 0.03 * rng.normal()), 0.0),       # prb_pdsch
            max(0.1 * n_used * (1 + 0.03 * rng.normal()), 0.0),       # prb_pucch
            ue_max,                                                   # ue_max
            ue_avg,                                                   # ue_avg
            max(0.36 * n_used * (1 + 0.05 * rng.normal()), 0.0),      # dl_tput
            residual,                                                 # residual_prb
        )
        ts = ts + timedelta(minutes=15)
    times = to_datetime64(start) + np.arange(n_steps) * STEP
    return KpiSeries(profile.carrier_id, times, values)


def generate(profiles: list[CarrierProfile], start: datetime = DEFAULT_START,
             n_days: int = 30, seed: int = 0) -> list[KpiSeries]:
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    if start.minute % 15 != 0 or start.second != 0:
        raise ValueError(f"start {start} not aligned to the 15-minute grid")
    for p in profiles:
        p.validate()
    n_steps = n_days * STEPS_PER_DAY
    return [_generate_one(p, start, n_steps, seed)
            for p in sorted(profiles, key=lambda p: p.carrier_id)]
