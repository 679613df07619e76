import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from prbforecast import synth
from prbforecast.data import N_FEATURES, STEP, KpiSeries, load_csv, save_csv, to_datetime64
from prbforecast.synth import (MEAN_BURST_STEPS, CarrierProfile, default_profiles,
                               diurnal_load, generate)

UTC = timezone.utc


def flat_profile(**overrides):
    base = dict(carrier_id=0, n_prb_total=100, base_load=0.4,
                diurnal_amplitude=0.0, phase_hours=0.0, weekend_attenuation=1.0,
                burst_probability=0.0, burst_depth=0.0, noise_sigma=0.0)
    base.update(overrides)
    return CarrierProfile(**base)


class TestProfiles:
    def test_default_profiles_cover_all_carriers(self):
        profiles = default_profiles(21, seed=1)
        assert sorted(p.carrier_id for p in profiles) == list(range(21))

    def test_same_seed_same_profiles(self):
        assert default_profiles(5, seed=9) == default_profiles(5, seed=9)

    def test_amplitude_budget_holds(self):
        for p in default_profiles(21, seed=4):
            assert p.base_load + p.diurnal_amplitude <= 1.0

    def test_out_of_range_count_rejected(self):
        with pytest.raises(ValueError):
            default_profiles(22)
        with pytest.raises(ValueError):
            default_profiles(0)

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            flat_profile(base_load=0.8, diurnal_amplitude=0.4)


class TestGenerate:
    def test_deterministic_given_seed(self):
        profiles = default_profiles(3, seed=5)
        a = generate(profiles, n_days=2, seed=42)
        b = generate(profiles, n_days=2, seed=42)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_degenerate_profile_constant_residual(self):
        series = generate([flat_profile()], n_days=1, seed=0)[0]
        residuals = series.values[:, -1]
        np.testing.assert_allclose(residuals, 1.0 - 0.4, atol=1.0 / 100)

    def test_mean_residual_matches_sinusoid_quadrature(self):
        profile = flat_profile(base_load=0.45, diurnal_amplitude=0.3, phase_hours=6.0)
        # start Monday, 1 weekday so the weekend factor never engages
        series = generate([profile], start=datetime(2024, 1, 1, tzinfo=UTC),
                          n_days=1, seed=0)[0]
        empirical = np.mean(series.values[:, -1])
        # quadrature oracle over the clipped sinusoid on a fine grid
        hours = np.linspace(0, 24, 100000, endpoint=False)
        load = np.clip(profile.base_load + profile.diurnal_amplitude
                       * np.sin(2 * np.pi * (hours - profile.phase_hours) / 24),
                       0.0, 1.0)
        analytic = np.mean(1.0 - load)
        assert abs(empirical - analytic) < 0.02

    def test_output_passes_ingestion(self, tmp_path):
        series = generate(default_profiles(4, seed=2), n_days=2, seed=2)
        path = tmp_path / "synth.csv"
        save_csv(series, str(path))
        loaded = load_csv(str(path))
        assert [len(s) for s in loaded] == [192] * 4
        for s in loaded:
            for ue_max, ue_avg in s.values[:, [5, 6]]:
                assert ue_avg <= ue_max

    def test_diurnal_autocorrelation_dominates(self):
        profile = flat_profile(base_load=0.4, diurnal_amplitude=0.25,
                               noise_sigma=0.05, phase_hours=3.0)
        # weekdays only so the weekly modulation does not blur the daily cycle
        series = generate([profile], start=datetime(2024, 1, 1, tzinfo=UTC),
                          n_days=4, seed=11)[0]
        r = series.values[:, -1].copy()
        r = r - r.mean()

        def autocorr(lag):
            return float(np.dot(r[:-lag], r[lag:]) / np.dot(r, r))

        assert autocorr(96) > autocorr(13)

    def test_misaligned_start_rejected(self):
        with pytest.raises(ValueError):
            generate([flat_profile()], start=datetime(2024, 1, 1, 0, 7, tzinfo=UTC),
                     n_days=1)

    def test_bursts_depress_residual(self):
        calm = generate([flat_profile()], n_days=7, seed=3)[0]
        bursty = generate([flat_profile(burst_probability=0.05, burst_depth=0.3)],
                          n_days=7, seed=3)[0]
        mean_calm = np.mean(calm.values[:, -1])
        mean_bursty = np.mean(bursty.values[:, -1])
        assert mean_bursty < mean_calm


def reference_generate_one(profile: CarrierProfile, start: datetime, n_steps: int,
                           seed: int) -> KpiSeries:
    """The per-step loop `synth._generate_one` replaced: scalar draws in
    stream order, the wall clock advanced 15 minutes a step."""
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
        residual = (profile.n_prb_total - n_used) / profile.n_prb_total
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


ORACLE_PROFILES = {
    "default": lambda seed: default_profiles(21, seed)[seed % 21],
    "no_noise": lambda seed: flat_profile(diurnal_amplitude=0.3, noise_sigma=0.0,
                                          burst_probability=0.05, burst_depth=0.3),
    "no_bursts": lambda seed: flat_profile(diurnal_amplitude=0.3, noise_sigma=0.03),
    "always_bursting": lambda seed: flat_profile(diurnal_amplitude=0.3, noise_sigma=0.03,
                                                 burst_probability=1.0, burst_depth=0.3),
    "zero_burst_depth": lambda seed: flat_profile(noise_sigma=0.03, burst_probability=0.2),
    "load_pinned_at_0": lambda seed: flat_profile(base_load=0.0, burst_probability=0.1,
                                                  burst_depth=0.0),
    "load_pinned_at_1": lambda seed: flat_profile(n_prb_total=75, base_load=1.0,
                                                  noise_sigma=0.02, burst_probability=0.1,
                                                  burst_depth=1.0),
    # 12.5 PRBs in use: round() and np.rint both round half to even
    "half_a_prb": lambda seed: flat_profile(n_prb_total=50, base_load=0.25),
}
ORACLE_STARTS = {
    "monday_utc": datetime(2024, 1, 1, tzinfo=UTC),
    "saturday_13_45": datetime(2024, 3, 9, 13, 45, tzinfo=UTC),
    "plus_05_00": datetime(2024, 1, 5, 22, 30, tzinfo=timezone(timedelta(hours=5))),
}


class TestGenerateMatchesTheStepLoop:
    @pytest.mark.parametrize("n_steps", [1, 5, 95, 672, 700, 1000])
    @pytest.mark.parametrize("start", list(ORACLE_STARTS), ids=str)
    @pytest.mark.parametrize("name", list(ORACLE_PROFILES))
    def test_values_and_times_are_bit_identical(self, name, start, n_steps):
        for seed in (0, 3, 7):
            profile = ORACLE_PROFILES[name](seed)
            got = synth._generate_one(profile, ORACLE_STARTS[start], n_steps, seed)
            want = reference_generate_one(profile, ORACLE_STARTS[start], n_steps, seed)
            assert got.carrier_id == want.carrier_id
            assert got.values.tobytes() == want.values.tobytes()
            assert got.times.dtype == want.times.dtype
            assert got.times.tobytes() == want.times.tobytes()

    def test_generate_matches_over_seeds_and_carriers(self):
        for seed in range(8):
            profiles = default_profiles(4, seed)
            got = generate(profiles, n_days=3, seed=seed)
            for series, profile in zip(got, profiles):
                want = reference_generate_one(profile, synth.DEFAULT_START, 3 * 96, seed)
                assert series.values.tobytes() == want.values.tobytes()
                assert series.times.tobytes() == want.times.tobytes()
