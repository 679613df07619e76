import math
from datetime import datetime, timezone

import numpy as np
import pytest

from prbforecast import synth
from prbforecast.data import load_csv, save_csv
from prbforecast.synth import CarrierProfile, default_profiles, generate

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
            flat_profile(base_load=0.8, diurnal_amplitude=0.4).validate()


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
