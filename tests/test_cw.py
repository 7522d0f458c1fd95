"""CW-pump rates, wavepacket, buildup, accidentals, and tolerance band."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ringsfwm import (
    CouplingConfig,
    cw_accidentals_and_car,
    cw_observables,
    cw_pair_rate,
    cw_pump_buildup,
    cw_single_rate,
    cw_wavepacket,
    rate_scale_R0,
    tolerance_band,
)

from conftest import (
    UNIT_RING,
    cw_pair_rate_quadrature,
    parabola_argmax,
    random_coupling,
    ratio_spread_ulps,
)

POWER = 10e-6


class TestSinglesRate:
    def test_allpass_critical_coupling(self, algaas):
        ring, gc = algaas
        r0 = rate_scale_R0(ring, POWER, gc)
        rs = cw_single_rate(ring, CouplingConfig.all_pass(gc, gc), POWER)
        assert rs == pytest.approx(r0 / 2.0, rel=1e-12)

    def test_adddrop_identical_optimum(self, algaas):
        ring, gc = algaas
        r0 = rate_scale_R0(ring, POWER, gc)
        cfg = CouplingConfig.add_drop(2.0 * gc / 3.0, gc / 3.0, gc)
        assert cw_single_rate(ring, cfg, POWER) == pytest.approx(2.0 / 27.0 * r0, rel=1e-12)

    def test_zero_output_coupling(self, algaas):
        ring, gc = algaas
        assert cw_single_rate(ring, CouplingConfig.add_drop(gc, 0.0, gc), POWER) == 0.0


class TestPairRate:
    def test_distinct_optimum(self, algaas):
        ring, gc = algaas
        r0 = rate_scale_R0(ring, POWER, gc)
        cfg = CouplingConfig.distinct(gc, 2.0 * gc, gc)
        assert cw_pair_rate(ring, cfg, POWER) == pytest.approx(8.0 / 27.0 * r0, rel=1e-12)

    def test_allpass_optimum(self, algaas):
        ring, gc = algaas
        r0 = rate_scale_R0(ring, POWER, gc)
        cfg = CouplingConfig.all_pass(4.0 * gc / 3.0, gc)
        assert cw_pair_rate(ring, cfg, POWER) == pytest.approx(
            221184.0 / 823543.0 * r0, rel=1e-12
        )

    def test_distinct_critical_both(self, algaas):
        ring, gc = algaas
        r0 = rate_scale_R0(ring, POWER, gc)
        cfg = CouplingConfig.distinct(gc, gc, gc)
        assert cw_pair_rate(ring, cfg, POWER) == pytest.approx(0.25 * r0, rel=1e-12)

    def test_pair_singles_identity_random(self, rng):
        for _ in range(300):
            cfg = random_coupling(rng, gamma_c=4.47e8, lo=0.05, hi=8.0)
            rs = cw_single_rate(UNIT_RING, cfg, 1.0)
            rsi = cw_pair_rate(UNIT_RING, cfg, 1.0)
            assert rsi == pytest.approx(cfg.gamma_mu / cfg.gamma * rs, rel=5e-14)

    def test_rates_nonnegative_and_continuous(self, algaas):
        ring, gc = algaas
        base = cw_pair_rate(ring, CouplingConfig.all_pass(1.3 * gc, gc), POWER)
        for eps in (1e-6, 1e-8):
            nudged = cw_pair_rate(ring, CouplingConfig.all_pass(1.3 * gc * (1 + eps), gc), POWER)
            assert nudged >= 0.0
            assert abs(nudged - base) / base < 10.0 * eps


class TestWavepacket:
    def test_peak_amplitude(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.distinct(1.2 * gc, 0.8 * gc, gc)
        drive = ring.n2 * ring.vg**2 * ring.omega0 * POWER / (
            299792458.0 * ring.area * ring.circumference
        )
        expected = 4.0 * cfg.tgamma_a * cfg.gamma_mu / (cfg.tgamma**2 * cfg.gamma) * drive
        assert cw_wavepacket(ring, cfg, POWER, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_even_in_delay(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(0.7 * gc, gc)
        tau = np.linspace(0.1, 30.0, 7) / cfg.gamma
        np.testing.assert_array_equal(
            cw_wavepacket(ring, cfg, POWER, tau), cw_wavepacket(ring, cfg, POWER, -tau)
        )

    def test_quadrature_recovers_pair_rate(self, algaas, rng):
        ring, gc = algaas
        for _ in range(100):
            cfg = random_coupling(rng, gamma_c=gc)
            oracle = cw_pair_rate_quadrature(ring, cfg, POWER)
            assert cw_pair_rate(ring, cfg, POWER) == pytest.approx(oracle, rel=1e-6)


class TestPumpBuildup:
    def test_on_resonance_critical_coupling_is_peak(self):
        peak = cw_pump_buildup(CouplingConfig.all_pass(1.0, 1.0), 0.0)
        assert peak == 1.0
        for ga in (0.5, 0.9, 1.1, 2.0, 5.0):
            assert cw_pump_buildup(CouplingConfig.all_pass(ga, 1.0), 0.0) < peak

    def test_detuned_optimum_coupling(self):
        for detuning in (0.7, 2.3):
            res = minimize_scalar(
                lambda ga: -cw_pump_buildup(CouplingConfig.all_pass(ga, 1.0), detuning),
                bounds=(0.05, 30.0),
                method="bounded",
                options={"xatol": 1e-10},
            )
            expected = np.sqrt(1.0 + 4.0 * detuning**2)
            assert res.x == pytest.approx(expected, rel=1e-6)

    def test_vanishes_when_overcoupled(self):
        values = [
            cw_pump_buildup(CouplingConfig.all_pass(ga, 1.0), 0.0)
            for ga in (10.0, 100.0, 1000.0)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 5e-3


class TestAccidentalsAndCar:
    def test_power_scaling(self, algaas):
        """Both rates grow as P^2, so CAR = Rsi/(T*Rs*Ri) falls as 1/P^2."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        _, car1 = cw_accidentals_and_car(ring, cfg, POWER, 1e-9)
        _, car2 = cw_accidentals_and_car(ring, cfg, 2.0 * POWER, 1e-9)
        assert car2 == pytest.approx(car1 / 4.0, rel=1e-12)

    def test_window_scaling(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        _, car1 = cw_accidentals_and_car(ring, cfg, POWER, 1e-9)
        _, car2 = cw_accidentals_and_car(ring, cfg, POWER, 0.5e-9)
        assert car2 == pytest.approx(2.0 * car1, rel=1e-12)

    def test_two_route_agreement(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        window = 1e-9
        r_acc, car = cw_accidentals_and_car(ring, cfg, POWER, window)
        rs = cw_single_rate(ring, cfg, POWER)
        assert r_acc == pytest.approx(window * rs * rs, rel=1e-13)
        assert car == pytest.approx(
            cfg.gamma_mu / (cfg.gamma * window * rs), rel=1e-13
        )

    def test_undefined_when_rate_zero(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="CAR"):
            cw_accidentals_and_car(ring, CouplingConfig.all_pass(0.0, gc), POWER, 1e-9)

    def test_car_grows_toward_undercoupling(self, algaas):
        ring, gc = algaas
        cars = [
            cw_accidentals_and_car(ring, CouplingConfig.all_pass(f * gc, gc), POWER, 1e-9)[1]
            for f in (0.6, 0.3, 0.1, 0.03)
        ]
        assert all(c2 > c1 for c1, c2 in zip(cars, cars[1:]))


class TestObservablesBundle:
    def test_bundle_consistency(self, algaas, rng):
        ring, gc = algaas
        for _ in range(20):
            cfg = random_coupling(rng, gamma_c=gc)
            obs = cw_observables(ring, cfg, POWER)
            assert obs.Rs == obs.Ri
            assert obs.heralding_efficiency == cfg.gamma_mu / cfg.gamma
            assert obs.Rsi <= obs.Rs


class TestDistinctSeparability:
    def test_pair_rate_argmax_independent_of_pump_coupling(self):
        """The drop-coupling argmax must not move when the pump coupling
        changes, because the pair rate factorizes: the ratio of the rates at
        two pump couplings is one constant over the whole gamma_b scan, up to
        the few roundings of the kernel (3 ulps observed)."""
        grid = np.geomspace(0.05, 10.0, 121)
        tgammas = np.linspace(0.2, 5.0, 10)
        rate = lambda tga, gb: cw_pair_rate(  # noqa: E731
            UNIT_RING, CouplingConfig.distinct(tga, gb, 1.0), 1.0
        )
        assert ratio_spread_ulps(rate, tgammas, grid) <= 16.0
        argmax = parabola_argmax(lambda gb: rate(tgammas[0], gb), grid)
        assert argmax == pytest.approx(2.0, abs=1e-4)


class TestToleranceBand:
    def test_band_is_level_set_of_both_rates(self):
        frac = 0.5
        lo, hi = tolerance_band(frac)
        rates = lambda g: (  # noqa: E731
            cw_single_rate(UNIT_RING, CouplingConfig.all_pass(g, 1.0), 1.0),
            cw_pair_rate(UNIT_RING, CouplingConfig.all_pass(g, 1.0), 1.0),
        )
        grid = np.geomspace(1e-3, 1e3, 20001)
        table = np.array([rates(g) for g in grid])
        peaks = table.max(axis=0)
        inside = (table[:, 0] >= frac * peaks[0]) & (table[:, 1] >= frac * peaks[1])
        lo_oracle = grid[inside][0]
        hi_oracle = grid[inside][-1]
        step = grid[1] / grid[0]
        assert lo_oracle / step <= lo <= lo_oracle * step
        assert hi_oracle / step <= hi <= hi_oracle * step
        # endpoints sit exactly on the binding 50% level
        at_lo = rates(lo)
        at_hi = rates(hi)
        # grid peaks carry O(step^2) bias, so the level check is modest
        assert min(at_lo[0] / peaks[0], at_lo[1] / peaks[1]) == pytest.approx(frac, rel=1e-6)
        assert min(at_hi[0] / peaks[0], at_hi[1] / peaks[1]) == pytest.approx(frac, rel=1e-6)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            tolerance_band(1.5)

    def test_rejects_empty_band(self):
        """Above frac ~ 0.9835 the singles band (around 1) and the pair band
        (around 4/3) no longer overlap."""
        lo, hi = tolerance_band(0.983)
        assert 1.0 < lo <= hi < 4.0 / 3.0
        for frac in (0.99, 0.999999):
            with pytest.raises(ValueError, match="no coupling keeps both rates"):
                tolerance_band(frac)
