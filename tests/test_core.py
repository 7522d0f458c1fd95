"""Domain types, validation, and the coupling-independent scale factors."""


import mpmath as mp
import pytest

from ringsfwm import (
    BroadbandAssumptionWarning,
    CouplingConfig,
    Geometry,
    OutputPort,
    PumpMode,
    PumpSpec,
    RingParams,
    TabulatedSpectrum,
    prob_scale_p0,
    quality_factors,
    rate_scale_R0,
    total_linewidths,
)
from ringsfwm.core import C_VACUUM, TWO_PI


class TestRingParams:
    def test_rejects_nonpositive_fields(self):
        good = dict(n2=1e-17, vg=1e8, area=1e-13, circumference=1e-3, omega0=1e15)
        for name in good:
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                kwargs = dict(good)
                kwargs[name] = bad
                with pytest.raises(ValueError, match=name):
                    RingParams(**kwargs)

    def test_wavelength_constructor_consistency(self, algaas):
        ring, _ = algaas
        assert ring.omega0 == pytest.approx(TWO_PI * C_VACUUM / 1550e-9, rel=1e-12)
        assert ring.wavelength == pytest.approx(1550e-9, rel=1e-12)

    def test_fsr(self, algaas):
        ring, _ = algaas
        assert ring.fsr == pytest.approx(95.4e9, rel=1e-2)


class TestCouplingConfig:
    def test_total_linewidths_simple_sum(self):
        cfg = CouplingConfig.add_drop(1.0, 0.0, 1.0)
        assert total_linewidths(cfg) == (2.0, 2.0)

    def test_all_pass_identical_totals(self):
        gc = 3.7e8
        cfg = CouplingConfig.all_pass(gc, gc)
        gamma, tgamma = total_linewidths(cfg)
        assert gamma == tgamma == 2.0 * gc

    def test_distinct_totals(self):
        gc = 2.0
        cfg = CouplingConfig.distinct(gc, 2.0 * gc, gc)
        assert total_linewidths(cfg) == (3.0 * gc, 2.0 * gc)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="gamma_a"):
            CouplingConfig.all_pass(-1.0, 1.0)
        with pytest.raises(ValueError, match="gamma_c"):
            CouplingConfig.all_pass(1.0, 0.0)

    def test_geometry_constraints_named_in_diagnostic(self):
        with pytest.raises(ValueError, match="tgamma_a == gamma_a"):
            CouplingConfig(1.0, 0.0, 1.0, 2.0, 0.0, 1.0,
                           Geometry.ALL_PASS_IDENTICAL, OutputPort.A)
        with pytest.raises(ValueError, match="gamma_b == 0"):
            CouplingConfig(1.0, 0.5, 1.0, 1.0, 0.5, 1.0,
                           Geometry.ALL_PASS_IDENTICAL, OutputPort.A)
        with pytest.raises(ValueError, match="gamma_a == 0"):
            CouplingConfig(0.5, 1.0, 1.0, 1.0, 0.0, 1.0,
                           Geometry.ADD_DROP_DISTINCT, OutputPort.B)
        with pytest.raises(ValueError, match="output_port == b"):
            CouplingConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                           Geometry.ADD_DROP_IDENTICAL, OutputPort.A)

    def test_gamma_mu_follows_port(self):
        assert CouplingConfig.all_pass(2.0, 1.0).gamma_mu == 2.0
        assert CouplingConfig.add_drop(2.0, 0.5, 1.0).gamma_mu == 0.5
        assert CouplingConfig.distinct(1.0, 3.0, 1.0).gamma_mu == 3.0

    def test_distinct_allows_unequal_losses(self):
        cfg = CouplingConfig.distinct(1.0, 2.0, 1.0, tgamma_c=1.5)
        assert cfg.tgamma_c == 1.5
        assert cfg.tgamma == 2.5


class TestPumpSpec:
    def test_cw_requires_power(self):
        with pytest.raises(ValueError, match="power"):
            PumpSpec(PumpMode.CW)
        with pytest.raises(ValueError, match="power"):
            PumpSpec.cw(0.0)

    def test_pulsed_requires_energy_and_one_bandwidth(self):
        with pytest.raises(ValueError, match="energy"):
            PumpSpec(PumpMode.PULSED, delta_omega=1e9)
        with pytest.raises(ValueError, match="exactly one"):
            PumpSpec.pulsed(1e-12)
        with pytest.raises(ValueError, match="exactly one"):
            PumpSpec.pulsed(1e-12, delta_omega=1e9, bandwidth_factor=10.0)

    def test_spectrum_is_the_only_bandwidth(self):
        """A tabulated spectrum carries its own bandwidth; a flattop one next
        to it would be ignored, so it is refused."""
        spectrum = TabulatedSpectrum.flattop(2.0e10, n_samples=11)
        pump = PumpSpec.pulsed(1e-12, spectrum=spectrum)
        assert pump.spectrum is spectrum
        with pytest.raises(ValueError, match="flattop pump"):
            pump.delta_omega_for(2.0e9)
        for extra in ({"bandwidth_factor": 10.0}, {"delta_omega": 2.0e10}):
            with pytest.raises(ValueError, match="exactly one"):
                PumpSpec.pulsed(1e-12, spectrum=spectrum, **extra)

    def test_cw_rejects_pulsed_fields(self):
        with pytest.raises(ValueError, match="not meaningful"):
            PumpSpec(PumpMode.CW, power=1e-6, energy=1e-12)

    def test_delta_omega_for(self):
        pump = PumpSpec.pulsed(1e-12, bandwidth_factor=12.0)
        assert pump.delta_omega_for(2.0e9) == 24.0e9
        pump_abs = PumpSpec.pulsed(1e-12, delta_omega=5.0e10)
        assert pump_abs.delta_omega_for(2.0e9) == 5.0e10


class TestQualityFactors:
    def test_algaas_intrinsic_q(self, algaas):
        ring, gc = algaas
        qc, _ = quality_factors(ring, CouplingConfig.all_pass(gc, gc))
        assert qc == pytest.approx(2.72e6, rel=1e-2)

    def test_closed_cavity(self, algaas):
        ring, gc = algaas
        qc, q = quality_factors(ring, CouplingConfig.all_pass(0.0, gc))
        assert q == qc

    def test_critical_coupling_halves_q(self, algaas):
        ring, gc = algaas
        qc, q = quality_factors(ring, CouplingConfig.all_pass(gc, gc))
        assert q == pytest.approx(qc / 2.0, rel=1e-15)


class TestRateScale:
    def test_algaas_value(self, algaas):
        ring, gc = algaas
        assert rate_scale_R0(ring, 10e-6, gc) / 2.0 == pytest.approx(3.81e6, rel=1e-2)

    def test_power_squares(self, algaas):
        ring, gc = algaas
        assert rate_scale_R0(ring, 2e-5, gc) == 4.0 * rate_scale_R0(ring, 1e-5, gc)

    def test_gamma_c_cubes(self, algaas):
        ring, gc = algaas
        assert rate_scale_R0(ring, 1e-5, 2.0 * gc) == rate_scale_R0(ring, 1e-5, gc) / 8.0

    def test_pure(self, algaas):
        ring, gc = algaas
        assert rate_scale_R0(ring, 1e-5, gc) == rate_scale_R0(ring, 1e-5, gc)


class TestProbScale:
    def test_energy_squares(self, algaas):
        ring, gc = algaas
        assert prob_scale_p0(ring, 2e-12, 20.0, gc) == 4.0 * prob_scale_p0(ring, 1e-12, 20.0, gc)

    def test_bandwidth_inverse_squares(self, algaas):
        ring, gc = algaas
        assert prob_scale_p0(ring, 1e-12, 40.0, gc) == prob_scale_p0(ring, 1e-12, 20.0, gc) / 4.0

    def test_warns_when_bandwidth_factor_low(self, algaas):
        ring, gc = algaas
        with pytest.warns(BroadbandAssumptionWarning):
            prob_scale_p0(ring, 1e-12, 5.0, gc)

    def test_algaas_reference_value(self, algaas):
        """Arbitrary-precision evaluation of the same expression."""
        ring, gc = algaas
        mp.mp.dps = 40
        c = mp.mpf("299792458")
        omega0 = 2 * mp.pi * c / mp.mpf("1550e-9")
        expected = (
            2 * mp.pi * mp.mpf("2.6e-17") * mp.mpf("8.57e7") ** 2 * omega0
            * mp.mpf("1e-12")
            / (c * mp.mpf("0.330e-12") * (2 * mp.pi * mp.mpf("143e-6"))
               * 10 * (2 * mp.pi * mp.mpf("71.1e6")))
        ) ** 2
        got = prob_scale_p0(ring, 1e-12, 10.0, gc)
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert got == pytest.approx(13.482406934442903, rel=1e-12)
