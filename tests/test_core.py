"""Domain types, validation, and the coupling-independent scale factors."""

import _thread
import importlib
import pkgutil
import re
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ringsfwm

from ringsfwm import (
    BroadbandAssumptionWarning,
    CouplingConfig,
    Geometry,
    PumpMode,
    PumpSpec,
    RingParams,
    TabulatedSpectrum,
    cw_accidentals_and_car,
    cw_observables,
    cw_pair_rate,
    cw_single_rate,
    cw_wavepacket,
    discretize_wavepacket,
    prob_scale_p0,
    pulsed_accidental_prob,
    pulsed_observables,
    pulsed_pair_prob,
    pulsed_single_prob,
    pulsed_wavepacket,
    quality_factors,
    rate_scale_R0,
)
from ringsfwm.core import C_VACUUM, TWO_PI, coupling_parameter_names
from ringsfwm.optimize import (
    Objective,
    OptimizationTarget,
    PumpRegime,
    analytic_optimum,
    config_from_point,
    normalized_objective,
    numeric_optimum,
)
from ringsfwm.sweep import SweepAxis, SweepSpec

from conftest import UNIT_RING


@pytest.mark.parametrize(
    "module", ["ringsfwm", *(f"ringsfwm.{m.name}" for m in pkgutil.iter_modules(ringsfwm.__path__)
                             if m.name != "__main__")]
)
def test_export_lists_resolve(module):
    """Every name in a module's ``__all__`` exists, so a deleted public name
    leaves no stale export behind."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


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
    def test_add_drop_totals_simple_sum(self):
        cfg = CouplingConfig.add_drop(1.0, 0.0, 1.0)
        assert (cfg.gamma, cfg.tgamma) == (2.0, 2.0)

    def test_all_pass_identical_totals(self):
        gc = 3.7e8
        cfg = CouplingConfig.all_pass(gc, gc)
        gamma, tgamma = cfg.gamma, cfg.tgamma
        assert gamma == tgamma == 2.0 * gc

    def test_distinct_totals(self):
        gc = 2.0
        cfg = CouplingConfig.distinct(gc, 2.0 * gc, gc)
        assert (cfg.gamma, cfg.tgamma) == (3.0 * gc, 2.0 * gc)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="gamma_a"):
            CouplingConfig.all_pass(-1.0, 1.0)
        with pytest.raises(ValueError, match="gamma_c"):
            CouplingConfig.all_pass(1.0, 0.0)

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_rejects_wrong_coupling_count(self, geometry):
        n = 2 if geometry is Geometry.ALL_PASS_IDENTICAL else 1
        with pytest.raises(ValueError, match=f"{geometry.value} expects"):
            CouplingConfig(geometry, (1.0,) * n, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_rejects_bad_coupling_by_name(self, geometry, bad):
        names = coupling_parameter_names(geometry)
        for k, name in enumerate(names):
            couplings = [1.0] * len(names)
            couplings[k] = bad
            with pytest.raises(ValueError, match=f"coupling {name} must be non-negative"):
                CouplingConfig(geometry, couplings, 1.0)

    @pytest.mark.parametrize(
        "geometry", [Geometry.ALL_PASS_IDENTICAL, Geometry.ADD_DROP_IDENTICAL]
    )
    def test_tied_geometry_rejects_pump_loss(self, geometry):
        """A pump loss apart from gamma_c is rejected; gamma_c itself, the
        value the config stores (and ``replace`` passes back), is the tie."""
        couplings = (1.0,) * len(coupling_parameter_names(geometry))
        with pytest.raises(ValueError, match="ties the pump loss to gamma_c"):
            CouplingConfig(geometry, couplings, 1.0, tgamma_c=1.5)
        assert CouplingConfig(geometry, couplings, 1.0).tgamma_c == 1.0
        assert CouplingConfig(geometry, couplings, 1.0, tgamma_c=1.0).tgamma_c == 1.0

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

    def test_delta_omega_for_names_the_pump_it_rejects(self):
        with pytest.raises(ValueError, match=r"requires a pulsed pump; a CW pump has no"):
            PumpSpec.cw(1e-3).delta_omega_for(2.0e9)
        pump = PumpSpec.pulsed(1e-12, spectrum=TabulatedSpectrum.flattop(2.0e10, n_samples=11))
        with pytest.raises(ValueError, match=r"requires a flattop pump; a tabulated pump spectrum"):
            pump.delta_omega_for(2.0e9)

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

    def test_warning_names_the_caller_or_the_outermost_frame(self, algaas):
        """The warning names the line that called into ringsfwm; a package
        frame that has no caller (a thread's entry point) is named itself."""
        ring, gc = algaas
        with pytest.warns(BroadbandAssumptionWarning) as caught:
            prob_scale_p0(ring, 1e-12, 5.0, gc)
        assert [w.filename for w in caught] == [__file__]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _thread.start_new_thread(prob_scale_p0, (ring, 1e-12, 5.0, gc))
            deadline = time.monotonic() + 10.0
            while not caught and time.monotonic() < deadline:
                time.sleep(0.01)
        assert [Path(w.filename).name for w in caught] == ["core.py"]

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


# Every public scalar function of a raw pump power, or of a pulse energy and a
# flattop bandwidth, on one design (tgamma = 2) and a valid remainder.
_DESIGN = CouplingConfig.all_pass(1.0, 1.0)
_BY_POWER = {
    "cw_single_rate": lambda p: cw_single_rate(UNIT_RING, _DESIGN, p),
    "cw_pair_rate": lambda p: cw_pair_rate(UNIT_RING, _DESIGN, p),
    "cw_wavepacket": lambda p: cw_wavepacket(UNIT_RING, _DESIGN, p, 0.5),
    "cw_observables": lambda p: cw_observables(UNIT_RING, _DESIGN, p),
    "cw_accidentals_and_car": lambda p: cw_accidentals_and_car(UNIT_RING, _DESIGN, p, 1e-9),
    "rate_scale_R0": lambda p: rate_scale_R0(UNIT_RING, p, 1.0),
}
_BY_PULSE = {
    "pulsed_wavepacket": lambda e, dw=40.0: pulsed_wavepacket(UNIT_RING, _DESIGN, e, dw, 0.5, 1.0),
    "pulsed_single_prob": lambda e, dw=40.0: pulsed_single_prob(UNIT_RING, _DESIGN, e, dw),
    "pulsed_pair_prob": lambda e, dw=40.0: pulsed_pair_prob(UNIT_RING, _DESIGN, e, dw),
    "pulsed_observables": lambda e, dw=40.0: pulsed_observables(UNIT_RING, _DESIGN, e, dw),
    "pulsed_accidental_prob": lambda e, dw=40.0: pulsed_accidental_prob(UNIT_RING, _DESIGN, e, dw),
}
_BY_ENERGY = {**_BY_PULSE, "prob_scale_p0": lambda e: prob_scale_p0(UNIT_RING, e, 20.0, 1.0)}
_UNHONOURABLE = [0.0, -1e-5, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", _UNHONOURABLE)
@pytest.mark.parametrize("name", sorted(_BY_POWER))
def test_rejects_a_power_it_cannot_honour(name, bad):
    """A pump power that is not strictly positive and finite is rejected,
    never turned into a rate or an amplitude."""
    call = _BY_POWER[name]
    call(1e-5)
    with pytest.raises(ValueError, match=r"pump\.power must be strictly positive and finite"):
        call(bad)


@pytest.mark.parametrize("bad", _UNHONOURABLE)
@pytest.mark.parametrize("name", sorted(_BY_ENERGY))
def test_rejects_an_energy_it_cannot_honour(name, bad):
    """A pulse energy that is not strictly positive and finite is rejected,
    never turned into a probability or an amplitude."""
    call = _BY_ENERGY[name]
    call(1e-6)
    with pytest.raises(ValueError, match=r"pump\.energy must be strictly positive and finite"):
        call(bad)


@pytest.mark.parametrize("bad", _UNHONOURABLE)
@pytest.mark.parametrize("name", sorted(_BY_PULSE))
def test_rejects_a_bandwidth_it_cannot_honour(name, bad):
    """An infinite flattop bandwidth is rejected, not read as a zero pulse
    strength; so are a NaN, zero or negative one."""
    with pytest.raises(ValueError, match=r"pump\.delta_omega must be strictly positive and finite"):
        _BY_PULSE[name](1e-6, bad)


# Entries whose number core._real checks, called with that number.
_BY_POSITIVE = {
    "CouplingConfig.gamma_c": lambda x: CouplingConfig.all_pass(1.0, x),
    "SweepAxis.stop": lambda x: SweepAxis("gamma_a", 0.5, x, 3),
    "SweepSpec.gamma_c": lambda x: SweepSpec(
        Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.5, 2.0, 3), None, ("Rs",),
        UNIT_RING, PumpSpec.cw(1e-3), x,
    ),
    "discretize_wavepacket.t_max_over_gamma": lambda x: discretize_wavepacket(
        UNIT_RING, CouplingConfig.all_pass(1.0, 1.0), PumpSpec.pulsed(1e-3, bandwidth_factor=20.0),
        16, x,
    ),
}


# None selects discretize_wavepacket's default window, so it is a bad value
# of the other entries only.
@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in sorted(_BY_POSITIVE) for bad in ("2.0", True, np.True_, None)
    if not (bad is None and name.startswith("discretize"))
])
def test_rejects_a_number_that_is_not_a_real_number(name, bad):
    """A string, a bool or None is not a positive number: rejected with a
    ValueError naming the field, never turned into one by float().  A NumPy
    float or 0-d array, a Fraction or a Decimal is a real number and is
    accepted."""
    call = _BY_POSITIVE[name]
    for good in (2.0, np.float32(2.0), np.asarray(2.0), Fraction(2), Decimal("2")):
        call(good)
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be a real number, got"):
        call(bad)


_TARGET = OptimizationTarget(Objective.ONE_PHOTON, PumpRegime.CW)
# Every entry that takes a geometry, called with one; each must reject what
# is not a Geometry rather than evaluate it as some geometry or crash on it.
_BY_GEOMETRY = {
    "coupling_parameter_names": coupling_parameter_names,
    "CouplingConfig": lambda g: CouplingConfig(g, (1.0, 1.0), 1.0),
    "config_from_point": lambda g: config_from_point(g, (1.0, 1.0)),
    "SweepSpec": lambda g: SweepSpec(
        g, SweepAxis("tgamma_a", 0.5, 2.0, 3), SweepAxis("gamma_b", 0.5, 2.0, 3), ("Rs",),
        UNIT_RING, PumpSpec.cw(1e-3), 1.0,
    ),
    "analytic_optimum": lambda g: analytic_optimum(g, _TARGET),
    "numeric_optimum": lambda g: numeric_optimum(g, _TARGET),
    "normalized_objective": lambda g: normalized_objective(g, _TARGET),
}


@pytest.mark.parametrize("bad", ["all-pass-identical", None, 0])
@pytest.mark.parametrize("name", sorted(_BY_GEOMETRY))
def test_rejects_a_geometry_that_is_not_a_geometry(name, bad):
    """A geometry's value, None or 0 is not a Geometry: rejected, never read
    as add-drop-distinct."""
    call = _BY_GEOMETRY[name]
    call(Geometry.ADD_DROP_DISTINCT)
    with pytest.raises(ValueError, match="geometry must be a Geometry"):
        call(bad)
