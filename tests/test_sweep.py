"""Grid sweeps, serialization, and the optimum report."""

import csv
import io
import json
import math
import os
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    CouplingConfig,
    Geometry,
    PumpSpec,
    SweepAxis,
    SweepResult,
    SweepSpec,
    TabulatedSpectrum,
    cw_accidentals_and_car,
    cw_pair_rate,
    cw_single_rate,
    discretize_wavepacket,
    emit,
    prob_scale_p0,
    pulsed_pair_prob,
    pulsed_single_prob,
    rate_scale_R0,
    run_sweep,
    schmidt_spectrum,
)
from ringsfwm.core import BroadbandAssumptionWarning
from ringsfwm.optimize import (
    Objective,
    OptimizationTarget,
    PumpRegime,
    analytic_optimum,
    coupling_parameter_names,
)
from ringsfwm import sweep as sweep_module
from ringsfwm.sweep import (
    _split, algaas_example, emit_all, optima_table, render, report_optima,
)

PUMP_CW = PumpSpec.cw(10e-6)

AXES = {
    Geometry.ALL_PASS_IDENTICAL: (SweepAxis("gamma_a", 0.05, 5.0, 11), None),
    Geometry.ADD_DROP_IDENTICAL: (
        SweepAxis("gamma_a", 0.1, 3.0, 6), SweepAxis("gamma_b", 0.2, 4.0, 5),
    ),
    Geometry.ADD_DROP_DISTINCT: (
        SweepAxis("tgamma_a", 0.1, 3.0, 6), SweepAxis("gamma_b", 0.2, 4.0, 5),
    ),
}


def direct_config(geometry, row, gc, tgamma_c=None):
    """The row's design point built with the CouplingConfig constructors."""
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return CouplingConfig.all_pass(row["gamma_a_over_gamma_c"] * gc, gc)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return CouplingConfig.add_drop(
            row["gamma_a_over_gamma_c"] * gc, row["gamma_b_over_gamma_c"] * gc, gc
        )
    return CouplingConfig.distinct(
        row["tgamma_a_over_gamma_c"] * gc, row["gamma_b_over_gamma_c"] * gc, gc,
        tgamma_c=tgamma_c,
    )


def allpass_spec(ring, gc, n=40, outputs=("Rs", "Rsi")):
    return SweepSpec(
        geometry=Geometry.ALL_PASS_IDENTICAL,
        axis1=SweepAxis("gamma_a", 0.05, 5.0, n),
        axis2=None,
        outputs=outputs,
        ring=ring,
        pump=PUMP_CW,
        gamma_c=gc,
    )


def adddrop_spec(ring, gc, n=7):
    return SweepSpec(
        geometry=Geometry.ADD_DROP_IDENTICAL,
        axis1=SweepAxis("gamma_a", 0.1, 3.0, n),
        axis2=SweepAxis("gamma_b", 0.1, 3.0, n),
        outputs=("Rs", "Rsi"),
        ring=ring,
        pump=PUMP_CW,
        gamma_c=gc,
    )


class TestSpecValidation:
    def test_empty_outputs_rejected(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="at least one output"):
            allpass_spec(ring, gc, outputs=())
        with pytest.raises(ValueError, match="must not repeat"):
            allpass_spec(ring, gc, outputs=("Rs", "Rsi", "Rs"))

    def test_regime_incompatible_outputs_rejected(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="pulsed pump"):
            allpass_spec(ring, gc, outputs=("ps",))
        pulsed = PumpSpec.pulsed(1e-12, bandwidth_factor=20.0)
        with pytest.raises(ValueError, match="CW pump"):
            SweepSpec(
                geometry=Geometry.ALL_PASS_IDENTICAL,
                axis1=SweepAxis("gamma_a", 0.1, 2.0, 5),
                axis2=None,
                outputs=("Rs",),
                ring=ring,
                pump=pulsed,
                gamma_c=gc,
            )

    def test_axis_name_must_match_geometry(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="tgamma_a"):
            SweepSpec(
                geometry=Geometry.ADD_DROP_DISTINCT,
                axis1=SweepAxis("gamma_a", 0.1, 2.0, 5),
                axis2=SweepAxis("gamma_b", 0.1, 2.0, 5),
                outputs=("Rs",),
                ring=ring,
                pump=PUMP_CW,
                gamma_c=gc,
            )

    def test_axis2_required_for_two_knob_geometries(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="axis2"):
            SweepSpec(
                geometry=Geometry.ADD_DROP_IDENTICAL,
                axis1=SweepAxis("gamma_a", 0.1, 2.0, 5),
                axis2=None,
                outputs=("Rs",),
                ring=ring,
                pump=PUMP_CW,
                gamma_c=gc,
            )

    def test_car_needs_window(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="coincidence_window"):
            allpass_spec(ring, gc, outputs=("Rs", "CAR"))

    def test_tgamma_c_must_be_positive_and_finite(self, algaas):
        ring, gc = algaas
        axis1, axis2 = AXES[Geometry.ADD_DROP_DISTINCT]
        for bad in (0.0, -gc, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tgamma_c must be positive"):
                SweepSpec(
                    Geometry.ADD_DROP_DISTINCT, axis1, axis2, ("Rs",), ring, PUMP_CW, gc,
                    tgamma_c=bad,
                )

    def test_tgamma_c_rejected_for_tied_geometries(self, algaas):
        ring, gc = algaas
        for geometry in (Geometry.ALL_PASS_IDENTICAL, Geometry.ADD_DROP_IDENTICAL):
            axis1, axis2 = AXES[geometry]
            with pytest.raises(ValueError, match="tgamma_c applies to add-drop-distinct"):
                SweepSpec(geometry, axis1, axis2, ("Rs",), ring, PUMP_CW, gc, tgamma_c=gc)

    def test_coincidence_window_must_be_positive(self, algaas):
        ring, gc = algaas
        for bad in (0.0, -1e-9):
            with pytest.raises(ValueError, match="coincidence_window must be positive"):
                SweepSpec(
                    Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.1, 2.0, 5), None,
                    ("CAR",), ring, PUMP_CW, gc, coincidence_window=bad,
                )

    def test_coincidence_window_needs_cw_pump(self, algaas):
        """No pulsed output reads the window; it is rejected, not ignored."""
        ring, gc = algaas
        with pytest.raises(ValueError, match="coincidence_window applies to a CW pump"):
            SweepSpec(
                Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.1, 2.0, 5), None,
                ("ps",), ring, PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc,
                coincidence_window=1e-9,
            )

    def test_tabulated_spectrum_rejected(self, algaas):
        """Sweeps evaluate the broadband flattop closed forms only."""
        ring, gc = algaas
        pump = PumpSpec.pulsed(
            1e-12,
            spectrum=TabulatedSpectrum.flattop(20.0 * gc, n_samples=11),
        )
        with pytest.raises(ValueError, match="tabulated pump spectrum"):
            SweepSpec(
                Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.1, 2.0, 5), None,
                ("ps", "K"), ring, pump, gc,
            )

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="finite 0 < start"):
            SweepAxis("gamma_a", 0.1, float("inf"), 5)
        with pytest.raises(ValueError, match="0 < start"):
            SweepAxis("gamma_a", -1.0, 2.0, 5)
        for n_points in (1, 3.0, 2.5, True, np.float64(4.0)):
            with pytest.raises(ValueError, match="n_points"):
                SweepAxis("gamma_a", 0.1, 2.0, n_points)
        axis = SweepAxis("gamma_a", 0.1, 2.0, np.int64(5))
        assert axis.n_points == 5 and type(axis.n_points) is int
        with pytest.raises(ValueError, match="scale"):
            SweepAxis("gamma_a", 0.1, 2.0, 5, scale="cubic")


class TestRunSweep:
    def test_rows_match_direct_library_calls(self, algaas):
        """Every geometry and every closed-form output, bit for bit against
        the public scalar functions on configs built independently."""
        ring, gc = algaas
        window, b = 1e-9, 12.0
        for geometry, (axis1, axis2) in AXES.items():
            tgc = 1.3 * gc if geometry is Geometry.ADD_DROP_DISTINCT else None
            cw = run_sweep(SweepSpec(
                geometry, axis1, axis2, ("Rs", "Rsi", "CAR"), ring, PUMP_CW, gc,
                tgamma_c=tgc, coincidence_window=window,
            ))
            pulsed = run_sweep(SweepSpec(
                geometry, axis1, axis2, ("ps", "psi"), ring,
                PumpSpec.pulsed(1e-12, bandwidth_factor=b), gc, tgamma_c=tgc,
            ))
            n = axis1.n_points * (1 if axis2 is None else axis2.n_points)
            assert len(cw.rows) == len(pulsed.rows) == n
            for crow, prow in zip(cw.rows, pulsed.rows):
                cfg = direct_config(geometry, crow, gc, tgc)
                assert crow["Rs"] == cw_single_rate(ring, cfg, PUMP_CW.power)
                assert crow["Rsi"] == cw_pair_rate(ring, cfg, PUMP_CW.power)
                assert crow["CAR"] == cw_accidentals_and_car(ring, cfg, PUMP_CW.power, window)[1]
                assert prow["ps"] == pulsed_single_prob(ring, cfg, 1e-12, b * cfg.tgamma)
                assert prow["psi"] == pulsed_pair_prob(ring, cfg, 1e-12, b * cfg.tgamma)
                assert crow["error"] is None and prow["error"] is None

    def test_axis2_major_ordering(self, algaas):
        ring, gc = algaas
        result = run_sweep(adddrop_spec(ring, gc, n=5))
        assert len(result.rows) == 25
        a1 = [row["gamma_a_over_gamma_c"] for row in result.rows]
        a2 = [row["gamma_b_over_gamma_c"] for row in result.rows]
        assert a1[:5] == a1[5:10]          # axis1 repeats within a block
        assert len(set(a2[:5])) == 1       # axis2 constant within a block
        assert a2[0] < a2[5]               # axis2 advances across blocks

    def test_refined_maximum_hits_analytic_peak(self, algaas):
        """The figure2 panels' refined maxima sit on the exact optima."""
        ring, gc = algaas
        r0 = rate_scale_R0(ring, PUMP_CW.power, gc)
        for geometry in Geometry:
            names = coupling_parameter_names(geometry)
            axes = [SweepAxis(name, 0.05, 5.0, 200) for name in names] + [None]
            spec = SweepSpec(geometry, axes[0], axes[1], ("Rs", "Rsi"), ring, PUMP_CW, gc)
            seen = run_sweep(spec, refine=True).meta["observed_maxima"]
            for output, objective in (("Rs", Objective.ONE_PHOTON), ("Rsi", Objective.TWO_PHOTON)):
                rec = analytic_optimum(geometry, OptimizationTarget(objective, PumpRegime.CW))
                assert seen[output]["value"] == pytest.approx(rec.peak_value * r0, rel=1e-7)
                assert seen[output]["point_over_gamma_c"] == pytest.approx(rec.couplings, rel=1e-7)

    @pytest.mark.parametrize("axis", [
        SweepAxis("gamma_a", 0.2, 50.0, 6, "linear"),
        SweepAxis("gamma_a", 0.01, 100.0, 11, "linear"),
    ])
    def test_refined_maximum_on_linear_axis(self, algaas, axis):
        """The best grid point is the axis start, one coarse linear cell
        below the optimum gamma_a = gamma_c; the first zoom window spans
        that whole cell."""
        ring, gc = algaas
        spec = SweepSpec(Geometry.ALL_PASS_IDENTICAL, axis, None, ("Rs",), ring, PUMP_CW, gc)
        seen = run_sweep(spec, refine=True).meta["observed_maxima"]["Rs"]
        assert seen["point_over_gamma_c"] == pytest.approx([1.0], rel=1e-7)

    def test_meta_carries_analytic_optima(self, algaas):
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=10))
        optima = result.meta["optima"]
        assert optima["Rs"]["couplings_over_gamma_c"] == [1.0]
        assert optima["Rsi"]["couplings_over_gamma_c"][0] == pytest.approx(4.0 / 3.0)
        r0 = rate_scale_R0(ring, PUMP_CW.power, gc)
        assert optima["scale_value"] == pytest.approx(r0)
        assert optima["plot_normalization"] == pytest.approx(r0 / 2.0)

    @pytest.mark.parametrize("pump", [
        PUMP_CW, PumpSpec.pulsed(1e-12, bandwidth_factor=20.0),
        PumpSpec.pulsed(1e-12, delta_omega=2e11),
    ], ids=["cw", "pulsed-B", "pulsed-delta-omega"])
    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_meta_optima_are_the_table_rows_of_the_panel(self, algaas, geometry, pump):
        """meta.optima holds the optima_table rows of the swept geometry and
        regime, with the table's scale, and nothing else."""
        ring, gc = algaas
        cw = pump.power is not None
        spec = SweepSpec(geometry, *AXES[geometry], ("Rs",) if cw else ("ps",), ring, pump, gc)
        rows = optima_table(ring, gc, pump.power, pump.energy, pump.bandwidth_factor)
        scale = (rate_scale_R0(ring, pump.power, gc) if cw else
                 None if pump.bandwidth_factor is None else
                 prob_scale_p0(ring, pump.energy, pump.bandwidth_factor, gc))
        expected = {"scale_name": "R0_per_s" if cw else "p0", "scale_value": scale,
                    "plot_normalization": None if scale is None else 0.5 * scale}
        regime = "cw" if cw else "broadband-pulse"
        for row in rows:
            if (row["regime"], row["geometry"]) == (regime, geometry.value):
                name = {"one-photon": "Rs" if cw else "ps", "two-photon": "Rsi" if cw else "psi"}
                expected[name[row["objective"]]] = {key: row[key] for key in (
                    "couplings_over_gamma_c", "peak_normalized", "peak_absolute")}
        assert json.dumps(run_sweep(spec).meta["optima"]) == json.dumps(expected)

    @pytest.mark.parametrize("pump", [PUMP_CW, PumpSpec.pulsed(1e-12, bandwidth_factor=20.0)],
                             ids=["cw", "pulsed"])
    def test_meta_optima_null_when_pump_loss_differs(self, algaas, pump):
        """The optima table assumes tgamma_c = gamma_c.  A distinct sweep with
        another pump loss writes optima null; with tgamma_c = gamma_c it
        writes what the sweep with tgamma_c unset writes."""
        ring, gc = algaas
        outputs = ("Rs",) if pump.power is not None else ("ps",)
        spec = SweepSpec(Geometry.ADD_DROP_DISTINCT, *AXES[Geometry.ADD_DROP_DISTINCT],
                         outputs, ring, pump, gc)
        unset = run_sweep(spec).meta["optima"]
        assert unset is not None
        assert run_sweep(replace(spec, tgamma_c=gc)).meta["optima"] == unset
        for tgc in (0.5 * gc, 2.0 * gc):
            result = run_sweep(replace(spec, tgamma_c=tgc))
            assert result.meta["optima"] is None
            assert json.loads(render(result, "json"))["meta"]["optima"] is None

    def test_per_point_failure_flagged(self, algaas):
        """An absolute pump bandwidth of 20*gamma_c breaks the broadband check
        (delta_omega >= 5*tgamma, tgamma = (1 + x)*gamma_c) for x > 3 only."""
        ring, gc = algaas
        spec = SweepSpec(
            geometry=Geometry.ALL_PASS_IDENTICAL,
            axis1=SweepAxis("gamma_a", 0.05, 5.0, 30),
            axis2=None,
            outputs=("ps", "psi"),
            ring=ring,
            pump=PumpSpec.pulsed(1e-12, delta_omega=20.0 * gc),
            gamma_c=gc,
        )
        with pytest.warns(BroadbandAssumptionWarning, match="marginal"):
            result = run_sweep(spec, refine=True)
        bad = [r for r in result.rows if r["error"] is not None]
        good = [r for r in result.rows if r["error"] is None]
        assert bad and good
        assert all(r["gamma_a_over_gamma_c"] > 3.0 for r in bad)
        assert all(r["gamma_a_over_gamma_c"] <= 3.0 for r in good)
        assert all(np.isnan(r["ps"]) and np.isnan(r["psi"]) for r in bad)
        assert all(
            r["error"].startswith("ps: broadband forms require delta_omega >= 5*tgamma")
            and "; psi: broadband" in r["error"]
            for r in bad
        )
        assert all(np.isfinite(r["ps"]) and np.isfinite(r["psi"]) for r in good)
        assert all(
            math.isfinite(m["value"]) for m in result.meta["observed_maxima"].values()
        )

    @pytest.mark.parametrize("refine", [False, True])
    def test_marginal_warning_once_per_sweep(self, algaas, refine):
        """A marginal bandwidth (B = 7) gives each distinct message once per
        call, however many outputs and zoom passes evaluate the grid; each
        warning names the caller."""
        ring, gc = algaas
        spec = SweepSpec(
            geometry=Geometry.ALL_PASS_IDENTICAL,
            axis1=SweepAxis("gamma_a", 0.1, 10.0, 20),
            axis2=None,
            outputs=("ps", "psi"),
            ring=ring,
            pump=PumpSpec.pulsed(1e-12, bandwidth_factor=7.0),
            gamma_c=gc,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(spec, refine=refine)
        messages = [str(w.message) for w in caught]
        assert all(w.category is BroadbandAssumptionWarning for w in caught)
        assert len(messages) == len(set(messages)) == 2
        assert [w.filename for w in caught] == [__file__] * 2

    def test_car_undefined_where_singles_vanish(self, algaas):
        ring, gc = algaas
        pump = PumpSpec.cw(1e-200)  # the singles rate underflows to 0
        spec = SweepSpec(
            geometry=Geometry.ALL_PASS_IDENTICAL,
            axis1=SweepAxis("gamma_a", 0.5, 2.0, 4),
            axis2=None,
            outputs=("Rs", "CAR"),
            ring=ring,
            pump=pump,
            gamma_c=gc,
            coincidence_window=1e-9,
        )
        result = run_sweep(spec)
        assert all(r["Rs"] == 0.0 and np.isnan(r["CAR"]) for r in result.rows)
        assert all(r["error"] == "CAR: CAR is undefined: the one-photon rate is zero "
                   "for this design" for r in result.rows)
        assert result.meta["observed_maxima"]["CAR"] is None
        with pytest.raises(ValueError, match="CAR is undefined"):
            cw_accidentals_and_car(ring, CouplingConfig.all_pass(gc, gc), pump.power, 1e-9)

    def test_schmidt_kernel_errors_propagate(self, algaas, monkeypatch):
        """K has no compute failures of its own: an exception raised inside the
        K kernel, here a bug, propagates out of run_sweep."""
        ring, gc = algaas
        import ringsfwm.schmidt as schmidt_mod

        spec = SweepSpec(
            geometry=Geometry.ADD_DROP_DISTINCT,
            axis1=SweepAxis("tgamma_a", 0.5, 1.5, 2),
            axis2=SweepAxis("gamma_b", 0.5, 2.0, 2),
            outputs=("K",),
            ring=ring,
            pump=PumpSpec.pulsed(1e-12, bandwidth_factor=10.0),
            gamma_c=gc,
        )
        assert all(r["error"] is None and r["K"] >= 1.0 for r in run_sweep(spec).rows)

        def bug(*args):
            raise TypeError("bug")

        monkeypatch.setattr(schmidt_mod, "_grid_k", bug)
        with pytest.raises(TypeError, match="bug"):
            run_sweep(spec)

    def test_schmidt_rows_outside_broadband_flagged(self, algaas):
        """K shares the broadband mask and its message with ps."""
        ring, gc = algaas
        spec = SweepSpec(
            geometry=Geometry.ALL_PASS_IDENTICAL,
            axis1=SweepAxis("gamma_a", 0.05, 5.0, 12),
            axis2=None,
            outputs=("ps", "K"),
            ring=ring,
            pump=PumpSpec.pulsed(1e-12, delta_omega=20.0 * gc),
            gamma_c=gc,
        )
        with pytest.warns(BroadbandAssumptionWarning, match="marginal"):
            rows = run_sweep(spec).rows
        bad = [r for r in rows if r["gamma_a_over_gamma_c"] > 3.0]
        assert bad and len(bad) < len(rows)
        for r in bad:
            ps_message, k_message = r["error"].split("; ")
            assert ps_message.startswith("ps: broadband forms require")
            assert k_message == "K" + ps_message[2:]
            assert np.isnan(r["K"])
        assert all(r["error"] is None and r["K"] >= 1.0 for r in rows if r not in bad)

    def test_identical_coupler_k_is_one_ratio(self, algaas, monkeypatch):
        """Identical couplers tie tgamma to gamma (r = 1): the panel evaluates
        exactly one distinct ratio."""
        ring, gc = algaas
        import ringsfwm.schmidt as schmidt_mod

        evaluated = []
        real = schmidt_mod._grid_k
        monkeypatch.setattr(
            schmidt_mod, "_grid_k", lambda r, *args: evaluated.append(r.tolist()) or real(r, *args)
        )
        axis1, axis2 = AXES[Geometry.ADD_DROP_IDENTICAL]
        rows = run_sweep(SweepSpec(
            Geometry.ADD_DROP_IDENTICAL, axis1, axis2, ("K",), ring,
            PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc,
        )).rows
        assert evaluated == [[1.0]]
        assert len({r["K"] for r in rows}) == 1 and rows[0]["K"] > 1.0

    def test_meta_reports_k_grid_error(self, algaas):
        """The worst relative error of the K and K_minus_1 columns against the
        closed form, over the points that did not fail; None where all did."""
        ring, gc = algaas
        spec = SweepSpec(
            Geometry.ADD_DROP_DISTINCT, SweepAxis("tgamma_a", 0.05, 5.0, 4),
            SweepAxis("gamma_b", 0.05, 5.0, 3), ("ps", "K"), ring,
            PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc,
        )
        result = run_sweep(spec)
        r = np.array([(x + 1.0) / (y + 1.0) for x, y in zip(
            result.columns["tgamma_a_over_gamma_c"], result.columns["gamma_b_over_gamma_c"])])
        exact = 1.0 / (r * (6.0 * r + 5.0))
        error = np.abs(np.array(result.columns["K_minus_1"]) - exact)
        reported = result.meta["K_grid_rel_error"]
        assert reported["K"] == pytest.approx(np.max(error / (1.0 + exact)), rel=1e-9)
        assert reported["K_minus_1"] == pytest.approx(np.max(error / exact), rel=1e-9)
        # the 20/gamma window truncates the wavepacket at r = 1.05/6 = 0.175
        assert 4e-3 < reported["K"] < 5e-3
        assert "K_grid_rel_error" not in run_sweep(replace(spec, outputs=("ps",))).meta
        failing = replace(spec, pump=PumpSpec.pulsed(1e-12, delta_omega=0.1 * gc))
        assert run_sweep(failing).meta["K_grid_rel_error"] is None

    def test_schmidt_grid_knobs_are_gone(self, algaas):
        """The K column's grid is fixed; SweepSpec takes no knob for it."""
        ring, gc = algaas
        for knob in ("schmidt_points", "t_max_over_gamma"):
            with pytest.raises(TypeError, match=knob):
                SweepSpec(
                    Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.5, 2.0, 3), None, ("K",),
                    ring, PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc, **{knob: 32},
                )


@st.composite
def k_sweeps(draw):
    """A small K sweep of any geometry: axes within 1e-1.5..1e1 gamma_c and a
    split pump loss for half of the distinct-coupler draws."""
    geometry = draw(st.sampled_from(list(Geometry)))
    axes = []
    for name in coupling_parameter_names(geometry):
        start = 10.0 ** draw(st.floats(-1.5, 0.5))
        stop = start * 10.0 ** draw(st.floats(0.1, 0.5))
        axes.append(SweepAxis(name, start, stop, draw(st.integers(2, 3))))
    tgamma_c = None
    if geometry is Geometry.ADD_DROP_DISTINCT and draw(st.booleans()):
        tgamma_c = 10.0 ** draw(st.floats(-1.0, 1.0))
    return geometry, axes, tgamma_c


@settings(max_examples=25, deadline=None)
@given(k_sweeps())
def test_sweep_k_matches_direct_grid(algaas, sweep):
    """The r = tgamma/gamma kernel reproduces the grid K of the physical
    design on the sweep's grid: 192 points over 20/gamma."""
    ring, gc = algaas
    geometry, axes, tgamma_c = sweep
    tgc = None if tgamma_c is None else tgamma_c * gc
    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)
    spec = SweepSpec(
        geometry, axes[0], axes[1] if len(axes) > 1 else None, ("K",), ring, pump, gc,
        tgamma_c=tgc,
    )
    for row in run_sweep(spec).rows:
        grid = discretize_wavepacket(ring, direct_config(geometry, row, gc, tgc), pump, 192, 20.0)
        assert row["error"] is None
        assert row["K"] == pytest.approx(schmidt_spectrum(grid).K, rel=1e-13, abs=0.0)


class TestColumns:
    def test_equal_runs_compare_equal(self, algaas):
        ring, gc = algaas
        axis1, axis2 = AXES[Geometry.ADD_DROP_DISTINCT]
        spec = SweepSpec(
            Geometry.ADD_DROP_DISTINCT, axis1, axis2, ("K", "ps"), ring,
            PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc,
        )
        assert run_sweep(spec) == run_sweep(spec)

    def test_rows_are_the_columns_zipped(self, algaas):
        """One dict per grid point from the columns, holding Python floats and
        ``None`` or text in ``error``; failed points included."""
        ring, gc = algaas
        result = _failing_pulsed_sweep(ring, gc)
        columns = result.columns
        n = len(columns["error"])
        assert result.rows == tuple({c: v[i] for c, v in columns.items()} for i in range(n))
        errors = [row["error"] for row in result.rows]
        assert None in errors and any(isinstance(e, str) for e in errors)
        assert all(e is None or isinstance(e, str) for e in errors)
        for row in result.rows:
            assert all(type(v) is float for c, v in row.items() if c != "error")

    def test_render_reads_columns_not_rows(self, algaas, monkeypatch):
        ring, gc = algaas
        result = _failing_pulsed_sweep(ring, gc)
        texts = {fmt: render(result, fmt) for fmt in ("csv", "json")}

        def no_rows(self):
            raise AssertionError("rendering built rows")

        monkeypatch.setattr(SweepResult, "rows", property(no_rows))
        for fmt, text in texts.items():
            assert render(result, fmt) == text


def _failing_pulsed_sweep(ring, gc):
    """A pulsed sweep whose widest couplings fail the broadband rule, with
    quotable error text."""
    spec = SweepSpec(
        Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.05, 5.0, 6), None, ("ps", "K"),
        ring, PumpSpec.pulsed(1e-12, delta_omega=20.0 * gc), gc,
    )
    with pytest.warns(BroadbandAssumptionWarning, match="marginal"):
        return run_sweep(spec)


class TestEmit:
    def test_csv_round_trip_bit_exact(self, algaas, tmp_path):
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=13))
        path = tmp_path / "sweep.csv"
        emit(result, "csv", path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == list(result.columns)
        assert len(lines) - 1 == len(result.rows)
        for line, row in zip(lines[1:], result.rows):
            cells = line.split(",")
            for name, cell in zip(header, cells):
                if name == "error":
                    continue
                assert float(cell) == row[name]

    def test_csv_quotes_error_text(self, algaas, tmp_path):
        """An error message holds a comma: its cell is quoted, so a CSV reader
        keeps every row at the header's width and the message intact."""
        ring, gc = algaas
        spec = SweepSpec(
            Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.05, 5.0, 6), None, ("ps",),
            ring, PumpSpec.pulsed(1e-12, delta_omega=20.0 * gc), gc,
        )
        with pytest.warns(BroadbandAssumptionWarning, match="marginal"):
            result = run_sweep(spec)
        assert any("," in (r["error"] or "") for r in result.rows)
        path = tmp_path / "sweep.csv"
        emit(result, "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(result.rows)
        for loaded, row in zip(back, result.rows):
            assert list(loaded) == list(result.columns)
            assert loaded["error"] == (row["error"] or "")
            assert repr(float(loaded["ps"])) == repr(row["ps"])

    def test_json_round_trip_and_meta(self, algaas, tmp_path):
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=9))
        path = tmp_path / "sweep.json"
        emit(result, "json", path)
        text = path.read_text()
        assert text.count("\n") == 1  # compact: meta and rows on one line
        back = json.loads(text)
        assert back["meta"]["optima"]["Rs"]["couplings_over_gamma_c"] == [1.0]
        assert len(back["rows"]) == 9
        for loaded, row in zip(back["rows"], result.rows):
            assert loaded["Rs"] == row["Rs"]
            assert loaded["gamma_a_over_gamma_c"] == row["gamma_a_over_gamma_c"]

    def test_io_error_carries_path(self, algaas, tmp_path):
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=5))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit(result, "csv", missing)

    def test_unknown_format_rejected(self, algaas, tmp_path):
        """An unknown format is rejected before the file is opened."""
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=5))
        with pytest.raises(ValueError, match="format"):
            render(result, "xml")
        path = tmp_path / "sweep.xml"
        with pytest.raises(ValueError, match="format"):
            emit(result, "xml", path)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", ["gamma_b_over_gamma_c", "Rsi", "error"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_ragged_result_rejected_before_writing(self, algaas, tmp_path, fmt, column, change):
        """A column a row short or a row long of the grid's n1*n2 is named in a
        ``ValueError`` before the file is opened."""
        ring, gc = algaas
        result = run_sweep(adddrop_spec(ring, gc, n=7))
        values = result.columns[column]
        values = values[:-1] if change < 0 else values + values[:1]
        ragged = with_columns(result, **{column: values})
        path = tmp_path / f"sweep.{fmt}"
        match = f"'{column}' holds {49 + change} values; its 7x7 grid has 49"
        with pytest.raises(ValueError, match=match):
            render(ragged, fmt)
        with pytest.raises(ValueError, match=match):
            emit(ragged, fmt, path)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column, i", [
        ("gamma_a_over_gamma_c", 7 * 5 + 2), ("gamma_b_over_gamma_c", 7 * 5 + 2),
        ("gamma_a_over_gamma_c", 0), ("gamma_b_over_gamma_c", 0),
    ])
    def test_coupling_column_off_the_grid_rejected(self, algaas, tmp_path, fmt, column, i):
        """Coupling texts are laid out by grid position, so a coupling column
        that does not hold its axis axis2-major is rejected before the file is
        opened, not written as the grid."""
        ring, gc = algaas
        result = run_sweep(adddrop_spec(ring, gc, n=7))
        values = list(result.columns[column])
        values[i] *= 1.5
        moved = with_columns(result, **{column: values})
        path = tmp_path / f"sweep.{fmt}"
        with pytest.raises(ValueError, match=f"'{column}' does not hold its grid axis"):
            emit(moved, fmt, path)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_stays_below_the_file(self, algaas, tmp_path, fmt):
        """Writing a 200x200 panel holds a block of rows, never the whole
        text: the peak traced allocation stays below a quarter of the file."""
        ring, gc = algaas
        result = run_sweep(replace(
            adddrop_spec(ring, gc), axis1=SweepAxis("gamma_a", 0.1, 10.0, 200),
            axis2=SweepAxis("gamma_b", 0.1, 10.0, 200),
        ))
        path = tmp_path / f"panel.{fmt}"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emit(result, fmt, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4


class TestEmitAll:
    """Two-process emission; the figure commands' files are checked in
    test_cli.py."""

    @pytest.mark.parametrize("sizes, caller, child", [
        ([5, 25, 25], [1, 0], 2),
        ([200, 40000, 40000, 625], [1, 3, 0], 2),
        ([3, 1, 2], [0, 1], 2),
        ([4, 4, 4], [0, 2], 1),
        ([1, 9], [1], 0),
    ])
    def test_split_child_takes_second_largest(self, sizes, caller, child):
        """The child gets the second largest, equal sizes kept in order; the
        caller gets the rest, largest first."""
        assert _split(sizes) == (caller, child)

    @pytest.mark.parametrize("workers, sizes, caller, child", [
        (2, (4, 9, 6), ["p1", "p0"], ["p2"]),
        (5, (4, 9, 6), ["p1", "p0"], ["p2"]),
        (1, (4, 9, 6), ["p0", "p1", "p2"], []),
        (2, (9,), ["p0"], []),
    ])
    def test_partition(self, algaas, tmp_path, monkeypatch, forks, workers, sizes, caller,
                       child):
        """A child computes and writes only the second-largest panel, and
        only with two or more CPUs and panels; otherwise nothing is forked.
        Each panel is computed in the process that writes it."""
        ring, gc = algaas
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        log, real_run, real_emit = tmp_path / "log", sweep_module.run_sweep, sweep_module.emit

        def logged_run(spec, *, refine=False):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} run {spec.axis1.n_points}\n")
            return real_run(spec, refine=refine)

        def logged_emit(result, fmt, path):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} emit {len(result.columns['error'])} {path.stem}\n")
            real_emit(result, fmt, path)

        monkeypatch.setattr(sweep_module, "run_sweep", logged_run)
        monkeypatch.setattr(sweep_module, "emit", logged_emit)
        emit_all([(allpass_spec(ring, gc, n=n), False, tmp_path / f"p{i}.json")
                  for i, n in enumerate(sizes)], "json")
        written = [line.split() for line in log.read_text().splitlines()]
        stems = {f"p{i}": str(n) for i, n in enumerate(sizes)}
        for share, here in ((caller, True), (child, False)):
            lines = [rest for pid, *rest in written if (pid == str(os.getpid())) == here]
            assert lines == [x for stem in share
                             for x in (["run", stems[stem]], ["emit", stems[stem], stem])]
        assert len(forks) == len(child)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_files_equal_emit(self, algaas, tmp_path, monkeypatch, forks, workers):
        ring, gc = algaas
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        specs = [allpass_spec(ring, gc, n=n) for n in (4, 9, 6)]
        panels = [(spec, refine, tmp_path / f"p{i}.json")
                  for i, (spec, refine) in enumerate(zip(specs, (False, False, True)))]
        emit_all(panels, "json")
        for spec, refine, path in panels:
            assert path.read_text() == render(run_sweep(spec, refine=refine), "json")
        assert len(forks) == (workers > 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_each_result_dropped_once_written(self, algaas, tmp_path, monkeypatch):
        """In one process no result outlives the write of its file: each is
        gone before the next panel is computed, and all are gone after."""
        ring, gc = algaas
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 1)
        refs, alive, real_run = [], [], sweep_module.run_sweep

        def tracked_run(spec, *, refine=False):
            alive.append([ref() is not None for ref in refs])
            result = real_run(spec, refine=refine)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(sweep_module, "run_sweep", tracked_run)
        emit_all([(allpass_spec(ring, gc, n=n), False, tmp_path / f"p{i}.csv")
                  for i, n in enumerate((4, 9, 6))], "csv")
        assert alive == [[], [False], [False, False]]
        assert len(refs) == 3 and all(ref() is None for ref in refs)

    def test_stdout_rejected(self, algaas, tmp_path, capsys):
        ring, gc = algaas
        spec = allpass_spec(ring, gc, n=4)
        with pytest.raises(ValueError, match="stdout"):
            emit_all([(spec, False, tmp_path / "p.csv"), (spec, False, None)], "csv")
        assert not any(tmp_path.iterdir()) and capsys.readouterr().out == ""

    def test_first_failure_in_panel_order_raised(self, algaas, tmp_path, monkeypatch):
        """Every worker fails on an unknown format; the failure raised is that
        of the first panel, and no child is left behind."""
        ring, gc = algaas
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 3)
        spec = allpass_spec(ring, gc, n=4)
        with pytest.raises(ValueError, match="format"):
            emit_all([(spec, False, tmp_path / f"p{i}") for i in range(3)], "xml")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_failure_sent_back(self, algaas, tmp_path, monkeypatch):
        """The child's panel 0 and the caller's panel 2 cannot be written; the
        failure raised is panel 0's, sent back from the child."""
        ring, gc = algaas
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 2)
        specs = [allpass_spec(ring, gc, n=n) for n in (6, 9, 4)]
        panels = [(spec, False, tmp_path / f"p{i}.json") for i, spec in enumerate(specs)]
        for i in (0, 2):
            panels[i][2].mkdir()
        with pytest.raises(OSError, match="p0.json"):
            emit_all(panels, "json")
        assert panels[1][2].read_text() == render(run_sweep(specs[1]), "json")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def json_oracle(result):
    """The row-wise JSON encoder: meta and one dict per grid point."""
    return json.dumps({"meta": result.meta, "rows": result.rows}) + "\n"


def csv_oracle(result):
    """The row-wise CSV encoder: numbers with 17 significant digits, and the
    ``error`` text empty for None, quoted where it holds ``,`` ``"`` or a
    line break."""

    def text(value):
        if value is None:
            return ""
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(text(v) if c == "error" else "%.17g" % v for c, v in row.items()))
    return "\n".join(lines) + "\n"


def with_columns(result, **columns):
    return replace(result, columns={**result.columns, **columns})


class TestRenderMatchesRowEncoders:
    """``render`` writes the same bytes as the row-wise encoders."""

    @staticmethod
    def check(result):
        assert render(result, "json") == json_oracle(result)
        assert render(result, "csv") == csv_oracle(result)

    def test_log_axis(self, algaas):
        self.check(run_sweep(allpass_spec(*algaas, n=40)))

    def test_log_by_linear_grid(self, algaas):
        ring, gc = algaas
        spec = replace(adddrop_spec(ring, gc), axis2=SweepAxis("gamma_b", 0.1, 3.0, 9, "linear"))
        self.check(run_sweep(spec))

    def test_failing_pulsed_sweep(self, algaas):
        """NaN cells, and error text holding a comma, a quote, a line break,
        a ``%`` and a non-ASCII character."""
        result = _failing_pulsed_sweep(*algaas)
        errors = result.columns["error"]
        assert None in errors and any("," in (e or "") for e in errors)
        assert any(math.isnan(v) for v in result.columns["ps"])
        self.check(result)
        odd = [e and f'{e} "quoted"\r\n100% %s %(x)s \u03b3\u2264 \U0001d6fe' for e in errors]
        self.check(with_columns(result, error=odd))

    def test_cw_car_with_nan(self, algaas):
        ring, gc = algaas
        spec = SweepSpec(
            Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.5, 2.0, 4), None, ("Rs", "CAR"),
            ring, PumpSpec.cw(1e-200), gc, coincidence_window=1e-9,
        )
        result = run_sweep(spec)
        assert all(math.isnan(v) for v in result.columns["CAR"])
        self.check(result)

    def test_infinite_cells(self, algaas):
        ring, gc = algaas
        result = run_sweep(adddrop_spec(ring, gc, n=4))
        rs, rsi = list(result.columns["Rs"]), list(result.columns["Rsi"])
        rs[1], rs[5], rsi[2] = math.inf, -math.inf, math.nan
        rsi[3] = -math.inf
        self.check(with_columns(result, Rs=rs, Rsi=rsi))

    def test_meta_text_with_percent_and_quote(self, algaas):
        result = run_sweep(allpass_spec(*algaas, n=5))
        meta = {**result.meta, 'note "%s"': '100% "quoted" %(x)s %% \u03b3', "n": 3, "ok": True}
        self.check(replace(result, meta=meta))
        columns = {("Rs %s %%" if c == "Rs" else c): v for c, v in result.columns.items()}
        self.check(replace(result, columns=columns))

    @pytest.mark.parametrize("errors", [
        lambda n, odd: [None] * n,
        lambda n, odd: [odd] * n,
        lambda n, odd: [odd] * (n - 1) + [None],
        lambda n, odd: [None] * (BLOCK + 3) + [odd] + [None] * (n - BLOCK - 4),
    ], ids=["all-none", "all-one-text", "last-row-differs", "one-row-differs"])
    def test_error_column_one_value_or_many(self, algaas, errors):
        """An ``error`` column with one value on every row is written into
        the row template, ``%`` and all; where one row differs, each row
        gets its own text."""
        ring, gc = algaas
        result = run_sweep(replace(
            adddrop_spec(ring, gc), axis1=SweepAxis("gamma_a", 0.1, 3.0, 37),
            axis2=SweepAxis("gamma_b", 0.1, 3.0, 30),
        ))
        odd = 'Rs: 100% "odd", %s %(x)s\r\nnext line'
        self.check(with_columns(result, error=errors(len(result.columns["error"]), odd)))


BLOCK = sweep_module._BLOCK_ROWS


@pytest.mark.parametrize("grid", [
    BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37, pytest.param((37, 60), id="37x60"),
])
def test_blocks_join_at_their_edges(algaas, tmp_path, grid):
    """A 1-D result of one block less a row up to two blocks and a part, and
    a 37 (log) x 60 (linear) grid, whose block edges fall inside a run of
    axis 2 and part way through axis 1: the file ``emit`` streams, the
    string ``render`` joins and the row-wise encoders agree, with NaN, +-inf
    and error text holding ``%``, a quote, a comma and a line break in the
    rows on both sides of each block edge."""
    ring, gc = algaas
    if isinstance(grid, int):
        result = run_sweep(allpass_spec(ring, gc, n=grid))
    else:
        result = run_sweep(replace(
            adddrop_spec(ring, gc), axis1=SweepAxis("gamma_a", 0.1, 3.0, grid[0]),
            axis2=SweepAxis("gamma_b", 0.1, 3.0, grid[1], "linear"),
        ))
    n = len(result.columns["error"])
    rs, rsi, errors = (list(result.columns[c]) for c in ("Rs", "Rsi", "error"))
    edges = sorted({i for e in range(0, n + 1, BLOCK) for i in (e - 1, e) if 0 <= i < n})
    for k, i in enumerate(edges):
        rs[i], rsi[i] = (math.nan, math.inf, -math.inf)[k % 3], (math.inf, -math.inf)[k % 2]
        errors[i] = f'Rs: row {i}, 100% "odd" %s %(x)s\r\nnext line'
    result = with_columns(result, Rs=rs, Rsi=rsi, error=errors)
    for fmt, oracle in (("csv", csv_oracle), ("json", json_oracle)):
        path = tmp_path / f"sweep.{fmt}"
        emit(result, fmt, path)
        assert path.read_bytes() == render(result, fmt).encode() == oracle(result).encode()


def _nan_equal(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


@st.composite
def sweep_results(draw):
    """A random sweep: geometry, axis sizes (2-40) and scales, coupling
    ranges, and a CW or pulsed pump whose bandwidth may fail some points."""
    geometry = draw(st.sampled_from(list(Geometry)))
    axes = []
    for name in coupling_parameter_names(geometry):
        start = draw(st.floats(0.01, 5.0))
        stop = start * draw(st.floats(1.01, 100.0))
        axes.append(SweepAxis(
            name, start, stop, draw(st.integers(2, 40)), draw(st.sampled_from(["log", "linear"]))
        ))
    ring, gc = algaas_example()
    if draw(st.booleans()):
        pump, outputs, window = PumpSpec.cw(draw(st.floats(1e-6, 1e-3))), ("Rs", "Rsi", "CAR"), 1e-9
    else:
        delta_omega = draw(st.floats(2.0, 400.0)) * gc
        pump, outputs, window = PumpSpec.pulsed(1e-12, delta_omega=delta_omega), ("ps", "psi", "K"), None
    spec = SweepSpec(
        geometry, axes[0], axes[1] if len(axes) > 1 else None, outputs, ring, pump, gc,
        coincidence_window=window,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BroadbandAssumptionWarning)
        return run_sweep(spec)


@settings(max_examples=30, deadline=None)
@given(sweep_results())
def test_render_round_trip(result):
    """JSON rows read back equal to ``rows`` (NaN-aware); CSV cells read back
    bit-exact."""
    rows = result.rows
    loaded = json.loads(render(result, "json"))["rows"]
    assert len(loaded) == len(rows)
    for back, row in zip(loaded, rows):
        assert list(back) == list(row)
        assert all(_nan_equal(back[c], v) for c, v in row.items())
    back = list(csv.DictReader(io.StringIO(render(result, "csv"), newline="")))
    assert len(back) == len(rows)
    for cells, row in zip(back, rows):
        assert list(cells) == list(row)
        assert cells["error"] == (row["error"] or "")
        assert all(
            _nan_equal(float(cells[c]), v) for c, v in row.items() if c != "error"
        )


class TestOptimaReport:
    def test_absolute_cw_peak(self, algaas):
        ring, gc = algaas
        rows = optima_table(ring, gc, power=10e-6)
        best_singles = [
            r for r in rows
            if r["regime"] == "cw" and r["objective"] == "one-photon"
            and r["geometry"] == "all-pass-identical"
        ][0]
        assert best_singles["peak_absolute"] == pytest.approx(3.81e6, rel=1e-2)

    def test_cw_two_photon_ratios(self, algaas):
        """Distinct coupling wins the pair-rate contest; the identical
        add-drop configuration trails by more than an order of magnitude."""
        ring, gc = algaas
        rows = optima_table(ring, gc, power=10e-6)
        two = {
            r["geometry"]: r["peak_normalized"]
            for r in rows
            if r["regime"] == "cw" and r["objective"] == "two-photon"
        }
        assert two["all-pass-identical"] / two["add-drop-identical"] == pytest.approx(16.0, abs=0.1)
        assert two["add-drop-distinct"] / two["all-pass-identical"] == pytest.approx(1.103, abs=0.005)
        assert two["add-drop-distinct"] / two["add-drop-identical"] == pytest.approx(17.65, abs=0.1)

    def test_report_text_contains_all_rows(self, algaas):
        ring, gc = algaas
        text = report_optima(ring, gc, power=10e-6, energy=1e-12, bandwidth_factor=10.0)
        assert text.count("all-pass-identical") == 4
        assert text.count("add-drop-distinct") == 4
        assert "R0" in text and "p0" in text

    def test_p0_warning_names_the_caller(self, algaas):
        ring, gc = algaas
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            optima_table(ring, gc, energy=1e-12, bandwidth_factor=7.0)
            report_optima(ring, gc, energy=1e-12, bandwidth_factor=7.0)
        assert [w.filename for w in caught] == [__file__] * 2
        assert all("B = 7 < 10" in str(w.message) for w in caught)
