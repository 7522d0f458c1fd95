"""Grid sweeps, serialization, and the optimum report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    CouplingConfig,
    Geometry,
    PumpSpec,
    SweepAxis,
    SweepSpec,
    TabulatedSpectrum,
    cw_accidentals_and_car,
    cw_pair_rate,
    cw_single_rate,
    discretize_wavepacket,
    emit,
    pulsed_pair_prob,
    pulsed_single_prob,
    rate_scale_R0,
    run_sweep,
    schmidt_number,
)
from ringsfwm.core import BroadbandAssumptionWarning
from ringsfwm.optimize import (
    Objective,
    OptimizationTarget,
    PumpRegime,
    analytic_optimum,
    coupling_parameter_names,
)
from ringsfwm.schmidt import DecompositionError
from ringsfwm.sweep import optima_table, render, report_optima

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
        with pytest.raises(ValueError, match="n_points"):
            SweepAxis("gamma_a", 0.1, 2.0, 1)
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

    def test_schmidt_rows_flag_compute_errors_and_propagate_bugs(self, algaas, monkeypatch):
        ring, gc = algaas
        import ringsfwm.schmidt as schmidt_mod

        # r = tgamma/gamma = (1 + tgamma_a)/(1 + gamma_b): 1 and 5/3 on the
        # gamma_b = gamma_c/2 rows, 1/2 and 5/6 on the gamma_b = 2*gamma_c rows
        spec = SweepSpec(
            geometry=Geometry.ADD_DROP_DISTINCT,
            axis1=SweepAxis("tgamma_a", 0.5, 1.5, 2),
            axis2=SweepAxis("gamma_b", 0.5, 2.0, 2),
            outputs=("K",),
            ring=ring,
            pump=PumpSpec.pulsed(1e-12, bandwidth_factor=10.0),
            gamma_c=gc,
            schmidt_points=32,
        )
        real = schmidt_mod.discretize_wavepacket

        def flaky(ring_, cfg, pump, n_points, t_max, exc):
            if cfg.tgamma < cfg.gamma:  # r < 1: the gamma_b = 2*gamma_c rows
                raise exc
            return real(ring_, cfg, pump, n_points, t_max)

        monkeypatch.setattr(
            schmidt_mod, "discretize_wavepacket",
            lambda *args: flaky(*args, DecompositionError("injected")),
        )
        rows = run_sweep(spec).rows
        assert [r["error"] for r in rows] == [None, None, "K: injected", "K: injected"]
        assert all(np.isnan(r["K"]) and np.isnan(r["K_minus_1"]) for r in rows[2:])
        assert all(r["K"] >= 1.0 for r in rows[:2])

        monkeypatch.setattr(
            schmidt_mod, "discretize_wavepacket", lambda *args: flaky(*args, TypeError("bug"))
        )
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
            schmidt_points=32,
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

    def test_identical_coupler_k_is_one_grid(self, algaas, monkeypatch):
        """Identical couplers tie tgamma to gamma (r = 1): one grid serves the panel."""
        ring, gc = algaas
        import ringsfwm.schmidt as schmidt_mod

        calls = []
        real = schmidt_mod.discretize_wavepacket
        monkeypatch.setattr(
            schmidt_mod, "discretize_wavepacket", lambda *args: calls.append(args) or real(*args)
        )
        axis1, axis2 = AXES[Geometry.ADD_DROP_IDENTICAL]
        rows = run_sweep(SweepSpec(
            Geometry.ADD_DROP_IDENTICAL, axis1, axis2, ("K",), ring,
            PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gc, schmidt_points=32,
        )).rows
        assert len(calls) == 1
        assert len({r["K"] for r in rows}) == 1 and rows[0]["K"] > 1.0


@st.composite
def k_sweeps(draw):
    """A small K sweep of any geometry: axes within 1e-1.5..1e1 gamma_c, a
    split pump loss for half of the distinct-coupler draws, and a random
    Schmidt grid."""
    geometry = draw(st.sampled_from(list(Geometry)))
    axes = []
    for name in coupling_parameter_names(geometry):
        start = 10.0 ** draw(st.floats(-1.5, 0.5))
        stop = start * 10.0 ** draw(st.floats(0.1, 0.5))
        axes.append(SweepAxis(name, start, stop, draw(st.integers(2, 3))))
    tgamma_c = None
    if geometry is Geometry.ADD_DROP_DISTINCT and draw(st.booleans()):
        tgamma_c = 10.0 ** draw(st.floats(-1.0, 1.0))
    return geometry, axes, tgamma_c, draw(st.integers(16, 48)), draw(st.floats(5.0, 40.0))


@settings(max_examples=25, deadline=None)
@given(k_sweeps())
def test_sweep_k_matches_direct_grid(algaas, sweep):
    """The r = tgamma/gamma kernel reproduces the grid K of the physical design."""
    ring, gc = algaas
    geometry, axes, tgamma_c, n, t_max = sweep
    tgc = None if tgamma_c is None else tgamma_c * gc
    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)
    spec = SweepSpec(
        geometry, axes[0], axes[1] if len(axes) > 1 else None, ("K",), ring, pump, gc,
        tgamma_c=tgc, schmidt_points=n, t_max_over_gamma=t_max,
    )
    for row in run_sweep(spec).rows:
        grid = discretize_wavepacket(ring, direct_config(geometry, row, gc, tgc), pump, n, t_max)
        assert row["error"] is None
        assert row["K"] == pytest.approx(schmidt_number(grid), rel=1e-13, abs=0.0)


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

    def test_unknown_format_rejected(self, algaas):
        ring, gc = algaas
        result = run_sweep(allpass_spec(ring, gc, n=5))
        with pytest.raises(ValueError, match="format"):
            render(result, "xml")


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
