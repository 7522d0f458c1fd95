"""Analytic optimum table, numeric maximizer, and cross-validation."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsfwm import (
    Geometry,
    Objective,
    OptimizationTarget,
    PumpRegime,
    PumpSpec,
    SweepAxis,
    SweepSpec,
    analytic_optimum,
    cross_validate_optima,
    numeric_optimum,
    run_sweep,
)
from ringsfwm import optimize as optimize_module
from ringsfwm import sweep as sweep_module
from ringsfwm.optimize import (
    CrossValidationEntry,
    _log_grid,
    _maximize,
    _mesh,
    all_targets,
    config_from_point,
    normalized_objective,
)

from conftest import solve_distinct_pulsed_optimum

CW = PumpRegime.CW
PULSE = PumpRegime.BROADBAND_PULSE
ONE = Objective.ONE_PHOTON
TWO = Objective.TWO_PHOTON


class TestAnalyticTable:
    @pytest.mark.parametrize(
        "geometry,objective,regime,couplings,value",
        [
            (Geometry.ALL_PASS_IDENTICAL, ONE, CW, (Fraction(1),), Fraction(1, 2)),
            (Geometry.ALL_PASS_IDENTICAL, TWO, CW, (Fraction(4, 3),), Fraction(221184, 823543)),
            (Geometry.ADD_DROP_IDENTICAL, ONE, CW, (Fraction(2, 3), Fraction(1, 3)), Fraction(2, 27)),
            (Geometry.ADD_DROP_IDENTICAL, TWO, CW, (Fraction(2, 3), Fraction(2, 3)), Fraction(13824, 823543)),
            (Geometry.ADD_DROP_DISTINCT, ONE, CW, (Fraction(1), Fraction(1)), Fraction(1, 2)),
            (Geometry.ADD_DROP_DISTINCT, TWO, CW, (Fraction(1), Fraction(2)), Fraction(8, 27)),
            (Geometry.ALL_PASS_IDENTICAL, ONE, PULSE, (Fraction(3, 2),), Fraction(54, 3125)),
            (Geometry.ALL_PASS_IDENTICAL, TWO, PULSE, (Fraction(2),), Fraction(8, 729)),
            (Geometry.ADD_DROP_IDENTICAL, ONE, PULSE, (Fraction(1), Fraction(1, 2)), Fraction(8, 3125)),
            (Geometry.ADD_DROP_IDENTICAL, TWO, PULSE, (Fraction(1), Fraction(1)), Fraction(1, 1458)),
        ],
    )
    def test_exact_entries(self, geometry, objective, regime, couplings, value):
        rec = analytic_optimum(geometry, OptimizationTarget(objective, regime))
        assert rec.couplings_exact == couplings
        assert rec.peak_value_exact == value
        assert rec.peak_value == float(value)
        assert rec.couplings == tuple(float(c) for c in couplings)

    def test_distinct_pulsed_entries_match_stationarity_solution(self):
        """The cubic-root couplings and their peaks agree with an independent
        high-precision solve of the stationarity conditions."""
        for objective in (ONE, TWO):
            rec = analytic_optimum(
                Geometry.ADD_DROP_DISTINCT, OptimizationTarget(objective, PULSE)
            )
            (x, y), value = solve_distinct_pulsed_optimum(objective)
            assert rec.couplings[0] == pytest.approx(x, rel=1e-13)
            assert rec.couplings[1] == pytest.approx(y, rel=1e-13)
            assert rec.peak_value == pytest.approx(value, rel=1e-13)

    def test_analytic_value_is_objective_at_argmax(self):
        """Table values are consistent with the rate engines themselves."""
        for geometry, target in all_targets():
            rec = analytic_optimum(geometry, target)
            f = normalized_objective(geometry, target)
            assert f(rec.couplings) == pytest.approx(rec.peak_value, rel=1e-13)

    @pytest.mark.parametrize(
        "geometry,target", all_targets(),
        ids=lambda v: getattr(v, "value", None) or f"{v.objective.value}-{v.pump_regime.value}",
    )
    def test_table_couplings_beat_their_log_stencil(self, geometry, target):
        """No point of the +-1e-5 log stencil around the table couplings has a
        larger objective: the tabulated point is the argmax, not near it."""
        f = normalized_objective(geometry, target)
        couplings = np.array(analytic_optimum(geometry, target).couplings)
        steps = np.array(list(itertools.product((-1e-5, 0.0, 1e-5), repeat=couplings.size)))
        stencil = couplings * np.exp(steps)
        assert np.all(f(tuple(couplings)) >= f(tuple(stencil.T)))


@pytest.mark.parametrize("point", [(1.0, 1.0), (-1.0,), (np.array([1.0, np.inf]),)])
def test_objective_rejects_bad_points(point):
    f = normalized_objective(Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(TWO, PULSE))
    with pytest.raises(ValueError, match="coupling"):
        f(point)


def test_config_from_point_rejects_tgamma_c_for_tied_geometries():
    for geometry, point in ((Geometry.ALL_PASS_IDENTICAL, (1.0,)),
                            (Geometry.ADD_DROP_IDENTICAL, (1.0, 1.0))):
        with pytest.raises(ValueError, match="tgamma_c applies to add-drop-distinct"):
            config_from_point(geometry, point, 1.0, tgamma_c=2.0)
    assert config_from_point(Geometry.ADD_DROP_DISTINCT, (1.0, 1.0), 1.0, 2.0).tgamma_c == 2.0


class TestNumericOptimum:
    def test_allpass_cw_pair_argmax(self):
        rec = numeric_optimum(Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(TWO, CW))
        assert rec.couplings[0] == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert rec.peak_value == pytest.approx(221184.0 / 823543.0, rel=1e-9)

    def test_distinct_pulsed_pair_argmax(self):
        rec = numeric_optimum(Geometry.ADD_DROP_DISTINCT, OptimizationTarget(TWO, PULSE))
        assert rec.couplings[0] == pytest.approx(1.46, abs=0.01)
        assert rec.couplings[1] == pytest.approx(3.17, abs=0.01)

    @settings(max_examples=10, deadline=None)
    @given(exponent=st.floats(-30.0, 30.0))
    @example(exponent=-17.516756014165615)  # moved a per-axis vertex by 7e-9
    def test_argmax_invariant_under_objective_scaling(self, exponent):
        scale = 10.0**exponent
        for geometry, target in all_targets():
            base = normalized_objective(geometry, target)
            rec1 = numeric_optimum(geometry, target, objective=base)
            rec2 = numeric_optimum(geometry, target, objective=lambda p: scale * base(p))
            spread = max(abs(a - b) for a, b in zip(rec1.couplings, rec2.couplings))
            assert spread < 1e-9, (geometry, target, scale)

    def test_argmax_invariant_under_loss_rescaling(self, algaas):
        """Building the objective from physical rings with intrinsic losses
        three decades apart gives the same normalized argmax."""
        from ringsfwm import CouplingConfig, cw_pair_rate, rate_scale_R0

        ring, gc = algaas
        argmaxes = []
        for gamma_c in (gc * 1e-1, gc, gc * 1e2):
            r0 = rate_scale_R0(ring, 1e-5, gamma_c)
            rate = np.vectorize(
                lambda x, gamma_c=gamma_c, r0=r0: cw_pair_rate(
                    ring, CouplingConfig.all_pass(x * gamma_c, gamma_c), 1e-5
                ) / r0
            )
            rec = numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(TWO, CW),
                objective=lambda point, rate=rate: rate(*point),
            )
            argmaxes.append(rec.couplings[0])
        assert max(argmaxes) - min(argmaxes) < 1e-9

    def test_nonfinite_objective_raises(self):
        from ringsfwm import OptimizationError

        with pytest.raises(OptimizationError, match="non-finite"):
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW),
                objective=lambda point: np.full(point[0].shape, np.nan),
            )

    def test_no_positive_grid_value_raises(self):
        from ringsfwm import OptimizationError

        with pytest.raises(OptimizationError, match="grid scan found no positive objective value"):
            numeric_optimum(
                Geometry.ADD_DROP_DISTINCT, OptimizationTarget(ONE, CW),
                objective=lambda point: -np.ones(point[0].shape),
            )

    @pytest.mark.parametrize("at_vertex,found", [(-1.0, "not positive"), (np.inf, "not finite")])
    def test_bad_peak_is_named_with_its_value(self, at_vertex, found):
        """A custom objective that is fine on the scan grid and bad where the
        vertex is evaluated (one point, so a length-1 array).  The +inf case
        also returns +inf on the zoom grids, where it wins, so that is the
        reported peak."""
        from ringsfwm import OptimizationError

        def objective(point):
            (x,) = point
            values = 1.0 - np.log(x) ** 2
            if x.size == 1 or np.isinf(at_vertex) and x.size == optimize_module._ZOOM_POINTS:
                values = np.full(x.shape, at_vertex)
            return values

        with pytest.raises(OptimizationError) as caught:
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW), objective=objective
            )
        message = str(caught.value)
        assert f"objective value {at_vertex!r} at the optimum (" in message
        assert message.endswith(f" is {found}")

    def test_objective_must_return_one_value_per_point(self):
        with pytest.raises(ValueError, match="one value per grid point"):
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW),
                objective=lambda point: 1.0,
            )

    def test_joint_equals_axiswise_for_separable_case(self):
        """The CW distinct pair rate factorizes, so optimizing the two axes
        independently reproduces the joint argmax."""
        target = OptimizationTarget(TWO, CW)
        joint = numeric_optimum(Geometry.ADD_DROP_DISTINCT, target)
        f = normalized_objective(Geometry.ADD_DROP_DISTINCT, target)
        from scipy.optimize import minimize_scalar

        axis1 = minimize_scalar(
            lambda x: -f((x, 1.7)), bounds=(0.05, 10.0), method="bounded",
            options={"xatol": 1e-10},
        ).x
        axis2 = minimize_scalar(
            lambda y: -f((0.6, y)), bounds=(0.05, 10.0), method="bounded",
            options={"xatol": 1e-10},
        ).x
        assert joint.couplings[0] == pytest.approx(axis1, abs=1e-5)
        assert joint.couplings[1] == pytest.approx(axis2, abs=1e-5)


def test_zoom_treats_nan_as_losing():
    """A zoom window that holds NaN candidates picks the same points as one
    that holds -inf there: NaN never wins, and it stops no move either.  The
    peak sits on the edge of the NaN region, so every window holds some."""
    nan_counts = []

    def objective(fill):
        def f(point):
            x, y = point
            values = np.where(x > 1.01, fill, -np.log(x / 1.01) ** 2 - np.log(y / 0.7) ** 2)
            nan_counts.append(int(np.isnan(values).sum()))
            return values
        return f

    bounds = ((0.05, 10.0),) * 2
    grid = _mesh([_log_grid(0.05, 10.0, 61)] * 2)
    values = objective(np.nan)(grid)
    k = int(np.nanargmax(values))
    start = tuple(float(a[k]) for a in grid), float(values[k])
    ratios = [(10.0 / 0.05) ** (1.0 / 60)] * 2
    nan_counts.clear()
    got = _maximize(objective(np.nan), *start, ratios, bounds)
    assert all(n > 0 for n in nan_counts[:-1])  # every zoom pass and the stencil
    assert repr(got) == repr(_maximize(objective(-np.inf), *start, ratios, bounds))
    assert 0.0 < 1.01 - got[0][0] < 1e-6 and abs(got[0][1] - 0.7) < 1e-6


class TestVertexStep:
    """The Newton step of :func:`_maximize` on concave quadratics in log
    couplings, whose central differences are exact: from a start inside the
    +-1e-5 clip it lands on the vertex.  The start cell is below
    ``_ZOOM_CELL``, so no zoom pass runs."""

    ratios = [np.exp(0.5 * optimize_module._ZOOM_CELL)] * 2
    bounds = ((0.05, 10.0),) * 2

    def test_one_coupling(self):
        u0 = np.log(1.3)

        def objective(point):
            return -2.5 * (np.log(point[0]) - u0) ** 2

        start = (float(np.exp(u0 + 6e-6)),)
        (x,), value = _maximize(objective, start, objective(start), self.ratios[:1],
                                self.bounds[:1])
        assert x == pytest.approx(1.3, rel=1e-12, abs=0.0)
        assert value == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("cross", [1.2, -1.2])
    def test_two_couplings_with_cross_term(self, cross):
        """Unequal curvatures and a cross term of either sign: a step with the
        axes swapped or the cross term's sign flipped misses by ~1e-6."""
        u0, v0 = np.log(1.3), np.log(0.6)

        def objective(point):
            du, dv = np.log(point[0]) - u0, np.log(point[1]) - v0
            return -(3.0 * du * du + 2.0 * cross * du * dv + 0.8 * dv * dv)

        start = (float(np.exp(u0 + 7e-6)), float(np.exp(v0 - 4e-6)))
        (x, y), value = _maximize(objective, start, float(objective(start)), self.ratios,
                                  self.bounds)
        assert x == pytest.approx(1.3, rel=1e-12, abs=0.0)
        assert y == pytest.approx(0.6, rel=1e-12, abs=0.0)
        assert value == pytest.approx(0.0, abs=1e-20)


class TestCrossValidation:
    def test_all_entries_pass(self):
        report = cross_validate_optima()
        assert len(report.entries) == 12
        assert report.n_failed == 0, str(report)
        assert report.passed
        assert {(e.coupling_tol, e.value_rtol) for e in report.entries} == {(1e-3, 1e-6)}

    def test_numeric_never_beats_analytic_beyond_tolerance(self):
        report = cross_validate_optima()
        for entry in report.entries:
            overshoot = (entry.numeric.peak_value - entry.analytic.peak_value)
            assert overshoot <= entry.value_rtol * entry.analytic.peak_value

    def test_verdict_follows_the_records(self):
        """Errors and verdict are derived from the two records, so an entry
        given another numeric record is judged on it."""
        geometry, target = Geometry.ADD_DROP_DISTINCT, OptimizationTarget(TWO, PULSE)
        analytic = analytic_optimum(geometry, target)
        entry = CrossValidationEntry(geometry, target, analytic, numeric_optimum(geometry, target))
        assert entry.passed and entry.value_relerr < 1e-12
        off = dataclasses.replace(entry.numeric, peak_value=analytic.peak_value * (1.0 + 2e-6))
        moved = dataclasses.replace(entry, numeric=off)
        assert moved.value_relerr == pytest.approx(2e-6, rel=1e-6)
        assert moved.coupling_err == entry.coupling_err
        assert not moved.passed
        assert moved.describe().startswith("[FAIL]")

    def test_fault_injection_fails_exactly_one(self, monkeypatch):
        import ringsfwm.optimize as optimize_mod

        clean = optimize_mod.analytic_optimum

        def rigged(geometry, target):
            rec = clean(geometry, target)
            if (geometry, target) == (Geometry.ADD_DROP_IDENTICAL, OptimizationTarget(TWO, CW)):
                return dataclasses.replace(rec, peak_value=rec.peak_value + 0.1)
            return rec

        monkeypatch.setattr(optimize_mod, "analytic_optimum", rigged)
        report = cross_validate_optima()
        assert report.n_failed == 1
        failed = [e for e in report.entries if not e.passed]
        assert failed[0].geometry is Geometry.ADD_DROP_IDENTICAL
        assert "FAIL" in str(report)


@settings(max_examples=300, deadline=None)
@given(
    lo_exp=st.floats(-6.0, 6.0),
    span_exp=st.floats(1e-12, 6.0),
    n=st.integers(2, 200),
)
def test_log_grid_is_geomspace(lo_exp, span_exp, n):
    """The maximizer's log grid equals np.geomspace bit for bit for positive
    bounds, so zoom candidates and scan grids are unchanged."""
    lo = 10.0**lo_exp
    hi = lo * 10.0**span_exp
    np.testing.assert_array_equal(_log_grid(lo, hi, n), np.geomspace(lo, hi, n))


def _raveled_meshgrid(values):
    return tuple(a.ravel() for a in np.meshgrid(*values))


@settings(max_examples=200, deadline=None)
@given(
    n1=st.integers(1, 60),
    extra=st.integers(1, 40),
    scales=st.tuples(st.sampled_from(["log", "linear"]), st.sampled_from(["log", "linear"])),
    ndim=st.sampled_from([1, 2]),
)
def test_mesh_is_raveled_meshgrid(n1, extra, scales, ndim):
    """The flat grid equals np.meshgrid raveled bit for bit, in 1-D and in 2-D
    with n1 != n2, and is new writable memory."""
    values = [
        SweepAxis("x", 0.05, 5.0, n, scale).values() if n > 1 else np.array([0.7])
        for n, scale in zip((n1, n1 + extra), scales)
    ][:ndim]
    mesh = _mesh(values)
    oracle = _raveled_meshgrid(values)
    assert len(mesh) == ndim
    for got, want in zip(mesh, oracle):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable
        assert not any(np.shares_memory(got, v) for v in values)


def test_grid_builders_move_no_digit(monkeypatch, algaas):
    """With numpy's np.geomspace and np.meshgrid in place of the maximizer's
    grid builders, every numeric optimum and the refined maxima of a 2-D and
    a 1-D sweep are the same bit for bit."""
    ring, gamma_c = algaas
    panels = [
        SweepSpec(Geometry.ADD_DROP_DISTINCT, SweepAxis("tgamma_a", 0.05, 5.0, 41),
                  SweepAxis("gamma_b", 0.05, 5.0, 37), ("ps", "psi"), ring,
                  PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), gamma_c),
        SweepSpec(Geometry.ALL_PASS_IDENTICAL, SweepAxis("gamma_a", 0.05, 5.0, 50, "linear"),
                  None, ("Rs", "Rsi"), ring, PumpSpec.cw(10e-6), gamma_c),
    ]

    def results():
        return repr((
            [numeric_optimum(geometry, target) for geometry, target in all_targets()],
            [run_sweep(spec, refine=True).meta["observed_maxima"] for spec in panels],
        ))

    fast = results()
    monkeypatch.setattr(optimize_module, "_log_grid", np.geomspace)
    monkeypatch.setattr(optimize_module, "_mesh", _raveled_meshgrid)
    monkeypatch.setattr(sweep_module, "_mesh", _raveled_meshgrid)
    assert results() == fast
