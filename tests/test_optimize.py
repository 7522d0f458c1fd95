"""Analytic optimum table, numeric maximizer, and cross-validation."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsfwm import (
    Geometry,
    Objective,
    OptimizationTarget,
    PumpRegime,
    analytic_optimum,
    cross_validate_optima,
    numeric_optimum,
)
from ringsfwm.optimize import _log_grid, all_targets, config_from_point, normalized_objective

CW = PumpRegime.CW
PULSE = PumpRegime.BROADBAND_PULSE
ONE = Objective.ONE_PHOTON
TWO = Objective.TWO_PHOTON


def solve_distinct_pulsed_optimum(objective):
    """Arbitrary-precision solution of the stationarity conditions of the
    normalized per-pulse probabilities for the distinct geometry."""
    mp.mp.dps = 30
    if objective is ONE:
        eqs = lambda x, y: (  # noqa: E731
            2 / x - 3 / (x + 1) - 1 / (x + y + 2),
            1 / y - 1 / (y + 1) - 1 / (x + y + 2),
        )
        value = lambda x, y: x**2 * y / ((x + 1) ** 3 * (y + 1) * (x + y + 2))  # noqa: E731
        seed = (mp.mpf("1.4"), mp.mpf("1.8"))
    else:
        eqs = lambda x, y: (  # noqa: E731
            2 / x - 3 / (x + 1) - 1 / (x + y + 2),
            2 / y - 2 / (y + 1) - 1 / (x + y + 2),
        )
        value = lambda x, y: x**2 * y**2 / ((x + 1) ** 3 * (y + 1) ** 2 * (x + y + 2))  # noqa: E731
        seed = (mp.mpf("1.5"), mp.mpf("3.2"))
    x, y = mp.findroot(lambda x, y: eqs(x, y), seed)
    return (float(x), float(y)), float(value(x, y))


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
        """Stored constants agree with an independent high-precision solve of
        the stationarity conditions (couplings stored to two decimals)."""
        for objective in (ONE, TWO):
            rec = analytic_optimum(
                Geometry.ADD_DROP_DISTINCT, OptimizationTarget(objective, PULSE)
            )
            (x, y), value = solve_distinct_pulsed_optimum(objective)
            # stored couplings carry two-decimal precision
            assert rec.couplings[0] == pytest.approx(x, abs=8e-3)
            assert rec.couplings[1] == pytest.approx(y, abs=8e-3)
            assert rec.peak_value == pytest.approx(value, rel=1e-12)

    def test_analytic_value_is_objective_at_argmax(self):
        """Table values are consistent with the rate engines themselves."""
        for geometry, target in all_targets():
            rec = analytic_optimum(geometry, target)
            f = normalized_objective(geometry, target)
            # exact entries sit exactly at the argmax; stored-numeric entries
            # quote couplings to two decimals, where the surface is flat to
            # ~1e-5 relative
            rtol = 1e-12 if rec.peak_value_exact is not None else 2e-5
            assert f(rec.couplings) == pytest.approx(rec.peak_value, rel=rtol)


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

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="contain"):
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW),
                bounds=((0.5, 10.0),),
            )
        with pytest.raises(ValueError, match="contain"):
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW),
                bounds=((0.05, 5.0),),
            )

    def test_nonfinite_objective_raises(self):
        from ringsfwm import OptimizationError

        with pytest.raises(OptimizationError, match="non-finite"):
            numeric_optimum(
                Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(ONE, CW),
                objective=lambda point: np.full(point[0].shape, np.nan),
            )

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


class TestCrossValidation:
    def test_all_entries_pass(self):
        report = cross_validate_optima()
        assert len(report.entries) == 12
        assert report.n_failed == 0, str(report)
        assert report.passed

    def test_numeric_never_beats_analytic_beyond_tolerance(self):
        report = cross_validate_optima()
        for entry in report.entries:
            overshoot = (entry.numeric.peak_value - entry.analytic.peak_value)
            assert overshoot <= entry.value_rtol * entry.analytic.peak_value

    def test_fault_injection_fails_exactly_one(self):
        key = (Geometry.ADD_DROP_IDENTICAL, TWO, CW)
        clean = analytic_optimum(
            Geometry.ADD_DROP_IDENTICAL, OptimizationTarget(TWO, CW)
        )
        report = cross_validate_optima(
            overrides={key: (clean.couplings, clean.peak_value + 0.1)}
        )
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
