"""Optimal coupling rates per geometry and target.

Analytic optima are tabulated as couplings (exact rationals, or the roots of
cubics) and their peaks are the closed-form rate/probability kernels there; a
derivative-free numeric maximizer re-derives each optimum from the same
kernels, and :func:`cross_validate_optima` diffs the two routes.  The
maximizer scans a log grid in one call of an array objective, zooms in on the
best cell with finer log grids and ends with a parabolic vertex step; the same
zoom sharpens the observed maxima of coupling sweeps.

Everything is optimized in normalized units: couplings in multiples of the
intrinsic loss ``gamma_c`` and objectives in units of the scale factors R0
(CW rates) or p0 (per-pulse probabilities), so results are independent of any
particular ring.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    CouplingConfig,
    Geometry,
    _check_couplings,
    _point_rates,
    coupling_parameter_names,
)
from .cw import _pair_rate_kernel, _single_rate_kernel
from .pulsed import _pair_prob_kernel, _single_prob_kernel

__all__ = [
    "Objective",
    "PumpRegime",
    "OptimizationTarget",
    "OptimumRecord",
    "OptimizationError",
    "all_targets",
    "coupling_parameter_names",
    "config_from_point",
    "normalized_objective",
    "analytic_optimum",
    "numeric_optimum",
    "cross_validate_optima",
    "CrossValidationEntry",
    "CrossValidationReport",
]


class OptimizationError(RuntimeError):
    """The numeric maximizer failed to converge or hit non-finite values."""


class Objective(enum.Enum):
    ONE_PHOTON = "one-photon"
    TWO_PHOTON = "two-photon"


class PumpRegime(enum.Enum):
    CW = "cw"
    BROADBAND_PULSE = "broadband-pulse"


@dataclass(frozen=True)
class OptimizationTarget:
    objective: Objective
    pump_regime: PumpRegime

    def __post_init__(self) -> None:
        if not isinstance(self.objective, Objective):
            raise ValueError(f"invalid objective {self.objective!r}")
        if not isinstance(self.pump_regime, PumpRegime):
            raise ValueError(f"invalid pump regime {self.pump_regime!r}")


@dataclass(frozen=True)
class OptimumRecord:
    """Optimal couplings (units of gamma_c) and peak value (units of R0/p0)."""

    geometry: Geometry
    target: OptimizationTarget
    couplings: tuple[float, ...]
    peak_value: float
    couplings_exact: Optional[tuple[Fraction, ...]] = None
    peak_value_exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.peak_value <= 0.0 or not math.isfinite(self.peak_value):
            raise ValueError(f"OptimumRecord.peak_value must be > 0, got {self.peak_value!r}")
        if not all(c > 0.0 and math.isfinite(c) for c in self.couplings):
            raise ValueError(f"OptimumRecord.couplings must be > 0, got {self.couplings!r}")


def all_targets() -> list[tuple[Geometry, OptimizationTarget]]:
    """All 12 (geometry, objective, pump regime) combinations."""
    return [
        (geo, OptimizationTarget(obj, reg))
        for reg in PumpRegime
        for geo in Geometry
        for obj in Objective
    ]


def config_from_point(
    geometry: Geometry,
    point: Sequence[float],
    gamma_c: float = 1.0,
    tgamma_c: Optional[float] = None,
) -> CouplingConfig:
    """Coupling configuration from free parameters given in gamma_c units."""
    return CouplingConfig(geometry, [float(p) * gamma_c for p in point], gamma_c, tgamma_c)


def _normalized_value(geometry: Geometry, target: OptimizationTarget, point):
    """The rate kernel of ``target`` at free couplings ``point`` in gamma_c
    units: floats, equal-shape arrays or ``Fraction``s (then exact)."""
    one = target.objective is Objective.ONE_PHOTON
    ta, gmu, g, tg = _point_rates(geometry, point, 1)
    if target.pump_regime is PumpRegime.CW:
        # R/R0 = kernel(..., d)/d^2 = kernel(..., 1) at gamma_c = 1
        return (_single_rate_kernel if one else _pair_rate_kernel)(ta, gmu, g, tg, 1)
    # p/p0 = kernel(..., y)/(y*tgamma/gamma_c)^2 = kernel(..., gamma_c/tgamma)
    return (_single_prob_kernel if one else _pair_prob_kernel)(ta, gmu, g, tg, 1 / tg)


def normalized_objective(
    geometry: Geometry, target: OptimizationTarget
) -> Callable[[Sequence], object]:
    """Objective in gamma_c-normalized units, built on the rate kernels.

    The objective takes the free couplings (units of gamma_c, in
    :func:`coupling_parameter_names` order) as floats or as equal-shape
    arrays and returns the value(s) of the same shape.  CW targets return
    rates in units of R0; pulsed targets return per-pulse probabilities in
    units of p0 (fixed pulse energy, bandwidth scaled with the pump
    linewidth).  Each value equals the library function's on the matching
    :class:`CouplingConfig`.
    """

    def objective(point):
        _check_couplings(geometry, point)
        return _normalized_value(geometry, target, point)

    return objective


def _largest_root(a: float, b: float, c: float) -> float:
    """Largest root of ``y^3 + a*y^2 + b*y + c`` when all three are real
    (trigonometric form; ``numpy.roots`` would page in LAPACK)."""
    p = b - a * a / 3
    q = 2 * a**3 / 27 - a * b / 3 + c
    m = 2 * math.sqrt(-p / 3)
    return m * math.cos(math.acos(3 * q / (p * m)) / 3) - a / 3


# Distinct-coupler pulsed optima (x, y) = (tgamma_a, gamma_b)/gamma_c.  The
# y-stationarity condition gives x in terms of y; the x-condition then leaves
# a cubic in y.  Singles: x = y^2 - 2, 2y^3 - y^2 - 6y + 2 = 0.  Pairs:
# x = (y^2 - y - 4)/2, y^3 - 2y^2 - 5y + 4 = 0.
_Y1 = _largest_root(-1 / 2, -3, 1)
_Y2 = _largest_root(-2, -5, 4)

_F = Fraction

# The argmax of each (geometry, objective, regime); its peak is the kernel there.
_ANALYTIC_TABLE: dict[tuple[Geometry, Objective, PumpRegime], tuple] = {
    (Geometry.ALL_PASS_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.CW): (_F(1),),
    (Geometry.ALL_PASS_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.CW): (_F(4, 3),),
    (Geometry.ADD_DROP_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.CW): (_F(2, 3), _F(1, 3)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.CW): (_F(2, 3), _F(2, 3)),
    (Geometry.ADD_DROP_DISTINCT, Objective.ONE_PHOTON, PumpRegime.CW): (_F(1), _F(1)),
    (Geometry.ADD_DROP_DISTINCT, Objective.TWO_PHOTON, PumpRegime.CW): (_F(1), _F(2)),
    (Geometry.ALL_PASS_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE): (_F(3, 2),),
    (Geometry.ALL_PASS_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE): (_F(2),),
    (Geometry.ADD_DROP_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE):
        (_F(1), _F(1, 2)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE):
        (_F(1), _F(1)),
    (Geometry.ADD_DROP_DISTINCT, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE):
        (_Y1 * _Y1 - 2, _Y1),
    (Geometry.ADD_DROP_DISTINCT, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((_Y2 * _Y2 - _Y2 - 4) / 2, _Y2),
}


def analytic_optimum(geometry: Geometry, target: OptimizationTarget) -> OptimumRecord:
    """Tabulated optimal couplings for (geometry, objective, regime) and the
    objective's value there.

    CW and identical-coupling pulsed entries are exact rationals (also exposed
    through ``couplings_exact``/``peak_value_exact``); the distinct-coupling
    pulsed couplings are the roots of cubics, to double precision.
    """
    couplings = _ANALYTIC_TABLE[(geometry, target.objective, target.pump_regime)]
    value = _normalized_value(geometry, target, couplings)
    exact = isinstance(value, Fraction)
    return OptimumRecord(
        geometry=geometry,
        target=target,
        couplings=tuple(float(c) for c in couplings),
        peak_value=float(value),
        couplings_exact=couplings if exact else None,
        peak_value_exact=value if exact else None,
    )


# The search box of numeric_optimum on each coupling axis, in units of gamma_c.
_DEFAULT_BOUND = (0.05, 10.0)


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` log-spaced points from ``lo`` to ``hi`` (``0 < lo``, ``n >= 2``):
    ``10**(k*step + log10(lo))`` with ``np.linspace``'s step
    ``(log10(hi) - log10(lo))/(n - 1)`` and the endpoints pinned, which is
    ``np.geomspace(lo, hi, n)`` bit for bit."""
    a = np.log10(lo)
    grid = 10.0 ** (np.arange(n, dtype=float) * ((np.log10(hi) - a) / (n - 1)) + a)
    grid[0], grid[-1] = lo, hi
    return grid


def _mesh(values: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """New flat arrays over one or two axes of values, axis2-major (axis2
    varies slowest): ``np.meshgrid(*values)`` raveled, bit for bit."""
    if len(values) == 1:
        return (values[0].copy(),)
    x, y = values
    return np.tile(x, y.size), np.repeat(y, x.size)


# Each zoom pass re-grids +-1 cell at 17 points per axis, so the cell shrinks
# 8-fold per pass.  Across a log cell of 1e-7 the objective changes by ~1e-14
# relative, close to roundoff; the vertex step, whose stencil is 100 such
# cells wide, takes over there.
_ZOOM_POINTS = 17
_ZOOM_CELL = 1e-7
_VERTEX_STEP = 1e-5


def _maximize(objective, point, value, ratios, bounds) -> tuple[tuple[float, ...], float]:
    """Sharpen a grid maximum ``value`` at ``point`` of an array objective.

    ``objective`` maps a tuple of equal-shape coupling arrays to an array of
    values; ``ratios`` are the grid's per-axis cell ratios and ``bounds`` its
    ``(lo, hi)`` box.  Each zoom pass re-grids a +-1-cell log window around
    the best point in one call and moves to the first candidate (axis2-major)
    that beats the best value; NaN never wins.  The pass count follows from
    the start cell.  Last, the vertex of the quadratic through a 3x3 (or
    3-point) stencil (log step 1e-5, cross term included, step clipped to
    the stencil and then to the box) replaces the point whenever its value
    is finite.  One or two couplings.  Returns ``(point, value)``.
    """
    shrink = (_ZOOM_POINTS - 1) / 2
    cell = max(math.log(r) for r in ratios)
    for _ in range(max(0, math.ceil(math.log(cell / _ZOOM_CELL, shrink)))):
        candidates = _mesh([
            _log_grid(max(p / r, lo), min(p * r, hi), _ZOOM_POINTS)
            for p, r, (lo, hi) in zip(point, ratios, bounds)
        ])
        values = objective(candidates)
        k = int(np.where(np.isnan(values), -np.inf, values).argmax())
        if values[k] > value:
            value = float(values[k])
            point = tuple(float(c[k]) for c in candidates)
        ratios = [r ** (1.0 / shrink) for r in ratios]

    # Gradient and Hessian in log couplings.  Where the zoom stops moves with
    # roundoff (rescaling the objective can pick a candidate one cell away);
    # the joint vertex, cross term included, does not follow it.
    h = _VERTEX_STEP
    n = len(point)
    offsets = [tuple(o) for o in itertools.product((-1, 0, 1), repeat=n)]
    scaled = np.asarray(point) * np.exp(h * np.array(offsets, dtype=float))
    f = dict(zip(offsets, np.asarray(objective(tuple(scaled.T)), dtype=float).tolist()))

    def at(*steps):
        """Value at the sum of signed unit steps ``(axis, sign)``."""
        index = [0] * n
        for axis, sign in steps:
            index[axis] += sign
        return f[tuple(index)]

    grad = [(at((i, 1)) - at((i, -1))) / (2.0 * h) for i in range(n)]
    hess = [[
        (at((i, 1)) - 2.0 * at() + at((i, -1))) / (h * h) if i == j else
        (at((i, 1), (j, 1)) - at((i, 1), (j, -1)) - at((i, -1), (j, 1))
         + at((i, -1), (j, -1))) / (4.0 * h * h)
        for j in range(n)] for i in range(n)]
    # Newton step -H^-1 grad where H is negative definite.  There are one or
    # two couplings, so the adjugate inverts H (numpy.linalg would page in
    # LAPACK, +1 MB RSS per process).
    # Python floats on these one or two elements round as numpy's would.
    shift = [0.0] * n
    if all(map(math.isfinite, f.values())):
        a = hess[0][0]
        if n == 1 and a < 0.0:
            shift = [-grad[0] / a]
        elif n == 2:
            b, d = hess[0][1], hess[1][1]
            det = a * d - b * b
            if a < 0.0 and det > 0.0:
                shift = [(b * grad[1] - d * grad[0]) / det, (b * grad[0] - a * grad[1]) / det]
    moved = np.asarray(point) * np.exp([min(max(s, -h), h) for s in shift])
    vertex = tuple(float(min(max(c, lo), hi)) for c, (lo, hi) in zip(moved.tolist(), bounds))
    vertex_value = float(objective(tuple(np.array([c]) for c in vertex))[0])
    if math.isfinite(vertex_value):
        return vertex, vertex_value
    return point, value


def numeric_optimum(
    geometry: Geometry,
    target: OptimizationTarget,
    objective: Optional[Callable[[tuple], object]] = None,
) -> OptimumRecord:
    """Derivative-free maximization of the rate/probability objective.

    Scans a log grid over ``[0.05, 10]*gamma_c`` per coupling (193 points in
    1-D, 61x61 in 2-D) in one objective call and sharpens its best point by
    log-grid zoom and a parabolic vertex step.  ``objective`` defaults to
    :func:`normalized_objective`; a custom one takes a tuple of equal-shape
    coupling arrays (units of gamma_c, one per coupling parameter) and
    returns an array of values of that shape.  Works entirely in
    gamma_c-normalized units, so the argmax is independent of the physical
    loss rate.  Raises :class:`OptimizationError` when the scan meets a
    non-finite value or finds no positive one.
    """
    ndim = len(coupling_parameter_names(geometry))
    bounds = (_DEFAULT_BOUND,) * ndim
    if objective is None:
        objective = normalized_objective(geometry, target)

    n_scan = 193 if ndim == 1 else 61
    grid = _mesh([_log_grid(lo, hi, n_scan) for lo, hi in bounds])
    values = np.asarray(objective(grid), dtype=float)
    if values.shape != grid[0].shape:
        raise ValueError(
            f"objective must return one value per grid point, shape {grid[0].shape}, "
            f"got shape {values.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        at = tuple(float(a[bad[0]]) for a in grid)
        raise OptimizationError(
            f"objective returned a non-finite value {values[bad[0]]!r} at {at!r}"
        )
    k = int(np.argmax(values))
    if values[k] <= 0.0:
        raise OptimizationError("grid scan found no positive objective value")

    ratios = [(hi / lo) ** (1.0 / (n_scan - 1)) for lo, hi in bounds]
    couplings, peak = _maximize(
        objective, tuple(float(a[k]) for a in grid), float(values[k]), ratios, bounds
    )
    if not math.isfinite(peak) or peak <= 0.0:
        raise OptimizationError(f"objective is non-finite at the reported optimum {couplings!r}")
    return OptimumRecord(
        geometry=geometry,
        target=target,
        couplings=couplings,
        peak_value=peak,
    )


@dataclass(frozen=True)
class CrossValidationEntry:
    geometry: Geometry
    target: OptimizationTarget
    analytic: OptimumRecord
    numeric: OptimumRecord
    coupling_tol: float
    value_rtol: float
    coupling_err: float
    value_relerr: float
    passed: bool

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        names = ", ".join(coupling_parameter_names(self.geometry))
        return (
            f"[{status}] {self.geometry.value:>20s} {self.target.pump_regime.value:>15s} "
            f"{self.target.objective.value:>10s}  ({names}) "
            f"d_coupling={self.coupling_err:.2e} (tol {self.coupling_tol:g}), "
            f"d_value/value={self.value_relerr:.2e} (tol {self.value_rtol:g})"
        )


@dataclass(frozen=True)
class CrossValidationReport:
    entries: tuple[CrossValidationEntry, ...]

    @property
    def n_failed(self) -> int:
        return sum(not e.passed for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    def __str__(self) -> str:
        lines = [e.describe() for e in self.entries]
        lines.append(
            f"{len(self.entries) - self.n_failed}/{len(self.entries)} optima cross-validated"
        )
        return "\n".join(lines)


def cross_validate_optima() -> CrossValidationReport:
    """Re-derive all 12 optima numerically and diff against the analytic table:
    couplings to 1e-3*gamma_c, peak values to 1e-6 relative."""
    ctol, vtol = 1e-3, 1e-6
    entries = []
    for geometry, target in all_targets():
        analytic = analytic_optimum(geometry, target)
        numeric = numeric_optimum(geometry, target)
        cerr = max(
            abs(a - n) for a, n in zip(analytic.couplings, numeric.couplings)
        )
        verr = abs(numeric.peak_value - analytic.peak_value) / analytic.peak_value
        entries.append(
            CrossValidationEntry(
                geometry=geometry,
                target=target,
                analytic=analytic,
                numeric=numeric,
                coupling_tol=ctol,
                value_rtol=vtol,
                coupling_err=cerr,
                value_relerr=verr,
                passed=(cerr <= ctol and verr <= vtol),
            )
        )
    return CrossValidationReport(entries=tuple(entries))
