"""Optimal coupling rates per geometry and target.

Analytic optima (exact rationals where they exist) are tabulated; a
derivative-free numeric maximizer (coarse log-grid scan followed by
Nelder-Mead refinement in log coordinates) re-derives each optimum from the
closed-form rate/probability engines, and :func:`cross_validate_optima` diffs
the two routes.

Everything is optimized in normalized units: couplings in multiples of the
intrinsic loss ``gamma_c`` and objectives in units of the scale factors R0
(CW rates) or p0 (per-pulse probabilities), so results are independent of any
particular ring.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .core import CouplingConfig, Geometry, _UNIT_RING, _check_pump_loss, prob_scale_p0
from .cw import cw_pair_rate, cw_single_rate
from .pulsed import pulsed_pair_prob, pulsed_single_prob

__all__ = [
    "Objective",
    "PumpRegime",
    "OptimizationTarget",
    "Source",
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


class Source(enum.Enum):
    ANALYTIC = "analytic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class OptimumRecord:
    """Optimal couplings (units of gamma_c) and peak value (units of R0/p0)."""

    geometry: Geometry
    target: OptimizationTarget
    couplings: tuple[float, ...]
    peak_value: float
    source: Source
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


def coupling_parameter_names(geometry: Geometry) -> tuple[str, ...]:
    """Free coupling knobs of a geometry, in record/axis order."""
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return ("gamma_a",)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return ("gamma_a", "gamma_b")
    return ("tgamma_a", "gamma_b")


def config_from_point(
    geometry: Geometry,
    point: Sequence[float],
    gamma_c: float = 1.0,
    tgamma_c: Optional[float] = None,
) -> CouplingConfig:
    """Coupling configuration from free parameters given in gamma_c units."""
    point = tuple(float(p) for p in point)
    if len(point) != len(coupling_parameter_names(geometry)):
        raise ValueError(
            f"{geometry.value} expects {len(coupling_parameter_names(geometry))} "
            f"coupling parameters, got {len(point)}"
        )
    _check_pump_loss(geometry, tgamma_c)
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return CouplingConfig.all_pass(point[0] * gamma_c, gamma_c)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return CouplingConfig.add_drop(point[0] * gamma_c, point[1] * gamma_c, gamma_c)
    return CouplingConfig.distinct(
        point[0] * gamma_c, point[1] * gamma_c, gamma_c, tgamma_c=tgamma_c
    )


# Bandwidth factor used internally when evaluating pulsed objectives; the
# p0 normalization removes it exactly, any value >= 10 gives identical output.
_PULSED_REF_B = 16.0


def normalized_objective(
    geometry: Geometry, target: OptimizationTarget
) -> Callable[[Sequence[float]], float]:
    """Objective in gamma_c-normalized units, built on the rate engines.

    CW targets return rates in units of R0; pulsed targets return per-pulse
    probabilities in units of p0 (fixed pulse energy, bandwidth scaled with
    the pump linewidth).
    """
    if target.pump_regime is PumpRegime.CW:
        rate = cw_single_rate if target.objective is Objective.ONE_PHOTON else cw_pair_rate

        def objective(point: Sequence[float]) -> float:
            cfg = config_from_point(geometry, point)
            return rate(_UNIT_RING, cfg, 1.0)

    else:
        prob = (
            pulsed_single_prob
            if target.objective is Objective.ONE_PHOTON
            else pulsed_pair_prob
        )
        p0_ref = prob_scale_p0(_UNIT_RING, 1.0, _PULSED_REF_B, 1.0)

        def objective(point: Sequence[float]) -> float:
            cfg = config_from_point(geometry, point)
            return prob(_UNIT_RING, cfg, 1.0, _PULSED_REF_B * cfg.tgamma) / p0_ref

    return objective


# Distinct-coupling pulsed optima have no rational closed form; these peaks
# solve the stationarity conditions of the normalized per-pulse probabilities
# to double precision.  The table quotes their couplings to two decimals, the
# customary precision for the argmax, which is flat at the 1e-5 level there.
_DISTINCT_PULSED_SINGLES_PEAK = 0.017533154899126
_DISTINCT_PULSED_PAIRS_PEAK = 0.012480560984425

_F = Fraction

_ANALYTIC_TABLE: dict[
    tuple[Geometry, Objective, PumpRegime],
    tuple[tuple, object],
] = {
    # CW: rates in units of R0.
    (Geometry.ALL_PASS_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.CW):
        ((_F(1),), _F(1, 2)),
    (Geometry.ALL_PASS_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.CW):
        ((_F(4, 3),), _F(221184, 823543)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.CW):
        ((_F(2, 3), _F(1, 3)), _F(2, 27)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.CW):
        ((_F(2, 3), _F(2, 3)), _F(13824, 823543)),
    (Geometry.ADD_DROP_DISTINCT, Objective.ONE_PHOTON, PumpRegime.CW):
        ((_F(1), _F(1)), _F(1, 2)),
    (Geometry.ADD_DROP_DISTINCT, Objective.TWO_PHOTON, PumpRegime.CW):
        ((_F(1), _F(2)), _F(8, 27)),
    # Broadband pulse: probabilities in units of p0.
    (Geometry.ALL_PASS_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((_F(3, 2),), _F(54, 3125)),
    (Geometry.ALL_PASS_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((_F(2),), _F(8, 729)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((_F(1), _F(1, 2)), _F(8, 3125)),
    (Geometry.ADD_DROP_IDENTICAL, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((_F(1), _F(1)), _F(1, 1458)),
    (Geometry.ADD_DROP_DISTINCT, Objective.ONE_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((1.37, 1.83), _DISTINCT_PULSED_SINGLES_PEAK),
    (Geometry.ADD_DROP_DISTINCT, Objective.TWO_PHOTON, PumpRegime.BROADBAND_PULSE):
        ((1.46, 3.17), _DISTINCT_PULSED_PAIRS_PEAK),
}


def analytic_optimum(geometry: Geometry, target: OptimizationTarget) -> OptimumRecord:
    """Tabulated optimal couplings and peak for (geometry, objective, regime).

    CW and identical-coupling pulsed entries are exact rationals (also exposed
    through ``couplings_exact``/``peak_value_exact``); the distinct-coupling
    pulsed entries carry numerically solved constants, with couplings quoted
    to two decimals.
    """
    couplings, value = _ANALYTIC_TABLE[(geometry, target.objective, target.pump_regime)]
    exact = all(isinstance(c, Fraction) for c in couplings) and isinstance(value, Fraction)
    return OptimumRecord(
        geometry=geometry,
        target=target,
        couplings=tuple(float(c) for c in couplings),
        peak_value=float(value),
        source=Source.ANALYTIC,
        couplings_exact=tuple(couplings) if exact else None,
        peak_value_exact=value if exact else None,
    )


_DEFAULT_BOUND = (0.05, 10.0)


def _validate_bounds(bounds, ndim: int) -> tuple[tuple[float, float], ...]:
    if bounds is None:
        return (_DEFAULT_BOUND,) * ndim
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(bounds) != ndim:
        raise ValueError(f"expected {ndim} bound pairs, got {len(bounds)}")
    for lo, hi in bounds:
        if not 0.0 < lo <= _DEFAULT_BOUND[0] or hi < _DEFAULT_BOUND[1]:
            raise ValueError(
                f"bounds must be positive and contain at least "
                f"[{_DEFAULT_BOUND[0]}, {_DEFAULT_BOUND[1]}] per axis, got ({lo}, {hi})"
            )
    return bounds


# The simplex stops somewhere inside the floating-point-flat neighborhood of
# the maximum (~1e-8 wide in log coordinates), and exactly where depends on
# roundoff details such as a constant rescaling of the objective.  Polishing
# on a snapped lattice with value-independent stencils makes the reported
# argmax reproducible to well below 1e-9 under any positive rescaling.
_SNAP = 1e-6


def _parabolic_polish(objective, z: np.ndarray, log_bounds) -> np.ndarray:
    z = np.round(np.asarray(z, dtype=float) / _SNAP) * _SNAP
    lo = np.array([b[0] for b in log_bounds])
    hi = np.array([b[1] for b in log_bounds])
    z = np.clip(z, lo + 2e-3, hi - 2e-3)
    for h in (1e-3, 1e-5):
        for k in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            f0 = objective(np.exp(z))
            fp_ = objective(np.exp(zp))
            fm_ = objective(np.exp(zm))
            denom = fm_ - 2.0 * f0 + fp_
            if denom >= 0.0:  # no curvature resolved; keep the simplex point
                continue
            shift = 0.5 * h * (fm_ - fp_) / denom
            z[k] += float(np.clip(shift, -h, h))
        z = np.clip(z, lo, hi)
    return z


def numeric_optimum(
    geometry: Geometry,
    target: OptimizationTarget,
    bounds: Optional[Sequence[tuple[float, float]]] = None,
    objective: Optional[Callable[[Sequence[float]], float]] = None,
    grid_points: Optional[int] = None,
) -> OptimumRecord:
    """Derivative-free maximization of the rate/probability objective.

    Coarse logarithmic grid scan (ties resolved toward the smallest
    couplings), then Nelder-Mead refinement in log coordinates.  Works
    entirely in gamma_c-normalized units, so the argmax is independent of the
    physical loss rate.
    """
    ndim = len(coupling_parameter_names(geometry))
    bounds = _validate_bounds(bounds, ndim)
    if objective is None:
        objective = normalized_objective(geometry, target)

    n_scan = grid_points or (193 if ndim == 1 else 61)
    axes = [np.geomspace(lo, hi, n_scan) for lo, hi in bounds]
    best_val = -np.inf
    best_point = None
    for idx in np.ndindex(*(len(ax) for ax in axes)):
        point = tuple(axes[k][i] for k, i in enumerate(idx))
        val = objective(point)
        if not np.isfinite(val):
            raise OptimizationError(
                f"objective returned a non-finite value {val!r} at {point!r}"
            )
        if val > best_val:
            best_val = val
            best_point = point
    if best_point is None or best_val <= 0.0:
        raise OptimizationError("grid scan found no positive objective value")

    log_bounds = [(math.log(lo), math.log(hi)) for lo, hi in bounds]

    def neg_log_objective(z: np.ndarray) -> float:
        val = objective(np.exp(z))
        if not np.isfinite(val) or val <= 0.0:
            return np.inf
        return -math.log(val)

    res = minimize(
        neg_log_objective,
        x0=np.log(np.asarray(best_point)),
        method="Nelder-Mead",
        bounds=log_bounds,
        options={
            "xatol": 1e-9,
            "fatol": 1e-12,
            "maxiter": 20_000,
            "maxfev": 40_000,
        },
    )
    if not res.success:
        raise OptimizationError(f"simplex refinement did not converge: {res.message}")
    z = _parabolic_polish(objective, res.x, log_bounds)
    couplings = tuple(float(c) for c in np.exp(z))
    peak = float(objective(couplings))
    if not np.isfinite(peak) or peak <= 0.0:
        raise OptimizationError(f"objective is non-finite at the reported optimum {couplings!r}")
    return OptimumRecord(
        geometry=geometry,
        target=target,
        couplings=couplings,
        peak_value=peak,
        source=Source.NUMERIC,
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


def cross_validate_optima(
    overrides: Optional[dict] = None,
) -> CrossValidationReport:
    """Re-derive all 12 optima numerically and diff against the analytic table.

    Exact-rational entries are held to 1e-3*gamma_c on couplings and 1e-6
    relative on peak values; the stored-numeric (distinct pulsed) entries to
    0.01*gamma_c and 1e-3.  ``overrides`` may map
    ``(geometry, objective, regime)`` to ``(couplings, peak_value)`` to
    replace an analytic entry (fault injection / what-if checks).
    """
    overrides = overrides or {}
    entries = []
    for geometry, target in all_targets():
        analytic = analytic_optimum(geometry, target)
        key = (geometry, target.objective, target.pump_regime)
        if key in overrides:
            couplings, value = overrides[key]
            analytic = OptimumRecord(
                geometry=geometry,
                target=target,
                couplings=tuple(float(c) for c in couplings),
                peak_value=float(value),
                source=Source.ANALYTIC,
            )
        numeric = numeric_optimum(geometry, target)
        stored_numeric = analytic.peak_value_exact is None
        ctol, vtol = (0.01, 1e-3) if stored_numeric else (1e-3, 1e-6)
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
