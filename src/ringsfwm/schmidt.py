"""Schmidt number and Schmidt decomposition of the joint temporal amplitude.

The continuous kernel psi(t_s, t_i) is sampled on a uniform time grid with
trapezoid quadrature weights and symmetrized as ``M = sqrt(w) psi sqrt(w)``.
The squared singular values of ``M``, normalized to unit sum, are the Schmidt
coefficients; their inverse participation ratio

    ``K = 1 / sum(lambda_n^2)``

is the Schmidt number.  ``K = 1`` marks a separable (heraldable-pure) biphoton.

``K`` itself needs no decomposition: it is the inverse purity
``(tr G)^2 / ||G||_F^2`` of the Gram matrix ``G = M^H M``, whose eigenvalues
are the squared singular values (:func:`schmidt_number`, one matrix product,
real for the real broadband wavepacket).  The SVD is kept only where the
coefficients themselves are reported (:func:`schmidt_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .core import CouplingConfig, PumpMode, PumpSpec, RingParams
from .pulsed import pulsed_wavepacket

__all__ = [
    "DecompositionError",
    "WavepacketGrid",
    "SchmidtResult",
    "discretize_wavepacket",
    "schmidt_number",
    "schmidt_spectrum",
    "schmidt_number_sweep",
    "SchmidtSweepPoint",
]


class DecompositionError(RuntimeError):
    """The wavepacket grid has no usable Schmidt decomposition: its SVD failed
    or its weighted squared norm is zero or not finite."""


# Failures of one sweep point's computation.  Sweeps record these per point
# and carry on; anything else (a TypeError, say) is a bug and propagates.
_POINT_ERRORS = (ValueError, ArithmeticError, DecompositionError, np.linalg.LinAlgError)


@dataclass(frozen=True, eq=False)
class WavepacketGrid:
    """Discretized joint temporal amplitude with quadrature weights.

    ``t_axis`` holds N strictly increasing sample times [s] (N >= 16),
    ``amplitudes`` the N x N matrix psi(t_s, t_i) [1/s], and ``weights`` the
    per-sample quadrature weights [s].  Real amplitudes are stored as float64
    and complex ones as complex128; neither need be symmetric.
    """

    t_axis: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        # private copies: freezing them below must not freeze the caller's arrays
        t = np.array(self.t_axis, dtype=float)
        a = np.asarray(self.amplitudes)
        a = a.astype(complex if np.iscomplexobj(a) else float)
        w = np.array(self.weights, dtype=float)
        n = t.size
        if t.ndim != 1 or n < 16:
            raise ValueError(f"WavepacketGrid requires >= 16 time samples, got {n}")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("WavepacketGrid t_axis must be strictly increasing")
        if a.shape != (n, n):
            raise ValueError(
                f"WavepacketGrid amplitudes must be ({n}, {n}), got {a.shape}"
            )
        if w.shape != (n,) or not np.all(w > 0.0):
            raise ValueError("WavepacketGrid weights must be positive, one per sample")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("WavepacketGrid requires finite samples")
        norm = float(np.einsum("i,j,ij->", w, w, np.abs(a) ** 2).real)
        if norm <= 0.0:
            raise ValueError("WavepacketGrid weighted squared norm must be > 0")
        for arr in (t, a, w):
            arr.setflags(write=False)
        object.__setattr__(self, "t_axis", t)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.t_axis.size

    @property
    def weighted_norm(self) -> float:
        """Trapezoid estimate of the double integral of |psi|^2 (dimensionless)."""
        return float(np.einsum("i,j,ij->", self.weights, self.weights,
                               np.abs(self.amplitudes) ** 2).real)


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Normalized Schmidt coefficients (descending), Schmidt number, and the
    pre-normalization weighted norm of the grid."""

    lambdas: np.ndarray
    K: float
    norm: float

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("SchmidtResult requires a 1-D coefficient vector")
        if np.any(lam < 0.0) or np.any(np.diff(lam) > 0.0):
            raise ValueError("SchmidtResult coefficients must be non-negative and descending")
        if abs(float(lam.sum()) - 1.0) > 1e-10:
            raise ValueError(f"SchmidtResult coefficients must sum to 1, got {lam.sum()!r}")
        if self.K < 1.0 - 1e-12:
            raise ValueError(f"SchmidtResult requires K >= 1, got {self.K!r}")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


def discretize_wavepacket(
    ring: RingParams,
    cfg: CouplingConfig,
    pump: PumpSpec,
    n_points: int = 512,
    t_max_over_gamma: float = 20.0,
) -> WavepacketGrid:
    """Sample the broadband pulsed wavepacket on [0, t_max_over_gamma/gamma].

    Uniform grid with trapezoid weights.  The exp(-gamma*t/2) envelope makes
    the default window lossless to well below 1e-8 of the norm.  Rejects CW
    pumps: the Schmidt number is a per-pulse notion.
    """
    if pump.mode is not PumpMode.PULSED:
        raise ValueError(
            "discretize_wavepacket requires a pulsed pump; the Schmidt "
            "decomposition is defined per pulse"
        )
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    if t_max_over_gamma <= 0.0:
        raise ValueError(f"t_max_over_gamma must be > 0, got {t_max_over_gamma}")
    delta_omega = pump.delta_omega_for(cfg.tgamma)
    t = np.linspace(0.0, t_max_over_gamma / cfg.gamma, int(n_points))
    step = t[1] - t[0]
    w = np.full(t.shape, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    psi = pulsed_wavepacket(ring, cfg, pump.energy, delta_omega, t[:, None], t[None, :])
    return WavepacketGrid(t_axis=t, amplitudes=psi, weights=w)


def _weighted_matrix(grid: WavepacketGrid) -> np.ndarray:
    """``M_ij = sqrt(w_i) psi_ij sqrt(w_j)``: its singular values approximate
    the continuous-kernel Schmidt amplitudes independently of the grid spacing."""
    sw = np.sqrt(grid.weights)
    return sw[:, None] * grid.amplitudes * sw[None, :]


def _inverse_purity(m: np.ndarray) -> float:
    """``(tr G)^2 / ||G||_F^2`` with ``G = M^H M``; ``tr G`` is the weighted norm."""
    g = m.conj().T @ m
    total = float(np.trace(g).real)
    if not np.isfinite(total) or total <= 0.0:
        raise DecompositionError("wavepacket grid is ill-conditioned (zero/non-finite norm)")
    g /= total  # so that squaring the entries cannot overflow
    return 1.0 / float(np.vdot(g, g).real)


def schmidt_number(grid: WavepacketGrid) -> float:
    """Schmidt number ``K = 1 / sum(lambda_n^2)`` of a wavepacket grid.

    The eigenvalues of ``G = M^H M`` are the squared singular values of ``M``,
    so ``tr G = sum(sigma^2)`` and ``||G||_F^2 = sum(sigma^4)``, and K is the
    inverse purity ``(tr G)^2 / ||G||_F^2``: one Gram product instead of an
    SVD.  Raises :class:`DecompositionError` when ``tr G`` is zero or not
    finite.
    """
    return _inverse_purity(_weighted_matrix(grid))


def schmidt_spectrum(grid: WavepacketGrid) -> SchmidtResult:
    """Schmidt coefficients and Schmidt number of a wavepacket grid.

    The coefficients are ``lambda_n = sigma_n^2 / sum(sigma^2)`` from the SVD
    of ``M``; ``K`` is evaluated as in :func:`schmidt_number`.
    """
    m = _weighted_matrix(grid)
    k = _inverse_purity(m)  # rejects a zero or non-finite norm
    try:
        sigma = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD of the wavepacket grid failed: {exc}") from exc
    lam = sigma * sigma
    total = float(lam.sum())
    return SchmidtResult(lambdas=lam / total, K=k, norm=total)


@dataclass(frozen=True)
class SchmidtSweepPoint:
    """One entry of a Schmidt-number sweep; ``error`` flags a failed point."""

    tgamma_a_over_gamma_c: float
    gamma_b_over_gamma_c: float
    K: float
    K_minus_1: float
    error: Optional[str] = None


def _schmidt_numbers(
    ring: RingParams,
    pump: PumpSpec,
    points: Iterable,
    n_points: int,
    t_max_over_gamma: float,
    config: Callable[..., CouplingConfig] = lambda cfg: cfg,
) -> tuple[np.ndarray, dict[int, str]]:
    """Schmidt number at each point, ``config(point)`` giving its couplings:
    the values, NaN where a point fails, and each failed point's message by
    index.  Only computation failures are caught; anything else propagates."""
    values, failures = [], {}
    for i, point in enumerate(points):
        try:
            grid = discretize_wavepacket(ring, config(point), pump, n_points, t_max_over_gamma)
            values.append(schmidt_number(grid))
        except _POINT_ERRORS as exc:
            values.append(float("nan"))
            failures[i] = str(exc)
    return np.array(values, dtype=float), failures


def schmidt_number_sweep(
    ring: RingParams,
    configs: Iterable[CouplingConfig],
    pump: PumpSpec,
    n_points: int = 256,
    t_max_over_gamma: float = 20.0,
) -> list[SchmidtSweepPoint]:
    """Schmidt number for each coupling configuration in ``configs``.

    Per-point computation failures are recorded in the ``error`` field
    (K = NaN) without aborting the rest of the sweep; any other exception
    propagates.  ``K - 1`` is included for log-scale
    closeness-to-separable plots.
    """
    configs = list(configs)
    values, failures = _schmidt_numbers(ring, pump, configs, n_points, t_max_over_gamma)
    return [
        SchmidtSweepPoint(cfg.tgamma_a / cfg.gamma_c, cfg.gamma_b / cfg.gamma_c,
                          k, k - 1.0, failures.get(i))
        for i, (cfg, k) in enumerate(zip(configs, values.tolist()))
    ]
