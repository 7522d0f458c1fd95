"""Schmidt number and Schmidt decomposition of the joint temporal amplitude.

The Schmidt coefficients ``lambda_n`` of a biphoton sum to 1, and their
inverse participation ratio

    ``K = 1 / sum(lambda_n^2)``

is the Schmidt number.  ``K = 1`` marks a separable (heraldable-pure) biphoton.

The broadband wavepacket depends on the couplings only through its scale and
``r = tgamma/gamma``.  In units of ``1/gamma`` it is the semi-separable kernel
``psi = e^{-(t_s+t_i)/2} phi(min(t_s, t_i))``, whose eigenproblem reduces to a
Bessel equation of order ``nu = 1/r - 1``: ``lambda_n = 16 (nu+1)^2 (nu+2) /
j_{nu,n}^4``, with ``j_{nu,n}`` the n-th zero of ``J_nu``, and
``K = (2r+1)(3r+1) / (r(6r+5))``.  :func:`schmidt_spectrum_broadband` returns
that exact spectrum for one design: the zeros come from the symmetric
tridiagonal eigenproblem of Ikebe (1975), and K and ``K - 1`` from their
closed forms.

:func:`discretize_wavepacket` and :func:`schmidt_spectrum` keep the grid
route for any wavepacket grid.  The kernel psi(t_s, t_i) is sampled on a
uniform time grid with trapezoid quadrature weights and symmetrized as
``M = sqrt(w) psi sqrt(w)``; the squared singular values of ``M``, normalized
to unit sum, are the grid's Schmidt coefficients, and its K is
``1 / sum(lambda_n^2)`` over all N of them.

Sweeps evaluate the same trapezoid-grid K per distinct ``r`` on one unit
design (:func:`_schmidt_number_kernel`) by O(N) recurrences over the time
axis, with no N x N array, equal to the library grid path to <= 1e-13
relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CouplingConfig, PumpSpec, RingParams, _point_count, _positive_finite
from .pulsed import _jta_bracket, _require_broadband, pulsed_wavepacket

__all__ = [
    "DecompositionError",
    "WavepacketGrid",
    "SchmidtResult",
    "discretize_wavepacket",
    "schmidt_spectrum",
    "schmidt_spectrum_broadband",
]


class DecompositionError(RuntimeError):
    """The wavepacket grid has no usable Schmidt decomposition: its SVD failed
    or its weighted squared norm is zero or not finite."""


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
        if not np.any(a):
            raise ValueError("WavepacketGrid weighted squared norm must be > 0")
        for arr in (t, a, w):
            arr.setflags(write=False)
        object.__setattr__(self, "t_axis", t)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.t_axis.size


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Leading normalized Schmidt coefficients (descending), the Schmidt
    number ``K`` and ``K_minus_1 = K - 1``, and ``tail``, the coefficient mass
    not listed in ``lambdas``: ``sum(lambdas) + tail = 1``."""

    lambdas: np.ndarray
    K: float
    K_minus_1: float
    tail: float

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("SchmidtResult requires a 1-D coefficient vector")
        if np.any(lam < 0.0) or np.any(np.diff(lam) > 0.0):
            raise ValueError("SchmidtResult coefficients must be non-negative and descending")
        if not 0.0 <= self.tail <= 1.0:
            raise ValueError(f"SchmidtResult tail must lie in [0, 1], got {self.tail!r}")
        if abs(float(lam.sum()) + self.tail - 1.0) > 1e-10:
            raise ValueError(
                f"SchmidtResult coefficients and tail must sum to 1, got "
                f"{lam.sum()!r} + {self.tail!r}"
            )
        if self.K < 1.0 - 1e-12:
            raise ValueError(f"SchmidtResult requires K >= 1, got {self.K!r}")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


def discretize_wavepacket(
    ring: RingParams,
    cfg: CouplingConfig,
    pump: PumpSpec,
    n_points: int = 512,
    t_max_over_gamma: Optional[float] = None,
) -> WavepacketGrid:
    """Sample the broadband pulsed wavepacket on [0, t_max_over_gamma/gamma].

    Uniform grid with trapezoid weights.  |psi| decays as
    exp(-min(gamma, tgamma)*max(ts, ti)), so the default window,
    ``t_max_over_gamma = 20*max(1, gamma/tgamma)``, spans 20 decay lengths
    of the slower of the two and loses well below 1e-8 of the norm at any
    ``tgamma/gamma``.  A fixed ``20/gamma`` window (``t_max_over_gamma =
    20``) truncates the wavepacket where ``tgamma < gamma``: at
    ``tgamma/gamma = 0.175`` its grid K converges, as ``n_points`` grows, to
    a value 4.7e-3 (relative) below the true K.

    The default ``n_points`` does not grow with the window, so at small
    ``tgamma/gamma`` the step is coarse on the ``1/gamma`` scale of the
    wavepacket: with the defaults, the grid K of :func:`schmidt_spectrum` is
    +3.7% off the exact K at ``tgamma/gamma = 0.05``, +0.98% at 0.1 and
    +0.32% at 0.175.  Pass more points there, or take the exact spectrum of
    the broadband wavepacket from :func:`schmidt_spectrum_broadband`.
    Rejects CW pumps, tabulated spectra and designs that break the broadband
    rule.
    """
    delta_omega = pump.delta_omega_for(cfg.tgamma)
    n_points = _point_count("n_points", n_points, 16)
    if t_max_over_gamma is None:
        t_max_over_gamma = 20.0 * max(1.0, cfg.gamma / cfg.tgamma)
    t_max_over_gamma = _positive_finite("discretize_wavepacket", "t_max_over_gamma", t_max_over_gamma)
    t = np.linspace(0.0, t_max_over_gamma / cfg.gamma, n_points)
    step = t[1] - t[0]
    w = np.full(t.shape, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    psi = pulsed_wavepacket(ring, cfg, pump.energy, delta_omega, t[:, None], t[None, :])
    return WavepacketGrid(t_axis=t, amplitudes=psi, weights=w)


# Leading coefficients the exact spectrum lists; the rest is its tail.
_LISTED_COEFFICIENTS = 8
# Smallest tgamma/gamma of the exact spectrum (K = 2e5 there): its matrix
# grows as sqrt(1/r), to 1064 rows here.
_MIN_RATIO = 1e-6


def _k_minus_1(r):
    """``K(r) - 1 = 1/(r(6r + 5))`` of the broadband wavepacket at
    ``r = tgamma/gamma``, with no cancellation; on floats or arrays."""
    return 1.0 / (r * (6.0 * r + 5.0))


def _ikebe_matrix(q: float, rows: int) -> np.ndarray:
    """The leading ``rows`` x ``rows`` block of Ikebe's symmetric tridiagonal
    matrix for ``J_nu``, ``nu = q - 1``, scaled by ``4q``: its eigenvalues
    are ``4q/j_{nu,n}^2`` as ``rows`` grows, and its trace tends to 1.  Each
    ``nu + c`` is formed as ``q + (c - 1)``: through ``nu`` it would lose the
    digits of a small ``q``."""
    k = np.arange(1.0, rows + 1.0)
    # d_k = 1/(2(nu+2k-1)(nu+2k+1)), e_k = 1/(4(nu+2k+1)sqrt((nu+2k)(nu+2k+2)))
    d = 2.0 * q / ((q + (2.0 * k - 2.0)) * (q + 2.0 * k))
    k = k[:-1]
    e = q / ((q + 2.0 * k) * np.sqrt((q + (2.0 * k - 1.0)) * (q + (2.0 * k + 1.0))))
    m = np.diag(d)
    i = np.arange(rows - 1)
    m[i, i + 1] = m[i + 1, i] = e
    return m


def schmidt_spectrum_broadband(cfg: CouplingConfig, pump: PumpSpec) -> SchmidtResult:
    """Exact Schmidt spectrum of the broadband pulsed wavepacket at ``cfg``.

    With ``r = tgamma/gamma`` and ``nu = 1/r - 1``, the coefficients are
    ``lambda_n = 16 (nu+1)^2 (nu+2) / j_{nu,n}^4``.  The leading 8 are listed,
    from ``np.linalg.eigvalsh`` of Ikebe's tridiagonal matrix for the zeros:
    64 + ceil(sqrt(nu)) rows give them to <= 5e-15 relative against mpmath's
    zeros for r in [1e-3, 1e3].  ``tail`` is the rest, ``1 - sum(lambdas)``.  ``K`` and
    ``K_minus_1`` are the closed forms ``1 + K_minus_1`` and
    ``1/(r(6r+5))``, the latter with no cancellation.  K does not depend on
    the ring, the pulse energy or the overall scale of the couplings.

    Rejects what :func:`discretize_wavepacket` rejects (a CW pump, a
    tabulated spectrum, a design that breaks the broadband rule; it warns
    where the rule is marginal), and ``r`` below 1e-6.
    """
    _require_broadband(cfg.tgamma, pump.delta_omega_for(cfg.tgamma))
    r = cfg.tgamma / cfg.gamma
    if r < _MIN_RATIO:
        raise ValueError(
            f"schmidt_spectrum_broadband requires tgamma/gamma >= {_MIN_RATIO:g}, got {r:.3g}"
        )
    q = 1.0 / r  # nu + 1
    rows = 64 + math.ceil(math.sqrt(max(q - 1.0, 0.0)))
    s = np.linalg.eigvalsh(_ikebe_matrix(q, rows))[: -_LISTED_COEFFICIENTS - 1 : -1]
    lam = (q + 1.0) * s * s  # 16 q^2 (q+1) / j^4, with s = 4q/j^2
    k_minus_1 = _k_minus_1(r)
    return SchmidtResult(
        lambdas=lam, K=1.0 + k_minus_1, K_minus_1=k_minus_1,
        tail=max(1.0 - float(lam.sum()), 0.0),
    )


def schmidt_spectrum(grid: WavepacketGrid) -> SchmidtResult:
    """Schmidt coefficients and Schmidt number of a wavepacket grid.

    The coefficients are ``lambda_n = sigma_n^2 / sum(sigma^2)`` from the SVD
    of ``M_ij = sqrt(w_i) psi_ij sqrt(w_j)``, whose singular values
    approximate the continuous-kernel Schmidt amplitudes independently of the
    grid spacing.  All N are listed, so ``tail`` is 0; ``K`` is
    ``1 / sum(lambda_n^2)`` and ``K_minus_1`` is ``K - 1``.  Raises
    :class:`DecompositionError` when the SVD fails or ``sum(sigma^2)``, the
    weighted squared norm, is zero or not finite.
    """
    sw = np.sqrt(grid.weights)
    m = sw[:, None] * grid.amplitudes * sw[None, :]
    try:
        sigma = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD of the wavepacket grid failed: {exc}") from exc
    lam = sigma * sigma
    total = float(lam.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise DecompositionError("wavepacket grid is ill-conditioned (zero/non-finite norm)")
    lam /= total
    k = 1.0 / float(lam @ lam)
    return SchmidtResult(lambdas=lam, K=k, K_minus_1=k - 1.0, tail=0.0)


# Ratios per block of the kernel below: bounds its (n_points, block) work arrays.
_RATIO_BLOCK = 1024


def _discounted_sums(x: np.ndarray, d: float) -> np.ndarray:
    """``y_i = sum_{j <= i} x_j d^(i-j)`` along axis 0 by the recurrence
    ``y_i = d*y_{i-1} + x_i``: every term stays bounded, where a cumulative sum
    of ``x_j d^-j`` would overflow on a long window."""
    y = np.empty_like(x)
    acc = np.zeros_like(x[0])
    for i, row in enumerate(x):
        acc = d * acc + row
        y[i] = acc
    return y


def _grid_k(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid-grid K at distinct ratios ``r`` on the uniform time axis ``t``
    by O(N) recurrences.

    ``f(t) = (e^{-t} - e^{-r t})/(r - 1)``, exactly ``t*e^{-t}`` at ``r = 1``,
    is the diagonal of :func:`pulsed_wavepacket` on the unit design
    ``gamma = 1``, ``tgamma = r`` (up to its scale; one column per ratio).  On
    the grid ``psi_ij = f_min(i,j) d^(|i-j|/2)`` (``d = e^{-h}``), so the
    Gram matrix ``G = sqrt(W) psi W psi sqrt(W)`` has
    ``G_ii = w_i (A_i + f_i^2 C_i)`` and, for ``i < j``,
    ``G_ij = sqrt(w_i w_j) d^((j-i)/2) (A_i + f_i v_ij)``, with
    ``A_i = sum_{j<=i} w_j f_j^2 d^(i-j)``, ``C_i = sum_{j>i} w_j d^(j-i)``
    and ``v_ij = sum_{i<k<=j} w_k f_k + f_j C_j``.  ``||G||_F^2`` then needs only
    the discounted tails ``V1_i``, ``V2_i`` of ``v_ij`` and ``v_ij^2`` over
    ``j > i``, which obey a backward recurrence of non-negative terms, so
    nothing cancels.  The weights ``w`` are in units of the step and ``f`` in
    units of its peak: K ignores both scales, and these keep every sum within
    a polynomial in N of 1, so nothing underflows or overflows.
    """
    f = _jta_bracket(-t[:, None], t[:, None], r[None, :] - 1.0)
    peak = f.max(axis=0)
    if not np.all(peak > 0.0):
        raise ValueError(
            "Schmidt grid underflows: every sample of the wavepacket is 0, so its "
            "weighted squared norm must be > 0; shorten the window or add points"
        )
    f /= peak
    d = math.exp(-(t[1] - t[0]))
    w = np.ones((t.size, 1))
    w[0] = w[-1] = 0.5
    c = np.zeros_like(w)
    c[:-1] = d * _discounted_sums(w[:0:-1], d)[::-1]
    x = w * f
    a = _discounted_sums(x * f, d)
    q = f * (w + c)  # v_{j-1,j}
    wq, xc = w * q, x * c
    wq2, x2c = wq * q, x * xc
    v1, v2 = np.zeros_like(f), np.zeros_like(f)
    # backward, from v_ij = v_{i+1,j} + x_{i+1} for j > i + 1
    for i in range(t.size - 2, -1, -1):
        k = i + 1
        v2[i] = d * (wq2[k] + v2[k] + 2.0 * x[k] * v1[k] + x2c[k])
        v1[i] = d * (wq[k] + v1[k] + xc[k])
    diag = w * (a + f * f * c)
    off = w * (a * a * c + 2.0 * a * f * v1 + f * f * v2)
    trace = diag.sum(axis=0)
    return trace * trace / ((diag * diag).sum(axis=0) + 2.0 * off.sum(axis=0))


def _schmidt_number_kernel(
    r: np.ndarray, n_points: int, t_max_over_gamma: float
) -> np.ndarray:
    """Grid Schmidt number at pump/biphoton linewidth ratios ``r = tgamma/gamma``.

    The broadband wavepacket in units of ``1/gamma`` depends on the couplings
    only through its scale and ``r``, so each distinct ``r`` is evaluated once,
    on the unit design ``gamma = 1``, ``tgamma = r``.  The value is the K of
    :func:`schmidt_spectrum` on the grid of :func:`discretize_wavepacket` with
    the same ``n_points`` and ``t_max_over_gamma``, equal to it within 1e-13
    relative, but computed by O(N) recurrences per ratio (:func:`_grid_k`)
    with no N x N array.  Raises ``ValueError`` where every sample of a
    ratio's wavepacket underflows to 0.
    """
    distinct, inverse = np.unique(r, return_inverse=True)
    t = np.linspace(0.0, t_max_over_gamma, n_points)
    values = np.empty(distinct.size)
    for lo in range(0, distinct.size, _RATIO_BLOCK):
        block = slice(lo, lo + _RATIO_BLOCK)
        values[block] = _grid_k(distinct[block], t)
    return values[inverse]
