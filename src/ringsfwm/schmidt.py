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

The broadband wavepacket depends on the couplings only through its scale and
``r = tgamma/gamma`` (in units of ``1/gamma``), and K ignores the scale, so
sweeps evaluate K per distinct ``r`` on one unit design
(:func:`_schmidt_number_kernel`).  There the wavepacket is a semi-separable
kernel, ``psi = e^{-(t_s+t_i)/2} phi(min(t_s, t_i))``, so the same
trapezoid-grid K follows from O(N) recurrences over the time axis, with no
N x N array, equal to the library grid path to <= 1e-13 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CouplingConfig, PumpMode, PumpSpec, RingParams, _point_count
from .pulsed import EPS_DEGENERATE, pulsed_wavepacket

__all__ = [
    "DecompositionError",
    "WavepacketGrid",
    "SchmidtResult",
    "discretize_wavepacket",
    "schmidt_number",
    "schmidt_spectrum",
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

    Uniform grid with trapezoid weights.  For ``tgamma >= gamma`` the
    exp(-gamma*(ts+ti)/2) envelope makes the default window lossless to well
    below 1e-8 of the norm.  For ``tgamma < gamma`` |psi| decays only as
    exp(-tgamma*max(ts, ti)), so the window cuts off part of the wavepacket:
    at ``tgamma/gamma = 0.175`` the grid K converges, as ``n_points`` grows, to
    a value 4.8e-3 (relative) below the true K.  Rejects CW pumps (the Schmidt number is a per-pulse notion) and
    tabulated spectra (the wavepacket is the broadband flattop closed form).
    """
    if pump.mode is not PumpMode.PULSED:
        raise ValueError(
            "discretize_wavepacket requires a pulsed pump; the Schmidt "
            "decomposition is defined per pulse"
        )
    if pump.spectrum is not None:
        raise ValueError(
            "discretize_wavepacket uses the broadband flattop wavepacket; a "
            "tabulated pump spectrum is not supported"
        )
    n_points = _point_count("n_points", n_points, 16)
    if not 0.0 < t_max_over_gamma < math.inf:
        raise ValueError(
            f"t_max_over_gamma must be positive and finite, got {t_max_over_gamma!r}"
        )
    delta_omega = pump.delta_omega_for(cfg.tgamma)
    t = np.linspace(0.0, t_max_over_gamma / cfg.gamma, n_points)
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


# Ratios per block of the kernel below: bounds its (n_points, block) work arrays.
_RATIO_BLOCK = 1024


def _unit_generator(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``f(t) = e^{-t}*phi(t) = (e^{-t} - e^{-r t})/(r - 1)`` on the unit design
    ``gamma = 1``, ``tgamma = r``: the diagonal of :func:`pulsed_wavepacket`
    (one column per ratio, up to its constant factor), assembled as there.  It
    is the degenerate ``t*e^{-t}`` where ``|r - 1| < EPS_DEGENERATE`` and takes
    the expm1 form where ``|(r - 1) t| <= 1``; no exponent is positive."""
    split = r[None, :] - 1.0
    t = t[:, None]
    env = np.exp(-t)
    # for r > 1 both exponentials are exactly 0 beyond t = 746, so capping t
    # there keeps split*t finite at any window
    u = split * np.where(split > 0.0, np.minimum(t, 746.0), t)
    protected = np.abs(u) <= 1.0
    degenerate = np.abs(split) < EPS_DEGENERATE
    near = env * (-np.expm1(-np.where(protected, u, 0.0)))
    far = env - np.exp(-t - np.where(protected, 0.0, u))
    safe = np.where(degenerate, 1.0, split)
    return np.where(degenerate, env * t, np.where(protected, near, far) / safe)


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

    On the grid ``psi_ij = f_min(i,j) d^(|i-j|/2)`` (``d = e^{-h}``), so the
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
    f = _unit_generator(r, t)
    peak = f.max(axis=0)
    if not np.all(peak > 0.0):
        raise ValueError(
            "Schmidt grid underflows: every sample of the wavepacket is 0, so its "
            "weighted squared norm must be > 0; shorten t_max_over_gamma or add points"
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
    :func:`schmidt_number` on the grid of :func:`discretize_wavepacket` with
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
