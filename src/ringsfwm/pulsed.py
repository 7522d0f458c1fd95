"""Observables for a pulse-pumped microring photon-pair source.

Broadband closed forms
----------------------
For a flattop pump spectrum much wider than the pump resonance
(``delta_omega >> tgamma``) the effective two-pump lineshape collapses to a
single Lorentzian,

    ``f_p(w) = (2*pi/delta_omega) / (tgamma - i*w)``,   w = Omega_s + Omega_i,

and the joint temporal amplitude has the closed form (``u`` = unit step,
``Y = 2*pi*n2*vg^2*omega0*E / (c*S*L*delta_omega)``):

    ``psi(ts, ti) = tgamma_a*gamma_mu/(tgamma - gamma) * Y
                    * exp(-gamma*(ts+ti)/2) * [1 - exp(-(tgamma-gamma)*min(ts,ti))]
                    * u(ts) * u(ti)``.

Its squared norm gives the per-pulse pair probability

    ``p_si = tgamma_a^2*gamma_mu^2 / (tgamma*gamma^2*(tgamma+gamma)) * Y^2``

and the per-pulse singles probability is

    ``p_s = p_i = tgamma_a^2*gamma_mu / (tgamma*gamma*(tgamma+gamma)) * Y^2``,

again with ``p_si = (gamma_mu/gamma) * p_s`` exactly.  When the pump and
biphoton linewidths coincide the quotient takes its exact limit at
``tgamma = gamma``, ``min(ts, ti)``.

Arbitrary spectra
-----------------
For tabulated pump spectra the lineshape integral is evaluated in closed
form, exactly for the linearly interpolated spectrum
(:func:`effective_pump_lineshape`), for a scalar frequency sum or an array
of them at once.  It runs on the spectrum's compacted knots: samples inside
a run of equal amplitudes (plateaus, zero padding) are dropped once, which
leaves the interpolant unchanged bit for bit; each frequency sum then clips
every knot and its mirror image into its overlap of the two pump supports.
The per-pulse singles probability (:func:`pulsed_single_prob_numeric`)
integrates the Lorentzian pair exactly and leaves one adaptive quadrature
over the frequency sum: QUADPACK's 21-point Gauss-Kronrod rule (Piessens
et al., *QUADPACK*, 1983), bisecting the panel with the largest error estimate.
The lineshape is evaluated once per round, on the array of all its nodes:
once for the initial panels, then once for the halves of every panel a round
takes.  A round takes the worst panels whose error estimates cover the
excess over the target and replays their bisections in QUADPACK's order,
one panel at a time, so the panels, the value and the error estimate are
those of the one-at-a-time rule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TWO_PI,
    BroadbandAssumptionWarning,
    CouplingConfig,
    RingParams,
    _MARGINAL,
    _NOT_BROADBAND,
    _broadband_rule,
    _drive_cw,
    _drive_pulsed,
    _point_count,
    _positive_finite,
    _warn,
)

__all__ = [
    "PulsedObservables",
    "QuadratureError",
    "TabulatedSpectrum",
    "effective_pump_lineshape",
    "flattop_lineshape_broadband",
    "load_spectrum",
    "save_spectrum",
    "pulsed_wavepacket",
    "pulsed_single_prob",
    "pulsed_pair_prob",
    "pulsed_observables",
    "pulsed_accidental_prob",
    "pulsed_single_prob_numeric",
]

# Panel budget of the adaptive Gauss-Kronrod rule over the frequency sum:
# the rule bisects until the summed error estimate meets epsrel, and fails
# once this many panels would not suffice.
_SUBDIV_LIMIT = 10_000

# QUADPACK's qk21 rule on [-1, 1]: the 21 Kronrod nodes are the 10 Gauss-
# Legendre nodes (odd positions here) and the 11 roots of the Stieltjes
# polynomial E11, the last one 0; the weights match the moments.  K21 is
# exact to degree 31, the embedded G10 to degree 19.
_GK_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_K21_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_HALF_WEIGHTS = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])
# Full rules, ascending nodes from -1 to +1.
_GK_NODES = np.concatenate((-_GK_HALF_NODES, _GK_HALF_NODES[-2::-1]))
_K21_WEIGHTS = np.concatenate((_K21_HALF_WEIGHTS, _K21_HALF_WEIGHTS[-2::-1]))
_G10_WEIGHTS = np.concatenate((_G10_HALF_WEIGHTS, _G10_HALF_WEIGHTS[-2::-1]))
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """The adaptive Gauss-Kronrod rule over the frequency sum did not meet
    its relative accuracy target: ``_SUBDIV_LIMIT`` panels did not suffice,
    or the target lies below the roundoff floor of its error estimate."""


@dataclass(frozen=True)
class PulsedObservables:
    """Per-pulse one- and two-photon extraction probabilities."""

    ps: float
    pi: float
    psi_pair: float

    def __post_init__(self) -> None:
        if self.ps != self.pi:
            raise ValueError("PulsedObservables requires ps == pi")
        if not 0.0 <= self.psi_pair <= self.ps <= 1.0:
            raise ValueError(
                "PulsedObservables requires 0 <= psi_pair <= ps <= 1, got "
                f"psi_pair={self.psi_pair!r}, ps={self.ps!r}"
            )


@dataclass(frozen=True, eq=False)
class TabulatedSpectrum:
    """Sampled pump spectral amplitude A_p(Omega) on a frequency grid.

    ``omega`` is relative to the pump carrier [rad/s], strictly increasing;
    ``amplitude`` is complex with units (rad/s)^(-1/2).  The spectrum must be
    normalized, ``integral |A_p|^2 dOmega = 1`` (trapezoid rule on the given
    grid, relative tolerance 1e-9); an identically zero amplitude is also
    accepted and represents a switched-off pump.  Values between samples are
    linearly interpolated and zero outside the grid.

    ``knots`` holds ``(omega, amplitude)`` without the samples whose
    amplitude equals both neighbours' (plateaus, zero padding): the same
    linear interpolant, bit for bit, on fewer nodes.
    """

    omega: np.ndarray
    amplitude: np.ndarray
    knots: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        amplitude = np.asarray(self.amplitude, dtype=complex)
        if omega.ndim != 1 or omega.size < 2:
            raise ValueError("TabulatedSpectrum requires a 1-D grid of >= 2 frequencies")
        if amplitude.shape != omega.shape:
            raise ValueError(
                f"TabulatedSpectrum grid/amplitude shape mismatch: {omega.shape} vs {amplitude.shape}"
            )
        if not np.all(np.isfinite(omega)) or not np.all(np.isfinite(amplitude)):
            raise ValueError("TabulatedSpectrum requires finite samples")
        if not np.all(np.diff(omega) > 0.0):
            raise ValueError("TabulatedSpectrum omega grid must be strictly increasing")
        norm = float(np.trapezoid(np.abs(amplitude) ** 2, omega))
        if norm != 0.0 and abs(norm - 1.0) > 1e-9:
            raise ValueError(
                f"TabulatedSpectrum must satisfy integral |A_p|^2 dOmega = 1, got {norm!r}"
            )
        omega.setflags(write=False)
        amplitude.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "amplitude", amplitude)
        flat = (amplitude[1:-1] == amplitude[:-2]) & (amplitude[1:-1] == amplitude[2:])
        keep = np.concatenate(([True], ~flat, [True]))
        object.__setattr__(self, "knots", (omega[keep], amplitude[keep]))

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.omega[0]), float(self.omega[-1]))

    def __call__(self, omega):
        """Linearly interpolated complex amplitude, zero outside the grid."""
        grid, amp = self.knots
        re = np.interp(omega, grid, amp.real, left=0.0, right=0.0)
        im = np.interp(omega, grid, amp.imag, left=0.0, right=0.0)
        return re + 1j * im

    @classmethod
    def flattop(cls, delta_omega: float, n_samples: int = 2001) -> "TabulatedSpectrum":
        """Constant amplitude 1/sqrt(delta_omega) on [-delta_omega/2, +delta_omega/2],
        sampled at ``n_samples >= 2`` equally spaced frequencies (an integer)."""
        delta_omega = _positive_finite("TabulatedSpectrum", "delta_omega", delta_omega)
        n_samples = _point_count("n_samples", n_samples, 2)
        grid = np.linspace(-delta_omega / 2.0, delta_omega / 2.0, n_samples)
        amp = np.full(grid.shape, 1.0 / math.sqrt(delta_omega), dtype=complex)
        return cls(grid, amp)


def save_spectrum(spectrum: TabulatedSpectrum, path) -> None:
    """Write a spectrum as three numeric columns: Omega [rad/s], Re A_p, Im A_p."""
    data = np.column_stack(
        [spectrum.omega, spectrum.amplitude.real, spectrum.amplitude.imag]
    )
    np.savetxt(
        path,
        data,
        header="pump spectral amplitude samples\ncolumns: omega_rad_per_s  re_amplitude  im_amplitude",
        fmt="%.17g",
    )


def load_spectrum(path) -> TabulatedSpectrum:
    """Read a spectrum written by :func:`save_spectrum` ('#' lines are comments)."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(
            f"spectrum file {path!s} must have 3 numeric columns (omega, re, im), "
            f"got {data.shape[1]}"
        )
    return TabulatedSpectrum(data[:, 0], data[:, 1] + 1j * data[:, 2])


# |q| below which _pole_series sums its series instead of using arctanh.
_SERIES_MAX = 0.25


def _pole_series(q):
    """``S = arctanh(q)/q`` and ``R = (S - 1)/q^2`` for complex ``q`` off
    the branch cuts.  Below ``|q| = _SERIES_MAX``, where ``S - 1`` would
    cancel, both come from ``R = sum_{k>=1} q^(2k-2)/(2k+1)``, summed until
    the first omitted term is below 1e-17."""
    q_abs = np.abs(q)
    near = q_abs < _SERIES_MAX
    # The far entries sum a zero series, which cannot overflow; they are
    # replaced below.
    q2 = np.where(near, q * q, 0.0)
    largest = float(np.max(q_abs, where=near, initial=0.0)) ** 2
    n_terms = 1 + int(math.log(1e-17) / math.log(max(largest, 1e-300)))
    r = np.zeros_like(q2)
    for k in range(n_terms, 1, -1):
        r += 1.0 / (2 * k + 1)
        r *= q2
    r += 1.0 / 3.0
    s = 1.0 + q2 * r
    far = ~near
    if far.any():
        q_far = q[far]
        s_far = np.arctanh(q_far) / q_far
        s[far], r[far] = s_far, (s_far - 1.0) / (q_far * q_far)
    return s, r


def _lineshape_rows(grid, amp, half_t, w):
    """:func:`effective_pump_lineshape` on a 1-D array ``w`` of finite
    frequency sums.  Each ``w`` has a row of ``2*knots`` breakpoints: all
    knots and their images ``w - knot``, clipped into its overlap ``[a, b]``
    and sorted.  An interval between coincident ones has ``q = 0`` and adds
    exactly 0.

    On an interval of half-width ``h`` about ``c``, with
    ``z = half_t - i*c`` and ``q = i*h/z``, the moments
    ``J_n = integral_{-h}^{h} u^n/(z - i*u) du`` are ``J_0 = -2i*q*S``,
    ``J_1 = -2ih*q^2*R`` and ``J_2 = -i*z*J_1`` (:func:`_pole_series`), so
    the interval adds ``-(i/2)*q*[S*A*B + R*(q*(A*dB + dA*B) + dA*dB)]``,
    where ``A`` and ``dA`` are the sum and the difference of ``A_p(x)`` at
    its ends and ``B``, ``dB`` those of ``A_p(w - x)``.
    """
    out = np.zeros(w.shape, complex)
    a = np.maximum(grid[0], w - grid[-1])
    b = np.minimum(grid[-1], w - grid[0])
    live = np.flatnonzero(b > a)
    w, a, b = w[live, None], a[live, None], b[live, None]
    # a and b are each a knot or an image, so every row runs from a to b.
    knots = np.broadcast_to(grid, (live.size, grid.size))
    x = np.minimum(np.maximum(np.concatenate((knots, w - grid), axis=1), a), b)
    x.sort(axis=1)
    # Every breakpoint lies in the support in exact arithmetic; np.interp's
    # edge clamping absorbs the roundoff of w - x at the ends.
    fa = np.interp(x, grid, amp)
    fb = np.interp(w - x, grid, amp)
    q = 0.5 * (x[:, 1:] - x[:, :-1]) / (-0.5 * (x[:, 1:] + x[:, :-1]) - 1j * half_t)
    s, r = _pole_series(q)
    sum_a, diff_a = fa[:, 1:] + fa[:, :-1], fa[:, 1:] - fa[:, :-1]
    sum_b, diff_b = fb[:, 1:] + fb[:, :-1], fb[:, 1:] - fb[:, :-1]
    terms = q * (s * sum_a * sum_b + r * (q * (sum_a * diff_b + diff_a * sum_b) + diff_a * diff_b))
    out[live] = -0.5j * terms.sum(axis=1) / (half_t - 0.5j * w[:, 0])
    return out


# Breakpoints per batch of _lineshape_rows, 2*knots per frequency sum.
# Batches this small keep the work arrays in cache: on a 2001-knot spectrum,
# 16 times larger ones made the quadrature 2x slower (2-vCPU Xeon, numpy 2.4).
_LINESHAPE_BATCH = 4096


def effective_pump_lineshape(spectrum: TabulatedSpectrum, tgamma: float, omega_sum):
    """Two-pump effective lineshape f_p(omega_sum) for a tabulated spectrum.

    The integral over pump offsets Omega_p of

        ``A_p(Omega_p) * A_p(omega_sum - Omega_p)
          / ((tgamma/2 - i*Omega_p) * (tgamma/2 - i*(omega_sum - Omega_p)))``

    is evaluated in closed form, exactly for the linearly interpolated
    spectrum (to roundoff).  With ``T = tgamma/2`` the partial fractions

        ``1/((T - ix)(T - i(w - x))) = [1/(T - ix) + 1/(T - i(w - x))] / (2T - iw)``

    and the symmetry of ``A_p(x)*A_p(w - x)`` under ``x -> w - x`` leave
    ``2/(2T - iw)`` times the integral of ``A_p(x)*A_p(w - x)/(T - ix)``.
    Between consecutive breakpoints (the grid nodes, ``w`` minus the grid
    nodes and the overlap ends) the product is a quadratic in the offset
    from the interval midpoint, so each interval contributes three moments
    of one pole term.  The grid is the spectrum's compacted ``knots``.

    ``omega_sum`` may be a scalar, which gives a ``complex``, or an array,
    which gives a complex array of its shape.  An array is evaluated in
    vectorized batches of rows of breakpoints, one row per value, each
    clipped into that value's overlap.  ``+-inf`` gives 0; NaN is rejected.
    """
    tgamma = _positive_finite("effective_pump_lineshape", "tgamma", tgamma)
    w = np.asarray(omega_sum, dtype=float)
    if np.isnan(w).any():
        raise ValueError("effective_pump_lineshape.omega_sum must not be NaN")
    grid, amp = spectrum.knots
    flat = w.ravel()
    out = np.empty(flat.shape, complex)
    batch = max(1, _LINESHAPE_BATCH // (2 * grid.size))
    for i in range(0, flat.size, batch):
        out[i:i + batch] = _lineshape_rows(grid, amp, 0.5 * tgamma, flat[i:i + batch])
    if np.ndim(omega_sum) == 0 and not isinstance(omega_sum, np.ndarray):
        return complex(out[0])
    return out.reshape(w.shape)


def _broadband_mask(tgamma, delta_omega):
    """:func:`ringsfwm.core._broadband_rule` on floats or arrays: True where
    the broadband forms hold.  Warns once, for the smallest ratio, if any
    such point is marginal."""
    holds, marginal = _broadband_rule(tgamma, delta_omega)
    if np.any(marginal):
        ratio = np.min(np.asarray(delta_omega / tgamma)[marginal])
        _warn(_MARGINAL.format(ratio), BroadbandAssumptionWarning)
    return holds


def _require_broadband(tgamma: float, delta_omega: float) -> None:
    """Raise where :func:`_broadband_mask` is False, or ``delta_omega`` is
    not strictly positive and finite."""
    delta_omega = _positive_finite("pump", "delta_omega", delta_omega)
    if not _broadband_mask(tgamma, delta_omega):
        raise ValueError(_NOT_BROADBAND.format(delta_omega / tgamma))


def flattop_lineshape_broadband(
    tgamma: float, delta_omega: float, omega_sum
) -> complex:
    """Broadband-limit lineshape ``(2*pi/delta_omega) / (tgamma - i*omega_sum)``.

    Valid for a flattop pump much broader than the pump resonance; rejects
    ``delta_omega < 5*tgamma`` and warns below ``10*tgamma``.  Rejects a
    NaN or infinite ``omega_sum``, where the quotient would be NaN.
    """
    tgamma = _positive_finite("flattop_lineshape_broadband", "tgamma", tgamma)
    _require_broadband(tgamma, delta_omega)
    if not np.isfinite(omega_sum).all():
        raise ValueError("flattop_lineshape_broadband.omega_sum must be finite")
    return (TWO_PI / float(delta_omega)) / (tgamma - 1j * np.asarray(omega_sum))


def _jta_bracket(log_env, m, split):
    """``e^{log_env}*(1 - e^{-u})/split`` with ``u = split*m``, on floats or
    broadcastable arrays: the envelope times the bracket of the broadband
    wavepacket, with ``m = min(ts, ti)`` and ``split = tgamma - gamma``.
    Where ``split == 0`` it is the exact limit ``e^{log_env}*m``.  Elsewhere
    it takes the expm1 form where ``|u| <= 1``, where ``1 - e^{-u}`` would
    cancel, and ``e^{log_env} - e^{log_env - u}`` beyond; for
    ``log_env <= 0`` and ``log_env - u <= 0`` no exponent is positive, so
    neither can overflow."""
    u = split * m
    env = np.exp(log_env)
    protected = np.abs(u) <= 1.0
    near = env * (-np.expm1(-np.where(protected, u, 0.0)))
    far = env - np.exp(log_env - np.where(protected, 0.0, u))
    limit = split == 0.0
    return np.where(limit, env * m, np.where(protected, near, far) / np.where(limit, 1.0, split))


def pulsed_wavepacket(
    ring: RingParams,
    cfg: CouplingConfig,
    energy: float,
    delta_omega: float,
    t_signal,
    t_idler,
):
    """Joint temporal amplitude psi(t_s, t_i) [1/s] for a broadband flattop pump.

    Vanishes for negative times (the broadband pump acts like a delta kick at
    t = 0), is symmetric under exchange of the two times, and is returned real
    and non-negative.  Scalar or broadcastable array times are accepted; at
    ``tgamma = gamma`` the bracket is its exact limit ``min(ts, ti)``.
    ``+-inf`` gives 0; NaN is rejected.
    """
    _require_broadband(cfg.tgamma, delta_omega)
    y = _drive_pulsed(ring, energy, delta_omega)
    gamma, tgamma = cfg.gamma, cfg.tgamma
    ts = np.asarray(t_signal, dtype=float)
    ti = np.asarray(t_idler, dtype=float)
    for name, t in (("t_signal", ts), ("t_idler", ti)):
        if np.isnan(t).any():
            raise ValueError(f"pulsed_wavepacket.{name} must not be NaN")
    causal = (ts >= 0.0) & (ts < np.inf) & (ti >= 0.0) & (ti < np.inf)
    # Move points off the finite causal quadrant to t = 0 before
    # exponentiating, so that none can overflow or meet inf - inf; they are
    # zeroed below anyway.
    ts, ti = np.where(causal, ts, 0.0), np.where(causal, ti, 0.0)
    m = np.maximum(np.minimum(ts, ti), 0.0)
    log_env = -gamma * np.clip(ts + ti, 0.0, None) / 2.0
    # log_env <= 0, and log_env - split*m <= 0 too: for split < 0,
    # |split| = gamma - tgamma < gamma while m <= (ts + ti)/2.
    core = _jta_bracket(log_env, m, tgamma - gamma)
    out = cfg.tgamma_a * cfg.gamma_mu * y * core
    out = np.where(causal, out, 0.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


# Probability kernels on (tgamma_a, gamma_mu, gamma, tgamma) and the pulse
# strength y, for floats, arrays or Fractions alike; + - * / only, as in the
# CW kernels.
def _single_prob_kernel(ta, gmu, g, tg, y):
    return (ta * ta) * gmu / (tg * g * (tg + g)) * y * y


def _pair_prob_kernel(ta, gmu, g, tg, y):
    return (ta * ta) * (gmu * gmu) / (tg * g * g * (tg + g)) * y * y


def pulsed_single_prob(
    ring: RingParams, cfg: CouplingConfig, energy: float, delta_omega: float
) -> float:
    """Per-pulse one-photon extraction probability (broadband closed form)."""
    _require_broadband(cfg.tgamma, delta_omega)
    y = _drive_pulsed(ring, energy, delta_omega)
    return _single_prob_kernel(*cfg.kernel_rates, y)


def pulsed_pair_prob(
    ring: RingParams, cfg: CouplingConfig, energy: float, delta_omega: float
) -> float:
    """Per-pulse pair extraction probability (broadband closed form)."""
    _require_broadband(cfg.tgamma, delta_omega)
    y = _drive_pulsed(ring, energy, delta_omega)
    return _pair_prob_kernel(*cfg.kernel_rates, y)


def _warn_if_strained(ps: float) -> None:
    """Warn when ``ps > 0.1`` strains the single-pair (perturbative) assumption."""
    if ps > 0.1:
        _warn(
            f"per-pulse probability ps = {ps:.3g} > 0.1: the "
            "single-pair (perturbative) assumption is strained",
            UserWarning,
        )


def _perturbative_observables(ps: float, psi_pair: float) -> PulsedObservables:
    """``PulsedObservables(ps, ps, psi_pair)``, for any pump spectrum: warns
    as :func:`_warn_if_strained` does, and the bundle rejects ``ps > 1``."""
    _warn_if_strained(ps)
    return PulsedObservables(ps=ps, pi=ps, psi_pair=psi_pair)


def pulsed_observables(
    ring: RingParams, cfg: CouplingConfig, energy: float, delta_omega: float
) -> PulsedObservables:
    """The broadband closed-form probabilities as one bundle; warns when
    ``ps > 0.1`` strains the single-pair (perturbative) assumption."""
    _require_broadband(cfg.tgamma, delta_omega)
    y = _drive_pulsed(ring, energy, delta_omega)
    return _perturbative_observables(
        _single_prob_kernel(*cfg.kernel_rates, y), _pair_prob_kernel(*cfg.kernel_rates, y)
    )


def pulsed_accidental_prob(
    ring: RingParams, cfg: CouplingConfig, energy: float, delta_omega: float
) -> float:
    """Per-pulse accidental-coincidence probability p_acc = p_s * p_i."""
    _require_broadband(cfg.tgamma, delta_omega)
    y = _drive_pulsed(ring, energy, delta_omega)
    ps = _single_prob_kernel(*cfg.kernel_rates, y)
    return ps * ps


def _gauss_kronrod_21(f, a, b):
    """QUADPACK's qk21 on the panels ``[a[k], b[k]]`` (1-D arrays), calling
    ``f`` once on the ``(n_panels, 21)`` array of all their nodes.  Returns
    three arrays over the panels: the K21 integral of ``f``, its error
    estimate ``resasc*min(1, (200*|K21 - G10|/resasc)^1.5)`` (``resasc`` is
    the integral of ``|f - mean(f)|``), and that estimate's roundoff floor,
    50 ulp of the integral of ``|f|``, which the estimate never falls
    below."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = f(center[:, None] + half[:, None] * _GK_NODES)
    resk = fx @ _K21_WEIGHTS
    diff = np.abs((resk - fx @ _G10_WEIGHTS) * half)
    resasc = np.abs(half) * (np.abs(fx - 0.5 * resk[:, None]) @ _K21_WEIGHTS)
    scaled = (resasc != 0.0) & (diff != 0.0)
    ratio = np.divide(200.0 * diff, resasc, out=np.ones_like(diff), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), diff)
    floor = 50.0 * _EPS * np.abs(half) * (np.abs(fx) @ _K21_WEIGHTS)
    return resk * half, np.maximum(err, floor), floor


def _adaptive_gauss_kronrod(f, edges, epsrel: float) -> tuple[float, float]:
    """Integral of ``f`` over ``[edges[0], edges[-1]]`` and its absolute
    error estimate.  Starts with one :func:`_gauss_kronrod_21` panel per
    interval of ``edges``, all in one call, and bisects the panel with the
    largest error estimate until the summed estimate is at most ``epsrel``
    times the integral.  Raises :class:`QuadratureError` when that would
    take more than ``_SUBDIV_LIMIT`` panels, or when the target lies below
    the summed roundoff floor of the estimate.

    The bisections are QUADPACK's, one panel at a time, but they are
    evaluated in rounds.  A round takes the worst panels whose estimates
    cover the excess of the summed estimate over the target: a bisection
    lowers the sum by at most the panel's own estimate, so while the
    integral holds still the target is not met before that much has been
    bisected.  All their halves are evaluated in one call.  The bisections
    are then replayed in order, each after the checks that raise, on the
    panel count the one-at-a-time rule would hold.  The round ends, and its
    remaining panels go back to the heap unbisected (their halves were
    evaluated for nothing), once the target is met or a half from this
    round's bisections comes first.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    result, err, floor = _gauss_kronrod_21(f, lo, hi)
    panels = list(zip((-err).tolist(), lo.tolist(), hi.tolist(), result.tolist(), floor.tolist()))
    heapq.heapify(panels)
    total = sum(p[3] for p in panels)
    abserr = -sum(p[0] for p in panels)
    roundoff = sum(p[4] for p in panels)
    while abserr > epsrel * abs(total):
        batch, covered = [], 0.0
        excess = abserr - epsrel * abs(total)
        while panels and covered < excess:
            batch.append(heapq.heappop(panels))
            covered -= batch[-1][0]
        starts, ends = [], []
        for _, a, b, _, _ in batch:
            mid = 0.5 * (a + b)
            starts += (a, mid)
            ends += (mid, b)
        halves = _gauss_kronrod_21(f, np.array(starts), np.array(ends))
        results, errs, floors = (v.reshape(-1, 2).tolist() for v in halves)
        for k, panel in enumerate(batch):
            # Whole heap tuples compare, so ties break as heappop's would.
            if abserr <= epsrel * abs(total) or (panels and panels[0] < panel):
                for rest in batch[k:]:
                    heapq.heappush(panels, rest)
                break
            count = len(panels) + len(batch) - k
            if count >= _SUBDIV_LIMIT or epsrel * abs(total) < roundoff:
                why = (
                    f"{_SUBDIV_LIMIT} panels do not suffice" if count >= _SUBDIV_LIMIT
                    else f"the target is below the roundoff floor {roundoff:.3g}"
                )
                raise QuadratureError(
                    f"singles-probability quadrature did not converge: {why}; error "
                    f"estimate {abserr:.3g} > {epsrel:g} * |{total:.6g}|"
                )
            neg_err, a, b, result, floor = panel
            mid = 0.5 * (a + b)
            (r1, r2), (e1, e2), (f1, f2) = results[k], errs[k], floors[k]
            heapq.heappush(panels, (-e1, a, mid, r1, f1))
            heapq.heappush(panels, (-e2, mid, b, r2, f2))
            total += r1 + r2 - result
            abserr += e1 + e2 + neg_err
            roundoff += f1 + f2 - floor
    return total, abserr


def pulsed_single_prob_numeric(
    ring: RingParams,
    cfg: CouplingConfig,
    energy: float,
    spectrum: TabulatedSpectrum,
    epsrel: float = 1e-6,
) -> float:
    """Per-pulse one-photon probability for an arbitrary tabulated pump spectrum.

    Integrates ``|f_p(Omega_s + Omega_i)|^2`` against the two biphoton
    Lorentzians.  In ``w = Omega_s + Omega_i`` the Lorentzian pair
    integrates over Omega_s to the exact Lorentzian

        ``integral dOmega_s / ((gamma^2/4 + Omega_s^2) * (gamma^2/4 + (w - Omega_s)^2))
          = 4*pi / (gamma * (gamma^2 + w^2))``,

    and :func:`effective_pump_lineshape` is exact, so one integral over
    ``w`` remains.  An adaptive 21-point Gauss-Kronrod rule (QUADPACK's
    qk21 panels, bisecting the panel with the largest error estimate)
    evaluates it to relative accuracy ``epsrel``, starting from panels
    split at ``0, +-1, +-3, +-10, +-30, +-100 * tgamma``.  The lineshape is
    called once on the ``(n_panels, 21)`` nodes of the initial panels, then
    once per round on the ``(2*n, 21)`` nodes of the halves of the ``n``
    panels the round takes.  The panels bisected, the value and the error
    estimate are those of QUADPACK's one-panel-at-a-time order (see
    :func:`_adaptive_gauss_kronrod`).  Raises :class:`QuadratureError` when
    the rule cannot meet ``epsrel``.
    """
    return _single_prob_numeric(ring, cfg, energy, spectrum, epsrel)[0]


def _single_prob_numeric(
    ring: RingParams,
    cfg: CouplingConfig,
    energy: float,
    spectrum: TabulatedSpectrum,
    epsrel: float = 1e-6,
) -> tuple[float, float]:
    """:func:`pulsed_single_prob_numeric` and the relative error estimate of
    its quadrature over ``w``."""
    energy = _positive_finite("pulsed_single_prob_numeric", "energy", energy)
    epsrel = _positive_finite("pulsed_single_prob_numeric", "epsrel", epsrel)
    if np.all(spectrum.amplitude == 0.0):
        return 0.0, 0.0
    gamma = cfg.gamma
    tgamma = cfg.tgamma

    def outer_integrand(w: np.ndarray) -> np.ndarray:
        fp = effective_pump_lineshape(spectrum, tgamma, w)
        return (fp.real**2 + fp.imag**2) * 4.0 * math.pi / (gamma * (gamma * gamma + w * w))

    lo, hi = spectrum.support
    w_lo, w_hi = 2.0 * lo, 2.0 * hi
    # Breakpoint ladder resolving the Lorentzian-like core of |f_p|^2 without
    # forcing fine panels across the whole (wide) support.
    ladder = [k * tgamma for k in (1.0, 3.0, 10.0, 30.0, 100.0)]
    pts = sorted(p for p in [0.0, *ladder, *(-q for q in ladder)] if w_lo < p < w_hi)
    kernel, abserr = _adaptive_gauss_kronrod(outer_integrand, [w_lo, *pts, w_hi], epsrel)

    drive = _drive_cw(ring, energy, "energy")
    prefactor = cfg.tgamma_a**2 * cfg.gamma_mu * gamma / (4.0 * math.pi**2) * drive * drive
    return prefactor * kernel, abserr / kernel
