"""Closed-form observables for a CW-pumped microring photon-pair source.

With pump strength ``D = n2*vg^2*omega0*P/(c*S*L)`` and total linewidths
``gamma`` (biphoton) and ``tgamma`` (pump), the stationary rates are

* one-photon rate     ``Rs = Ri = 32 * tgamma_a^2*gamma_mu / (tgamma^4*gamma^2) * D^2``
* biphoton wavepacket ``psi(tau) = 4 * tgamma_a*gamma_mu / (tgamma^2*gamma) * D * exp(-gamma*|tau|/2)``
* pair rate           ``Rsi = 32 * tgamma_a^2*gamma_mu^2 / (tgamma^4*gamma^3) * D^2``

where ``gamma_mu`` is the biphoton coupling into the collection port and
``tau = t_signal - t_idler``.  The identity ``Rsi = (gamma_mu/gamma) * Rs``
holds exactly: a pair is extracted iff the partner photon also escapes into
the same port.  Global unimodular phases are dropped throughout, so the
wavepacket is returned real and non-negative.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import CouplingConfig, RingParams, _drive_cw, _positive_finite, _record

__all__ = [
    "CwObservables",
    "cw_single_rate",
    "cw_pair_rate",
    "cw_wavepacket",
    "cw_observables",
    "cw_pump_buildup",
    "cw_accidentals_and_car",
    "tolerance_band",
]


@_record
class CwObservables:
    """One-photon rates, pair rate, and heralding efficiency for one design."""

    Rs: float
    Ri: float
    Rsi: float
    heralding_efficiency: float

    def __post_init__(self) -> None:
        if self.Rs != self.Ri:
            raise ValueError("CwObservables requires Rs == Ri")
        if not 0.0 <= self.Rsi <= self.Rs:
            raise ValueError(
                f"CwObservables requires 0 <= Rsi <= Rs, got Rsi={self.Rsi!r}, Rs={self.Rs!r}"
            )
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ValueError(
                f"CwObservables requires heralding efficiency in [0, 1], got {self.heralding_efficiency!r}"
            )


# Rate kernels on (tgamma_a, gamma_mu, gamma, tgamma) and the drive d, for floats,
# arrays or Fractions (exactly) alike.  Powers are grouped products because ``**``
# rounds differently on floats (libm pow) and on arrays; + - * / round the same
# on both.
def _single_rate_kernel(ta, gmu, g, tg, d):
    tg2 = tg * tg
    return 32 * (ta * ta) * gmu / ((tg2 * tg2) * (g * g)) * d * d


def _pair_rate_kernel(ta, gmu, g, tg, d):
    tg2 = tg * tg
    return 32 * (ta * ta) * (gmu * gmu) / ((tg2 * tg2) * (g * g * g)) * d * d


def cw_single_rate(ring: RingParams, cfg: CouplingConfig, power: float) -> float:
    """One-photon (singles) rate Rs = Ri [1/s] extracted at the collection port."""
    d = _drive_cw(ring, power)
    return _single_rate_kernel(*cfg.kernel_rates, d)


def cw_pair_rate(ring: RingParams, cfg: CouplingConfig, power: float) -> float:
    """Photon-pair rate Rsi [1/s]: both photons exit the collection port."""
    d = _drive_cw(ring, power)
    return _pair_rate_kernel(*cfg.kernel_rates, d)


def cw_wavepacket(ring: RingParams, cfg: CouplingConfig, power: float, tau):
    """Biphoton wavepacket amplitude psi(tau) [1/s] at delay tau = t_s - t_i.

    Real and non-negative (global phase dropped); accepts scalar or array tau.
    ``+-inf`` gives 0; NaN is rejected.
    """
    d = _drive_cw(ring, power)
    peak = 4.0 * cfg.tgamma_a * cfg.gamma_mu / (cfg.tgamma**2 * cfg.gamma) * d
    tau_arr = np.asarray(tau, dtype=float)
    if np.isnan(tau_arr).any():
        raise ValueError("cw_wavepacket.tau must not be NaN")
    out = peak * np.exp(-cfg.gamma * np.abs(tau_arr) / 2.0)
    if np.isscalar(tau) or tau_arr.ndim == 0:
        return float(out)
    return out


def cw_observables(ring: RingParams, cfg: CouplingConfig, power: float) -> CwObservables:
    rs = cw_single_rate(ring, cfg, power)
    return CwObservables(
        Rs=rs,
        Ri=rs,
        Rsi=cw_pair_rate(ring, cfg, power),
        heralding_efficiency=cfg.heralding_efficiency,
    )


def cw_pump_buildup(cfg: CouplingConfig, detuning: float = 0.0) -> float:
    """Normalized intracavity pump buildup at offset ``detuning`` [rad/s].

    Returns ``4*tgamma_a*gamma_c / (tgamma^2 + 4*detuning^2)``, the
    coupling-dependent factor of the intracavity pump flux, scaled by
    ``gamma_c`` so the on-resonance critically coupled single-bus ring
    (``tgamma_a = gamma_c``, ``tgamma_b = 0``) gives exactly 1.  At fixed
    detuning the buildup peaks at
    ``tgamma_a = sqrt((tgamma_b + tgamma_c)^2 + 4*detuning^2)``.  Rejects a
    NaN or infinite detuning; either sign is valid.
    """
    if not np.all(np.isfinite(detuning)):
        raise ValueError(f"cw_pump_buildup.detuning must be finite, got {detuning!r}")
    return 4.0 * cfg.tgamma_a * cfg.gamma_c / (cfg.tgamma**2 + 4.0 * detuning**2)


_CAR_UNDEFINED = "CAR is undefined: the one-photon rate is zero for this design"


def _car_kernel(rs, rsi, window):
    """(R_acc, CAR) from the singles and pair rates; R_acc == 0 divides by zero."""
    r_acc = window * rs * rs
    return r_acc, rsi / r_acc


def cw_accidentals_and_car(
    ring: RingParams, cfg: CouplingConfig, power: float, coincidence_window: float
) -> tuple[float, float]:
    """Accidental-coincidence rate and coincidence-to-accidental ratio.

    ``R_acc = T_R * Rs * Ri`` for coincidence window ``T_R`` [s], and
    ``CAR = Rsi / R_acc``.  ``T_R`` is the full width of the window
    ``|t_s - t_i| <= T_R/2``, the convention ``R_acc = T_R * Rs * Ri``
    implies.  ``Rsi`` counts every true pair whatever ``T_R``: the share
    ``1 - exp(-gamma*T_R/2)`` of pairs inside the window is not applied, so
    the CAR overstates a measured one unless ``gamma*T_R >> 1``.  Raises
    :class:`ValueError` when the singles rate vanishes (CAR undefined).
    """
    coincidence_window = _positive_finite(
        "cw_accidentals_and_car", "coincidence_window", coincidence_window
    )
    try:
        return _car_kernel(
            cw_single_rate(ring, cfg, power), cw_pair_rate(ring, cfg, power),
            coincidence_window,
        )
    except ZeroDivisionError:
        raise ValueError(_CAR_UNDEFINED) from None


def tolerance_band(frac: float = 0.5) -> tuple[float, float]:
    """Coupling interval over which an all-pass ring keeps BOTH CW rates high.

    Returns ``(lo, hi)`` in units of ``gamma_c``: the set of ``gamma_a`` where
    the one-photon rate stays at or above ``frac`` of its own peak AND the
    pair rate stays at or above ``frac`` of its own peak.  Useful for judging
    fabrication tolerance of the coupling gap.  Both level sets are
    algebraic: ``Rs/R0 = 32x^3/(1+x)^6 = frac/2`` reduces to the quadratic
    ``c*x^2 + (2c - 1)*x + c = 0`` with ``c = (frac/64)^(1/3)``, whose roots
    multiply to 1, and ``Rsi/R0 = 32x^4/(1+x)^7`` meets its level at the two
    positive real roots of a degree-7 polynomial.  Raises
    :class:`ValueError` when the two bands do not overlap (``frac`` above
    about 0.9835).
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"tolerance_band requires 0 < frac < 1, got {frac!r}")
    c = (frac / 64.0) ** (1.0 / 3.0)
    singles_hi = (1.0 - 2.0 * c + np.sqrt(1.0 - 4.0 * c)) / (2.0 * c)
    x = Fraction(4, 3)  # argmax of the pair rate
    level = frac * float(_pair_rate_kernel(x, x, x + 1, x + 1, 1))
    # level*(1+x)^7 - 32*x^4, highest power first
    poly = level * np.array([1.0, 7.0, 21.0, 35.0, 35.0, 21.0, 7.0, 1.0])
    poly[3] -= 32.0
    roots = np.roots(poly)
    pair = np.sort(roots.real[(roots.imag == 0.0) & (roots.real > 0.0)])
    if pair.size == 2:
        lo, hi = max(1.0 / singles_hi, pair[0]), min(singles_hi, pair[1])
        if lo <= hi:
            return (float(lo), float(hi))
    raise ValueError(
        f"tolerance_band: no coupling keeps both rates at {frac!r} of their peaks"
    )
