"""Independent references for the benchmark's output checks.

Everything here is written from the model's closed forms (the paper's rate
and probability formulas, the broadband joint temporal amplitude, the
flattop lineshape) with numpy/scipy only; nothing imports ``ringsfwm``.
Couplings are in units of the intrinsic loss ``gamma_c`` unless a name says
otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
from scipy.integrate import quad
from scipy.optimize import root

C = 299792458.0

# The AlGaAs example ring of the canned figure commands.
RING = dict(n2=2.6e-17, vg=8.57e7, area=0.330e-12,
            circumference=2 * math.pi * 143e-6, wavelength=1550e-9)
GAMMA_C = 2 * math.pi * 71.1e6
FIGURE_RANGE = (0.05, 5.0)

ALL_PASS, ADD_DROP, DISTINCT = "all-pass-identical", "add-drop-identical", "add-drop-distinct"


def omega0(ring=RING) -> float:
    return 2 * math.pi * C / ring["wavelength"]


def drive(ring=RING) -> float:
    """n2*vg^2*omega0/(c*S*L): the pump strength per unit power [1/(s^2 W)]."""
    return ring["n2"] * ring["vg"] ** 2 * omega0(ring) / (C * ring["area"] * ring["circumference"])


def r0(power: float, gamma_c: float = GAMMA_C) -> float:
    return (drive() * power) ** 2 / gamma_c**3


def p0(energy: float, bandwidth_factor: float, gamma_c: float = GAMMA_C) -> float:
    return (2 * math.pi * drive() * energy / (bandwidth_factor * gamma_c)) ** 2


def rates(geometry: str, x, y=0.0):
    """(tgamma_a, gamma_mu, gamma, tgamma) in gamma_c units for a design point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if geometry == ALL_PASS:
        return x, x, 1 + x, 1 + x
    if geometry == ADD_DROP:
        return x, y, 1 + x + y, 1 + x + y
    if geometry == DISTINCT:
        return x, y, 1 + y, 1 + x
    raise ValueError(f"unknown geometry {geometry!r}")


def cw_normalized(geometry: str, output: str, x, y=0.0):
    """Rs or Rsi in units of R0."""
    ta, gm, g, tg = rates(geometry, x, y)
    if output == "Rs":
        return 32 * ta**2 * gm / (tg**4 * g**2)
    return 32 * ta**2 * gm**2 / (tg**4 * g**3)


def pulsed_normalized(geometry: str, output: str, x, y=0.0):
    """ps or psi in units of p0 (flattop pulse with bandwidth B*tgamma)."""
    ta, gm, g, tg = rates(geometry, x, y)
    common = ta**2 * gm / (tg * g * (tg + g)) / tg**2
    return common if output == "ps" else common * gm / g


def _distinct_pulsed_optimum(pairs: bool):
    """Maximum of x^2 y^n / ((1+x)^3 (1+y)^n (2+x+y)) from its stationarity
    conditions (n = 1 singles, 2 pairs), solved to machine precision."""
    n = 2.0 if pairs else 1.0

    def grad(v):
        x, y = v
        s = 1.0 / (2 + x + y)
        return [2 / x - 3 / (1 + x) - s, n / y - n / (1 + y) - s]

    sol = root(grad, [1.4, 3.2 if pairs else 1.8], tol=1e-15)
    x, y = (float(v) for v in sol.x)
    return (x, y), float(pulsed_normalized(DISTINCT, "psi" if pairs else "ps", x, y))


def optimum_table():
    """{(regime, geometry, output): (couplings, normalized peak)} for all 12
    optima.  Exact rationals except the two distinct-coupler pulsed entries."""
    table = {
        ("cw", ALL_PASS, "Rs"): ((F(1),), F(1, 2)),
        ("cw", ALL_PASS, "Rsi"): ((F(4, 3),), F(221184, 823543)),
        ("cw", ADD_DROP, "Rs"): ((F(2, 3), F(1, 3)), F(2, 27)),
        ("cw", ADD_DROP, "Rsi"): ((F(2, 3), F(2, 3)), F(13824, 823543)),
        ("cw", DISTINCT, "Rs"): ((F(1), F(1)), F(1, 2)),
        ("cw", DISTINCT, "Rsi"): ((F(1), F(2)), F(8, 27)),
        ("pulsed", ALL_PASS, "ps"): ((F(3, 2),), F(54, 3125)),
        ("pulsed", ALL_PASS, "psi"): ((F(2),), F(8, 729)),
        ("pulsed", ADD_DROP, "ps"): ((F(1), F(1, 2)), F(8, 3125)),
        ("pulsed", ADD_DROP, "psi"): ((F(1), F(1)), F(1, 1458)),
    }
    out = {k: (tuple(float(c) for c in cs), float(v)) for k, (cs, v) in table.items()}
    out[("pulsed", DISTINCT, "ps")] = _distinct_pulsed_optimum(pairs=False)
    out[("pulsed", DISTINCT, "psi")] = _distinct_pulsed_optimum(pairs=True)
    return out


# ---------------------------------------------------------------- Schmidt K

def _k_on_grid(x: float, y: float, n: int, t_max_over_gamma: float) -> float:
    """Trapezoid-grid K of the distinct-coupler broadband JTA, via the
    inverse purity (tr rho)^2 / tr rho^2 with rho = M M^T."""
    _, _, g, tg = rates(DISTINCT, x, y)
    t = np.linspace(0.0, t_max_over_gamma / g, n)
    w = np.full(n, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    m = np.minimum(t[:, None], t[None, :])
    split = tg - g
    bracket = m if abs(split) < 1e-9 * g else -np.expm1(-split * m) / split
    jta = np.exp(-g * (t[:, None] + t[None, :]) / 2) * bracket
    sw = np.sqrt(w)
    mat = sw[:, None] * jta * sw[None, :]
    gram = mat.T @ mat
    return float(np.sum(mat * mat) ** 2 / np.sum(gram * gram))


def schmidt_number(x: float, y: float, t_max_over_gamma: float = 20.0) -> float:
    """Continuum-limit Schmidt number of the distinct-coupler design (x, y).

    Trapezoid grids with 256, 512 and 1024 intervals, two Richardson steps
    on the O(h^2) error; converged to ~1e-9.  The window truncation at
    ``t_max_over_gamma/gamma`` removes ~exp(-20) of the norm.
    """
    k = [_k_on_grid(x, y, n + 1, t_max_over_gamma) for n in (256, 512, 1024)]
    r1, r2 = (4 * k[1] - k[0]) / 3, (4 * k[2] - k[1]) / 3
    return (16 * r2 - r1) / 15


# ------------------------------------------------- tabulated flattop pulses

def flattop_lineshape(w, tgamma: float, delta: float):
    """Exact two-pump lineshape f_p(w) of a flattop spectrum of width delta.

    With T = tgamma/2 the integrand's partial fractions integrate to
    (1/delta) [i ln(T - i x) - i ln(T - i (w - x))]_a^b / (2T - i w).
    """
    w = np.asarray(w, dtype=float)
    t = tgamma / 2
    a = np.maximum(-delta / 2, w - delta / 2)
    b = np.minimum(delta / 2, w + delta / 2)

    def prim(x):
        return 1j * np.log(t - 1j * x) - 1j * np.log(t - 1j * (w - x))

    return np.where(b > a, (prim(b) - prim(a)) / (delta * (2 * t - 1j * w)), 0.0)


def tabulated_single_prob(geometry: str, x: float, y: float, energy: float,
                          bandwidth_factor: float) -> float:
    """Per-pulse singles probability for a flattop pump of width B*tgamma.

    The inner Lorentzian pair integrates exactly to 4 pi / (gamma (gamma^2 + w^2)),
    leaving a 1-D integral over w of the closed-form |f_p|^2.
    """
    ta, gm, g, tg = (float(v) * GAMMA_C for v in rates(geometry, x, y))
    delta = bandwidth_factor * tg

    def integrand(w):
        return abs(flattop_lineshape(w, tg, delta)) ** 2 * 4 * math.pi / (g * (g * g + w * w))

    ladder = [k * tg for k in (1.0, 3.0, 10.0, 30.0, 100.0) if k * tg < delta]
    edges = [0.0, *ladder, delta]
    half = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))
    d = drive() * energy
    return ta**2 * gm * g / (4 * math.pi**2) * d * d * 2 * half
