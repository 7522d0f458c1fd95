"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the closed-form algebra they are used to
check: pair rates/probabilities are recovered by quadrature of the wavepacket,
and spectral integrals are done with their own mapped adaptive rules.
"""

import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

from ringsfwm import (
    CouplingConfig,
    cw_wavepacket,
    flattop_lineshape_broadband,
    pulsed_wavepacket,
)
from ringsfwm.core import C_VACUUM
from ringsfwm.sweep import algaas_example


@pytest.fixture(scope="session")
def algaas():
    """(RingParams, gamma_c) for the AlGaAs example ring."""
    return algaas_example()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240917)


def random_coupling(rng, gamma_c=1.0, lo=0.3, hi=4.0):
    """Random valid coupling configuration, any geometry, rates in
    [lo, hi]*gamma_c (kept away from 0 so all observables stay generic).
    Half of the distinct-geometry draws also split the pump loss."""
    kind = int(rng.integers(0, 4))
    u = lambda: float(rng.uniform(lo, hi)) * gamma_c  # noqa: E731
    if kind == 0:
        return CouplingConfig.all_pass(u(), gamma_c)
    if kind == 1:
        return CouplingConfig.add_drop(u(), u(), gamma_c)
    if kind == 2:
        return CouplingConfig.distinct(u(), u(), gamma_c)
    tgamma_c = float(rng.uniform(0.7, 1.5)) * gamma_c
    return CouplingConfig.distinct(u(), u(), gamma_c, tgamma_c=tgamma_c)


def cw_pair_rate_quadrature(ring, cfg, power):
    """Pair rate recovered as the integral of |psi(tau)|^2 over all delays."""
    g = cfg.gamma

    def integrand(tau):
        return cw_wavepacket(ring, cfg, power, tau) ** 2

    half, _ = quad(integrand, 0.0, 40.0 / g, limit=500, epsrel=1e-11)
    return 2.0 * half


def pulsed_pair_prob_quadrature(ring, cfg, energy, delta_omega, n=96, t_max_over_gamma=40.0):
    """Pair probability recovered by Gauss-Legendre integration of
    |psi(ts, ti)|^2 over the lower triangle (doubled by exchange symmetry)."""
    t_max = t_max_over_gamma / cfg.gamma
    x, wx = leggauss(n)
    ti = 0.5 * t_max * (x + 1.0)
    wi = 0.5 * t_max * wx
    ts = 0.5 * ti[:, None] * (x[None, :] + 1.0)
    ws = 0.5 * ti[:, None] * wx[None, :]
    vals = np.abs(pulsed_wavepacket(ring, cfg, energy, delta_omega, ts, ti[:, None])) ** 2
    inner = np.sum(vals * ws, axis=1)
    return 2.0 * float(np.sum(inner * wi))


def _rational_map_quad(f, scale, breakpoints, epsrel=1e-9):
    """Integral of f over the whole real line via x = scale*s/(1-s^2)."""

    def s_of(x):
        if x == 0.0:
            return 0.0
        return (-scale + np.hypot(scale, 2.0 * x)) / (2.0 * x)

    def g(s):
        one = 1.0 - s * s
        x = scale * s / one
        jac = scale * (1.0 + s * s) / (one * one)
        return jac * f(x)

    pts = sorted({float(s_of(b)) for b in breakpoints})
    pts = [p for p in pts if -1.0 < p < 1.0]
    val, _ = quad(g, -1.0, 1.0, points=pts or None, limit=2000, epsabs=0.0, epsrel=epsrel)
    return val


def pulsed_single_prob_quadrature_broadband(ring, cfg, energy, delta_omega):
    """One-photon probability by double spectral quadrature with the
    broadband-limit lineshape; independent of the closed-form probability."""
    g, tg = cfg.gamma, cfg.tgamma
    quarter = g * g / 4.0

    def inner(w):
        return _rational_map_quad(
            lambda x: 1.0 / ((quarter + x * x) * (quarter + (w - x) ** 2)),
            g,
            (0.0, w),
            epsrel=1e-9,
        )

    def outer(w):
        fp = flattop_lineshape_broadband(tg, delta_omega, w)
        return (fp.real**2 + fp.imag**2) * inner(w)

    kernel = _rational_map_quad(outer, tg, (0.0,), epsrel=1e-8)
    drive = (
        ring.n2 * ring.vg**2 * ring.omega0 * energy
        / (C_VACUUM * ring.area * ring.circumference)
    )
    return cfg.tgamma_a**2 * cfg.gamma_mu * g / (4.0 * np.pi**2) * drive * drive * kernel


def effective_pump_lineshape_quadrature(spectrum, tgamma, omega_sum, epsrel=1e-9):
    """Two-pump lineshape by adaptive quadrature of the interpolated spectrum,
    real and imaginary parts separately.  Raises ``IntegrationWarning`` as an
    error where QUADPACK does not converge (typically at the kinks of a
    finely sampled, non-flat spectrum)."""
    lo, hi = spectrum.support
    a = max(lo, omega_sum - hi)
    b = min(hi, omega_sum - lo)
    if b <= a:
        return 0.0 + 0.0j

    def f(x):
        return (
            spectrum(x)
            * spectrum(omega_sum - x)
            / ((tgamma / 2.0 - 1j * x) * (tgamma / 2.0 - 1j * (omega_sum - x)))
        )

    interior = [p for p in (lo, hi, omega_sum - lo, omega_sum - hi, 0.0, omega_sum) if a < p < b]
    # Absolute floor keyed to a coarse probe of the integrand magnitude, so a
    # component that integrates to ~0 does not stall the relative test.
    epsabs = max(float(np.max(np.abs(f(np.linspace(a, b, 33))))) * (b - a) * 1e-13, 1e-300)
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for component in (np.real, np.imag):
            val, _ = quad(
                lambda x: component(f(x)), a, b, points=sorted(set(interior)) or None,
                limit=10_000, epsabs=epsabs, epsrel=epsrel,
            )
            parts.append(val)
    return complex(parts[0], parts[1])


def parabola_argmax(f, grid, refinements=(1e-2, 1e-4)):
    """Argmax via fixed-stencil parabolic refinement of a coarse grid scan.

    The stencil abscissae depend only on the grid and the refinement steps,
    never on the function values, so positive rescaling of f reproduces the
    same argmax to roundoff.
    """
    vals = [f(x) for x in grid]
    center = float(grid[int(np.argmax(vals))])
    for h in refinements:
        fm, f0, fp = f(center - h), f(center), f(center + h)
        denom = fm - 2.0 * f0 + fp
        if denom == 0.0:
            continue
        center = center + 0.5 * h * (fm - fp) / denom
    return center


def ratio_spread_ulps(rate, tgammas, grid):
    """Largest spread, in ulps, of ``rate(tga, gb) / rate(tgammas[0], gb)``
    over the ``gb`` scan, for each ``tga``.  A rate that factorizes into a
    ``tgamma_a`` part times a ``gamma_b`` part gives roundoff only."""
    base = np.array([rate(tgammas[0], gb) for gb in grid])
    spread = 0.0
    for tga in tgammas[1:]:
        ratio = np.array([rate(tga, gb) for gb in grid]) / base
        spread = max(spread, float(np.ptp(ratio) / ratio.min()))
    return spread / np.finfo(float).eps


ALGAAS_INI = """
[ring]
n2_m2_per_w = 2.6e-17
vg_m_per_s = 8.57e7
area_um2 = 0.330
radius_um = 143
wavelength_nm = 1550

[coupling]
geometry = {geometry}
gamma_c_over_2pi_mhz = 71.1
{knobs}

[pump]
{pump}

[detector]
coincidence_window_ns = 1
{extra}
"""


def write_config(path, geometry="all-pass-identical", knobs="gamma_a_over_gamma_c = 1.0",
                 pump="mode = cw\npower_uw = 10", extra=""):
    path.write_text(
        ALGAAS_INI.format(geometry=geometry, knobs=knobs, pump=pump, extra=extra)
    )
    return path
