"""Physical identities as properties over random designs.

``Rsi = (gamma_mu/gamma) * Rs`` for a CW pump and ``p_si = (gamma_mu/gamma) * p_s``
per pulse, for every geometry, coupling and pump-loss split, checked through
the public scalar functions and through the array kernels the sweeps call.
The broadband wavepacket is symmetric under exchange of the two photons, and
its grid Schmidt number is invariant under transposition and under a common
rescaling of the pump and biphoton linewidths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    CouplingConfig,
    Geometry,
    PumpSpec,
    WavepacketGrid,
    cw_pair_rate,
    cw_single_rate,
    discretize_wavepacket,
    pulsed_pair_prob,
    pulsed_single_prob,
    pulsed_wavepacket,
    schmidt_spectrum,
)
from ringsfwm.core import _point_rates
from ringsfwm.cw import _pair_rate_kernel, _single_rate_kernel
from ringsfwm.optimize import config_from_point, coupling_parameter_names
from ringsfwm.pulsed import _pair_prob_kernel, _single_prob_kernel

from conftest import UNIT_RING

RTOL = 5e-14


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def designs(draw, n_points=8):
    """Geometry, a batch of free couplings (units of gamma_c), gamma_c, and a
    split pump loss for half of the distinct-coupler draws."""
    geometry = draw(st.sampled_from(list(Geometry)))
    n_free = len(coupling_parameter_names(geometry))
    coupling = st.lists(_decades(-2.0, 2.0), min_size=n_points, max_size=n_points)
    point = tuple(np.array(draw(coupling)) for _ in range(n_free))
    gamma_c = draw(_decades(6.0, 12.0))
    tgamma_c = None
    if geometry is Geometry.ADD_DROP_DISTINCT and draw(st.booleans()):
        tgamma_c = draw(_decades(-1.0, 1.0)) * gamma_c
    return geometry, point, gamma_c, tgamma_c


def _check(single, pair, eta):
    np.testing.assert_allclose(pair, eta * single, rtol=RTOL, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_cw_pair_rate_is_eta_times_singles(design):
    geometry, point, gamma_c, tgamma_c = design
    ta, gmu, g, tg = _point_rates(geometry, point, gamma_c, tgamma_c)
    _check(_single_rate_kernel(ta, gmu, g, tg, 1.0), _pair_rate_kernel(ta, gmu, g, tg, 1.0), gmu / g)
    for k in range(len(point[0])):
        cfg = config_from_point(geometry, [p[k] for p in point], gamma_c, tgamma_c)
        rs = cw_single_rate(UNIT_RING, cfg, 1.0)
        assert cw_pair_rate(UNIT_RING, cfg, 1.0) == pytest.approx(
            cfg.gamma_mu / cfg.gamma * rs, rel=RTOL, abs=0.0
        )


@settings(max_examples=60, deadline=None)
@given(designs(), _decades(1.0, 3.0))
def test_pulsed_pair_prob_is_eta_times_singles(design, bandwidth_factor):
    geometry, point, gamma_c, tgamma_c = design
    ta, gmu, g, tg = _point_rates(geometry, point, gamma_c, tgamma_c)
    _check(_single_prob_kernel(ta, gmu, g, tg, 1.0), _pair_prob_kernel(ta, gmu, g, tg, 1.0), gmu / g)
    for k in range(len(point[0])):
        cfg = config_from_point(geometry, [p[k] for p in point], gamma_c, tgamma_c)
        dw = bandwidth_factor * cfg.tgamma
        ps = pulsed_single_prob(UNIT_RING, cfg, 1e-3, dw)
        assert pulsed_pair_prob(UNIT_RING, cfg, 1e-3, dw) == pytest.approx(
            cfg.gamma_mu / cfg.gamma * ps, rel=RTOL, abs=0.0
        )


_NAMED = {
    Geometry.ALL_PASS_IDENTICAL: lambda c, gc, tgc: CouplingConfig.all_pass(*c, gc),
    Geometry.ADD_DROP_IDENTICAL: lambda c, gc, tgc: CouplingConfig.add_drop(*c, gc),
    Geometry.ADD_DROP_DISTINCT: lambda c, gc, tgc: CouplingConfig.distinct(*c, gc, tgamma_c=tgc),
}

# (gamma_a, gamma_b, gamma_c, tgamma_a, tgamma_b, tgamma_c) each geometry ties
_SIX = {
    Geometry.ALL_PASS_IDENTICAL: lambda c, gc, tgc: (c[0], 0.0, gc, c[0], 0.0, gc),
    Geometry.ADD_DROP_IDENTICAL: lambda c, gc, tgc: (c[0], c[1], gc, c[0], c[1], gc),
    Geometry.ADD_DROP_DISTINCT: lambda c, gc, tgc: (0.0, c[1], gc, c[0], 0.0, tgc or gc),
}


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(designs())
def test_general_constructor_is_the_ladder(design):
    """The general constructor equals the named one, has each geometry's
    tied rates, and its kernel tuple is the array ladder's, bit for bit."""
    geometry, point, gamma_c, tgamma_c = design
    rates = _point_rates(geometry, point, gamma_c, tgamma_c)
    for k in range(len(point[0])):
        couplings = [p[k] * gamma_c for p in point]
        cfg = CouplingConfig(geometry, couplings, gamma_c, tgamma_c)
        assert cfg == _NAMED[geometry](couplings, gamma_c, tgamma_c)
        six = (cfg.gamma_a, cfg.gamma_b, cfg.gamma_c, cfg.tgamma_a, cfg.tgamma_b, cfg.tgamma_c)
        assert all(type(v) is float for v in (*six, *cfg.kernel_rates))
        assert _bits(six) == _bits(_SIX[geometry](couplings, gamma_c, tgamma_c))
        ga, gb, gc, ta, tb, tc = six
        port = ga if geometry is Geometry.ALL_PASS_IDENTICAL else gb
        kernel = _bits((ta, port, ga + gb + gc, ta + tb + tc))
        assert _bits(cfg.kernel_rates) == kernel == _bits(r[k] for r in rates)
        assert _bits((cfg.gamma_mu, cfg.gamma, cfg.tgamma)) == kernel[1:]


PULSE = PumpSpec.pulsed(1e-3, bandwidth_factor=10.0)


def _single_config(design):
    geometry, point, gamma_c, tgamma_c = design
    return config_from_point(geometry, [p[0] for p in point], gamma_c, tgamma_c)


@settings(max_examples=40, deadline=None)
@given(designs(n_points=1), st.lists(st.floats(-2.0, 40.0), min_size=16, max_size=16))
def test_wavepacket_exchange_symmetry(design, times):
    cfg = _single_config(design)
    t = np.array(times) / cfg.gamma
    ts, ti = t[:8, None], t[None, 8:]
    dw = PULSE.delta_omega_for(cfg.tgamma)
    np.testing.assert_array_equal(
        pulsed_wavepacket(UNIT_RING, cfg, 1e-3, dw, ts, ti),
        pulsed_wavepacket(UNIT_RING, cfg, 1e-3, dw, ti, ts),
    )


@settings(max_examples=30, deadline=None)
@given(designs(n_points=1))
def test_schmidt_number_invariant_under_transposition(design):
    grid = discretize_wavepacket(UNIT_RING, _single_config(design), PULSE, 48)
    transposed = WavepacketGrid(grid.t_axis, grid.amplitudes.T, grid.weights)
    assert schmidt_spectrum(transposed).K == pytest.approx(
        schmidt_spectrum(grid).K, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(designs(n_points=1), _decades(-6.0, 6.0))
def test_schmidt_number_invariant_under_linewidth_scaling(design, scale):
    """``(tgamma, gamma) -> (s*tgamma, s*gamma)`` leaves the grid K unchanged:
    the sweeps evaluate K on a unit design with the same ratio."""
    geometry, point, gamma_c, tgamma_c = design
    scaled = (geometry, point, scale * gamma_c, None if tgamma_c is None else scale * tgamma_c)
    k = schmidt_spectrum(discretize_wavepacket(UNIT_RING, _single_config(design), PULSE, 48)).K
    k_scaled = schmidt_spectrum(
        discretize_wavepacket(UNIT_RING, _single_config(scaled), PULSE, 48)).K
    assert k_scaled == pytest.approx(k, rel=1e-12, abs=0.0)
