"""Pulsed-pump lineshapes, wavepacket, and per-pulse probabilities."""

import gzip
import heapq
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import ringsfwm.pulsed as pulsed

from ringsfwm import (
    BroadbandAssumptionWarning,
    CouplingConfig,
    PumpSpec,
    TabulatedSpectrum,
    discretize_wavepacket,
    effective_pump_lineshape,
    flattop_lineshape_broadband,
    load_spectrum,
    prob_scale_p0,
    pulsed_accidental_prob,
    pulsed_observables,
    pulsed_pair_prob,
    pulsed_single_prob,
    pulsed_single_prob_numeric,
    pulsed_wavepacket,
    save_spectrum,
)
from ringsfwm.pulsed import (
    QuadratureError,
    _adaptive_gauss_kronrod,
    _drive_pulsed,
    _jta_bracket,
    _single_prob_numeric,
)

from conftest import (
    UNIT_RING,
    effective_pump_lineshape_quadrature,
    pulsed_pair_prob_quadrature,
    random_coupling,
)

ENERGY = 1e-12
B = 10.0


def normalized_spectrum(omega, amplitude):
    amplitude = np.asarray(amplitude, dtype=complex)
    return TabulatedSpectrum(omega, amplitude / np.sqrt(np.trapezoid(np.abs(amplitude) ** 2, omega)))


def gaussian_spectrum(tgamma, n_samples=301):
    """Gaussian |A_p|^2 of rms width sigma = 8*tgamma, sampled on +-3 sigma."""
    sigma = 8.0 * tgamma
    omega = np.linspace(-3.0 * sigma, 3.0 * sigma, n_samples)
    return normalized_spectrum(omega, np.exp(-(omega**2) / (4.0 * sigma**2)))


def _shaped_spectra(tg):
    """Non-flat spectra: chirped, coarse, and asymmetric complex ones on a
    non-uniform grid."""
    chirp = np.linspace(-9.0 * tg, 9.0 * tg, 41)
    coarse = np.linspace(-4.0 * tg, 4.0 * tg, 7)
    skew = np.concatenate([np.linspace(-2.0 * tg, 3.0 * tg, 8), np.linspace(3.7 * tg, 9.0 * tg, 6)])
    offset = np.linspace(-1.0 * tg, 6.0 * tg, 29)
    padded = np.linspace(-6.0 * tg, 6.0 * tg, 49)
    plateaus = np.zeros(49, complex)
    plateaus[8:14] = np.linspace(0.2, 1.0, 6)
    plateaus[14:30] = 1.0
    plateaus[30:35] = 0.5 + 0.5j
    plateaus[35:41] = np.linspace(0.5, 0.1, 6)
    return {
        "chirped-41": normalized_spectrum(
            chirp, np.exp(-((chirp / (6.0 * tg)) ** 2) + 0.05j * (chirp / tg) ** 2)
        ),
        "coarse-7": normalized_spectrum(coarse, [0.2, 1.0, 0.7, 1.1, 0.9, 0.5, 0.1]),
        "skewed-14": normalized_spectrum(
            skew, (1.0 + 0.6j * skew / tg) * np.exp(-(((skew - 2.0 * tg) / (4.0 * tg)) ** 2))
        ),
        "offset-29": normalized_spectrum(
            offset, np.exp(-(((offset - tg) / (2.0 * tg)) ** 2) + 0.4j * offset / tg)
        ),
        "plateau-padded-49": normalized_spectrum(padded, plateaus),
    }


def _mp_lineshape(spectrum, tgamma, omega_sum):
    """f_p(omega_sum) of the interpolated spectrum by 30-digit mpmath
    quadrature, split at every kink of the integrand."""
    grid = [mp.mpf(float(v)) for v in spectrum.omega]
    amp = [mp.mpc(complex(v)) for v in spectrum.amplitude]
    w, half_t = mp.mpf(omega_sum), mp.mpf(tgamma) / 2

    def a_of(x):
        k = min(max(int(np.searchsorted(spectrum.omega, float(x))) - 1, 0), len(grid) - 2)
        t = (x - grid[k]) / (grid[k + 1] - grid[k])
        return amp[k] * (1 - t) + amp[k + 1] * t

    lo = max(grid[0], w - grid[-1])
    hi = min(grid[-1], w - grid[0])
    pts = sorted({lo, hi, *(g for g in grid if lo < g < hi), *(w - g for g in grid if lo < w - g < hi)})
    with mp.workdps(30):
        val = mp.quad(lambda x: a_of(x) * a_of(w - x) / ((half_t - 1j * x) * (half_t - 1j * (w - x))), pts)
    return complex(val)


class TestTabulatedSpectrum:
    def test_rejects_unnormalized(self):
        grid = np.linspace(-1.0, 1.0, 64)
        amp = np.full(64, 1.01 / np.sqrt(2.0), dtype=complex)
        with pytest.raises(ValueError, match="dOmega = 1"):
            TabulatedSpectrum(grid, amp)

    def test_zero_amplitude_allowed(self):
        spec = TabulatedSpectrum(np.linspace(-1.0, 1.0, 16), np.zeros(16, complex))
        assert np.all(spec.amplitude == 0.0)

    def test_rejects_nonmonotonic_grid(self):
        grid = np.array([0.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="increasing"):
            TabulatedSpectrum(grid, np.full(3, 1.0, dtype=complex))

    def test_file_round_trip(self, tmp_path):
        spec = TabulatedSpectrum.flattop(3.7e9, n_samples=257)
        path = tmp_path / "spectrum.txt"
        save_spectrum(spec, path)
        text = path.read_text()
        assert text.lstrip().startswith("#")
        back = load_spectrum(path)
        np.testing.assert_array_equal(back.omega, spec.omega)
        np.testing.assert_array_equal(back.amplitude, spec.amplitude)

    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_file_with_byte_order_mark(self, tmp_path, suffix):
        """A UTF-8 byte-order mark before the header loads as the file without
        one, plain or compressed."""
        spec = TabulatedSpectrum.flattop(3.7e9, n_samples=33)
        plain, bom = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
        save_spectrum(spec, plain)
        text = b"\xef\xbb\xbf" + (gzip.decompress if suffix.endswith(".gz") else bytes)(
            plain.read_bytes())
        bom.write_bytes(gzip.compress(text) if suffix.endswith(".gz") else text)
        back, want = load_spectrum(bom), load_spectrum(plain)
        np.testing.assert_array_equal(back.omega, want.omega)
        np.testing.assert_array_equal(back.amplitude, want.amplitude)

    @pytest.mark.parametrize("text", ["", "# pump spectral amplitude samples\n\n# columns\n"],
                             ids=["empty", "comments-only"])
    def test_file_without_samples_rejected(self, tmp_path, text):
        """Named as holding no samples, not as a column count, and with no
        warning from numpy."""
        path = tmp_path / "spectrum.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as raised:
                load_spectrum(path)
        assert str(raised.value) == f"spectrum file {path} holds no samples"
        assert caught == []

    def test_knots_drop_plateaus_and_padding(self):
        assert TabulatedSpectrum.flattop(2.0e9).knots[0].size == 2
        spec = _shaped_spectra(2.0e9)["plateau-padded-49"]
        grid, amp = spec.knots
        assert grid.size == 19  # of 49: 7 + 15 + 3 + 6 samples inside equal runs
        assert grid[0] == spec.omega[0] and grid[-1] == spec.omega[-1]

    def test_knots_keep_the_interpolant_bit_for_bit(self, rng):
        spec = _shaped_spectra(2.0e9)["plateau-padded-49"]
        lo, hi = spec.support
        omega = np.concatenate([spec.omega, rng.uniform(1.1 * lo, 1.1 * hi, 2000)])
        full = (np.interp(omega, spec.omega, spec.amplitude.real, left=0.0, right=0.0)
                + 1j * np.interp(omega, spec.omega, spec.amplitude.imag, left=0.0, right=0.0))
        np.testing.assert_array_equal(spec(omega), full)
        np.testing.assert_array_equal(spec(spec.omega), spec.amplitude)

    @pytest.mark.parametrize("n_samples", [2.9, "3", 1, True])
    def test_flattop_rejects_a_sample_count_it_cannot_honour(self, n_samples):
        """A fractional, string, boolean or single sample count is rejected,
        not truncated to a coarser grid."""
        with pytest.raises(ValueError, match="n_samples must be"):
            TabulatedSpectrum.flattop(1e9, n_samples)
        assert TabulatedSpectrum.flattop(1e9, np.int64(3)).omega.size == 3

    def test_interpolation_compact_support(self):
        spec = TabulatedSpectrum.flattop(2.0)
        assert spec(5.0) == 0.0
        assert spec(0.3) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


class TestBroadbandLineshape:
    def test_on_axis_value_real(self):
        tg, dw = 2.0e9, 40.0e9
        fp = flattop_lineshape_broadband(tg, dw, 0.0)
        assert fp.imag == 0.0
        assert fp.real == pytest.approx(2.0 * np.pi / (dw * tg), rel=1e-12, abs=0.0)

    def test_modulus_even(self):
        tg, dw = 1.7e9, 30.0e9
        w = np.linspace(0.1, 20.0, 13) * tg
        np.testing.assert_allclose(
            np.abs(flattop_lineshape_broadband(tg, dw, w)),
            np.abs(flattop_lineshape_broadband(tg, dw, -w)),
            rtol=1e-15,
        )

    def test_half_width(self):
        tg, dw = 1.0e9, 50.0e9
        f0 = abs(flattop_lineshape_broadband(tg, dw, 0.0))
        fh = abs(flattop_lineshape_broadband(tg, dw, math.sqrt(3.0) * tg))
        assert fh == pytest.approx(f0 / 2.0, rel=1e-12, abs=0.0)

    def test_validity_guards(self):
        with pytest.raises(ValueError, match="5"):
            flattop_lineshape_broadband(1.0e9, 0.5e9, 0.0)
        with pytest.raises(ValueError):
            flattop_lineshape_broadband(1.0e9, 4.9e9, 0.0)
        with pytest.warns(BroadbandAssumptionWarning):
            flattop_lineshape_broadband(1.0e9, 7.0e9, 0.0)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, np.array([0.0, np.nan])])
    def test_non_finite_sum_rejected(self, w):
        """A NaN or infinite frequency sum is rejected, as
        :func:`effective_pump_lineshape` rejects a NaN, not returned as NaN."""
        with pytest.raises(ValueError, match="flattop_lineshape_broadband.omega_sum must be finite"):
            flattop_lineshape_broadband(1.0e9, 20.0e9, w)


def _outcome(call, *args):
    """``(result, warning messages)`` of one call, warnings unfiltered; the
    result is the ValueError if it raised one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except ValueError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(tgamma=st.floats(1e-3, 1e12), ratio=st.floats(0.0, 30.0))
@example(tgamma=1.0, ratio=5.0)
@example(tgamma=1.7e9, ratio=5.0)
@example(tgamma=1.0, ratio=10.0)
@example(tgamma=1.7e9, ratio=10.0)
def test_scalar_rule_is_the_array_mask(tgamma, ratio):
    """The scalar check raises exactly where the array mask is False and
    warns, with the mask's message, exactly where the rule is marginal;
    p0 at B = ratio warns wherever either applies and never raises."""
    delta_omega = ratio * tgamma
    mask, mask_warnings = _outcome(pulsed._broadband_mask, np.array([tgamma]), delta_omega)
    holds = bool(mask[0])
    scalar, scalar_warnings = _outcome(pulsed._require_broadband, tgamma, delta_omega)
    assert isinstance(scalar, ValueError) == (not holds)
    assert scalar_warnings == mask_warnings
    assert len(mask_warnings) == (holds and delta_omega < 10.0 * tgamma)
    if ratio > 0.0:
        p0, p0_warnings = _outcome(prob_scale_p0, UNIT_RING, 1.0, ratio, 1.0)
        assert p0 > 0.0
        assert len(p0_warnings) == (not holds or bool(mask_warnings))


@pytest.mark.parametrize("function", [
    pulsed_single_prob, pulsed_pair_prob, pulsed_observables, pulsed_accidental_prob,
])
def test_marginal_warning_once_per_call(function):
    """Each public probability checks the broadband rule once per call."""
    cfg = CouplingConfig.all_pass(1.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        function(UNIT_RING, cfg, 1e-3, 7.0 * cfg.tgamma)
    assert [w.category for w in caught] == [BroadbandAssumptionWarning]


def test_marginal_warning_names_the_caller():
    """Each scalar check reports at the line that called the public function."""
    cfg = CouplingConfig.all_pass(1.0, 1.0)
    dw = 7.0 * cfg.tgamma
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pulsed_single_prob(UNIT_RING, cfg, 1e-3, dw)
        pulsed_pair_prob(UNIT_RING, cfg, 1e-3, dw)
        pulsed_observables(UNIT_RING, cfg, 1e-3, dw)
        pulsed_accidental_prob(UNIT_RING, cfg, 1e-3, dw)
        pulsed_wavepacket(UNIT_RING, cfg, 1e-3, dw, 1.0, 2.0)
        flattop_lineshape_broadband(1.0, 7.0, 0.0)
        pulsed_observables(UNIT_RING, cfg, 4.28, 10.0 * cfg.tgamma)  # ps = 0.113
        discretize_wavepacket(UNIT_RING, cfg, PumpSpec.pulsed(1e-3, bandwidth_factor=7.0), 16)
    assert [w.filename for w in caught] == [__file__] * 8
    assert "single-pair" in str(caught[-2].message)


@st.composite
def tabulated_spectra(draw):
    """Normalized spectra on 2-60 knots of a non-uniform grid: complex
    amplitudes, at random with a plateau and zero padding at either end."""
    n = draw(st.integers(2, 60))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    omega = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    amplitude = np.array(draw(parts)) + 1j * np.array(draw(parts))
    if n >= 4 and draw(st.booleans()):
        first = draw(st.integers(0, n - 3))
        amplitude[first:draw(st.integers(first + 2, n - 1)) + 1] = amplitude[first]
    amplitude[:draw(st.integers(0, n // 3))] = 0.0
    amplitude[n - draw(st.integers(0, n // 3)):] = 0.0
    norm = np.trapezoid(np.abs(amplitude) ** 2, omega)
    assume(norm > 1e-6)
    return TabulatedSpectrum(omega, amplitude / np.sqrt(norm))


class TestEffectivePumpLineshape:
    def test_wideband_flattop_matches_closed_forms(self):
        """Finite-support value is (4/(dw*tg))*atan(dw/tg); the broadband
        Lorentzian limit is approached with a 2/(pi*B) deficit."""
        tg = 2.0e9
        bw_factor = 100.0
        dw = bw_factor * tg
        fp = effective_pump_lineshape(TabulatedSpectrum.flattop(dw), tg, 0.0)
        exact = 4.0 / (dw * tg) * math.atan(bw_factor)
        assert fp.imag == pytest.approx(0.0, abs=abs(fp) * 1e-10)
        assert fp.real == pytest.approx(exact, rel=1e-8, abs=0.0)
        broadband = 2.0 * np.pi / (dw * tg)
        deficit = (broadband - fp.real) / broadband
        assert deficit == pytest.approx(2.0 / (np.pi * bw_factor), rel=0.02)
        assert abs(fp.real - broadband) / broadband < 1e-2

    def test_hermitian_symmetry_real_spectrum(self):
        tg = 1.3e9
        spec = TabulatedSpectrum.flattop(20.0 * tg)
        for w in (0.0, 0.8 * tg, 5.0 * tg):
            f_plus = effective_pump_lineshape(spec, tg, w)
            f_minus = effective_pump_lineshape(spec, tg, -w)
            assert f_plus == pytest.approx(np.conj(f_minus), rel=1e-10, abs=0.0)

    def test_narrowband_against_riemann_oracle(self):
        tg = 2.0e9
        dw = tg / 100.0
        fp = effective_pump_lineshape(TabulatedSpectrum.flattop(dw), tg, 0.0)
        x = np.linspace(-dw / 2.0, dw / 2.0, 1_000_001)
        integrand = (1.0 / dw) / ((tg / 2.0 - 1j * x) * (tg / 2.0 + 1j * x))
        oracle = np.trapezoid(integrand, x)
        assert fp == pytest.approx(complex(oracle), rel=1e-8, abs=0.0)

    def test_disjoint_support_is_zero(self):
        spec = TabulatedSpectrum.flattop(2.0e9)
        assert effective_pump_lineshape(spec, 1.0e9, 10.0e9) == 0.0

    def test_flattop_matches_log_closed_form(self):
        """Flattop of width dw: f_p(w) = 2/(dw*(tg - i*w)) * i*[log(tg/2 - i*b)
        - log(tg/2 - i*a)] over the overlap [a, b] of the two supports."""
        tg = 1.7e9
        dw = 10.0 * tg
        spec = TabulatedSpectrum.flattop(dw)
        for w in np.linspace(-0.99, 0.99, 23) * dw:
            a, b = max(-dw / 2.0, w - dw / 2.0), min(dw / 2.0, w + dw / 2.0)
            with mp.workdps(30):  # the log difference cancels near the edges
                exact = complex(2j / (dw * (tg - 1j * mp.mpf(w))) * (
                    mp.log(tg / 2 - 1j * mp.mpf(b)) - mp.log(tg / 2 - 1j * mp.mpf(a))
                ))
            assert effective_pump_lineshape(spec, tg, w) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["chirped-41", "coarse-7", "skewed-14", "offset-29"])
    def test_shaped_spectra_against_adaptive_oracle(self, name):
        """Where the adaptive rule converges it agrees with the closed form.
        The oracle runs at epsrel = 1e-11: at 1e-9 its own error reaches
        2e-10 on these spectra."""
        tg = 2.0e9
        spec = _shaped_spectra(tg)[name]
        lo, hi = spec.support
        compared = 0
        for w in np.linspace(2.0 * lo, 2.0 * hi, 21)[1:-1]:
            try:
                want = effective_pump_lineshape_quadrature(spec, tg, w, epsrel=1e-11)
            except IntegrationWarning:
                continue
            compared += 1
            assert effective_pump_lineshape(spec, tg, w) == pytest.approx(want, rel=1e-10, abs=0.0)
        assert compared >= 3

    @pytest.mark.parametrize("name", ["coarse-7", "skewed-14", "plateau-padded-49"])
    def test_exact_for_interpolated_spectrum(self, name):
        """Also where breakpoints coincide: at sums of two knots a mirror
        image lands on a knot, and one knot spacing inside either edge of
        [2*lo, 2*hi] every knot and image is clipped onto the overlap ends."""
        tg = 2.0e9
        spec = _shaped_spectra(tg)[name]
        lo, hi = spec.support
        knots = spec.knots[0]
        sums = [knots[i] + knots[j] for i, j in ((0, 2), (1, -2), (2, 3), (-3, -1))]
        edges = [2.0 * lo + (knots[1] - knots[0]), 2.0 * hi - (knots[-1] - knots[-2])]
        for w in [*np.linspace(2.0 * lo, 2.0 * hi, 6)[1:-1], *sums, *edges]:
            want = _mp_lineshape(spec, tg, w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = effective_pump_lineshape(spec, tg, w)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_finely_sampled_gaussian_at_zero(self):
        """301 samples put a kink every 0.16*tgamma; adaptive quadrature
        stalled on them at w = 0."""
        tg = 1.3e9
        fp = effective_pump_lineshape(gaussian_spectrum(tg), tg, 0.0)
        assert np.isfinite(fp) and fp.real > 0.0
        assert abs(fp.imag) < 1e-12 * fp.real

    @settings(max_examples=80, deadline=None)
    @given(tabulated_spectra(), st.floats(0.05, 20.0),
           st.lists(st.floats(-1.3, 1.3), min_size=1, max_size=30))
    def test_array_matches_per_element(self, spectrum, tgamma, offsets):
        """An array of frequency sums evaluates to its elements' scalar
        values: inside the support [2*lo, 2*hi] of f_p, outside it, on its
        edges and far past them, where the two pump supports are disjoint."""
        lo, hi = spectrum.support
        w = np.concatenate((
            (lo + hi) + (hi - lo) * np.array(offsets),
            [2.0 * lo, 2.0 * hi, np.nextafter(2.0 * lo, 0.0), np.nextafter(2.0 * hi, 0.0),
             2.0 * hi + 10.0 * (hi - lo), 2.0 * lo - 10.0 * (hi - lo)],
        ))
        got = effective_pump_lineshape(spectrum, tgamma, w)
        each = [effective_pump_lineshape(spectrum, tgamma, float(v)) for v in w]
        assert all(type(v) is complex for v in each)
        assert got.shape == w.shape and got.dtype == complex
        np.testing.assert_allclose(got, each, rtol=1e-14, atol=0.0)
        outside = (w <= 2.0 * lo) | (w >= 2.0 * hi)
        assert np.all(got[outside] == 0.0)

    def test_shape_and_type(self):
        spec = _shaped_spectra(2.0e9)["skewed-14"]
        w = np.linspace(-5.0e9, 25.0e9, 12).reshape(3, 4)
        grid = effective_pump_lineshape(spec, 2.0e9, w)
        assert grid.shape == (3, 4) and grid.dtype == complex
        np.testing.assert_array_equal(grid.ravel(), effective_pump_lineshape(spec, 2.0e9, w.ravel()))
        zero_d = effective_pump_lineshape(spec, 2.0e9, np.array(3.0e9))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        for scalar in (3.0e9, np.float64(3.0e9), 3_000_000_000):
            value = effective_pump_lineshape(spec, 2.0e9, scalar)
            assert type(value) is complex and value == zero_d
        assert effective_pump_lineshape(spec, 2.0e9, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("w", [float("nan"), np.array([0.0, np.nan]), np.full((2, 2), np.nan)])
    def test_nan_rejected(self, w):
        with pytest.raises(ValueError, match="effective_pump_lineshape"):
            effective_pump_lineshape(TabulatedSpectrum.flattop(2.0e9), 1.0e9, w)

    def test_infinite_sum_is_zero(self):
        spec = TabulatedSpectrum.flattop(2.0e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_pump_lineshape(spec, 1.0e9, math.inf) == 0.0
            assert effective_pump_lineshape(spec, 1.0e9, -math.inf) == 0.0
            both = effective_pump_lineshape(spec, 1.0e9, np.array([-np.inf, 0.0, np.inf]))
        assert both[0] == both[2] == 0.0 and both[1].real > 0.0


class TestPulsedWavepacket:
    def _dw(self, cfg):
        return B * cfg.tgamma

    def test_causality(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        dw = self._dw(cfg)
        t = 1.0 / cfg.gamma
        assert pulsed_wavepacket(ring, cfg, ENERGY, dw, -t, t) == 0.0
        assert pulsed_wavepacket(ring, cfg, ENERGY, dw, t, -t) == 0.0
        assert pulsed_wavepacket(ring, cfg, ENERGY, dw, -t, -t) == 0.0
        assert pulsed_wavepacket(ring, cfg, ENERGY, dw, t, t) > 0.0

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0], ids=["narrow", "degenerate", "broad"])
    def test_infinite_times_give_zero(self, algaas, scale):
        """+-inf in either time lies outside the finite causal quadrant: the
        amplitude there is 0, not NaN, on either side of tgamma = gamma."""
        ring, gc = algaas
        cfg = CouplingConfig.distinct(scale * gc, gc, gc)
        dw = self._dw(cfg)
        t = 1.0 / cfg.gamma
        inf = math.inf
        for ts, ti in ((inf, inf), (inf, t), (t, inf), (inf, -inf), (-inf, -inf)):
            assert pulsed_wavepacket(ring, cfg, ENERGY, dw, ts, ti) == 0.0
        ts = np.array([inf, inf, t, -inf, t])
        ti = np.array([inf, -inf, inf, t, t])
        got = pulsed_wavepacket(ring, cfg, ENERGY, dw, ts, ti)
        assert np.array_equal(got[:4], np.zeros(4)) and got[4] > 0.0
        assert got[4] == pulsed_wavepacket(ring, cfg, ENERGY, dw, t, t)

    @pytest.mark.parametrize("name,ts,ti", [
        ("t_signal", math.nan, 0.0),
        ("t_idler", 0.0, math.nan),
        ("t_signal", np.array([1e-9, math.nan]), 1e-9),
        ("t_idler", np.array([1e-9, 2e-9])[:, None], np.array([0.0, math.nan])[None, :]),
    ])
    def test_nan_time_is_rejected(self, algaas, name, ts, ti):
        """A NaN time is no amplitude the program can give, not "outside the
        causal quadrant": it raises, naming the function and the argument."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        with pytest.raises(ValueError, match=rf"^pulsed_wavepacket\.{name} must not be NaN"):
            pulsed_wavepacket(ring, cfg, ENERGY, self._dw(cfg), ts, ti)

    def test_exchange_symmetry(self, algaas, rng):
        ring, gc = algaas
        for _ in range(5):
            cfg = random_coupling(rng, gamma_c=gc)
            dw = self._dw(cfg)
            ts = rng.uniform(0.0, 10.0, size=9) / cfg.gamma
            ti = rng.uniform(0.0, 10.0, size=9) / cfg.gamma
            np.testing.assert_array_equal(
                pulsed_wavepacket(ring, cfg, ENERGY, dw, ts, ti),
                pulsed_wavepacket(ring, cfg, ENERGY, dw, ti, ts),
            )

    def test_degenerate_branch_matches_series_oracle(self, algaas):
        """Pump linewidth one part in 1e9 above the biphoton linewidth:
        compare against an arbitrary-precision evaluation of the generic
        quotient, to roundoff."""
        ring, gc = algaas
        # distinct geometry with tgamma_a == gamma_b, so tgamma - gamma is set
        # purely by the loss split
        cfg_split = CouplingConfig.distinct(
            1.1 * gc, 1.1 * gc, gc, tgamma_c=gc + 1e-9 * (1.1 * gc + gc)
        )
        assert abs(cfg_split.tgamma - cfg_split.gamma) == pytest.approx(
            1e-9 * cfg_split.gamma, rel=1e-6
        )
        dw = self._dw(cfg_split)
        mp.mp.dps = 50
        for t_s, t_i in ((0.3, 0.9), (2.0, 1.0), (5.0, 5.0)):
            ts, ti = t_s / cfg_split.gamma, t_i / cfg_split.gamma
            got = pulsed_wavepacket(ring, cfg_split, ENERGY, dw, ts, ti)
            x = mp.mpf(cfg_split.tgamma) - mp.mpf(cfg_split.gamma)
            m = mp.mpf(min(ts, ti))
            bracket = (1 - mp.e**(-x * m)) / x
            envelope = mp.e**(-mp.mpf(cfg_split.gamma) * (mp.mpf(ts) + mp.mpf(ti)) / 2)
            drive = (
                2 * mp.pi * mp.mpf(ring.n2) * mp.mpf(ring.vg) ** 2 * mp.mpf(ring.omega0)
                * mp.mpf(ENERGY)
                / (mp.mpf("299792458") * mp.mpf(ring.area) * mp.mpf(ring.circumference)
                   * mp.mpf(dw))
            )
            oracle = float(
                mp.mpf(cfg_split.tgamma_a) * mp.mpf(cfg_split.gamma_mu)
                * drive * envelope * bracket
            )
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("offset", [1e-9, 5e-7, 9e-7, -1e-9, -5e-7, -9e-7])
    def test_near_degenerate_matches_mpmath(self, algaas, offset):
        """``tgamma/gamma - 1`` a few parts in 1e7 or 1e9 from the exact limit,
        over times up to 20/gamma: the wavepacket against mpmath at 50 digits
        on the same float design, to 1e-13 relative."""
        ring, gc = algaas
        cfg = CouplingConfig.distinct(
            1.1 * gc, 1.1 * gc, gc, tgamma_c=gc + offset * (1.1 * gc + gc)
        )
        dw = self._dw(cfg)
        t = np.array([0.01, 0.3, 1.0, 4.0, 20.0]) / cfg.gamma
        got = pulsed_wavepacket(ring, cfg, ENERGY, dw, t[:, None], t[None, :])
        y = _drive_pulsed(ring, ENERGY, dw)
        with mp.workdps(50):
            x = mp.mpf(cfg.tgamma) - mp.mpf(cfg.gamma)
            want = np.array([[
                float(
                    mp.mpf(cfg.tgamma_a) * mp.mpf(cfg.gamma_mu) * mp.mpf(y)
                    * mp.exp(-mp.mpf(cfg.gamma) * (mp.mpf(ts) + mp.mpf(ti)) / 2)
                    * -mp.expm1(-x * mp.mpf(min(ts, ti))) / x
                )
                for ti in t.tolist()] for ts in t.tolist()
            ])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_matches_per_branch_envelope_formula_bitwise(self, algaas):
        """Sharing one envelope exponential between the two branches leaves
        every value bit-identical to evaluating it inside each branch."""
        ring, gc = algaas
        for cfg in (
            CouplingConfig.all_pass(gc, gc),  # degenerate: tgamma == gamma
            CouplingConfig.distinct(3.0 * gc, 0.5 * gc, gc),  # tgamma > gamma
            CouplingConfig.distinct(0.3 * gc, 4.0 * gc, gc),  # tgamma < gamma
        ):
            dw = self._dw(cfg)
            t = np.linspace(-1.0, 20.0, 97) / cfg.gamma
            ts, ti = t[:, None], t[None, :]
            m = np.maximum(np.minimum(ts, ti), 0.0)
            log_env = -cfg.gamma * np.clip(ts + ti, 0.0, None) / 2.0
            split = cfg.tgamma - cfg.gamma
            if split == 0.0:
                core = np.exp(log_env) * m
            else:
                u = split * m
                protected = np.abs(u) <= 1.0
                assert protected.any() and not protected.all()
                core_near = np.exp(log_env) * (-np.expm1(-np.where(protected, u, 0.0)))
                core_far = np.exp(log_env) - np.exp(log_env - np.where(protected, 0.0, u))
                core = np.where(protected, core_near, core_far) / split
            y = _drive_pulsed(ring, ENERGY, dw)
            want = cfg.tgamma_a * cfg.gamma_mu * y * core
            want = np.where((ts >= 0.0) & (ti >= 0.0), want, 0.0)
            assert np.array_equal(pulsed_wavepacket(ring, cfg, ENERGY, dw, ts, ti), want)

    def test_bracket_matches_mpmath(self):
        """The bracket ``e^L (1 - e^{-u})/split`` with ``u = split*m``, shared
        with the Schmidt kernel, against mpmath at 40 digits on the same float
        inputs: |u| from 1e-12 to 700 of either sign, both sides of the
        |u| = 1 switch, splits of either sign below 1e-6, and split = 0 (the
        limit ``e^L m``), under the precondition ``L <= min(0, u)``, with
        ``L`` at most 600 below that so the value stays a normal float.  The
        rounding of ``u`` and ``L - u`` sets the error scale."""
        rng = np.random.default_rng(19)
        n = 4000
        sign = rng.choice((-1.0, 1.0), n)
        u = sign * 10.0 ** rng.uniform(-12.0, math.log10(700.0), n)
        split = np.copysign(10.0 ** rng.uniform(-3.0, 3.0, n), u)
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        edges = np.array([below, 1.0, above])
        tiny = rng.choice((-1.0, 1.0), 200) * 10.0 ** rng.uniform(-15.0, -6.0, 200)
        # the switch edges with split = +-1, so that split*m is exactly |u| = edge
        split = np.concatenate((split, [1.0] * 3, [-1.0] * 3, tiny, np.zeros(50)))
        m = np.concatenate((u / split[:n], edges, edges, 10.0 ** rng.uniform(-3.0, 3.0, 250)))
        u = split * m
        assert np.ptp(np.log10(np.abs(u[:n]))) > 14.0 and np.all(m >= 0.0)
        switch_edges = (split[n:n + 6] * m[n:n + 6]).tolist()
        assert switch_edges == [below, 1.0, above, -below, -1.0, -above]
        log_env = np.minimum(u, 0.0) - rng.uniform(0.0, 600.0, u.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _jta_bracket(log_env, m, split)
        with mp.workdps(40):
            want = np.array([
                float(mp.exp(el) * (mm if s == 0 else -mp.expm1(-s * mm) / s))
                for el, mm, s in (
                    map(mp.mpf, row) for row in zip(log_env.tolist(), m.tolist(), split.tolist())
                )
            ])
        scale = 4.0 * np.finfo(float).eps * (1.0 + np.abs(log_env) + np.abs(u))
        assert np.all(np.abs(got - want) <= scale * np.abs(want))
        assert _jta_bracket(log_env[0], m[0], split[0]) == got[0]
        assert _jta_bracket(-1.0, 2.5, 0.0) == math.exp(-1.0) * 2.5

    def test_finite_at_extreme_times_with_narrow_pump(self, algaas):
        """With tgamma < gamma the quotient involves a growing exponential;
        far-out times must still underflow cleanly to zero, not NaN."""
        ring, gc = algaas
        cfg = CouplingConfig.distinct(0.3 * gc, 4.0 * gc, gc)  # tgamma << gamma
        assert cfg.tgamma < cfg.gamma
        dw = 20.0 * cfg.tgamma
        t_far = 5000.0 / cfg.gamma
        val = pulsed_wavepacket(ring, cfg, ENERGY, dw, t_far, t_far)
        assert val == 0.0
        grid = pulsed_wavepacket(
            ring, cfg, ENERGY, dw,
            np.array([0.1, 10.0, 5000.0]) / cfg.gamma,
            np.array([0.2, 5000.0, 5000.0]) / cfg.gamma,
        )
        assert np.all(np.isfinite(grid))

    def test_continuous_across_degenerate_switch(self, algaas):
        """Across ``tgamma = gamma`` the wavepacket moves by its first-order
        term only, ``split*min(ts, ti)/2`` relative, from the exact limit down
        to splits of 1e-15, on either side."""
        ring, gc = algaas
        t = (0.3, 0.45)
        dw = 20.0 * 2.0 * gc  # same absolute bandwidth on every side
        limit = CouplingConfig.distinct(gc, gc, gc)
        assert limit.tgamma == limit.gamma
        v0 = pulsed_wavepacket(ring, limit, ENERGY, dw, t[0] / limit.gamma, t[1] / limit.gamma)
        for offset in (1e-15, 1e-12, 1e-9, 1e-6, 2e-6):
            for sign in (-1.0, 1.0):
                cfg = CouplingConfig.distinct(gc, gc, gc, tgamma_c=gc + sign * offset * 2.0 * gc)
                split = (cfg.tgamma - cfg.gamma) / cfg.gamma
                assert split != 0.0
                got = pulsed_wavepacket(ring, cfg, ENERGY, dw, t[0] / cfg.gamma, t[1] / cfg.gamma)
                # gamma is the same on every side, so only the bracket moves
                assert cfg.gamma == limit.gamma
                want = v0 * (1.0 - split * t[0] / 2.0)
                assert got == pytest.approx(want, rel=split * split + 4e-16, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.01, 50.0)),
        offset=st.one_of(
            st.none(),
            st.tuples(st.floats(1e-15, 1e-5), st.sampled_from((-1.0, 1.0))).map(
                lambda pair: pair[0] * pair[1]
            ),
        ),
        times=st.tuples(st.floats(-2.0, 2000.0), st.floats(-2.0, 2000.0)),
    )
    @example(rates=(1.0, 1.0, 1.0), offset=0.0, times=(0.5, 3.0))
    def test_finite_and_non_negative(self, rates, offset, times):
        """Over random designs (``tgamma/gamma`` free, or within
        ``+-[1e-15, 1e-5]`` of 1, or exactly 1) and times in units of
        ``1/gamma``: finite and non-negative, as its docstring promises."""
        ta, gb, gc = rates
        if offset is None:
            cfg = CouplingConfig.distinct(ta, gb, gc)
        else:
            cfg = CouplingConfig.distinct(gb, gb, gc, tgamma_c=gc + offset * (gb + gc))
        ts, ti = (x / cfg.gamma for x in times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pulsed_wavepacket(UNIT_RING, cfg, 1e-3, 20.0 * cfg.tgamma, ts, ti)
        assert math.isfinite(value) and value >= 0.0

class TestClosedFormProbabilities:
    def test_allpass_pair_optimum(self, algaas):
        ring, gc = algaas
        p0 = prob_scale_p0(ring, ENERGY, B, gc)
        cfg = CouplingConfig.all_pass(2.0 * gc, gc)
        got = pulsed_pair_prob(ring, cfg, ENERGY, B * cfg.tgamma)
        assert got == pytest.approx(8.0 / 729.0 * p0, rel=1e-12)

    def test_adddrop_pair_optimum(self, algaas):
        ring, gc = algaas
        p0 = prob_scale_p0(ring, ENERGY, B, gc)
        cfg = CouplingConfig.add_drop(gc, gc, gc)
        got = pulsed_pair_prob(ring, cfg, ENERGY, B * cfg.tgamma)
        assert got == pytest.approx(1.0 / 1458.0 * p0, rel=1e-12)

    def test_allpass_singles_optimum(self, algaas):
        ring, gc = algaas
        p0 = prob_scale_p0(ring, ENERGY, B, gc)
        cfg = CouplingConfig.all_pass(1.5 * gc, gc)
        got = pulsed_single_prob(ring, cfg, ENERGY, B * cfg.tgamma)
        assert got == pytest.approx(54.0 / 3125.0 * p0, rel=1e-12)

    def test_adddrop_singles_optimum(self, algaas):
        ring, gc = algaas
        p0 = prob_scale_p0(ring, ENERGY, B, gc)
        cfg = CouplingConfig.add_drop(gc, 0.5 * gc, gc)
        got = pulsed_single_prob(ring, cfg, ENERGY, B * cfg.tgamma)
        assert got == pytest.approx(8.0 / 3125.0 * p0, rel=1e-12)

    def test_zero_output_coupling(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.add_drop(gc, 0.0, gc)
        assert pulsed_pair_prob(ring, cfg, ENERGY, B * cfg.tgamma) == 0.0

    def test_pair_singles_identity_random(self, rng):
        for _ in range(300):
            cfg = random_coupling(rng, lo=0.05, hi=8.0)
            dw = 20.0 * cfg.tgamma
            ps = pulsed_single_prob(UNIT_RING, cfg, 1e-3, dw)
            psi = pulsed_pair_prob(UNIT_RING, cfg, 1e-3, dw)
            assert psi == pytest.approx(cfg.gamma_mu / cfg.gamma * ps, rel=5e-14)

    def test_quadrature_recovers_pair_prob(self, algaas, rng):
        ring, gc = algaas
        for _ in range(10):
            cfg = random_coupling(rng, gamma_c=gc)
            dw = 20.0 * cfg.tgamma
            oracle = pulsed_pair_prob_quadrature(ring, cfg, ENERGY, dw)
            assert pulsed_pair_prob(ring, cfg, ENERGY, dw) == pytest.approx(oracle, rel=1e-5)

    def test_observables_bundle_and_accidentals(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.5 * gc, gc)
        obs = pulsed_observables(ring, cfg, 0.1 * ENERGY, B * cfg.tgamma)
        assert obs.ps == obs.pi
        assert obs.psi_pair == pytest.approx(cfg.gamma_mu / cfg.gamma * obs.ps, rel=1e-13)
        assert pulsed_accidental_prob(ring, cfg, 0.1 * ENERGY, B * cfg.tgamma) == obs.ps * obs.pi

    def test_perturbative_warning(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.5 * gc, gc)
        with pytest.warns(UserWarning, match="single-pair"):
            pulsed_observables(ring, cfg, ENERGY, B * cfg.tgamma)  # ps ~ 0.23 here


class TestNumericSinglesProbability:
    def test_matches_closed_form_at_large_bandwidth(self, algaas):
        """Finite flattop support costs ~4/(pi*B) relative to the broadband
        closed form; at B = 50 that is ~2.5e-2."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.5 * gc, gc)
        bw = 50.0
        spec = TabulatedSpectrum.flattop(bw * cfg.tgamma)
        numeric = pulsed_single_prob_numeric(ring, cfg, ENERGY, spec, epsrel=1e-4)
        closed = pulsed_single_prob(ring, cfg, ENERGY, bw * cfg.tgamma)
        deviation = abs(numeric - closed) / closed
        assert deviation < 3e-2
        assert deviation == pytest.approx(4.0 / (np.pi * bw), rel=0.05)

    def test_converges_to_closed_form(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.2 * gc, gc)
        errors = []
        for bw in (10.0, 30.0, 100.0, 300.0):
            spec = TabulatedSpectrum.flattop(bw * cfg.tgamma)
            numeric = pulsed_single_prob_numeric(ring, cfg, ENERGY, spec, epsrel=1e-4)
            closed = pulsed_single_prob(ring, cfg, ENERGY, bw * cfg.tgamma)
            errors.append(abs(numeric - closed) / closed)
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_zero_spectrum_gives_zero(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        spec = TabulatedSpectrum(np.linspace(-1e10, 1e10, 32), np.zeros(32, complex))
        assert pulsed_single_prob_numeric(ring, cfg, ENERGY, spec) == 0.0

    def test_finely_sampled_gaussian(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.2 * gc, gc)
        ps = pulsed_single_prob_numeric(ring, cfg, ENERGY, gaussian_spectrum(cfg.tgamma))
        assert np.isfinite(ps) and ps > 0.0

    def test_error_estimate_reported(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.2 * gc, gc)
        spec = TabulatedSpectrum.flattop(B * cfg.tgamma)
        ps, rel_err = _single_prob_numeric(ring, cfg, ENERGY, spec)
        assert ps == pulsed_single_prob_numeric(ring, cfg, ENERGY, spec)
        assert 0.0 < rel_err < 1e-6

    def test_subdivision_budget_exhausted_raises(self, algaas, monkeypatch):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(1.2 * gc, gc)
        spec = TabulatedSpectrum.flattop(B * cfg.tgamma)
        monkeypatch.setattr(pulsed, "_SUBDIV_LIMIT", 8)
        with pytest.raises(QuadratureError, match="8 panels"):
            pulsed_single_prob_numeric(ring, cfg, ENERGY, spec, epsrel=1e-10)

    @pytest.mark.parametrize("epsrel", [0.0, -1e-6, float("nan")])
    def test_rejects_nonpositive_epsrel(self, algaas, epsrel):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        with pytest.raises(ValueError, match="epsrel"):
            pulsed_single_prob_numeric(ring, cfg, ENERGY, TabulatedSpectrum.flattop(B * cfg.tgamma), epsrel)

    @pytest.mark.parametrize("w_over_gamma", [0.0, 0.3, 1.0, 4.0, 25.0])
    def test_lorentzian_pair_integral(self, w_over_gamma):
        """The biphoton Lorentzians convolve to 4*pi/(gamma*(gamma^2 + w^2))."""
        gamma = mp.mpf("1.7")
        w = w_over_gamma * gamma
        with mp.workdps(30):
            val = mp.quad(
                lambda x: 1 / ((gamma**2 / 4 + x**2) * (gamma**2 / 4 + (w - x) ** 2)),
                [-mp.inf, 0, w, mp.inf] if w else [-mp.inf, 0, mp.inf],
            )
            exact = 4 * mp.pi / (gamma * (gamma**2 + w**2))
            assert abs(val / exact - 1) < 1e-20


def _qk21_scalar(f, a, b):
    """The scalar qk21 the batched rule replaced, kept as its oracle: one
    panel ``[a, b]``, ``f`` called on the 21 nodes."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = f(center + half * pulsed._GK_NODES)
    resk = pulsed._K21_WEIGHTS @ fx
    diff = abs((resk - pulsed._G10_WEIGHTS @ fx) * half)
    resasc = abs(half) * (pulsed._K21_WEIGHTS @ np.abs(fx - 0.5 * resk))
    err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5) if resasc and diff else diff
    floor = 50.0 * pulsed._EPS * abs(half) * (pulsed._K21_WEIGHTS @ np.abs(fx))
    return float(resk * half), float(max(err, floor)), float(floor)


def _adaptive_scalar(f, edges, epsrel):
    """The panel-at-a-time adaptive rule the batched one replaced, kept as
    its oracle: integral, error estimate, the number of integrand values
    and the panels it bisected, in order.  It raises where that rule
    raised, on ``pulsed._SUBDIV_LIMIT`` and on the roundoff floor, with the
    same message."""
    panels = []
    for a, b in zip(edges, edges[1:]):
        result, err, floor = _qk21_scalar(f, a, b)
        panels.append((-err, a, b, result, floor))
    heapq.heapify(panels)
    total = sum(p[3] for p in panels)
    abserr = -sum(p[0] for p in panels)
    roundoff = sum(p[4] for p in panels)
    bisected = []
    while abserr > epsrel * abs(total):
        limit = pulsed._SUBDIV_LIMIT
        if len(panels) >= limit or epsrel * abs(total) < roundoff:
            why = (
                f"{limit} panels do not suffice" if len(panels) >= limit
                else f"the target is below the roundoff floor {roundoff:.3g}"
            )
            raise QuadratureError(
                f"singles-probability quadrature did not converge: {why}; error "
                f"estimate {abserr:.3g} > {epsrel:g} * |{total:.6g}|"
            )
        neg_err, a, b, result, floor = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        r1, e1, f1 = _qk21_scalar(f, a, mid)
        r2, e2, f2 = _qk21_scalar(f, mid, b)
        heapq.heappush(panels, (-e1, a, mid, r1, f1))
        heapq.heappush(panels, (-e2, mid, b, r2, f2))
        total += r1 + r2 - result
        abserr += e1 + e2 + neg_err
        roundoff += f1 + f2 - floor
        bisected.append((a, b))
    return total, abserr, 21 * (len(edges) - 1 + 2 * len(bisected)), bisected


def _assert_matches_scalar_rule(a, b, fx, batched):
    """Each panel ``k`` of one batched :func:`pulsed._gauss_kronrod_21`
    round (ends ``a``, ``b``, integrand values ``fx``, result triple
    ``batched``) against :func:`_qk21_scalar` on the same nodes and values.

    The two add the 21 weighted values in different orders (a matrix-vector
    product against a dot product).  Each sum rounds to within
    ``10.5*eps*scale`` of the exact one, where ``scale = floor/(50*eps)`` is
    the integral of ``|f|``, so the value agrees to ``22*eps*scale`` and
    the floor to ``22*eps`` relative.  The error estimate takes the difference
    K21 - G10, which cancels, and raises it to the power 1.5: it moves by at
    most ``300*(21 + 2*10)*eps*scale`` (the G10 weights are at most twice
    the K21 ones at the same node), about 250 roundoff floors."""
    eps = pulsed._EPS
    for k in range(len(a)):
        def values(w, k=k):
            assert np.array_equal(w, 0.5 * (a[k] + b[k]) + 0.5 * (b[k] - a[k]) * pulsed._GK_NODES)
            return fx[k]

        result, err, floor = _qk21_scalar(values, a[k], b[k])
        scale = floor / (50.0 * eps)
        assert abs(batched[0][k] - result) <= 22.0 * eps * scale
        assert abs(batched[2][k] - floor) <= 22.0 * eps * floor
        assert abs(batched[1][k] - err) <= 4.0 * eps * err + 300.0 * 41.0 * eps * scale


class _RecordedRule:
    """Records one run of the batched rule through ``patch``: each call of
    :func:`pulsed._gauss_kronrod_21` as its panel ends, integrand values
    and result triple, in ``rounds``."""

    def __init__(self, patch):
        self.rounds = []
        rule = pulsed._gauss_kronrod_21

        def recorded_rule(f, a, b):
            values = []
            out = rule(lambda w: values.append(f(w)) or values[-1], a, b)
            self.rounds.append((a, b, values[0], out))
            return out

        patch.setattr(pulsed, "_gauss_kronrod_21", recorded_rule)

    @property
    def neval(self):
        """The integrand values the rule evaluated."""
        return sum(fx.size for _, _, fx, _ in self.rounds)


def _singles_quadrature(ring, cfg, spectrum):
    """The integrand, edges and ``epsrel`` of the quadrature that
    :func:`pulsed_single_prob_numeric` runs, its value and error estimate,
    and its :class:`_RecordedRule`."""
    adaptive, runs = pulsed._adaptive_gauss_kronrod, []

    def recorded_adaptive(f, edges, epsrel):
        runs.append((f, edges, epsrel, adaptive(f, edges, epsrel)))
        return runs[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pulsed, "_adaptive_gauss_kronrod", recorded_adaptive)
        record = _RecordedRule(patch)
        pulsed_single_prob_numeric(ring, cfg, ENERGY, spectrum)
    [(f, edges, epsrel, (got, err))] = runs
    return f, edges, epsrel, got, err, record


def _assert_matches_scalar_oracle(f, edges, epsrel, got, err, record):
    """The batched rule's value ``got``, error estimate ``err`` and
    :class:`_RecordedRule` against :func:`_adaptive_scalar`: the value to
    1e-13, the estimate to 1e-6, each panel against the scalar qk21
    (:func:`_assert_matches_scalar_rule`), and exactly as many integrand
    values."""
    want, want_err, neval, _ = _adaptive_scalar(f, edges, epsrel)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert err == pytest.approx(want_err, rel=1e-6)
    assert record.neval == neval
    for a, b, fx, out in record.rounds:
        _assert_matches_scalar_rule(a, b, fx, out)


def _two_kinks(x):
    return np.abs(x - 0.3) + 5.0 * np.abs(x - 0.7)


class TestGaussKronrodRule:
    """The adaptive rule behind :func:`pulsed_single_prob_numeric`."""

    def test_degrees_of_exactness(self):
        """G10 is exact to degree 19 and K21 to degree 31 on [-1, 1]; each
        fails one degree higher, which a mistyped constant would also show."""
        x = pulsed._GK_NODES
        for weights, degree in ((pulsed._G10_WEIGHTS, 19), (pulsed._K21_WEIGHTS, 31)):
            assert weights.sum() == pytest.approx(2.0, rel=1e-15)
            for k in range(degree + 2):
                got, exact = weights @ x**k, (2.0 / (k + 1) if k % 2 == 0 else 0.0)
                if k <= degree:
                    assert got == pytest.approx(exact, rel=1e-15, abs=1e-15), (degree, k)
                else:
                    assert abs(got / exact - 1.0) > 1e-11, (degree, k)

    @pytest.mark.parametrize("bw, bisections", [(10.0, [2]), (30.0, [2, 2])], ids=["10.0", "30.0"])
    def test_matches_quadpack_panels(self, algaas, bw, bisections):
        """On the flattop designs the rule bisects the same panels as
        QUADPACK's qagp: same evaluation count, value and error estimate.
        It does so in rounds of ``bisections`` panels, one call each.  The
        integrand takes arrays (the rule's rounds of panels) and scalars
        (qagp's points) alike."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        spec = TabulatedSpectrum.flattop(bw * cfg.tgamma)
        tg, g = cfg.tgamma, cfg.gamma
        shapes = []

        def f(w):
            shapes.append(np.shape(w))
            fp = effective_pump_lineshape(spec, tg, w)
            return abs(fp) ** 2 / (g * g + w * w)

        ladder = sorted(k * tg for k in (0, 1, 3, 10, 30, -1, -3, -10, -30) if abs(k) < bw)
        edges = [-bw * tg, *ladder, bw * tg]  # w spans twice the +-bw*tg/2 support
        got, err = _adaptive_gauss_kronrod(f, edges, 1e-6)
        rounds = list(shapes)
        shapes.clear()
        want, want_err, info = quad(
            f, edges[0], edges[-1], points=edges[1:-1], limit=10_000,
            epsabs=0.0, epsrel=1e-6, full_output=1,
        )
        # One call for the initial panels, then one per round of bisections.
        assert rounds == [(len(edges) - 1, 21), *((2 * n, 21) for n in bisections)]
        assert 21 * sum(n for n, _ in rounds) == info["neval"]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert err == pytest.approx(want_err, rel=1e-6)

    def test_oscillating_integrand_to_tight_tolerance(self):
        """``integral_0^3 exp(-x)*cos(7x) dx``; the integral of ``|f|`` is
        ~25 times larger, which puts the roundoff floor of the error
        estimate at ~3e-13 relative: 1e-12 is met, 1e-13 is refused."""
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return np.exp(-x) * np.cos(7.0 * x)

        exact = (1.0 - math.exp(-3.0) * (math.cos(21.0) - 7.0 * math.sin(21.0))) / 50.0
        got, err = _adaptive_gauss_kronrod(f, [0.0, 0.5, 3.0], 1e-12)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert 0.0 < err <= 1e-12 * abs(got)
        # Both initial panels in one call, then one panel's halves per round:
        # the worst panel alone covers the excess each time.
        assert shapes == [(2, 21)] * len(shapes) and len(shapes) > 1
        with pytest.raises(QuadratureError, match="roundoff") as got:
            _adaptive_gauss_kronrod(f, [0.0, 0.5, 3.0], 1e-13)
        with pytest.raises(QuadratureError) as want:
            _adaptive_scalar(f, [0.0, 0.5, 3.0], 1e-13)
        assert str(got.value) == str(want.value)

    def test_one_lineshape_call_per_round(self, algaas, monkeypatch):
        """The singles probability evaluates the lineshape once per round of
        the rule: once on the nodes of all initial panels, then once on the
        halves of every panel a round takes.  On the identical-coupler
        flattop designs at B = 10 and 30 that is 6 panels and one round of 2
        bisections, then 8 panels and two rounds of 2: 5 calls, where one
        bisection per round took 8."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        lineshape, sizes = pulsed.effective_pump_lineshape, []

        def counted(spectrum, tgamma, omega_sum):
            sizes.append(np.shape(omega_sum))
            return lineshape(spectrum, tgamma, omega_sum)

        monkeypatch.setattr(pulsed, "effective_pump_lineshape", counted)
        for bw in (10.0, 30.0):
            pulsed_single_prob_numeric(ring, cfg, ENERGY, TabulatedSpectrum.flattop(bw * cfg.tgamma))
        assert sizes == [(6, 21), (4, 21), (8, 21), (4, 21), (4, 21)]

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from(["all-pass", "add-drop", "distinct"]),
        couplings=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        bw=st.floats(5.0, 300.0),
        spectrum=st.sampled_from(["flattop", *_shaped_spectra(1.0)]),
    )
    @example(geometry="all-pass", couplings=(1.0, 1.0), bw=10.0, spectrum="flattop")
    @example(geometry="distinct", couplings=(4.0, 0.25), bw=199.0, spectrum="flattop")
    @example(geometry="distinct", couplings=(4.0, 0.25), bw=10.0, spectrum="plateau-padded-49")
    def test_random_flattop_designs(self, algaas, geometry, couplings, bw, spectrum):
        """Over random designs (couplings in units of ``gamma_c``), on the
        singles probability's own integrand and breakpoints, for a flattop
        spectrum (``B = delta_omega/tgamma``) or one of the shaped spectra,
        which take more rounds:

        - the rule evaluates exactly as many integrand values as the scalar
          rule it replaced, with the same value and error estimate
          (:func:`_assert_matches_scalar_oracle`).  Which panels it bisects
          is not compared here: two mirror-image panels can tie to
          roundoff, and the two rules may break the tie apart.  On the third
          example, where the one-at-a-time rule bisects a half before the
          next initial panel, that is 378 values;
        - QUADPACK's qagp agrees within the two error estimates.  qagp
          also extrapolates (Wynn's epsilon algorithm), which this rule
          does not, so on some distinct-coupler designs at large B it
          evaluates more panels: 420 against 336 at the second example.
        """
        ring, gc = algaas
        x, y = (c * gc for c in couplings)
        cfg = {
            "all-pass": lambda: CouplingConfig.all_pass(x, gc),
            "add-drop": lambda: CouplingConfig.add_drop(x, y, gc),
            "distinct": lambda: CouplingConfig.distinct(x, y, gc),
        }[geometry]()
        if spectrum == "flattop":
            spec = TabulatedSpectrum.flattop(bw * cfg.tgamma)
        else:
            spec = _shaped_spectra(cfg.tgamma)[spectrum]
        f, edges, epsrel, got, err, record = _singles_quadrature(ring, cfg, spec)
        _assert_matches_scalar_oracle(f, edges, epsrel, got, err, record)
        qagp, qagp_err = quad(
            f, edges[0], edges[-1], points=edges[1:-1], limit=10_000, epsabs=0.0, epsrel=epsrel,
        )
        assert abs(got - qagp) <= err + qagp_err

    def test_two_kinks_take_the_oracles_evaluations(self, monkeypatch):
        """Two kinks, one five times steeper: bisecting its panel leaves a
        half still worse than the other kink's panel, where a round takes
        both.  The rule still evaluates exactly the scalar rule's 1134
        values, with its value and error estimate."""
        edges = [0.0, 0.5, 1.0]
        record = _RecordedRule(monkeypatch)
        got, err = _adaptive_gauss_kronrod(_two_kinks, edges, 1e-9)
        _assert_matches_scalar_oracle(_two_kinks, edges, 1e-9, got, err, record)
        assert record.neval == 1134
        assert got == pytest.approx(0.3**2 / 2 + 0.7**2 / 2 + 5.0 * (0.7**2 / 2 + 0.3**2 / 2), rel=1e-9)

    def test_one_round_bisects_both_spikes(self, monkeypatch):
        """A round can bisect a panel that the one-at-a-time rule leaves
        whole, when the integral grows.  One panel resolves the spike on
        [0, 1] poorly and its halves well, raising the integral by
        ``grown``.  The spike on [1, 2] is scaled so that its error estimate
        lies above the target of the initial panels, by half the slack
        ``grown`` opens.  The round takes both panels and keeps all four
        halves, where the one-at-a-time rule stops after the first: 42 more
        values, and a value within the two error estimates."""
        def spike(x, center, width):
            return np.exp(-(((x - center) / width) ** 2))

        epsrel = 0.5
        left, right = (lambda x: spike(x, 0.607, 0.0556)), (lambda x: spike(x, 1.637, 0.0254))
        left_value, left_err, _ = _qk21_scalar(left, 0.0, 1.0)
        halves = [_qk21_scalar(left, a, a + 0.5) for a in (0.0, 0.5)]
        grown = halves[0][0] + halves[1][0] - left_value
        slack = epsrel * grown - halves[0][1] - halves[1][1]
        right_value, right_err, _ = _qk21_scalar(right, 1.0, 2.0)
        scale = (epsrel * left_value + 0.5 * slack) / (right_err - epsrel * right_value)
        assert slack > 0.0 and 0.0 < scale * right_err < left_err

        def f(x):
            return np.where(x < 1.0, left(x), scale * right(x))

        record = _RecordedRule(monkeypatch)
        got, err = _adaptive_gauss_kronrod(f, [0.0, 1.0, 2.0], epsrel)
        assert [a.size for a, _, _, _ in record.rounds] == [2, 4]
        want, want_err, neval, bisected = _adaptive_scalar(f, [0.0, 1.0, 2.0], epsrel)
        assert bisected == [(0.0, 1.0)] and record.neval == neval + 42
        assert abs(got - want) <= err + want_err
        for a, b, fx, out in record.rounds:
            _assert_matches_scalar_rule(a, b, fx, out)

    @pytest.mark.parametrize("case", ["flattop-30", "kinked"])
    def test_panel_budget_boundary(self, algaas, monkeypatch, case):
        """With ``_SUBDIV_LIMIT`` one below the panel count the
        one-at-a-time rule ends with, the rule raises before its last round;
        at that count it converges to that rule's value.  On the flattop
        design the last round bisects two panels, so the limit is compared
        with the count the round would leave, not the count before it; the
        kinked integrand takes rounds of two panels and of one."""
        if case == "kinked":
            f, edges, epsrel = _two_kinks, [0.0, 0.5, 1.0], 1e-9
        else:
            ring, gc = algaas
            cfg = CouplingConfig.all_pass(gc, gc)
            f, edges, epsrel, _, _, record = _singles_quadrature(
                ring, cfg, TabulatedSpectrum.flattop(30.0 * cfg.tgamma)
            )
            assert record.rounds[-1][0].size == 4
        want, _, _, bisected = _adaptive_scalar(f, edges, epsrel)
        final = len(edges) - 1 + len(bisected)
        monkeypatch.setattr(pulsed, "_SUBDIV_LIMIT", final - 1)
        with pytest.raises(QuadratureError, match=f": {final - 1} panels do not suffice"):
            _adaptive_gauss_kronrod(f, edges, epsrel)
        monkeypatch.setattr(pulsed, "_SUBDIV_LIMIT", final)
        assert _adaptive_gauss_kronrod(f, edges, epsrel)[0] == pytest.approx(want, rel=1e-13, abs=0.0)

    @staticmethod
    def _width_rule(patch, estimate):
        """Replaces :func:`pulsed._gauss_kronrod_21` with a rule that ignores
        ``f`` and integrates 1: each panel's result is its width, its error
        estimate ``estimate(width)`` and its roundoff floor 0.  Returns the
        list that collects each call's panels as sorted ``(a, b)`` pairs."""
        calls = []

        def rule(f, a, b):
            calls.append(sorted(zip(a.tolist(), b.tolist())))
            return b - a, estimate(b - a), np.zeros_like(a)

        patch.setattr(pulsed, "_gauss_kronrod_21", rule)
        return calls

    def test_equal_estimates_bisected_in_position_order(self, monkeypatch):
        """Panels of one width tie exactly; a round takes them by position,
        as the one-at-a-time rule's heap popped them.  The first round
        bisects both unit panels and holds their halves, of estimate 1/4, as
        (0, 1/2), (1, 3/2), (1/2, 1), (3/2, 2).  At ``epsrel = 0.3`` of the
        integral 2 the second round needs two of them, and takes the two
        leftmost, not the first two held."""
        calls = self._width_rule(monkeypatch, lambda width: width * width)
        got, err = _adaptive_gauss_kronrod(None, [0.0, 1.0, 2.0], 0.3)
        assert calls[:3] == [
            [(0.0, 1.0), (1.0, 2.0)],
            [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0)],
            [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)],
        ]
        assert (got, err) == (2.0, 0.5) and len(calls) == 5

    def test_round_short_by_roundoff_bisects_every_panel(self, monkeypatch):
        """The estimates ``2**-53, 2**-53, 1`` sum to ``1 + 2**-52`` in
        position order but to 1 from the largest down, so at a target far
        below one ulp of the sum the excess is more than all three cover.
        The round bisects all three, leaving the 6 panels the budget allows;
        the next round would leave more, and raises."""
        tiny = 2.0**-53
        calls = self._width_rule(monkeypatch, lambda width: width)
        monkeypatch.setattr(pulsed, "_SUBDIV_LIMIT", 6)
        with pytest.raises(QuadratureError, match=": 6 panels do not suffice"):
            _adaptive_gauss_kronrod(None, [0.0, tiny, 2.0 * tiny, 1.0 + 2.0 * tiny], 1e-300)
        assert [len(panels) for panels in calls] == [3, 6]
