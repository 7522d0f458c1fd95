"""Wavepacket discretization and Schmidt decomposition."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    BroadbandAssumptionWarning,
    CouplingConfig,
    DecompositionError,
    PumpSpec,
    SchmidtResult,
    WavepacketGrid,
    discretize_wavepacket,
    pulsed_pair_prob,
    TabulatedSpectrum,
    schmidt_spectrum,
    schmidt_spectrum_broadband,
)

from ringsfwm.schmidt import _ikebe_matrix, _schmidt_number_kernel

from conftest import UNIT_RING, random_coupling

PUMP = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)


def _grid(ring, cfg, n=512, t_max=20.0):
    return discretize_wavepacket(ring, cfg, PUMP, n, t_max)


class TestDiscretize:
    def test_rejects_cw_pump(self, algaas):
        ring, gc = algaas
        with pytest.raises(ValueError, match="pulsed"):
            discretize_wavepacket(ring, CouplingConfig.all_pass(gc, gc), PumpSpec.cw(1e-5))

    def test_rejects_tabulated_spectrum(self, algaas):
        """The grid is the broadband flattop closed form; a spectrum it would
        ignore is refused."""
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        pump = PumpSpec.pulsed(
            1e-12,
            spectrum=TabulatedSpectrum.flattop(10.0 * cfg.tgamma, n_samples=11),
        )
        with pytest.raises(ValueError, match="tabulated pump spectrum"):
            discretize_wavepacket(ring, cfg, pump, 32)

    def test_causal_edges_zero(self, algaas):
        ring, gc = algaas
        grid = _grid(ring, CouplingConfig.all_pass(gc, gc), n=64)
        np.testing.assert_array_equal(grid.amplitudes[0, :], 0.0)
        np.testing.assert_array_equal(grid.amplitudes[:, 0], 0.0)

    def test_norm_matches_pair_probability(self, algaas):
        """Trapezoid norm at the default grid tracks the closed form; the
        kinked diagonal limits the default 512-point grid to ~1.3e-4."""
        ring, gc = algaas
        cfg = CouplingConfig.distinct(1.46 * gc, 3.17 * gc, gc)
        grid = _grid(ring, cfg)
        w = grid.weights
        norm = float(w @ (grid.amplitudes * grid.amplitudes) @ w)
        expected = pulsed_pair_prob(ring, cfg, PUMP.energy, PUMP.delta_omega_for(cfg.tgamma))
        assert norm == pytest.approx(expected, rel=1.5e-4)

    def test_default_window_spans_the_slower_decay(self):
        """The default window is 20/min(gamma, tgamma); an explicit one keeps
        its meaning in units of 1/gamma."""
        for r in (0.05, 0.175, 1.0, 5.7):
            grid = discretize_wavepacket(UNIT_RING, _unit_design(r), PULSE, 16)
            assert grid.t_axis[-1] == pytest.approx(20.0 * max(1.0, 1.0 / r), rel=1e-15)
            explicit = discretize_wavepacket(UNIT_RING, _unit_design(r), PULSE, 16, 20.0)
            assert explicit.t_axis[-1] == 20.0

    def test_doubling_points_stabilizes_k(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.distinct(1.46 * gc, 3.17 * gc, gc)
        k512 = schmidt_spectrum(_grid(ring, cfg, 512)).K
        k1024 = schmidt_spectrum(_grid(ring, cfg, 1024)).K
        assert abs(k1024 - k512) < 1e-4

    def test_grid_convergence_at_benchmark_points(self, algaas):
        ring, gc = algaas
        configs = (
            CouplingConfig.all_pass(gc, gc),
            CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc),
            CouplingConfig.distinct(0.5 * gc, 0.5 * gc, gc, tgamma_c=74.5 * gc),
        )
        for cfg in configs:
            k512 = schmidt_spectrum(_grid(ring, cfg, 512)).K
            k1024 = schmidt_spectrum(_grid(ring, cfg, 1024)).K
            assert abs(k1024 - k512) < 1e-3

    def test_grid_validation(self):
        cfg = CouplingConfig.all_pass(1.0, 1.0)
        for n_points in (15, 100.7, 64.0, True):
            with pytest.raises(ValueError, match="n_points"):
                discretize_wavepacket(UNIT_RING, cfg, PUMP, n_points)
        assert discretize_wavepacket(UNIT_RING, cfg, PUMP, np.int64(16)).n_points == 16
        for t_max in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_max_over_gamma must be strictly positive and finite"):
                discretize_wavepacket(UNIT_RING, cfg, PUMP, 32, t_max)
        t = np.linspace(0.0, 1.0, 32)
        w = np.full(32, t[1] - t[0])
        good = np.exp(-np.add.outer(t, t)).astype(complex)
        with pytest.raises(ValueError, match=">= 16"):
            WavepacketGrid(t[:8], good[:8, :8], w[:8])
        with pytest.raises(ValueError, match="increasing"):
            WavepacketGrid(t[::-1], good, w)
        with pytest.raises(ValueError, match="finite"):
            bad = good.copy()
            bad[3, 3] = np.nan
            WavepacketGrid(t, bad, w)
        with pytest.raises(ValueError, match="norm"):
            WavepacketGrid(t, np.zeros_like(good), w)


class TestSchmidtSpectrum:
    def test_identical_coupling_benchmark(self, algaas):
        ring, gc = algaas
        res = schmidt_spectrum(_grid(ring, CouplingConfig.all_pass(gc, gc)))
        assert res.K == pytest.approx(1.091, abs=2e-3)

    def test_distinct_benchmarks(self, algaas):
        ring, gc = algaas
        res1 = schmidt_spectrum(_grid(ring, CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc)))
        assert res1.K == pytest.approx(1.119, abs=5e-3)
        res2 = schmidt_spectrum(_grid(ring, CouplingConfig.distinct(1.46 * gc, 3.17 * gc, gc)))
        assert res2.K == pytest.approx(1.199, abs=5e-3)

    def test_benchmarks_at_384_points(self, algaas):
        ring, gc = algaas
        k = [
            schmidt_spectrum(_grid(ring, CouplingConfig.distinct(tga * gc, gb * gc, gc), n=384)).K
            for tga, gb in ((1.46, 3.17), (1.0, 1.0), (2.0, 2.0), (0.5, 3.0))
        ]
        assert all(v >= 1.0 for v in k)
        assert k[0] == pytest.approx(1.199, abs=5e-3)
        # identical pump/biphoton linewidths land on the same kernel shape
        for v in k[1:3]:
            assert v == pytest.approx(1.091, abs=3e-3)

    def test_separable_limit(self, algaas):
        """Pump linewidth far above the biphoton linewidth factorizes the
        wavepacket."""
        ring, gc = algaas
        cfg = CouplingConfig.distinct(0.5 * gc, 0.5 * gc, gc, tgamma_c=74.5 * gc)
        assert cfg.tgamma == pytest.approx(50.0 * cfg.gamma)
        res = schmidt_spectrum(_grid(ring, cfg))
        assert res.K == pytest.approx(1.0, abs=1e-2)

    def test_coefficients_normalized_descending(self, algaas):
        ring, gc = algaas
        res = schmidt_spectrum(_grid(ring, CouplingConfig.all_pass(gc, gc), n=128))
        assert res.lambdas.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(res.lambdas) <= 0.0)
        assert res.K >= 1.0

    def test_scale_invariance(self, algaas):
        ring, gc = algaas
        grid = _grid(ring, CouplingConfig.distinct(1.2 * gc, 2.0 * gc, gc), n=128)
        k_ref = schmidt_spectrum(grid).K
        for factor in (1e-6, 1.0, 1e6, 1j):
            scaled = WavepacketGrid(
                grid.t_axis, grid.amplitudes * factor, grid.weights
            )
            assert schmidt_spectrum(scaled).K == pytest.approx(k_ref, rel=1e-12)

    def test_exchange_invariance(self, algaas):
        ring, gc = algaas
        grid = _grid(ring, CouplingConfig.distinct(0.7 * gc, 2.4 * gc, gc), n=128)
        transposed = WavepacketGrid(grid.t_axis, grid.amplitudes.T, grid.weights)
        assert schmidt_spectrum(transposed).K == pytest.approx(
            schmidt_spectrum(grid).K, rel=1e-12
        )

    def test_svd_reconstruction(self, algaas):
        ring, gc = algaas
        grid = _grid(ring, CouplingConfig.all_pass(1.3 * gc, gc), n=128)
        sw = np.sqrt(grid.weights)
        m = sw[:, None] * grid.amplitudes * sw[None, :]
        u, s, vh = np.linalg.svd(m)
        rebuilt = (u * s) @ vh
        err = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert err < 1e-10


@st.composite
def random_grids(draw):
    """Random grids of rank 1..n: real symmetric, real non-symmetric or complex,
    with non-uniform weights and amplitudes spanning many decades."""
    kind = draw(st.sampled_from(("symmetric", "real", "complex")))
    n = draw(st.integers(16, 40))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-30, 30))

    def factor():
        f = rng.standard_normal((n, rank))
        return f + 1j * rng.standard_normal((n, rank)) if kind == "complex" else f

    left = factor()
    amplitudes = left @ (left.T if kind == "symmetric" else factor().T)
    t = np.cumsum(rng.uniform(0.5, 1.5, n))
    return WavepacketGrid(t, scale * amplitudes, rng.uniform(0.5, 1.5, n))


def _svd_schmidt_number(grid):
    sw = np.sqrt(grid.weights)
    sigma = np.linalg.svd(sw[:, None] * grid.amplitudes * sw[None, :], compute_uv=False)
    lam = sigma**2 / np.sum(sigma**2)
    return 1.0 / np.sum(lam**2)


class TestSchmidtNumber:
    """The grid Schmidt number, ``1/sum(lambda^2)`` of the SVD spectrum."""

    @pytest.mark.parametrize("r, n", [(0.175, 192), (1.0, 256), (5.7, 512)])
    def test_is_the_inverse_purity_of_the_gram_matrix(self, r, n):
        """``(tr G)^2 / ||G||_F^2`` of ``G = M^T M``, whose eigenvalues are
        the squared singular values of ``M``, is the same K."""
        grid = discretize_wavepacket(UNIT_RING, _unit_design(r), PULSE, n, 20.0)
        sw = np.sqrt(grid.weights)
        m = sw[:, None] * grid.amplitudes * sw[None, :]
        g = m.T @ m
        oracle = np.trace(g) ** 2 / np.sum(g * g)
        assert schmidt_spectrum(grid).K == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(random_grids())
    def test_matches_svd(self, grid):
        assert schmidt_spectrum(grid).K == pytest.approx(_svd_schmidt_number(grid), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_grids(), st.sampled_from((1e-6, -3.0, 1e6, 1j, 2.0 - 5.0j)))
    def test_invariant_under_scaling_and_transposition(self, grid, factor):
        k = schmidt_spectrum(grid).K
        scaled = WavepacketGrid(grid.t_axis, grid.amplitudes * factor, grid.weights)
        transposed = WavepacketGrid(grid.t_axis, grid.amplitudes.T, grid.weights)
        assert schmidt_spectrum(scaled).K == pytest.approx(k, rel=1e-12)
        assert schmidt_spectrum(transposed).K == pytest.approx(k, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(random_grids())
    def test_grid_spectrum_lists_every_coefficient(self, grid):
        """All N coefficients are listed, so nothing is left for the tail."""
        res = schmidt_spectrum(grid)
        assert res.lambdas.size == grid.n_points and res.tail == 0.0
        assert res.K_minus_1 == res.K - 1.0

    def test_zero_or_overflowing_grid_raises(self):
        t = np.linspace(0.0, 1.0, 32)
        w = np.full(32, t[1] - t[0])
        # the constructor rejects a zero grid, so build one past it
        zero = object.__new__(WavepacketGrid)
        for name, value in (("t_axis", t), ("amplitudes", np.zeros((32, 32))), ("weights", w)):
            object.__setattr__(zero, name, value)
        # nonzero samples whose squares underflow
        tiny = WavepacketGrid(t, np.full((32, 32), 1e-170), w)
        with np.errstate(over="ignore"):
            # finite samples whose squared norm overflows
            huge = WavepacketGrid(t, np.full((32, 32), 1e160), w)
            for grid in (zero, tiny, huge):
                with pytest.raises(DecompositionError, match="zero/non-finite norm"):
                    schmidt_spectrum(grid)

    def test_grid_keeps_real_amplitudes_real(self):
        t = np.linspace(0.0, 1.0, 16)
        w = np.full(16, t[1] - t[0])
        ones = np.ones((16, 16), dtype=int)
        assert WavepacketGrid(t, ones, w).amplitudes.dtype == np.float64
        assert WavepacketGrid(t, ones.astype(np.complex64), w).amplitudes.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_grid_copies_the_callers_arrays(self, dtype):
        t = np.linspace(0.0, 1.0, 16)
        w = np.full(16, t[1] - t[0])
        amplitudes = np.ones((16, 16), dtype=dtype)
        grid = WavepacketGrid(t, amplitudes, w)
        for arr in (t, amplitudes, w):
            assert arr.flags.writeable
            arr *= 2.0
        assert np.all(grid.amplitudes == 1.0) and grid.t_axis[-1] == 1.0
        assert grid.weights[0] == pytest.approx(1.0 / 15.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_discretize_returns_float64(self, algaas, seed):
        ring, gc = algaas
        cfg = random_coupling(np.random.default_rng(seed), gamma_c=gc)
        grid = discretize_wavepacket(ring, cfg, PUMP, 32)
        assert grid.amplitudes.dtype == np.float64


PULSE = PumpSpec.pulsed(1.0, bandwidth_factor=10.0)


def _unit_design(r):
    """The design gamma = 1, tgamma = r."""
    return CouplingConfig.distinct(0.5 * r, 0.5, 0.5, tgamma_c=0.5 * r)


def _k_exact(r):
    return (2.0 * r + 1.0) * (3.0 * r + 1.0) / (r * (6.0 * r + 5.0))


def _library_k(r, n, t_max):
    """Grid K of the unit design by the library path."""
    return schmidt_spectrum(discretize_wavepacket(UNIT_RING, _unit_design(r), PULSE, n, t_max)).K


class TestGridKernel:
    """The sweep's O(N) recurrence K against the library grid path."""

    @pytest.mark.parametrize("n", [16, 192, 400])
    @pytest.mark.parametrize("t_max", [5.0, 400.0, 5000.0])
    def test_matches_library_grid_at_extremes(self, n, t_max):
        r = np.array([1e-3, 0.05, 1.0, 30.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = _schmidt_number_kernel(r, n, t_max)
        assert np.all(np.isfinite(k)) and np.all(k >= 1.0 - 1e-12)
        for value, ratio in zip(k.tolist(), r.tolist()):
            assert value == pytest.approx(_library_k(ratio, n, t_max), rel=1e-13, abs=0.0)

    def test_continuous_across_degenerate_ratio(self):
        r = np.array([1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 - 2e-6, 1.0 + 2e-6])
        k = _schmidt_number_kernel(r, 192, 20.0)
        assert k[[0, 2]] == pytest.approx([k[1]] * 2, rel=1e-12, abs=0.0)
        # the exact bracket moves K by O(r - 1) only on either side of r = 1
        assert k[[3, 4]] == pytest.approx([k[1]] * 2, rel=1e-5, abs=0.0)

    def test_repeated_ratios_share_one_value(self):
        r = np.array([2.0, 0.5, 2.0, 0.5, 0.5])
        k = _schmidt_number_kernel(r, 48, 20.0)
        assert k[0] == k[2] and k[1] == k[3] == k[4] and k[0] != k[1]

    def test_zero_norm_raises(self):
        """Every sample after t = 0 underflows at N = 16 over 20000/gamma: the
        kernel raises, as the library grid does, and emits no NaN."""
        with pytest.raises(ValueError, match="weighted squared norm must be > 0"):
            _schmidt_number_kernel(np.array([1.0, 2.0]), 16, 20000.0)
        with pytest.raises(ValueError, match="weighted squared norm must be > 0"):
            _library_k(1.0, 16, 20000.0)

    def test_allocates_no_square_grid(self):
        n = 400
        _schmidt_number_kernel(np.array([0.7]), n, 20.0)  # warm up
        tracemalloc.start()
        try:
            _schmidt_number_kernel(np.array([0.7]), n, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # an eighth of one N x N float64 array


@settings(max_examples=12, deadline=None)
@given(st.floats(0.175, 5.7))
def test_richardson_grid_k_on_default_window_meets_closed_form(r):
    """On the default window, 20*max(1, 1/r) in units of 1/gamma, two
    Richardson steps (h^2, then h^4) over N = 257/513/1025/2049 bring the
    grid K to the closed form; the fixed 20/gamma window stays ~4.7e-3 low
    at r = 0.175."""
    t_max = 20.0 * max(1.0, 1.0 / r)
    k = np.array([_schmidt_number_kernel(np.array([r]), n, t_max)[0]
                  for n in (257, 513, 1025, 2049)])
    k = (4.0 * k[1:] - k[:-1]) / 3.0
    k = (16.0 * k[1:] - k[:-1]) / 15.0
    assert k[-1] == pytest.approx(_k_exact(r), rel=1e-8, abs=0.0)


def _bessel_zeros(nu, count):
    """The first ``count`` positive zeros of J_nu, nu > -1, by a sign scan in
    steps of 1.5 (below the ~3.1 spacing of the zeros of any such order)
    from max(nu, 0), below which J_nu has no zero, then a bracketed root."""
    f = lambda x: mpmath.besselj(nu, x)  # noqa: E731
    a = max(nu, 0) + mpmath.mpf("1e-20")
    fa, zeros = f(a), []
    while len(zeros) < count:
        b = a + 1.5
        fb = f(b)
        if (fa > 0) != (fb > 0):
            zeros.append(mpmath.findroot(f, (a, b), solver="anderson"))
        a, fa = b, fb
    return zeros


class TestExactSpectrum:
    """The Bessel-zero Schmidt spectrum of the broadband wavepacket."""

    @pytest.mark.parametrize("r", [1e-3, 4e-3, 0.016, 0.063, 0.175, 0.25, 1.0, 4.0, 16.0, 250.0, 1e3])
    def test_coefficients_match_mpmath_bessel_zeros(self, r):
        """``besseljzero`` rejects negative orders, so the zeros come from a
        sign scan of ``besselj`` for every order alike."""
        with mpmath.workdps(30):
            q = 1 / mpmath.mpf(r)  # nu + 1
            expected = [float(16 * q**2 * (q + 1) / j**4) for j in _bessel_zeros(q - 1, 8)]
        res = schmidt_spectrum_broadband(_unit_design(r), PULSE)
        np.testing.assert_allclose(res.lambdas, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.175, 1.0, 5.7, 1e6])
    def test_trace_is_rayleighs_sum(self, r):
        """The matrix's eigenvalues tend to 1/j^2 (unscaled), whose sum is
        1/(4(nu+1)); its ``n``-row trace telescopes to that less
        1/(4(nu+1+2n))."""
        q = 1.0 / r
        for rows in (8, 64, 1000):
            trace = np.trace(_ikebe_matrix(q, rows)) / (4.0 * q)
            assert trace + 1.0 / (4.0 * (q + 2.0 * rows)) == pytest.approx(
                1.0 / (4.0 * q), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.05, 0.175, 1.0, 5.7, 1e3, 1e6])
    def test_listed_coefficients_and_tail_sum_to_one(self, r):
        res = schmidt_spectrum_broadband(_unit_design(r), PULSE)
        assert res.lambdas.size == 8 and res.tail >= 0.0
        assert res.lambdas.sum() + res.tail == pytest.approx(1.0, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("r", [0.175, 0.667, 2.0, 5.7])
    def test_closed_form_k_is_the_inverse_purity_of_the_spectrum(self, r):
        """Rayleigh's sums of 1/j^4 and 1/j^8: 1/sum(lambda^2) over the whole
        spectrum of a 400-row matrix is the closed-form K."""
        q = 1.0 / r
        s = np.linalg.eigvalsh(_ikebe_matrix(q, 400))
        lam = (q + 1.0) * s * s
        res = schmidt_spectrum_broadband(_unit_design(r), PULSE)
        assert 1.0 / np.sum(lam * lam) == pytest.approx(res.K, rel=1e-13, abs=0.0)
        assert res.K == pytest.approx(_k_exact(r), rel=1e-15, abs=0.0)
        assert res.K_minus_1 == pytest.approx(1.0 / (r * (6.0 * r + 5.0)), rel=1e-15, abs=0.0)

    def test_k_minus_1_has_no_cancellation(self):
        """At r = 1e6, K - 1 = 1.7e-13 to full precision, where K - 1.0
        keeps three digits."""
        res = schmidt_spectrum_broadband(_unit_design(1e6), PULSE)
        exact = Fraction(1) / (Fraction(10**6) * (6 * Fraction(10**6) + 5))
        assert res.K_minus_1 == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        assert res.K == 1.0 + res.K_minus_1

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.02, 50.0), st.floats(0.1, 10.0), st.floats(-8.0, 8.0))
    def test_invariant_under_common_scale(self, tga, gb, log_scale):
        """(tgamma, gamma) -> (s*tgamma, s*gamma) leaves the spectrum alone."""
        base = schmidt_spectrum_broadband(CouplingConfig.distinct(tga, gb, 1.0), PULSE)
        s = 10.0 ** log_scale
        scaled = schmidt_spectrum_broadband(CouplingConfig.distinct(s * tga, s * gb, s), PULSE)
        assert scaled.K == pytest.approx(base.K, rel=1e-14, abs=0.0)
        np.testing.assert_allclose(scaled.lambdas, base.lambdas, rtol=1e-12, atol=0.0)

    def test_criterion_4_designs(self, algaas):
        """The three benchmark designs of acceptance criterion 4, exactly:
        K = 12/11 = 1.0909..., 1.1191... and 1.1985..."""
        ring, gc = algaas
        pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)
        for cfg, r, rounded in (
            (CouplingConfig.all_pass(gc, gc), Fraction(1), 1.0909),
            (CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc), Fraction(237, 283), 1.1191),
            (CouplingConfig.distinct(1.46 * gc, 3.17 * gc, gc), Fraction(246, 417), 1.1985),
        ):
            exact = (2 * r + 1) * (3 * r + 1) / (r * (6 * r + 5))
            k = schmidt_spectrum_broadband(cfg, pump).K
            assert k == pytest.approx(float(exact), rel=1e-14, abs=0.0)
            assert k == pytest.approx(rounded, abs=5e-5)

    def test_rejects_what_the_grid_rejects(self, algaas):
        ring, gc = algaas
        cfg = CouplingConfig.all_pass(gc, gc)
        with pytest.raises(ValueError, match="requires a pulsed pump"):
            schmidt_spectrum_broadband(cfg, PumpSpec.cw(1e-5))
        spectrum = TabulatedSpectrum.flattop(10.0 * cfg.tgamma, n_samples=11)
        with pytest.raises(ValueError, match="tabulated pump spectrum"):
            schmidt_spectrum_broadband(cfg, PumpSpec.pulsed(1e-12, spectrum=spectrum))
        with pytest.raises(ValueError, match="broadband forms require"):
            schmidt_spectrum_broadband(cfg, PumpSpec.pulsed(1e-12, bandwidth_factor=4.0))
        with pytest.raises(ValueError, match="broadband forms require"):
            discretize_wavepacket(ring, cfg, PumpSpec.pulsed(1e-12, bandwidth_factor=4.0), 16)
        with pytest.warns(BroadbandAssumptionWarning, match="marginal") as caught:
            schmidt_spectrum_broadband(cfg, PumpSpec.pulsed(1e-12, bandwidth_factor=7.0))
        assert len(caught) == 1 and caught[0].filename == __file__
        with pytest.raises(ValueError, match="tgamma/gamma >= 1e-06"):
            schmidt_spectrum_broadband(_unit_design(5e-7), PULSE)

    def test_builds_no_wavepacket_grid(self):
        """Only the 64-row Ikebe matrix is allocated, an eighth of a
        512-point float64 grid's 2 MB at most."""
        schmidt_spectrum_broadband(_unit_design(0.7), PULSE)  # warm up
        tracemalloc.start()
        try:
            schmidt_spectrum_broadband(_unit_design(0.7), PULSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512  # bytes

    def test_result_rejects_mass_that_does_not_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SchmidtResult(lambdas=[0.5, 0.3], K=2.0, K_minus_1=1.0, tail=0.1)
        with pytest.raises(ValueError, match="tail"):
            SchmidtResult(lambdas=[1.0], K=1.0, K_minus_1=0.0, tail=-0.1)
