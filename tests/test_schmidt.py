"""Wavepacket discretization and Schmidt decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    CouplingConfig,
    DecompositionError,
    PumpSpec,
    WavepacketGrid,
    discretize_wavepacket,
    pulsed_pair_prob,
    TabulatedSpectrum,
    schmidt_number,
    schmidt_spectrum,
)

from conftest import random_coupling

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
        expected = pulsed_pair_prob(ring, cfg, PUMP.energy, PUMP.delta_omega_for(cfg.tgamma))
        assert grid.weighted_norm == pytest.approx(expected, rel=1.5e-4)

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
            schmidt_number(_grid(ring, CouplingConfig.distinct(tga * gc, gb * gc, gc), n=384))
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
    """The inverse-purity Schmidt number against the SVD definition."""

    @settings(max_examples=150, deadline=None)
    @given(random_grids())
    def test_matches_svd(self, grid):
        assert schmidt_number(grid) == pytest.approx(_svd_schmidt_number(grid), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_grids(), st.sampled_from((1e-6, -3.0, 1e6, 1j, 2.0 - 5.0j)))
    def test_invariant_under_scaling_and_transposition(self, grid, factor):
        k = schmidt_number(grid)
        scaled = WavepacketGrid(grid.t_axis, grid.amplitudes * factor, grid.weights)
        transposed = WavepacketGrid(grid.t_axis, grid.amplitudes.T, grid.weights)
        assert schmidt_number(scaled) == pytest.approx(k, rel=1e-12)
        assert schmidt_number(transposed) == pytest.approx(k, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(random_grids())
    def test_spectrum_reports_the_same_k(self, grid):
        assert schmidt_spectrum(grid).K == schmidt_number(grid)

    def test_zero_or_overflowing_grid_raises(self):
        t = np.linspace(0.0, 1.0, 32)
        w = np.full(32, t[1] - t[0])
        # the constructor rejects a zero grid, so build one past it
        zero = object.__new__(WavepacketGrid)
        for name, value in (("t_axis", t), ("amplitudes", np.zeros((32, 32))), ("weights", w)):
            object.__setattr__(zero, name, value)
        with np.errstate(over="ignore"):
            # finite samples whose squared norm overflows
            huge = WavepacketGrid(t, np.full((32, 32), 1e160), w)
            for grid in (zero, huge):
                with pytest.raises(DecompositionError, match="zero/non-finite norm"):
                    schmidt_number(grid)
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
