"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line (run
with ``pytest -s`` to see them).  Every tolerance is pinned here, not
calibrated elsewhere.
"""

import json
import time
from fractions import Fraction

import numpy as np

from ringsfwm import (
    CouplingConfig,
    Geometry,
    Objective,
    OptimizationTarget,
    PumpRegime,
    PumpSpec,
    analytic_optimum,
    cw_pair_rate,
    cw_single_rate,
    discretize_wavepacket,
    numeric_optimum,
    pulsed_pair_prob,
    pulsed_single_prob,
    pulsed_wavepacket,
    quality_factors,
    rate_scale_R0,
    schmidt_spectrum,
    tolerance_band,
)
from ringsfwm.cli import main as cli_main
from ringsfwm.sweep import algaas_example

from conftest import (
    UNIT_RING,
    cw_pair_rate_quadrature,
    pulsed_pair_prob_quadrature,
    pulsed_single_prob_quadrature_broadband,
    random_coupling,
    ratio_spread_ulps,
)

CW = PumpRegime.CW
PULSE = PumpRegime.BROADBAND_PULSE
ONE = Objective.ONE_PHOTON
TWO = Objective.TWO_PHOTON


class Checks:
    """Collects named pass/fail checks for one criterion."""

    def __init__(self):
        self.failures = []
        self.count = 0

    def check(self, label, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(f"{label}" + (f" [{detail}]" if detail else ""))

    def approx(self, label, got, want, rel=None, abs=None):
        if rel is not None:
            ok = bool(np.isclose(got, want, rtol=rel, atol=0.0))
        else:
            ok = bool(np.isclose(got, want, rtol=0.0, atol=abs))
        self.check(label, ok, f"got {got!r}, want {want!r}")


def _finish(number, title, checks, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        checks.check(f"runtime < {budget:g} s", elapsed < budget, f"{elapsed:.1f} s")
    status = "PASS" if not checks.failures else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {status}  "
          f"[{checks.count} checks, {elapsed:.1f} s]")
    for failure in checks.failures:
        print(f"    FAILED CHECK: {failure}")
    assert not checks.failures, f"criterion {number} ({title}): {checks.failures}"


CW_TABLE = {
    (Geometry.ALL_PASS_IDENTICAL, ONE): ((Fraction(1),), Fraction(1, 2)),
    (Geometry.ALL_PASS_IDENTICAL, TWO): ((Fraction(4, 3),), Fraction(221184, 823543)),
    (Geometry.ADD_DROP_IDENTICAL, ONE): ((Fraction(2, 3), Fraction(1, 3)), Fraction(2, 27)),
    (Geometry.ADD_DROP_IDENTICAL, TWO): ((Fraction(2, 3), Fraction(2, 3)), Fraction(13824, 823543)),
    (Geometry.ADD_DROP_DISTINCT, ONE): ((Fraction(1), Fraction(1)), Fraction(1, 2)),
    (Geometry.ADD_DROP_DISTINCT, TWO): ((Fraction(1), Fraction(2)), Fraction(8, 27)),
}

PULSED_RATIONALS = {
    (Geometry.ALL_PASS_IDENTICAL, ONE): ((Fraction(3, 2),), Fraction(54, 3125)),
    (Geometry.ALL_PASS_IDENTICAL, TWO): ((Fraction(2),), Fraction(8, 729)),
    (Geometry.ADD_DROP_IDENTICAL, ONE): ((Fraction(1), Fraction(1, 2)), Fraction(8, 3125)),
    (Geometry.ADD_DROP_IDENTICAL, TWO): ((Fraction(1), Fraction(1)), Fraction(1, 1458)),
}


def test_criterion_1_cw_optima_table():
    t0 = time.perf_counter()
    checks = Checks()
    for (geometry, objective), (couplings, value) in CW_TABLE.items():
        target = OptimizationTarget(objective, CW)
        rec = analytic_optimum(geometry, target)
        label = f"{geometry.value}/{objective.value}"
        for got, want in zip(rec.couplings, couplings):
            checks.approx(f"{label} analytic coupling", got, float(want), rel=1e-12)
        checks.approx(f"{label} analytic peak", rec.peak_value, float(value), rel=1e-12)
        num = numeric_optimum(geometry, target)
        for got, want in zip(num.couplings, couplings):
            checks.check(
                f"{label} numeric argmax within 1e-3",
                abs(got - float(want)) <= 1e-3,
                f"got {got!r}, want {float(want)!r}",
            )
        checks.approx(f"{label} numeric peak", num.peak_value, float(value), rel=1e-6)
    _finish(1, "CW optimal-coupling table", checks, t0, budget=10.0)


def test_criterion_2_pulsed_optima_table():
    t0 = time.perf_counter()
    checks = Checks()
    for (geometry, objective), (couplings, value) in PULSED_RATIONALS.items():
        rec = analytic_optimum(geometry, OptimizationTarget(objective, PULSE))
        label = f"{geometry.value}/{objective.value}"
        for got, want in zip(rec.couplings, couplings):
            checks.approx(f"{label} analytic coupling", got, float(want), rel=1e-12)
        checks.approx(f"{label} analytic peak", rec.peak_value, float(value), rel=1e-12)

    singles = numeric_optimum(Geometry.ADD_DROP_DISTINCT, OptimizationTarget(ONE, PULSE))
    checks.approx("distinct singles argmax[0]", singles.couplings[0], 1.37, abs=0.01)
    checks.approx("distinct singles argmax[1]", singles.couplings[1], 1.83, abs=0.01)
    checks.approx("distinct singles peak", singles.peak_value, 0.0173, abs=0.0002)

    pairs = numeric_optimum(Geometry.ADD_DROP_DISTINCT, OptimizationTarget(TWO, PULSE))
    checks.approx("distinct pairs argmax[0]", pairs.couplings[0], 1.46, abs=0.01)
    checks.approx("distinct pairs argmax[1]", pairs.couplings[1], 3.17, abs=0.01)
    checks.approx("distinct pairs peak", pairs.peak_value, 0.0125, abs=0.0002)
    _finish(2, "pulsed optimal-coupling table", checks, t0, budget=30.0)


def test_criterion_3_algaas_worked_example():
    t0 = time.perf_counter()
    checks = Checks()
    ring, gc = algaas_example()
    checks.approx("R0/2", rate_scale_R0(ring, 10e-6, gc) / 2.0, 3.81e6, rel=0.01)
    qc, _ = quality_factors(ring, CouplingConfig.all_pass(gc, gc))
    checks.approx("intrinsic Q", qc, 2.72e6, rel=0.01)
    checks.approx("FSR", ring.fsr, 95.4e9, rel=0.01)
    _finish(3, "AlGaAs worked example", checks, t0)


def test_criterion_4_schmidt_benchmarks():
    t0 = time.perf_counter()
    checks = Checks()
    ring, gc = algaas_example()
    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)

    def k_of(cfg):
        return schmidt_spectrum(discretize_wavepacket(ring, cfg, pump, 512, 20.0)).K

    checks.approx(
        "identical-coupling K", k_of(CouplingConfig.all_pass(gc, gc)), 1.091, abs=0.002
    )
    checks.approx(
        "K at (1.37, 1.83)",
        k_of(CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc)), 1.119, abs=0.005,
    )
    checks.approx(
        "K at (1.46, 3.17)",
        k_of(CouplingConfig.distinct(1.46 * gc, 3.17 * gc, gc)), 1.199, abs=0.005,
    )
    separable = CouplingConfig.distinct(0.5 * gc, 0.5 * gc, gc, tgamma_c=74.5 * gc)
    checks.approx("separable-limit K", k_of(separable), 1.0, abs=0.01)
    _finish(4, "Schmidt-number benchmarks", checks, t0, budget=60.0)


def test_criterion_5_quadrature_oracles():
    t0 = time.perf_counter()
    checks = Checks()
    ring, gc = algaas_example()
    rng = np.random.default_rng(5)

    worst_cw = 0.0
    for _ in range(100):
        cfg = random_coupling(rng, gamma_c=gc)
        oracle = cw_pair_rate_quadrature(ring, cfg, 10e-6)
        closed = cw_pair_rate(ring, cfg, 10e-6)
        worst_cw = max(worst_cw, abs(closed - oracle) / oracle)
    checks.check("CW pair rate vs wavepacket quadrature (100 configs)",
                 worst_cw < 1e-5, f"worst rel dev {worst_cw:.2e}")

    worst_pulsed = 0.0
    for _ in range(100):
        cfg = random_coupling(rng, gamma_c=gc)
        dw = 20.0 * cfg.tgamma
        oracle = pulsed_pair_prob_quadrature(ring, cfg, 1e-12, dw)
        closed = pulsed_pair_prob(ring, cfg, 1e-12, dw)
        worst_pulsed = max(worst_pulsed, abs(closed - oracle) / oracle)
    checks.check("pulsed pair probability vs wavepacket quadrature (100 configs)",
                 worst_pulsed < 1e-5, f"worst rel dev {worst_pulsed:.2e}")

    worst_singles = 0.0
    for _ in range(10):
        cfg = random_coupling(rng, gamma_c=gc)
        dw = 30.0 * cfg.tgamma
        oracle = pulsed_single_prob_quadrature_broadband(ring, cfg, 1e-12, dw)
        closed = pulsed_single_prob(ring, cfg, 1e-12, dw)
        worst_singles = max(worst_singles, abs(closed - oracle) / oracle)
    checks.check("pulsed singles probability vs spectral quadrature (10 configs)",
                 worst_singles < 1e-5, f"worst rel dev {worst_singles:.2e}")
    _finish(5, "quadrature-vs-closed-form oracles", checks, t0)


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    checks = Checks()
    rng = np.random.default_rng(6)

    worst_cw = worst_pulsed = 0.0
    for _ in range(1000):
        cfg = random_coupling(rng, lo=0.05, hi=8.0)
        rs = cw_single_rate(UNIT_RING, cfg, 1.0)
        rsi = cw_pair_rate(UNIT_RING, cfg, 1.0)
        worst_cw = max(worst_cw, abs(rsi - cfg.gamma_mu / cfg.gamma * rs) / rsi)
        dw = 20.0 * cfg.tgamma
        ps = pulsed_single_prob(UNIT_RING, cfg, 1e-3, dw)
        psi = pulsed_pair_prob(UNIT_RING, cfg, 1e-3, dw)
        worst_pulsed = max(worst_pulsed, abs(psi - cfg.gamma_mu / cfg.gamma * ps) / psi)
    checks.check("pair = heralding * singles (CW, 1000 configs)",
                 worst_cw < 1e-13, f"worst rel dev {worst_cw:.2e}")
    checks.check("pair = heralding * singles (pulsed, 1000 configs)",
                 worst_pulsed < 1e-13, f"worst rel dev {worst_pulsed:.2e}")

    ring, gc = algaas_example()
    cfg = CouplingConfig.distinct(1.2 * gc, 2.1 * gc, gc)
    dw = 20.0 * cfg.tgamma
    t_pos = np.linspace(0.1, 8.0, 7) / cfg.gamma
    causal_ok = all(
        pulsed_wavepacket(ring, cfg, 1e-12, dw, -t, s) == 0.0
        and pulsed_wavepacket(ring, cfg, 1e-12, dw, s, -t) == 0.0
        for t in t_pos for s in t_pos
    )
    checks.check("wavepacket vanishes on negative-time quadrants", causal_ok)
    ts, ti = np.meshgrid(t_pos, t_pos)
    psi_grid = pulsed_wavepacket(ring, cfg, 1e-12, dw, ts, ti)
    checks.check("wavepacket exchange symmetry",
                 bool(np.all(psi_grid == psi_grid.T)))

    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=20.0)
    grid = discretize_wavepacket(ring, cfg, pump, 192, 20.0)
    k_ref = schmidt_spectrum(grid).K
    checks.check("Schmidt number >= 1", k_ref >= 1.0, f"K = {k_ref!r}")
    from ringsfwm import WavepacketGrid

    scale_ok = True
    for factor in (1e-6, 1.0, 1e6, 1j):
        scaled = WavepacketGrid(grid.t_axis, grid.amplitudes * factor, grid.weights)
        k = schmidt_spectrum(scaled).K
        scale_ok = scale_ok and abs(k - k_ref) <= 1e-12 * k_ref
    checks.check("Schmidt number scale invariance (1e-12 relative)", scale_ok)

    # The drop-coupling argmax cannot move with the pump coupling when the
    # pair rate factorizes: rates at two pump couplings keep one ratio over
    # the whole gamma_b scan, up to the kernel's roundings.
    spread = ratio_spread_ulps(
        lambda tga, gb: cw_pair_rate(UNIT_RING, CouplingConfig.distinct(tga, gb, 1.0), 1.0),
        np.linspace(0.2, 5.0, 10), np.geomspace(0.05, 10.0, 121),
    )
    checks.check("CW distinct pair-rate factorization in the pump coupling (16 ulps)",
                 spread <= 16.0, f"spread {spread:.1f} ulps")
    _finish(6, "identity and symmetry suite", checks, t0)


def test_criterion_7_ratio_claims():
    t0 = time.perf_counter()
    checks = Checks()
    two = {
        geo: analytic_optimum(geo, OptimizationTarget(TWO, CW)).peak_value
        for geo in Geometry
    }
    checks.approx(
        "all-pass / add-drop-identical",
        two[Geometry.ALL_PASS_IDENTICAL] / two[Geometry.ADD_DROP_IDENTICAL],
        16.0, abs=0.1,
    )
    checks.approx(
        "distinct / all-pass",
        two[Geometry.ADD_DROP_DISTINCT] / two[Geometry.ALL_PASS_IDENTICAL],
        1.103, abs=0.005,
    )
    checks.approx(
        "distinct / add-drop-identical",
        two[Geometry.ADD_DROP_DISTINCT] / two[Geometry.ADD_DROP_IDENTICAL],
        17.65, abs=0.1,
    )
    _finish(7, "two-photon ratio claims", checks, t0)


def test_criterion_8_tolerance_band():
    t0 = time.perf_counter()
    checks = Checks()
    lo, hi = tolerance_band(0.5)
    checks.approx("band lower endpoint", lo, 0.30, abs=0.02)
    checks.approx("band upper endpoint", hi, 3.4, abs=0.02)
    _finish(8, "50%-of-peak coupling band", checks, t0)


def test_criterion_9_figure_commands(tmp_path):
    t0 = time.perf_counter()
    checks = Checks()
    grid_n = 60
    cell = (5.0 / 0.05) ** (1.0 / (grid_n - 1))

    def assert_max_near(meta, output, expected, label):
        found = meta["observed_maxima"][output]["point_over_gamma_c"]
        for got, want in zip(found, expected):
            ok = want / cell <= got <= want * cell
            checks.check(f"{label} {output} maximum within one grid cell",
                         ok, f"got {got:.4f}, want {want:.4f} (cell x{cell:.3f})")

    stem2 = tmp_path / "fig2"
    assert cli_main(["figure2", "--grid", str(grid_n), "--refine", "--out", str(stem2)]) == 0
    panels2 = {
        "a": (Geometry.ALL_PASS_IDENTICAL, ("Rs", "Rsi")),
        "b": (Geometry.ADD_DROP_IDENTICAL, ("Rs", "Rsi")),
        "c": (Geometry.ADD_DROP_DISTINCT, ("Rs", "Rsi")),
    }
    for label, (geometry, outputs) in panels2.items():
        meta = json.loads((tmp_path / f"fig2_{label}.json").read_text())["meta"]
        for output, objective in zip(outputs, (ONE, TWO)):
            rec = analytic_optimum(geometry, OptimizationTarget(objective, CW))
            assert_max_near(meta, output, rec.couplings, f"figure2/{label}")

    stem3 = tmp_path / "fig3"
    assert cli_main(["figure3", "--grid", str(grid_n), "--refine", "--out", str(stem3)]) == 0
    for label, (geometry, _) in panels2.items():
        meta = json.loads((tmp_path / f"fig3_{label}.json").read_text())["meta"]
        for output, objective in zip(("ps", "psi"), (ONE, TWO)):
            rec = analytic_optimum(geometry, OptimizationTarget(objective, PULSE))
            assert_max_near(meta, output, rec.couplings, f"figure3/{label}")
    schmidt_rows = json.loads((tmp_path / "fig3_c_schmidt.json").read_text())["rows"]
    checks.check("figure3 Schmidt panel present and sane",
                 len(schmidt_rows) > 0 and all(r["K"] >= 1.0 for r in schmidt_rows))
    _finish(9, "figure data reproduction", checks, t0)
