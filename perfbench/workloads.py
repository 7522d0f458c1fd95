"""The four design jobs: inputs drawn from a seed, and output checks.

``prepare(name, seed, work_dir, small)`` writes a job's input files and
returns ``(job, ctx)``: ``job`` is what the job process runs, ``ctx`` what
the checker needs.  ``check(name, ctx, result, out_dir)`` returns a
:class:`Verdict`.  ``small`` shrinks each job for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("cw_sweep", "pulsed_schmidt", "optimize_validate", "tabulated_spectrum")

ROW_RTOL = 1e-12        # closed-form rows: a few ulps of double arithmetic
REFINE_RTOL = 1e-3      # refined argmax location (3 zoom passes of a log grid)
PEAK_RTOL = 1e-6        # refined peak value (quadratic in the location error)
K_RTOL = 2e-3           # 192-point Schmidt grid vs continuum (~7e-4 at worst)
OPTIMUM_RTOL = 1e-6     # numeric optimizer vs exact optimum (couplings and peak)
QUAD_RTOL = 1e-6        # the program's stated quadrature target
N_K_SPOT = 4            # seed-chosen Schmidt panel points, besides the corners


class Verdict:
    """Largest relative deviation seen, and every check that failed."""

    def __init__(self) -> None:
        self.max_rel_err = 0.0
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def compare(self, what: str, got, want, rtol: float) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want) / np.abs(want)
        worst = float(np.max(err)) if err.size else 0.0
        if not math.isfinite(worst):
            worst = math.inf
        self.max_rel_err = max(self.max_rel_err, worst)
        if not worst <= rtol:
            self.problems.append(f"{what}: relative error {worst:.3g} > {rtol:g}")


def _write_ini(path: Path, pump: dict) -> str:
    path.write_text("[pump]\n" + "".join(f"{k} = {v}\n" for k, v in pump.items()))
    return str(path)


def _coupling_columns(geometry: str) -> tuple[str, ...]:
    if geometry == ref.ALL_PASS:
        return ("gamma_a_over_gamma_c",)
    if geometry == ref.ADD_DROP:
        return ("gamma_a_over_gamma_c", "gamma_b_over_gamma_c")
    return ("tgamma_a_over_gamma_c", "gamma_b_over_gamma_c")


PANELS = {"a": ref.ALL_PASS, "b": ref.ADD_DROP, "c": ref.DISTINCT}


def _check_grid(v: Verdict, label: str, rows: list[dict], geometry: str, n: int):
    """Row count, empty error column, and grid axes; returns coupling arrays."""
    cols = _coupling_columns(geometry)
    v.require(len(rows) == n ** len(cols), f"{label}: {len(rows)} rows, expected {n ** len(cols)}")
    bad = [r.get("error") for r in rows if r.get("error") not in (None, "")]
    v.require(not bad, f"{label}: {len(bad)} rows carry an error, first {bad[:1]}")
    axes = [np.array([float(r[c]) for r in rows]) for c in cols]
    for c, a in zip(cols, axes):
        v.compare(f"{label} {c} grid", np.unique(a), np.geomspace(*ref.FIGURE_RANGE, n), ROW_RTOL)
    return axes if len(axes) == 2 else [axes[0], np.zeros_like(axes[0])]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ cw_sweep

def _prepare_cw_sweep(rng, work: Path, small: bool):
    power_uw = float(10 ** rng.uniform(0.0, 2.0))
    n = 20 if small else 200
    cfg = _write_ini(work / "cw.ini", {"mode": "cw", "power_uw": power_uw})
    argv = ["figure2", "--refine", "--format", "json", "--config", cfg, "--out", "{out}/fig2"]
    if small:
        argv += ["--grid", str(n)]
    return {"kind": "cli", "argv": argv}, {"power_w": power_uw * 1e-6, "n": n}


def _check_cw_sweep(ctx, result, out: Path, v: Verdict) -> None:
    r0 = ref.r0(ctx["power_w"])
    optima = ref.optimum_table()
    for panel, geometry in PANELS.items():
        label = f"fig2_{panel}"
        with open(out / f"{label}.json", encoding="utf-8") as fh:
            data = json.load(fh)
        rows = data["rows"]
        x, y = _check_grid(v, label, rows, geometry, ctx["n"])
        for output in ("Rs", "Rsi"):
            got = np.array([float(r[output]) for r in rows])
            v.compare(f"{label} {output} rows", got, ref.cw_normalized(geometry, output, x, y) * r0, ROW_RTOL)
            couplings, peak = optima[("cw", geometry, output)]
            best = data["meta"]["observed_maxima"][output]
            v.compare(f"{label} {output} refined argmax", best["point_over_gamma_c"], couplings, REFINE_RTOL)
            v.compare(f"{label} {output} refined peak", best["value"], peak * r0, PEAK_RTOL)


# ------------------------------------------------------------ pulsed_schmidt

def _prepare_pulsed_schmidt(rng, work: Path, small: bool):
    energy_pj = float(10 ** rng.uniform(-1.0, 1.0))
    bandwidth = float(rng.uniform(10.0, 20.0))
    n = 10 if small else 200
    n_k = min(n, 25)
    cfg = _write_ini(work / "pulsed.ini", {"mode": "pulsed", "pulse_energy_pj": energy_pj,
                                           "bandwidth_factor": bandwidth})
    argv = ["figure3", "--format", "csv", "--config", cfg, "--out", "{out}/fig3"]
    if small:
        argv += ["--grid", str(n)]
    axis = np.geomspace(*ref.FIGURE_RANGE, n_k)
    corners = [(0, 0), (0, n_k - 1), (n_k - 1, 0), (n_k - 1, n_k - 1)]
    spots = [tuple(int(i) for i in rng.integers(1, n_k - 1, size=2)) for _ in range(N_K_SPOT)]
    k_ref = [(float(axis[i]), float(axis[j]), ref.schmidt_number(axis[i], axis[j]))
             for i, j in corners + spots]
    ctx = {"energy_j": energy_pj * 1e-12, "bandwidth_factor": bandwidth, "n": n, "n_k": n_k,
           "k_ref": k_ref}
    return {"kind": "cli", "argv": argv}, ctx


def _check_pulsed_schmidt(ctx, result, out: Path, v: Verdict) -> None:
    p0 = ref.p0(ctx["energy_j"], ctx["bandwidth_factor"])
    optima = ref.optimum_table()
    log_step = math.log(ref.FIGURE_RANGE[1] / ref.FIGURE_RANGE[0]) / (ctx["n"] - 1)
    for panel, geometry in PANELS.items():
        label = f"fig3_{panel}"
        rows = _read_csv(out / f"{label}.csv")
        x, y = _check_grid(v, label, rows, geometry, ctx["n"])
        for output in ("ps", "psi"):
            got = np.array([float(r[output]) for r in rows])
            v.compare(f"{label} {output} rows", got, ref.pulsed_normalized(geometry, output, x, y) * p0, ROW_RTOL)
            # The grid maximum sits within one log step of the analytic optimum
            # and below its peak by at most the second-order term of that step.
            couplings, peak = optima[("pulsed", geometry, output)]
            k = int(np.argmax(got))
            at = (x[k], y[k])[: len(couplings)]
            offset = max(abs(math.log(a / c)) for a, c in zip(at, couplings))
            v.require(offset <= log_step * (1 + 1e-9), f"{label} {output}: grid argmax {at} too far from {couplings}")
            v.compare(f"{label} {output} grid peak", got[k], peak * p0, 5 * log_step**2)
    rows = _read_csv(out / "fig3_c_schmidt.csv")
    x, y = _check_grid(v, "fig3_c_schmidt", rows, ref.DISTINCT, ctx["n_k"])
    k = np.array([float(r["K"]) for r in rows])
    v.require(bool(np.all(k >= 1.0 - 1e-12)), "fig3_c_schmidt: K < 1")
    km1 = np.array([float(r["K_minus_1"]) for r in rows])
    v.require(bool(np.all(np.abs(km1 - (k - 1.0)) <= 1e-12)), "fig3_c_schmidt: K_minus_1 != K - 1")
    for xr, yr, kr in ctx["k_ref"]:
        hit = np.flatnonzero((np.abs(x / xr - 1) < 1e-9) & (np.abs(y / yr - 1) < 1e-9))
        v.require(hit.size == 1, f"fig3_c_schmidt: no row at ({xr:.4g}, {yr:.4g})")
        if hit.size == 1:
            v.compare(f"K at ({xr:.4g}, {yr:.4g})", k[hit[0]], kr, K_RTOL)


# --------------------------------------------------------- optimize_validate

_REPORT_LINE = re.compile(r"^\[(PASS|FAIL)\]\s+(\S+)\s+(\S+)\s+(\S+)\s", re.M)


def _prepare_optimize_validate(rng, work: Path, small: bool):
    # Fixed input: the 12 optima.  The seed is recorded and unused.
    return {"kind": "cli", "argv": ["validate", "--out", "{out}/validate.txt"],
            "capture": "cross_validate_optima"}, {}


def _check_optimize_validate(ctx, result, out: Path, v: Verdict) -> None:
    text = (out / "validate.txt").read_text(encoding="utf-8")
    lines = _REPORT_LINE.findall(text)
    v.require(len({line[1:] for line in lines}) == 12 and len(lines) == 12,
              f"validate: {len(lines)} report lines, expected 12 distinct")
    v.require(all(status == "PASS" for status, *_ in lines), "validate: an entry reports FAIL")
    entries = result.get("captured") or []
    v.require(len(entries) == 12, f"validate: {len(entries)} numeric optima captured, expected 12")
    optima = ref.optimum_table()
    for e in entries:
        regime = "cw" if e["regime"] == "cw" else "pulsed"
        one = e["objective"] == "one-photon"
        output = ("Rs" if one else "Rsi") if regime == "cw" else ("ps" if one else "psi")
        couplings, peak = optima[(regime, e["geometry"], output)]
        what = f"validate {regime} {e['geometry']} {output}"
        v.compare(f"{what} couplings", e["couplings"], couplings, OPTIMUM_RTOL)
        v.compare(f"{what} peak", e["peak"], peak, OPTIMUM_RTOL)


# -------------------------------------------------------- tabulated_spectrum

def _prepare_tabulated_spectrum(rng, work: Path, small: bool):
    # Identical-coupler designs only: there gamma = tgamma, so the adaptive
    # quadrature's work depends on B alone and job time does not vary with
    # the seed.  Geometry, couplings and pulse energy come from the seed.
    geometry = ref.ALL_PASS if rng.random() < 0.5 else ref.ADD_DROP
    x = float(10 ** rng.uniform(-0.7, 0.7))
    y = float(10 ** rng.uniform(-0.7, 0.7)) if geometry == ref.ADD_DROP else 0.0
    energy = float(10 ** rng.uniform(-1.0, 1.0)) * 1e-12
    designs = [{"geometry": geometry, "x": x, "y": y, "energy_j": energy, "bandwidth_factor": b}
               for b in ((10.0,) if small else (10.0, 30.0))]
    want = [ref.tabulated_single_prob(d["geometry"], x, y, energy, d["bandwidth_factor"])
            for d in designs]
    job = {"kind": "tabulated", "designs": designs, "ring": ref.RING, "gamma_c": ref.GAMMA_C}
    return job, {"want": want}


def _check_tabulated_spectrum(ctx, result, out: Path, v: Verdict) -> None:
    with open(out / "tabulated.json", encoding="utf-8") as fh:
        got = json.load(fh)
    v.compare("tabulated singles probability", got, ctx["want"], QUAD_RTOL)


_PREPARE = {
    "cw_sweep": _prepare_cw_sweep,
    "pulsed_schmidt": _prepare_pulsed_schmidt,
    "optimize_validate": _prepare_optimize_validate,
    "tabulated_spectrum": _prepare_tabulated_spectrum,
}
_CHECK = {
    "cw_sweep": _check_cw_sweep,
    "pulsed_schmidt": _check_pulsed_schmidt,
    "optimize_validate": _check_optimize_validate,
    "tabulated_spectrum": _check_tabulated_spectrum,
}


def prepare(name: str, seed: int, work: Path, small: bool = False):
    return _PREPARE[name](np.random.default_rng(seed), work, small)


def check(name: str, ctx: dict, result: dict, out: Path) -> Verdict:
    """A job fails on a non-zero exit, an exception, an error row, a missing
    or unparsable output, or any deviation beyond its tolerance."""
    v = Verdict()
    if result.get("exception"):
        v.problems.append(f"exception: {result['exception']}")
    elif result.get("exit_code") != 0:
        v.problems.append(f"exit code {result.get('exit_code')}: {result.get('log_tail', '')[-300:]}")
    try:
        _CHECK[name](ctx, result, out, v)
    except (OSError, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    if not v.ok:
        v.max_rel_err = max(v.max_rel_err, 1.0)
    return v
