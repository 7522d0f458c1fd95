"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each workload's checker must pass the program's real output and fail a
corrupted one; every workload must run end to end at a reduced size; a
hook whose target is gone must read as an absent layer.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / ".work" / "tests"


@pytest.fixture(scope="module")
def scratch():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.fixture(scope="module")
def outputs(scratch):
    """One small job per workload: (ctx, result, output dir)."""
    done = {}
    for name in workloads.WORKLOADS:
        work = scratch / name
        work.mkdir()
        job, ctx = workloads.prepare(name, 7, work, small=True)
        out = work / "out"
        out.mkdir()
        result = run._run_child(dict(job, out_dir=str(out), trace=False), work, "job")
        done[name] = (ctx, result, out)
    return done


def _checked(name, outputs, corrupt=None):
    ctx, result, out = outputs[name]
    copy = out.parent / "corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    result = json.loads(json.dumps(result))
    if corrupt is not None:
        corrupt(copy, result)
    return workloads.check(name, ctx, result, copy)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv_cell(path, row, column, edit):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = edit(cells[header.index(column)])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


PERTURB = {
    "cw_sweep": lambda out, res: _edit_json(
        out / "fig2_b.json", lambda d: d["rows"][5].update(Rs=d["rows"][5]["Rs"] * (1 + 1e-9))),
    "pulsed_schmidt": lambda out, res: _edit_csv_cell(out / "fig3_c_schmidt.csv", 0, "K", _scale(1.01)),
    "optimize_validate": lambda out, res: res["captured"][3].update(peak=res["captured"][3]["peak"] * (1 + 1e-5)),
    "tabulated_spectrum": lambda out, res: _edit_json(out / "tabulated.json", lambda d: d.__setitem__(0, d[0] * (1 + 1e-5))),
}
ERROR_ROW = {
    "cw_sweep": lambda out, res: _edit_json(out / "fig2_a.json", lambda d: d["rows"][3].update(error="Rs: failed")),
    "pulsed_schmidt": lambda out, res: _edit_csv_cell(out / "fig3_b.csv", 2, "error", lambda _: "ps: failed"),
    "optimize_validate": lambda out, res: (out / "validate.txt").write_text(
        (out / "validate.txt").read_text().replace("[PASS]", "[FAIL]", 1)),
    "tabulated_spectrum": lambda out, res: res.update(exception="QuadratureError: did not converge"),
}


def _nonzero_exit(out, res):
    res["exit_code"] = 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_accepts_program_output(name, outputs):
    verdict = _checked(name, outputs)
    assert verdict.ok, verdict.problems
    assert 0.0 <= verdict.max_rel_err < 0.1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("corrupt", [PERTURB, ERROR_ROW, _nonzero_exit], ids=["perturbed", "error_row", "exit"])
def test_checker_rejects_corrupted_output(name, corrupt, outputs):
    clean = _checked(name, outputs)
    bad = _checked(name, outputs, corrupt[name] if isinstance(corrupt, dict) else corrupt)
    assert not bad.ok
    assert bad.max_rel_err > clean.max_rel_err


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_small(name, trace):
    result, detail = run.run(name, 11, 0.1, trace, small=True)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and detail["failed_frac"] == 0.0
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert detail["absent_layers"] == []


def test_traced_counts_repeat_exactly():
    counts = ("core.config_build_calls", "optimize.objective_evals", "sweep.rows",
              "schmidt.grid_bytes", "pulsed.lineshape_calls")
    first, second = (run.run("optimize_validate", 5, 0.1, True, small=True)[0] for _ in range(2))
    assert all(first["metrics"][c] == second["metrics"][c] for c in counts)
    assert first["metrics"]["optimize.objective_evals"]["value"] > 0


def test_missing_hook_target_reads_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(tracer, "SPANS", {**tracer.SPANS, "schmidt.discretize": [
        ("ringsfwm.schmidt", "no_such_function"), ("ringsfwm.no_such_module", "f")]})
    assert tracer.install(tracer.Tracer()) == ["schmidt.discretize"]


def test_runs_without_program_fail_without_result(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "cw_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed(scratch):
    for seed in (1, 2):
        made = []
        for k in range(2):
            work = scratch / f"seed{seed}-{k}"
            work.mkdir()
            job, ctx = workloads.prepare("pulsed_schmidt", seed, work, small=True)
            made.append(((work / "pulsed.ini").read_text(), ctx["k_ref"]))
        assert made[0] == made[1]


# ----------------------------------------------- the references themselves

@pytest.mark.parametrize("key", sorted(ref.optimum_table()))
def test_optimum_table_maximizes_the_closed_forms(key):
    regime, geometry, output = key
    couplings, peak = ref.optimum_table()[key]
    f = ref.cw_normalized if regime == "cw" else ref.pulsed_normalized
    res = minimize(lambda z: -f(geometry, output, *np.exp(z)), np.log(couplings) + 0.1,
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000})
    assert np.allclose(np.exp(res.x), couplings, rtol=1e-6)
    assert math.isclose(-res.fun, peak, rel_tol=1e-12)
    assert math.isclose(float(f(geometry, output, *couplings)), peak, rel_tol=1e-14)


def test_flattop_lineshape_matches_its_defining_integral():
    tg, delta = 1.3, 13.0
    for w in (-20.0, -3.0, 0.0, 0.7, 12.9):
        lo, hi = max(-delta / 2, w - delta / 2), min(delta / 2, w + delta / 2)

        def part(x, c):
            return c((1 / delta) / ((tg / 2 - 1j * x) * (tg / 2 - 1j * (w - x))))

        direct = (quad(part, lo, hi, args=(np.real,), epsabs=1e-14)[0]
                  + 1j * quad(part, lo, hi, args=(np.imag,), epsabs=1e-14)[0]) if hi > lo else 0.0
        assert abs(ref.flattop_lineshape(w, tg, delta) - direct) <= 1e-10 * max(abs(direct), 1e-3)


def test_schmidt_reference_agrees_with_svd():
    x, y = 1.37, 1.83
    _, _, g, tg = ref.rates(ref.DISTINCT, x, y)
    t = np.linspace(0, 20 / g, 801)
    w = np.full(t.size, t[1] - t[0])
    w[[0, -1]] *= 0.5
    m = np.minimum(t[:, None], t[None, :])
    jta = np.exp(-g * (t[:, None] + t[None, :]) / 2) * -np.expm1(-(tg - g) * m) / (tg - g)
    s = np.linalg.svd(np.sqrt(w)[:, None] * jta * np.sqrt(w)[None, :], compute_uv=False) ** 2
    s /= s.sum()
    assert math.isclose(1 / np.sum(s * s), ref.schmidt_number(x, y), rel_tol=1e-4)
