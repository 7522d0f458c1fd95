"""ringsfwm benchmark: run one design job repeatedly and report its metrics.

    python3 perfbench/run.py --workload cw_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).  Each
job runs in a fresh interpreter, one at a time.  The last line of stdout is
the result object; the line before it records the environment and details.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS threads in the harness's own environment; jobs inherit it.  Must
# precede the numpy import below.
BLAS_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3            # import-only interpreters per run, besides the jobs
RUN_DEADLINE_S = 170.0    # a job still running then is killed and counts as failed
# The speed probe's loop time (job.py) at the reference speed: reported times
# are what the phase would take on a host that runs the loop this fast.
PROBE_REF_S = 2e-4


class MissingProgram(Exception):
    pass


def _run_child(spec: dict, work: Path, tag: str, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run job.py on ``spec``; the result dict, or an exception entry."""
    spec = dict(spec, result=str(work / f"{tag}.result.json"), spans=str(work / f"{tag}.spans.npz"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    log = work / f"{tag}.log"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               TMPDIR=str(work))
    with open(log, "wb") as fh:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path)],
                                  stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=str(work),
                                  timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    result_path = Path(spec["result"])
    tail = log.read_text(errors="replace")[-2000:]
    if code == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        if result.get("exit_code", 0) != 0:
            result["log_tail"] = tail
        return result
    return {"exception": f"job process ended with {code}: {tail}"}


def _environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        # ringsfwm's sweep pool defaults to os.cpu_count() workers.
        "pool_workers_default": os.cpu_count() or 1,
        "blas_threads": BLAS_PINS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "git_sha": sha,
    }


def _scaled(res: dict, phase: str) -> float:
    """Wall time of a job's ``phase`` ("import" or "job") at the reference
    speed: scaled by how fast the host ran then, as the job's speed probe
    measured it."""
    return res[f"{phase}_s"] * PROBE_REF_S / res[f"{phase}_probe_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, detail record)."""
    if not (SRC / "ringsfwm" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=HERE / ".work"))
    try:
        job, ctx = workloads.prepare(workload, seed, work, small)
        # One untimed import compiles bytecode, which users pay once.
        _run_child({"kind": "import"}, work, "warmup")
        setups = [_run_child({"kind": "import"}, work, f"setup{i}") for i in range(SETUP_RUNS)]
        setup_ok = all("import_s" in r for r in setups)

        jobs = []
        t_start = time.perf_counter()
        while True:
            traced = trace and len(jobs) % 2 == 1
            tag = f"job{len(jobs)}"
            out = work / tag
            out.mkdir()
            res = _run_child(dict(job, out_dir=str(out), trace=traced), work, tag,
                             timeout=max(1.0, deadline - time.perf_counter()))
            verdict = workloads.check(workload, ctx, res, out)
            shutil.rmtree(out)
            if traced and "counts" in res:
                res["layers"] = tracer.summarize(work / f"{tag}.spans.npz", res["counts"],
                                                 res["job_s"], res["main_tid"])
            jobs.append({"traced": traced, "res": res, "verdict": verdict})
            both = not trace or len(jobs) >= 2
            if both and time.perf_counter() - t_start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not j["verdict"].ok for j in jobs)
    plain = [j["res"] for j in jobs if not j["traced"] and "job_s" in j["res"]]
    traced_res = [j["res"] for j in jobs if j["traced"] and "layers" in j["res"]]
    max_rel_err = max(j["verdict"].max_rel_err for j in jobs)
    imports = [_scaled(r, "import") for r in setups + [j["res"] for j in jobs] if "import_s" in r]
    job_times = [_scaled(r, "job") for r in plain]
    traced_times = [_scaled(r, "job") for r in traced_res]

    if trace:
        metrics = {}
        if traced_res:
            layers = {k: statistics.median_low(r["layers"][k] for r in traced_res)
                      for k in traced_res[0]["layers"]}
            layers["trace.overhead_s"] = (
                statistics.median(traced_times) - statistics.median(job_times)) if plain else math.nan
            metrics = {k: _metric(v, layer_unit(k)) for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(imports) if imports else math.nan, "s"),
            "job_s": _metric(statistics.median(job_times) if plain else math.nan, "s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in plain) if plain else math.nan, "MB"),
            "accuracy_digits": _metric(max(0.0, -math.log10(max(max_rel_err, 1e-16))), "digits"),
        }
    result = {"correct": failed == 0 and setup_ok and bool(metrics), "attempted": len(jobs),
              "failed": failed, "metrics": metrics}
    detail = {
        "failed_frac": failed / len(jobs), "max_rel_err": max_rel_err,
        "job_s_samples": job_times, "job_wall_s_samples": [r["job_s"] for r in plain],
        "setup_s_samples": imports, "traced_job_s_samples": traced_times,
        "traced_job_wall_s_samples": [r["job_s"] for r in traced_res],
        "absent_layers": traced_res[0].get("absent_layers") if traced_res else None,
        "problems": [p for j in jobs for p in j["verdict"].problems][:10],
    }
    return result, detail


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": _environment(args), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
