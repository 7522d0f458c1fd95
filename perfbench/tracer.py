"""Spans and counts at the program's module boundaries, from outside ``src/``.

``install`` wraps each public function listed in ``SPANS`` at every place a
``ringsfwm`` module binds it (the defining module and every module that
imported it by name), so callers reach the wrapper whichever name they use.
A function that no longer exists is skipped: its layer reads as absent
(count 0).  Spans stay in memory until ``save``; ``summarize`` turns a saved
trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter

import numpy as np

SPANS = {
    "core.config_build": [("ringsfwm.core", "CouplingConfig.__init__")],
    "cw.kernel": [("ringsfwm.cw", "cw_single_rate"), ("ringsfwm.cw", "cw_pair_rate"),
                  ("ringsfwm.cw", "cw_accidentals_and_car")],
    "pulsed.kernel": [("ringsfwm.pulsed", "pulsed_single_prob"), ("ringsfwm.pulsed", "pulsed_pair_prob"),
                      ("ringsfwm.pulsed", "pulsed_wavepacket")],
    "pulsed.quad": [("ringsfwm.pulsed", "pulsed_single_prob_numeric")],
    "pulsed.lineshape": [("ringsfwm.pulsed", "effective_pump_lineshape")],
    "schmidt.discretize": [("ringsfwm.schmidt", "discretize_wavepacket")],
    "schmidt.spectrum": [("ringsfwm.schmidt", "schmidt_spectrum")],
    "optimize.numeric_optimum": [("ringsfwm.optimize", "numeric_optimum")],
    "sweep.run": [("ringsfwm.sweep", "run_sweep")],
    "sweep.render": [("ringsfwm.sweep", "render")],
    "sweep.emit": [("ringsfwm.sweep", "emit")],
    "config.load": [("ringsfwm.config", "load_config"), ("ringsfwm.config", "pump_from_config")],
    "cli.main": [("ringsfwm.cli", "main")],
}
NAMES = list(SPANS)


def _resolve(module: str, path: str):
    """(owner, attribute, object) for ``module:path``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _rebind(owner, attr, original, replacement) -> None:
    """Replace ``original`` on its owner and wherever a ringsfwm module binds it."""
    setattr(owner, attr, replacement)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "ringsfwm":
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def wrap(module: str, path: str, make) -> bool:
    """Rebind ``module:path`` to ``make(original)``; False if it is absent."""
    found = _resolve(module, path)
    if found is None:
        return False
    owner, attr, original = found
    _rebind(owner, attr, original, make(original))
    return True


class Tracer:
    """Spans (code, start, end, id, parent id, thread) and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def span(self, name: str, fn, observe=None):
        code = NAMES.index(name)
        local, ids, spans = self._local, self._ids, self.spans
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((code, t0, t1, idx, parent, ident()))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez(path, code=arr[:, 0].astype(np.int16), start=arr[:, 1], end=arr[:, 2],
                 idx=arr[:, 3].astype(np.int64), parent=arr[:, 4].astype(np.int64),
                 tid=np.array([s[5] for s in self.spans], dtype=np.uint64))


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary; returns the layers found absent."""
    observers = {
        "schmidt.spectrum": lambda args, res: tracer.add(
            "schmidt.grid_bytes", _grid_bytes(args[0]) if args else 0),
        "sweep.run": lambda args, res: _count_rows(tracer, res),
        "sweep.render": lambda args, res: tracer.add("sweep.emit_bytes", len(str(res).encode())),
    }
    absent = []
    for name, targets in SPANS.items():
        found = [wrap(m, p, lambda fn, name=name: tracer.span(name, fn, observers.get(name)))
                 for m, p in targets]
        if not any(found):
            absent.append(name)

    def counting(make_objective):
        @functools.wraps(make_objective)
        def wrapper(*args, **kwargs):
            objective = make_objective(*args, **kwargs)

            @functools.wraps(objective)
            def counted(*a, **k):
                tracer.add("optimize.objective_evals")
                return objective(*a, **k)

            return counted

        return wrapper

    wrap("ringsfwm.optimize", "normalized_objective", counting)
    return absent


def _grid_bytes(grid) -> int:
    """N^2 x itemsize of the amplitude grid handed to the Schmidt step."""
    amp = getattr(grid, "amplitudes", None)
    return int(amp.shape[0] * amp.shape[1] * amp.itemsize) if getattr(amp, "ndim", 0) == 2 else 0


def _count_rows(tracer: Tracer, result) -> None:
    rows = getattr(result, "rows", ())
    tracer.add("sweep.rows", len(rows))
    tracer.add("sweep.failed_rows", sum(1 for r in rows if r.get("error")))


def capture_validation(out: list) -> bool:
    """Record the numeric optima that ``validate`` computes, as plain data."""

    def make(fn):
        @functools.wraps(fn)
        def capturing(*args, **kwargs):
            report = fn(*args, **kwargs)
            out.extend(
                {"geometry": e.geometry.value, "regime": e.target.pump_regime.value,
                 "objective": e.target.objective.value,
                 "couplings": list(e.numeric.couplings), "peak": e.numeric.peak_value}
                for e in report.entries)
            return report

        return capturing

    return wrap("ringsfwm.optimize", "cross_validate_optima", make)


# ------------------------------------------------------------- summarizing

def summarize(path, counts: dict, job_s: float, main_tid: int) -> dict:
    """Per-layer metrics of one traced job.

    Self time is a span's duration minus its children's; children are always
    on the parent's thread, so this is per thread.  Sums over threads are
    busy time and may exceed wall time on pooled sweeps.
    """
    with np.load(path) as z:
        code, start, end, idx, parent, tid = (z[k] for k in ("code", "start", "end", "idx", "parent", "tid"))
    dur = end - start
    n = int(idx.max()) + 1 if idx.size else 0
    by_idx = np.zeros(n)
    by_idx[idx] = dur
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = by_idx[idx] - child[idx] if n else dur

    def calls(name):
        return int(np.count_nonzero(code == NAMES.index(name)))

    def busy(name):
        return float(self_s[code == NAMES.index(name)].sum())

    pool = 0
    for i in np.flatnonzero(code == NAMES.index("sweep.run")):
        inside = (start >= start[i]) & (end <= end[i]) & (tid != tid[i])
        pool = max(pool, len(np.unique(tid[inside])))
    top = ~has_parent & (tid == np.uint64(main_tid))
    return {
        "core.config_build_calls": calls("core.config_build"),
        "core.config_build_s": busy("core.config_build"),
        "cw.kernel_calls": calls("cw.kernel"),
        "cw.kernel_s": busy("cw.kernel"),
        "pulsed.kernel_calls": calls("pulsed.kernel"),
        "pulsed.kernel_s": busy("pulsed.kernel"),
        "pulsed.quad_s": busy("pulsed.quad"),
        "pulsed.lineshape_calls": calls("pulsed.lineshape"),
        "pulsed.lineshape_s": busy("pulsed.lineshape"),
        "schmidt.discretize_calls": calls("schmidt.discretize"),
        "schmidt.discretize_s": busy("schmidt.discretize"),
        "schmidt.spectrum_s": busy("schmidt.spectrum"),
        "schmidt.grid_bytes": int(counts.get("schmidt.grid_bytes", 0)),
        "optimize.numeric_optimum_s": busy("optimize.numeric_optimum"),
        "optimize.objective_evals": int(counts.get("optimize.objective_evals", 0)),
        "sweep.self_s": busy("sweep.run"),
        "sweep.rows": int(counts.get("sweep.rows", 0)),
        "sweep.failed_rows": int(counts.get("sweep.failed_rows", 0)),
        "sweep.pool_threads": pool,
        "sweep.render_s": busy("sweep.render"),
        "sweep.write_s": busy("sweep.emit"),
        "sweep.emit_bytes": int(counts.get("sweep.emit_bytes", 0)),
        "cli.self_s": busy("cli.main"),
        "config.load_s": busy("config.load"),
        "trace.spans": int(code.size),
        "trace.unattributed_s": job_s - float(dur[top].sum()),
    }
