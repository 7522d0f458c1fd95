"""One benchmark job in a fresh interpreter: ``python3 job.py SPEC.json``.

Times the import of ``ringsfwm`` and ``ringsfwm.cli`` (what every CLI call
pays), then the job itself, and writes its result JSON to
``spec["result"]``: import_s, job_s, the speed probe's mean loop time over
each (import_probe_s, job_probe_s), peak_rss_mb, exit_code, exception,
captured outputs and, when traced, the counts and span file.
"""

import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

PROBE_LOOPS = 1500       # ~0.2 ms of pure-Python arithmetic per sample
PROBE_PERIOD_S = 0.05


class SpeedProbe:
    """Times a fixed pure-Python loop now and then on a helper thread.

    The host's cores are shared, so its speed wanders, by up to 2x from one
    second to the next.  The loop's mean time over a phase of the job says
    how fast the host ran during that phase, whatever the program does;
    ``run.py`` scales the phase's wall time by it.  A sample holds the
    interpreter lock for far less than the switch interval, so it is not cut
    short, and it delays the job by about 0.5%.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        t = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += (i * 0.5 + 1.0) ** 0.5
        self.samples.append(time.perf_counter() - t)

    def _loop(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            self.sample()

    def start(self) -> None:
        self.sample()
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    def mean_since(self, first: int) -> float:
        """Samples once more, then the mean of the samples from ``first`` on."""
        self.sample()
        window = self.samples[first:]
        return sum(window) / len(window)


def _tabulated(rf, spec: dict, out: Path) -> int:
    """Per-pulse singles probability for flattop pump spectra (library call)."""
    ring = rf.RingParams.from_wavelength(**spec["ring"])
    gc = spec["gamma_c"]
    probs = []
    for d in spec["designs"]:
        if d["geometry"] == "all-pass-identical":
            cfg = rf.CouplingConfig.all_pass(d["x"] * gc, gc)
        else:
            cfg = rf.CouplingConfig.add_drop(d["x"] * gc, d["y"] * gc, gc)
        spectrum = rf.TabulatedSpectrum.flattop(d["bandwidth_factor"] * cfg.tgamma)
        probs.append(rf.pulsed.pulsed_single_prob_numeric(ring, cfg, d["energy_j"], spectrum))
    (out / "tabulated.json").write_text(json.dumps(probs))
    return 0


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import ringsfwm
    import ringsfwm.cli
    result = {"import_s": time.perf_counter() - t0, "import_probe_s": probe.mean_since(0)}

    if spec["kind"] != "import":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        tr = tracer.Tracer() if spec.get("trace") else None
        if tr is not None:
            result["absent_layers"] = tracer.install(tr)
        captured: list = []
        if spec.get("capture") == "cross_validate_optima":
            tracer.capture_validation(captured)
        out = Path(spec["out_dir"])
        argv = [a.format(out=out) for a in spec.get("argv", ())]
        exit_code, exception = None, None
        first = len(probe.samples) - 1
        t1 = time.perf_counter()
        try:
            if spec["kind"] == "cli":
                exit_code = ringsfwm.cli.main(argv)
            else:
                exit_code = _tabulated(ringsfwm, spec, out)
        except Exception:  # noqa: BLE001 - a failed job is a result, not a crash
            exception = traceback.format_exc(limit=-3)
        result.update(job_s=time.perf_counter() - t1, job_probe_s=probe.mean_since(first),
                      exit_code=exit_code, exception=exception, captured=captured)
        if tr is not None:
            tr.save(spec["spans"])
            result.update(counts=dict(tr.counts), main_tid=threading.get_ident())

    probe.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
