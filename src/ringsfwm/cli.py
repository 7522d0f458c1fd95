"""Command-line front end.

Subcommands: ``rates`` (single design point), ``sweep`` (coupling grids),
``optimize`` (optimum report), ``schmidt`` (Schmidt numbers), ``validate``
(analytic-vs-numeric cross check), and ``figure2``/``figure3`` (canned AlGaAs
coupling scans for CW and broadband-pulse pumping).

Exit codes: 0 success, 1 validation error, 2 computation failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    coincidence_window_from_config,
    load_config,
    loss_rates_from_config,
    point_config_from_config,
    pump_from_config,
    ring_from_config,
    sweep_spec_from_config,
)
from .core import Geometry, PumpMode, PumpSpec, quality_factors, rate_scale_R0, prob_scale_p0
from .cw import cw_accidentals_and_car, cw_observables
from .optimize import OptimizationError, coupling_parameter_names, cross_validate_optima
from .pulsed import PulsedMethod, QuadratureError, _single_prob_numeric, pulsed_observables
from .schmidt import DecompositionError, discretize_wavepacket, schmidt_spectrum
from .sweep import (
    SweepAxis,
    SweepSpec,
    _write_text,
    algaas_example,
    emit,
    optima_table,
    render,
    report_optima,
    run_sweep,
)

_FIGURE_RANGE = (0.05, 5.0)
_FIGURE_K_GRID = 25


class _CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliValidationError(message)


# Every flag a subcommand can declare; each subcommand declares only the
# flags it honours (see _build_parser), with the departures below.
_FLAGS = {
    "--config": {"required": True, "help": "INI config file"},
    "--out": {"help": "output file (default: stdout)"},
    "--format": {"choices": ("csv", "json")},
    "--grid": {"type": int, "help": "override grid points per axis"},
    "--refine": {
        "action": "store_true",
        "help": "sharpen reported maxima by log-grid zoom and a vertex step",
    },
}
_FLAG_DEPARTURES = {
    ("optimize", "--format"): {"choices": ("json",)},
    ("figure2", "--config"): {"required": False},
    ("figure3", "--config"): {"required": False},
}
_GRID_FLAGS = ("--config", "--out", "--format", "--grid", "--refine")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ringsfwm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ringsfwm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler, flags, help_text in (
        ("rates", _cmd_rates, ("--config", "--out"),
         "rates/probabilities at a single design point"),
        ("sweep", _cmd_sweep, _GRID_FLAGS, "evaluate outputs on a coupling grid"),
        ("optimize", _cmd_optimize, ("--config", "--out", "--format"),
         "report all optimal coupling conditions"),
        ("schmidt", _cmd_schmidt, ("--config", "--out", "--format", "--grid"),
         "Schmidt number at a point or on a grid"),
        ("validate", _cmd_validate, ("--out",), "cross-validate analytic vs numeric optima"),
        ("figure2", _cmd_figure2, _GRID_FLAGS, "canned CW coupling scans (AlGaAs example)"),
        ("figure3", _cmd_figure3, _GRID_FLAGS, "canned pulsed coupling scans (AlGaAs example)"),
    ):
        sub = subs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **{**_FLAGS[flag], **_FLAG_DEPARTURES.get((name, flag), {})})
        sub.set_defaults(handler=handler)
    return parser


def _cmd_rates(args) -> int:
    cp = load_config(args.config)
    ring = ring_from_config(cp)
    cfg = point_config_from_config(cp)
    pump = pump_from_config(cp)
    qc, q = quality_factors(ring, cfg)
    report = {
        "geometry": cfg.geometry.value,
        "couplings_rad_per_s": {
            "gamma_a": cfg.gamma_a, "gamma_b": cfg.gamma_b, "gamma_c": cfg.gamma_c,
            "tgamma_a": cfg.tgamma_a, "tgamma_b": cfg.tgamma_b, "tgamma_c": cfg.tgamma_c,
        },
        "quality_factors": {"Qc": qc, "Q": q},
        "fsr_hz": ring.fsr,
        "heralding_efficiency": cfg.heralding_efficiency,
    }
    if pump.mode is PumpMode.CW:
        obs = cw_observables(ring, cfg, pump.power)
        report["cw"] = {
            "power_w": pump.power,
            "Rs_per_s": obs.Rs,
            "Ri_per_s": obs.Ri,
            "Rsi_per_s": obs.Rsi,
            "R0_per_s": rate_scale_R0(ring, pump.power, cfg.gamma_c),
        }
        window = coincidence_window_from_config(cp)
        if window is not None:
            r_acc, car = cw_accidentals_and_car(ring, cfg, pump.power, window)
            report["cw"]["coincidence_window_s"] = window
            report["cw"]["R_acc_per_s"] = r_acc
            report["cw"]["CAR"] = car
    elif pump.spectrum is not None:
        ps, rel_err = _single_prob_numeric(ring, cfg, pump.energy, pump.spectrum)
        report["pulsed"] = {
            "pulse_energy_j": pump.energy,
            "method": PulsedMethod.NUMERIC_QUADRATURE.value,
            "ps_per_pulse": ps,
            "pi_per_pulse": ps,
            "p_acc_per_pulse": ps * ps,
            "quad_rel_err": rel_err,
        }
    else:
        delta_omega = pump.delta_omega_for(cfg.tgamma)
        obs = pulsed_observables(ring, cfg, pump.energy, delta_omega)
        report["pulsed"] = {
            "pulse_energy_j": pump.energy,
            "delta_omega_rad_per_s": delta_omega,
            "method": obs.method.value,
            "ps_per_pulse": obs.ps,
            "pi_per_pulse": obs.pi,
            "psi_per_pulse": obs.psi_pair,
            "p_acc_per_pulse": obs.ps * obs.pi,
        }
        if pump.bandwidth_factor is not None:
            report["pulsed"]["p0"] = prob_scale_p0(
                ring, pump.energy, pump.bandwidth_factor, cfg.gamma_c
            )
    _write_text(json.dumps(report, indent=2), args.out)
    return 0


def _load_closed_form_config(path):
    """Config for the commands built on the flattop closed forms, which
    cannot honour a tabulated pump spectrum."""
    cp = load_config(path)
    if cp.has_option("pump", "spectrum_file"):
        raise ValueError(
            "[pump] spectrum_file is only supported by the rates command; "
            "remove it to use the broadband flattop closed forms"
        )
    return cp


def _cmd_sweep(args) -> int:
    spec = sweep_spec_from_config(_load_closed_form_config(args.config))
    return _write_sweep(spec, args, refine=args.refine)


def _write_sweep(spec: SweepSpec, args, refine: bool) -> int:
    """Run ``spec`` at ``--grid`` points per axis and write it in ``--format``."""
    if args.grid is not None:
        axis2 = None if spec.axis2 is None else replace(spec.axis2, n_points=args.grid)
        spec = replace(spec, axis1=replace(spec.axis1, n_points=args.grid), axis2=axis2)
    _write_text(render(run_sweep(spec, refine=refine), args.format or "json"), args.out)
    return 0


def _cmd_optimize(args) -> int:
    cp = _load_closed_form_config(args.config)
    ring = ring_from_config(cp)
    gamma_c, _ = loss_rates_from_config(cp)
    pump = pump_from_config(cp)  # a CW pump has no energy, a pulsed one no power
    drive = (ring, gamma_c, pump.power, pump.energy, pump.bandwidth_factor)
    if args.format == "json":
        _write_text(json.dumps({"optima": optima_table(*drive)}, indent=2), args.out)
    else:
        _write_text(report_optima(*drive), args.out)
    return 0


def _cmd_schmidt(args) -> int:
    cp = _load_closed_form_config(args.config)
    if cp.has_section("sweep"):
        spec = sweep_spec_from_config(cp)
        if "K" not in spec.outputs:
            raise ValueError("[sweep] outputs must include K for the schmidt command")
        return _write_sweep(spec, args, refine=False)
    if args.grid is not None or args.format is not None:
        raise ValueError("--grid and --format apply to a [sweep] grid; the config has none")
    ring = ring_from_config(cp)
    cfg = point_config_from_config(cp)
    pump = pump_from_config(cp)
    grid = discretize_wavepacket(ring, cfg, pump)
    res = schmidt_spectrum(grid)
    report = {
        "geometry": cfg.geometry.value,
        "K": res.K,
        "K_minus_1": res.K - 1.0,
        "weighted_norm": res.norm,
        "leading_schmidt_coefficients": [float(v) for v in res.lambdas[:8]],
        "n_points": grid.n_points,
    }
    _write_text(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_validate(args) -> int:
    report = cross_validate_optima()
    _write_text(str(report), args.out)
    return 0 if report.passed else 2


def _figure_panels(pump: PumpSpec, outputs: tuple[str, ...], n: int) -> dict[str, SweepSpec]:
    ring, gamma_c = algaas_example()
    panels = {}
    for label, geometry in zip("abc", Geometry):
        axes = [SweepAxis(a, *_FIGURE_RANGE, n, "log") for a in coupling_parameter_names(geometry)]
        panels[label] = SweepSpec(
            geometry=geometry, axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
            outputs=outputs, ring=ring, pump=pump, gamma_c=gamma_c,
        )
    return panels


def _run_figure(args, pump: PumpSpec, outputs: tuple[str, ...], prefix: str,
                schmidt_panel: bool) -> int:
    if args.config is not None:
        pump = pump_from_config(_load_closed_form_config(args.config))
    n = args.grid or 200
    fmt = args.format or "json"
    panels = _figure_panels(pump, outputs, n)
    stem = args.out or prefix
    written = []
    for label, spec in panels.items():
        result = run_sweep(spec, refine=args.refine)
        path = f"{stem}_{label}.{fmt}"
        emit(result, fmt, path)
        written.append(path)
    if schmidt_panel:
        spec = _figure_panels(pump, ("K",), min(n, _FIGURE_K_GRID))["c"]
        result = run_sweep(spec, refine=False)
        path = f"{stem}_c_schmidt.{fmt}"
        emit(result, fmt, path)
        written.append(path)
    sys.stdout.write("\n".join(written) + "\n")
    return 0


def _cmd_figure2(args) -> int:
    return _run_figure(args, PumpSpec.cw(10e-6), ("Rs", "Rsi"), "figure2", schmidt_panel=False)


def _cmd_figure3(args) -> int:
    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)
    return _run_figure(args, pump, ("ps", "psi"), "figure3", schmidt_panel=True)


_COMPUTE_ERRORS = (
    OptimizationError,
    QuadratureError,
    DecompositionError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliValidationError as exc:
        print(f"ringsfwm: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"ringsfwm: validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ringsfwm: I/O error: {exc}", file=sys.stderr)
        return 3
    except _COMPUTE_ERRORS as exc:
        print(f"ringsfwm: computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
