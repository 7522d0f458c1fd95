"""Command-line front end.

Subcommands: ``rates`` (single design point), ``sweep`` (coupling grids),
``optimize`` (optimum report), ``schmidt`` (the exact Schmidt number and
leading coefficients at one design point; a grid of K runs through
``sweep``), ``validate``
(analytic-vs-numeric cross check), and ``figure2``/``figure3`` (canned AlGaAs
coupling scans for CW and broadband-pulse pumping).

The figure commands hand their panel specs to
:func:`ringsfwm.sweep.emit_all`, which computes and writes them in two
processes: with two or more CPUs, a child forked before any panel is
computed does the second-largest panel while the caller does the rest in
panel order, with the bytes and warnings of one process.  ``--refine``
changes only ``meta``, which CSV lacks, so it rejects ``--format csv``.

Each command imports the config reader (and ``configparser``),
:mod:`ringsfwm.sweep` and :mod:`ringsfwm.schmidt` only if it runs them, in
its own body: ``validate`` imports none.  The config reader imports
:mod:`ringsfwm.sweep`, so a command that reads a config loads all three.
``json`` is imported by the commands that write it (``rates``,
``optimize``, ``schmidt``; the sweep module imports its own).  A plain
command line -- a command, then its own flags in full, each at most once,
each value valid and not starting with ``-`` -- is read from the flag
table without ``argparse``; every other one (help, ``--version``, an
abbreviation, ``--flag=value``, any error) goes to ``argparse``, which
alone writes help, usage and error text.
Every output goes through :func:`ringsfwm.core._write_text` or
:func:`ringsfwm.sweep.emit`.

Exit codes: 0 success, 1 validation error, 2 computation failure,
3 I/O failure.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core import (
    Geometry,
    PumpMode,
    PumpSpec,
    _prob_scale,
    _write_text,
    coupling_parameter_names,
    quality_factors,
    rate_scale_R0,
)
from .cw import cw_accidentals_and_car, cw_observables
from .optimize import OptimizationError, cross_validate_optima
from .pulsed import (
    QuadratureError,
    _perturbative_observables,
    _single_prob_numeric,
    pulsed_observables,
)

if TYPE_CHECKING:  # imported where used, so other commands never load it
    from .sweep import SweepSpec

_FIGURE_RANGE = (0.05, 5.0)
_FIGURE_K_GRID = 25


class _CliValidationError(Exception):
    pass


# Every flag a subcommand can declare; each subcommand declares only the
# flags it honours (_COMMANDS), with the departures below.
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


def _flag_spec(command: str, flag: str) -> dict:
    """The ``add_argument`` keywords of ``flag`` under ``command``."""
    return {**_FLAGS[flag], **_FLAG_DEPARTURES.get((command, flag), {})}


def _build_parser(command: str | None = None):
    """The ``ringsfwm`` parser with the subparser of ``command`` alone, or with
    all seven when ``command`` names none (``-h``, ``--version``, a typo)."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # noqa: D102 - argparse hook
            raise _CliValidationError(message)

    parser = _Parser(prog="ringsfwm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ringsfwm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        handler, flags, help_text = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **_flag_spec(name, flag))
        sub.set_defaults(handler=handler)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser(argv[0]).parse_args(argv)`` returns, read from
    the flag table, when ``argv`` is plain: a command, then flags it
    declares, each at most once and spelt in full, each value flag followed
    by a value that does not start with ``-`` and that the flag's ``type``
    and ``choices`` accept, and every required flag present.  None for any
    other ``argv``, which argparse then reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    handler, flags, _ = _COMMANDS[command]
    specs = {flag: _flag_spec(command, flag) for flag in flags}
    given = {}
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in specs.items()):
        return None
    return SimpleNamespace(command=command, handler=handler, **{
        flag[2:]: given.get(flag, False if spec.get("action") == "store_true" else None)
        for flag, spec in specs.items()})


def _cmd_rates(args) -> int:
    import json

    from .config import (
        coincidence_window_from_config, load_config, point_config_from_config,
        pump_from_config, ring_from_config,
    )

    cp = load_config(args.config, args.command)
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
    else:
        if pump.spectrum is not None:
            ps, rel_err = _single_prob_numeric(ring, cfg, pump.energy, pump.spectrum)
            # the Lorentzian pair factor is shared, so psi = eta*ps for any spectrum
            obs = _perturbative_observables(ps, cfg.heralding_efficiency * ps)
            head, tail = {"method": "numeric-quadrature"}, {"quad_rel_err": rel_err}
        else:
            delta_omega = pump.delta_omega_for(cfg.tgamma)
            # warns where the broadband rule is marginal; p0 at the same B does not again
            obs = pulsed_observables(ring, cfg, pump.energy, delta_omega)
            head = {"delta_omega_rad_per_s": delta_omega, "method": "broadband-closed-form"}
            tail = {} if pump.bandwidth_factor is None else {
                "p0": _prob_scale(ring, pump.energy, pump.bandwidth_factor, cfg.gamma_c)}
        report["pulsed"] = {
            "pulse_energy_j": pump.energy, **head,
            "ps_per_pulse": obs.ps,
            "pi_per_pulse": obs.pi,
            "psi_per_pulse": obs.psi_pair,
            "p_acc_per_pulse": obs.ps * obs.pi,
            **tail,
        }
    _write_text(json.dumps(report, indent=2), args.out)
    return 0


def _grid_format(args) -> str:
    """``--format``, ``json`` by default, rejected as CSV with ``--refine``."""
    if args.refine and args.format == "csv":
        raise ValueError("--refine sharpens only meta.observed_maxima, and CSV carries "
                         "no meta: use --format json or drop --refine")
    return args.format or "json"


def _cmd_sweep(args) -> int:
    """Run the ``[sweep]`` grid at ``--grid`` points per axis and write it in
    ``--format``."""
    from .config import load_config, sweep_spec_from_config
    from .sweep import emit, run_sweep

    fmt = _grid_format(args)
    spec = sweep_spec_from_config(load_config(args.config, args.command))
    if args.grid is not None:
        axis2 = None if spec.axis2 is None else replace(spec.axis2, n_points=args.grid)
        spec = replace(spec, axis1=replace(spec.axis1, n_points=args.grid), axis2=axis2)
    emit(run_sweep(spec, refine=args.refine), fmt, args.out)
    return 0


def _cmd_optimize(args) -> int:
    import json

    from .config import load_config, loss_rates_from_config, pump_from_config, ring_from_config
    from .sweep import optima_table, report_optima

    cp = load_config(args.config, args.command)
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
    import json

    from .config import load_config, point_config_from_config, pump_from_config
    from .schmidt import schmidt_spectrum_broadband

    cp = load_config(args.config, args.command)
    cfg = point_config_from_config(cp)
    res = schmidt_spectrum_broadband(cfg, pump_from_config(cp))
    report = {
        "geometry": cfg.geometry.value,
        "K": res.K,
        "K_minus_1": res.K_minus_1,
        "leading_schmidt_coefficients": res.lambdas.tolist(),
        "tail_mass": res.tail,
    }
    _write_text(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_validate(args) -> int:
    report = cross_validate_optima()
    _write_text(str(report), args.out)
    return 0 if report.passed else 2


def _figure_panels(pump: PumpSpec, outputs: tuple[str, ...], n: int) -> dict[str, SweepSpec]:
    from .sweep import SweepAxis, SweepSpec, algaas_example

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
    from .sweep import emit_all

    fmt = _grid_format(args)
    if args.config is not None:
        from .config import load_config, pump_from_config

        pump = pump_from_config(load_config(args.config, args.command))
    n = 200 if args.grid is None else args.grid
    stem = args.out or prefix
    panels = [(spec, args.refine, f"{stem}_{label}.{fmt}")
              for label, spec in _figure_panels(pump, outputs, n).items()]
    if schmidt_panel:
        spec = _figure_panels(pump, ("K",), min(n, _FIGURE_K_GRID))["c"]
        panels.append((spec, False, f"{stem}_c_schmidt.{fmt}"))
    emit_all(panels, fmt)
    sys.stdout.write("\n".join(path for *_, path in panels) + "\n")
    return 0


def _cmd_figure2(args) -> int:
    return _run_figure(args, PumpSpec.cw(10e-6), ("Rs", "Rsi"), "figure2", schmidt_panel=False)


def _cmd_figure3(args) -> int:
    pump = PumpSpec.pulsed(1e-12, bandwidth_factor=10.0)
    return _run_figure(args, pump, ("ps", "psi"), "figure3", schmidt_panel=True)


# name: (handler, flags, help); read by _build_parser and _plain_args alike
_COMMANDS = {
    "rates": (_cmd_rates, ("--config", "--out"), "rates/probabilities at a single design point"),
    "sweep": (_cmd_sweep, _GRID_FLAGS, "evaluate outputs on a coupling grid"),
    "optimize": (_cmd_optimize, ("--config", "--out", "--format"),
                 "report all optimal coupling conditions"),
    "schmidt": (_cmd_schmidt, ("--config", "--out"),
                "Schmidt number and leading coefficients at one design point"),
    "validate": (_cmd_validate, ("--out",), "cross-validate analytic vs numeric optima"),
    "figure2": (_cmd_figure2, _GRID_FLAGS, "canned CW coupling scans (AlGaAs example)"),
    "figure3": (_cmd_figure3, _GRID_FLAGS, "canned pulsed coupling scans (AlGaAs example)"),
}

_COMPUTE_ERRORS = (OptimizationError, QuadratureError, np.linalg.LinAlgError, ArithmeticError)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser(argv[0] if argv else None).parse_args(argv)
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
