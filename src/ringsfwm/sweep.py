"""Coupling-grid sweeps, optimum reports, and CSV/JSON emission.

A sweep evaluates requested observables on a 1-D or 2-D grid of coupling
rates (in units of gamma_c).  Every output is one array-kernel call on the
whole grid: the closed-form rates and probabilities by the kernels that back
the scalar library functions, and the Schmidt number ``K`` by a kernel on the
linewidth ratio ``tgamma/gamma``, which evaluates the library's wavepacket
grid once per distinct ratio.  So every emitted number equals a direct library
call with the same inputs; the sweep machinery only maps the grid to coupling
rates, orders the rows and serializes them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ._version import __version__ as _pkg_version
from .core import (
    TWO_PI,
    Geometry,
    PumpMode,
    PumpSpec,
    RingParams,
    _NOT_BROADBAND,
    _check_pump_loss,
    _drive_cw,
    _point_rates,
    prob_scale_p0,
    rate_scale_R0,
)
from .cw import _CAR_UNDEFINED, _car_kernel, _pair_rate_kernel, _single_rate_kernel
from .optimize import (
    Objective,
    OptimizationTarget,
    PumpRegime,
    _maximize,
    _mesh,
    analytic_optimum,
    coupling_parameter_names,
)
from .pulsed import _broadband_mask, _drive_pulsed, _pair_prob_kernel, _single_prob_kernel
from .schmidt import _schmidt_number_kernel

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "emit",
    "render",
    "optima_table",
    "report_optima",
    "algaas_example",
]

_CW_OUTPUTS = {"Rs", "Rsi", "CAR"}
_PULSED_OUTPUTS = {"ps", "psi", "K"}
_ALL_OUTPUTS = _CW_OUTPUTS | _PULSED_OUTPUTS


@dataclass(frozen=True)
class SweepAxis:
    """One coupling axis of a sweep, in units of gamma_c."""

    name: str
    start: float
    stop: float
    n_points: int
    scale: str = "log"

    def __post_init__(self) -> None:
        if not (0.0 < self.start < self.stop < math.inf):
            raise ValueError(
                f"SweepAxis {self.name!r} requires finite 0 < start < stop, got "
                f"[{self.start}, {self.stop}]"
            )
        if self.n_points < 2:
            raise ValueError(f"SweepAxis {self.name!r} requires n_points >= 2")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"SweepAxis scale must be 'linear' or 'log', got {self.scale!r}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.n_points)
        return np.linspace(self.start, self.stop, self.n_points)


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep request: geometry, axes, outputs, ring and pump."""

    geometry: Geometry
    axis1: SweepAxis
    axis2: Optional[SweepAxis]
    outputs: tuple[str, ...]
    ring: RingParams
    pump: PumpSpec
    gamma_c: float
    tgamma_c: Optional[float] = None
    coincidence_window: Optional[float] = None
    schmidt_points: int = 192
    t_max_over_gamma: float = 20.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.outputs:
            raise ValueError("SweepSpec requires at least one output")
        unknown = [o for o in self.outputs if o not in _ALL_OUTPUTS]
        if unknown:
            raise ValueError(f"unknown sweep outputs {unknown!r}; valid: {sorted(_ALL_OUTPUTS)}")
        cw = self.pump.mode is PumpMode.CW
        bad = [o for o in self.outputs if o in (_PULSED_OUTPUTS if cw else _CW_OUTPUTS)]
        if bad:
            raise ValueError(f"outputs {bad!r} require a {'pulsed' if cw else 'CW'} pump")
        if self.pump.spectrum is not None:
            raise ValueError(
                "sweeps use the broadband flattop closed forms; a tabulated pump "
                "spectrum is not supported"
            )
        if "CAR" in self.outputs and self.coincidence_window is None:
            raise ValueError("CAR output requires a coincidence_window [s]")
        for name in ("gamma_c", "tgamma_c", "coincidence_window"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        _check_pump_loss(self.geometry, self.tgamma_c)

        names = coupling_parameter_names(self.geometry)
        swept = (self.axis1.name,) + (() if self.axis2 is None else (self.axis2.name,))
        if swept != names:
            raise ValueError(
                f"{self.geometry.value} sweeps {names!r} as (axis1, axis2), got {swept!r}"
            )

    @property
    def pump_regime(self) -> PumpRegime:
        return PumpRegime.CW if self.pump.mode is PumpMode.CW else PumpRegime.BROADBAND_PULSE

    def to_dict(self) -> dict:
        axis = lambda a: None if a is None else asdict(a)  # noqa: E731
        pump = {"mode": self.pump.mode.value}
        if self.pump.mode is PumpMode.CW:
            pump["power_w"] = self.pump.power
        else:
            pump["pulse_energy_j"] = self.pump.energy
            if self.pump.bandwidth_factor is not None:
                pump["bandwidth_factor"] = self.pump.bandwidth_factor
            if self.pump.delta_omega is not None:
                pump["delta_omega_rad_per_s"] = self.pump.delta_omega
        return {
            "geometry": self.geometry.value,
            "axis1": axis(self.axis1),
            "axis2": axis(self.axis2),
            "outputs": list(self.outputs),
            "gamma_c_rad_per_s": self.gamma_c,
            "tgamma_c_rad_per_s": self.tgamma_c,
            "ring": {
                "n2_m2_per_w": self.ring.n2,
                "vg_m_per_s": self.ring.vg,
                "area_m2": self.ring.area,
                "circumference_m": self.ring.circumference,
                "omega0_rad_per_s": self.ring.omega0,
            },
            "pump": pump,
            "coincidence_window_s": self.coincidence_window,
            "schmidt_points": self.schmidt_points,
            "t_max_over_gamma": self.t_max_over_gamma,
        }


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    meta: dict = field(compare=False)

    def to_json_dict(self) -> dict:
        return {"meta": self.meta, "rows": list(self.rows)}


def _evaluate(spec: SweepSpec, output: str, point) -> tuple[np.ndarray, dict[int, str]]:
    """One output at every point of a flattened grid (couplings in gamma_c
    units): the values, NaN where a point fails, and each failed point's
    message by index."""
    ta, gmu, g, tg = _point_rates(spec.geometry, point, spec.gamma_c, spec.tgamma_c)
    ring, pump = spec.ring, spec.pump
    if pump.mode is PumpMode.PULSED:
        delta_omega = pump.delta_omega_for(tg)
        ok = _broadband_mask(tg, delta_omega)
        why = [_NOT_BROADBAND.format(r) for r in (delta_omega / tg)[~ok].tolist()]
        if output == "K":
            values = np.full(ok.shape, np.nan)
            values[ok], failed = _schmidt_number_kernel(
                (tg / g)[ok], spec.schmidt_points, spec.t_max_over_gamma
            )
            kept = np.flatnonzero(ok)
            failures = dict(zip(np.flatnonzero(~ok).tolist(), why))
            failures.update((int(kept[j]), message) for j, message in failed.items())
            return values, failures
        kernel = _single_prob_kernel if output == "ps" else _pair_prob_kernel
        values = kernel(ta, gmu, g, tg, _drive_pulsed(ring, pump.energy, delta_omega))
    elif output == "CAR":
        d = _drive_cw(ring, pump.power)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_acc, values = _car_kernel(
                _single_rate_kernel(ta, gmu, g, tg, d), _pair_rate_kernel(ta, gmu, g, tg, d),
                spec.coincidence_window,
            )
        ok = r_acc != 0.0
        why = [_CAR_UNDEFINED] * int(np.count_nonzero(~ok))
    else:
        kernel = _single_rate_kernel if output == "Rs" else _pair_rate_kernel
        return kernel(ta, gmu, g, tg, _drive_cw(ring, pump.power)), {}
    return np.where(ok, values, np.nan), dict(zip(np.flatnonzero(~ok).tolist(), why))


def run_sweep(spec: SweepSpec, *, refine: bool = False) -> SweepResult:
    """Evaluate every requested output on the coupling grid.

    Each output is one array-kernel call over the whole grid.  Rows are
    ordered axis2-major.  A point that fails gets NaN for that output and a
    message in the ``error`` column without affecting the rest of the grid.
    With ``refine=True`` the observed maxima reported in the metadata are
    sharpened by the maximizer of :func:`ringsfwm.optimize.numeric_optimum`:
    log-grid zoom from the best cell down to a log cell of 1e-7 within the
    swept box, then a parabolic vertex step.  Refining leaves the rows
    unchanged.
    """
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    point = _mesh([ax.values() for ax in axes])
    names = coupling_parameter_names(spec.geometry)
    columns = {f"{n}_over_gamma_c": a.tolist() for n, a in zip(names, point)}
    errors: list[Optional[str]] = [None] * point[0].size
    observed = {}
    for output in spec.outputs:
        values, failures = _evaluate(spec, output, point)
        columns[output] = values.tolist()
        if output == "K":
            # companion column for log-scale closeness-to-separable plots
            columns["K_minus_1"] = (values - 1.0).tolist()
        for i, message in failures.items():
            message = f"{output}: {message}"
            errors[i] = message if errors[i] is None else f"{errors[i]}; {message}"
        if np.all(np.isnan(values)):
            observed[output] = None
            continue
        k = int(np.nanargmax(values))
        best = tuple(float(a[k]) for a in point), float(values[k])
        if refine:
            best = _maximize(
                lambda p: _evaluate(spec, output, p)[0], *best,
                [_cell_ratio(ax, p) for ax, p in zip(axes, best[0])],
                [(ax.start, ax.stop) for ax in axes],
            )
        observed[output] = {"point_over_gamma_c": list(best[0]), "value": best[1]}
    columns["error"] = errors
    rows = tuple(dict(zip(columns, cells)) for cells in zip(*columns.values()))

    meta = {
        "version": _pkg_version,
        "spec": spec.to_dict(),
        "refined": bool(refine),
        "coupling_parameters": list(names),
        "observed_maxima": observed,
        "optima": _analytic_optima_meta(spec),
    }
    return SweepResult(spec=spec, columns=tuple(columns), rows=rows, meta=meta)


def _cell_ratio(axis: SweepAxis, p: float) -> float:
    """Ratio ``r`` whose log window ``[p/r, p*r]`` spans +-1 grid cell around
    the grid value ``p``; on a linear axis of step ``h``, ``p/(p - h)``."""
    if axis.scale == "log":
        return (axis.stop / axis.start) ** (1.0 / (axis.n_points - 1))
    h = (axis.stop - axis.start) / (axis.n_points - 1)
    return 1.0 + h / max(p - h, axis.start)  # the axis start bounds the first cell


def _analytic_optima_meta(spec: SweepSpec) -> dict:
    """Analytic optimum locations/values for the swept geometry and regime:
    the :func:`optima_table` rows of that geometry and regime."""
    pump = spec.pump
    rows, r0, p0 = _optima(spec.ring, spec.gamma_c, pump.power, pump.energy, pump.bandwidth_factor)
    cw = spec.pump_regime is PumpRegime.CW
    scale = r0 if cw else p0  # None for an absolute-bandwidth pump: p0 is not defined
    optima = {"scale_name": "R0_per_s" if cw else "p0", "scale_value": scale,
              "plot_normalization": None if scale is None else 0.5 * scale}
    outputs = dict(zip((o.value for o in Objective), ("Rs", "Rsi") if cw else ("ps", "psi")))
    for row in rows:
        if (row["regime"], row["geometry"]) == (spec.pump_regime.value, spec.geometry.value):
            optima[outputs[row["objective"]]] = {
                key: row[key] for key in ("couplings_over_gamma_c", "peak_normalized", "peak_absolute")
            }
    return optima


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render(result: SweepResult, fmt: str) -> str:
    """Serialize a sweep result: 'csv' (rows only) or 'json' (meta + rows)."""
    if fmt == "csv":
        lines = [",".join(result.columns)]
        for row in result.rows:
            lines.append(",".join(_format_cell(row[c]) for c in result.columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(result.to_json_dict()) + "\n"
    raise ValueError(f"unknown emit format {fmt!r}; expected 'csv' or 'json'")


def _write_text(text: str, out) -> None:
    """The one output writer: ``text`` with a final newline, to stdout when
    ``out`` is None, else to the file ``out``; I/O failures carry the path."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write output to {out!s}: {exc}") from exc


def emit(result: SweepResult, fmt: str, path) -> None:
    """Write a sweep result to ``path``; I/O failures carry the path context."""
    _write_text(render(result, fmt), path)


def _optima(ring, gamma_c, power, energy, bandwidth_factor):
    """The 12 optimum rows of :func:`optima_table` and the scales ``R0`` and
    ``p0`` they use, each None where its drive is not given."""
    r0 = rate_scale_R0(ring, power, gamma_c) if power is not None else None
    p0 = (
        prob_scale_p0(ring, energy, bandwidth_factor, gamma_c)
        if (energy is not None and bandwidth_factor is not None)
        else None
    )
    rows = []
    for regime in PumpRegime:
        scale = r0 if regime is PumpRegime.CW else p0
        for geometry in Geometry:
            for objective in Objective:
                rec = analytic_optimum(geometry, OptimizationTarget(objective, regime))
                rows.append(
                    {
                        "regime": regime.value,
                        "geometry": geometry.value,
                        "objective": objective.value,
                        "coupling_names": list(coupling_parameter_names(geometry)),
                        "couplings_over_gamma_c": list(rec.couplings),
                        "peak_normalized": rec.peak_value,
                        "scale_unit": "R0" if regime is PumpRegime.CW else "p0",
                        "peak_absolute": None if scale is None else rec.peak_value * scale,
                        "absolute_unit": "1/s" if regime is PumpRegime.CW else "per pulse",
                    }
                )
    return rows, r0, p0


def optima_table(
    ring: RingParams,
    gamma_c: float,
    power: Optional[float] = None,
    energy: Optional[float] = None,
    bandwidth_factor: Optional[float] = None,
) -> list[dict]:
    """All 12 analytic optima with absolute values for the supplied drive.

    CW rows get absolute rates when ``power`` is given; pulsed rows get
    absolute per-pulse probabilities when ``energy`` and ``bandwidth_factor``
    are given.
    """
    return _optima(ring, gamma_c, power, energy, bandwidth_factor)[0]


def report_optima(
    ring: RingParams,
    gamma_c: float,
    power: Optional[float] = None,
    energy: Optional[float] = None,
    bandwidth_factor: Optional[float] = None,
) -> str:
    """Human-readable table of all 12 optimal coupling conditions."""
    rows, r0, p0 = _optima(ring, gamma_c, power, energy, bandwidth_factor)
    lines = []
    qc = ring.omega0 / gamma_c
    lines.append(
        f"ring: Qc = {qc:.3g}, FSR = {ring.fsr / 1e9:.4g} GHz, "
        f"gamma_c/2pi = {gamma_c / TWO_PI / 1e6:.4g} MHz"
    )
    if r0 is not None:
        lines.append(f"CW scale: R0 = {r0:.4g} 1/s")
    if p0 is not None:
        lines.append(f"pulse scale: p0 = {p0:.4g}")
    header = (
        f"{'regime':>15s}  {'geometry':>20s}  {'objective':>10s}  "
        f"{'couplings/gamma_c':>22s}  {'peak':>15s}  {'absolute':>20s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        couplings = ", ".join(f"{c:.4g}" for c in row["couplings_over_gamma_c"])
        peak = f"{row['peak_normalized']:.6g} {row['scale_unit']}"
        absolute = (
            "-"
            if row["peak_absolute"] is None
            else f"{row['peak_absolute']:.4g} {row['absolute_unit']}"
        )
        lines.append(
            f"{row['regime']:>15s}  {row['geometry']:>20s}  {row['objective']:>10s}  "
            f"{couplings:>22s}  {peak:>15s}  {absolute:>20s}"
        )
    return "\n".join(lines)


def algaas_example() -> tuple[RingParams, float]:
    """AlGaAs microring example (ring parameters, gamma_c) used by the canned
    figure commands: n2 = 2.6e-17 m^2/W, vg = 8.57e7 m/s, S = 0.330 um^2,
    L = 2*pi*143 um, lambda = 1550 nm, gamma_c/2pi = 71.1 MHz."""
    ring = RingParams.from_wavelength(
        n2=2.6e-17,
        vg=8.57e7,
        area=0.330e-12,
        circumference=TWO_PI * 143e-6,
        wavelength=1550e-9,
    )
    return ring, TWO_PI * 71.1e6
