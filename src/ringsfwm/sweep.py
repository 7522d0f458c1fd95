"""Coupling-grid sweeps, optimum reports, and CSV/JSON emission.

A sweep evaluates requested observables on a 1-D or 2-D grid of coupling
rates (in units of gamma_c).  Every output is one array-kernel call on the
whole grid: the closed-form rates and probabilities by the kernels that back
the scalar library functions, and the Schmidt number ``K`` by a kernel on the
linewidth ratio ``tgamma/gamma``, which computes the trapezoid-grid K of the
library's wavepacket grid at 192 points over ``20/gamma`` by O(N)
recurrences, once per distinct ratio, equal to the library grid path to
<= 1e-13 relative.  That window truncates the wavepacket where
``tgamma < gamma``, so ``meta["K_grid_rel_error"]`` reports how far the ``K``
and ``K_minus_1`` columns lie from the closed form
``K = (2r+1)(3r+1)/(r(6r+5))``.  The sweep machinery
only maps the grid to coupling rates, keeps each output as one column of
Python values, and serializes the columns.  CSV and JSON serialization read
each column as one iterator over its cells in row order, take one block of
rows at a time from every iterator, and fill the block with one format pass;
:func:`emit` writes each block as it is formatted, so a panel's whole text
is never held.  A 2-D sweep's coupling texts are formatted once per axis
value and laid out by grid position, and an ``error`` column holding one
value on every row is part of the row template; ``SweepResult.rows`` serves
library callers.  Each output's pump regime and rate kernel come from the
table ``optimize._OBSERVABLES``, to which this module adds ``CAR`` and ``K``.
:func:`emit_all` computes and writes several panels in two processes: a
child forked first does the second-largest panel while the caller does the
rest in panel order, each dropping a result once it is written.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import warnings
from dataclasses import asdict, dataclass, field
from itertools import chain, cycle, islice, repeat
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
    _broadband_rule,
    _check_pump_loss,
    _drive_cw,
    _point_count,
    _point_rates,
    _positive_finite,
    _prob_scale,
    _real,
    _warn,
    _write,
    prob_scale_p0,
    rate_scale_R0,
)
from .cw import _CAR_UNDEFINED, _car_kernel, _pair_rate_kernel, _single_rate_kernel
from .optimize import (
    _OBSERVABLES,
    OptimizationTarget,
    PumpRegime,
    _log_grid,
    _maximize,
    _mesh,
    all_targets,
    analytic_optimum,
    coupling_parameter_names,
)
from .pulsed import _broadband_mask, _drive_pulsed, _warn_if_strained
from .schmidt import _k_minus_1, _schmidt_number_kernel

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "emit",
    "emit_all",
    "render",
    "optima_table",
    "report_optima",
    "algaas_example",
]

# Each output's pump regime: the rate kernels of optimize._OBSERVABLES, CAR and K.
_REGIMES = {output: regime for (regime, _), (output, _) in _OBSERVABLES.items()}
_REGIMES.update(CAR=PumpRegime.CW, K=PumpRegime.BROADBAND_PULSE)
_KERNELS = dict(_OBSERVABLES.values())
# The trapezoid grid of the K column: points, and window in units of 1/gamma.
_K_GRID_POINTS = 192
_K_WINDOW_OVER_GAMMA = 20.0
# Rows per ``%`` pass and per write when a result is serialized: enough to
# amortise the pass, few enough that no panel's whole text is ever held.
_BLOCK_ROWS = 1000


@dataclass(frozen=True)
class SweepAxis:
    """One coupling axis of a sweep, in units of gamma_c."""

    name: str
    start: float
    stop: float
    n_points: int
    scale: str = "log"

    def __post_init__(self) -> None:
        start, stop = _real("SweepAxis", "start", self.start), _real("SweepAxis", "stop", self.stop)
        if not (0.0 < start < stop < math.inf):
            raise ValueError(
                f"SweepAxis {self.name!r} requires finite 0 < start < stop, got [{start}, {stop}]"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(
            self, "n_points", _point_count(f"SweepAxis {self.name!r} n_points", self.n_points, 2)
        )
        if self.scale not in ("linear", "log"):
            raise ValueError(f"SweepAxis scale must be 'linear' or 'log', got {self.scale!r}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return _log_grid(self.start, self.stop, self.n_points)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.outputs:
            raise ValueError("SweepSpec requires at least one output")
        unknown = [o for o in self.outputs if o not in _REGIMES]
        if unknown:
            raise ValueError(f"unknown sweep outputs {unknown!r}; valid: {sorted(_REGIMES)}")
        if len(set(self.outputs)) < len(self.outputs):
            raise ValueError(f"sweep outputs must not repeat, got {list(self.outputs)!r}")
        cw = self.pump.mode is PumpMode.CW
        bad = [o for o in self.outputs if _REGIMES[o] is not self.pump_regime]
        if bad:
            raise ValueError(f"outputs {bad!r} require a {'pulsed' if cw else 'CW'} pump")
        if self.pump.spectrum is not None:
            raise ValueError(
                "sweeps use the broadband flattop closed forms; a tabulated pump "
                "spectrum is not supported"
            )
        if "CAR" in self.outputs and self.coincidence_window is None:
            raise ValueError("CAR output requires a coincidence_window [s]")
        if self.coincidence_window is not None and not cw:
            raise ValueError("coincidence_window applies to a CW pump; a pulsed sweep has no CAR")
        object.__setattr__(self, "gamma_c", _positive_finite("SweepSpec", "gamma_c", self.gamma_c))
        for name in ("tgamma_c", "coincidence_window"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _positive_finite("SweepSpec", name, value))
        names = coupling_parameter_names(self.geometry)
        _check_pump_loss(self.geometry, self.tgamma_c, self.gamma_c)
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
        }


@dataclass(frozen=True)
class SweepResult:
    """A sweep's values, held as columns.

    ``columns`` maps each column name to a list with one Python value per
    grid point, axis2-major: the couplings in gamma_c units, then the
    outputs, then ``error`` (None, or the failure text).  ``rows`` derives
    the same table as one dict per grid point, for library callers;
    :func:`render` reads the columns, and requires each to hold the
    ``n1*n2`` values of the spec's grid, axis2-major: it rejects a column of
    another length, or a coupling column that is not its axis on that
    grid."""

    spec: SweepSpec
    columns: dict[str, list]
    meta: dict = field(compare=False)

    @property
    def rows(self) -> tuple[dict, ...]:
        return tuple(dict(zip(self.columns, cells)) for cells in zip(*self.columns.values()))


def _evaluate(spec: SweepSpec, output: str, point) -> tuple[np.ndarray, dict[int, str]]:
    """One output at every point of a flattened grid (couplings in gamma_c
    units): the values, NaN where a point fails, and each failed point's
    message by index."""
    rates = _, _, g, tg = _point_rates(spec.geometry, point, spec.gamma_c, spec.tgamma_c)
    ring, pump = spec.ring, spec.pump
    if pump.mode is PumpMode.CW:
        d = _drive_cw(ring, pump.power)
        if output != "CAR":
            return _KERNELS[output](*rates, d), {}
        with np.errstate(divide="ignore", invalid="ignore"):
            r_acc, values = _car_kernel(
                _single_rate_kernel(*rates, d), _pair_rate_kernel(*rates, d),
                spec.coincidence_window,
            )
        ok = r_acc != 0.0
        why = [_CAR_UNDEFINED] * int(np.count_nonzero(~ok))
    else:
        delta_omega = pump.delta_omega_for(tg)
        ok = _broadband_rule(tg, delta_omega)[0]
        why = [_NOT_BROADBAND.format(r) for r in (delta_omega / tg)[~ok].tolist()]
        if output == "K":
            values = np.full(ok.shape, np.nan)
            values[ok] = _schmidt_number_kernel(
                (tg / g)[ok], _K_GRID_POINTS, _K_WINDOW_OVER_GAMMA
            )
        else:
            values = _KERNELS[output](*rates, _drive_pulsed(ring, pump.energy, delta_omega))
    return np.where(ok, values, np.nan), dict(zip(np.flatnonzero(~ok).tolist(), why))


def run_sweep(spec: SweepSpec, *, refine: bool = False) -> SweepResult:
    """Evaluate every requested output on the coupling grid.

    Each output is one array-kernel call over the whole grid.  Each column
    lists the grid points axis2-major.  A point that fails gets NaN for that
    output and a message in the ``error`` column without affecting the rest
    of the grid.  A ``ps`` above 0.1 fails no point; a pulsed sweep with a
    ``ps`` or ``psi`` column warns once, for the largest.
    With ``refine=True`` the observed maxima reported in the metadata are
    sharpened by the maximizer of :func:`ringsfwm.optimize.numeric_optimum`:
    log-grid zoom from the best cell down to a log cell of 1e-7 within the
    swept box, then a parabolic vertex step.  Refining leaves the columns
    unchanged.
    """
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    point = _mesh([ax.values() for ax in axes])
    names = coupling_parameter_names(spec.geometry)
    columns = {_coupling_column(n): a.tolist() for n, a in zip(names, point)}
    errors: list[Optional[str]] = [None] * point[0].size
    if spec.pump.mode is PumpMode.PULSED:
        # One marginal-bandwidth warning per call, naming the caller.  tgamma
        # grows with every coupling, so the grid corner bounds delta_omega/tgamma
        # over the swept box, and the refining zoom needs no check of its own.
        _, _, g, tg = _point_rates(spec.geometry, point, spec.gamma_c, spec.tgamma_c)
        _broadband_mask(tg, spec.pump.delta_omega_for(tg))
    observed, evaluated = {}, {}
    for output in spec.outputs:
        values, failures = evaluated[output] = _evaluate(spec, output, point)
        columns[output] = values.tolist()
        if output == "K":
            # companion column for log-scale closeness-to-separable plots
            columns["K_minus_1"] = (values - 1.0).tolist()
            k_error = _k_grid_error(tg / g, values)
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
    if not {"ps", "psi"}.isdisjoint(spec.outputs):
        # the largest ps over the points where the broadband forms hold:
        # fmax passes over the NaN of the points where they fail
        ps = (evaluated["ps"] if "ps" in evaluated else _evaluate(spec, "ps", point))[0]
        _warn_if_strained(np.fmax.reduce(ps, initial=0.0))

    meta = {
        "version": _pkg_version,
        "spec": spec.to_dict(),
        "refined": bool(refine),
        "coupling_parameters": list(names),
        "observed_maxima": observed,
        "optima": _analytic_optima_meta(spec),
    }
    if "K" in spec.outputs:
        meta["K_grid_rel_error"] = k_error
    return SweepResult(spec=spec, columns=columns, meta=meta)


def _k_grid_error(ratio: np.ndarray, k: np.ndarray) -> Optional[dict]:
    """Worst relative error of the grid ``K`` and ``K - 1`` against their
    closed forms, over the distinct ratios ``tgamma/gamma`` of the points
    where K was evaluated; None where it was evaluated nowhere."""
    ok = ~np.isnan(k)
    if not ok.any():
        return None
    r, first = np.unique(ratio[ok], return_index=True)
    exact = _k_minus_1(r)
    error = np.abs((k[ok][first] - 1.0) - exact)
    return {"K": float(np.max(error / (1.0 + exact))), "K_minus_1": float(np.max(error / exact))}


def _coupling_column(name: str) -> str:
    """The column of coupling ``name``, in units of gamma_c."""
    return f"{name}_over_gamma_c"


def _cell_ratio(axis: SweepAxis, p: float) -> float:
    """Ratio ``r`` whose log window ``[p/r, p*r]`` spans +-1 grid cell around
    the grid value ``p``; on a linear axis of step ``h``, ``p/(p - h)``."""
    if axis.scale == "log":
        return (axis.stop / axis.start) ** (1.0 / (axis.n_points - 1))
    h = (axis.stop - axis.start) / (axis.n_points - 1)
    return 1.0 + h / max(p - h, axis.start)  # the axis start bounds the first cell


def _analytic_optima_meta(spec: SweepSpec) -> Optional[dict]:
    """Analytic optimum locations/values for the swept geometry and regime:
    the two :func:`optima_table` rows of that geometry and regime.  None
    where the pump loss ``tgamma_c`` differs from ``gamma_c``, which the
    table assumes."""
    if spec.tgamma_c not in (None, spec.gamma_c):
        return None
    pump, cw = spec.pump, spec.pump_regime is PumpRegime.CW
    if cw:
        scale = rate_scale_R0(spec.ring, pump.power, spec.gamma_c)
    elif pump.bandwidth_factor is None:
        scale = None  # an absolute-bandwidth pump: p0 is not defined
    else:
        # run_sweep checked the broadband rule on the grid, where delta_omega/tgamma = B
        scale = _prob_scale(spec.ring, pump.energy, pump.bandwidth_factor, spec.gamma_c)
    optima = {"scale_name": "R0_per_s" if cw else "p0", "scale_value": scale,
              "plot_normalization": None if scale is None else 0.5 * scale}
    for (regime, objective), (output, _) in _OBSERVABLES.items():
        if regime is spec.pump_regime:
            row = _optimum_row(spec.geometry, OptimizationTarget(objective, regime), scale)
            optima[output] = {key: row[key] for key in
                              ("couplings_over_gamma_c", "peak_normalized", "peak_absolute")}
    return optima


def _csv_text(value: Optional[str]) -> str:
    """A text cell: empty for None, and quoted as RFC 4180 asks where it holds
    a comma, a double quote or a line break."""
    if value is None:
        return ""
    if any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _pieces(result: SweepResult, fmt: str):
    """The text of :func:`render` as an iterator of pieces: the head, the rows
    in blocks of ``_BLOCK_ROWS``, and the tail.  The format and the column
    lengths are checked, and the row template built, before this returns;
    each block is formatted when it is asked for.

    The columns are read, never ``rows``: one row template, repeated once
    per row of a block, is filled by a single ``%`` per block from one
    iterator per column over its ``n_rows`` cells in row order.  A 2-D
    sweep's axis values are formatted once each, read from their columns
    (axis2-major: ``[::n1]`` and ``[:n1]``): each axis 2 text is repeated
    over its run of ``n1`` rows as it is reached, and the axis 1 texts are
    cycled.  A varying ``error`` column, and a JSON column holding a
    non-finite value, are mapped through their converter; other columns,
    a 1-D sweep's coupling column among them, are left for the ``%``
    pass.  An ``error`` column that holds one value on every row (None
    where no point fails) is written into the template."""
    if fmt == "csv":
        number, text, inline = "%.17g".__mod__, _csv_text, "%.17g"
    elif fmt == "json":
        number, text, inline = _json_number, json.dumps, "%r"
    else:
        raise ValueError(f"unknown emit format {fmt!r}; expected 'csv' or 'json'")
    columns, grid = result.columns, result.spec
    n1, n2 = grid.axis1.n_points, 1 if grid.axis2 is None else grid.axis2.n_points
    n_rows = n1 * n2
    for name, values in columns.items():
        if len(values) != n_rows:
            raise ValueError(f"sweep column {name!r} holds {len(values)} values; its "
                             f"{n1}x{n2} grid has {n_rows}")
    # a 1-D sweep's coupling column is left to the % pass, as an output column
    axis1, axis2 = (
        map(_coupling_column, coupling_parameter_names(grid.geometry))
        if grid.axis2 is not None else (None, None)
    )
    specs, iters = [], []
    for name, values in columns.items():
        if name == "error" and values.count(values[0]) == n_rows:  # one text on every row
            specs.append(text(values[0]).replace("%", "%%"))
            continue
        spec = "%s"
        if name == axis2:  # each text over its run of n1 rows
            axis = _axis(name, (values[j::n1] for j in range(n1)))
            column = chain.from_iterable(repeat(number(v), n1) for v in axis)
        elif name == axis1:
            axis = _axis(name, (values[k : k + n1] for k in range(0, n_rows, n1)))
            column = cycle([number(v) for v in axis])
        elif name == "error":
            column = map({v: text(v) for v in dict.fromkeys(values)}.__getitem__, values)
        elif fmt == "json" and not math.isfinite(sum(values)):
            column = map(_json_number, values)
        else:
            spec, column = inline, iter(values)  # the % pass formats them
        specs.append(spec)
        iters.append(column)
    if fmt == "csv":
        head, row, sep, tail = ",".join(columns) + "\n", ",".join(specs) + "\n", "", ""
    else:
        head = '{"meta": ' + json.dumps(result.meta) + ', "rows": ['
        row = "{" + ", ".join(
            json.dumps(c).replace("%", "%%") + ": " + s for c, s in zip(columns, specs)
        ) + "}"
        sep, tail = ", ", "]}\n"
    return _blocks(head, row, sep, tail, n_rows, iters)


def _axis(name: str, runs) -> list:
    """The axis values that coupling column ``name`` repeats: the first of
    ``runs``, its slices that each hold the axis where the column holds the
    grid axis2-major.  A run that differs raises ``ValueError``."""
    first = next(runs)
    if any(run != first for run in runs):
        raise ValueError(f"sweep column {name!r} does not hold its grid axis axis2-major")
    return first


def _blocks(head: str, row: str, sep: str, tail: str, n_rows: int, columns: list):
    """``head``, then ``n_rows`` copies of the template ``row`` joined by
    ``sep`` one block of rows at a time, then ``tail``.  Each of ``columns``
    iterates over one column's cells in row order; a block's cells are
    taken from each into one list, column by column, and fill its template."""
    yield head
    width = len(columns)
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            cells[j::width] = islice(column, stop - start)
        template = (sep if start else "") + sep.join([row] * (stop - start))
        yield template % tuple(cells)
    yield tail


def render(result: SweepResult, fmt: str) -> str:
    """Serialize a sweep result: 'csv' (rows only) or 'json' (meta + rows).

    CSV numbers are written with 17 significant digits, so they read back
    bit-exact, and the ``error`` column is text.  The JSON text is that of
    ``json.dumps({"meta": meta, "rows": rows})``.  The string is the blocks
    that :func:`emit` writes, joined."""
    return "".join(_pieces(result, fmt))


def emit(result: SweepResult, fmt: str, path) -> None:
    """Write a sweep result to ``path``, or to stdout when ``path`` is None,
    one block of ``_BLOCK_ROWS`` rows at a time as it is formatted, so no
    more than a block's text is held; the bytes are those of :func:`render`.
    An unknown format, and columns that do not hold the spec's grid, are
    rejected before the file is opened; I/O failures carry the path
    context."""
    _write(_pieces(result, fmt), path)


# Python 3.12 and later warn (DeprecationWarning) when a multi-threaded
# process calls os.fork().
_FORK_WARNS = sys.version_info >= (3, 12)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _split(sizes: list[int]) -> int:
    """The child's panel of two or more with these ``sizes``: the index of
    the second largest (equal sizes kept in order)."""
    return sorted(range(len(sizes)), key=lambda i: -sizes[i])[1]


def _emit_share(panels: list, share, fmt: str):
    """Compute and :func:`emit` each panel of ``share`` in turn, holding no
    result past its write; the index and exception of the first that fails,
    or None."""
    for i in share:
        spec, refine, path = panels[i]
        try:
            emit(run_sweep(spec, refine=refine), fmt, path)
        except Exception as exc:  # noqa: BLE001 - reported to the caller of emit_all
            return i, exc
    return None


def emit_all(panels, fmt: str) -> None:
    """Compute each ``(spec, refine, path)`` of ``panels`` with
    :func:`run_sweep` and write it to its file as :func:`emit` does, in two
    processes: the figures have two panels far larger than the rest.

    With ``os.fork``, two or more panels and two or more CPUs this process
    may run on, one ``os.fork()`` child, forked before any panel is
    computed, computes and writes the second-largest panel by row count
    (equal sizes kept in ``panels`` order); the caller does the others, or
    every panel otherwise, in ``panels`` order.  Each process drops a
    result once its file is written.  The files are the bytes :func:`emit`
    writes; every path must name a file.

    The child records the warnings that pass the filters it inherits, sends
    each back as its message text and category through a pipe with the
    pickled failure of its panel (or None), and leaves by ``os._exit``.
    After its own panels the caller issues them again through
    :func:`ringsfwm.core._warn`, which issued them in the child: the child
    is a fork of this call, so it names the same caller line.  The caller's
    filters, warning registries and ``catch_warnings`` see them as warnings
    raised here.  The child is reaped before this returns or raises.  The
    failure of the first failing panel in ``panels`` order is raised; a
    child that ends without a report raises ``OSError`` naming its file.

    Python 3.12 and later warn (``DeprecationWarning``) when a multi-threaded
    process forks, because a lock another thread held stays held in the
    child.  There that warning is ignored in a ``catch_warnings()`` around
    the fork, which changes the filters and so clears every warning
    registry: a repeated call in one process shows again the warnings that
    a ``default`` or ``module`` filter suppresses as repeats when nothing is
    forked.  The program starts no thread, and the child's one thread runs
    only the sweep path: numpy ufuncs, reductions, sorts and array builds,
    the warnings machinery with a list of its own as the sink, string
    formatting, and the write of its own file.  That path makes no BLAS or
    LAPACK call, so it never waits on a BLAS thread pool, and imports no
    module for the first time, so it never takes the import lock.
    ``os._exit`` runs no exit handler or stream flush."""
    panels = list(panels)
    if any(path is None for *_, path in panels):
        # a child's stdout buffer is never flushed, and its order would vary
        raise ValueError("emit_all writes files; emit writes a result to stdout")
    child, caught = None, ()
    if hasattr(os, "fork") and len(panels) >= 2 and _cpu_count() >= 2:
        child = _split([
            math.prod(ax.n_points for ax in (spec.axis1, spec.axis2) if ax is not None)
            for spec, *_ in panels
        ])
        read_fd, write_fd = os.pipe()
        if _FORK_WARNS:  # catch_warnings() clears every warning registry
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                        r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
        else:
            pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                with warnings.catch_warnings(record=True) as log:
                    failure = _emit_share(panels, [child], fmt)
                report = failure, [(str(w.message), w.category) for w in log]
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(pickle.dumps(report))
                os._exit(0)
            finally:  # reached only by an exception that escaped the report
                os._exit(1)
        os.close(write_fd)
    failures = []
    try:
        failures.append(_emit_share(panels, [i for i in range(len(panels)) if i != child], fmt))
    finally:
        if child is not None:
            with os.fdopen(read_fd, "rb") as fh:
                report = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            failure, caught = pickle.loads(report) if report else ((child, OSError(
                f"panel worker for {panels[child][-1]!s} ended without a report "
                f"(exit status {status})")), ())
            failures.append(failure)
    for message, category in caught:
        _warn(message, category)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _optimum_row(geometry: Geometry, target: OptimizationTarget, scale) -> dict:
    """One :func:`optima_table` row; ``scale`` is the regime's ``R0`` or ``p0``,
    or None."""
    rec = analytic_optimum(geometry, target)
    regime = target.pump_regime
    return {
        "regime": regime.value,
        "geometry": geometry.value,
        "objective": target.objective.value,
        "coupling_names": list(coupling_parameter_names(geometry)),
        "couplings_over_gamma_c": list(rec.couplings),
        "peak_normalized": rec.peak_value,
        "scale_unit": "R0" if regime is PumpRegime.CW else "p0",
        "peak_absolute": None if scale is None else rec.peak_value * scale,
        "absolute_unit": "1/s" if regime is PumpRegime.CW else "per pulse",
    }


def _optima(ring, gamma_c, power, energy, bandwidth_factor):
    """The 12 optimum rows of :func:`optima_table` and the scales ``R0`` and
    ``p0`` they use, each None where its drive is not given."""
    r0 = rate_scale_R0(ring, power, gamma_c) if power is not None else None
    p0 = (
        prob_scale_p0(ring, energy, bandwidth_factor, gamma_c)
        if (energy is not None and bandwidth_factor is not None)
        else None
    )
    rows = [_optimum_row(geometry, target, r0 if target.pump_regime is PumpRegime.CW else p0)
            for geometry, target in all_targets()]
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
