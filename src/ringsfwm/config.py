"""Config-file loading for the command-line front end.

Files are flat INI ("structured key-value") text.  Every physical quantity
carries an explicit unit suffix in its key name so values can be transcribed
verbatim from datasheets, e.g.::

    [ring]
    n2_m2_per_w = 2.6e-17
    vg_m_per_s = 8.57e7
    area_um2 = 0.330
    radius_um = 143
    wavelength_nm = 1550

    [coupling]
    geometry = all-pass-identical
    gamma_c_over_2pi_mhz = 71.1

    [pump]
    mode = cw
    power_uw = 10

    [sweep]
    axis1 = gamma_a
    axis1_min = 0.05
    axis1_max = 5
    axis1_points = 200
    axis1_scale = log
    outputs = Rs, Rsi

Linewidth keys suffixed ``_over_2pi_<hz|mhz|ghz>`` hold ordinary frequencies
and are converted to angular frequencies (rad/s) on load.

Each command reads its own sections and keys (``_READS``; the example above
is a ``sweep`` file, which scans the couplings rather than reading them), and
a pump only those of its ``mode``.  ``load_config`` rejects the rest of the
file, naming each entry and the commands that read it.
"""

from __future__ import annotations

import configparser
import itertools
import os
from typing import Optional

from .core import (
    TWO_PI,
    CouplingConfig,
    Geometry,
    PumpSpec,
    RingParams,
    coupling_parameter_names,
)
from .pulsed import load_spectrum
from .sweep import SweepAxis, SweepSpec

__all__ = [
    "load_config",
    "ring_from_config",
    "pump_from_config",
    "loss_rates_from_config",
    "point_config_from_config",
    "sweep_spec_from_config",
    "coincidence_window_from_config",
]

def load_config(path, command: str) -> configparser.ConfigParser:
    """Parse an INI file, rejecting any section or key that ``command``
    does not read (``_READS``): a typo, or input meant for another command
    or pump mode, would otherwise be ignored.  No key belongs in every
    section, so ``[DEFAULT]`` keys are rejected too.  A relative
    ``[pump] spectrum_file`` is resolved against the directory of ``path``,
    not the working directory.  The file is read as UTF-8, with or without
    a byte-order mark."""
    # no interpolation: a "%" in a value is an ordinary character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path!s}: {exc}") from exc
    if not read:
        raise OSError(f"config file {path!s} not found or unreadable")
    mode = parser.get("pump", "mode", fallback="").strip().lower()
    defaults = parser.defaults()
    unread = [(f"[{parser.default_section}] {key}", "unknown") for key in defaults]
    for section in parser.sections():
        keys = [key for key in parser[section] if key not in defaults] or [None]
        unread += [(f"[{section}]" + (f" {key}" if key else ""), why) for key in keys
                   if (why := _why_unread(command, mode, section, key))]
    if unread:
        raise ValueError(
            f"config file {path!s}: ringsfwm {command} does not read "
            + "; ".join(f"{', '.join(name for name, _ in group)} ({why})"
                        for why, group in itertools.groupby(unread, key=lambda e: e[1])))
    spectrum_file = parser.get("pump", "spectrum_file", fallback="")
    if spectrum_file:
        parser.set("pump", "spectrum_file",
                   os.path.join(os.path.dirname(os.fspath(path)), spectrum_file))
    return parser


def _why_unread(command: str, mode: str, section: str, key: Optional[str]) -> Optional[str]:
    """Why ``command`` with a ``mode`` pump does not read ``[section] key``
    (a section without keys for ``key=None``), or None if it does."""
    readers = [c for c, row in _READS.items() if section in row and key in {None, *row[section]}]
    other_modes = [m for m, keys in _MODE_KEYS.items() if mode in _MODE_KEYS and m != mode
                   and key in keys]
    if command in readers and not other_modes:
        return None
    if not readers:
        return "unknown"
    why = "read by " + ", ".join(f"ringsfwm {c}" for c in readers)
    why += "".join(f" for a {m} pump" for m in other_modes)
    note = _WHY_UNREAD.get(command, {}).get(key)
    return why if note is None else f"{why}; {note}"


def _number(cp: configparser.ConfigParser, section: str, key: str, kind=float):
    """``kind`` (float or int) of the required ``[section] key``.  Errors name
    the key."""
    if not cp.has_option(section, key):
        raise ValueError(f"[{section}] {key} is required")
    raw = cp.get(section, key)
    try:
        return kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"[{section}] {key} = {raw!r} is not {what}") from exc


def _get_quantity(
    cp: configparser.ConfigParser,
    section: str,
    choices: dict[str, float],
    required: bool = True,
) -> Optional[float]:
    """Fetch one physical quantity given alternative unit-suffixed keys.

    ``choices`` maps key name to the factor converting its value to internal
    units (SI, angular frequencies in rad/s).  A missing section holds no key.
    """
    found = [k for k in choices if cp.has_option(section, k)]
    if len(found) > 1:
        raise ValueError(f"[{section}] gives {found!r}: specify exactly one of them")
    if not found:
        if required:
            raise ValueError(
                f"[{section}] must contain one of: {', '.join(choices)}"
            )
        return None
    key = found[0]
    return _number(cp, section, key) * choices[key]


_LINEWIDTH_KEYS = {"_over_2pi_hz": TWO_PI, "_over_2pi_mhz": TWO_PI * 1e6,
                   "_over_2pi_ghz": TWO_PI * 1e9, "_rad_per_s": 1.0}


def _linewidth_choices(base: str) -> dict[str, float]:
    return {base + suffix: factor for suffix, factor in _LINEWIDTH_KEYS.items()}


# The [ring] quantities, in RingParams order: n2, vg, area, circumference,
# and the wavelength (or omega0).
_RING_KEYS = (
    {"n2_m2_per_w": 1.0},
    {"vg_m_per_s": 1.0},
    {"area_um2": 1e-12, "area_m2": 1.0},
    {"circumference_um": 1e-6, "circumference_m": 1.0,
     "radius_um": TWO_PI * 1e-6, "radius_m": TWO_PI},
    {"wavelength_nm": 1e-9, "wavelength_m": 1.0, "omega0_rad_per_s": 1.0},
)


def ring_from_config(cp: configparser.ConfigParser) -> RingParams:
    n2, vg, area, circumference, omega0 = (_get_quantity(cp, "ring", c) for c in _RING_KEYS)
    if cp.has_option("ring", "omega0_rad_per_s"):
        return RingParams(n2, vg, area, circumference, omega0)
    return RingParams.from_wavelength(n2, vg, area, circumference, omega0)


_POWER_KEYS = {"power_uw": 1e-6, "power_mw": 1e-3, "power_w": 1.0}
_ENERGY_KEYS = {"pulse_energy_pj": 1e-12, "pulse_energy_nj": 1e-9, "pulse_energy_j": 1.0}
_BANDWIDTH_KEYS = {"bandwidth_factor": 1.0}
_DELTA_OMEGA_KEYS = _linewidth_choices("delta_omega")


def pump_from_config(cp: configparser.ConfigParser) -> PumpSpec:
    mode = cp.get("pump", "mode", fallback="").strip().lower()
    if mode == "cw":
        return PumpSpec.cw(_get_quantity(cp, "pump", _POWER_KEYS))
    if mode == "pulsed":
        energy = _get_quantity(cp, "pump", _ENERGY_KEYS)
        bandwidth_factor = _get_quantity(cp, "pump", _BANDWIDTH_KEYS, required=False)
        delta_omega = _get_quantity(cp, "pump", _DELTA_OMEGA_KEYS, required=False)
        spectrum = None
        if cp.has_option("pump", "spectrum_file"):
            spectrum = load_spectrum(cp.get("pump", "spectrum_file"))
        return PumpSpec.pulsed(
            energy,
            delta_omega=delta_omega,
            bandwidth_factor=bandwidth_factor,
            spectrum=spectrum,
        )
    raise ValueError(f"[pump] must set mode = cw or mode = pulsed, not {mode!r}")


_GAMMA_C_KEYS = _linewidth_choices("gamma_c")
_TGAMMA_C_KEYS = _linewidth_choices("tgamma_c")


def loss_rates_from_config(cp: configparser.ConfigParser) -> tuple[float, Optional[float]]:
    """Biphoton and (optional, distinct) pump intrinsic loss rates [rad/s]."""
    gamma_c = _get_quantity(cp, "coupling", _GAMMA_C_KEYS)
    tgamma_c = _get_quantity(cp, "coupling", _TGAMMA_C_KEYS, required=False)
    return gamma_c, tgamma_c


def geometry_from_config(cp: configparser.ConfigParser) -> Geometry:
    raw = cp.get("coupling", "geometry", fallback="")
    try:
        return Geometry(raw.strip().lower().replace("_", "-"))
    except ValueError:
        raise ValueError(f"[coupling] geometry = {raw!r}: expected one of "
                         f"{[g.value for g in Geometry]}") from None


def _coupling_keys(name: str, gamma_c: float) -> dict[str, float]:
    return {f"{name}_over_gamma_c": gamma_c, **_linewidth_choices(name)}


def point_config_from_config(cp: configparser.ConfigParser) -> CouplingConfig:
    """Coupling configuration for single-point commands (rates, schmidt)."""
    geometry = geometry_from_config(cp)
    gamma_c, tgamma_c = loss_rates_from_config(cp)
    couplings = [
        _get_quantity(cp, "coupling", _coupling_keys(name, gamma_c))
        for name in coupling_parameter_names(geometry)
    ]
    return CouplingConfig(geometry, couplings, gamma_c, tgamma_c)


_WINDOW_KEYS = {"coincidence_window_ns": 1e-9, "coincidence_window_ps": 1e-12,
                "coincidence_window_s": 1.0}


def coincidence_window_from_config(
    cp: configparser.ConfigParser,
) -> Optional[float]:
    return _get_quantity(cp, "detector", _WINDOW_KEYS, required=False)


_AXIS_SUFFIXES = ("", "_min", "_max", "_points", "_scale")


def _axis_from_config(
    cp: configparser.ConfigParser, prefix: str
) -> Optional[SweepAxis]:
    if not cp.has_option("sweep", prefix):
        for key in (prefix + suffix for suffix in _AXIS_SUFFIXES[1:]):
            if cp.has_option("sweep", key):
                raise ValueError(f"[sweep] {key} needs {prefix} = <coupling name>")
        return None
    name = cp.get("sweep", prefix).strip()
    return SweepAxis(
        name=name,
        start=_number(cp, "sweep", f"{prefix}_min"),
        stop=_number(cp, "sweep", f"{prefix}_max"),
        n_points=_number(cp, "sweep", f"{prefix}_points", int),
        scale=cp.get("sweep", f"{prefix}_scale", fallback=SweepAxis.scale).strip().lower(),
    )


def sweep_spec_from_config(cp: configparser.ConfigParser) -> SweepSpec:
    axis1 = _axis_from_config(cp, "axis1")
    if axis1 is None:
        raise ValueError("[sweep] must define axis1")
    axis2 = _axis_from_config(cp, "axis2")
    outputs_raw = cp.get("sweep", "outputs", fallback="")
    outputs = tuple(o.strip() for o in outputs_raw.split(",") if o.strip())
    gamma_c, tgamma_c = loss_rates_from_config(cp)
    return SweepSpec(
        geometry=geometry_from_config(cp),
        axis1=axis1,
        axis2=axis2,
        outputs=outputs,
        ring=ring_from_config(cp),
        pump=pump_from_config(cp),
        gamma_c=gamma_c,
        tgamma_c=tgamma_c,
        coincidence_window=coincidence_window_from_config(cp),
    )


# The coupling knobs of every geometry.  rates and schmidt accept a knob of
# another geometry (one design file per geometry); point_config_from_config
# ignores it.
_KNOB_KEYS = {key for geometry in Geometry for name in coupling_parameter_names(geometry)
              for key in _coupling_keys(name, 1.0)}
# Every key a getter above reads, by section.
_GETTER_KEYS = {
    "ring": set().union(*_RING_KEYS),
    "coupling": {"geometry", *_GAMMA_C_KEYS, *_TGAMMA_C_KEYS, *_KNOB_KEYS},
    "pump": {"mode", "spectrum_file", *_POWER_KEYS, *_ENERGY_KEYS, *_BANDWIDTH_KEYS,
             *_DELTA_OMEGA_KEYS},
    "detector": set(_WINDOW_KEYS),
    "sweep": {"outputs", *(axis + suffix for axis in ("axis1", "axis2")
                           for suffix in _AXIS_SUFFIXES)},
}
# Each pump mode reads only its own [pump] and [detector] keys.
_MODE_KEYS = {"cw": {*_POWER_KEYS, *_WINDOW_KEYS},
              "pulsed": {*_ENERGY_KEYS, *_BANDWIDTH_KEYS, *_DELTA_OMEGA_KEYS, "spectrum_file"}}

# The sections each command reads, less the keys of them it leaves out.  Only
# rates evaluates a tabulated spectrum; the rest use the flattop closed forms.
# The Schmidt number does not depend on the ring.
_READS = {command: {section: _GETTER_KEYS[section] - set(skip) for section, skip in row.items()}
          for command, row in {
    "rates": {"ring": (), "coupling": (), "pump": (), "detector": ()},
    "sweep": {"ring": (), "coupling": _KNOB_KEYS, "pump": {"spectrum_file"}, "detector": (),
              "sweep": ()},
    "optimize": {"ring": (), "coupling": {"geometry", *_TGAMMA_C_KEYS, *_KNOB_KEYS},
                 "pump": {"spectrum_file", *_DELTA_OMEGA_KEYS}},
    "schmidt": {"coupling": (), "pump": {"spectrum_file"}},
    "figure2": {"pump": {"spectrum_file"}},
    "figure3": {"pump": {"spectrum_file"}},
}.items()}
_WHY_UNREAD = {"optimize": {
    **dict.fromkeys(_TGAMMA_C_KEYS, "optimize assumes tgamma_c = gamma_c"),
    **dict.fromkeys(_DELTA_OMEGA_KEYS, "the absolute pulsed scale p0 needs bandwidth_factor"),
    **dict.fromkeys({"geometry", *_KNOB_KEYS}, "optimize tabulates every geometry"),
}, "sweep": dict.fromkeys(_KNOB_KEYS, "sweep scans every coupling of the geometry")}
