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
    gamma_a_over_gamma_c = 1.0

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
"""

from __future__ import annotations

import configparser
from typing import Optional

from .core import (
    TWO_PI,
    CouplingConfig,
    Geometry,
    PumpSpec,
    RingParams,
    _config_from_couplings,
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

def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise OSError(f"config file {path!s} not found or unreadable")
    return parser


def _get_quantity(
    cp: configparser.ConfigParser,
    section: str,
    choices: dict[str, float],
    required: bool = True,
) -> Optional[float]:
    """Fetch one physical quantity given alternative unit-suffixed keys.

    ``choices`` maps key name to the factor converting its value to internal
    units (SI, angular frequencies in rad/s).
    """
    if not cp.has_section(section):
        if required:
            raise ValueError(f"config is missing the [{section}] section")
        return None
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
    raw = cp.get(section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key} = {raw!r} is not a number") from exc
    return value * choices[key]


_LINEWIDTH_KEYS = {"_over_2pi_hz": TWO_PI, "_over_2pi_mhz": TWO_PI * 1e6,
                   "_over_2pi_ghz": TWO_PI * 1e9, "_rad_per_s": 1.0}


def _linewidth_choices(base: str) -> dict[str, float]:
    return {base + suffix: factor for suffix, factor in _LINEWIDTH_KEYS.items()}


def ring_from_config(cp: configparser.ConfigParser) -> RingParams:
    n2 = _get_quantity(cp, "ring", {"n2_m2_per_w": 1.0})
    vg = _get_quantity(cp, "ring", {"vg_m_per_s": 1.0})
    area = _get_quantity(cp, "ring", {"area_um2": 1e-12, "area_m2": 1.0})
    circumference = _get_quantity(
        cp,
        "ring",
        {"circumference_um": 1e-6, "circumference_m": 1.0,
         "radius_um": TWO_PI * 1e-6, "radius_m": TWO_PI},
    )
    omega0 = _get_quantity(
        cp,
        "ring",
        {"wavelength_nm": 1e-9, "wavelength_m": 1.0, "omega0_rad_per_s": 1.0},
        required=True,
    )
    if cp.has_option("ring", "omega0_rad_per_s"):
        return RingParams(n2, vg, area, circumference, omega0)
    return RingParams.from_wavelength(n2, vg, area, circumference, omega0)


def pump_from_config(cp: configparser.ConfigParser) -> PumpSpec:
    if not cp.has_section("pump"):
        raise ValueError("config is missing the [pump] section")
    mode = cp.get("pump", "mode", fallback=None)
    if mode is None:
        raise ValueError("[pump] must set mode = cw or mode = pulsed")
    mode = mode.strip().lower()
    if mode == "cw":
        power = _get_quantity(
            cp, "pump", {"power_uw": 1e-6, "power_mw": 1e-3, "power_w": 1.0}
        )
        return PumpSpec.cw(power)
    if mode == "pulsed":
        energy = _get_quantity(
            cp,
            "pump",
            {"pulse_energy_pj": 1e-12, "pulse_energy_nj": 1e-9, "pulse_energy_j": 1.0},
        )
        bandwidth_factor = _get_quantity(
            cp, "pump", {"bandwidth_factor": 1.0}, required=False
        )
        delta_omega = _get_quantity(
            cp,
            "pump",
            _linewidth_choices("delta_omega"),
            required=False,
        )
        spectrum = None
        if cp.has_option("pump", "spectrum_file"):
            spectrum = load_spectrum(cp.get("pump", "spectrum_file"))
        return PumpSpec.pulsed(
            energy,
            delta_omega=delta_omega,
            bandwidth_factor=bandwidth_factor,
            spectrum=spectrum,
        )
    raise ValueError(f"[pump] mode must be 'cw' or 'pulsed', got {mode!r}")


def loss_rates_from_config(cp: configparser.ConfigParser) -> tuple[float, Optional[float]]:
    """Biphoton and (optional, distinct) pump intrinsic loss rates [rad/s]."""
    gamma_c = _get_quantity(cp, "coupling", _linewidth_choices("gamma_c"))
    tgamma_c = _get_quantity(
        cp, "coupling", _linewidth_choices("tgamma_c"), required=False
    )
    return gamma_c, tgamma_c


def geometry_from_config(cp: configparser.ConfigParser) -> Geometry:
    raw = cp.get("coupling", "geometry", fallback=None)
    if raw is None:
        raise ValueError("[coupling] must set geometry")
    key = raw.strip().lower().replace("_", "-")
    for geo in Geometry:
        if geo.value == key:
            return geo
    raise ValueError(
        f"unknown geometry {raw!r}; expected one of "
        f"{[g.value for g in Geometry]}"
    )


def point_config_from_config(cp: configparser.ConfigParser) -> CouplingConfig:
    """Coupling configuration for single-point commands (rates, schmidt)."""
    geometry = geometry_from_config(cp)
    gamma_c, tgamma_c = loss_rates_from_config(cp)
    couplings = [
        _get_quantity(cp, "coupling", {f"{name}_over_gamma_c": gamma_c, **_linewidth_choices(name)})
        for name in coupling_parameter_names(geometry)
    ]
    return _config_from_couplings(geometry, couplings, gamma_c, tgamma_c)


def coincidence_window_from_config(
    cp: configparser.ConfigParser,
) -> Optional[float]:
    return _get_quantity(
        cp,
        "detector",
        {"coincidence_window_ns": 1e-9, "coincidence_window_ps": 1e-12,
         "coincidence_window_s": 1.0},
        required=False,
    )


def _axis_from_config(
    cp: configparser.ConfigParser, prefix: str
) -> Optional[SweepAxis]:
    if not cp.has_option("sweep", prefix):
        return None
    name = cp.get("sweep", prefix).strip()
    return SweepAxis(
        name=name,
        start=cp.getfloat("sweep", f"{prefix}_min"),
        stop=cp.getfloat("sweep", f"{prefix}_max"),
        n_points=cp.getint("sweep", f"{prefix}_points"),
        scale=cp.get("sweep", f"{prefix}_scale", fallback=SweepAxis.scale).strip(),
    )


def sweep_spec_from_config(cp: configparser.ConfigParser) -> SweepSpec:
    if not cp.has_section("sweep"):
        raise ValueError("config is missing the [sweep] section")
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
        schmidt_points=cp.getint("sweep", "schmidt_points", fallback=SweepSpec.schmidt_points),
        t_max_over_gamma=cp.getfloat("sweep", "t_max_over_gamma", fallback=SweepSpec.t_max_over_gamma),
    )
