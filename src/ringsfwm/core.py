"""Domain types, unit conventions, and coupling-independent scale factors.

Unit conventions
----------------
* Every coupling or loss rate (``gamma_a``, ``gamma_b``, ``gamma_c`` and the
  pump-side ``tgamma_*``) is an *angular* frequency in rad/s.  Measured
  linewidths are usually quoted as ordinary frequencies (``gamma/2pi`` in Hz);
  convert with a factor of 2*pi before constructing any type here.  The config
  file loader (:mod:`ringsfwm.config`) accepts explicitly suffixed keys such as
  ``gamma_c_over_2pi_mhz`` and performs the conversion itself.
* Lengths in m, areas in m^2, powers in W, pulse energies in J, times in s.
* The speed of light is the exact SI value ``C_VACUUM``.

Coupling geometry
-----------------
A single resonance couples to a bus waveguide (rate ``gamma_a``), optionally a
drop waveguide (``gamma_b``), and an intrinsic-loss channel (``gamma_c``).
The biphoton (signal/idler) rates may differ from the pump rates ``tgamma_*``
when the couplers are dispersive or interferometric.  Three named geometries
cover the practically relevant cases:

* ``ALL_PASS_IDENTICAL``   - one bus, pump and biphoton coupled identically,
  photons collected in port a.
* ``ADD_DROP_IDENTICAL``   - bus + drop, identical coupling, collection at the
  drop port b.
* ``ADD_DROP_DISTINCT``    - bus + drop with independently engineered rates:
  only the pump couples to the bus (``gamma_a = 0``) and only the biphoton to
  the drop (``tgamma_b = 0``).

The total linewidths are ``gamma = gamma_a + gamma_b + gamma_c`` for the
biphoton and ``tgamma = tgamma_a + tgamma_b + tgamma_c`` for the pump.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Optional

C_VACUUM = 299792458.0  # speed of light [m/s], exact by SI definition

TWO_PI = 2.0 * math.pi


class BroadbandAssumptionWarning(UserWarning):
    """The pump bandwidth only marginally exceeds the pump linewidth, so
    broadband closed forms are used outside their comfort zone."""


class Geometry(enum.Enum):
    """Ring/waveguide coupling geometry."""

    ALL_PASS_IDENTICAL = "all-pass-identical"
    ADD_DROP_IDENTICAL = "add-drop-identical"
    ADD_DROP_DISTINCT = "add-drop-distinct"


class OutputPort(enum.Enum):
    """Waveguide port where signal and idler photons are collected."""

    A = "a"
    B = "b"


class PumpMode(enum.Enum):
    CW = "cw"
    PULSED = "pulsed"


def _positive_finite(owner: str, name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"{owner}.{name} must be strictly positive and finite, got {value!r}"
        )
    return value


def _nonnegative_finite(owner: str, name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(
            f"{owner}.{name} must be non-negative and finite, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class RingParams:
    """Material and geometry constants of a single microring resonance.

    Parameters
    ----------
    n2 : float
        Kerr nonlinear index [m^2/W].
    vg : float
        Group velocity of the resonant mode [m/s].
    area : float
        Effective transverse mode area [m^2].
    circumference : float
        Ring round-trip length [m].
    omega0 : float
        Pump carrier angular frequency [rad/s].
    """

    n2: float
    vg: float
    area: float
    circumference: float
    omega0: float

    def __post_init__(self) -> None:
        for name in ("n2", "vg", "area", "circumference", "omega0"):
            object.__setattr__(
                self, name, _positive_finite("RingParams", name, getattr(self, name))
            )

    @classmethod
    def from_wavelength(
        cls, n2: float, vg: float, area: float, circumference: float, wavelength: float
    ) -> "RingParams":
        """Construct with ``omega0 = 2*pi*c/wavelength`` (vacuum wavelength, m)."""
        wavelength = _positive_finite("RingParams", "wavelength", wavelength)
        return cls(n2, vg, area, circumference, TWO_PI * C_VACUUM / wavelength)

    @property
    def wavelength(self) -> float:
        """Vacuum pump wavelength [m]."""
        return TWO_PI * C_VACUUM / self.omega0

    @property
    def fsr(self) -> float:
        """Free-spectral range vg/L [Hz]."""
        return self.vg / self.circumference


@dataclass(frozen=True)
class CouplingConfig:
    """The six ring coupling/loss rates plus geometry and collection port.

    ``gamma_a/gamma_b/gamma_c`` apply to the signal and idler (biphoton) and
    ``tgamma_a/tgamma_b/tgamma_c`` to the pump; all in rad/s.  Prefer the
    :meth:`all_pass`, :meth:`add_drop` and :meth:`distinct` constructors, which
    fill in the constrained rates for each geometry.
    """

    gamma_a: float
    gamma_b: float
    gamma_c: float
    tgamma_a: float
    tgamma_b: float
    tgamma_c: float
    geometry: Geometry
    output_port: OutputPort

    def __post_init__(self) -> None:
        for name in ("gamma_a", "gamma_b", "tgamma_a", "tgamma_b"):
            object.__setattr__(
                self, name, _nonnegative_finite("CouplingConfig", name, getattr(self, name))
            )
        for name in ("gamma_c", "tgamma_c"):
            object.__setattr__(
                self, name, _positive_finite("CouplingConfig", name, getattr(self, name))
            )
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"CouplingConfig.geometry must be a Geometry, got {self.geometry!r}")
        if not isinstance(self.output_port, OutputPort):
            raise ValueError(
                f"CouplingConfig.output_port must be an OutputPort, got {self.output_port!r}"
            )

        geo = self.geometry
        if geo is Geometry.ALL_PASS_IDENTICAL:
            self._require("gamma_b == 0", self.gamma_b == 0.0)
            self._require("tgamma_b == 0", self.tgamma_b == 0.0)
            self._require("tgamma_a == gamma_a", self.tgamma_a == self.gamma_a)
            self._require("tgamma_c == gamma_c", self.tgamma_c == self.gamma_c)
            self._require("output_port == a", self.output_port is OutputPort.A)
        elif geo is Geometry.ADD_DROP_IDENTICAL:
            self._require("tgamma_a == gamma_a", self.tgamma_a == self.gamma_a)
            self._require("tgamma_b == gamma_b", self.tgamma_b == self.gamma_b)
            self._require("tgamma_c == gamma_c", self.tgamma_c == self.gamma_c)
            self._require("output_port == b", self.output_port is OutputPort.B)
        elif geo is Geometry.ADD_DROP_DISTINCT:
            self._require("gamma_a == 0", self.gamma_a == 0.0)
            self._require("tgamma_b == 0", self.tgamma_b == 0.0)
            self._require("output_port == b", self.output_port is OutputPort.B)

        # gamma_c > 0 and tgamma_c > 0 already guarantee positive totals.

    def _require(self, condition: str, satisfied: bool) -> None:
        if not satisfied:
            raise ValueError(
                f"CouplingConfig violates '{condition}' for geometry {self.geometry.value}"
            )

    @classmethod
    def all_pass(cls, gamma_a: float, gamma_c: float) -> "CouplingConfig":
        """All-pass ring, identical pump/biphoton coupling, output in port a."""
        return cls(
            gamma_a, 0.0, gamma_c, gamma_a, 0.0, gamma_c,
            Geometry.ALL_PASS_IDENTICAL, OutputPort.A,
        )

    @classmethod
    def add_drop(cls, gamma_a: float, gamma_b: float, gamma_c: float) -> "CouplingConfig":
        """Add-drop ring, identical pump/biphoton coupling, collection at b."""
        return cls(
            gamma_a, gamma_b, gamma_c, gamma_a, gamma_b, gamma_c,
            Geometry.ADD_DROP_IDENTICAL, OutputPort.B,
        )

    @classmethod
    def distinct(
        cls,
        tgamma_a: float,
        gamma_b: float,
        gamma_c: float,
        tgamma_c: Optional[float] = None,
    ) -> "CouplingConfig":
        """Add-drop ring with independent pump (bus) and biphoton (drop) rates.

        The pump loss ``tgamma_c`` defaults to the biphoton loss ``gamma_c``,
        the usual situation for closely spaced resonances.
        """
        if tgamma_c is None:
            tgamma_c = gamma_c
        return cls(
            0.0, gamma_b, gamma_c, tgamma_a, 0.0, tgamma_c,
            Geometry.ADD_DROP_DISTINCT, OutputPort.B,
        )

    @property
    def gamma(self) -> float:
        """Total biphoton linewidth gamma_a + gamma_b + gamma_c [rad/s]."""
        return self.gamma_a + self.gamma_b + self.gamma_c

    @property
    def tgamma(self) -> float:
        """Total pump linewidth tgamma_a + tgamma_b + tgamma_c [rad/s]."""
        return self.tgamma_a + self.tgamma_b + self.tgamma_c

    @property
    def gamma_mu(self) -> float:
        """Biphoton coupling rate into the collection port [rad/s]."""
        return self.gamma_a if self.output_port is OutputPort.A else self.gamma_b

    @property
    def heralding_efficiency(self) -> float:
        """Probability gamma_mu/gamma that a generated photon exits into the
        collection port."""
        return self.gamma_mu / self.gamma


def _check_pump_loss(geometry: Geometry, tgamma_c: Optional[float]) -> None:
    """Reject a separate pump loss where the geometry ties it to ``gamma_c``."""
    if tgamma_c is not None and geometry is not Geometry.ADD_DROP_DISTINCT:
        raise ValueError(
            f"tgamma_c applies to add-drop-distinct only; {geometry.value} "
            "ties the pump loss to gamma_c"
        )


def coupling_parameter_names(geometry: Geometry) -> tuple[str, ...]:
    """Free coupling knobs of a geometry, in record/axis order."""
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return ("gamma_a",)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return ("gamma_a", "gamma_b")
    return ("tgamma_a", "gamma_b")


def _config_from_couplings(
    geometry: Geometry, couplings, gamma_c: float, tgamma_c: Optional[float] = None
) -> CouplingConfig:
    """The one map from a geometry's free couplings [rad/s], in
    :func:`coupling_parameter_names` order, to its :class:`CouplingConfig`;
    ``tgamma_c`` (add-drop-distinct only) defaults to ``gamma_c``."""
    _check_pump_loss(geometry, tgamma_c)
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return CouplingConfig.all_pass(couplings[0], gamma_c)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return CouplingConfig.add_drop(couplings[0], couplings[1], gamma_c)
    return CouplingConfig.distinct(couplings[0], couplings[1], gamma_c, tgamma_c=tgamma_c)


def _point_rates(geometry: Geometry, point, gamma_c: float, tgamma_c: Optional[float] = None):
    """``(tgamma_a, gamma_mu, gamma, tgamma)`` [rad/s] at free couplings ``point``
    (units of ``gamma_c``; floats or arrays), without building a config: the
    constraints of the :class:`CouplingConfig` constructors, summed in the
    order of its properties so each value rounds as that config's would."""
    x = point[0] * gamma_c
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        total = x + gamma_c
        return x, x, total, total
    y = point[1] * gamma_c
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        total = x + y + gamma_c
        return x, y, total, total
    return x, y, y + gamma_c, x + (gamma_c if tgamma_c is None else tgamma_c)


@dataclass(frozen=True)
class PumpSpec:
    """Pump drive: CW average power, or pulse energy plus spectrum.

    A pulsed pump takes exactly one of: an absolute flattop bandwidth
    (``delta_omega``, rad/s); a multiple of the pump linewidth
    (``bandwidth_factor`` B, so that ``delta_omega = B*tgamma`` for whichever
    coupling configuration is being evaluated); or a tabulated ``spectrum``
    (a :class:`ringsfwm.pulsed.TabulatedSpectrum`) for numeric lineshape work,
    which carries its own bandwidth.
    """

    mode: PumpMode
    power: Optional[float] = None
    energy: Optional[float] = None
    delta_omega: Optional[float] = None
    bandwidth_factor: Optional[float] = None
    spectrum: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, PumpMode):
            raise ValueError(f"PumpSpec.mode must be a PumpMode, got {self.mode!r}")
        if self.mode is PumpMode.CW:
            if self.power is None:
                raise ValueError("PumpSpec: CW mode requires power > 0 [W]")
            object.__setattr__(self, "power", _positive_finite("PumpSpec", "power", self.power))
            for name in ("energy", "delta_omega", "bandwidth_factor", "spectrum"):
                if getattr(self, name) is not None:
                    raise ValueError(f"PumpSpec: {name} is not meaningful for a CW pump")
        else:
            if self.power is not None:
                raise ValueError("PumpSpec: power is not meaningful for a pulsed pump")
            if self.energy is None:
                raise ValueError("PumpSpec: pulsed mode requires energy > 0 [J]")
            object.__setattr__(self, "energy", _positive_finite("PumpSpec", "energy", self.energy))
            given = [
                name for name in ("delta_omega", "bandwidth_factor", "spectrum")
                if getattr(self, name) is not None
            ]
            if len(given) != 1:
                raise ValueError(
                    "PumpSpec: pulsed mode requires exactly one of delta_omega, "
                    f"bandwidth_factor or spectrum, got {given or 'none'}"
                )
            if given[0] != "spectrum":
                object.__setattr__(
                    self, given[0], _positive_finite("PumpSpec", given[0], getattr(self, given[0]))
                )

    @classmethod
    def cw(cls, power: float) -> "PumpSpec":
        return cls(PumpMode.CW, power=power)

    @classmethod
    def pulsed(
        cls,
        energy: float,
        *,
        delta_omega: Optional[float] = None,
        bandwidth_factor: Optional[float] = None,
        spectrum: object = None,
    ) -> "PumpSpec":
        return cls(
            PumpMode.PULSED,
            energy=energy,
            delta_omega=delta_omega,
            bandwidth_factor=bandwidth_factor,
            spectrum=spectrum,
        )

    def delta_omega_for(self, tgamma: float) -> float:
        """Absolute pump bandwidth [rad/s] for a given pump linewidth."""
        if self.mode is not PumpMode.PULSED or self.spectrum is not None:
            raise ValueError("delta_omega_for() is only defined for a pulsed flattop pump")
        if self.delta_omega is not None:
            return self.delta_omega
        return self.bandwidth_factor * tgamma


def total_linewidths(cfg: CouplingConfig) -> tuple[float, float]:
    """Return ``(gamma, tgamma)``, the biphoton and pump total linewidths."""
    return (cfg.gamma, cfg.tgamma)


def quality_factors(ring: RingParams, cfg: CouplingConfig) -> tuple[float, float]:
    """Return ``(Q_c, Q)``: intrinsic and loaded quality factors of the
    biphoton resonances, ``Q_c = omega0/gamma_c`` and ``Q = omega0/gamma``."""
    return (ring.omega0 / cfg.gamma_c, ring.omega0 / cfg.gamma)


def _drive_cw(ring: RingParams, power: float) -> float:
    """Pump strength n2*vg^2*omega0*P/(c*S*L) entering every CW rate [1/s^2];
    with a pulse energy E for P, the strength [1/s] every pulsed one uses."""
    return (
        ring.n2 * ring.vg**2 * ring.omega0 * power
        / (C_VACUUM * ring.area * ring.circumference)
    )


def rate_scale_R0(ring: RingParams, power: float, gamma_c: float) -> float:
    """Coupling-independent CW rate scale [1/s].

    ``R0 = (1/gamma_c^3) * (n2*vg^2*omega0*P / (c*S*L))^2``.  All CW optima
    are simple rational multiples of this number.
    """
    power = _positive_finite("rate_scale_R0", "power", power)
    gamma_c = _positive_finite("rate_scale_R0", "gamma_c", gamma_c)
    drive = _drive_cw(ring, power)
    return drive * drive / gamma_c**3


_NOT_BROADBAND = "broadband forms require delta_omega >= 5*tgamma, got delta_omega/tgamma = {:.3g}"
_MARGINAL = "delta_omega = {:.3g}*tgamma < 10*tgamma: broadband closed forms are marginal here"


def _broadband_rule(tgamma, delta_omega):
    """``(holds, marginal)`` of the broadband-pump rule, on floats or arrays:
    the flattop closed forms hold for ``delta_omega >= 5*tgamma`` and are
    marginal where they hold below ``10*tgamma``."""
    holds = delta_omega >= 5.0 * tgamma
    return holds, holds & (delta_omega < 10.0 * tgamma)


def prob_scale_p0(
    ring: RingParams, energy: float, bandwidth_factor: float, gamma_c: float
) -> float:
    """Coupling-independent per-pulse probability scale (dimensionless).

    ``p0 = (2*pi*n2*vg^2*omega0*E / (c*S*L*B*gamma_c))^2`` for a broadband
    flattop pulse whose bandwidth is ``B`` pump linewidths, on the pump
    strength of :func:`_drive_cw`.  Where :func:`_broadband_rule` fails or is
    marginal at ``B`` (``B < 10``) it warns with
    :class:`BroadbandAssumptionWarning`; it never raises on ``B``.
    """
    energy = _positive_finite("prob_scale_p0", "energy", energy)
    bandwidth_factor = _positive_finite("prob_scale_p0", "bandwidth_factor", bandwidth_factor)
    gamma_c = _positive_finite("prob_scale_p0", "gamma_c", gamma_c)
    holds, marginal = _broadband_rule(1.0, bandwidth_factor)
    if marginal or not holds:
        warnings.warn(
            f"bandwidth factor B = {bandwidth_factor:g} < 10: the broadband "
            "pump assumption (bandwidth >> pump linewidth) is weak",
            BroadbandAssumptionWarning,
            stacklevel=2,
        )
    amp = TWO_PI * _drive_cw(ring, energy) / (bandwidth_factor * gamma_c)
    return amp * amp


# Internal normalization helper: with this ring and unit power/energy the pump
# strength n2*vg^2*omega0/(c*S*L) equals 1 exactly, so CW rates evaluated at
# gamma_c = 1 come out directly in units of R0.  Used by the Schmidt-number
# kernel and the tests; never exposed as a physical device.
_UNIT_RING = RingParams(n2=C_VACUUM, vg=1.0, area=1.0, circumference=1.0, omega0=1.0)
