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
A single resonance couples to a bus waveguide (port a, rate ``gamma_a``),
optionally a drop waveguide (port b, ``gamma_b``), and an intrinsic-loss
channel (``gamma_c``); the pump rates ``tgamma_*`` may differ from these
biphoton (signal/idler) rates.  Each geometry has free couplings (in
:func:`coupling_parameter_names` order) and ties the other rates:

* ``ALL_PASS_IDENTICAL``  - free ``gamma_a``; ``tgamma_a = gamma_a`` and
  ``gamma_b = tgamma_b = 0``.  Photons are collected in port a.
* ``ADD_DROP_IDENTICAL``  - free ``(gamma_a, gamma_b)``; each pump rate equals
  its biphoton rate.  Photons are collected in port b.
* ``ADD_DROP_DISTINCT``   - free ``(tgamma_a, gamma_b)``; ``gamma_a =
  tgamma_b = 0``.  Photons are collected in port b.

Only ``ADD_DROP_DISTINCT`` may set the pump loss ``tgamma_c`` apart from
``gamma_c``.  The totals are ``gamma = gamma_a + gamma_b + gamma_c`` and
``tgamma = tgamma_a + tgamma_b + tgamma_c``.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

C_VACUUM = 299792458.0  # speed of light [m/s], exact by SI definition

TWO_PI = 2.0 * math.pi


class BroadbandAssumptionWarning(UserWarning):
    """The pump bandwidth only marginally exceeds the pump linewidth, so
    broadband closed forms are used outside their comfort zone."""


def _warn(message: str, category: type[Warning]) -> None:
    """``warnings.warn`` naming the line that called into ``ringsfwm``: the
    first frame up from the caller whose module is outside the package, or
    the outermost frame."""
    frame, level = sys._getframe(1), 2  # level 1 is the warn call below
    while frame.f_back is not None and (
        frame.f_globals.get("__name__", "").partition(".")[0] == __package__
    ):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class Geometry(enum.Enum):
    """Ring/waveguide coupling geometry."""

    ALL_PASS_IDENTICAL = "all-pass-identical"
    ADD_DROP_IDENTICAL = "add-drop-identical"
    ADD_DROP_DISTINCT = "add-drop-distinct"


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


def _point_count(name: str, value, minimum: int) -> int:
    """``value`` as an int, if it is a Python or NumPy integer (not a bool)
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


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


def coupling_parameter_names(geometry: Geometry) -> tuple[str, ...]:
    """Free coupling knobs of a geometry, in record/axis order."""
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        return ("gamma_a",)
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        return ("gamma_a", "gamma_b")
    return ("tgamma_a", "gamma_b")


def _check_couplings(geometry: Geometry, couplings) -> None:
    """Reject a wrong number of free couplings, or a negative or non-finite
    one (floats or arrays), naming it."""
    names = coupling_parameter_names(geometry)
    if len(couplings) != len(names):
        raise ValueError(
            f"{geometry.value} expects {len(names)} coupling parameters, got {len(couplings)}"
        )
    for name, value in zip(names, couplings):
        ok = (value >= 0.0) & (value < math.inf)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValueError(f"coupling {name} must be non-negative and finite, got {value!r}")


def _check_pump_loss(geometry: Geometry, tgamma_c: Optional[float]) -> None:
    """Reject a separate pump loss where the geometry ties it to ``gamma_c``."""
    if tgamma_c is not None and geometry is not Geometry.ADD_DROP_DISTINCT:
        raise ValueError(
            f"tgamma_c applies to add-drop-distinct only; {geometry.value} "
            "ties the pump loss to gamma_c"
        )


def _rates(geometry: Geometry, couplings, gamma_c, tgamma_c=None) -> tuple:
    """The one geometry ladder: the six rates ``(gamma_a, gamma_b, gamma_c,
    tgamma_a, tgamma_b, tgamma_c)`` from free couplings on floats, arrays or
    Fractions.  Tied zeros are the int ``0``, which keeps a Fraction exact and
    a float sum bit-identical."""
    if geometry is Geometry.ALL_PASS_IDENTICAL:
        (a,) = couplings
        return a, 0, gamma_c, a, 0, gamma_c
    if geometry is Geometry.ADD_DROP_IDENTICAL:
        a, b = couplings
        return a, b, gamma_c, a, b, gamma_c
    ta, b = couplings
    return 0, b, gamma_c, ta, 0, gamma_c if tgamma_c is None else tgamma_c


def _kernel_rates(geometry: Geometry, couplings, gamma_c, tgamma_c=None) -> tuple:
    """``(tgamma_a, gamma_mu, gamma, tgamma)``, the arguments of every rate
    kernel, from the ladder :func:`_rates`."""
    ga, gb, gc, ta, tb, tc = _rates(geometry, couplings, gamma_c, tgamma_c)
    gamma_mu = ga if geometry is Geometry.ALL_PASS_IDENTICAL else gb
    return ta, gamma_mu, ga + gb + gc, ta + tb + tc


def _point_rates(geometry: Geometry, point, gamma_c, tgamma_c=None) -> tuple:
    """:func:`_kernel_rates` at free couplings ``point`` in units of
    ``gamma_c``, without building a config."""
    return _kernel_rates(geometry, [p * gamma_c for p in point], gamma_c, tgamma_c)


@dataclass(frozen=True)
class CouplingConfig:
    """A coupling geometry and its free couplings [rad/s], in
    :func:`coupling_parameter_names` order; the other rates follow from the
    geometry (see the module docstring).  ``tgamma_c`` may be given for
    add-drop-distinct only and otherwise holds ``gamma_c``.
    """

    geometry: Geometry
    couplings: tuple[float, ...]
    gamma_c: float
    tgamma_c: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"CouplingConfig.geometry must be a Geometry, got {self.geometry!r}")
        couplings = tuple(float(c) for c in self.couplings)
        _check_couplings(self.geometry, couplings)
        object.__setattr__(self, "couplings", couplings)
        gamma_c = _positive_finite("CouplingConfig", "gamma_c", self.gamma_c)
        object.__setattr__(self, "gamma_c", gamma_c)
        _check_pump_loss(self.geometry, self.tgamma_c)
        tgamma_c = gamma_c if self.tgamma_c is None else self.tgamma_c
        object.__setattr__(self, "tgamma_c", _positive_finite("CouplingConfig", "tgamma_c", tgamma_c))

    @classmethod
    def all_pass(cls, gamma_a: float, gamma_c: float) -> "CouplingConfig":
        """All-pass ring, identical pump/biphoton coupling, output in port a."""
        return cls(Geometry.ALL_PASS_IDENTICAL, (gamma_a,), gamma_c)

    @classmethod
    def add_drop(cls, gamma_a: float, gamma_b: float, gamma_c: float) -> "CouplingConfig":
        """Add-drop ring, identical pump/biphoton coupling, collection at b."""
        return cls(Geometry.ADD_DROP_IDENTICAL, (gamma_a, gamma_b), gamma_c)

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
        return cls(Geometry.ADD_DROP_DISTINCT, (tgamma_a, gamma_b), gamma_c, tgamma_c)

    def _rate(self, index: int) -> float:
        return float(_rates(self.geometry, self.couplings, self.gamma_c, self.tgamma_c)[index])

    @property
    def gamma_a(self) -> float:
        """Biphoton coupling rate into the bus, port a [rad/s]."""
        return self._rate(0)

    @property
    def gamma_b(self) -> float:
        """Biphoton coupling rate into the drop, port b [rad/s]."""
        return self._rate(1)

    @property
    def tgamma_a(self) -> float:
        """Pump coupling rate into the bus [rad/s]."""
        return self._rate(3)

    @property
    def tgamma_b(self) -> float:
        """Pump coupling rate into the drop [rad/s]."""
        return self._rate(4)

    @property
    def kernel_rates(self) -> tuple[float, float, float, float]:
        """``(tgamma_a, gamma_mu, gamma, tgamma)`` [rad/s], the arguments of
        every rate kernel."""
        return _kernel_rates(self.geometry, self.couplings, self.gamma_c, self.tgamma_c)

    @property
    def gamma(self) -> float:
        """Total biphoton linewidth gamma_a + gamma_b + gamma_c [rad/s]."""
        return self.kernel_rates[2]

    @property
    def tgamma(self) -> float:
        """Total pump linewidth tgamma_a + tgamma_b + tgamma_c [rad/s]."""
        return self.kernel_rates[3]

    @property
    def gamma_mu(self) -> float:
        """Biphoton coupling rate into the collection port [rad/s]."""
        return self.kernel_rates[1]

    @property
    def heralding_efficiency(self) -> float:
        """Probability gamma_mu/gamma that a generated photon exits into the
        collection port."""
        _, gamma_mu, gamma, _ = self.kernel_rates
        return gamma_mu / gamma


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
        """Absolute pump bandwidth [rad/s] for a given pump linewidth; rejects
        a CW pump and a tabulated spectrum."""
        if self.mode is not PumpMode.PULSED:
            raise ValueError(
                "delta_omega_for() requires a pulsed pump; a CW pump has no pulse "
                "bandwidth, and the Schmidt decomposition is defined per pulse"
            )
        if self.spectrum is not None:
            raise ValueError(
                "delta_omega_for() requires a flattop pump; a tabulated pump "
                "spectrum carries its own bandwidth, which the broadband "
                "flattop forms do not support"
            )
        if self.delta_omega is not None:
            return self.delta_omega
        return self.bandwidth_factor * tgamma


def quality_factors(ring: RingParams, cfg: CouplingConfig) -> tuple[float, float]:
    """Return ``(Q_c, Q)``: intrinsic and loaded quality factors of the
    biphoton resonances, ``Q_c = omega0/gamma_c`` and ``Q = omega0/gamma``."""
    return (ring.omega0 / cfg.gamma_c, ring.omega0 / cfg.gamma)


def _drive_cw(ring: RingParams, power: float, name: str = "power") -> float:
    """Pump strength n2*vg^2*omega0*P/(c*S*L) entering every CW rate [1/s^2];
    with a pulse energy E for P (``name="energy"``), the strength [1/s] every
    pulsed one uses.  Rejects a P that is not strictly positive and finite."""
    power = _positive_finite("pump", name, power)
    return (
        ring.n2 * ring.vg**2 * ring.omega0 * power
        / (C_VACUUM * ring.area * ring.circumference)
    )


def _drive_pulsed(ring: RingParams, energy: float, delta_omega: float) -> float:
    """Pulse strength 2*pi*n2*vg^2*omega0*E/(c*S*L*delta_omega) [1/s]: the
    pump strength of :func:`_drive_cw` at energy E (which it checks), times
    2*pi/delta_omega (which it does not: a float or an array)."""
    return TWO_PI * _drive_cw(ring, energy, "energy") / delta_omega


def rate_scale_R0(ring: RingParams, power: float, gamma_c: float) -> float:
    """Coupling-independent CW rate scale [1/s].

    ``R0 = (1/gamma_c^3) * (n2*vg^2*omega0*P / (c*S*L))^2``.  All CW optima
    are simple rational multiples of this number.  Rejects a power or
    ``gamma_c`` that is not strictly positive and finite."""
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
    flattop pulse whose bandwidth is ``B`` pump linewidths: the square of
    :func:`_drive_pulsed` at ``delta_omega = B*gamma_c``.  Rejects an
    energy, ``B`` or ``gamma_c`` that is not strictly positive and finite.
    Where :func:`_broadband_rule` fails or is marginal at ``B`` (``B < 10``)
    it warns with :class:`BroadbandAssumptionWarning` and does not raise.
    """
    bandwidth_factor = _positive_finite("prob_scale_p0", "bandwidth_factor", bandwidth_factor)
    gamma_c = _positive_finite("prob_scale_p0", "gamma_c", gamma_c)
    amp = _drive_pulsed(ring, energy, bandwidth_factor * gamma_c)
    holds, marginal = _broadband_rule(1.0, bandwidth_factor)
    if marginal or not holds:
        _warn(
            f"bandwidth factor B = {bandwidth_factor:g} < 10: the broadband "
            "pump assumption (bandwidth >> pump linewidth) is weak",
            BroadbandAssumptionWarning,
        )
    return amp * amp

