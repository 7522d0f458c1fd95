"""Design toolkit for photon-pair generation via spontaneous four-wave mixing
(SFWM) in microring resonators.

The package evaluates absolute one- and two-photon generation rates (CW pump)
and per-pulse probabilities (broadband pulsed pump), biphoton joint temporal
amplitudes, Schmidt numbers, and optimal waveguide coupling rates for all-pass
and add-drop ring geometries with identical or independently engineered pump
and biphoton couplers.

All coupling rates and linewidths are angular frequencies (rad/s); see
:mod:`ringsfwm.core` for the unit conventions.

Importing the package loads :mod:`ringsfwm.core`, :mod:`ringsfwm.cw`,
:mod:`ringsfwm.pulsed` and :mod:`ringsfwm.optimize`.  The public names of
:mod:`ringsfwm.sweep` and :mod:`ringsfwm.schmidt`, and those two modules as
attributes, resolve on first access (a module ``__getattr__``, PEP 562), so
``__all__``, ``dir()``, ``from ringsfwm import *`` and ``ringsfwm.sweep``
work as with eager imports.
"""

import importlib

from ._version import __version__
from .core import (
    C_VACUUM,
    BroadbandAssumptionWarning,
    CouplingConfig,
    Geometry,
    PumpMode,
    PumpSpec,
    RingParams,
    prob_scale_p0,
    quality_factors,
    rate_scale_R0,
)
from .cw import (
    CwObservables,
    cw_accidentals_and_car,
    cw_observables,
    cw_pair_rate,
    cw_pump_buildup,
    cw_single_rate,
    cw_wavepacket,
    tolerance_band,
)
from .pulsed import (
    PulsedObservables,
    QuadratureError,
    TabulatedSpectrum,
    effective_pump_lineshape,
    flattop_lineshape_broadband,
    load_spectrum,
    pulsed_accidental_prob,
    pulsed_observables,
    pulsed_pair_prob,
    pulsed_single_prob,
    pulsed_single_prob_numeric,
    pulsed_wavepacket,
    save_spectrum,
)
from .optimize import (
    Objective,
    OptimizationError,
    OptimizationTarget,
    OptimumRecord,
    PumpRegime,
    all_targets,
    analytic_optimum,
    cross_validate_optima,
    numeric_optimum,
)

# The public names of the modules loaded on first access, by module; they
# close __all__.
_DEFERRED = {
    "schmidt": (
        "DecompositionError",
        "SchmidtResult",
        "WavepacketGrid",
        "discretize_wavepacket",
        "schmidt_spectrum",
        "schmidt_spectrum_broadband",
    ),
    "sweep": (
        "SweepAxis",
        "SweepResult",
        "SweepSpec",
        "emit",
        "optima_table",
        "report_optima",
        "run_sweep",
    ),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED, *__all__})


__all__ = [
    "C_VACUUM",
    "BroadbandAssumptionWarning",
    "CouplingConfig",
    "CwObservables",
    "Geometry",
    "Objective",
    "OptimizationError",
    "OptimizationTarget",
    "OptimumRecord",
    "PulsedObservables",
    "PumpMode",
    "PumpRegime",
    "PumpSpec",
    "QuadratureError",
    "RingParams",
    "TabulatedSpectrum",
    "all_targets",
    "analytic_optimum",
    "cross_validate_optima",
    "cw_accidentals_and_car",
    "cw_observables",
    "cw_pair_rate",
    "cw_pump_buildup",
    "cw_single_rate",
    "cw_wavepacket",
    "effective_pump_lineshape",
    "flattop_lineshape_broadband",
    "load_spectrum",
    "numeric_optimum",
    "prob_scale_p0",
    "pulsed_accidental_prob",
    "pulsed_observables",
    "pulsed_pair_prob",
    "pulsed_single_prob",
    "pulsed_single_prob_numeric",
    "pulsed_wavepacket",
    "quality_factors",
    "rate_scale_R0",
    "save_spectrum",
    "tolerance_band",
    *(name for names in _DEFERRED.values() for name in names),
]
