"""Design toolkit for photon-pair generation via spontaneous four-wave mixing
(SFWM) in microring resonators.

The package evaluates absolute one- and two-photon generation rates (CW pump)
and per-pulse probabilities (broadband pulsed pump), biphoton joint temporal
amplitudes, Schmidt numbers, and optimal waveguide coupling rates for all-pass
and add-drop ring geometries with identical or independently engineered pump
and biphoton couplers.

All coupling rates and linewidths are angular frequencies (rad/s); see
:mod:`ringsfwm.core` for the unit conventions.
"""

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
    EPS_DEGENERATE,
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
from .schmidt import (
    DecompositionError,
    SchmidtResult,
    WavepacketGrid,
    discretize_wavepacket,
    schmidt_spectrum,
    schmidt_spectrum_broadband,
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
from .sweep import (
    SweepAxis,
    SweepResult,
    SweepSpec,
    emit,
    optima_table,
    report_optima,
    run_sweep,
)


__all__ = [
    "C_VACUUM",
    "BroadbandAssumptionWarning",
    "CouplingConfig",
    "CwObservables",
    "DecompositionError",
    "EPS_DEGENERATE",
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
    "SchmidtResult",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "TabulatedSpectrum",
    "WavepacketGrid",
    "all_targets",
    "analytic_optimum",
    "cross_validate_optima",
    "cw_accidentals_and_car",
    "cw_observables",
    "cw_pair_rate",
    "cw_pump_buildup",
    "cw_single_rate",
    "cw_wavepacket",
    "discretize_wavepacket",
    "effective_pump_lineshape",
    "emit",
    "flattop_lineshape_broadband",
    "load_spectrum",
    "numeric_optimum",
    "optima_table",
    "prob_scale_p0",
    "pulsed_accidental_prob",
    "pulsed_observables",
    "pulsed_pair_prob",
    "pulsed_single_prob",
    "pulsed_single_prob_numeric",
    "pulsed_wavepacket",
    "quality_factors",
    "rate_scale_R0",
    "report_optima",
    "run_sweep",
    "save_spectrum",
    "schmidt_spectrum",
    "schmidt_spectrum_broadband",
    "tolerance_band",
]
