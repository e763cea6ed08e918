"""Frequency-domain directed connectivity for vector autoregressive models.

The package evaluates spectral connectivity measures (coherence, the PDC
family, the DTF family, and their information-theoretic variants iPDC and
iDTF) on stable VAR models, integrates the information variants into
mutual information rates, and ships independent oracle routes that verify
the identities the measures rely on. A CLI (`varconn`) covers simulation,
estimation, measurement, rate integration, and self-verification.
"""

from .errors import (
    DataError,
    DimensionError,
    DomainError,
    EstimationError,
    NumericalError,
    ParseError,
    VarconnError,
)
from .fileio import (
    canonical_json,
    load_model,
    load_timeseries,
    render_result,
    save_model,
    save_result,
    save_timeseries,
)
from .infotheory import (
    BOUND_TOL,
    EPS_CLIP,
    MirMatrix,
    geweke_hosoya_bridge,
    information_rates,
)
from .measures import (
    MeasureKind,
    MeasureResult,
    coherence,
    dtf_family,
    idtf,
    ipdc,
    measures_from_spectra,
    pdc_family,
)
from .oracles import (
    CheckResult,
    Fixture,
    VerificationReport,
    fixture,
    partialized_cross_spectra,
    partialized_innovation_coherence,
    partialized_process_coherence,
    random_stable_model,
    run_verification,
)
from .spectral import (
    CONDITION_LIMIT,
    DEFAULT_N_POINTS,
    FrequencyGrid,
    SpectralSet,
    evaluate_spectra,
)
from .var_model import (
    STABILITY_TOL,
    TimeSeriesData,
    ValidationReport,
    VarModel,
    companion_matrix,
    estimate,
    rescale,
    select_order,
    simulate,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_TOL",
    "CONDITION_LIMIT",
    "CheckResult",
    "DEFAULT_N_POINTS",
    "DataError",
    "DimensionError",
    "DomainError",
    "EstimationError",
    "Fixture",
    "FrequencyGrid",
    "MeasureKind",
    "MeasureResult",
    "MirMatrix",
    "NumericalError",
    "ParseError",
    "EPS_CLIP",
    "STABILITY_TOL",
    "SpectralSet",
    "TimeSeriesData",
    "ValidationReport",
    "VarconnError",
    "VerificationReport",
    "VarModel",
    "canonical_json",
    "coherence",
    "companion_matrix",
    "dtf_family",
    "estimate",
    "evaluate_spectra",
    "fixture",
    "geweke_hosoya_bridge",
    "idtf",
    "information_rates",
    "ipdc",
    "load_model",
    "load_timeseries",
    "measures_from_spectra",
    "partialized_cross_spectra",
    "partialized_innovation_coherence",
    "partialized_process_coherence",
    "pdc_family",
    "random_stable_model",
    "render_result",
    "rescale",
    "run_verification",
    "save_model",
    "save_result",
    "save_timeseries",
    "select_order",
    "simulate",
    "validate",
]
