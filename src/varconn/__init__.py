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
from .fileio import load_model, load_timeseries, save_model, save_timeseries
from .infotheory import EPS_CLIP, MirMatrix, information_rates
from .measures import MeasureKind, MeasureResult, measures_from_spectra
from .oracles import fixture, run_verification
from .spectral import FrequencyGrid, SpectralSet, evaluate_spectra
from .var_model import TimeSeriesData, VarModel, estimate, select_order, simulate, validate

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DimensionError",
    "DomainError",
    "EstimationError",
    "FrequencyGrid",
    "MeasureKind",
    "MeasureResult",
    "MirMatrix",
    "NumericalError",
    "ParseError",
    "EPS_CLIP",
    "SpectralSet",
    "TimeSeriesData",
    "VarconnError",
    "VarModel",
    "estimate",
    "evaluate_spectra",
    "fixture",
    "information_rates",
    "load_model",
    "load_timeseries",
    "measures_from_spectra",
    "run_verification",
    "save_model",
    "save_timeseries",
    "select_order",
    "simulate",
    "validate",
]
