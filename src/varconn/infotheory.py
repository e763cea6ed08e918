"""Mutual information rates from squared-coherence profiles.

For jointly Gaussian stationary processes the mutual information rate
between two scalar processes is the frequency average of
-log(1 - |coherence|^2) (the Gelfand-Yaglom integral). Spectra of real
signals are even in frequency, so the average over the full circle is the
integral over [0, pi] divided by pi, and every rate here is computed as

    MIR = 1 / (2 pi) * integral_0^pi -log(1 - |C(omega)|^2) d omega

by trapezoid quadrature, in nats per sample. iPDC and iDTF are exact
coherences between suitably partialized processes, so integrating their
squared magnitudes yields the information rate each directed pair shares.
Squared coherences are clipped just below 1 before taking logs; the number
of clipped values is reported alongside every result.
"""

from dataclasses import dataclass

import numpy as np

try:
    from numpy import trapezoid as _trapezoid
except ImportError:  # numpy < 2
    from numpy import trapz as _trapezoid

from ._util import as_readonly
from .errors import DimensionError, DomainError
from .measures import MeasureKind, MeasureResult, coherence, idtf, ipdc, measures_from_spectra
from .spectral import FrequencyGrid, SpectralSet, evaluate_spectra
from .var_model import VarModel

#: Squared coherences are clipped to at most 1 - EPS_CLIP before the log.
EPS_CLIP = 1e-12

#: Inputs above 1 + BOUND_TOL are rejected instead of clipped.
BOUND_TOL = 1e-9


#: The measures whose squared magnitudes integrate into rates.
RATE_KINDS = (MeasureKind.IPDC, MeasureKind.IDTF, MeasureKind.COHERENCE)


@dataclass(frozen=True, eq=False)
class MirMatrix:
    """Mutual information rates in nats per sample, shaped (K, K).

    Entry (i, j) is the rate of the directed pair with source j and target
    i. n_clipped counts squared-coherence values that had to be clipped
    away from 1 before the log; a nonzero count flags near-deterministic
    coupling at some frequencies. kind is one of RATE_KINDS.
    """

    kind: MeasureKind
    grid: FrequencyGrid
    values: np.ndarray
    n_clipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", as_readonly(self.values))

    @property
    def K(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True, eq=False)
class InfoDensity:
    """Per-frequency information density, shaped (n_points, K, K).

    Nonnegative; trapezoid integration over the grid recovers the
    corresponding MirMatrix entry.
    """

    kind: MeasureKind
    grid: FrequencyGrid
    values: np.ndarray
    n_clipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", as_readonly(self.values))


def clip_squared_coherence(coh_sq) -> tuple[np.ndarray, int]:
    """Clamp squared coherences into [0, 1 - EPS_CLIP].

    Returns the clipped array and how many entries exceeded the upper
    limit. Values above 1 + BOUND_TOL indicate a broken upstream bound and
    raise DomainError instead of being hidden by the clip.
    """
    values = np.asarray(coh_sq, dtype=float)
    if np.any(values > 1.0 + BOUND_TOL):
        raise DomainError(
            f"squared coherence exceeds 1 (max {float(np.max(values)):.6g}); upstream bound violated"
        )
    if np.any(values < -BOUND_TOL):
        raise DomainError(f"squared coherence is negative (min {float(np.min(values)):.6g})")
    n_clipped = int(np.count_nonzero(values > 1.0 - EPS_CLIP))
    return np.clip(values, 0.0, 1.0 - EPS_CLIP), n_clipped


def geweke_hosoya_bridge(measure_sq) -> tuple[np.ndarray, int]:
    """Map squared coherences to spectral Granger-causality values.

    Returns (-log(1 - s), n_clipped) elementwise; the inverse map is
    s = 1 - exp(-f). For two channels this connects the information
    measures to the classical Geweke and Hosoya frequency-domain causality
    decompositions.
    """
    clipped, n_clipped = clip_squared_coherence(measure_sq)
    return -np.log1p(-clipped), n_clipped


def mir_from_coherence(coh_sq, grid: FrequencyGrid) -> float:
    """Integrate one squared-coherence profile into a rate (nats/sample)."""
    values = np.asarray(coh_sq, dtype=float)
    if values.shape != (grid.n_points,):
        raise DimensionError(f"expected shape ({grid.n_points},), got {values.shape}")
    integrand, _ = geweke_hosoya_bridge(values)
    return float(_trapezoid(integrand, grid.points) / (2.0 * np.pi))


def info_density(measure: MeasureResult) -> InfoDensity:
    """Per-frequency density -log(1 - |measure|^2) / (2 pi) for all pairs.

    For ordinary coherence the diagonal is zeroed, matching the
    :func:`mir_coherence` convention for the divergent self-pairs.
    """
    integrand, n_clipped = _log_integrand(measure)
    return InfoDensity(measure.kind, measure.grid, integrand / (2.0 * np.pi), n_clipped)


def _integrate(measure: MeasureResult) -> MirMatrix:
    integrand, n_clipped = _log_integrand(measure)
    values = _trapezoid(integrand, measure.grid.points, axis=0) / (2.0 * np.pi)
    return MirMatrix(measure.kind, measure.grid, values, n_clipped)


def _log_integrand(measure: MeasureResult) -> tuple[np.ndarray, int]:
    """-log(1 - |measure|^2) after clipping, with the coherence diagonal zeroed."""
    if measure.kind not in RATE_KINDS:
        raise DomainError(f"no information-rate interpretation for measure {measure.kind.value!r}")
    squared = np.abs(measure.values) ** 2
    if measure.kind is MeasureKind.COHERENCE:
        diag = np.arange(measure.K)
        squared[:, diag, diag] = 0.0
    return geweke_hosoya_bridge(squared)


def rates_from_spectra(spectra: SpectralSet, model: VarModel, kinds) -> dict[MeasureKind, MirMatrix]:
    """Rate matrices of the requested kinds, in request order, from one spectral set."""
    return {rate.kind: rate for rate in map(_integrate, measures_from_spectra(spectra, model, kinds))}


def mir_ipdc(model: VarModel, grid: FrequencyGrid) -> MirMatrix:
    """Rates between each target innovation and each partialized process."""
    return _integrate(ipdc(evaluate_spectra(model, grid), model))


def mir_idtf(model: VarModel, grid: FrequencyGrid) -> MirMatrix:
    """Rates between each signal and each partialized innovation."""
    return _integrate(idtf(evaluate_spectra(model, grid), model))


def mir_coherence(model: VarModel, grid: FrequencyGrid) -> MirMatrix:
    """Pairwise (undirected) rates from ordinary coherence.

    The diagonal is set to 0 by convention: a channel's coherence with
    itself is identically 1, where the integral diverges.
    """
    return _integrate(coherence(evaluate_spectra(model, grid)))
