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

from ._util import lock
from .errors import DomainError
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
    coupling at some frequencies. kind is one of RATE_KINDS. values is
    locked, not copied.
    """

    kind: MeasureKind
    values: np.ndarray
    n_clipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", lock(self.values))

    @property
    def K(self) -> int:
        return self.values.shape[-1]


def geweke_hosoya_bridge(measure_sq) -> tuple[np.ndarray, int]:
    """Map squared coherences s to spectral Granger-causality values -log(1 - s).

    Any s above 1 + BOUND_TOL or below -BOUND_TOL raises DomainError: it
    means an upstream bound was violated, which the clip must not hide.
    Otherwise s is clipped into [0, 1 - EPS_CLIP] before the log, and
    n_clipped counts the entries above 1 - EPS_CLIP. Returns (-log(1 - s),
    n_clipped) elementwise; the inverse map is s = 1 - exp(-f). For two
    channels this connects the information measures to the classical
    Geweke and Hosoya frequency-domain causality decompositions.
    """
    values = np.asarray(measure_sq, dtype=float)
    if np.any(values > 1.0 + BOUND_TOL):
        raise DomainError(
            f"squared coherence exceeds 1 (max {float(np.max(values)):.6g}); upstream bound violated"
        )
    if np.any(values < -BOUND_TOL):
        raise DomainError(f"squared coherence is negative (min {float(np.min(values)):.6g})")
    n_clipped = int(np.count_nonzero(values > 1.0 - EPS_CLIP))
    return -np.log1p(-np.clip(values, 0.0, 1.0 - EPS_CLIP)), n_clipped


def _integrate(measure: MeasureResult) -> MirMatrix:
    """Trapezoid of -log(1 - |measure|^2) over the grid / (2 pi), coherence diagonal zeroed."""
    if measure.grid.n_points < 2:
        raise DomainError(f"rates need a grid of at least 2 points, got {measure.grid.n_points}")
    squared = np.abs(measure.values) ** 2
    if measure.kind is MeasureKind.COHERENCE:
        diag = np.arange(measure.K)
        squared[:, diag, diag] = 0.0
    integrand, n_clipped = geweke_hosoya_bridge(squared)
    values = _trapezoid(integrand, measure.grid.points, axis=0) / (2.0 * np.pi)
    return MirMatrix(measure.kind, values, n_clipped)


def rates_from_spectra(spectra: SpectralSet, model: VarModel, kinds) -> dict[MeasureKind, MirMatrix]:
    """Rate matrices of the requested kinds, in request order, from one spectral set.

    Every kind is checked against RATE_KINDS before any measure is built.
    """
    kinds = [MeasureKind(kind) for kind in kinds]
    for kind in kinds:
        if kind not in RATE_KINDS:
            raise DomainError(f"no information-rate interpretation for measure {kind.value!r}")
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
