"""Frequency-domain connectivity measures.

All measures are returned as complex arrays shaped (n_points, K, K); taking
the squared magnitude is left to the caller. Entry (i, j) quantifies the
directed influence of source channel j on target channel i, except for
coherence which is symmetric in magnitude.

Two families are covered. The partial directed coherence family reads
column j of the AR polynomial A_bar: classical PDC normalizes by the
column's Euclidean norm, gPDC weights rows by the innovation standard
deviations, and information PDC (iPDC) scales so that entry (i, j) is the
coherence between target innovation i and the partialized process of
channel j, which makes its squared magnitude integrable into a mutual
information rate. The transfer-function family reads row i of
H_bar = A_bar^-1: DTF normalizes by the row norm, directed coherence (DC)
weights by innovation standard deviations, and information DTF (iDTF)
scales so that entry (i, j) is the coherence between signal i and the
partialized innovation of channel j. With identity innovation covariance
each family collapses to its classical member.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._util import lock
from .errors import DomainError
from .spectral import SpectralSet


class MeasureKind(str, Enum):
    """Identifier for each supported measure (values double as CLI names)."""

    COHERENCE = "coh"
    PDC = "pdc"
    GPDC = "gpdc"
    IPDC = "ipdc"
    DTF = "dtf"
    DC = "dc"
    IDTF = "idtf"

    @classmethod
    def _missing_(cls, value):
        # Enum lookup calls this for an unknown value; raising here makes
        # every MeasureKind(name) conversion refuse it with a DomainError.
        raise DomainError(f"unknown measure {value!r}, expected one of {', '.join(kind.value for kind in cls)}")


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Complex values of one measure, shaped (n_points, K, K).

    values is locked, not copied: the result owns the array it is given.
    """

    kind: MeasureKind
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", lock(self.values, dtype=complex))


def coherence(spectra: SpectralSet) -> MeasureResult:
    """Ordinary coherence C_ij = S_ij / sqrt(S_ii S_jj)."""
    auto = spectra.autospectra
    denominator = np.sqrt(auto[:, :, None] * auto[:, None, :])
    return MeasureResult(MeasureKind.COHERENCE, spectra.s / denominator)


def ipdc(spectra: SpectralSet) -> MeasureResult:
    """Information PDC.

    Entry (i, j) is A_bar_ij / (sigma_ii^1/2 sqrt(a_j^H sigma^-1 a_j)) with
    a_j the j-th column of A_bar, whose quadratic form is exactly the
    diagonal entry [S^-1]_jj, read from ``spectra.inverse_autospectra`` as
    the rates read it. It equals the coherence between the innovation of
    target i and the partialized process of source j, so its squared
    magnitude never exceeds 1 and integrates to a mutual information rate.
    """
    row_weight = 1.0 / np.sqrt(np.diag(spectra.sigma))
    values = spectra.a_bar * row_weight[None, :, None] / np.sqrt(spectra.inverse_autospectra)[:, None, :]
    return MeasureResult(MeasureKind.IPDC, values)


def pdc(spectra: SpectralSet) -> MeasureResult:
    """Classical PDC: column j of A_bar over its norm, so the squared magnitudes over targets sum to 1."""
    quad = np.sum(spectra.abs_a_bar**2, axis=1)
    return MeasureResult(MeasureKind.PDC, spectra.a_bar / np.sqrt(quad)[:, None, :])


def gpdc(spectra: SpectralSet) -> MeasureResult:
    """Generalized PDC: PDC after weighting rows by 1 / sigma_ii^1/2, which makes it invariant under channel rescaling."""
    variances = np.diag(spectra.sigma)
    quad = np.einsum("k,fkj->fj", 1.0 / variances, spectra.abs_a_bar**2)
    values = spectra.a_bar / np.sqrt(variances)[None, :, None] / np.sqrt(quad)[:, None, :]
    return MeasureResult(MeasureKind.GPDC, values)


def idtf(spectra: SpectralSet) -> MeasureResult:
    """Information DTF.

    Entry (i, j) is H_bar_ij rho_j^1/2 / sqrt(h_i sigma h_i^H) with h_i the
    i-th row of H_bar, whose quadratic form is exactly the autospectrum
    S_ii. rho_j = 1 / [sigma^-1]_jj is the partialized innovation variance
    of source j: the variance of innovation j after removing its
    projection onto the other same-time innovations, diag(sigma) when
    sigma is diagonal. Entry (i, j) equals the coherence between signal i
    and that partialized innovation.
    """
    rho = 1.0 / np.diag(spectra.sigma_inv)
    values = spectra.h_bar * np.sqrt(rho)[None, None, :] / np.sqrt(spectra.autospectra)[:, :, None]
    return MeasureResult(MeasureKind.IDTF, values)


def dtf(spectra: SpectralSet) -> MeasureResult:
    """Classical DTF: row i of H_bar over its norm, so the squared magnitudes over sources sum to 1."""
    quad = np.sum(spectra.abs_h_bar**2, axis=2)
    return MeasureResult(MeasureKind.DTF, spectra.h_bar / np.sqrt(quad)[:, :, None])


def dc(spectra: SpectralSet) -> MeasureResult:
    """Directed coherence (DC): DTF after weighting columns by sigma_jj^1/2."""
    variances = np.diag(spectra.sigma)
    quad = np.einsum("k,fik->fi", variances, spectra.abs_h_bar**2)
    values = spectra.h_bar * np.sqrt(variances)[None, None, :] / np.sqrt(quad)[:, :, None]
    return MeasureResult(MeasureKind.DC, values)


#: Every measure as fn(spectra). Each entry looks its function up by module
#: name when it runs, so a function rebound on the module (a tracer's span,
#: a test double) is the one that runs.
_MEASURES = {
    MeasureKind.COHERENCE: lambda spectra: coherence(spectra),
    MeasureKind.PDC: lambda spectra: pdc(spectra),
    MeasureKind.GPDC: lambda spectra: gpdc(spectra),
    MeasureKind.IPDC: lambda spectra: ipdc(spectra),
    MeasureKind.DTF: lambda spectra: dtf(spectra),
    MeasureKind.DC: lambda spectra: dc(spectra),
    MeasureKind.IDTF: lambda spectra: idtf(spectra),
}


def measures_from_spectra(spectra: SpectralSet, kinds) -> Iterator[MeasureResult]:
    """Yield each requested measure once, in request order, from one spectral set.

    A result is computed when it is drawn, so a caller that reduces one
    before drawing the next holds a single (n_points, K, K) result at a
    time.
    """
    for kind in dict.fromkeys(map(MeasureKind, kinds)):
        yield _MEASURES[kind](spectra)
