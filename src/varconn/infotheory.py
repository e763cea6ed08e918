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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ._util import lock
from .errors import DomainError
from .measures import _MEASURES, MeasureKind, MeasureResult
from .spectral import SpectralSet

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

    The rate path calls it one block of frequencies at a time, so a refusal
    there quotes the max (or min) of the first block that fails, not of the
    whole grid.
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


def _block_size(k: int) -> int:
    """Frequencies per block of the rate path: about 256 KiB per complex (block, K, K) array."""
    return max(1, 2**14 // k**2)


def _blocks(spectra: SpectralSet, size: int) -> Iterator[SpectralSet]:
    """Consecutive runs of at most ``size`` frequencies of a set, as sets of views.

    Each block keeps the whole grid; its arrays cover only its own points,
    and it assembles its own S and S^-1. A set that fits in one block is
    that block, so every kind drawn from it shares one S and S^-1.
    """
    if size >= spectra.a_bar.shape[0]:
        yield spectra
        return
    for start in range(0, spectra.a_bar.shape[0], size):
        window = slice(start, start + size)
        yield SpectralSet(spectra.grid, spectra.a_bar[window], spectra.h_bar[window], spectra.sigma)


class _TrapezoidSum:
    """``np.trapezoid(y, omega, axis=0)``, fed the (K, K) rows of y in consecutive blocks.

    The result is numpy's bit for bit. Each interval adds the term
    d * (y[n + 1] + y[n]) / 2.0, so a block is joined to the last row of the
    one before it. numpy sums a stack of such terms row by row, left to
    right, when K >= 2, so the running sum carries from block to block. A
    stack of 1 x 1 terms it sums pairwise instead, so for K = 1 the terms
    are kept, one float per interval, and summed once in ``result``.
    """

    def __init__(self, omega: np.ndarray):
        self.omega = omega
        self.stop = 0
        self.last = None
        self.total = None
        self.scalar_terms = []

    def add(self, rows: np.ndarray) -> None:
        start, self.stop = self.stop, self.stop + rows.shape[0]
        if self.last is None:
            self.total = np.zeros(rows.shape[1:])
        else:
            start -= 1
            rows = np.concatenate([self.last[None], rows])
        self.last = rows[-1]
        d = np.diff(self.omega[start:self.stop])[:, None, None]
        terms = d * (rows[1:] + rows[:-1]) / 2.0
        if self.last.size == 1:
            self.scalar_terms.append(terms)
        else:
            self.total = np.concatenate([self.total[None], terms]).sum(axis=0)

    def result(self) -> np.ndarray:
        return np.concatenate(self.scalar_terms).sum(axis=0) if self.scalar_terms else self.total


def _integrate(kind: MeasureKind, measures: Iterable[MeasureResult], omega: np.ndarray) -> MirMatrix:
    """Trapezoid of -log(1 - |measure|^2) over omega / (2 pi), coherence diagonal zeroed.

    ``measures`` are the values of one kind on consecutive blocks of the
    grid, in order; they are drawn only after the grid is checked.
    """
    if omega.size < 2:
        raise DomainError(f"rates need a grid of at least 2 points, got {omega.size}")
    integral, n_clipped = _TrapezoidSum(omega), 0
    for measure in measures:
        squared = np.abs(measure.values) ** 2
        if kind is MeasureKind.COHERENCE:
            diag = np.arange(measure.K)
            squared[:, diag, diag] = 0.0
        integrand, clipped = geweke_hosoya_bridge(squared)
        integral.add(integrand)
        n_clipped += clipped
    return MirMatrix(kind, integral.result() / (2.0 * np.pi), n_clipped)


def rates_from_spectra(spectra: SpectralSet, kinds) -> dict[MeasureKind, MirMatrix]:
    """Rate matrices of the requested kinds, in request order, from one spectral set.

    Every kind is checked against RATE_KINDS before any measure is built.
    Each kind is then integrated over blocks of consecutive frequencies
    (``_block_size``), each block with its own S and S^-1, so besides
    A_bar and H_bar only one block of any measure is held. A refusal comes
    from the first block that meets it, kind by kind in request order.
    """
    kinds = [MeasureKind(kind) for kind in kinds]
    for kind in kinds:
        if kind not in RATE_KINDS:
            raise DomainError(f"no information-rate interpretation for measure {kind.value!r}")
    size = _block_size(spectra.K)
    return {
        kind: _integrate(kind, (_MEASURES[kind](block) for block in _blocks(spectra, size)), spectra.grid.points)
        for kind in dict.fromkeys(kinds)
    }

