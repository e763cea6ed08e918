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
of clipped values is reported alongside every result. Each frequency adds
its own term, so the rates are integrated while the spectra are evaluated
block by block, and no whole-grid array is ever held.
"""

from dataclasses import dataclass

import numpy as np

from ._util import lock
from .errors import DomainError, NumericalError
from .measures import _MEASURES, MeasureKind
from .spectral import FrequencyGrid, _block_size, _spectral_blocks
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


def geweke_hosoya_bridge(measure_sq) -> tuple[np.ndarray, int]:
    """Map squared coherences s to spectral Granger-causality values -log(1 - s).

    Any s above 1 + BOUND_TOL or below -BOUND_TOL raises DomainError: it
    means an upstream bound was violated, which the clip must not hide.
    Otherwise s is clipped into [0, 1 - EPS_CLIP] before the log, and
    n_clipped counts the entries above 1 - EPS_CLIP. Returns (-log(1 - s),
    n_clipped) elementwise; the inverse map is s = 1 - exp(-f). For two
    channels this connects the information measures to the classical
    Geweke and Hosoya frequency-domain causality decompositions.

    The rate path applies it in place, one block of frequencies at a time,
    so a refusal there quotes the max (or min) of the first block that
    fails, not of the whole grid.
    """
    values = np.array(measure_sq, dtype=float)
    return values, _bridge_in_place(values)


def _bridge_in_place(values: np.ndarray) -> int:
    """``geweke_hosoya_bridge`` written over its float input; returns n_clipped."""
    if np.any(values > 1.0 + BOUND_TOL):
        raise DomainError(
            f"squared coherence exceeds 1 (max {float(np.max(values)):.6g}); upstream bound violated"
        )
    if np.any(values < -BOUND_TOL):
        raise DomainError(f"squared coherence is negative (min {float(np.min(values)):.6g})")
    n_clipped = int(np.count_nonzero(values > 1.0 - EPS_CLIP))
    # -log1p(-clip(values)), one step at a time
    np.clip(values, 0.0, 1.0 - EPS_CLIP, out=values)
    np.negative(values, out=values)
    np.log1p(values, out=values)
    np.negative(values, out=values)
    return n_clipped


class _TrapezoidSum:
    """``np.trapezoid(y, omega, axis=0)``, fed the (K, K) rows of y in consecutive blocks.

    The result is numpy's bit for bit. Each interval adds the term
    d * (y[n + 1] + y[n]) / 2.0, so a block is joined to a copy of the last
    row of the one before it. numpy sums a stack of such terms row by row,
    left to right, when K >= 2, so the running sum is row 0 of a stack whose
    other rows are the next block's terms; the stack is allocated once, at
    the first block, which no later block may outgrow. A stack of 1 x 1
    terms numpy sums pairwise instead, so for K = 1 the terms are kept, one
    float per interval, and summed once in ``result``.
    """

    def __init__(self, omega: np.ndarray):
        self.omega = omega
        self.stop = 0
        self.last = None
        self.stack = None
        self.scalar_terms = []

    def add(self, rows: np.ndarray) -> None:
        start, self.stop = self.stop, self.stop + rows.shape[0]
        joined = self.last is not None
        if self.stack is None:
            self.stack = np.zeros((rows.shape[0] + 1, *rows.shape[1:]))
        d = np.diff(self.omega[start - joined : self.stop])[:, None, None]
        stack = self.stack[: d.shape[0] + 1]
        terms = stack[1:]
        if joined:
            np.add(rows[0], self.last, out=terms[0])
        np.add(rows[1:], rows[:-1], out=terms[joined:])
        np.multiply(d, terms, out=terms)
        np.divide(terms, 2.0, out=terms)
        self.last = rows[-1].copy()
        if self.last.size == 1:
            self.scalar_terms.append(terms.copy())
        else:
            stack[0] = stack.sum(axis=0)

    def result(self) -> np.ndarray:
        return np.concatenate(self.scalar_terms).sum(axis=0) if self.scalar_terms else self.stack[0].copy()


def rate_kinds(kinds) -> list[MeasureKind]:
    """The requested kinds as MeasureKinds, each once, in request order; DomainError for a kind without a rate."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in RATE_KINDS:
            names = ", ".join(rate.value for rate in RATE_KINDS)
            raise DomainError(f"unknown rate kind {getattr(kind, 'value', kind)!r}, expected one of {names}")
    return list(dict.fromkeys(map(MeasureKind, kinds)))


def information_rates(model: VarModel, grid: FrequencyGrid, kinds) -> dict[MeasureKind, MirMatrix]:
    """Rate matrices of the requested kinds, in request order, of a model on a grid.

    The grid is walked once, in blocks of ``_block_size(K)`` frequencies:
    every kind is drawn from each block's A_bar, H_bar, S and S^-1 and
    carries its own trapezoid sum and clip count on to the next block, so
    only one block is ever held. The coherence diagonal, a channel's
    coherence with itself, is left out. Refusals come in this order,
    whatever the block size: the kinds (``rate_kinds``), the model and a
    singular A_bar (``_spectral_blocks``), a grid of fewer than 2 points,
    then the first block whose measures or bridge refuse, and within it the
    first kind in request order.
    """
    kinds = rate_kinds(kinds)
    omega = grid.points
    integrals = {kind: _TrapezoidSum(omega) for kind in kinds}
    n_clipped = dict.fromkeys(kinds, 0)
    diag = np.arange(model.K)
    refusal, integrand = None, None
    for block in _spectral_blocks(model, grid, _block_size(model.K)):
        if refusal is not None:
            continue
        if integrand is None:  # the first block is the longest
            integrand = np.empty(block.a_bar.shape)
        squared = integrand[: block.a_bar.shape[0]]
        try:
            for kind in kinds:
                np.abs(_MEASURES[kind](block).values, out=squared)
                np.square(squared, out=squared)
                if kind is MeasureKind.COHERENCE:
                    squared[:, diag, diag] = 0.0
                n_clipped[kind] += _bridge_in_place(squared)
                integrals[kind].add(squared)
        except (DomainError, NumericalError) as exc:
            refusal = exc
    if omega.size < 2:
        raise DomainError(f"rates need a grid of at least 2 points, got {omega.size}")
    if refusal is not None:
        raise refusal
    return {kind: MirMatrix(kind, integrals[kind].result() / (2.0 * np.pi), n_clipped[kind]) for kind in kinds}
