"""Mutual information rates from squared-coherence profiles.

For jointly Gaussian stationary processes the mutual information rate
between two scalar processes is the frequency average of
-log(1 - |coherence|^2) (the Gelfand-Yaglom integral). Spectra of real
signals are even in frequency, so the average over the full circle is the
integral over [0, pi] divided by pi, and every rate here is computed as

    MIR = 1 / (2 pi) * integral_0^pi -log(1 - |C(omega)|^2) d omega

by the trapezoid rule on the uniform grid of n points, in nats per
sample: the weighted sum (sum_k y_k - (y_0 + y_{n-1}) / 2) / (2 (n - 1)).
The integrand is 2 pi-periodic, so the rule converges geometrically in n
(Trefethen & Weideman, SIAM Review 56(3), 2014). iPDC and iDTF are exact
coherences between suitably partialized processes, so integrating their
squared magnitudes yields the information rate each directed pair shares.
Squared coherences are clipped just below 1 before taking logs, and only
when one lies outside [0, 1 - EPS_CLIP]; the number of clipped values is
reported alongside every result. Each frequency adds its own term, so the
rates are integrated while the spectra are evaluated block by block, and
no whole-grid array is ever held: a block's log1p(-s) rows take two passes
after one max and one min, and one row reduce adds them in grid order.
Every array is reused from block to block: the walk owns A_bar, |A_bar|
and |H_bar|, and the rate call owns S, its two operands, sigma^-1, the
scratch and the running sums.

Only squared magnitudes enter a rate, so they are built in real arithmetic
(``_RATES``): |iPDC_ij|^2 = |A_bar_ij|^2 / (sigma_ii a_j^H sigma^-1 a_j),
|iDTF_ij|^2 = rho_j |H_bar_ij|^2 / S_ii and |C_ij|^2 = |S_ij|^2 / (S_ii S_jj),
from the |A_bar| and |H_bar| the conditioning guard has already computed.
No S^-1 and no complex measure is built; the complex measures of
``measures`` are the oracle, and the rates match their integrated squared
magnitudes to within a few ulps.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import lock
from .errors import DomainError, NumericalError
from .measures import MeasureKind, _autospectra
from .spectral import FrequencyGrid, _block_size, _draw_kinds, _spectral_blocks, _spectral_density
from .var_model import VarModel

#: Squared coherences are clipped to at most 1 - EPS_CLIP before the log.
EPS_CLIP = 1e-12

#: Inputs above 1 + BOUND_TOL are rejected instead of clipped.
BOUND_TOL = 1e-9


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


def _bridge_in_place(values: np.ndarray) -> int:
    """Write log1p(-s) over float squared coherences s; return n_clipped.

    -log1p(-s) is the spectral Granger-causality value of s. An s above
    1 + BOUND_TOL or below -BOUND_TOL is an upstream bound violated, which
    the clip must not hide: DomainError quotes the max (or min) of the
    block. Otherwise s is clipped into [0, 1 - EPS_CLIP], and n_clipped
    counts the entries above 1 - EPS_CLIP; both run only if max or min
    leaves [0, 1 - EPS_CLIP], and NaN bounds fall back to elementwise tests.
    """
    top, bottom = np.max(values, initial=-np.inf), np.min(values, initial=np.inf)
    if not top <= 1.0 + BOUND_TOL and np.any(values > 1.0 + BOUND_TOL):
        raise DomainError(f"squared coherence exceeds 1 (max {float(top):.6g}); upstream bound violated")
    if not bottom >= -BOUND_TOL and np.any(values < -BOUND_TOL):
        raise DomainError(f"squared coherence is negative (min {float(bottom):.6g})")
    n_clipped = 0
    if not (bottom >= 0.0 and top <= 1.0 - EPS_CLIP):
        n_clipped = int(np.count_nonzero(values > 1.0 - EPS_CLIP))
        np.clip(values, 0.0, 1.0 - EPS_CLIP, out=values)
    np.negative(values, out=values)
    np.log1p(values, out=values)
    return n_clipped


def rate_kinds(kinds) -> list[MeasureKind]:
    """The requested kinds as MeasureKinds, each once, in request order; DomainError for a kind without a rate."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in RATE_KINDS:
            names = ", ".join(rate.value for rate in RATE_KINDS)
            raise DomainError(f"unknown rate kind {getattr(kind, 'value', kind)!r}, expected one of {names}")
    return list(dict.fromkeys(map(MeasureKind, kinds)))


class _RateBlock:
    """One block of a walk as the rate table reads it.

    a_bar, h_bar, abs_a_bar and abs_h_bar are the block the walk yielded.
    sigma^-1 and ``work``, a float (n, K, 2K) scratch and the complex S and
    its two operands, belong to the rate call, and the block uses the first
    n rows of each. S is built on first use, and diag(S) is read once and
    shared by iDTF and coherence; a block that needs neither builds no S.
    """

    def __init__(self, block: tuple, sigma: np.ndarray, sigma_inv: np.ndarray, work: tuple):
        self.a_bar, self.h_bar, self.abs_a_bar, self.abs_h_bar = block
        self.sigma, self.sigma_inv = sigma, sigma_inv
        self.scratch, self._product, self._conj, self._s = (array[: len(self.a_bar)] for array in work)

    @cached_property
    def s(self) -> np.ndarray:
        """H_bar sigma H_bar^H, written into the rate call's arrays."""
        return _spectral_density(self.h_bar, self.sigma, self._product, self._conj, self._s)

    @cached_property
    def autospectra(self) -> np.ndarray:
        return _autospectra(self.s)


def _ipdc_squared(block: _RateBlock, out: np.ndarray) -> None:
    """|iPDC_ij|^2 = |A_bar_ij|^2 / (sigma_ii q_j), q_j = Re sum_i conj(A_bar_ij) (sigma^-1 A_bar)_ij.

    q_j is a_j^H sigma^-1 a_j, the diagonal [S^-1]_jj, from one real matmul
    over A_bar's real and imaginary parts side by side, so no S^-1 is built.
    """
    parts = block.a_bar.view(float)  # (n, K, 2K): Re and Im of each entry in turn
    product = np.matmul(block.sigma_inv, parts, out=block.scratch)
    product *= parts
    summed = np.add.reduce(product, axis=1)
    quad = summed[:, 0::2] + summed[:, 1::2]
    if np.any(quad <= 0):
        raise NumericalError("non-positive column quadratic form: iPDC undefined")
    np.square(block.abs_a_bar, out=out)
    out /= np.diag(block.sigma)[:, None]
    out /= quad[:, None, :]


def _idtf_squared(block: _RateBlock, out: np.ndarray) -> None:
    """|iDTF_ij|^2 = rho_j |H_bar_ij|^2 / S_ii, rho_j = 1 / [sigma^-1]_jj."""
    auto = block.autospectra
    np.square(block.abs_h_bar, out=out)
    out /= np.diag(block.sigma_inv)
    out /= auto[:, :, None]


def _coherence_squared(block: _RateBlock, out: np.ndarray) -> None:
    """|C_ij|^2 = (Re S_ij^2 + Im S_ij^2) / (S_ii S_jj), with the diagonal zeroed."""
    auto = block.autospectra
    squares = np.square(block.s.view(float), out=block.scratch)  # Re^2 and Im^2 side by side
    np.add(squares[..., 0::2], squares[..., 1::2], out=out)
    out /= auto[:, :, None]
    out /= auto[:, None, :]
    diag = np.arange(out.shape[1])
    out[:, diag, diag] = 0.0


#: Each rate kind's squared magnitude as fn(block, out): written from a
#: _RateBlock into the float (n, K, K) array out, or a NumericalError.
_RATES = {
    MeasureKind.IPDC: _ipdc_squared,
    MeasureKind.IDTF: _idtf_squared,
    MeasureKind.COHERENCE: _coherence_squared,
}

#: The measures whose squared magnitudes integrate into rates.
RATE_KINDS = tuple(_RATES)


def information_rates(model: VarModel, grid: FrequencyGrid, kinds) -> dict[MeasureKind, MirMatrix]:
    """Rate matrices of the requested kinds, in request order, of a model on a grid.

    The grid is walked once, in blocks of ``_block_size(K)`` frequencies.
    In each block every kind writes its squared magnitude (``_RATES``), in
    real arithmetic from A_bar, the guard's |A_bar| and |H_bar|, and S, into
    rows 1.. of its stack, whose row 0 carries its running sum. The bridge
    writes log1p(-s) over them, the endpoint rows are halved, and one reduce
    adds the rows in grid order (``np.cumsum`` at K = 1, where the reduce
    sums pairwise), so the rates do not depend on the block size. The sums
    are negated once; the coherence diagonal is left out. After the kinds
    (``rate_kinds``), ``_draw_kinds`` orders the refusals, a grid of fewer
    than 2 points among the walk's own.
    """
    kinds = rate_kinds(kinds)
    n_points, k, size = grid.n_points, model.K, _block_size(model.K)
    rows = min(size, n_points)
    sums = dict(zip(kinds, np.zeros((len(kinds), rows + 1, k, k))))
    work = (np.empty((rows, k, 2 * k)), *np.empty((3, rows, k, k), dtype=complex))
    n_clipped = dict.fromkeys(kinds, 0)

    def blocks():
        stop = 0
        for walked in _spectral_blocks(model, grid, size):
            if stop == 0:
                sigma_inv = lock(np.linalg.inv(model.sigma))
            start, stop = stop, stop + len(walked[0])
            yield _RateBlock(walked, model.sigma, sigma_inv, work), start == 0, stop == n_points
        if n_points < 2:
            raise DomainError(f"rates need a grid of at least 2 points, got {n_points}")

    def draw(walked, kind):
        block, first, last = walked
        stack = sums[kind][: len(block.a_bar) + 1]
        _RATES[kind](block, stack[1:])
        n_clipped[kind] += _bridge_in_place(stack[1:])
        if first:
            stack[1] /= 2.0
        if last:
            stack[-1] /= 2.0
        stack[0] = np.add.reduce(stack) if k > 1 else np.cumsum(stack, axis=0, out=stack)[-1]

    _draw_kinds(blocks(), kinds, draw)
    # 0 - sum negates the summed log1p(-s) and reads a zero sum of either sign as +0.0
    return {kind: MirMatrix(kind, np.subtract(0.0, sums[kind][0]) / (2.0 * (n_points - 1)), n_clipped[kind]) for kind in kinds}
