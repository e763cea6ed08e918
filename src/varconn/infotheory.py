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
The rate call owns the running sums; S's two operands and the iPDC and
coherence scratch are per-block temporaries.

Only squared magnitudes enter a rate, so they are built in real arithmetic
(``_RATES``): |iPDC_ij|^2 = |A_bar_ij|^2 / (sigma_ii a_j^H sigma^-1 a_j),
|iDTF_ij|^2 = rho_j |H_bar_ij|^2 / S_ii and |C_ij|^2 = |S_ij|^2 / (S_ii S_jj),
from the |A_bar| and |H_bar| the conditioning guard has already computed,
each read from the block's ``SpectralSet`` with diag(S) and diag(S^-1).
No complex measure is built; the complex measures of ``measures`` are the
oracle, and the rates match their integrated squared magnitudes to within
a few ulps.
"""

from dataclasses import dataclass

import numpy as np

from ._stages import stage
from ._util import lock
from .errors import DomainError
from .measures import MeasureKind
from .spectral import FrequencyGrid, SpectralSet, _block_size, _draw_kinds, _spectral_blocks
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


def _ipdc_squared(spectra: SpectralSet, out: np.ndarray) -> None:
    """|iPDC_ij|^2 = |A_bar_ij|^2 / (sigma_ii q_j), q_j = [S^-1]_jj the normaliser ``measures.ipdc`` reads too."""
    np.square(spectra.abs_a_bar, out=out)
    out /= np.diag(spectra.sigma)[:, None]
    out /= spectra.inverse_autospectra[:, None, :]


def _idtf_squared(spectra: SpectralSet, out: np.ndarray) -> None:
    """|iDTF_ij|^2 = rho_j |H_bar_ij|^2 / S_ii, rho_j = 1 / [sigma^-1]_jj."""
    auto = spectra.autospectra
    np.square(spectra.abs_h_bar, out=out)
    out /= np.diag(spectra.sigma_inv)
    out /= auto[:, :, None]


def _coherence_squared(spectra: SpectralSet, out: np.ndarray) -> None:
    """|C_ij|^2 = (Re S_ij^2 + Im S_ij^2) / (S_ii S_jj), with the diagonal zeroed."""
    auto = spectra.autospectra
    squares = np.square(spectra.s.view(float))  # Re^2 and Im^2 side by side
    np.add(squares[..., 0::2], squares[..., 1::2], out=out)
    out /= auto[:, :, None]
    out /= auto[:, None, :]
    diag = np.arange(out.shape[1])
    out[:, diag, diag] = 0.0


#: Each rate kind's squared magnitude as fn(spectra, out): written from a
#: block of a walk into the float (n, K, K) array out, or a NumericalError.
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
    real arithmetic from the block's A_bar, |A_bar|, |H_bar|, S and sigma^-1,
    into rows 1.. of its stack, whose row 0 carries its running sum. The bridge
    writes log1p(-s) over them, the endpoint rows are halved, and one reduce
    adds the rows in grid order (``np.cumsum`` at K = 1, where the reduce
    sums pairwise), so the rates do not depend on the block size. The sums
    are negated once; the coherence diagonal is left out. Refusals come in
    the order the README's refusal paragraph states: the kinds
    (``rate_kinds``) and the grid size before the model is touched.
    """
    kinds = rate_kinds(kinds)
    n_points, k, size = grid.n_points, model.K, _block_size(model.K)
    if n_points < 2:
        raise DomainError(f"rates need a grid of at least 2 points, got {n_points}")
    sums = dict(zip(kinds, np.zeros((len(kinds), min(size, n_points) + 1, k, k))))
    n_clipped, drawn = dict.fromkeys(kinds, 0), dict.fromkeys(kinds, 0)  # drawn: grid rows of each kind

    def draw(spectra, kind):
        with stage("rates"):
            stack = sums[kind][: len(spectra.a_bar) + 1]
            _RATES[kind](spectra, stack[1:])
            n_clipped[kind] += _bridge_in_place(stack[1:])
            if drawn[kind] == 0:
                stack[1] /= 2.0
            drawn[kind] += len(spectra.a_bar)
            if drawn[kind] == n_points:
                stack[-1] /= 2.0
            stack[0] = np.add.reduce(stack) if k > 1 else np.cumsum(stack, axis=0, out=stack)[-1]

    _draw_kinds(_spectral_blocks(model, grid, size), kinds, draw)
    # 0 - sum negates the summed log1p(-s) and reads a zero sum of either sign as +0.0
    return {kind: MirMatrix(kind, np.subtract(0.0, sums[kind][0]) / (2.0 * (n_points - 1)), n_clipped[kind]) for kind in kinds}
