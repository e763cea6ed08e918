"""Frequency-domain objects of a stable VAR model.

For a grid of normalized angular frequencies omega in [0, pi] this module
evaluates the AR polynomial A_bar(omega) = I - sum_l A(l) exp(-j omega l),
the transfer matrix H_bar = A_bar^-1, the spectral density
S = H_bar sigma H_bar^H and the diagonal of its inverse, with no S^-1
formed. Each frequency is evaluated on its own, so the grid is walked in
blocks (``_spectral_blocks``), as the ``measure`` and ``mir`` commands
walk it; ``evaluate_spectra`` is the walk in a single block, the
whole-grid route that ``verify``'s oracles, the library's callers and the
tests take.

Every block of a walk is a ``SpectralSet``, the one block type that
``measures``, ``infotheory`` and the CLI read: a record of what the walk
holds for the block's frequencies, each array (n, K, K) but sigma's:

- ``a_bar``, the AR polynomial, and ``h_bar``, its inverse, complex;
- ``abs_a_bar`` and ``abs_h_bar``, their magnitudes, which the
  conditioning guard computes;
- ``sigma`` and ``sigma_inv``, the innovation covariance and its inverse,
  (K, K), one sigma^-1 for the walk;
- ``s_out``, the complex array S is written into.

Only ``s`` (S = h_bar sigma h_bar^H), ``autospectra`` (diag(S)) and
``inverse_autospectra`` (diag(S^-1), a_j^H sigma^-1 a_j, the iPDC
normaliser) are assembled, on first read, checked, locked and kept. The
walk owns A_bar, |A_bar|, |H_bar| and S, one block-sized array each, and
writes every block into them, so a set it yields holds read-only views
that stay valid only until the next block is drawn; H_bar is fresh for
each block. What a reader builds from a block (the operands of S or
diag(S^-1), a measure, a rate's scratch) is a per-block temporary of its
own; a caller that keeps a block past that point must copy what it keeps.
``evaluate_spectra`` walks in one block, so its arrays are not rewritten.
"""

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._stages import timed
from ._util import lock
from .errors import DomainError, NumericalError
from .var_model import VarModel, require_valid

#: Grid points over [0, pi] of the measure and mir commands unless --nfreq says otherwise.
DEFAULT_N_POINTS = 512

#: Limit on the 1-norm condition number kappa_1 = ||A_bar||_1 ||H_bar||_1
#: above which A_bar counts as numerically singular. kappa_1 lies within a
#: factor K of the 2-norm condition number (Higham, Accuracy and Stability
#: of Numerical Algorithms, 2nd ed., 2002, section 6.2) and costs no more
#: than two norms of arrays the evaluation holds anyway.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """n_points uniform frequencies over [0, pi], endpoints included.

    points is ``np.linspace(0, pi, n_points)``, read-only; one point is
    omega = 0 alone. Frequencies are in radians per sample; pi is the
    Nyquist frequency. Spectra of real-valued processes are
    conjugate-symmetric, so the half-open circle carries all the
    information.
    """

    n_points: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_points < 1:
            raise DomainError(f"n_points must be >= 1, got {self.n_points}")
        object.__setattr__(self, "points", lock(np.linspace(0.0, np.pi, self.n_points)))


@dataclass(frozen=True, eq=False)
class SpectralSet:
    """One block of a walk, as ``_spectral_blocks`` builds it: the read-only arrays the module docstring lists.

    S, diag(S) and diag(S^-1) are assembled on first read and kept, so a
    caller that needs none of them never holds them.
    """

    a_bar: np.ndarray
    h_bar: np.ndarray
    abs_a_bar: np.ndarray
    abs_h_bar: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    s_out: np.ndarray

    @property
    def K(self) -> int:
        return self.a_bar.shape[-1]

    @cached_property
    def s(self) -> np.ndarray:
        product = np.matmul(self.h_bar, self.sigma)
        return lock(np.matmul(product, np.conjugate(self.h_bar).swapaxes(1, 2), out=self.s_out), dtype=complex)

    @cached_property
    def autospectra(self) -> np.ndarray:
        auto = np.einsum("fii->fi", self.s).real
        if np.any(auto <= 0):
            raise NumericalError("zero autospectrum: normalization undefined")
        return lock(auto)

    @cached_property
    def inverse_autospectra(self) -> np.ndarray:
        parts = self.a_bar.view(float)  # (n, K, 2K): q_j = Re sum_i conj(A_bar_ij) (sigma^-1 A_bar)_ij in real arithmetic
        product = np.matmul(self.sigma_inv, parts)
        product *= parts  # in place: a second (n, K, 2K) temporary would raise the peak memory of mir
        summed = np.add.reduce(product, axis=1)
        quad = summed[:, 0::2] + summed[:, 1::2]
        if np.any(quad <= 0):
            raise NumericalError("non-positive column quadratic form: iPDC undefined")
        return lock(quad)


def evaluate_spectra(model: VarModel, grid: FrequencyGrid) -> SpectralSet:
    """Evaluate A_bar and H_bar on a grid; S and the diagonals follow on first access.

    H_bar is obtained by inverting A_bar at each frequency, never by
    truncating a moving-average expansion, so it is exact for any stable
    model. The returned set assembles S from H_bar and sigma, and diag(S^-1)
    from sigma^-1 and A_bar, when one is first read. Its A_bar and H_bar are
    the one block of ``_spectral_blocks`` that spans the whole grid, so they
    are checked and refused exactly as the blocks are.

    Raises
    ------
    NumericalError
        If the model is unstable, sigma is not positive definite, or
        A_bar is numerically singular at some grid frequency.
    """
    (spectra,) = _spectral_blocks(model, grid, grid.n_points)
    return spectra


def _block_size(k: int) -> int:
    """Frequencies per block of a walk: about 256 KiB per complex (block, K, K) array."""
    return max(1, 2**14 // k**2)


def _spectral_blocks(model: VarModel, grid: FrequencyGrid, size: int) -> Iterator[SpectralSet]:
    """Walk a grid in consecutive runs of at most ``size`` frequencies, yielding one SpectralSet each.

    The model is validated once, on the first draw. Each block builds
    A_bar and H_bar for its own points only, and reads each frequency's
    1-norm condition number kappa_1 = ||A_bar||_1 ||H_bar||_1 from the two.
    A_bar's bits do not depend on the block length. Once the first block
    passes the guard, sigma is inverted, once for the walk. The arrays the
    walk owns (see the module docstring) hold ``min(size, n_points)``
    frequencies, two at least for A_bar.

    Refusals do not depend on the block size. A zero pivot in ``inv`` is
    refused at once, at the first frequency whose det is 0. Otherwise, after
    the last block, the worst kappa_1 of the grid is refused if it exceeds
    CONDITION_LIMIT, or the first non-finite one (an inverse that
    overflowed). No block is yielded once the guard has failed.
    """
    require_valid(model, "spectra require a stable model")
    k, p, rows = model.K, model.p, min(size, grid.n_points)
    lags, coeffs, eye = np.arange(1, p + 1), model.coeffs.reshape(p, k * k), np.eye(k)
    a_bars, s_all = np.empty((max(rows, 2), k, k), complex), np.empty((rows, k, k), complex)
    abs_a_bars, abs_h_bars = np.empty((2, rows, k, k))
    worst_omega, worst_kappa, sigma_inv = None, 0.0, None
    for start in range(0, grid.n_points, size):
        omega = grid.points[start : start + size]
        n = omega.size
        a_bar, abs_a_bar, abs_h_bar = a_bars[:n], abs_a_bars[:n], abs_h_bars[:n]
        # I - sum_l A(l) exp(-j omega l), as -(the sum) + I: the same bits, signed zeros included.
        # A one-row product would take matmul's matrix-vector path, whose last bits differ, so
        # it is made of two equal rows, and A_bar does not depend on the block length.
        phases = np.exp(-1j * np.outer(omega.repeat(2) if n == 1 else omega, lags))
        np.matmul(phases, coeffs, out=a_bars[: len(phases)].reshape(len(phases), k * k))
        np.negative(a_bar, out=a_bar)
        a_bar += eye
        try:
            h_bar = np.linalg.inv(a_bar)
        except np.linalg.LinAlgError:
            # a zero pivot; det factors A_bar by the same LU, so it reads 0 at that frequency
            worst = int(np.argmax(np.linalg.det(a_bar) == 0))
            raise _singular(omega[worst], np.inf) from None
        kappa = _norm_1(a_bar, abs_a_bar) * _norm_1(h_bar, abs_h_bar)
        worst = int(np.argmax(kappa))  # the first NaN, if there is one
        # keep the first NaN, else the first frequency of the largest kappa_1
        if not np.isnan(worst_kappa) and not kappa[worst] <= worst_kappa:
            worst_omega, worst_kappa = omega[worst], kappa[worst]
        if worst_kappa <= CONDITION_LIMIT:
            if sigma_inv is None:
                sigma_inv = lock(np.linalg.inv(model.sigma))
            yield SpectralSet(lock(a_bar, complex), lock(h_bar, complex), lock(abs_a_bar), lock(abs_h_bar), model.sigma, sigma_inv, s_all[:n])
    if not worst_kappa <= CONDITION_LIMIT:
        raise _singular(worst_omega, worst_kappa)


def _draw_kinds(blocks: Iterable, kinds: list, draw: Callable) -> None:
    """Call ``draw(block, kind)`` for each block and, within it, each kind in request order.

    A draw's DomainError or NumericalError waits until the blocks end, after
    what ``blocks`` raises, and then the first kind in request order to
    refuse is raised; later blocks draw only the kinds before it. This is
    the walk's part of the order the README's ``measure``/``mir`` refusal
    paragraph states.
    """
    refusal = None
    for block in timed("walk", blocks):
        for index, kind in enumerate(kinds):
            try:
                draw(block, kind)
            except (DomainError, NumericalError) as exc:
                refusal, kinds = exc, kinds[:index]  # only an earlier kind can refuse first now
                break
    if refusal is not None:
        raise refusal


def _norm_1(x: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, 1, axis=(1, 2))`` by numpy's own steps, with |x| written into ``magnitude``."""
    return np.add.reduce(np.abs(x, out=magnitude), axis=1).max(axis=-1, initial=0)


def _singular(omega: float, kappa: float) -> NumericalError:
    return NumericalError(
        f"A_bar is numerically singular at omega = {omega:.6g} "
        f"(condition number {kappa:.3e} exceeds {CONDITION_LIMIT:.0e})"
    )
