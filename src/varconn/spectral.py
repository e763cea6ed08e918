"""Frequency-domain objects of a stable VAR model.

For a grid of normalized angular frequencies omega in [0, pi] this module
evaluates the AR polynomial A_bar(omega) = I - sum_l A(l) exp(-j omega l),
the transfer matrix H_bar = A_bar^-1, the spectral density
S = H_bar sigma H_bar^H and its inverse assembled directly as
A_bar^H sigma^-1 A_bar. Each frequency is evaluated on its own, so the
grid is walked in blocks (``_spectral_blocks``), as the ``measure`` and
``mir`` commands walk it; ``evaluate_spectra`` is the walk in a single
block, the whole-grid route that ``verify``'s oracles, the library's
callers and the tests take.

A walk owns A_bar, |A_bar| and |H_bar|, one block-sized array each, and
writes every block into them, so a block it yields holds read-only views
that stay valid only until the next block is drawn; H_bar is fresh for
each block. A caller that keeps a block past that point must copy what it
keeps, and owns whatever else it builds from a block. ``evaluate_spectra``
walks in one block, so its arrays are never rewritten.
"""

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import lock
from .errors import DomainError, NumericalError
from .var_model import VarModel, validate

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
    """Per-frequency matrices of a stable model, all shaped (n, K, K).

    Attributes
    ----------
    a_bar : ndarray
        AR polynomial I - sum_l A(l) exp(-j omega l).
    h_bar : ndarray
        Transfer matrix, the inverse of a_bar.
    sigma : ndarray
        Innovation covariance of the model, shaped (K, K).
    s : ndarray
        Spectral density h_bar sigma h_bar^H (Hermitian, positive definite).
    s_inv : ndarray
        Inverse spectral density a_bar^H sigma^-1 a_bar. Its diagonal
        entry [S^-1]_kk is the reciprocal of channel k's partial spectrum,
        the power left after the optimal deduction of all other channels.

    sigma^-1, S and S^-1 are assembled on first access and kept; a caller
    that needs none of them never holds them. The arrays are locked, not
    copied: the set owns what it is given.
    """

    a_bar: np.ndarray
    h_bar: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("a_bar", "h_bar"):
            object.__setattr__(self, name, lock(getattr(self, name), dtype=complex))
        object.__setattr__(self, "sigma", lock(self.sigma))

    @property
    def K(self) -> int:
        return self.a_bar.shape[-1]

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        return lock(np.linalg.inv(self.sigma))

    @cached_property
    def s(self) -> np.ndarray:
        return _spectral_density(self.h_bar, self.sigma)

    @cached_property
    def s_inv(self) -> np.ndarray:
        product = np.matmul(np.conjugate(self.a_bar).swapaxes(1, 2), self.sigma_inv)
        return lock(np.matmul(product, self.a_bar), dtype=complex)


def _spectral_density(h_bar: np.ndarray, sigma: np.ndarray, product=None, conj=None, out=None) -> np.ndarray:
    """S = H_bar sigma H_bar^H, locked, the one route to S; product, conj and out take H_bar sigma, conj(H_bar) and S."""
    product = np.matmul(h_bar, sigma, out=product)
    conj = np.conjugate(h_bar, out=conj)
    return lock(np.matmul(product, conj.swapaxes(1, 2), out=out), dtype=complex)


def evaluate_spectra(model: VarModel, grid: FrequencyGrid) -> SpectralSet:
    """Evaluate A_bar and H_bar on a grid; S and S^-1 follow on first access.

    H_bar is obtained by inverting A_bar at each frequency, never by
    truncating a moving-average expansion, so it is exact for any stable
    model. The returned set assembles S from H_bar and sigma, and S^-1 from
    sigma^-1 and A_bar rather than by inverting S, when one is first read.
    Its A_bar and H_bar are the one block of ``_spectral_blocks`` that
    spans the whole grid, so they are checked and refused exactly as the
    blocks are.

    Raises
    ------
    NumericalError
        If the model is unstable, sigma is not positive definite, or
        A_bar is numerically singular at some grid frequency.
    """
    ((a_bar, h_bar, _, _),) = _spectral_blocks(model, grid, grid.n_points)
    return SpectralSet(a_bar, h_bar, model.sigma)


def _block_size(k: int) -> int:
    """Frequencies per block of a walk: about 256 KiB per complex (block, K, K) array."""
    return max(1, 2**14 // k**2)


def _spectral_blocks(model: VarModel, grid: FrequencyGrid, size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Walk a grid in consecutive runs of at most ``size`` frequencies, yielding (A_bar, H_bar, |A_bar|, |H_bar|).

    The model is validated once, on the first draw. Each block builds
    A_bar and H_bar for its own points only, and reads each frequency's
    1-norm condition number kappa_1 = ||A_bar||_1 ||H_bar||_1 from the two,
    leaving |A_bar| and |H_bar| behind. A_bar's bits do not depend on the
    block length. The walk owns three arrays of ``min(size, n_points)``
    frequencies (two at least for A_bar), A_bar, |A_bar| and |H_bar|, and
    writes every block into them, so a block it yields holds read-only
    views that stay valid until the next block is drawn; H_bar is the
    fresh output of ``inv``.

    Refusals do not depend on the block size. A zero pivot in ``inv`` is
    refused at once, at the first frequency whose det is 0. Otherwise, after
    the last block, the worst kappa_1 of the grid is refused if it exceeds
    CONDITION_LIMIT, or the first non-finite one (an inverse that
    overflowed). No block is yielded once the guard has failed.
    """
    report = validate(model)
    if not report.stable:
        raise NumericalError(
            f"spectra require a stable model (spectral radius {report.spectral_radius:.6g})"
        )
    if not report.sigma_ok:
        raise NumericalError("innovation covariance is not positive definite")
    k, p, rows = model.K, model.p, min(size, grid.n_points)
    lags, coeffs, eye = np.arange(1, p + 1), model.coeffs.reshape(p, k * k), np.eye(k)
    a_bars, abs_a_bars, abs_h_bars = np.empty((max(rows, 2), k, k), complex), np.empty((rows, k, k)), np.empty((rows, k, k))
    worst_omega, worst_kappa = None, 0.0
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
            yield lock(a_bar, complex), lock(h_bar, complex), lock(abs_a_bar), lock(abs_h_bar)
    if not worst_kappa <= CONDITION_LIMIT:
        raise _singular(worst_omega, worst_kappa)


def _draw_kinds(blocks: Iterable, kinds: list, draw: Callable) -> None:
    """Call ``draw(block, kind)`` for each block and, within it, each kind in request order.

    The one refusal rule of a walk: a draw's DomainError or NumericalError
    waits until the blocks end, after what ``blocks`` raises, and then the
    first kind in request order to refuse is raised; later blocks draw only
    the kinds before it.
    """
    refusal = None
    for block in blocks:
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
