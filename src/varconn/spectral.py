"""Frequency-domain objects of a stable VAR model.

For a grid of normalized angular frequencies omega in [0, pi] this module
evaluates the AR polynomial A_bar(omega) = I - sum_l A(l) exp(-j omega l),
the transfer matrix H_bar = A_bar^-1, the spectral density
S = H_bar sigma H_bar^H and its inverse assembled directly as
A_bar^H sigma^-1 A_bar.
"""

from dataclasses import dataclass

import numpy as np

from ._util import as_readonly, lock
from .errors import DimensionError, DomainError, NumericalError
from .var_model import VarModel, validate

#: Default number of grid points over [0, pi].
DEFAULT_N_POINTS = 512

#: Limit on the 1-norm condition number kappa_1 = ||A_bar||_1 ||H_bar||_1
#: above which A_bar counts as numerically singular. kappa_1 lies within a
#: factor K of the 2-norm condition number (Higham, Accuracy and Stability
#: of Numerical Algorithms, 2nd ed., 2002, section 6.2) and costs no more
#: than two norms of arrays the evaluation holds anyway.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing frequencies in [0, pi], endpoints included.

    Frequencies are in radians per sample; pi is the Nyquist frequency.
    Spectra of real-valued processes are conjugate-symmetric, so the
    half-open circle carries all the information.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 1 or points.size < 1:
            raise DimensionError("grid must be a 1-d array with at least one point")
        if not np.all(np.isfinite(points)):
            raise DomainError("grid points must be finite")
        if np.any(np.diff(points) <= 0):
            raise DomainError("grid points must be strictly increasing")
        if points[0] < 0.0 or points[-1] > np.pi + 1e-12:
            raise DomainError("grid points must lie in [0, pi]")
        if points.size >= 2 and (points[0] != 0.0 or abs(points[-1] - np.pi) > 1e-12):
            raise DomainError("grids with two or more points must include both endpoints 0 and pi")
        object.__setattr__(self, "points", as_readonly(points))

    @property
    def n_points(self) -> int:
        return self.points.size

    @classmethod
    def default(cls, n_points: int = DEFAULT_N_POINTS) -> "FrequencyGrid":
        """Uniform grid of n_points over [0, pi] inclusive."""
        if n_points < 1:
            raise DomainError(f"n_points must be >= 1, got {n_points}")
        if n_points == 1:
            return cls(np.zeros(1))
        return cls(np.linspace(0.0, np.pi, n_points))


@dataclass(frozen=True, eq=False)
class SpectralSet:
    """Per-frequency matrices of a stable model, all shaped (n_points, K, K).

    Attributes
    ----------
    a_bar : ndarray
        AR polynomial I - sum_l A(l) exp(-j omega l).
    h_bar : ndarray
        Transfer matrix, the inverse of a_bar.
    s : ndarray
        Spectral density h_bar sigma h_bar^H (Hermitian, positive definite).
    s_inv : ndarray
        Inverse spectral density a_bar^H sigma^-1 a_bar. Its diagonal
        entry [S^-1]_kk is the reciprocal of channel k's partial spectrum,
        the power left after the optimal deduction of all other channels.

    The arrays are locked, not copied: the set owns what it is given.
    """

    grid: FrequencyGrid
    a_bar: np.ndarray
    h_bar: np.ndarray
    s: np.ndarray
    s_inv: np.ndarray

    def __post_init__(self):
        for name in ("a_bar", "h_bar", "s", "s_inv"):
            object.__setattr__(self, name, lock(getattr(self, name), dtype=complex))

    @property
    def K(self) -> int:
        return self.a_bar.shape[-1]


def evaluate_spectra(model: VarModel, grid: FrequencyGrid) -> SpectralSet:
    """Evaluate A_bar, H_bar, S and S^-1 on a grid.

    H_bar is obtained by inverting A_bar at each frequency, never by
    truncating a moving-average expansion, so it is exact for any stable
    model. S^-1 is assembled from sigma^-1 and A_bar rather than by
    inverting S.

    After the inverse, each frequency's 1-norm condition number
    kappa_1 = ||A_bar||_1 ||H_bar||_1 is read from the two arrays, and the
    evaluation is refused unless the worst one is at most CONDITION_LIMIT.
    A non-finite kappa_1 (an inverse that overflowed) and an exactly
    singular A_bar (``inv`` meets a zero pivot) are refused the same way.

    Raises
    ------
    NumericalError
        If the model is unstable, sigma is not positive definite, or
        A_bar is numerically singular at some grid frequency.
    """
    report = validate(model)
    if not report.stable:
        raise NumericalError(
            f"spectra require a stable model (spectral radius {report.spectral_radius:.6g})"
        )
    if not report.sigma_ok:
        raise NumericalError("innovation covariance is not positive definite")
    k, p = model.K, model.p
    omega = grid.points
    a_bar = np.repeat(np.eye(k, dtype=complex)[None, :, :], omega.size, axis=0)
    if p > 0:
        phases = np.exp(-1j * np.outer(omega, np.arange(1, p + 1)))
        a_bar -= (phases @ model.coeffs.reshape(p, k * k)).reshape(omega.size, k, k)
    try:
        h_bar = np.linalg.inv(a_bar)
    except np.linalg.LinAlgError:
        # a zero pivot; det factors A_bar by the same LU, so it reads 0 at that frequency
        worst = int(np.argmax(np.linalg.det(a_bar) == 0))
        raise _singular(omega[worst], np.inf) from None
    kappa = np.linalg.norm(a_bar, 1, axis=(1, 2)) * np.linalg.norm(h_bar, 1, axis=(1, 2))
    worst = int(np.argmax(kappa))  # the first NaN, if there is one
    if not kappa[worst] <= CONDITION_LIMIT:
        raise _singular(omega[worst], kappa[worst])
    sigma_inv = np.linalg.inv(model.sigma)
    s = h_bar @ model.sigma @ h_bar.conj().swapaxes(1, 2)
    s_inv = a_bar.conj().swapaxes(1, 2) @ sigma_inv @ a_bar
    return SpectralSet(grid=grid, a_bar=a_bar, h_bar=h_bar, s=s, s_inv=s_inv)


def _singular(omega: float, kappa: float) -> NumericalError:
    return NumericalError(
        f"A_bar is numerically singular at omega = {omega:.6g} "
        f"(condition number {kappa:.3e} exceeds {CONDITION_LIMIT:.0e})"
    )
