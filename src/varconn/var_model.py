"""Finite-order vector autoregressive models.

Covers model containers, stability validation, simulation, channel
rescaling, and least-squares estimation with information-criterion order
selection. Entry (i, j) of a coefficient matrix always scales the influence
of channel j on channel i.
"""

from dataclasses import dataclass

import numpy as np

from ._util import as_readonly
from .errors import DimensionError, DomainError, EstimationError, NumericalError

#: Margin by which the companion spectral radius must stay below 1.
STABILITY_TOL = 1e-8

_SYMMETRY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class VarModel:
    """A VAR(p) model x(n) = sum_l A(l) x(n - l) + w(n).

    Attributes
    ----------
    coeffs : ndarray, shape (p, K, K)
        Lag coefficient matrices A(1) .. A(p). A single (K, K) matrix is
        accepted and treated as p = 1; an empty leading axis means white
        noise (p = 0).
    sigma : ndarray, shape (K, K)
        Innovation covariance. Must be symmetric; positive definiteness is
        checked by :func:`validate` rather than at construction so that
        degenerate fitted models can still be inspected.
    """

    coeffs: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionError(f"sigma must be a square matrix, got shape {sigma.shape}")
        k = sigma.shape[0]
        if k < 1:
            raise DimensionError("need at least one channel")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[None, :, :]
        if coeffs.ndim != 3 or (coeffs.shape[0] > 0 and coeffs.shape[1:] != (k, k)):
            raise DimensionError(
                f"coeffs must have shape (p, {k}, {k}) to match sigma, got {coeffs.shape}"
            )
        if coeffs.shape[0] == 0:
            coeffs = coeffs.reshape(0, k, k)
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(sigma)):
            raise DomainError("model entries must be finite")
        scale = max(float(np.max(np.abs(sigma))), 1.0)
        if float(np.max(np.abs(sigma - sigma.T))) > _SYMMETRY_RTOL * scale:
            raise DimensionError("sigma must be symmetric")
        object.__setattr__(self, "coeffs", as_readonly(coeffs))
        object.__setattr__(self, "sigma", as_readonly(0.5 * (sigma + sigma.T)))

    @property
    def K(self) -> int:
        """Number of channels."""
        return self.sigma.shape[0]

    @property
    def p(self) -> int:
        """Model order (number of lags)."""
        return self.coeffs.shape[0]

    @classmethod
    def white_noise(cls, sigma) -> "VarModel":
        """Order-zero model with the given innovation covariance."""
        sigma = np.asarray(sigma, dtype=float)
        k = sigma.shape[0] if sigma.ndim == 2 else 0
        return cls(np.zeros((0, k, k)), sigma)


@dataclass(frozen=True, eq=False)
class TimeSeriesData:
    """Multichannel samples; rows are time steps, columns are channels."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d (samples x channels), got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError("need at least one sample and one channel")
        if not np.all(np.isfinite(values)):
            raise DomainError("samples must be finite")
        object.__setattr__(self, "values", as_readonly(values))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def K(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`."""

    stable: bool
    spectral_radius: float
    sigma_ok: bool


def companion_matrix(model: VarModel) -> np.ndarray:
    """Stack the lag matrices into the (K p, K p) companion form.

    The model is stable exactly when every eigenvalue of this matrix lies
    strictly inside the unit circle. For p = 0 the result is empty.
    """
    k, p = model.K, model.p
    if p == 0:
        return np.zeros((0, 0))
    top = model.coeffs.transpose(1, 0, 2).reshape(k, k * p)
    if p == 1:
        return top
    below = np.hstack([np.eye(k * (p - 1)), np.zeros((k * (p - 1), k))])
    return np.vstack([top, below])


def validate(model: VarModel) -> ValidationReport:
    """Check stability and innovation-covariance positive definiteness.

    ``stable`` requires the companion spectral radius below 1 - STABILITY_TOL;
    ``sigma_ok`` is a Cholesky test.
    """
    if model.p == 0:
        radius = 0.0
    else:
        radius = float(np.max(np.abs(np.linalg.eigvals(companion_matrix(model)))))
    try:
        np.linalg.cholesky(model.sigma)
        sigma_ok = True
    except np.linalg.LinAlgError:
        sigma_ok = False
    return ValidationReport(
        stable=bool(radius < 1.0 - STABILITY_TOL),
        spectral_radius=radius,
        sigma_ok=sigma_ok,
    )


def simulate(
    model: VarModel,
    n_samples: int,
    burn_in: int = 1000,
    seed: int = 0,
) -> tuple[TimeSeriesData, TimeSeriesData]:
    """Draw a realization of the model with Gaussian innovations.

    Parameters
    ----------
    model : VarModel
        Must be stable with positive definite sigma.
    n_samples : int
        Number of samples to keep after the burn-in.
    burn_in : int
        Samples discarded from the start so the kept section is close to
        stationary.
    seed : int
        Seed for the generator; identical seeds give identical output.

    Returns
    -------
    (samples, innovations)
        Two aligned TimeSeriesData objects: ``innovations.values[t]`` is the
        draw that produced ``samples.values[t]``.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if burn_in < 0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    report = validate(model)
    if not report.stable:
        raise NumericalError(
            f"refusing to simulate an unstable model (spectral radius {report.spectral_radius:.6g})"
        )
    if not report.sigma_ok:
        raise NumericalError("innovation covariance is not positive definite")
    k, p = model.K, model.p
    chol = np.linalg.cholesky(model.sigma)
    rng = np.random.default_rng(seed)
    total = burn_in + n_samples
    innovations = rng.standard_normal((total, k)) @ chol.T
    # rows t .. t + p - 1 of x hold lags p .. 1 of sample t (the first p rows
    # are the zero pre-sample history), so one (K, K p) matvec per step
    # applies every lag
    flat = model.coeffs[::-1].transpose(1, 0, 2).reshape(k, k * p)
    x = np.zeros((p + total, k))
    x[p:] = innovations
    for t in range(total):
        x[p + t] += flat @ x[t : t + p].ravel()
    return (
        TimeSeriesData(x[p + burn_in :]),
        TimeSeriesData(innovations[burn_in:]),
    )


def rescale(model: VarModel, gains) -> VarModel:
    """Apply per-channel gains g, mapping x to diag(g) x.

    Coefficients become g_i a_ij / g_j and sigma becomes
    diag(g) sigma diag(g). Stability is unaffected (the companion matrix is
    similarity-transformed).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (model.K,):
        raise DimensionError(f"expected {model.K} gains, got shape {gains.shape}")
    if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
        raise DomainError("gains must be finite and positive")
    ratio = gains[:, None] / gains[None, :]
    return VarModel(model.coeffs * ratio[None, :, :], model.sigma * np.outer(gains, gains))


def estimate(data: TimeSeriesData, order: int) -> VarModel:
    """Least-squares VAR fit of the demeaned samples.

    The residual covariance uses denominator n - order (the number of
    regression rows), which keeps it positive semi-definite by construction.

    Raises
    ------
    EstimationError
        If there are too few samples (need n > K * order + 1) or the
        regressor matrix is rank deficient.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    x = data.values - data.values.mean(axis=0)
    n, k = x.shape
    if n <= k * order + 1:
        raise EstimationError(
            f"need more than K * order + 1 = {k * order + 1} samples to fit order {order}, got {n}"
        )
    if order == 0:
        return VarModel(np.zeros((0, k, k)), x.T @ x / n)
    response = x[order:]
    regressors = np.hstack([x[order - lag : n - lag] for lag in range(1, order + 1)])
    solution, _, rank, _ = np.linalg.lstsq(regressors, response, rcond=None)
    if rank < k * order:
        raise EstimationError(
            f"rank-deficient regressor matrix: rank {rank} < {k * order} "
            f"({k} channels x {order} lags); the data do not excite every direction"
        )
    residuals = response - regressors @ solution
    sigma = residuals.T @ residuals / (n - order)
    coeffs = np.stack([solution[lag * k : (lag + 1) * k].T for lag in range(order)])
    return VarModel(coeffs, sigma)


def select_order(data: TimeSeriesData, p_max: int, criterion: str = "bic") -> int:
    """Pick the lag order in 1 .. p_max minimizing an information criterion.

    Every candidate order is fitted on the same effective sample (the first
    p_max rows are held back for all of them) so criterion values are
    comparable. The criterion is log det(sigma_hat) plus a penalty of
    2 K^2 p / n for "aic" or K^2 p log(n) / n for "bic".

    Each candidate is fitted exactly as ``estimate`` fits the samples from
    row p_max - order on, demeaned by their own mean, but all of them are
    read off one Gram matrix of the p_max-lag design (Lütkepohl 2005,
    §4.3). A candidate whose Gram route is refused (too few samples, or a
    regressor block that is not clearly full rank) is fitted by
    ``estimate`` itself, which raises its own errors.
    """
    crit = str(criterion).lower()
    if crit not in ("aic", "bic"):
        raise DomainError(f"unknown criterion {criterion!r}, expected 'aic' or 'bic'")
    if p_max < 1:
        raise DomainError(f"p_max must be >= 1, got {p_max}")
    values = _criterion_values(data.values, p_max, crit)
    if not np.min(values) < np.inf:
        raise EstimationError("no candidate order produced a usable residual covariance")
    return int(np.argmin(values)) + 1


def _criterion_values(x: np.ndarray, p_max: int, crit: str) -> np.ndarray:
    """The criterion of orders 1 .. p_max, inf for an order whose residual
    covariance is not positive definite."""
    n, k = x.shape
    n_eff = n - p_max
    if n_eff > k:  # else every order fails the sample check below and estimate refuses order 1
        # [lag 1 .. lag p_max | response] over the rows every candidate regresses on
        design = np.hstack([x[p_max - lag : n - lag] for lag in range(1, p_max + 1)] + [x[p_max:]])
        means = design.mean(axis=0)
        design -= means
        gram = design.T @ design
    values = np.full(p_max, np.inf)
    for order in range(1, p_max + 1):
        window = x[p_max - order :]
        fit = _gram_slogdet(gram, means, window.mean(axis=0), order, n_eff) if len(window) > k * order + 1 else None
        if fit is None:
            fit = np.linalg.slogdet(estimate(TimeSeriesData(window), order).sigma)
        sign, logdet = fit
        if sign > 0:
            penalty = 2.0 if crit == "aic" else float(np.log(n_eff))
            values[order - 1] = logdet + penalty * (k * k * order) / n_eff
    return values


#: Smallest accepted ratio of extreme singular values of the regressor
#: block's Cholesky factor. ``lstsq`` finds rank deficiency only below
#: eps * max(n, K p), about 4e-12 at n = 20000; the Gram route resolves
#: the ratio to about sqrt(eps), so it refuses well before that.
_GRAM_RATIO_MIN = 1e-6


def _gram_slogdet(gram: np.ndarray, means: np.ndarray, window_mean: np.ndarray, order: int, n_eff: int):
    """``slogdet`` of the order's residual covariance, read off the full Gram.

    The Gram was centred by the design's column means; a rank-one term
    moves it to the window mean ``estimate`` would subtract. Returns None
    when the regressor block is not clearly full rank.
    """
    k = window_mean.shape[0]
    columns = np.r_[0 : k * order, len(means) - k : len(means)]
    shift = np.tile(window_mean, order + 1) - means[columns]
    block = gram[np.ix_(columns, columns)] + n_eff * np.outer(shift, shift)
    try:
        factor = np.linalg.cholesky(block[: k * order, : k * order])
    except np.linalg.LinAlgError:
        return None
    singular = np.linalg.svd(factor, compute_uv=False)
    if not singular[-1] > _GRAM_RATIO_MIN * singular[0]:
        return None
    explained = np.linalg.solve(factor, block[: k * order, k * order :])
    residual = block[k * order :, k * order :] - explained.T @ explained
    return np.linalg.slogdet(residual / n_eff)
