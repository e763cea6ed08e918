"""Finite-order vector autoregressive models.

Covers model containers, stability validation, simulation, and
least-squares estimation with information-criterion order selection.
Entry (i, j) of a coefficient matrix always scales the influence of
channel j on channel i.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._util import as_readonly, lock
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


@dataclass(frozen=True, eq=False)
class TimeSeriesData:
    """Multichannel samples; rows are time steps, columns are channels.

    values is copied from the caller and locked. ``simulate`` and
    ``load_timeseries`` hand over the arrays they have just built instead
    (``_adopt``), locked, not copied.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_readonly(_checked_samples(self.values)))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "TimeSeriesData":
        """Wrap, without a copy, a float array its producer has just built and keeps no other use of, or a view of locked samples."""
        data = object.__new__(cls)
        object.__setattr__(data, "values", lock(_checked_samples(values)))
        return data

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def K(self) -> int:
        return self.values.shape[1]


def _checked_samples(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"values must be 2-d (samples x channels), got shape {values.shape}")
    if values.shape[0] < 1 or values.shape[1] < 1:
        raise DimensionError("need at least one sample and one channel")
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):  # a nan propagates through both, which allocate nothing of n
        raise DomainError("samples must be finite")
    return values


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`."""

    stable: bool
    spectral_radius: float
    sigma_ok: bool


def companion_matrix(model: VarModel) -> np.ndarray:
    """Stack the lag matrices into the (K p, K p) companion form.

    The model is stable exactly when every eigenvalue of this matrix lies
    strictly inside the unit circle. Needs p >= 1.
    """
    return _companion(model.coeffs)


def _companion(coeffs: np.ndarray) -> np.ndarray:
    p, k = coeffs.shape[:2]
    top = coeffs.transpose(1, 0, 2).reshape(k, k * p)
    below = np.hstack([np.eye(k * (p - 1)), np.zeros((k * (p - 1), k))])
    return np.vstack([top, below])


def _spectral_radius(coeffs: np.ndarray) -> float:
    """The largest |eigenvalue| of the companion matrix of lag matrices (p, K, K), and 0.0 for p = 0."""
    return float(np.max(np.abs(np.linalg.eigvals(_companion(coeffs))))) if len(coeffs) else 0.0


def validate(model: VarModel) -> ValidationReport:
    """Check stability and innovation-covariance positive definiteness.

    ``stable`` requires the companion spectral radius below 1 - STABILITY_TOL;
    ``sigma_ok`` is the Cholesky factorization ``simulate`` draws with, so
    every command that accepts a sigma can also simulate it.
    """
    radius = _spectral_radius(model.coeffs)
    try:
        _cholesky(model.sigma)
        sigma_ok = True
    except NumericalError:
        sigma_ok = False
    return ValidationReport(
        stable=bool(radius < 1.0 - STABILITY_TOL),
        spectral_radius=radius,
        sigma_ok=sigma_ok,
    )


def require_valid(model: VarModel, unstable: str) -> None:
    """Refuse, with NumericalError, a model that ``validate`` finds unstable (``unstable`` opens the message) or whose sigma is not positive definite."""
    report = validate(model)
    if not report.stable:
        raise NumericalError(f"{unstable} (spectral radius {report.spectral_radius:.6g})")
    if not report.sigma_ok:
        raise NumericalError("innovation covariance is not positive definite")


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

    The chunks of ``_simulation_chunks`` are copied into the two arrays
    returned, so memory beyond them does not grow with n. The innovations
    have the same bits on every host (see ``_simulation_walk``). The
    recursion starts from a zero history and advances a block of samples
    at a time, so a sample may differ in its last digit from the same sum
    taken one step and one lag at a time; a seed gives the same samples on
    every run. For p = 0 the samples are the innovations.
    """
    chunks = _simulation_chunks(model, n_samples, burn_in, seed)
    samples, innovations = np.empty((n_samples, model.K)), np.empty((n_samples, model.K))
    row = 0
    for x, w in chunks:
        samples[row : row + len(x)] = x
        innovations[row : row + len(w)] = w
        row += len(x)
    return TimeSeriesData._adopt(samples), TimeSeriesData._adopt(innovations)


def _simulation_chunks(model: VarModel, n_samples: int, burn_in: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Raise ``simulate``'s refusals, then return a walk over the kept samples as (samples, innovations) row chunks.

    The chunks are consecutive views of the walk's buffers, which the next
    chunk overwrites, so a caller folds or writes each one before taking
    the next; the burn-in rows are dropped as they pass. The values are
    not checked for finiteness.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if burn_in < 0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    require_valid(model, "refusing to simulate an unstable model")
    return _simulation_walk(model, _cholesky(model.sigma), burn_in + n_samples, burn_in, seed)


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of sigma, with the same bits on every host (LAPACK's move with the BLAS kernels).

    Right-looking: column j of what is left, over the square root of its
    pivot, is column j of the factor, and what is left loses that column's
    outer product, one IEEE multiply and subtract per entry, column by column.
    A pivot this sum leaves at 0 or below is a sigma that is not positive
    definite, NumericalError; ``validate`` decides ``sigma_ok`` by this
    factorization too, so the two cannot disagree.
    """
    rest, k = np.array(sigma, dtype=np.float64), len(sigma)
    chol = np.zeros((k, k))
    for j in range(k):
        if not rest[j, j] > 0:
            raise NumericalError("innovation covariance is not positive definite")
        chol[j, j] = np.sqrt(rest[j, j])
        chol[j + 1 :, j] = rest[j + 1 :, j] / chol[j, j]
        rest[j + 1 :, j + 1 :] -= np.multiply.outer(chol[j + 1 :, j], chol[j + 1 :, j])
    return chol


#: Blocks whose zero-state part one product computes; 64 blocks of the
#: largest block are 128 KiB of samples. A chunk of ``_simulation_walk``
#: holds whole runs of them, so its runs start where those of a walk over
#: the whole series would.
_CHUNK_BLOCKS = 64

#: Bytes of each of a chunk's four arrays (innovations, the draw and the
#: innovations by channel, samples), rounded up to whole runs of
#: ``_CHUNK_BLOCKS`` blocks: 4,096 samples at K = 5.
_SIMULATION_CHUNK_BYTES = 5 * 2**15


def _simulation_block(k: int) -> int:
    """Samples per block of the recursion: at most 256 values, so T is at most 512 KiB."""
    return max(1, min(16, 256 // k))


def _simulation_walk(model: VarModel, chol: np.ndarray, total: int, burn_in: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks of ``_simulation_chunks``: x(n) = sum_l A(l) x(n - l) + w(n) from a zero history.

    Each chunk draws its rows of one Generator stream, which equal the same
    rows of a one-call draw. Row n of the innovations is chol z(n) (chol
    from ``_cholesky``), summed column by column of chol, term j = 0, 1,
    ... in turn, with no fused multiply-add: the bits of a row depend on
    that row alone, not on the chunk it falls in, the thread count or the
    BLAS kernels, as a BLAS product's may.

    A block of m samples is x_b = T w_b + G h_b, where w_b are the block's
    innovations and h_b its p-sample history (``_block_operators``). T w_b
    of a run of ``_CHUNK_BLOCKS`` blocks is one product; only the G h_b
    terms walk the blocks in order, one per block. The walk holds one set
    of chunk buffers and overwrites them chunk by chunk.
    """
    k, p = model.K, model.p
    m = _simulation_block(k)
    run = _CHUNK_BLOCKS * m
    rows = min(run * -(-_SIMULATION_CHUNK_BYTES // (8 * k * run)), total)
    rng = np.random.default_rng(seed)
    if p:
        t, g = _block_operators(model, m)
    innovations = np.empty((rows, k))  # the chunk's draw, then its innovations
    # the draw and chol z(n) by channel: each term of the sum is one product of contiguous rows
    z_t, w_t = np.empty((k, rows)), np.empty((k, rows))
    # p rows of history, then the chunk's samples, so rows b m .. b m + p - 1 are block b's
    # history; the first history is zero
    x = np.zeros((p + rows, k))
    for start in range(0, total, rows):
        size = min(rows, total - start)
        w, samples = innovations[:size], x[p : p + size]
        if start:
            x[:p] = x[rows:]  # the last p samples of the previous chunk
        rng.standard_normal(out=w)
        z, acc, term = z_t[:, :size], w_t[:, :size], samples.reshape(k, size)  # term: scratch until the recursion
        z[...] = w.T
        np.multiply(chol[:, :1], z[0], out=acc)
        for j in range(1, k):
            np.multiply(chol[j:, j : j + 1], z[j], out=term[j:])
            acc[j:] += term[j:]
        w[...] = acc.T
        if p:
            n_full = size // m
            w_blocks = w[: n_full * m].reshape(n_full, m * k)
            x_blocks = samples[: n_full * m].reshape(n_full, m * k)
            for first in range(0, n_full, _CHUNK_BLOCKS):
                stop = min(first + _CHUNK_BLOCKS, n_full)
                np.matmul(w_blocks[first:stop], t.T, out=x_blocks[first:stop])
                for b in range(first, stop):
                    x_blocks[b] += g @ x[b * m : b * m + p].ravel()
            s = n_full * m
            if s < size:  # only the last chunk ends inside a block
                tail, r = samples[s:].reshape(-1), (size - s) * k
                np.matmul(t[:r, :r], w[s:].reshape(-1), out=tail)
                tail += g[:r] @ x[s : s + p].ravel()
        else:
            samples = w
        keep = max(burn_in - start, 0)
        if keep < size:
            yield samples[keep:], w[keep:]


def _block_operators(model: VarModel, m: int) -> tuple[np.ndarray, np.ndarray]:
    """T and G of a block of m samples (Lütkepohl 2005, §2.1).

    With F the companion matrix, T is the (m K, m K) block lower-triangular
    Toeplitz matrix whose block j rows below the diagonal is the impulse
    response Psi_j, the top-left K x K block of F^j, and G (m K, K p)
    stacks the top K rows of F^1 .. F^m, its columns reordered to take the
    history oldest sample first.
    """
    k, p = model.K, model.p
    tops = np.empty((m + 1, k, k * p))  # the top K rows of F^0 .. F^m
    tops[0] = np.eye(k, k * p)
    # F is applied as the transpose of a C-ordered F^T, the operand layout of
    # the draw and of the block products: a small product in another layout
    # pages in a BLAS kernel that nothing else in simulate or fit touches
    f_t = np.ascontiguousarray(companion_matrix(model).T)
    for j in range(m):
        np.matmul(tops[j], f_t.T, out=tops[j + 1])
    t = np.zeros((m, k, m, k))
    for j in range(m):
        t[j, :, : j + 1] = tops[j::-1, :, :k].transpose(1, 0, 2)
    # F's state lists the history newest first
    g = tops[1:].reshape(m, k, p, k)[:, :, ::-1]
    return t.reshape(m * k, m * k), g.reshape(m * k, k * p)


def estimate(data: TimeSeriesData, order: int) -> VarModel:
    """Least-squares VAR fit of the demeaned samples.

    The fit is a tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012):
    R of [regressors | response] is carried over the row chunks of the
    lagged design (``_design_chunks``), so memory beyond the samples grows
    with neither n nor the order. With R = [[R_xx, R_xy], [0, R_yy]], the
    coefficients solve R_xx B = R_xy, and the residual covariance is
    R_yy^T R_yy / (n - order), denominator the number of regression rows,
    which keeps it positive semi-definite by construction. The regressors
    count as rank deficient where ``lstsq(rcond=None)`` would find them so:
    a singular value of R_xx counts when it exceeds
    eps * max(n - order, K order) times the largest.

    Raises
    ------
    EstimationError
        If there are too few samples (``_require_rows``) or the regressor
        matrix is rank deficient.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    n, k = data.values.shape
    _require_rows(n, k, order, "order", f"to fit order {order}")
    width = k * order
    mean = data.values.mean(axis=0)
    r = np.zeros((0, width + k))
    for chunk in _design_chunks(data.values, order, np.tile(mean, (order + 1, 1))):
        r = np.linalg.qr(np.vstack([r, chunk]), mode="r")
    r_yy = r[width:, width:]
    sigma = r_yy.T @ r_yy / (n - order)
    if order == 0:
        return VarModel(np.zeros((0, k, k)), sigma)
    singular = np.linalg.svd(r[:width, :width], compute_uv=False)
    rank = int(np.sum(singular > np.finfo(float).eps * max(n - order, width) * singular[0]))
    if rank < width:
        raise EstimationError(
            f"rank-deficient regressor matrix: rank {rank} < {width} "
            f"({k} channels x {order} lags); the data do not excite every direction"
        )
    solution = np.linalg.solve(r[:width, :width], r[:width, width:])
    coeffs = solution.reshape(order, k, k).transpose(0, 2, 1)
    return VarModel(coeffs, sigma)


def _require_rows(n: int, k: int, order: int, symbol: str, task: str) -> None:
    """The sample rule of both fits: order o regresses n - o rows on K o lags, so n - o >= K o + 1 + K.

    The mean takes one degree of freedom, as an intercept would (Lütkepohl
    2005, ch. 3), and a K x K residual covariance of full rank needs K more.
    """
    rows, regressors = max(n - order, 0), k * order + 1
    if rows < regressors + k:
        raise EstimationError(f"need more than K * {symbol} + K + {symbol} = {regressors + k + order - 1} samples {task}, got {n}: regression "
                              f"rows {rows}, fewer than regressors {regressors} (K * {symbol} lags and the mean) plus K = {k} for the residual covariance")


#: Bytes of one row chunk of the lagged design, which has at least as many
#: rows as columns, or of samples for ``_lag_gram``. OpenBLAS keeps the
#: level-2 steps of a QR on one thread up to about 9,000 entries; chunks
#: above that measured slower per row.
_CHUNK_BYTES = 2**16


def _design_chunks(values: np.ndarray, order: int, means: np.ndarray) -> Iterator[np.ndarray]:
    """The lagged design [x(t - 1) .. x(t - order) | x(t)], t = order .. n - 1, in row chunks.

    Each block of K columns is centred by its row of means, (order + 1, K),
    as the chunk is cut. The chunks are views of one buffer that the next
    chunk overwrites, so a caller folds each one in before taking the next.
    """
    n, k = values.shape
    width = k * (order + 1)
    rows = min(max(width, _CHUNK_BYTES // (8 * width)), n - order)
    # windows[s, lag] is x(s + order - lag): each row of the design, response first
    windows = np.lib.stride_tricks.sliding_window_view(values, order + 1, axis=0).transpose(0, 2, 1)[:, ::-1]
    buffer = np.empty((rows, order + 1, k))
    for start in range(0, n - order, rows):
        stop = min(start + rows, n - order)
        chunk = buffer[: stop - start]
        np.subtract(windows[start:stop, 1:], means[:order], out=chunk[:, :order])
        np.subtract(windows[start:stop, 0], means[order], out=chunk[:, order])
        yield chunk.reshape(stop - start, width)


def select_order(data: TimeSeriesData, p_max: int, criterion: str = "bic") -> int:
    """Pick the lag order in 1 .. p_max minimizing an information criterion.

    Every candidate order is fitted on the same effective sample (the first
    p_max rows are held back for all of them) so criterion values are
    comparable. The criterion is log det(sigma_hat) plus a penalty of
    2 K^2 p / n for "aic" or K^2 p log(n) / n for "bic".

    Each candidate is fitted exactly as ``estimate`` fits the samples from
    row p_max - order on, demeaned by their own mean, but all of them are
    read off one Gram matrix of the p_max-lag design (Lütkepohl 2005,
    §4.3), assembled from its p_max + 1 lag products and its edge rows
    (``_lag_gram``): no array of n rows is built, and each row costs
    K**2 (p_max + 1) products, not (K (p_max + 1))**2. A candidate whose
    regressor block the Gram route does not find clearly full rank is
    fitted by ``estimate`` itself, which raises its own errors. Every
    candidate regresses on the same n - p_max rows, so samples too few for
    order p_max (``_require_rows``) are refused up front.
    """
    crit = str(criterion).lower()
    if crit not in ("aic", "bic"):
        raise DomainError(f"unknown criterion {criterion!r}, expected 'aic' or 'bic'")
    if p_max < 1:
        raise DomainError(f"p_max must be >= 1, got {p_max}")
    _require_rows(data.n_samples, data.K, p_max, "p_max", "to select an order")
    values = _criterion_values(data.values, p_max, crit)
    if not np.min(values) < np.inf:
        raise EstimationError("no candidate order produced a usable residual covariance")
    return int(np.argmin(values)) + 1


def _criterion_values(x: np.ndarray, p_max: int, crit: str) -> np.ndarray:
    """The criterion of orders 1 .. p_max, inf for an order whose residual
    covariance is not positive definite.

    ``_lag_gram`` gives the Gram of the p_max-lag design and its column
    sums, on the samples less their column mean, so that an offset common
    to every sample cancels before anything is summed; one rank-one term
    moves each block of columns to its own mean over the design's rows. A
    window's sum is the response's sum plus the rows before the design's.
    ``select_order`` has checked the samples (``_require_rows``).
    """
    n, k = x.shape
    n_eff = n - p_max
    centre = x.mean(axis=0)
    gram, sums = _lag_gram(x, p_max, centre)
    means = sums / n_eff
    gram -= n_eff * np.outer(means, means)
    head = x[:p_max] - centre
    values = np.full(p_max, np.inf)
    for order in range(1, p_max + 1):
        window = x[p_max - order :]
        fit = _gram_slogdet(gram, means, (sums[-k:] + head[p_max - order :].sum(axis=0)) / len(window), order, n_eff)
        if fit is None:
            fit = np.linalg.slogdet(estimate(TimeSeriesData._adopt(window), order).sigma)
        sign, logdet = fit
        if sign > 0:
            penalty = 2.0 if crit == "aic" else float(np.log(n_eff))
            values[order - 1] = logdet + penalty * (k * k * order) / n_eff
    return values


def _lag_gram(x: np.ndarray, p_max: int, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram and the column sums of the design [y(t - 1) .. y(t - p_max) | y(t)], t = p_max .. n - 1, with y = x - centre.

    The Gram is block Toeplitz but for its edges (Lütkepohl 2005, §4.3):
    for lags a >= b, block (a, b) is the lag product L(a - b), the sum of
    y(t - a + b) y(t)^T over the design's rows, plus the first b rows of
    the design and less the b rows that would follow its last. The p_max + 1
    lag products of y and [y | 1], whose last column is the sum of y(t - d),
    are summed over row chunks of ``_CHUNK_BYTES`` of samples, centred as
    each chunk is copied into one reused buffer, so memory beyond the
    samples grows with neither n nor p_max.
    """
    n, k = x.shape
    rows = max(1, _CHUNK_BYTES // (8 * k))
    products = np.zeros((p_max + 1, k, k + 1))
    buffer = np.ones((rows + p_max, k + 1))
    for start in range(p_max, n, rows):
        stop = min(start + rows, n)
        chunk = buffer[: stop - start + p_max]
        np.subtract(x[start - p_max : stop], centre, out=chunk[:, :k])
        # window w holds y(t - p_max + w) for the chunk's t: newest first, it is y(t - d) for d = 0 .. p_max
        windows = np.lib.stride_tricks.sliding_window_view(chunk[:, :k], stop - start, axis=0)[::-1]
        products += np.matmul(windows, chunk[p_max:])
    lags = np.r_[1 : p_max + 1, 0]
    sums = products[lags, :, k].ravel()
    products = products[:, :, :k]
    d = lags[:, None] - lags[None, :]
    blocks = np.where((d >= 0)[:, :, None, None], products[np.abs(d)], products[np.abs(d)].transpose(0, 1, 3, 2))
    gram = blocks.transpose(0, 2, 1, 3).reshape(k * (p_max + 1), k * (p_max + 1))
    # the p_max design rows at each edge, an entry of lag l kept in row r < l: t = p_max + r at the head, n + r past the end
    r = np.arange(p_max)[:, None]
    head, tail = (np.where((r < lags)[:, :, None], x[np.clip(first + r - lags, 0, n - 1)] - centre, 0.0).reshape(p_max, -1) for first in (p_max, n))
    gram += head.T @ head
    gram -= tail.T @ tail
    return gram, sums


#: Smallest accepted ratio of extreme singular values of the regressor
#: block's Cholesky factor. ``estimate`` finds rank deficiency only where a
#: singular value of its QR factor is below eps * max(n, K p) times the
#: largest, about 4e-12 at n = 20000; the Gram route resolves the ratio to
#: about sqrt(eps), so it refuses well before that.
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
