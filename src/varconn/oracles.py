"""Independent cross-checks for the measure pipeline.

The information measures are advertised as exact coherences between
partialized processes. This module recomputes those coherences from first
principles, by explicit cross-spectral projections pushed through the model
equations, sharing no normalization formula with the measure code. It also
carries two small fixture models whose measures are known in closed form,
and a verification driver that sweeps the identities over a random model
population. The test suite and the `verify` CLI subcommand are built on it.

All index arguments are zero-based (target i, source j).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .measures import idtf, ipdc
from .spectral import FrequencyGrid, SpectralSet, evaluate_spectra
from .var_model import VarModel, _spectral_radius


@dataclass(frozen=True)
class Fixture:
    """A named model with closed-form measure entries."""

    name: str
    params: dict
    model: VarModel

    def expected(self, grid: FrequencyGrid) -> dict[tuple[str, int, int], np.ndarray]:
        """Closed-form off-diagonal measure values on the grid.

        Keys are (kind, target, source) with kind "ipdc" or "idtf". Every
        coupling acts at lag L = p, so each link carries exp(-j omega L).
        """
        omega, lag = grid.points, self.model.p
        phase = np.exp(-1j * omega * lag)
        k = self.model.K
        off_diagonal = [(kind, i, j) for kind in ("ipdc", "idtf") for i in range(k) for j in range(k) if i != j]
        out = dict.fromkeys(off_diagonal, np.zeros(omega.size, dtype=complex))
        alpha = self.params["alpha"]
        out[("ipdc", 1, 0)] = -alpha * phase / np.sqrt(1.0 + alpha**2)
        out[("idtf", 1, 0)] = alpha * phase / np.sqrt(1.0 + alpha**2)
        if self.name == "three_var_alpha_beta":
            beta = self.params["beta"]
            chain = np.sqrt(1.0 + beta**2 + (alpha * beta) ** 2)
            out[("ipdc", 2, 1)] = -beta * phase / np.sqrt(1.0 + beta**2)
            out[("idtf", 2, 1)] = beta * phase / chain
            out[("idtf", 2, 0)] = alpha * beta * np.exp(-2j * omega * lag) / chain
        return out


def fixture(name: str, lag: int = 1, **params) -> Fixture:
    """Build a named fixture model.

    "two_var_alpha" (parameter alpha) couples channel 0 into channel 1 at
    lag `lag` only, with zero lag matrices before it and identity
    innovation covariance. "three_var_alpha_beta" (parameters alpha, beta)
    chains 0 -> 1 -> 2 the same way.
    """
    if not (isinstance(lag, int) and lag >= 1):
        raise DomainError(f"lag must be an integer >= 1, got {lag!r}")
    names = {"two_var_alpha": ("alpha",), "three_var_alpha_beta": ("alpha", "beta")}.get(name)
    if names is None:
        raise DomainError(f"unknown fixture {name!r}")
    missing = [key for key in names if key not in params]
    if missing:
        raise DomainError(f"missing parameters {missing} for {name}")
    values = {key: float(params.pop(key)) for key in names}
    if params:
        raise DomainError(f"unexpected parameters {sorted(params)} for {name}")
    k = len(names) + 1
    coeffs = np.zeros((lag, k, k))
    for c, value in enumerate(values.values()):
        coeffs[-1, c + 1, c] = value
    return Fixture(name, values, VarModel(coeffs, np.eye(k)))


def random_stable_model(rng, k: int, p: int | None = None, max_radius: float = 0.9, sigma_kind: str = "full") -> VarModel:
    """Rejection-sample a stable VAR(p) with a well-conditioned covariance.

    sigma_kind selects the innovation covariance: "full" (random SPD),
    "diagonal" (random positive diagonal) or "identity"; another is refused
    before anything is drawn from rng.
    """
    if sigma_kind not in ("full", "diagonal", "identity"):
        raise DomainError(f"unknown sigma_kind {sigma_kind!r}")
    if p is None:
        p = int(rng.integers(1, 4))
    scale = 0.4 / np.sqrt(k * max(p, 1))
    coeffs = None
    for _ in range(1000):
        candidate = rng.normal(0.0, scale, size=(p, k, k))
        if _spectral_radius(candidate) < max_radius:
            coeffs = candidate
            break
        scale *= 0.95
    if coeffs is None:
        raise NumericalError("failed to sample a stable model")
    if sigma_kind == "identity":
        sigma = np.eye(k)
    elif sigma_kind == "diagonal":
        sigma = np.diag(rng.uniform(0.3, 3.0, size=k))
    else:
        factor = rng.standard_normal((k, k))
        sigma = factor @ factor.T + 0.1 * np.eye(k)
    return VarModel(coeffs, sigma)


def partialized_cross_spectra(spectra: SpectralSet, j: int) -> np.ndarray:
    """Cross-spectra between every channel and the partialized process of j.

    Column j of S minus the projection through the complement block. Entry
    j is the partial spectrum as a Schur complement of S, the route
    independent of the pipeline's 1 / [S^-1]_jj; every other entry
    vanishes in exact arithmetic because the deduction removes precisely
    the part of x_j predictable from the other channels.
    """
    k = _channels(spectra.K, j)
    s = spectra.s
    others = [l for l in range(k) if l != j]
    column = s[:, :, j]
    if not others:
        return column.copy()
    block = s[:, others, :][:, :, others]
    projection = np.linalg.solve(block, s[:, others, j][:, :, None])[:, :, 0]
    return column - np.einsum("flm,fm->fl", s[:, :, others], projection)


def _channels(k: int, *indices: int) -> int:
    """K, after a DomainError for an index outside 0..K-1."""
    for index in indices:
        if not 0 <= index < k:
            raise DomainError(f"channel index {index} is outside 0..{k - 1} (K = {k})")
    return k


def _inverse_spectrum(spectra: SpectralSet) -> np.ndarray:
    """S^-1 = A_bar^H sigma^-1 A_bar in full, complex (n, K, K): the inverse the pipeline never forms."""
    return np.conjugate(spectra.a_bar).swapaxes(1, 2) @ spectra.sigma_inv @ spectra.a_bar


def _process_columns(model: VarModel, spectra: SpectralSet, cross: np.ndarray, sources: list) -> tuple[np.ndarray, np.ndarray]:
    """The innovation/partialized-process coherences and |A_bar_ij - S_{w_i eta_j} / S_{eta_j eta_j}|.

    Column forms like this one evaluate every target i (axis 1) of each
    source at once, where ``cross[..., c]`` and ``covariances[:, c]`` belong
    to source ``sources[c]``. The per-pair oracles are slices of them.
    """
    numerator = np.einsum("fil,flc->fic", spectra.a_bar, cross)
    schur = cross[:, sources, range(len(sources))].real[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # a partial spectrum cancelled to <= 0 gives NaN or inf
        return numerator / np.sqrt(np.diagonal(model.sigma)[:, None] * schur), np.abs(spectra.a_bar[:, :, sources] - numerator / schur)


def _innovation_columns(spectra: SpectralSet, covariances: np.ndarray, sources: list) -> np.ndarray:
    """The signal/partialized-innovation coherences."""
    auto = np.diagonal(spectra.s, axis1=1, axis2=2).real[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # so does a partialized innovation variance
        return np.einsum("fil,lc->fic", spectra.h_bar, covariances) / np.sqrt(auto * covariances[sources, range(len(sources))])


def _orthogonality(cross: np.ndarray, sources: list) -> float:
    """The largest |cross| outside each source's own channel, 0.0 when there is none."""
    return float(np.max(np.abs(cross[:, np.arange(cross.shape[1])[:, None] != sources]), initial=0.0))


def partialized_process_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None) -> np.ndarray:
    """Coherence between innovation i and the partialized process of j.

    Assembled by pushing the model equation for w_i through the
    partialized cross-spectra. The sum over all channels is kept in full;
    nothing is cancelled analytically, so agreement with iPDC is an
    end-to-end check rather than a reimplementation. Where the Schur
    partial spectrum of j cancels to <= 0 in rounding (near a unit root,
    with a nearly singular sigma), the coherence is NaN or inf there and
    no warning is raised; ``run_verification`` records that as inf.
    """
    _channels(model.K, i, j)
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    return _process_columns(model, spectra, partialized_cross_spectra(spectra, j)[:, :, None], [j])[0][:, i, 0]


def partialized_innovation_covariances(sigma: np.ndarray, j: int) -> np.ndarray:
    """Covariance of each innovation with the partialized innovation of j, by a Schur solve on sigma."""
    others = [l for l in range(_channels(sigma.shape[0], j)) if l != j]
    if not others:
        return sigma[:, j].copy()
    return sigma[:, j] - sigma[:, others] @ np.linalg.solve(sigma[np.ix_(others, others)], sigma[others, j])


def partialized_innovation_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None) -> np.ndarray:
    """Coherence between signal i and the partialized innovation of j.

    The covariance between each innovation and the partialized innovation
    is formed explicitly from sigma, pushed through the transfer matrix for
    the cross-spectrum, and normalized by the autospectrum read off S.
    Where the partialized innovation variance of j cancels to <= 0 in
    rounding, the coherence is NaN or inf, as above, without a warning.
    """
    _channels(model.K, i, j)
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    return _innovation_columns(spectra, partialized_innovation_covariances(model.sigma, j)[:, None], [j])[:, i, 0]


@dataclass(frozen=True)
class CheckResult:
    """One verification check: its worst deviation against its bound."""

    name: str
    max_deviation: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.bound


@dataclass(frozen=True)
class VerificationReport:
    """Bundle of check results with a formatted summary."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = []
        for check in self.checks:
            status = "ok  " if check.passed else "FAIL"
            out.append(f"{status} {check.name}: max deviation {check.max_deviation:.3e} (bound {check.bound:.0e})")
        return out


def run_verification(seed: int = 0, n_models: int = 50, n_freq: int = 128) -> VerificationReport:
    """Sweep every identity over fixtures and a random model population.

    Checks, in order: the fixture closed forms, the two coherence
    identities behind iPDC and iDTF, the dual route to the partial
    spectrum (against 1 / q_j, q_j the iPDC normaliser of ``measure`` and
    ``mir``), the partialized ratio recovering A_bar, the orthogonality of
    partialized processes, and the two inverse reconstructions, with an
    S^-1 no command forms. The random population cycles through K = 2..5.

    A NumericalError raised while computing a check's quantity is that
    check's failure, recorded as deviation inf: ``ipdc`` and ``idtf`` feed
    the two coherence identities, the normaliser the partial spectrum,
    ``evaluate_spectra`` the inverse reconstruction (and, for a fixture,
    every quantity feeds the closed forms). Checks that need a refused
    quantity skip that model. A NaN deviation is recorded as inf too, and
    so is a check that no model reached.
    """
    if n_models < 1 or n_freq < 2:
        raise DomainError("need n_models >= 1 and n_freq >= 2")
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n_freq)
    fixture_check = "fixture closed forms"
    ipdc_check = "iPDC equals innovation/partialized-process coherence"
    idtf_check = "iDTF equals signal/partialized-innovation coherence"
    partial_check = "partial spectrum: block elimination vs quadratic form"
    ratio_check = "A_bar equals partialized cross-spectral ratio"
    orthogonality_check = "partialized-process orthogonality"
    inverse_check = "inverse reconstruction: A_bar H_bar = I and S S^-1 = I"
    names = (fixture_check, ipdc_check, idtf_check, partial_check, ratio_check, orthogonality_check, inverse_check)
    bounds = {name: 1e-10 for name in names}
    bounds[fixture_check] = 1e-12
    worst = {name: 0.0 for name in names}
    reached = {name: 0 for name in names}

    def record(name: str, *deviations: float) -> None:
        # max() drops a NaN that is not its first argument, so a NaN deviation is recorded as inf
        worst[name] = max(worst[name], *(math.inf if math.isnan(d) else d for d in deviations))
        reached[name] += 1

    def attempt(name: str, compute, *args):
        """compute(*args), or None after recording a refusal as deviation inf for check `name`."""
        try:
            return compute(*args)
        except NumericalError:
            record(name, math.inf)
            return None

    fixtures = (
        fixture("two_var_alpha", alpha=0.5, lag=2),  # p = 2: a wrong lag order of A_bar fails here
        fixture("three_var_alpha_beta", alpha=0.5, beta=1.0),
    )
    for fx in fixtures:
        spectra = attempt(fixture_check, evaluate_spectra, fx.model, grid)
        if spectra is None:
            continue
        computed = {"ipdc": attempt(fixture_check, ipdc, spectra), "idtf": attempt(fixture_check, idtf, spectra)}
        for (kind, i, j), expected in fx.expected(grid).items():
            if computed[kind] is not None:
                record(fixture_check, float(np.max(np.abs(computed[kind].values[:, i, j] - expected))))

    for index in range(n_models):
        k = 2 + index % 4
        model = random_stable_model(rng, k)
        spectra = attempt(inverse_check, evaluate_spectra, model, grid)
        if spectra is None:
            continue
        normaliser = attempt(partial_check, lambda: spectra.inverse_autospectra)  # 1 / the partial spectra
        ipdc_result = attempt(ipdc_check, ipdc, spectra)
        idtf_result = attempt(idtf_check, idtf, spectra)
        eye = np.eye(k)
        record(
            inverse_check,
            float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))),
            float(np.max(np.abs(spectra.s @ _inverse_spectrum(spectra) - eye))),
        )
        # every pair at once, from one Schur solve per source
        sources = list(range(k))
        cross = np.stack([partialized_cross_spectra(spectra, j) for j in sources], axis=-1)
        covariances = np.stack([partialized_innovation_covariances(model.sigma, j) for j in sources], axis=-1)
        process, ratio = _process_columns(model, spectra, cross, sources)
        if normaliser is not None:
            record(partial_check, float(np.max(np.abs(np.diagonal(cross, axis1=1, axis2=2).real - 1.0 / normaliser))))
        record(orthogonality_check, _orthogonality(cross, sources))
        if ipdc_result is not None:
            record(ipdc_check, float(np.max(np.abs(process - ipdc_result.values))))
        if idtf_result is not None:
            record(idtf_check, float(np.max(np.abs(_innovation_columns(spectra, covariances, sources) - idtf_result.values))))
        record(ratio_check, float(np.max(ratio)))

    checks = tuple(CheckResult(name, worst[name] if reached[name] else math.inf, bounds[name]) for name in names)
    return VerificationReport(checks)
