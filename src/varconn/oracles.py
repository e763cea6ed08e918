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
from .var_model import VarModel, validate


@dataclass(frozen=True)
class Fixture:
    """A named model with closed-form measure entries."""

    name: str
    params: dict
    model: VarModel

    def expected(self, grid: FrequencyGrid) -> dict[tuple[str, int, int], np.ndarray]:
        """Closed-form off-diagonal measure values on the grid.

        Keys are (kind, target, source) with kind "ipdc" or "idtf".
        """
        omega = grid.points
        phase = np.exp(-1j * omega)
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
            out[("idtf", 2, 0)] = alpha * beta * np.exp(-2j * omega) / chain
        return out


def fixture(name: str, **params) -> Fixture:
    """Build a named fixture model.

    "two_var_alpha" (parameter alpha) couples channel 0 into channel 1 at
    lag 1 with identity innovation covariance. "three_var_alpha_beta"
    (parameters alpha, beta) chains 0 -> 1 -> 2 the same way.
    """
    names = {"two_var_alpha": ("alpha",), "three_var_alpha_beta": ("alpha", "beta")}.get(name)
    if names is None:
        raise DomainError(f"unknown fixture {name!r}")
    values = {key: float(params.pop(key)) for key in names}
    if params:
        raise DomainError(f"unexpected parameters {sorted(params)} for {name}")
    k = len(names) + 1
    coeffs = np.zeros((1, k, k))
    for c, value in enumerate(values.values()):
        coeffs[0, c + 1, c] = value
    return Fixture(name, values, VarModel(coeffs, np.eye(k)))


def random_stable_model(rng, k: int, p: int | None = None, max_radius: float = 0.9, sigma_kind: str = "full") -> VarModel:
    """Rejection-sample a stable VAR(p) with a well-conditioned covariance.

    sigma_kind selects the innovation covariance: "full" (random SPD),
    "diagonal" (random positive diagonal) or "identity".
    """
    if p is None:
        p = int(rng.integers(1, 4))
    scale = 0.4 / np.sqrt(k * p)
    coeffs = None
    for _ in range(1000):
        candidate = rng.normal(0.0, scale, size=(p, k, k))
        if validate(VarModel(candidate, np.eye(k))).spectral_radius < max_radius:
            coeffs = candidate
            break
        scale *= 0.95
    if coeffs is None:
        raise NumericalError("failed to sample a stable model")
    if sigma_kind == "identity":
        sigma = np.eye(k)
    elif sigma_kind == "diagonal":
        sigma = np.diag(rng.uniform(0.3, 3.0, size=k))
    elif sigma_kind == "full":
        factor = rng.standard_normal((k, k))
        sigma = factor @ factor.T + 0.1 * np.eye(k)
    else:
        raise DomainError(f"unknown sigma_kind {sigma_kind!r}")
    return VarModel(coeffs, sigma)


def partialized_cross_spectra(spectra: SpectralSet, j: int) -> np.ndarray:
    """Cross-spectra between every channel and the partialized process of j.

    Column j of S minus the projection through the complement block. Entry
    j is the partial spectrum as a Schur complement of S, the route
    independent of the pipeline's 1 / [S^-1]_jj; every other entry
    vanishes in exact arithmetic because the deduction removes precisely
    the part of x_j predictable from the other channels.
    """
    s = spectra.s
    k = spectra.K
    others = [l for l in range(k) if l != j]
    column = s[:, :, j]
    if not others:
        return column.copy()
    block = s[:, others, :][:, :, others]
    projection = np.linalg.solve(block, s[:, others, j][:, :, None])[:, :, 0]
    return column - np.einsum("flm,fm->fl", s[:, :, others], projection)


def _process_columns(model: VarModel, spectra: SpectralSet, cross: np.ndarray, sources: list) -> tuple[np.ndarray, np.ndarray]:
    """The innovation/partialized-process coherences and |A_bar_ij - S_{w_i eta_j} / S_{eta_j eta_j}|.

    Column forms like this one evaluate every target i (axis 1) of each
    source at once, where ``cross[..., c]`` and ``covariances[:, c]`` belong
    to source ``sources[c]``. The per-pair oracles are slices of them.
    """
    numerator = np.einsum("fil,flc->fic", spectra.a_bar, cross)
    schur = cross[:, sources, range(len(sources))].real[:, None, :]
    return numerator / np.sqrt(np.diagonal(model.sigma)[:, None] * schur), np.abs(spectra.a_bar[:, :, sources] - numerator / schur)


def _innovation_columns(spectra: SpectralSet, covariances: np.ndarray, sources: list) -> np.ndarray:
    """The signal/partialized-innovation coherences."""
    auto = np.diagonal(spectra.s, axis1=1, axis2=2).real[:, :, None]
    return np.einsum("fil,lc->fic", spectra.h_bar, covariances) / np.sqrt(auto * covariances[sources, range(len(sources))])


def _orthogonality(cross: np.ndarray, sources: list) -> float:
    """The largest |cross| outside each source's own channel, 0.0 when there is none."""
    return float(np.max(np.abs(cross[:, np.arange(cross.shape[1])[:, None] != sources]), initial=0.0))


def partialized_process_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None) -> np.ndarray:
    """Coherence between innovation i and the partialized process of j.

    Assembled by pushing the model equation for w_i through the
    partialized cross-spectra. The sum over all channels is kept in full;
    nothing is cancelled analytically, so agreement with iPDC is an
    end-to-end check rather than a reimplementation.
    """
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    return _process_columns(model, spectra, partialized_cross_spectra(spectra, j)[:, :, None], [j])[0][:, i, 0]


def partialized_innovation_covariances(sigma: np.ndarray, j: int) -> np.ndarray:
    """Covariance of each innovation with the partialized innovation of j, by a Schur solve on sigma."""
    others = [l for l in range(sigma.shape[0]) if l != j]
    if not others:
        return sigma[:, j].copy()
    return sigma[:, j] - sigma[:, others] @ np.linalg.solve(sigma[np.ix_(others, others)], sigma[others, j])


def partialized_innovation_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None) -> np.ndarray:
    """Coherence between signal i and the partialized innovation of j.

    The covariance between each innovation and the partialized innovation
    is formed explicitly from sigma, pushed through the transfer matrix for
    the cross-spectrum, and normalized by the autospectrum read off S.
    """
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
    spectrum, the partialized ratio recovering A_bar, the orthogonality of
    partialized processes, and the two inverse reconstructions. The random
    population cycles through K = 2, 3, 4, 5 channels.

    A NumericalError raised while computing a check's quantity is that
    check's failure, recorded as deviation inf: ``ipdc`` and ``idtf`` feed
    the two coherence identities, ``evaluate_spectra`` the inverse
    reconstruction (and, for a fixture, every quantity feeds the closed
    forms). Checks that need a refused quantity skip that model. A NaN
    deviation is recorded as inf too, and so is a check that no model
    reached.
    """
    if n_models < 1 or n_freq < 2:
        raise DomainError("need n_models >= 1 and n_freq >= 2")
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.default(n_freq)
    fixture_check = "fixture closed forms"
    ipdc_check = "iPDC equals innovation/partialized-process coherence"
    idtf_check = "iDTF equals signal/partialized-innovation coherence"
    inverse_check = "inverse reconstruction: A_bar H_bar = I and S S^-1 = I"
    names = (
        fixture_check,
        ipdc_check,
        idtf_check,
        "partial spectrum: block elimination vs quadratic form",
        "A_bar equals partialized cross-spectral ratio",
        "partialized-process orthogonality",
        inverse_check,
    )
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
        fixture("two_var_alpha", alpha=0.5),
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
        # the partial spectra iPDC divides by, 1 / [S^-1]_jj
        partial_spectra = 1.0 / np.diagonal(spectra.s_inv, axis1=1, axis2=2).real
        ipdc_result = attempt(ipdc_check, ipdc, spectra)
        idtf_result = attempt(idtf_check, idtf, spectra)
        eye = np.eye(k)
        record(
            inverse_check,
            float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))),
            float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))),
        )
        # every pair at once, from one Schur solve per source
        sources = list(range(k))
        cross = np.stack([partialized_cross_spectra(spectra, j) for j in sources], axis=-1)
        covariances = np.stack([partialized_innovation_covariances(model.sigma, j) for j in sources], axis=-1)
        process, ratio = _process_columns(model, spectra, cross, sources)
        record("partial spectrum: block elimination vs quadratic form", float(np.max(np.abs(np.diagonal(cross, axis1=1, axis2=2).real - partial_spectra))))
        record("partialized-process orthogonality", _orthogonality(cross, sources))
        if ipdc_result is not None:
            record(ipdc_check, float(np.max(np.abs(process - ipdc_result.values))))
        if idtf_result is not None:
            record(idtf_check, float(np.max(np.abs(_innovation_columns(spectra, covariances, sources) - idtf_result.values))))
        record("A_bar equals partialized cross-spectral ratio", float(np.max(ratio)))

    checks = tuple(CheckResult(name, worst[name] if reached[name] else math.inf, bounds[name]) for name in names)
    return VerificationReport(checks)
