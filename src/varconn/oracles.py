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
        zeros = np.zeros(omega.size, dtype=complex)
        out: dict[tuple[str, int, int], np.ndarray] = {}
        if self.name == "two_var_alpha":
            alpha = self.params["alpha"]
            root = np.sqrt(1.0 + alpha**2)
            out[("ipdc", 1, 0)] = -alpha * phase / root
            out[("idtf", 1, 0)] = alpha * phase / root
            out[("ipdc", 0, 1)] = zeros
            out[("idtf", 0, 1)] = zeros
        else:
            alpha, beta = self.params["alpha"], self.params["beta"]
            chain = np.sqrt(1.0 + beta**2 + (alpha * beta) ** 2)
            out[("ipdc", 1, 0)] = -alpha * phase / np.sqrt(1.0 + alpha**2)
            out[("ipdc", 2, 1)] = -beta * phase / np.sqrt(1.0 + beta**2)
            out[("ipdc", 2, 0)] = zeros
            out[("idtf", 1, 0)] = alpha * phase / np.sqrt(1.0 + alpha**2)
            out[("idtf", 2, 1)] = beta * phase / chain
            out[("idtf", 2, 0)] = alpha * beta * np.exp(-2j * omega) / chain
            for i, j in ((0, 1), (0, 2), (1, 2)):
                out[("ipdc", i, j)] = zeros
                out[("idtf", i, j)] = zeros
        return out


def fixture(name: str, **params) -> Fixture:
    """Build a named fixture model.

    "two_var_alpha" (parameter alpha) couples channel 0 into channel 1 at
    lag 1 with identity innovation covariance. "three_var_alpha_beta"
    (parameters alpha, beta) chains 0 -> 1 -> 2 the same way.
    """
    if name == "two_var_alpha":
        alpha = float(params.pop("alpha"))
        if params:
            raise DomainError(f"unexpected parameters {sorted(params)} for {name}")
        model = VarModel([[[0.0, 0.0], [alpha, 0.0]]], np.eye(2))
        return Fixture(name, {"alpha": alpha}, model)
    if name == "three_var_alpha_beta":
        alpha = float(params.pop("alpha"))
        beta = float(params.pop("beta"))
        if params:
            raise DomainError(f"unexpected parameters {sorted(params)} for {name}")
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, 1, 0] = alpha
        coeffs[0, 2, 1] = beta
        model = VarModel(coeffs, np.eye(3))
        return Fixture(name, {"alpha": alpha, "beta": beta}, model)
    raise DomainError(f"unknown fixture {name!r}")


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


def partialized_process_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None, cross: np.ndarray | None = None) -> np.ndarray:
    """Coherence between innovation i and the partialized process of j.

    Assembled by pushing the model equation for w_i through the
    partialized cross-spectra. The sum over all channels is kept in full;
    nothing is cancelled analytically, so agreement with iPDC is an
    end-to-end check rather than a reimplementation. ``cross`` is as in
    :func:`orthogonality_residual`.
    """
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    if cross is None:
        cross = partialized_cross_spectra(spectra, j)
    numerator = np.einsum("fl,fl->f", spectra.a_bar[:, i, :], cross)
    partial_spectrum = cross[:, j].real
    return numerator / np.sqrt(model.sigma[i, i] * partial_spectrum)


def partialized_innovation_covariances(sigma: np.ndarray, j: int) -> np.ndarray:
    """Covariance of each innovation with the partialized innovation of j, by a Schur solve on sigma."""
    others = [l for l in range(sigma.shape[0]) if l != j]
    if not others:
        return sigma[:, j].copy()
    return sigma[:, j] - sigma[:, others] @ np.linalg.solve(sigma[np.ix_(others, others)], sigma[others, j])


def partialized_innovation_coherence(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None, covariances: np.ndarray | None = None) -> np.ndarray:
    """Coherence between signal i and the partialized innovation of j.

    The covariance between each innovation and the partialized innovation
    is formed explicitly from sigma, pushed through the transfer matrix for
    the cross-spectrum, and normalized by the autospectrum read off S.
    ``covariances`` takes ``partialized_innovation_covariances(model.sigma, j)``
    when the caller holds it.
    """
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    if covariances is None:
        covariances = partialized_innovation_covariances(model.sigma, j)
    rho = covariances[j]
    cross = np.einsum("fl,l->f", spectra.h_bar[:, i, :], covariances)
    auto = spectra.s[:, i, i].real
    return cross / np.sqrt(auto * rho)


def transfer_function_deviation(model: VarModel, grid: FrequencyGrid, i: int, j: int, spectra: SpectralSet | None = None, cross: np.ndarray | None = None) -> float:
    """Max deviation of A_bar_ij from its partialized cross-spectral ratio.

    The entry must equal S_{w_i eta_j} / S_{eta_j eta_j} (coupling each
    innovation to each partialized process); the return value is the
    largest absolute difference over the grid. ``cross`` is as in
    :func:`orthogonality_residual`.
    """
    if spectra is None:
        spectra = evaluate_spectra(model, grid)
    if cross is None:
        cross = partialized_cross_spectra(spectra, j)
    numerator = np.einsum("fl,fl->f", spectra.a_bar[:, i, :], cross)
    ratio = numerator / cross[:, j].real
    return float(np.max(np.abs(spectra.a_bar[:, i, j] - ratio)))


def orthogonality_residual(model: VarModel, grid: FrequencyGrid, j: int, spectra: SpectralSet | None = None, cross: np.ndarray | None = None) -> float:
    """Largest cross-spectrum between the partialized process of j and any
    other channel, over channels and frequencies. Zero in exact arithmetic.

    ``cross`` takes ``partialized_cross_spectra(spectra, j)`` when the
    caller already holds it, so it is not solved for twice.
    """
    if cross is None:
        if spectra is None:
            spectra = evaluate_spectra(model, grid)
        cross = partialized_cross_spectra(spectra, j)
    others = [l for l in range(model.K) if l != j]
    if not others:
        return 0.0
    return float(np.max(np.abs(cross[:, others])))


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
    """
    if n_models < 1 or n_freq < 2:
        raise DomainError("need n_models >= 1 and n_freq >= 2")
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.default(n_freq)
    names = (
        "fixture closed forms",
        "iPDC equals innovation/partialized-process coherence",
        "iDTF equals signal/partialized-innovation coherence",
        "partial spectrum: block elimination vs quadratic form",
        "A_bar equals partialized cross-spectral ratio",
        "partialized-process orthogonality",
        "inverse reconstruction: A_bar H_bar = I and S S^-1 = I",
    )
    bounds = {name: 1e-10 for name in names}
    bounds["fixture closed forms"] = 1e-12
    worst = {name: 0.0 for name in names}

    def record(name: str, *deviations: float) -> None:
        worst[name] = max(worst[name], *deviations)

    fixtures = (
        fixture("two_var_alpha", alpha=0.5),
        fixture("three_var_alpha_beta", alpha=0.5, beta=1.0),
    )
    for fx in fixtures:
        spectra = evaluate_spectra(fx.model, grid)
        computed = {"ipdc": ipdc(spectra, fx.model).values, "idtf": idtf(spectra, fx.model).values}
        for (kind, i, j), expected in fx.expected(grid).items():
            record("fixture closed forms", float(np.max(np.abs(computed[kind][:, i, j] - expected))))

    for index in range(n_models):
        k = 2 + index % 4
        model = random_stable_model(rng, k)
        spectra = evaluate_spectra(model, grid)
        # the partial spectra iPDC divides by, 1 / [S^-1]_jj
        partial_spectra = 1.0 / np.diagonal(spectra.s_inv, axis1=1, axis2=2).real
        ipdc_values = ipdc(spectra, model).values
        idtf_values = idtf(spectra, model).values
        eye = np.eye(k)
        record(
            "inverse reconstruction: A_bar H_bar = I and S S^-1 = I",
            float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))),
            float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))),
        )
        for j in range(k):
            cross = partialized_cross_spectra(spectra, j)
            covariances = partialized_innovation_covariances(model.sigma, j)
            record("partial spectrum: block elimination vs quadratic form", float(np.max(np.abs(cross[:, j].real - partial_spectra[:, j]))))
            record("partialized-process orthogonality", orthogonality_residual(model, grid, j, cross=cross))
            for i in range(k):
                reference = partialized_process_coherence(model, grid, i, j, spectra=spectra, cross=cross)
                record("iPDC equals innovation/partialized-process coherence", float(np.max(np.abs(reference - ipdc_values[:, i, j]))))
                reference = partialized_innovation_coherence(model, grid, i, j, spectra=spectra, covariances=covariances)
                record("iDTF equals signal/partialized-innovation coherence", float(np.max(np.abs(reference - idtf_values[:, i, j]))))
                record("A_bar equals partialized cross-spectral ratio", transfer_function_deviation(model, grid, i, j, spectra=spectra, cross=cross))

    checks = tuple(CheckResult(name, worst[name], bounds[name]) for name in names)
    return VerificationReport(checks)
