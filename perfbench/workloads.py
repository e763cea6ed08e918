"""Workloads: seeded inputs, the CLI commands of one pass, and output checks.

Inputs come from the benchmark's own generator, not from
``varconn.oracles.random_stable_model``, so an edit to the program cannot
change what is measured. Checks run in the parent process, outside every
timed region, and return one list of problems per command of the pass.
The reference spectra of the checks are computed here from the model's
coefficients, never by ``varconn.spectral``, so an error in the spectral
core cannot cancel out of the comparison.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from varconn import oracles, var_model

#: Every generated model has companion spectral radius at most this.
MAX_RADIUS = 0.9

#: Tolerance of the oracle comparisons (relative for rates, absolute for coherences).
ORACLE_TOL = 1e-9


def companion_radius(coeffs: np.ndarray) -> float:
    p, k, _ = coeffs.shape
    companion = np.zeros((k * p, k * p))
    companion[:k] = np.hstack(list(coeffs))
    companion[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def stable_model(rng, k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw coefficients until the model is stable, then a full SPD sigma."""
    scale = 0.4 / np.sqrt(k * p)
    for _ in range(1000):
        coeffs = rng.normal(0.0, scale, size=(p, k, k))
        if companion_radius(coeffs) <= MAX_RADIUS:
            break
        scale *= 0.95
    else:
        raise RuntimeError("no stable draw in 1000 tries")
    factor = rng.standard_normal((k, k))
    sigma = factor @ factor.T + 0.1 * np.eye(k)
    return coeffs, (sigma + sigma.T) / 2.0


def write_model(path: Path, coeffs: np.ndarray, sigma: np.ndarray) -> None:
    p, k, _ = coeffs.shape
    document = {"schema_version": 1, "K": k, "p": p, "coeffs": coeffs.tolist(), "sigma": sigma.tolist()}
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def reference_spectra(coeffs: np.ndarray, sigma: np.ndarray, nfreq: int) -> SimpleNamespace:
    """A_bar, H_bar and S on linspace(0, pi, nfreq), built lag by lag.

    A_bar(omega) = I - sum_r A_r exp(-i omega r), H_bar its inverse and
    S = H_bar sigma H_bar^H. The result carries the attributes the oracle
    routes read from a ``varconn.spectral.SpectralSet``.
    """
    p, k, _ = coeffs.shape
    omega = np.linspace(0.0, np.pi, nfreq)
    a_bar = np.tile(np.eye(k, dtype=complex), (nfreq, 1, 1))
    for lag in range(1, p + 1):
        a_bar -= np.exp(-1j * omega * lag)[:, None, None] * coeffs[lag - 1]
    h_bar = np.linalg.inv(a_bar)
    s = h_bar @ sigma @ h_bar.conj().transpose(0, 2, 1)
    s_inv = a_bar.conj().transpose(0, 2, 1) @ np.linalg.inv(sigma) @ a_bar
    grid = SimpleNamespace(points=omega, n_points=nfreq)
    return SimpleNamespace(grid=grid, a_bar=a_bar, h_bar=h_bar, s=s, s_inv=s_inv, K=k)


def rate(profile: np.ndarray, omega: np.ndarray) -> float:
    """Trapezoid integral of -log(1 - |c|^2) / (2 pi), the same clip as the CLI."""
    squared = np.clip(np.abs(profile) ** 2, 0.0, 1.0 - 1e-12)
    return float(np.trapezoid(-np.log1p(-squared), omega) / (2.0 * np.pi))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One named workload, with a seeded model of K channels and lag order p.

    Subclasses set ``commands`` (argv lists for ``varconn.cli.main``) and
    ``outputs`` (files those commands write), and override
    ``check_outputs`` when there is more to check than exit statuses.
    ``inputs`` are the documents every pass loads during set-up; a workload
    with K = 0 has none. Digests of outputs already verified are
    remembered, so a byte-identical repeat costs one hash instead of a full
    check.
    """

    name = ""
    salt = 0
    k = p = 0

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = np.random.default_rng([seed, self.salt])
        self.inputs = []
        self.outputs = []
        self._verified = set()
        if self.k:
            self.coeffs, self.sigma = stable_model(self.rng, self.k, self.p)
            self.model_path = work / "model.json"
            write_model(self.model_path, self.coeffs, self.sigma)
            self.inputs.append(self.model_path)

    def check(self, pass_result: dict) -> list:
        """Problems of each command in the pass, outside the timed region."""
        problems = [[] for _ in self.commands]
        for index, command in enumerate(pass_result["commands"]):
            if command["status"] != 0:
                problems[index].append(f"{command['argv'][0]} exited with {command['status']}")
        if any(problems):
            return problems
        digest = "".join(_sha(path) for path in self.outputs)
        if digest in self._verified:
            return problems
        found = self.check_outputs()
        if not any(found):
            self._verified.add(digest)
        return found

    def check_outputs(self) -> list:
        return [[] for _ in self.commands]

    def seeded_pairs(self, count: int) -> list:
        return [divmod(int(x), self.k) for x in self.rng.choice(self.k * self.k, size=count, replace=False)]

    def oracle_profiles(self, nfreq: int, pairs: list) -> tuple:
        """The reference spectra, and (kind, i, j) -> iPDC/iDTF profile by the oracle routes.

        The routes run on :func:`reference_spectra`, not on the program's
        own spectral evaluation.
        """
        model = var_model.VarModel(self.coeffs, self.sigma)
        spectra = reference_spectra(self.coeffs, self.sigma, nfreq)
        routes = {"ipdc": oracles.partialized_process_coherence, "idtf": oracles.partialized_innovation_coherence}
        return spectra, {
            (kind, i, j): route(model, spectra.grid, i, j, spectra=spectra) for kind, route in routes.items() for i, j in pairs
        }

    def grid_problems(self, document: dict, grid) -> list:
        omega = np.asarray(document["grid"]["omega"])
        if omega.shape != grid.points.shape or np.max(np.abs(omega - grid.points)) > 1e-12:
            return ["grid differs from linspace(0, pi, nfreq)"]
        return []


class WideMir(Workload):
    """mir with all three kinds on K=16, p=4, nfreq=2048: spectral-core bound."""

    name = "wide_mir"
    salt = 1
    k, p, nfreq = 16, 4, 2048

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = work / "rates.json"
        self.outputs = [self.out]
        self.commands = [
            ["mir", "--model", str(self.model_path), "--kinds", "ipdc,idtf,coh", "--nfreq", str(self.nfreq), "--out", str(self.out)]
        ]
        self.sample = self.seeded_pairs(6)

    def check_outputs(self):
        document = json.loads(self.out.read_text())
        rates = {kind: np.asarray(block["values"]) for kind, block in document["mir"].items()}
        if sorted(rates) != ["coh", "idtf", "ipdc"]:
            return [[f"rate kinds {sorted(rates)}"]]
        spectra, profiles = self.oracle_profiles(self.nfreq, self.sample)
        grid = spectra.grid
        problems = self.grid_problems(document, grid)
        for kind, values in rates.items():
            if values.shape != (self.k, self.k) or not np.all(np.isfinite(values)) or np.min(values) < -1e-12:
                problems.append(f"{kind}: rates not finite and >= -1e-12")
        if np.any(np.diag(rates["coh"]) != 0.0):
            problems.append("coh: diagonal is not 0")
        for (kind, i, j), profile in profiles.items():
            expected = rate(profile, grid.points)
            if abs(rates[kind][i, j] - expected) > ORACLE_TOL * abs(expected):
                problems.append(f"{kind}[{i},{j}] = {float(rates[kind][i, j])!r}, reference gives {expected!r}")
        return [problems]


class DenseMeasure(Workload):
    """measure --mag-sq with all seven measures on K=8, p=3, nfreq=512: rendering bound."""

    name = "dense_measure"
    salt = 2
    k, p, nfreq = 8, 3, 512

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = work / "measures.json"
        self.outputs = [self.out]
        self.commands = [["measure", "--model", str(self.model_path), "--mag-sq", "--nfreq", str(self.nfreq), "--out", str(self.out)]]
        self.sample = self.seeded_pairs(8)

    def check_outputs(self):
        document = json.loads(self.out.read_text())
        measures = document["measures"]
        if sorted(measures) != sorted(["coh", "pdc", "gpdc", "ipdc", "dtf", "dc", "idtf"]):
            return [[f"measures {sorted(measures)}"]]
        spectra, profiles = self.oracle_profiles(self.nfreq, self.sample)
        problems = self.grid_problems(document, spectra.grid)
        values, mag_sq = {}, {}
        for kind, block in measures.items():
            values[kind] = np.asarray(block["re"]) + 1j * np.asarray(block["im"])
            mag_sq[kind] = np.asarray(block["mag_sq"])
            if values[kind].shape != (self.nfreq, self.k, self.k):
                return [[f"{kind}: shape {values[kind].shape}"]]
            if not np.allclose(mag_sq[kind], np.abs(values[kind]) ** 2, rtol=1e-12, atol=1e-15):
                problems.append(f"{kind}: mag_sq differs from re^2 + im^2")
        for kind, axis in (("pdc", 1), ("gpdc", 1), ("dtf", 2), ("dc", 2)):
            if np.max(np.abs(mag_sq[kind].sum(axis=axis) - 1.0)) > ORACLE_TOL:
                problems.append(f"{kind}: squared sums over axis {axis} differ from 1")
        if np.max(np.abs(np.abs(np.diagonal(values["coh"], axis1=1, axis2=2)) - 1.0)) > ORACLE_TOL:
            problems.append("coh: |diagonal| differs from 1")
        for kind in ("ipdc", "idtf"):
            if np.max(mag_sq[kind]) > 1.0 + ORACLE_TOL:
                problems.append(f"{kind}: squared magnitude above 1")
        a_bar, h_bar, s = spectra.a_bar, spectra.h_bar, spectra.s
        for i, j in self.sample:
            profiles["pdc", i, j] = a_bar[:, i, j] / np.linalg.norm(a_bar[:, :, j], axis=1)
            profiles["dtf", i, j] = h_bar[:, i, j] / np.linalg.norm(h_bar[:, i, :], axis=1)
            profiles["coh", i, j] = s[:, i, j] / np.sqrt(s[:, i, i].real * s[:, j, j].real)
        for (kind, i, j), profile in profiles.items():
            deviation = np.max(np.abs(values[kind][:, i, j] - profile))
            if deviation > ORACLE_TOL:
                problems.append(f"{kind}[:, {i}, {j}] deviates from the reference by {deviation:.3e}")
        return [problems]


class ModelFit(Workload):
    """simulate, then fit on what it wrote: Python loops and CSV I/O bound."""

    name = "model_fit"
    salt = 3
    k, p, n, max_order = 5, 3, 20000, 10
    #: Largest accepted |fitted - true| coefficient in least-squares
    #: standard errors. Over seeds 0-39 the worst of the 75 coefficients
    #: read 1.7 to 3.6; a coefficient of a correct fit passes 6 with
    #: probability 1 - 2e-9.
    z_tol = 6.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.csv = work / "samples.csv"
        self.fitted = work / "fitted.json"
        self.outputs = [self.csv, self.fitted]
        self.commands = [
            ["simulate", "--model", str(self.model_path), "--n", str(self.n), "--seed", str(seed), "--out", str(self.csv)],
            ["fit", "--data", str(self.csv), "--max-order", str(self.max_order), "--out", str(self.fitted)],
        ]

    def check_outputs(self):
        simulate, fit = [], []
        lines = [line for line in self.csv.read_text().splitlines() if line.strip()]
        if len(lines) != self.n + 1:
            simulate.append(f"CSV has {len(lines) - 1} data rows, expected {self.n}")
        document = json.loads(self.fitted.read_text())
        if document.get("p") != self.p:
            fit.append(f"fit selected order {document.get('p')}, expected {self.p}")
        else:
            z = self.coefficient_z(np.asarray(document["coeffs"]), np.asarray(document["sigma"]))
            if z > self.z_tol:
                fit.append(f"a coefficient is {z:.3g} standard errors from the truth, limit {self.z_tol}")
        return [simulate, fit]

    def coefficient_z(self, fitted: np.ndarray, sigma: np.ndarray) -> float:
        """Worst |fitted - true| coefficient over its least-squares standard error."""
        x = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        x = x - x.mean(axis=0)
        regressors = np.hstack([x[self.p - lag : self.n - lag] for lag in range(1, self.p + 1)])
        inverse = np.diag(np.linalg.inv(regressors.T @ regressors))
        stderr = np.sqrt(np.outer(np.diag(sigma), inverse))
        error = (fitted - self.coeffs).transpose(1, 0, 2).reshape(self.k, self.k * self.p)
        return float(np.max(np.abs(error) / stderr))


class ModelVerify(Workload):
    """verify on 50 small models: thousands of per-call oracle routes, no input file."""

    name = "model_verify"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.commands = [["verify", "--seed", str(seed), "--models", "50", "--nfreq", "128"]]


WORKLOADS = {cls.name: cls for cls in (WideMir, DenseMeasure, ModelFit, ModelVerify)}
