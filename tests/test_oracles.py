import os
import sys
import types
from functools import cached_property

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DomainError,
    FrequencyGrid,
    MeasureKind,
    MeasureResult,
    NumericalError,
    SpectralSet,
    VarModel,
    evaluate_spectra,
    fixture,
    information_rates,
    run_verification,
    validate,
)
from varconn import oracles
from varconn.measures import idtf, ipdc
from varconn.oracles import (
    partialized_cross_spectra,
    partialized_innovation_coherence,
    partialized_process_coherence,
    random_stable_model,
)

GRID = FrequencyGrid(64)

IPDC_CHECK = "iPDC equals innovation/partialized-process coherence"
IDTF_CHECK = "iDTF equals signal/partialized-innovation coherence"
PER_PAIR = ("partialized_process_coherence", "partialized_innovation_coherence")
#: Both fixtures at lags 1 to 3; from lag 2 on, only the last lag matrix is nonzero, so the closed forms check A_bar's lag order
FIXTURES = [
    fixture(name, lag=lag, **params)
    for lag in (1, 2, 3)
    for name, params in (("two_var_alpha", {"alpha": 0.5}), ("three_var_alpha_beta", {"alpha": 0.5, "beta": 1.0}))
]


class TestFixtures:
    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown fixture"):
            fixture("five_var", alpha=1.0)

    def test_unexpected_parameter(self):
        with pytest.raises(DomainError, match="unexpected"):
            fixture("two_var_alpha", alpha=0.5, gamma=1.0)

    @pytest.mark.parametrize(
        "name, params, missing",
        [("two_var_alpha", {}, "['alpha']"), ("three_var_alpha_beta", {"alpha": 0.5}, "['beta']")],
        ids=["two_var_alpha", "three_var_alpha_beta"],
    )
    def test_missing_parameter_is_named(self, name, params, missing):
        with pytest.raises(DomainError) as caught:
            fixture(name, **params)
        assert str(caught.value) == f"missing parameters {missing} for {name}"

    def test_models_are_stable(self):
        for fx in FIXTURES:
            assert validate(fx.model).stable

    def test_expected_tables_match_pipeline(self):
        for fx in FIXTURES:
            spectra = evaluate_spectra(fx.model, GRID)
            computed = {
                "ipdc": ipdc(spectra).values,
                "idtf": idtf(spectra).values,
            }
            for (kind, i, j), expected in fx.expected(GRID).items():
                deviation = float(np.max(np.abs(computed[kind][:, i, j] - expected)))
                assert deviation < 1e-12, (fx.name, kind, i, j)

    @pytest.mark.parametrize("lag", [0, -1, 1.0, "2"])
    def test_bad_lag(self, lag):
        with pytest.raises(DomainError, match="lag must be an integer >= 1"):
            fixture("two_var_alpha", alpha=0.5, lag=lag)

    def test_chain_magnitudes(self):
        fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
        expected = fx.expected(GRID)
        assert_allclose(np.abs(expected[("idtf", 2, 0)]) ** 2, 1.0 / 9.0, atol=1e-15)
        assert_allclose(np.abs(expected[("ipdc", 2, 1)]) ** 2, 0.5, atol=1e-15)


class TestRandomStableModel:
    def test_respects_radius_and_sigma_kind(self):
        rng = np.random.default_rng(50)
        for kind in ("full", "diagonal", "identity"):
            model = random_stable_model(rng, 3, sigma_kind=kind)
            report = validate(model)
            assert report.stable
            assert report.spectral_radius < 0.9
            assert report.sigma_ok
        with pytest.raises(DomainError):
            random_stable_model(rng, 3, sigma_kind="sparse")

    def test_unknown_sigma_kind_refused_before_any_draw(self):
        rng = np.random.default_rng(55)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="^unknown sigma_kind 'bogus'$"):
            random_stable_model(rng, 3, sigma_kind="bogus")
        assert rng.bit_generator.state == state

    def test_order_argument(self):
        model = random_stable_model(np.random.default_rng(51), 2, p=3)
        assert model.p == 3

    def test_gives_up_when_no_draw_is_stable(self):
        # a radius below 0.0 is never reached: every one of the 1,000 draws is rejected
        with pytest.raises(NumericalError, match="^failed to sample a stable model$"):
            random_stable_model(np.random.default_rng(53), 2, max_radius=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_white_noise_order(self, k):
        # p = 0 draws no coefficients; the scale must not divide by k * p
        model = random_stable_model(np.random.default_rng(52), k, p=0)
        assert model.coeffs.shape == (0, k, k)
        assert validate(model).stable


class TestChannelIndex:
    @pytest.mark.parametrize("index", [-1, 2])
    def test_out_of_range_index_refused_before_any_solve(self, monkeypatch, index):
        model = fixture("two_var_alpha", alpha=0.5).model
        spectra = evaluate_spectra(model, GRID)

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the index was checked")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(oracles, "evaluate_spectra", refuse)
        calls = {
            "cross spectra": lambda: partialized_cross_spectra(spectra, index),
            "innovation covariances": lambda: oracles.partialized_innovation_covariances(model.sigma, index),
            "process coherence target": lambda: partialized_process_coherence(model, GRID, index, 0),
            "process coherence source": lambda: partialized_process_coherence(model, GRID, 0, index),
            "innovation coherence target": lambda: partialized_innovation_coherence(model, GRID, index, 1),
            "innovation coherence source": lambda: partialized_innovation_coherence(model, GRID, 1, index),
        }
        for name, call in calls.items():
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == f"channel index {index} is outside 0..1 (K = 2)", name


class TestProcessCoherenceIdentity:
    def test_two_channel_closed_form(self):
        alpha = 0.5
        fx = fixture("two_var_alpha", alpha=alpha)
        reference = partialized_process_coherence(fx.model, GRID, 1, 0)
        expected = -alpha * np.exp(-1j * GRID.points) / np.sqrt(1.0 + alpha**2)
        assert_allclose(reference, expected, atol=1e-13)
        # reverse direction carries nothing
        silent = partialized_process_coherence(fx.model, GRID, 0, 1)
        assert float(np.max(np.abs(silent))) < 1e-13

    def test_matches_ipdc_on_random_models(self):
        rng = np.random.default_rng(52)
        for k in (2, 4):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            values = ipdc(spectra).values
            for i in range(k):
                for j in range(k):
                    reference = partialized_process_coherence(model, GRID, i, j, spectra=spectra)
                    assert float(np.max(np.abs(reference - values[:, i, j]))) < 1e-10


class TestInnovationCoherenceIdentity:
    def test_chain_closed_form(self):
        alpha, beta = 0.5, 1.0
        fx = fixture("three_var_alpha_beta", alpha=alpha, beta=beta)
        reference = partialized_innovation_coherence(fx.model, GRID, 2, 0)
        chain = np.sqrt(1.0 + beta**2 + (alpha * beta) ** 2)
        expected = alpha * beta * np.exp(-2j * GRID.points) / chain
        assert_allclose(reference, expected, atol=1e-13)

    def test_matches_idtf_on_random_models(self):
        rng = np.random.default_rng(53)
        for k in (2, 4):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            values = idtf(spectra).values
            for i in range(k):
                for j in range(k):
                    reference = partialized_innovation_coherence(model, GRID, i, j, spectra=spectra)
                    assert float(np.max(np.abs(reference - values[:, i, j]))) < 1e-10


class TestStructuralIdentities:
    def test_transfer_ratio_recovers_a_bar(self):
        rng = np.random.default_rng(54)
        model = random_stable_model(rng, 3)
        spectra = evaluate_spectra(model, GRID)
        for j in range(3):
            ratio = oracles._process_columns(model, spectra, partialized_cross_spectra(spectra, j)[:, :, None], [j])[1]
            for i in range(3):
                assert float(np.max(ratio[:, i, 0])) < 1e-10

    def test_orthogonality_residual_vanishes(self):
        rng = np.random.default_rng(55)
        for k in (2, 3, 5):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            for j in range(k):
                assert oracles._orthogonality(partialized_cross_spectra(spectra, j)[:, :, None], [j]) < 1e-10

    def test_single_channel_residual_is_zero(self):
        from varconn import VarModel

        model = VarModel(np.array([[[0.5]]]), np.eye(1))
        cross = partialized_cross_spectra(evaluate_spectra(model, GRID), 0)
        assert oracles._orthogonality(cross[:, :, None], [0]) == 0.0


class TestWideModel:
    def test_sampled_pairs_and_inverses_at_32_channels(self):
        rng = np.random.default_rng(56)
        grid = FrequencyGrid(128)
        model = random_stable_model(rng, 32)
        spectra = evaluate_spectra(model, grid)
        ipdc_values = ipdc(spectra).values
        idtf_values = idtf(spectra).values
        eye = np.eye(32)
        assert float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))) < 1e-10
        assert float(np.max(np.abs(spectra.s @ oracles._inverse_spectrum(spectra) - eye))) < 1e-10
        for i, j in rng.integers(0, 32, size=(8, 2)):
            reference = partialized_process_coherence(model, grid, i, j, spectra=spectra)
            assert float(np.max(np.abs(reference - ipdc_values[:, i, j]))) < 1e-10
            reference = partialized_innovation_coherence(model, grid, i, j, spectra=spectra)
            assert float(np.max(np.abs(reference - idtf_values[:, i, j]))) < 1e-10


class TestColumnForms:
    """The per-pair oracles are entries of the column forms ``run_verification`` evaluates."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_per_pair_oracles_match_the_column_entries(self, k):
        model = random_stable_model(np.random.default_rng(60 + k), k)
        spectra = evaluate_spectra(model, GRID)
        # stacked one source per column, as run_verification stacks them
        sources = list(range(k))
        cross = np.stack([partialized_cross_spectra(spectra, j) for j in sources], axis=-1)
        covariances = np.stack([oracles.partialized_innovation_covariances(model.sigma, j) for j in sources], axis=-1)
        process, ratio = oracles._process_columns(model, spectra, cross, sources)
        innovation = oracles._innovation_columns(spectra, covariances, sources)
        orthogonality = oracles._orthogonality(cross, sources)
        assert orthogonality == max(oracles._orthogonality(cross[:, :, [j]], [j]) for j in sources)
        if k == 1:
            # nothing to partialize against: cross is the column of S itself
            assert np.array_equal(cross[:, :, 0], spectra.s[:, :, 0])
            assert orthogonality == 0.0
        for i in sources:
            for j in sources:
                # the per-pair formulas written out as a loop would evaluate them
                numerator = np.einsum("fl,fl->f", spectra.a_bar[:, i, :], cross[:, :, j])
                schur = cross[:, j, j].real
                loop_ipdc = numerator / np.sqrt(model.sigma[i, i] * schur)
                loop_idtf = np.einsum("fl,l->f", spectra.h_bar[:, i, :], covariances[:, j]) / np.sqrt(spectra.s[:, i, i].real * covariances[j, j])
                loop_ratio = float(np.max(np.abs(spectra.a_bar[:, i, j] - numerator / schur)))
                for column, pair, loop in (
                    (process[:, i, j], partialized_process_coherence(model, GRID, i, j, spectra=spectra), loop_ipdc),
                    (innovation[:, i, j], partialized_innovation_coherence(model, GRID, i, j, spectra=spectra), loop_idtf),
                ):
                    assert float(np.max(np.abs(pair - column))) <= 1e-15
                    assert float(np.max(np.abs(loop - column))) <= 1e-15
                # one source alone, as a column of its own
                alone = oracles._process_columns(model, spectra, cross[:, :, [j]], [j])[1]
                deviation = float(np.max(alone[:, i, 0]))
                assert abs(deviation - float(np.max(ratio[:, i, j]))) <= 1e-15
                assert abs(loop_ratio - deviation) <= 1e-15


class TestPerPairOracleContract:
    """The per-pair oracles read only grid, a_bar, h_bar, s and K from ``spectra``.

    The benchmark's output check passes them a plain namespace built by its
    own reference route, which carries these attributes among others.
    """

    def test_a_namespace_of_five_attributes_suffices(self):
        model = random_stable_model(np.random.default_rng(70), 4)
        spectra = evaluate_spectra(model, GRID)
        names = ("a_bar", "h_bar", "s", "K")
        namespace = types.SimpleNamespace(grid=GRID, **{name: getattr(spectra, name) for name in names})
        for route in (partialized_process_coherence, partialized_innovation_coherence):
            for i in range(4):
                for j in range(4):
                    expected = route(model, GRID, i, j, spectra=spectra)
                    assert np.array_equal(route(model, namespace.grid, i, j, spectra=namespace), expected)


class TestCancelledPartialSpectrum:
    """A model every command accepts, on which the Schur route's partial spectrum cancels to zero or below.

    Near a unit root, with a nearly singular sigma, channel 0 is all but
    predictable from the others at some frequencies.
    """

    @staticmethod
    def edge_model() -> VarModel:
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(1, 3, 3))
        coeffs *= 0.9999 / validate(VarModel(coeffs, np.eye(3))).spectral_radius
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        return VarModel(coeffs, q @ np.diag([1.0, 1e-5, 1e-10]) @ q.T)

    def test_non_finite_profile_without_a_warning(self):
        # this suite turns a warning into an error, so each call returning is half the check
        model, grid = self.edge_model(), FrequencyGrid(128)
        report = validate(model)
        assert report.stable and report.sigma_ok
        spectra = evaluate_spectra(model, grid)  # the conditioning guard accepts it
        ipdc(spectra)
        process = [partialized_process_coherence(model, grid, 0, j, spectra=spectra) for j in range(3)]
        innovation = [partialized_innovation_coherence(model, grid, 0, j, spectra=spectra) for j in range(3)]
        assert not np.all(np.isfinite(process[0]))
        assert all(np.all(np.isfinite(profile)) for profile in innovation)


class TestRunVerification:
    def test_small_sweep_passes(self):
        report = run_verification(seed=7, n_models=8, n_freq=64)
        assert report.passed
        assert len(report.checks) == 7
        assert all(line.startswith("ok") for line in report.lines())

    def test_nan_deviation_fails_its_check(self, monkeypatch):
        def nan_ipdc(spectra):
            return MeasureResult(MeasureKind.IPDC, np.full((spectra.a_bar.shape[0], spectra.K, spectra.K), np.nan, dtype=complex))

        monkeypatch.setattr(oracles, "ipdc", nan_ipdc)
        report = run_verification(seed=7, n_models=4, n_freq=32)
        failed = {check.name: check.max_deviation for check in report.checks if not check.passed}
        assert failed == {"fixture closed forms": np.inf, "iPDC equals innovation/partialized-process coherence": np.inf}

    def test_checks_the_normaliser_the_rates_use(self, monkeypatch):
        # a normaliser off by 1e-6 relative moves the iPDC rates, and verify's partial
        # spectrum check, which compares the Schur route with 1 / diag(S^-1), sees it
        model = random_stable_model(np.random.default_rng(71), 3)
        grid = FrequencyGrid(64)
        rates = information_rates(model, grid, ["ipdc"])[MeasureKind.IPDC].values
        normaliser = SpectralSet.inverse_autospectra.func
        scaled = cached_property(lambda spectra: normaliser(spectra) * (1.0 + 1e-6))
        scaled.__set_name__(SpectralSet, "inverse_autospectra")
        monkeypatch.setattr(SpectralSet, "inverse_autospectra", scaled)
        moved = information_rates(model, grid, ["ipdc"])[MeasureKind.IPDC].values
        off_diagonal = ~np.eye(3, dtype=bool)
        assert_allclose(moved[off_diagonal], rates[off_diagonal], rtol=2e-6)
        assert not np.any(moved[off_diagonal] == rates[off_diagonal])
        failed = {check.name for check in run_verification(seed=7, n_models=4, n_freq=32).checks if not check.passed}
        assert "partial spectrum: block elimination vs quadratic form" in failed

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(DomainError):
            run_verification(n_models=0)

    @pytest.mark.parametrize("measure, check", [("ipdc", IPDC_CHECK), ("idtf", IDTF_CHECK)], ids=["ipdc", "idtf"])
    @pytest.mark.parametrize("entry", [(3, 1), (2, 2), (4, 4)], ids=["off-diagonal", "diagonal", "last"])
    def test_every_pair_is_compared(self, monkeypatch, measure, check, entry):
        original = getattr(oracles, measure)

        def shifted(spectra):
            result = original(spectra)
            if spectra.K != 5:
                return result
            values = result.values.copy()
            values[(7, *entry)] += 1e-8
            return MeasureResult(result.kind, values)

        # rebind the name run_verification calls; models 3 and 7 have K = 5
        monkeypatch.setattr(oracles, measure, shifted)
        report = run_verification(seed=7, n_models=8, n_freq=32)
        failed = {c.name: c.max_deviation for c in report.checks if not c.passed}
        assert list(failed) == [check]
        assert 0.5e-8 <= failed[check] <= 2e-8

    def test_one_schur_solve_per_source_and_no_per_pair_call(self, monkeypatch):
        # on one CPU, so that every model is checked in this process, where the calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = dict.fromkeys((*PER_PAIR, "partialized_cross_spectra", "partialized_innovation_covariances"), 0)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "varconn"]
        for name in calls:
            original = getattr(oracles, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        assert run_verification(seed=0, n_models=8).passed
        # the population cycles through K = 2, 3, 4, 5
        solves = sum(2 + index % 4 for index in range(8))
        assert calls == {**dict.fromkeys(PER_PAIR, 0), "partialized_cross_spectra": solves, "partialized_innovation_covariances": solves}
