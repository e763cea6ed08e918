import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DomainError,
    FrequencyGrid,
    evaluate_spectra,
    fixture,
    idtf,
    ipdc,
    orthogonality_residual,
    partialized_innovation_coherence,
    partialized_process_coherence,
    random_stable_model,
    run_verification,
    transfer_function_deviation,
    validate,
)

GRID = FrequencyGrid.default(64)


class TestFixtures:
    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown fixture"):
            fixture("five_var", alpha=1.0)

    def test_unexpected_parameter(self):
        with pytest.raises(DomainError, match="unexpected"):
            fixture("two_var_alpha", alpha=0.5, gamma=1.0)

    def test_models_are_stable(self):
        for fx in (
            fixture("two_var_alpha", alpha=0.5),
            fixture("three_var_alpha_beta", alpha=0.5, beta=1.0),
        ):
            assert validate(fx.model).stable

    def test_expected_tables_match_pipeline(self):
        for fx in (
            fixture("two_var_alpha", alpha=0.5),
            fixture("three_var_alpha_beta", alpha=0.5, beta=1.0),
        ):
            spectra = evaluate_spectra(fx.model, GRID)
            computed = {
                "ipdc": ipdc(spectra, fx.model).values,
                "idtf": idtf(spectra, fx.model).values,
            }
            for (kind, i, j), expected in fx.expected(GRID).items():
                deviation = float(np.max(np.abs(computed[kind][:, i, j] - expected)))
                assert deviation < 1e-12, (fx.name, kind, i, j)

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

    def test_order_argument(self):
        model = random_stable_model(np.random.default_rng(51), 2, p=3)
        assert model.p == 3


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
            values = ipdc(spectra, model).values
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
            values = idtf(spectra, model).values
            for i in range(k):
                for j in range(k):
                    reference = partialized_innovation_coherence(model, GRID, i, j, spectra=spectra)
                    assert float(np.max(np.abs(reference - values[:, i, j]))) < 1e-10


class TestStructuralIdentities:
    def test_transfer_ratio_recovers_a_bar(self):
        rng = np.random.default_rng(54)
        model = random_stable_model(rng, 3)
        spectra = evaluate_spectra(model, GRID)
        for i in range(3):
            for j in range(3):
                assert transfer_function_deviation(model, GRID, i, j, spectra=spectra) < 1e-10

    def test_orthogonality_residual_vanishes(self):
        rng = np.random.default_rng(55)
        for k in (2, 3, 5):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            for j in range(k):
                assert orthogonality_residual(model, GRID, j, spectra=spectra) < 1e-10

    def test_single_channel_residual_is_zero(self):
        from varconn import VarModel

        model = VarModel(np.array([[[0.5]]]), np.eye(1))
        assert orthogonality_residual(model, GRID, 0) == 0.0


class TestWideModel:
    def test_sampled_pairs_and_inverses_at_32_channels(self):
        rng = np.random.default_rng(56)
        grid = FrequencyGrid.default(128)
        model = random_stable_model(rng, 32)
        spectra = evaluate_spectra(model, grid)
        ipdc_values = ipdc(spectra, model).values
        idtf_values = idtf(spectra, model).values
        eye = np.eye(32)
        assert float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))) < 1e-10
        assert float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))) < 1e-10
        for i, j in rng.integers(0, 32, size=(8, 2)):
            reference = partialized_process_coherence(model, grid, i, j, spectra=spectra)
            assert float(np.max(np.abs(reference - ipdc_values[:, i, j]))) < 1e-10
            reference = partialized_innovation_coherence(model, grid, i, j, spectra=spectra)
            assert float(np.max(np.abs(reference - idtf_values[:, i, j]))) < 1e-10


class TestRunVerification:
    def test_small_sweep_passes(self):
        report = run_verification(seed=7, n_models=8, n_freq=64)
        assert report.passed
        assert len(report.checks) == 7
        assert all(line.startswith("ok") for line in report.lines())

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(DomainError):
            run_verification(n_models=0)
