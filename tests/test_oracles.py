import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DomainError,
    FrequencyGrid,
    MeasureKind,
    MeasureResult,
    evaluate_spectra,
    fixture,
    idtf,
    ipdc,
    partialized_cross_spectra,
    partialized_innovation_coherence,
    partialized_process_coherence,
    random_stable_model,
    run_verification,
    validate,
)
from varconn import oracles

GRID = FrequencyGrid.default(64)

IPDC_CHECK = "iPDC equals innovation/partialized-process coherence"
IDTF_CHECK = "iDTF equals signal/partialized-innovation coherence"
PER_PAIR = ("partialized_process_coherence", "partialized_innovation_coherence")


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
                "ipdc": ipdc(spectra).values,
                "idtf": idtf(spectra).values,
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
        grid = FrequencyGrid.default(128)
        model = random_stable_model(rng, 32)
        spectra = evaluate_spectra(model, grid)
        ipdc_values = ipdc(spectra).values
        idtf_values = idtf(spectra).values
        eye = np.eye(32)
        assert float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))) < 1e-10
        assert float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))) < 1e-10
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


class TestRunVerification:
    def test_small_sweep_passes(self):
        report = run_verification(seed=7, n_models=8, n_freq=64)
        assert report.passed
        assert len(report.checks) == 7
        assert all(line.startswith("ok") for line in report.lines())

    def test_nan_deviation_fails_its_check(self, monkeypatch):
        def nan_ipdc(spectra):
            return MeasureResult(MeasureKind.IPDC, np.full((spectra.grid.n_points, spectra.K, spectra.K), np.nan, dtype=complex))

        monkeypatch.setattr(oracles, "ipdc", nan_ipdc)
        report = run_verification(seed=7, n_models=4, n_freq=32)
        failed = {check.name: check.max_deviation for check in report.checks if not check.passed}
        assert failed == {"fixture closed forms": np.inf, "iPDC equals innovation/partialized-process coherence": np.inf}

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
