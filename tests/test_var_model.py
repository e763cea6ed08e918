import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DimensionError,
    DomainError,
    EstimationError,
    NumericalError,
    TimeSeriesData,
    VarModel,
    companion_matrix,
    estimate,
    rescale,
    select_order,
    simulate,
    validate,
)
from varconn import var_model
from varconn.oracles import random_stable_model


def two_channel_model(alpha=0.5):
    return VarModel([[[0.0, 0.0], [alpha, 0.0]]], np.eye(2))


class TestVarModel:
    def test_single_matrix_is_order_one(self):
        model = VarModel(np.zeros((2, 2)), np.eye(2))
        assert model.p == 1
        assert model.K == 2

    def test_white_noise_constructor(self):
        model = VarModel.white_noise(np.eye(3))
        assert model.p == 0
        assert model.K == 3

    def test_coeff_shape_mismatch(self):
        with pytest.raises(DimensionError):
            VarModel(np.zeros((1, 3, 3)), np.eye(2))

    def test_nonsquare_sigma(self):
        with pytest.raises(DimensionError):
            VarModel(np.zeros((1, 2, 2)), np.zeros((2, 3)))

    def test_asymmetric_sigma(self):
        with pytest.raises(DimensionError):
            VarModel(np.zeros((1, 2, 2)), [[1.0, 0.5], [0.1, 1.0]])

    def test_nonfinite_entries(self):
        with pytest.raises(DomainError):
            VarModel([[[np.nan, 0.0], [0.0, 0.0]]], np.eye(2))

    def test_arrays_are_readonly(self):
        model = two_channel_model()
        with pytest.raises(ValueError):
            model.coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            model.sigma[0, 0] = 2.0


class TestTimeSeriesData:
    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            TimeSeriesData(np.zeros(5))
        with pytest.raises(DimensionError):
            TimeSeriesData(np.zeros((0, 2)))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            TimeSeriesData([[1.0, np.nan]])


class TestValidate:
    def test_nilpotent_model_is_stable_with_zero_radius(self):
        report = validate(two_channel_model())
        assert report.stable
        assert report.spectral_radius == 0.0
        assert report.sigma_ok

    def test_unit_root_is_unstable(self):
        model = VarModel([[[1.1, 0.0], [0.0, 0.5]]], np.eye(2))
        report = validate(model)
        assert not report.stable
        assert_allclose(report.spectral_radius, 1.1, atol=1e-12)

    def test_indefinite_sigma_flagged(self):
        model = VarModel(np.zeros((1, 2, 2)), [[1.0, 2.0], [2.0, 1.0]])
        assert not validate(model).sigma_ok

    def test_order_zero_radius(self):
        report = validate(VarModel.white_noise(np.eye(2)))
        assert report.stable
        assert report.spectral_radius == 0.0

    def test_companion_eigenvalues_match_ar_roots(self):
        # scalar AR(2) with roots 0.5 and -0.25: x(n) = 0.25 x(n-1) + 0.125 x(n-2)
        model = VarModel(np.array([[[0.25]], [[0.125]]]), np.eye(1))
        eigs = sorted(np.linalg.eigvals(companion_matrix(model)).real)
        assert_allclose(eigs, [-0.25, 0.5], atol=1e-12)


class TestSimulate:
    def test_stationary_variance_matches_theory(self):
        # var(x2) = 1 + alpha^2 = 1.25 for the two-channel model
        data, _ = simulate(two_channel_model(), 100000, burn_in=1000, seed=0)
        assert abs(data.values[:, 1].var() - 1.25) < 0.02

    def test_innovations_align_with_samples(self):
        model = two_channel_model()
        samples, innovations = simulate(model, 200, burn_in=0, seed=3)
        x, w = samples.values, innovations.values
        for t in range(1, 200):
            reconstructed = w[t] + model.coeffs[0] @ x[t - 1]
            assert_allclose(x[t], reconstructed, atol=1e-12)

    def test_order_zero_output_equals_innovations(self):
        samples, innovations = simulate(VarModel.white_noise(np.eye(2)), 1, burn_in=0, seed=5)
        assert_allclose(samples.values, innovations.values)

    def test_deterministic_for_fixed_seed(self):
        a, _ = simulate(two_channel_model(), 500, seed=11)
        b, _ = simulate(two_channel_model(), 500, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_unstable_model_refused(self):
        model = VarModel([[[1.1, 0.0], [0.0, 0.5]]], np.eye(2))
        with pytest.raises(NumericalError, match="spectral radius"):
            simulate(model, 100)

    def test_indefinite_sigma_refused(self):
        model = VarModel(np.zeros((1, 2, 2)), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="positive definite"):
            simulate(model, 100)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            simulate(two_channel_model(), 0)
        with pytest.raises(DomainError):
            simulate(two_channel_model(), 10, burn_in=-1)

    @pytest.mark.parametrize(
        "p, n_samples, burn_in",
        [(0, 300, 50), (1, 300, 50), (3, 300, 50), (3, 300, 0), (3, 1, 0), (1, 1, 20)],
    )
    def test_flat_recursion_matches_per_lag_loop(self, p, n_samples, burn_in):
        model = random_stable_model(np.random.default_rng(p), 4, p=p) if p else VarModel.white_noise(np.diag([1.0, 2.0]))
        samples, innovations = simulate(model, n_samples, burn_in=burn_in, seed=8)
        reference, reference_innovations = per_lag_simulation(model, n_samples, burn_in, seed=8)
        assert np.array_equal(innovations.values, reference_innovations)
        # the summation order differs, so only the last digits may move
        assert np.max(np.abs(samples.values - reference)) <= 1e-13 * np.max(np.abs(reference))


def per_lag_simulation(model, n_samples, burn_in, seed):
    """The recursion one lag at a time, with simulate's draws."""
    k, p = model.K, model.p
    total = burn_in + n_samples
    innovations = np.random.default_rng(seed).standard_normal((total, k)) @ np.linalg.cholesky(model.sigma).T
    x = np.zeros((total, k))
    for t in range(total):
        acc = innovations[t].copy()
        for lag in range(min(p, t)):
            acc += model.coeffs[lag] @ x[t - lag - 1]
        x[t] = acc
    return x[burn_in:], innovations[burn_in:]


class TestRescale:
    def test_identity_gains_are_a_no_op(self):
        model = two_channel_model()
        scaled = rescale(model, [1.0, 1.0])
        assert_allclose(scaled.coeffs, model.coeffs)
        assert_allclose(scaled.sigma, model.sigma)

    def test_two_channel_gains(self):
        # gains (2, 1): a21 -> 1 * 0.5 / 2 = 0.25, sigma -> diag(4, 1)
        scaled = rescale(two_channel_model(0.5), [2.0, 1.0])
        assert_allclose(scaled.coeffs[0, 1, 0], 0.25, atol=1e-15)
        assert_allclose(scaled.sigma, np.diag([4.0, 1.0]), atol=1e-15)

    def test_round_trip(self):
        model = two_channel_model()
        gains = np.array([2.0, 0.3])
        back = rescale(rescale(model, gains), 1.0 / gains)
        assert_allclose(back.coeffs, model.coeffs, atol=1e-12)
        assert_allclose(back.sigma, model.sigma, atol=1e-12)

    def test_stability_preserved(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(0.0, 0.2, (2, 3, 3))
        model = VarModel(coeffs, np.eye(3))
        scaled = rescale(model, [5.0, 0.1, 1.0])
        assert_allclose(
            validate(scaled).spectral_radius, validate(model).spectral_radius, atol=1e-9
        )

    def test_invalid_gains(self):
        with pytest.raises(DomainError):
            rescale(two_channel_model(), [1.0, 0.0])
        with pytest.raises(DimensionError):
            rescale(two_channel_model(), [1.0, 1.0, 1.0])


class TestEstimate:
    def test_recovers_two_channel_coefficients(self):
        data, _ = simulate(two_channel_model(0.5), 20000, burn_in=1000, seed=42)
        fitted = estimate(data, 1)
        assert abs(fitted.coeffs[0, 1, 0] - 0.5) < 0.03
        assert abs(fitted.coeffs[0, 0, 1]) < 0.03
        assert abs(fitted.sigma[0, 0] - 1.0) < 0.05
        assert abs(fitted.sigma[1, 1] - 1.0) < 0.05

    def test_white_noise_coefficients_near_zero(self):
        data, _ = simulate(VarModel.white_noise(np.eye(2)), 20000, burn_in=0, seed=1)
        fitted = estimate(data, 2)
        assert float(np.max(np.abs(fitted.coeffs))) < 0.05

    def test_residual_covariance_is_symmetric_psd(self):
        data, _ = simulate(two_channel_model(), 5000, seed=9)
        fitted = estimate(data, 3)
        assert_allclose(fitted.sigma, fitted.sigma.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(fitted.sigma)) > -1e-10

    def test_error_decays_with_sample_size(self):
        model = two_channel_model()
        mean_errors = []
        for n in (2000, 20000):
            errors = []
            for seed in range(5):
                data, _ = simulate(model, n, burn_in=500, seed=seed)
                fitted = estimate(data, 1)
                errors.append(float(np.max(np.abs(fitted.coeffs - model.coeffs))))
            mean_errors.append(np.mean(errors))
        assert mean_errors[1] < mean_errors[0]

    def test_too_few_samples(self):
        data = TimeSeriesData(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(EstimationError, match="samples"):
            estimate(data, 2)

    def test_rank_deficient_data(self):
        # constant channel: zero-variance regressor
        values = np.zeros((100, 2))
        values[:, 0] = np.random.default_rng(0).standard_normal(100)
        data = TimeSeriesData(values)
        with pytest.raises(EstimationError, match="rank"):
            estimate(data, 1)

    def test_order_zero_gives_sample_covariance(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((1000, 2))
        fitted = estimate(TimeSeriesData(values), 0)
        centered = values - values.mean(axis=0)
        assert_allclose(fitted.sigma, centered.T @ centered / 1000, atol=1e-12)


class TestSelectOrder:
    def test_bic_recovers_true_order(self):
        data, _ = simulate(two_channel_model(0.5), 20000, burn_in=1000, seed=42)
        assert select_order(data, 6, criterion="bic") == 1

    def test_aic_stays_in_range(self):
        data, _ = simulate(two_channel_model(0.5), 20000, burn_in=1000, seed=42)
        assert 1 <= select_order(data, 6, criterion="aic") <= 6

    def test_unknown_criterion(self):
        data, _ = simulate(two_channel_model(), 500, seed=0)
        with pytest.raises(DomainError, match="criterion"):
            select_order(data, 3, criterion="hqc")

    def test_bad_p_max(self):
        data, _ = simulate(two_channel_model(), 500, seed=0)
        with pytest.raises(DomainError):
            select_order(data, 0)

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_criterion_values_match_per_order_fits(self, seed, k, criterion):
        model = random_stable_model(np.random.default_rng(seed), k)
        data, _ = simulate(model, 3000, seed=seed)
        p_max = 6
        n_eff = data.n_samples - p_max
        penalty = 2.0 if criterion == "aic" else np.log(n_eff)
        reference = []
        for order in range(1, p_max + 1):
            _, logdet = np.linalg.slogdet(estimate(TimeSeriesData(data.values[p_max - order :]), order).sigma)
            reference.append(logdet + penalty * k * k * order / n_eff)
        values = var_model._criterion_values(data.values, p_max, criterion)
        assert_allclose(values, reference, rtol=0.0, atol=1e-12)
        assert select_order(data, p_max, criterion) == int(np.argmin(reference)) + 1

    def test_well_conditioned_candidates_are_not_refitted(self, monkeypatch):
        data, _ = simulate(two_channel_model(0.5), 2000, seed=3)

        def refuse(*args):
            raise AssertionError("estimate called for a candidate the Gram route accepts")

        monkeypatch.setattr(var_model, "estimate", refuse)
        assert select_order(data, 5) == 1

    @pytest.mark.parametrize("degenerate", ["duplicated", "constant"])
    def test_rank_deficient_channel_raises_estimates_message(self, degenerate):
        values = np.random.default_rng(6).standard_normal((500, 3))
        values[:, 2] = values[:, 0] if degenerate == "duplicated" else 3.7
        with pytest.raises(EstimationError, match="rank-deficient") as expected:
            estimate(TimeSeriesData(values[3:]), 1)
        with pytest.raises(EstimationError) as caught:
            select_order(TimeSeriesData(values), 4)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize(
        "n, k, p_max, message",
        [
            (5, 2, 4, "need more than K * order + 1 = 3 samples to fit order 1, got 2"),
            (3, 1, 2, "need more than K * order + 1 = 2 samples to fit order 1, got 2"),
            (6, 2, 6, "need more than K * order + 1 = 3 samples to fit order 1, got 1"),
        ],
    )
    def test_too_few_samples_for_p_max(self, n, k, p_max, message):
        data = TimeSeriesData(np.random.default_rng(0).standard_normal((n, k)))
        with pytest.raises(EstimationError) as caught:
            select_order(data, p_max)
        assert str(caught.value) == message
