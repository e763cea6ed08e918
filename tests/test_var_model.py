import tracemalloc

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
    estimate,
    select_order,
    simulate,
    validate,
)
from varconn import var_model
from varconn.oracles import random_stable_model
from varconn.var_model import companion_matrix, rescale


def two_channel_model(alpha=0.5):
    return VarModel([[[0.0, 0.0], [alpha, 0.0]]], np.eye(2))


#: Samples per block of simulate's recursion at K = 4.
M4 = var_model._simulation_block(4)


class TestVarModel:
    def test_single_matrix_is_order_one(self):
        model = VarModel(np.zeros((2, 2)), np.eye(2))
        assert model.p == 1
        assert model.K == 2

    def test_white_noise_constructor(self):
        model = VarModel(np.zeros((0, 3, 3)), np.eye(3))
        assert model.p == 0
        assert model.K == 3

    def test_coeff_shape_mismatch(self):
        with pytest.raises(DimensionError):
            VarModel(np.zeros((1, 3, 3)), np.eye(2))

    def test_no_channels(self):
        with pytest.raises(DimensionError, match="need at least one channel"):
            VarModel(np.zeros((0, 0, 0)), np.zeros((0, 0)))

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

    def test_caller_array_is_copied_and_adopted_array_is_not(self):
        values = np.ones((3, 2))
        data = TimeSeriesData(values)
        values[0, 0] = 5.0
        assert data.values[0, 0] == 1.0
        assert not data.values.flags.writeable
        adopted = TimeSeriesData._adopt(values)
        assert np.shares_memory(adopted.values, values)
        assert not adopted.values.flags.writeable
        with pytest.raises(DomainError):
            TimeSeriesData._adopt(np.full((2, 2), np.inf))


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
        report = validate(VarModel(np.zeros((0, 2, 2)), np.eye(2)))
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
        # the two-channel model, and K=4, p=3 over several blocks and a short last one
        for k, p in [(2, 1), (4, 3)]:
            model = two_channel_model() if p == 1 else random_stable_model(np.random.default_rng(k), k, p=p)
            n = 5 * var_model._simulation_block(k) + 3
            samples, innovations = simulate(model, n, burn_in=0, seed=3)
            x = np.vstack([np.zeros((p, k)), samples.values])  # the zero history before sample 0
            for t in range(n):
                lags = sum(model.coeffs[lag] @ x[p + t - lag - 1] for lag in range(p))
                assert np.max(np.abs(x[p + t] - lags - innovations.values[t])) <= 1e-12, (k, p, t)

    def test_order_zero_output_equals_innovations(self):
        samples, innovations = simulate(VarModel(np.zeros((0, 2, 2)), np.eye(2)), 1, burn_in=0, seed=5)
        assert np.array_equal(samples.values, innovations.values)

    @pytest.mark.parametrize("k", [2, 5, 16, 64])
    def test_block_operators_stay_small(self, k):
        # the block shrinks as K grows, so T and G stay within 1 MiB
        model = random_stable_model(np.random.default_rng(k), k, p=2)
        t, g = var_model._block_operators(model, var_model._simulation_block(k))
        assert max(t.nbytes, g.nbytes) <= 2**20

    def test_peak_memory_stays_near_the_returned_arrays(self):
        # the draw and the samples, handed over without a copy: 1.068x the
        # returned bytes (the burn-in rows stay under the returned views), plus
        # 5%; a copy of either array, a whole-series product or a block operator
        # that grows with n would exceed the bound
        model = random_stable_model(np.random.default_rng(5), 5, p=3)
        tracemalloc.start()
        try:
            samples, innovations = simulate(model, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.12 * (samples.values.nbytes + innovations.values.nbytes)

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
        "case, n_samples, burn_in",
        [
            (0, 300, 50),
            (1, 300, 50),
            (3, 300, 50),
            (3, 300, 0),
            (3, 1, 0),
            (1, 1, 20),
            # totals of m - 1, m and m + 1 samples for a block of m
            (3, M4 - 1, 0),
            (3, M4, 0),
            (3, M4 + 1, 0),
            (3, 300, M4 + 5),  # the burn-in ends inside a block
            ("K1p5", 20000, 1000),
            ("K64p2", 20000, 1000),
            ("non_normal", 20000, 1000),
            ("K2p1_near_unit_root", 20000, 1000),
            ("K5p3_near_unit_root", 20000, 1000),
        ],
    )
    def test_flat_recursion_matches_per_lag_loop(self, case, n_samples, burn_in):
        model = simulation_model(case)
        samples, innovations = simulate(model, n_samples, burn_in=burn_in, seed=8)
        reference, reference_innovations = per_lag_simulation(model, n_samples, burn_in, seed=8)
        assert np.array_equal(innovations.values, reference_innovations)
        # the summation order differs, so only the last digits may move
        assert np.max(np.abs(samples.values - reference)) <= 1e-13 * np.max(np.abs(reference))


def simulation_model(case):
    """A model for the recursion checks.

    An integer p is a random K=4 model of order p (white noise on two
    channels for p = 0); a name is a random model "K<k>p<p>", a non-normal
    one, or a random one scaled to a near unit root.
    """
    if case == 0:
        return VarModel(np.zeros((0, 2, 2)), np.diag([1.0, 2.0]))
    if isinstance(case, int):
        return random_stable_model(np.random.default_rng(case), 4, p=case)
    name = case
    if name == "non_normal":
        return VarModel([[[0.9, 50.0], [0.0, 0.9]]], np.eye(2))
    k, p = int(name[1 : name.index("p")]), int(name[name.index("p") + 1])
    model = random_stable_model(np.random.default_rng(p), k, p=p)
    if not name.endswith("near_unit_root"):
        return model
    # A(l) -> c^l A(l) scales every companion eigenvalue by c
    c = (1.0 - 2e-8) / validate(model).spectral_radius
    return VarModel(model.coeffs * c ** np.arange(1, p + 1)[:, None, None], model.sigma)


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

    def test_negative_order_refused(self):
        data, _ = simulate(two_channel_model(0.5), 100, burn_in=0, seed=0)
        with pytest.raises(DomainError, match="order must be >= 0, got -1"):
            estimate(data, -1)

    def test_white_noise_coefficients_near_zero(self):
        data, _ = simulate(VarModel(np.zeros((0, 2, 2)), np.eye(2)), 20000, burn_in=0, seed=1)
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

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_matches_lstsq_on_the_centred_design(self, k, order):
        # the route estimate left: the whole design and np.linalg.lstsq
        model = random_stable_model(np.random.default_rng(10 * k + order), k, p=order)
        data, _ = simulate(model, 3000, seed=order)
        coeffs, sigma = lstsq_fit(data.values, order)
        fitted = estimate(data, order)
        assert relative_gap(fitted.coeffs, coeffs) <= 1e-12
        assert relative_gap(fitted.sigma, sigma) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 7, "series"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_results_do_not_depend_on_the_chunk(self, monkeypatch, k, rows):
        # a chunk of `rows` rows, raised to as many rows as the design has columns
        data, _ = simulate(random_stable_model(np.random.default_rng(k), k, p=2), 1500, seed=k)
        p_max = 4
        fits = [estimate(data, order) for order in range(4)]
        criteria = var_model._criterion_values(data.values, p_max, "bic")

        def budget(width):
            return 8 * width * (data.n_samples if rows == "series" else rows)

        for order, fitted in enumerate(fits):
            monkeypatch.setattr(var_model, "_CHUNK_BYTES", budget(k * (order + 1)))
            chunked = estimate(data, order)
            assert relative_gap(chunked.coeffs, fitted.coeffs) <= 1e-13
            assert relative_gap(chunked.sigma, fitted.sigma) <= 1e-13
        monkeypatch.setattr(var_model, "_CHUNK_BYTES", budget(k * (p_max + 1)))
        assert relative_gap(var_model._criterion_values(data.values, p_max, "bic"), criteria) <= 1e-13


def lstsq_fit(values, order):
    """Coefficients and residual covariance of np.linalg.lstsq on the whole centred design."""
    x = values - values.mean(axis=0)
    n, k = x.shape
    regressors = np.hstack([x[order - lag : n - lag] for lag in range(1, order + 1)])
    solution, _, rank, _ = np.linalg.lstsq(regressors, x[order:], rcond=None)
    assert rank == k * order
    residuals = x[order:] - regressors @ solution
    return solution.reshape(order, k, k).transpose(0, 2, 1), residuals.T @ residuals / (n - order)


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want))) if np.size(want) else 0.0


def test_fit_peak_memory_does_not_grow_with_n():
    # the whole p_max = 10 design alone is about 84 MiB at n = 200,000; the row
    # chunks keep the peak of either call near a few chunks whatever n is
    model = random_stable_model(np.random.default_rng(5), 5, p=3)
    peaks = {}
    for n in (20_000, 200_000):
        data, _ = simulate(model, n, seed=1)
        for name, call in (("select_order", lambda: select_order(data, 10)), ("estimate", lambda: estimate(data, 3))):
            tracemalloc.start()
            try:
                call()
                peaks[name, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for name in ("select_order", "estimate"):
        assert peaks[name, 200_000] < 4 * 2**20, peaks
        assert abs(peaks[name, 200_000] - peaks[name, 20_000]) < 0.5 * 2**20, peaks


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
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
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

    def test_refused_candidate_is_fitted_without_copying_the_samples(self):
        # a duplicated channel sends every candidate to estimate; a copy of its
        # window would take 4.58 MiB here, as much as the samples
        x = np.random.default_rng(7).standard_normal((200_000, 2))
        data = TimeSeriesData(np.column_stack([x, x[:, 0]]))
        tracemalloc.start()
        try:
            with pytest.raises(EstimationError, match="rank-deficient"):
                select_order(data, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.values.nbytes / 4, peak

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
