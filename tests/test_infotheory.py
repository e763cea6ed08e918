import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import varconn.measures
from varconn import (
    DomainError,
    EPS_CLIP,
    FrequencyGrid,
    MeasureKind,
    MeasureResult,
    coherence,
    evaluate_spectra,
    fixture,
    geweke_hosoya_bridge,
    random_stable_model,
    rates_from_spectra,
)
from varconn.infotheory import _TrapezoidSum, _block_size, _integrate

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz

GRID = FrequencyGrid.default(512)


def rate(model, grid, kind):
    return rates_from_spectra(evaluate_spectra(model, grid), [kind])[kind]


def constant_profile_rate(s):
    # a 1x1 measure whose squared magnitude is s at every grid point
    values = np.full((GRID.n_points, 1, 1), math.sqrt(s), dtype=complex)
    return _integrate(MeasureKind.IPDC, [MeasureResult(MeasureKind.IPDC, values)], GRID.points)


class TestClip:
    def test_passthrough_below_limit(self):
        values = np.array([0.0, 0.5, 0.9])
        mapped, n_clipped = geweke_hosoya_bridge(values)
        assert n_clipped == 0
        assert_allclose(1.0 - np.exp(-mapped), values, rtol=0, atol=1e-15)

    def test_clips_and_counts(self):
        for values, expected in (([0.5, 1.0, 1.0 + 1e-10], 2), ([0.5, 1.0], 1)):
            mapped, n_clipped = geweke_hosoya_bridge(values)
            assert n_clipped == expected
            assert np.all(np.isfinite(mapped))
            assert float(np.max(mapped)) == -math.log1p(-(1.0 - EPS_CLIP))

    def test_rejects_bound_violations(self):
        with pytest.raises(DomainError, match="exceeds 1"):
            geweke_hosoya_bridge([0.5, 1.5])
        with pytest.raises(DomainError, match="negative"):
            geweke_hosoya_bridge([-0.5])


class TestMirFromCoherence:
    def test_constant_profile_is_analytic(self):
        # MIR of a constant s is -log(1 - s) / 2
        value = constant_profile_rate(0.2).values[0, 0]
        assert abs(value - 0.5 * math.log(1.25)) < 1e-14

    def test_constant_profiles_from_exponentials(self):
        # s = 1 - exp(-c) integrates to c / 2
        for c in (1.0, 2.0):
            value = constant_profile_rate(1.0 - math.exp(-c)).values[0, 0]
            assert abs(value - c / 2.0) < 1e-13

    def test_zero_profile_gives_zero(self):
        rates = constant_profile_rate(0.0)
        assert rates.values[0, 0] == 0.0
        assert rates.n_clipped == 0

    def test_unit_profile_is_clipped_finite(self):
        # representation error of 1 - EPS_CLIP perturbs the log by ~1e-4
        rates = constant_profile_rate(1.0)
        assert rates.n_clipped == GRID.n_points
        assert math.isfinite(rates.values[0, 0])
        assert abs(rates.values[0, 0] - (-0.5 * math.log(EPS_CLIP))) < 1e-3


class TestMirMatrices:
    def test_two_channel_rates(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = rate(fx.model, GRID, "ipdc")
        assert abs(rates.values[1, 0] - 0.5 * math.log(1.25)) < 1e-10
        assert rates.values[0, 1] == 0.0

    def test_one_point_grid_refused(self):
        # a one-point trapezoid integrates to 0 whatever the measure
        fx = fixture("two_var_alpha", alpha=0.5)
        with pytest.raises(DomainError, match="at least 2 points, got 1"):
            rate(fx.model, FrequencyGrid.default(1), "ipdc")

    def test_saturated_diagonal_is_clipped_and_counted(self):
        # channel 1 drives nothing, so its own-innovation coherence is exactly
        # 1 everywhere: the diagonal rate diverges and must be clipped
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = rate(fx.model, GRID, "ipdc")
        assert rates.n_clipped == GRID.n_points
        assert math.isfinite(rates.values[1, 1])
        assert rates.values[1, 1] > 10.0
        # representation error of 1 - EPS_CLIP perturbs the log by ~1e-4
        assert abs(rates.values[1, 1] - (-0.5 * math.log(EPS_CLIP))) < 1e-3
        assert abs(rates.values[0, 0] - 0.5 * math.log(5.0)) < 1e-10

    def test_chain_rates(self):
        fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
        rates = rate(fx.model, GRID, "idtf")
        # |idtf_31|^2 = 1/9 constant
        assert abs(rates.values[2, 0] - 0.5 * math.log(9.0 / 8.0)) < 1e-10
        assert rates.values[0, 2] == 0.0
        ipdc_rates = rate(fx.model, GRID, "ipdc")
        # direct chain links carry rate; the skipped link does not
        assert ipdc_rates.values[2, 1] > 0.1
        assert ipdc_rates.values[2, 0] == 0.0

    def test_coherence_rates_symmetric_with_zero_diagonal(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = rate(fx.model, GRID, "coh")
        assert rates.values[0, 0] == 0.0
        assert rates.values[1, 1] == 0.0
        assert rates.n_clipped == 0
        assert abs(rates.values[0, 1] - rates.values[1, 0]) < 1e-14
        assert abs(rates.values[0, 1] - 0.5 * math.log(1.25)) < 1e-10

    def test_rates_are_nonnegative(self):
        model = random_stable_model(np.random.default_rng(40), 4)
        for rates in rates_from_spectra(evaluate_spectra(model, GRID), ["ipdc", "idtf", "coh"]).values():
            assert float(np.min(rates.values)) >= 0.0

    def test_quadrature_refinement_leaves_fixture_rates_unchanged(self):
        for name, params in (
            ("two_var_alpha", {"alpha": 0.5}),
            ("three_var_alpha_beta", {"alpha": 0.5, "beta": 1.0}),
        ):
            fx = fixture(name, **params)
            coarse = rate(fx.model, FrequencyGrid.default(256), "ipdc").values
            base = rate(fx.model, FrequencyGrid.default(512), "ipdc").values
            fine = rate(fx.model, FrequencyGrid.default(1024), "ipdc").values
            assert float(np.max(np.abs(base - fine))) < 1e-8
            assert float(np.max(np.abs(base - coarse))) < 1e-8

    def test_quadrature_converges_on_random_model(self):
        model = random_stable_model(np.random.default_rng(41), 3, max_radius=0.7)
        base = rate(model, FrequencyGrid.default(512), "ipdc").values
        fine = rate(model, FrequencyGrid.default(2048), "ipdc").values
        assert float(np.max(np.abs(base - fine))) < 1e-5


class TestInfoDensity:
    def test_coherence_density_zeroes_diagonal(self):
        # a channel's coherence with itself is 1, which would saturate the
        # integrand; the coherence diagonal is left out of the rate instead
        fx = fixture("two_var_alpha", alpha=0.5)
        measure = coherence(evaluate_spectra(fx.model, GRID))
        diagonal = np.abs(np.einsum("fii->fi", measure.values)) ** 2
        assert_allclose(diagonal, 1.0, rtol=0, atol=1e-14)
        rates = _integrate(measure.kind, [measure], GRID.points)
        assert rates.values[0, 0] == 0.0
        assert rates.values[1, 1] == 0.0
        assert rates.n_clipped == 0


class TestRatesFromSpectra:
    def test_refuses_non_rate_kind_before_building_any_measure(self, monkeypatch):
        fx = fixture("two_var_alpha", alpha=0.5)
        spectra = evaluate_spectra(fx.model, GRID)

        def refuse(*args, **kwargs):
            raise AssertionError("a measure was built before the kinds were checked")

        for name in ("coherence", "ipdc", "pdc_family"):
            monkeypatch.setattr(varconn.measures, name, refuse)
        with pytest.raises(DomainError, match="'pdc'"):
            rates_from_spectra(spectra, ["ipdc", "pdc"])


class TestBlockBoundaries:
    """Integrands fed block by block sum to np.trapezoid over the whole grid, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_accumulator_matches_whole_grid_trapezoid(self, k):
        size = _block_size(k)
        rng = np.random.default_rng(70 + k)
        for n_points in (2, 3, size - 1, size, size + 1, 2 * size + 1):
            omega = FrequencyGrid.default(n_points).points
            squared = rng.uniform(0.0, 1.0, size=(n_points, k, k))
            # saturated rows in several blocks, each entry clipped
            squared[:: size // 2] = 1.0
            whole, expected_clipped = geweke_hosoya_bridge(squared)
            integral, n_clipped = _TrapezoidSum(omega), 0
            for start in range(0, n_points, size):
                integrand, clipped = geweke_hosoya_bridge(squared[start : start + size])
                integral.add(integrand)
                n_clipped += clipped
            assert np.array_equal(integral.result(), trapezoid(whole, omega, axis=0)), n_points
            assert n_clipped == expected_clipped > 0, n_points


class TestPeakMemory:
    def test_rates_hold_a_bar_h_bar_and_one_block(self):
        # one complex (2048, 16, 16) array is 8 MiB; holding S, S^-1 and each
        # whole-grid measure besides A_bar and H_bar peaks near 56 MiB
        model = random_stable_model(np.random.default_rng(16), 16, p=4)
        tracemalloc.start()
        try:
            rates_from_spectra(evaluate_spectra(model, FrequencyGrid.default(2048)), ["ipdc", "idtf", "coh"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 2**20


class TestBridge:
    def test_known_value(self):
        values, n_clipped = geweke_hosoya_bridge(np.array([0.0, 0.2]))
        assert n_clipped == 0
        assert values[0] == 0.0
        assert abs(values[1] - math.log(1.25)) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        squared = rng.uniform(0.0, 0.99, size=256)
        values, n_clipped = geweke_hosoya_bridge(squared)
        assert n_clipped == 0
        recovered = 1.0 - np.exp(-values)
        assert float(np.max(np.abs(recovered - squared))) < 1e-14

    def test_clip_count_reported(self):
        # a stacked (n_points, K, K) block as _integrate hands the bridge: the
        # count covers every point and entry, and the shape is kept
        squared = np.full((3, 2, 2), 0.2)
        squared[:, 1, 1] = 1.0
        squared[0, 0, 1] = 1.0
        values, n_clipped = geweke_hosoya_bridge(squared)
        assert n_clipped == 4
        assert values.shape == (3, 2, 2)
        assert np.all(np.isfinite(values))
        assert abs(values[2, 0, 1] - math.log(1.25)) < 1e-15


class TestSymmetryCheck:
    def test_directional_asymmetry_is_visible(self):
        # rates need not be symmetric even though each integrand is
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = rate(fx.model, GRID, "ipdc")
        assert rates.values[1, 0] > 0.1
        assert rates.values[0, 1] == 0.0
