import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DomainError,
    FrequencyGrid,
    MeasureKind,
    VarModel,
    evaluate_spectra,
    fixture,
    information_rates,
    measures_from_spectra,
    validate,
)
from varconn.measures import coherence, dc, dtf, gpdc, idtf, ipdc, pdc
from varconn.oracles import random_stable_model

from rescaling import rescale

GRID = FrequencyGrid(64)


def every_measure(model, grid):
    spectra = evaluate_spectra(model, grid)
    return {result.kind: result for result in measures_from_spectra(spectra, MeasureKind)}


class TestCoherence:
    def test_two_channel_magnitude(self):
        # |C_12|^2 = alpha^2 / (1 + alpha^2) = 0.2 for alpha = 0.5
        fx = fixture("two_var_alpha", alpha=0.5)
        spectra = evaluate_spectra(fx.model, GRID)
        values = coherence(spectra).values
        assert_allclose(np.abs(values[:, 0, 1]) ** 2, 0.2, atol=1e-13)
        assert_allclose(np.abs(values[:, 1, 0]) ** 2, 0.2, atol=1e-13)

    def test_diagonal_is_one(self):
        model = random_stable_model(np.random.default_rng(20), 3)
        spectra = evaluate_spectra(model, GRID)
        diagonal = np.einsum("fii->fi", coherence(spectra).values)
        assert float(np.max(np.abs(diagonal - 1.0))) < 1e-12

    def test_independent_channels_have_zero_coherence(self):
        spectra = evaluate_spectra(VarModel(np.zeros((0, 2, 2)), np.diag([1.0, 2.0])), GRID)
        values = coherence(spectra).values
        assert float(np.max(np.abs(values[:, 0, 1]))) < 1e-14


class TestIpdc:
    def test_two_channel_closed_form(self):
        alpha = 0.5
        fx = fixture("two_var_alpha", alpha=alpha)
        spectra = evaluate_spectra(fx.model, GRID)
        values = ipdc(spectra).values
        expected = -alpha * np.exp(-1j * GRID.points) / np.sqrt(1.0 + alpha**2)
        assert_allclose(values[:, 1, 0], expected, atol=1e-14)
        assert_allclose(values[:, 0, 1], 0.0, atol=1e-15)

    def test_indirect_route_is_invisible(self):
        # 0 -> 1 -> 2 chain: no direct 0 -> 2 coupling
        fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
        spectra = evaluate_spectra(fx.model, GRID)
        values = ipdc(spectra).values
        assert_allclose(values[:, 2, 0], 0.0, atol=1e-15)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 4):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            assert float(np.max(np.abs(ipdc(spectra).values))) <= 1.0 + 1e-10

    def test_order_zero_off_diagonal_is_zero(self):
        model = VarModel(np.zeros((0, 2, 2)), np.diag([1.0, 3.0]))
        spectra = evaluate_spectra(model, GRID)
        values = ipdc(spectra).values
        assert_allclose(values[:, 0, 1], 0.0, atol=1e-15)
        assert_allclose(values[:, 1, 0], 0.0, atol=1e-15)


class TestPdcFamily:
    def test_column_normalization(self):
        model = random_stable_model(np.random.default_rng(22), 3)
        spectra = evaluate_spectra(model, GRID)
        for measure in (pdc, gpdc):
            values = measure(spectra).values
            totals = np.sum(np.abs(values) ** 2, axis=1)
            assert_allclose(totals, 1.0, atol=1e-12)

    def test_identity_sigma_collapses_family(self):
        model = random_stable_model(np.random.default_rng(23), 3, sigma_kind="identity")
        spectra = evaluate_spectra(model, GRID)
        classical, generalized, info = pdc(spectra).values, gpdc(spectra).values, ipdc(spectra).values
        assert float(np.max(np.abs(classical - generalized))) < 1e-14
        assert float(np.max(np.abs(classical - info))) < 1e-14

    def test_diagonal_sigma_collapses_gpdc_and_ipdc(self):
        model = random_stable_model(np.random.default_rng(24), 3, sigma_kind="diagonal")
        spectra = evaluate_spectra(model, GRID)
        assert float(np.max(np.abs(gpdc(spectra).values - ipdc(spectra).values))) < 1e-13


class TestDtfFamily:
    def test_row_normalization(self):
        model = random_stable_model(np.random.default_rng(25), 3)
        spectra = evaluate_spectra(model, GRID)
        for measure in (dtf, dc):
            values = measure(spectra).values
            totals = np.sum(np.abs(values) ** 2, axis=2)
            assert_allclose(totals, 1.0, atol=1e-12)

    def test_identity_sigma_collapses_family(self):
        model = random_stable_model(np.random.default_rng(26), 3, sigma_kind="identity")
        spectra = evaluate_spectra(model, GRID)
        classical, directed, info = dtf(spectra).values, dc(spectra).values, idtf(spectra).values
        assert float(np.max(np.abs(classical - directed))) < 1e-14
        assert float(np.max(np.abs(classical - info))) < 1e-14

    def test_diagonal_sigma_collapses_dc_and_idtf(self):
        model = random_stable_model(np.random.default_rng(27), 4, sigma_kind="diagonal")
        spectra = evaluate_spectra(model, GRID)
        assert float(np.max(np.abs(dc(spectra).values - idtf(spectra).values))) < 1e-13


class TestIdtf:
    def test_chain_closed_forms(self):
        alpha, beta = 0.5, 1.0
        fx = fixture("three_var_alpha_beta", alpha=alpha, beta=beta)
        spectra = evaluate_spectra(fx.model, GRID)
        values = idtf(spectra).values
        w = GRID.points
        chain = np.sqrt(1.0 + beta**2 + (alpha * beta) ** 2)
        assert_allclose(values[:, 2, 0], alpha * beta * np.exp(-2j * w) / chain, atol=1e-14)
        assert_allclose(values[:, 2, 1], beta * np.exp(-1j * w) / chain, atol=1e-14)
        # no feedback: upstream entries vanish
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert_allclose(values[:, i, j], 0.0, atol=1e-15)

    def test_severed_chain_kills_downstream_entry(self):
        fx = fixture("three_var_alpha_beta", alpha=0.0, beta=1.0)
        spectra = evaluate_spectra(fx.model, GRID)
        values = idtf(spectra).values
        assert_allclose(values[:, 2, 0], 0.0, atol=1e-15)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(28)
        for k in (2, 3, 4):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            assert float(np.max(np.abs(idtf(spectra).values))) <= 1.0 + 1e-10


class TestKindNames:
    UNKNOWN_MEASURE = "unknown measure 'foo', expected one of coh, pdc, gpdc, ipdc, dtf, dc, idtf"
    ENTRY_POINTS = {
        "measures_from_spectra": (lambda spectra: list(measures_from_spectra(spectra, ["foo"])), UNKNOWN_MEASURE),
        "information_rates": (
            lambda spectra: information_rates(fixture("two_var_alpha", alpha=0.5).model, GRID, ["foo"]),
            "unknown rate kind 'foo', expected one of ipdc, idtf, coh",
        ),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_unknown_name_is_a_domain_error(self, entry):
        fx = fixture("two_var_alpha", alpha=0.5)
        spectra = evaluate_spectra(fx.model, GRID)
        call, message = self.ENTRY_POINTS[entry]
        with pytest.raises(DomainError, match=message):
            call(spectra)


class TestAllMeasures:
    def test_returns_all_seven_kinds(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        results = every_measure(fx.model, GRID)
        assert set(results) == set(MeasureKind)
        for result in results.values():
            assert result.values.shape == (GRID.n_points, 2, 2)

    def test_two_channel_information_measures_coalesce_off_diagonal(self):
        # K = 2 only, and only off the diagonal; sigma need not be diagonal
        rng = np.random.default_rng(29)
        for _ in range(10):
            model = random_stable_model(rng, 2)
            results = every_measure(model, GRID)
            a = np.abs(results[MeasureKind.IPDC].values)
            b = np.abs(results[MeasureKind.IDTF].values)
            for i, j in ((0, 1), (1, 0)):
                assert float(np.max(np.abs(a[:, i, j] - b[:, i, j]))) < 1e-12

    def test_scale_invariance_of_information_measures(self):
        fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
        gains = np.array([2.0, 1.0, 0.5])
        scaled = rescale(fx.model, gains)
        base = every_measure(fx.model, GRID)
        moved = every_measure(scaled, GRID)
        for kind in (MeasureKind.IPDC, MeasureKind.IDTF, MeasureKind.GPDC):
            deviation = float(np.max(np.abs(np.abs(base[kind].values) - np.abs(moved[kind].values))))
            assert deviation < 1e-12, kind
        pdc_change = float(
            np.max(np.abs(np.abs(base[MeasureKind.PDC].values) - np.abs(moved[MeasureKind.PDC].values)))
        )
        assert pdc_change > 0.01

    def test_zeroed_coupling_removes_directed_measures(self):
        rng = np.random.default_rng(30)
        found = 0
        while found < 3:
            model = random_stable_model(rng, 2)
            severed_coeffs = np.array(model.coeffs)
            severed_coeffs[:, 1, 0] = 0.0
            severed = VarModel(severed_coeffs, model.sigma)
            if not (validate(severed).stable and float(np.max(np.abs(model.coeffs[:, 1, 0]))) > 0.05):
                continue
            found += 1
            spectra = evaluate_spectra(severed, GRID)
            results = every_measure(severed, GRID)
            assert float(np.max(np.abs(spectra.h_bar[:, 1, 0]))) < 1e-12
            assert float(np.max(np.abs(results[MeasureKind.IPDC].values[:, 1, 0]))) < 1e-12
            assert float(np.max(np.abs(results[MeasureKind.IDTF].values[:, 1, 0]))) < 1e-12
