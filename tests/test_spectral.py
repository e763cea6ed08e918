import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    NumericalError,
    SpectralSet,
    VarModel,
    evaluate_spectra,
    fixture,
    idtf,
    partialized_cross_spectra,
    random_stable_model,
)

GRID = FrequencyGrid.default(64)


class TestFrequencyGrid:
    def test_default_spans_zero_to_pi(self):
        grid = FrequencyGrid.default(128)
        assert grid.n_points == 128
        assert grid.points[0] == 0.0
        assert_allclose(grid.points[-1], np.pi)

    def test_single_point(self):
        assert FrequencyGrid.default(1).points[0] == 0.0

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            FrequencyGrid([0.0, 2.0, 1.0, np.pi])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            FrequencyGrid([0.0, 4.0])

    def test_rejects_missing_endpoints(self):
        with pytest.raises(DomainError):
            FrequencyGrid([0.1, np.pi])
        with pytest.raises(DomainError):
            FrequencyGrid([0.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            FrequencyGrid([])


class TestEvaluateSpectra:
    def test_two_channel_closed_forms(self):
        alpha = 0.5
        fx = fixture("two_var_alpha", alpha=alpha)
        spectra = evaluate_spectra(fx.model, GRID)
        w = GRID.points
        phase = np.exp(-1j * w)
        assert_allclose(spectra.a_bar[:, 0, 0], 1.0, atol=1e-14)
        assert_allclose(spectra.a_bar[:, 1, 0], -alpha * phase, atol=1e-14)
        assert_allclose(spectra.a_bar[:, 0, 1], 0.0, atol=1e-14)
        assert_allclose(spectra.h_bar[:, 1, 0], alpha * phase, atol=1e-14)
        assert_allclose(spectra.s[:, 0, 0], 1.0, atol=1e-14)
        assert_allclose(spectra.s[:, 1, 1], 1.0 + alpha**2, atol=1e-14)
        assert_allclose(spectra.s[:, 1, 0], alpha * phase, atol=1e-14)
        assert_allclose(spectra.s[:, 0, 1], alpha * np.conj(phase), atol=1e-14)

    def test_order_zero_spectrum_is_sigma(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        spectra = evaluate_spectra(VarModel.white_noise(sigma), GRID)
        assert_allclose(spectra.a_bar, np.broadcast_to(np.eye(2), spectra.a_bar.shape), atol=1e-15)
        assert_allclose(spectra.s, np.broadcast_to(sigma, spectra.s.shape), atol=1e-14)

    def test_inverse_reconstructions(self):
        rng = np.random.default_rng(10)
        eye = None
        for k in (2, 3, 5):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            eye = np.eye(k)
            assert float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))) < 1e-12
            assert float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))) < 1e-10

    def test_spectrum_is_hermitian_with_positive_diagonal(self):
        model = random_stable_model(np.random.default_rng(11), 4)
        spectra = evaluate_spectra(model, GRID)
        assert_allclose(spectra.s, spectra.s.conj().transpose(0, 2, 1), atol=1e-12)
        diagonal = np.einsum("fii->fi", spectra.s)
        assert np.all(diagonal.real > 0)
        assert float(np.max(np.abs(diagonal.imag))) < 1e-14

    def test_unstable_model_refused(self):
        model = VarModel([[[1.1, 0.0], [0.0, 0.5]]], np.eye(2))
        with pytest.raises(NumericalError, match="stable"):
            evaluate_spectra(model, GRID)

    def test_near_singular_a_bar_refused(self):
        # stable double root at 1 - 2e-8 drives cond(A_bar(0)) past the limit
        r = 1.0 - 2e-8
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 0] = 2 * r
        coeffs[1, 0, 0] = -r * r
        model = VarModel(coeffs, np.eye(2))
        with pytest.raises(NumericalError, match="singular"):
            evaluate_spectra(model, GRID)


def double_root_model(eps, basis=None):
    # the family of test_near_singular_a_bar_refused: a stable double root at 1 - eps on
    # channel 0, so A_bar(0) holds (1 - r)^2 = eps^2; `basis` rotates it into K channels
    r = 1.0 - eps
    k = 2 if basis is None else basis.shape[0]
    coeffs = np.zeros((2, k, k))
    coeffs[0, 0, 0] = 2 * r
    coeffs[1, 0, 0] = -r * r
    if basis is not None:
        coeffs = basis @ coeffs @ basis.T
    return VarModel(coeffs, np.eye(k))


def a_bar_at(model, omega):
    return np.eye(model.K) - sum(a * np.exp(-1j * omega * lag) for lag, a in enumerate(model.coeffs, start=1))


ROTATION_16 = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))[0]


class TestConditionGuard:
    """The guard reads kappa_1 = ||A_bar||_1 ||H_bar||_1; np.linalg.cond (SVD) is the reference."""

    def test_accepts_below_the_limit(self):
        # kappa = 1 / eps^2 = 1e10
        spectra = evaluate_spectra(double_root_model(1e-5), GRID)
        assert np.all(np.isfinite(spectra.h_bar))

    @pytest.mark.parametrize(
        "eps, basis",
        [
            (1e-6, None),
            (2e-8, None),
            # kappa_2 = 4.4e11 passes a 2-norm guard; kappa_1 = 3.6 kappa_2 is refused
            (1.5e-6, ROTATION_16),
            (2e-8, ROTATION_16),
        ],
    )
    def test_refusal_quotes_kappa_1_of_the_worst_frequency(self, eps, basis):
        model = double_root_model(eps, basis)
        with pytest.raises(NumericalError, match="singular") as caught:
            evaluate_spectra(model, GRID)
        found = re.search(r"omega = (\S+) \(condition number (\S+) exceeds 1e\+12\)", str(caught.value))
        omega, kappa = float(found[1]), float(found[2])
        assert omega in GRID.points
        a_bar = a_bar_at(model, omega)
        # the message prints 4 significant digits
        assert kappa == pytest.approx(np.linalg.cond(a_bar, 1), rel=5e-4)
        kappa_2 = np.linalg.cond(a_bar)
        assert kappa_2 / model.K <= kappa <= model.K * kappa_2

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_inverse_refused(self, monkeypatch, bad):
        inv = np.linalg.inv

        def broken(a):
            out = inv(a)
            if out.ndim == 3:
                out[5, 0, 1] = bad
            return out

        monkeypatch.setattr(np.linalg, "inv", broken)
        with pytest.raises(NumericalError, match=f"singular at omega = {GRID.points[5]:.6g} "):
            evaluate_spectra(fixture("two_var_alpha", alpha=0.5).model, GRID)

    def test_zero_pivot_refused(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalError, match=r"singular .*condition number inf"):
            evaluate_spectra(fixture("two_var_alpha", alpha=0.5).model, GRID)


class TestSpectralSet:
    def test_arrays_are_locked_not_copied(self):
        names = ("a_bar", "h_bar", "s", "s_inv")
        model = fixture("two_var_alpha", alpha=0.5).model
        spectra = evaluate_spectra(model, GRID)
        assert not any(getattr(spectra, name).flags.writeable for name in names)
        given = {name: np.array(getattr(spectra, name)) for name in ("a_bar", "h_bar")}
        held = SpectralSet(grid=GRID, sigma=model.sigma, **given)
        for name, array in given.items():
            assert np.shares_memory(getattr(held, name), array), name
            assert not array.flags.writeable, name
        # S and S^-1 are assembled on first access, locked, and kept
        assert not {"s", "s_inv"} & vars(held).keys()
        for name in ("s", "s_inv"):
            assembled = getattr(held, name)
            assert not assembled.flags.writeable, name
            assert getattr(held, name) is assembled, name


def partial_spectra(spectra):
    # the partial spectrum of each channel, 1 / [S^-1]_kk
    return 1.0 / np.diagonal(spectra.s_inv, axis1=1, axis2=2).real


class TestPartialize:
    def test_two_channel_closed_forms(self):
        alpha = 0.5
        fx = fixture("two_var_alpha", alpha=alpha)
        spectra = evaluate_spectra(fx.model, GRID)
        expected = (1.0 / (1.0 + alpha**2), 1.0)
        for j, value in enumerate(expected):
            assert_allclose(partial_spectra(spectra)[:, j], value, atol=1e-14)
            assert_allclose(partialized_cross_spectra(spectra, j)[:, j].real, value, atol=1e-14)

    def test_partial_power_never_exceeds_autospectrum(self):
        rng = np.random.default_rng(12)
        for k in (2, 4):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            partial = partial_spectra(spectra)
            auto = np.einsum("fii->fi", spectra.s).real
            assert np.all(partial > 0)
            assert np.all(partial <= auto + 1e-12)

    def test_rho_never_exceeds_sigma_diagonal(self):
        # |iDTF_ij|^2 S_ii = rho_j |H_bar_ij|^2 with rho_j the partialized
        # innovation variance, so rho_j <= sigma_jj bounds it by sigma_jj |H_bar_ij|^2
        model = random_stable_model(np.random.default_rng(14), 4)
        spectra = evaluate_spectra(model, GRID)
        auto = np.einsum("fii->fi", spectra.s).real
        scaled = np.abs(idtf(spectra).values) ** 2 * auto[:, :, None]
        assert np.all(scaled <= np.diag(model.sigma) * np.abs(spectra.h_bar) ** 2 + 1e-12)

    def test_single_channel_partialization_is_identity(self):
        model = VarModel(np.array([[[0.5]]]), np.eye(1))
        spectra = evaluate_spectra(model, GRID)
        # nothing to deduct: the partial spectrum is the autospectrum
        assert_allclose(spectra.s_inv[:, 0, 0] * spectra.s[:, 0, 0], 1.0, rtol=0, atol=1e-14)
        # nothing to partialize against: rho = sigma, so |iDTF| is 1
        assert_allclose(np.abs(idtf(spectra).values), 1.0, atol=1e-14)


class TestPartialSpectrumViaLemma:
    def test_agrees_with_block_elimination(self):
        rng = np.random.default_rng(15)
        for k in (2, 3, 5):
            model = random_stable_model(rng, k)
            spectra = evaluate_spectra(model, GRID)
            partial = partial_spectra(spectra)
            for j in range(k):
                schur = partialized_cross_spectra(spectra, j)[:, j].real
                assert float(np.max(np.abs(schur - partial[:, j]))) < 1e-10

