import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DomainError,
    FrequencyGrid,
    NumericalError,
    VarModel,
    evaluate_spectra,
    fixture,
)
from varconn.measures import idtf
from varconn.oracles import _inverse_spectrum, partialized_cross_spectra, random_stable_model
from varconn.spectral import _block_size, _spectral_blocks

GRID = FrequencyGrid(64)


class TestFrequencyGrid:
    def test_default_spans_zero_to_pi(self):
        grid = FrequencyGrid(128)
        assert grid.n_points == 128
        assert grid.points[0] == 0.0
        assert_allclose(grid.points[-1], np.pi)

    def test_single_point(self):
        assert FrequencyGrid(1).points[0] == 0.0

    @pytest.mark.parametrize("n_points", [1, 2, 512, 2048])
    def test_points_are_a_read_only_linspace(self, n_points):
        points = FrequencyGrid(n_points).points
        assert points.tobytes() == np.linspace(0.0, np.pi, n_points).tobytes()
        assert not points.flags.writeable

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_rejects_fewer_than_one_point(self, n_points):
        with pytest.raises(DomainError, match=f"n_points must be >= 1, got {n_points}"):
            FrequencyGrid(n_points)


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
        spectra = evaluate_spectra(VarModel(np.zeros((0, 2, 2)), sigma), GRID)
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
            assert float(np.max(np.abs(spectra.s @ _inverse_spectrum(spectra) - eye))) < 1e-10

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


class TestBlockWalk:
    """_spectral_blocks walks the grid in blocks; evaluate_spectra is its one-block walk."""

    @pytest.mark.parametrize(
        "k, n_points, size",
        [
            pytest.param(1, 20000, None, id="1-20000"),
            pytest.param(2, 9000, None, id="2-9000"),
            pytest.param(16, 1001, None, id="16-1001"),
            pytest.param(64, 103, None, id="64-103"),
            # a last block of one row, whose A_bar product once took matmul's matrix-vector path
            pytest.param(8, 257, None, id="8-257"),
            pytest.param(16, 129, None, id="16-129"),
            pytest.param(8, 33, 1, id="8-33-size1"),
        ],
    )
    def test_blocks_equal_slices_of_the_whole_grid(self, k, n_points, size):
        # each n_points leaves a short last block at _block_size(k), or the given size
        model = random_stable_model(np.random.default_rng(90 + k), k, p=3)
        grid = FrequencyGrid(n_points)
        whole = evaluate_spectra(model, grid)
        size = size or _block_size(k)
        # a block is valid until the next is drawn, so each is compared as it comes
        drawn = 0
        for index, block in enumerate(_spectral_blocks(model, grid, size)):
            window = slice(index * size, (index + 1) * size)
            assert np.array_equal(block.a_bar, whole.a_bar[window]), index
            assert np.array_equal(block.h_bar, whole.h_bar[window]), index
            # the guard's magnitudes are np.abs of the whole-grid slices
            assert np.array_equal(block.abs_a_bar, np.abs(whole.a_bar[window])), index
            assert np.array_equal(block.abs_h_bar, np.abs(whole.h_bar[window])), index
            # a set of one block assembles S, diag(S) and diag(S^-1) as the whole grid's set does
            for name in ("s", "autospectra", "inverse_autospectra"):
                assert np.array_equal(getattr(block, name), getattr(whole, name)[window]), (index, name)
            drawn += 1
        assert drawn == math.ceil(n_points / size) > 1

    def test_blocks_are_read_only_views_of_one_workspace(self):
        model = random_stable_model(np.random.default_rng(91), 16, p=3)
        names = ("a_bar", "h_bar", "abs_a_bar", "abs_h_bar", "s")
        blocks = []
        for block in _spectral_blocks(model, FrequencyGrid(200), _block_size(16)):
            for name in names:  # S is written when first read
                assert not getattr(block, name).flags.writeable, (len(blocks), name)
            blocks.append(block)
        assert len(blocks) == 4
        # A_bar, |A_bar|, |H_bar| and S of every block are written into the arrays
        # the walk allocated for the first; H_bar is the fresh output of inv
        first, last = blocks[0], blocks[-1]
        for name in names:
            assert np.shares_memory(getattr(first, name), getattr(last, name)) == (name != "h_bar"), name
        # one sigma^-1 serves the walk
        assert all(block.sigma_inv is first.sigma_inv for block in blocks)


class TestWalkRefusals:
    """A walk refuses as the whole grid does, whatever the block size."""

    @pytest.mark.parametrize(
        "faults, index, kappa",
        [
            # a zero pivot beats a kappa_1 failure, in an earlier block or a later one
            ({5: 1e20, 40: "pivot"}, 40, "inf"),
            ({5: "pivot", 40: 1e20}, 5, "inf"),
            ({5: np.nan, 40: "pivot"}, 40, "inf"),
            # the worst kappa_1 over the whole grid, the first one on a tie
            ({5: 1e20, 40: 1e30}, 40, None),
            ({5: 1e30, 40: 1e20}, 5, None),
            ({5: np.inf, 40: np.inf}, 5, "inf"),
            # the first NaN beats any number
            ({5: 1e30, 40: np.nan}, 40, "nan"),
            ({20: np.nan, 40: np.nan, 50: np.inf}, 20, "nan"),
        ],
    )
    @pytest.mark.parametrize("size", [1, 16, 64])
    def test_refusal_does_not_depend_on_block_size(self, faulty_inverse, faults, index, kappa, size):
        faulty_inverse(size, faults)
        model = fixture("two_var_alpha", alpha=0.5).model
        with pytest.raises(NumericalError, match="singular") as caught:
            list(_spectral_blocks(model, GRID, size))
        found = re.search(r"omega = (\S+) \(condition number (\S+) exceeds", str(caught.value))
        assert found[1] == f"{GRID.points[index]:.6g}"
        if kappa is not None:
            assert found[2] == kappa

    def test_no_block_is_yielded_once_the_guard_fails(self, faulty_inverse):
        faulty_inverse(16, {20: 1e20})
        walk = _spectral_blocks(fixture("two_var_alpha", alpha=0.5).model, GRID, 16)
        assert next(walk).a_bar.shape[0] == 16
        with pytest.raises(NumericalError, match=f"singular at omega = {GRID.points[20]:.6g} "):
            next(walk)


class TestSpectralSet:
    def test_arrays_are_locked_not_copied(self):
        spectra = evaluate_spectra(fixture("two_var_alpha", alpha=0.5).model, GRID)
        held = ("a_bar", "h_bar", "abs_a_bar", "abs_h_bar", "sigma", "sigma_inv")
        assert not any(getattr(spectra, name).flags.writeable for name in held)
        # S, diag(S) and diag(S^-1) are assembled on first access, locked, and kept; S in the walk's array
        derived = ("s", "autospectra", "inverse_autospectra")
        assert not set(derived) & vars(spectra).keys()
        for name in derived:
            assembled = getattr(spectra, name)
            assert not assembled.flags.writeable, name
            assert getattr(spectra, name) is assembled, name
        assert np.shares_memory(spectra.s, spectra.s_out)


def partial_spectra(spectra):
    # the partial spectrum of each channel, 1 / [S^-1]_kk
    return 1.0 / spectra.inverse_autospectra


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
        assert_allclose(spectra.inverse_autospectra[:, 0] * spectra.s[:, 0, 0], 1.0, rtol=0, atol=1e-14)
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

