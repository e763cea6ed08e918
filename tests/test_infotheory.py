import itertools
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from numpy.testing import assert_allclose

import varconn.measures
from varconn import (
    DomainError,
    EPS_CLIP,
    FrequencyGrid,
    MeasureKind,
    NumericalError,
    SpectralSet,
    VarModel,
    evaluate_spectra,
    fixture,
    information_rates,
    measures_from_spectra,
    save_model,
)
import varconn.infotheory
from varconn.cli import main
from varconn.infotheory import _RATES, BOUND_TOL, RATE_KINDS, _bridge_in_place
from varconn.measures import _MEASURES, coherence
from varconn.oracles import random_stable_model
from varconn.spectral import _block_size, _spectral_blocks

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz

GRID = FrequencyGrid(512)


def rate(model, grid, kind):
    return information_rates(model, grid, [kind])[kind]


def constant_profile_rate(s):
    # a 1x1 measure whose squared magnitude is s at every grid point
    def constant(block, out):
        out.fill(s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_RATES, MeasureKind.IPDC, constant)
        return information_rates(VarModel(np.zeros((0, 1, 1)), np.eye(1)), GRID, ["ipdc"])[MeasureKind.IPDC]


def reference_bridge(squared):
    """-log1p(-clip(s)) in one expression, and the count of s above 1 - EPS_CLIP."""
    squared = np.asarray(squared, dtype=float)
    return -np.log1p(-np.clip(squared, 0.0, 1.0 - EPS_CLIP)), int(np.count_nonzero(squared > 1.0 - EPS_CLIP))


def bridged(squared):
    """log1p(-s) as _bridge_in_place writes it over a float copy of s, and its n_clipped."""
    values = np.array(squared, dtype=float)
    return values, _bridge_in_place(values)


class TestClip:
    def test_passthrough_below_limit(self):
        values = np.array([0.0, 0.5, 0.9])
        mapped, n_clipped = bridged(values)
        assert n_clipped == 0
        assert_allclose(1.0 - np.exp(mapped), values, rtol=0, atol=1e-15)

    def test_clips_and_counts(self):
        for values, expected in (([0.5, 1.0, 1.0 + 1e-10], 2), ([0.5, 1.0], 1)):
            mapped, n_clipped = bridged(values)
            assert n_clipped == expected
            assert np.all(np.isfinite(mapped))
            assert float(np.min(mapped)) == math.log1p(-(1.0 - EPS_CLIP))

    def test_rejects_bound_violations(self):
        with pytest.raises(DomainError, match="exceeds 1"):
            bridged([0.5, 1.5])
        with pytest.raises(DomainError, match="negative"):
            bridged([-0.5])


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
            rate(fx.model, FrequencyGrid(1), "ipdc")

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

    def test_diagonal_saturates_where_a_channel_drives_or_receives_nothing(self):
        # channel 1 drives nothing and channel 0 receives nothing, with
        # uncorrelated innovations: |iPDC_11|^2 and |iDTF_00|^2 are 1 at every
        # point, while the coherence diagonal is left out and clips nothing
        model = VarModel([[[0.5, 0.0], [0.4, 0.3]]], np.diag([1.0, 2.0]))
        grid = FrequencyGrid(65)
        rates = information_rates(model, grid, ["ipdc", "idtf", "coh"])
        saturated = -0.5 * math.log(EPS_CLIP)
        for kind, entry in [(MeasureKind.IPDC, [1, 1]), (MeasureKind.IDTF, [0, 0])]:
            assert rates[kind].n_clipped == grid.n_points, kind
            assert np.argwhere(rates[kind].values > 10.0).tolist() == [entry], kind
            assert abs(rates[kind].values[tuple(entry)] - saturated) < 1e-3, kind
        assert rates[MeasureKind.COHERENCE].n_clipped == 0
        assert np.all(rates[MeasureKind.COHERENCE].values < 1.0)

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
        for rates in information_rates(model, GRID, ["ipdc", "idtf", "coh"]).values():
            assert float(np.min(rates.values)) >= 0.0

    def test_quadrature_refinement_leaves_fixture_rates_unchanged(self):
        for name, params in (
            ("two_var_alpha", {"alpha": 0.5}),
            ("three_var_alpha_beta", {"alpha": 0.5, "beta": 1.0}),
        ):
            fx = fixture(name, **params)
            coarse = rate(fx.model, FrequencyGrid(256), "ipdc").values
            base = rate(fx.model, FrequencyGrid(512), "ipdc").values
            fine = rate(fx.model, FrequencyGrid(1024), "ipdc").values
            assert float(np.max(np.abs(base - fine))) < 1e-8
            assert float(np.max(np.abs(base - coarse))) < 1e-8

    def test_quadrature_converges_on_random_model(self):
        model = random_stable_model(np.random.default_rng(41), 3, max_radius=0.7)
        base = rate(model, FrequencyGrid(512), "ipdc").values
        fine = rate(model, FrequencyGrid(2048), "ipdc").values
        assert float(np.max(np.abs(base - fine))) < 1e-5


class TestInfoDensity:
    def test_coherence_density_zeroes_diagonal(self, monkeypatch):
        # a channel's coherence with itself is 1, which would saturate the
        # integrand; the coherence diagonal is left out of the rate instead
        fx = fixture("two_var_alpha", alpha=0.5)
        spectra = evaluate_spectra(fx.model, GRID)
        measure = coherence(spectra)
        diagonal = np.abs(np.einsum("fii->fi", measure.values)) ** 2
        assert_allclose(diagonal, 1.0, rtol=0, atol=1e-14)
        # the grid is one block at K = 2, so the rate integrates exactly the rows
        # the table writes: this measure's squared magnitude, its diagonal zeroed
        written, original = [], _RATES[MeasureKind.COHERENCE]

        def recording(block, out):
            original(block, out)
            written.append(out.copy())

        monkeypatch.setitem(_RATES, MeasureKind.COHERENCE, recording)
        rates = information_rates(fx.model, GRID, ["coh"])[MeasureKind.COHERENCE]
        expected = np.abs(measure.values) ** 2
        expected[:, [0, 1], [0, 1]] = 0.0
        (rows,) = written
        assert_allclose(rows, expected, rtol=1e-14, atol=0)
        assert rates.values[0, 0] == 0.0
        assert rates.values[1, 1] == 0.0
        assert rates.n_clipped == 0


class TestInformationRates:
    def test_refuses_non_rate_kind_before_building_any_measure(self, monkeypatch):
        fx = fixture("two_var_alpha", alpha=0.5)

        def refuse(*args, **kwargs):
            raise AssertionError("a measure was built before the kinds were checked")

        for kind in RATE_KINDS:
            monkeypatch.setitem(_RATES, kind, refuse)
        with pytest.raises(DomainError, match="'pdc'"):
            information_rates(fx.model, GRID, ["ipdc", "pdc"])


def count_builds(monkeypatch):
    """Count the assemblies of S, diag(S) and diag(S^-1) by every SpectralSet, a walk's blocks included, from here on."""
    builds = {}
    for name in ("s", "autospectra", "inverse_autospectra"):
        builds[name] = 0

        def build(self, _name=name, _original=getattr(SpectralSet, name).func):
            builds[_name] += 1
            return _original(self)

        counted = cached_property(build)
        counted.__set_name__(SpectralSet, name)
        monkeypatch.setattr(SpectralSet, name, counted)
    return builds


def refusing_at_row(kind, row):
    """A _RATES entry for kind that refuses on the block holding grid row ``row``, counting the rows it is drawn for."""
    original, seen = _RATES[kind], [0]

    def squared(block, out):
        start = seen[0]
        seen[0] += len(out)
        if start <= row < seen[0]:
            raise NumericalError(f"{kind.value} refused at row {row}")
        original(block, out)

    return squared


def refusing_in_block(kind, failing):
    """A _RATES entry for kind that refuses on its call for block ``failing``, counting from 0."""
    original, calls = _RATES[kind], itertools.count()

    def squared(block, out):
        if next(calls) == failing:
            raise NumericalError(f"{kind.value} refused in block {failing}")
        original(block, out)

    return squared


class TestOnePass:
    """One walk over the blocks serves every requested kind."""

    @pytest.mark.parametrize(
        "command, kinds, s_builds",
        [("mir", "ipdc", 0), ("measure", "ipdc", 0), ("mir", "ipdc,idtf,coh", 32), ("measure", "ipdc,idtf,coh", 32)],
    )
    def test_normaliser_once_per_block(self, monkeypatch, tmp_path, command, kinds, s_builds):
        # iPDC's normaliser diag(S^-1) once per block of 64, from A_bar and sigma^-1
        # by a real product; S and diag(S) once per block when iDTF or coherence
        # asks, written into the walk's S array; iPDC alone builds no S
        matmul, complex_products = np.matmul, []

        def spied(*args, **kwargs):
            product = matmul(*args, **kwargs)
            if product.ndim == 3 and np.iscomplexobj(product):
                complex_products.append(product.shape)
            return product

        path = save_model(random_stable_model(np.random.default_rng(16), 16, p=4), tmp_path / "k16.json")
        counts = count_builds(monkeypatch)
        monkeypatch.setattr(np, "matmul", spied)
        option = "--kinds" if command == "mir" else "--measures"
        argv = [command, "--model", str(path), option, kinds, "--nfreq", "2048", "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        assert counts == {"s": s_builds, "autospectra": s_builds, "inverse_autospectra": 32}
        # no (n, K, K) S^-1 = A_bar^H sigma^-1 A_bar: S's two products are the only complex ones
        assert complex_products == [(64, 16, 16)] * (2 * s_builds)

    @pytest.mark.parametrize("command", ["mir", "measure"])
    def test_sigma_is_inverted_once_per_walk(self, monkeypatch, tmp_path, command):
        inv, inverted = np.linalg.inv, []

        def counted(a):
            inverted.append(a.shape)
            return inv(a)

        model = random_stable_model(np.random.default_rng(16), 16, p=4)
        monkeypatch.setattr(np.linalg, "inv", counted)
        if command == "mir":
            information_rates(model, FrequencyGrid(2048), ["ipdc", "idtf", "coh"])
        else:  # both measures read sigma^-1, iPDC through diag(S^-1)
            path = save_model(model, tmp_path / "k16.json")
            argv = ["measure", "--model", str(path), "--measures", "ipdc,idtf", "--nfreq", "2048", "--out", str(tmp_path / "out.json")]
            assert main(argv) == 0
        # one inverse of A_bar per block of 64, and one of sigma
        assert sorted(inverted) == [(16, 16)] + [(64, 16, 16)] * 32

    def test_whole_grid_results_survive_a_later_walk(self):
        # the walk reuses its arrays from block to block; a set evaluate_spectra
        # returned, and the measures drawn from it, belong to no later walk
        model = random_stable_model(np.random.default_rng(93), 16, p=3)
        grid = FrequencyGrid(200)
        spectra = evaluate_spectra(model, grid)
        results = list(measures_from_spectra(spectra, list(MeasureKind)))
        names = ("a_bar", "h_bar", "s", "inverse_autospectra")
        kept = {name: getattr(spectra, name).copy() for name in names}
        kept_values = [result.values.copy() for result in results]
        information_rates(model, grid, ["ipdc", "idtf", "coh"])
        for name in names:
            assert np.array_equal(getattr(spectra, name), kept[name]), name
        for result, values in zip(results, kept_values):
            assert np.array_equal(result.values, values), result.kind

    @pytest.mark.parametrize("k, n_points", [(1, 40000), (2, 9000), (16, 1001), (16, 2048)])
    def test_one_call_equals_one_call_per_kind(self, k, n_points):
        model = random_stable_model(np.random.default_rng(80 + k), k, p=3)
        grid = FrequencyGrid(n_points)
        together = information_rates(model, grid, ["ipdc", "idtf", "coh"])
        for kind, rates in together.items():
            alone = information_rates(model, grid, [kind])[kind]
            assert np.array_equal(rates.values, alone.values), kind
            assert rates.n_clipped == alone.n_clipped, kind

    @pytest.mark.parametrize(
        "kinds, ipdc_block, idtf_block, refused",
        [
            # after iDTF refuses in block 1, iPDC, before it in request order, is still drawn and refuses in block 2
            (["ipdc", "idtf"], 2, 1, "ipdc refused in block 2"),
            (["ipdc", "idtf"], 1, 2, "ipdc refused in block 1"),
            (["ipdc", "idtf"], 1, 1, "ipdc refused in block 1"),
            (["idtf", "ipdc"], 1, 1, "idtf refused in block 1"),
        ],
        ids=["earlier-kind-later-block", "first-kind-first", "same-block", "same-block-reversed"],
    )
    def test_refusal_of_the_first_kind_in_request_order(self, monkeypatch, kinds, ipdc_block, idtf_block, refused):
        # 200 points are four blocks at K = 16
        model = random_stable_model(np.random.default_rng(17), 16, p=2)
        monkeypatch.setitem(_RATES, MeasureKind.IPDC, refusing_in_block(MeasureKind.IPDC, ipdc_block))
        monkeypatch.setitem(_RATES, MeasureKind.IDTF, refusing_in_block(MeasureKind.IDTF, idtf_block))
        with pytest.raises(NumericalError, match=f"^{refused}$"):
            information_rates(model, FrequencyGrid(200), kinds)


class TestRefusalOrder:
    """The kinds and the grid size, then validate, then the guard over the whole grid, then the measures."""

    @pytest.mark.parametrize(
        "kinds, refusing, singular_row, n_points, refusal",
        [
            (["ipdc", "idtf"], {"ipdc": 150, "idtf": 10}, None, 200, "ipdc refused at row 150"),
            (["idtf", "ipdc"], {"ipdc": 150, "idtf": 10}, None, 200, "idtf refused at row 10"),
            (["ipdc", "idtf"], {"idtf": 10}, 150, 200, "A_bar is numerically singular at omega = "),
            (["ipdc"], {"ipdc": 0}, None, 1, "rates need a grid of at least 2 points, got 1"),
        ],
        ids=["first-kind", "request-order", "singular", "grid-size"],
    )
    def test_same_refusal_at_any_block_size(self, monkeypatch, kinds, refusing, singular_row, n_points, refusal):
        # the mir counterpart of test_cli's TestMeasureBlocks; 64 is the block size at K = 16
        model = random_stable_model(np.random.default_rng(17), 16, p=2)
        refusals = {}
        for size in (None, 1, 7, 63, 64, 65, 200):
            with monkeypatch.context() as patch:
                if size is not None:
                    patch.setattr(varconn.infotheory, "_block_size", lambda k, size=size: size)
                for name, row in refusing.items():
                    patch.setitem(_RATES, MeasureKind(name), refusing_at_row(MeasureKind(name), row))
                if singular_row is not None:  # a zero pivot in the walk's inverse at that grid row
                    inv, seen = np.linalg.inv, [0]

                    def broken(a, inv=inv, seen=seen):
                        if a.ndim == 3:
                            start = seen[0]
                            seen[0] += len(a)
                            if start <= singular_row < seen[0]:
                                a[singular_row - start] = 0.0
                        return inv(a)

                    patch.setattr(np.linalg, "inv", broken)
                with pytest.raises((DomainError, NumericalError)) as caught:
                    information_rates(model, FrequencyGrid(n_points), kinds)
            refusals[size] = (type(caught.value), str(caught.value))
        assert refusals[None][1].startswith(refusal), refusals[None]
        assert all(found == refusals[None] for found in refusals.values()), refusals

    @pytest.mark.parametrize("fault, kappa", [(1e20, r"\S+"), (np.nan, "nan"), ("pivot", "inf")], ids=["large", "nan", "pivot"])
    def test_guard_in_a_later_block_beats_a_measure_refusal_in_an_earlier_one(self, monkeypatch, faulty_inverse, fault, kappa):
        # 200 points are four blocks of 64 at K = 16: the measure refuses in block 0, the guard fails in block 2
        grid = FrequencyGrid(200)
        monkeypatch.setitem(_RATES, MeasureKind.IPDC, refusing_in_block(MeasureKind.IPDC, 0))
        faulty_inverse(64, {150: fault})
        with pytest.raises(NumericalError, match=f"singular at omega = {grid.points[150]:.6g} \\(condition number {kappa} "):
            information_rates(random_stable_model(np.random.default_rng(17), 16, p=2), grid, ["ipdc"])

    def test_no_measure_is_built_once_the_guard_fails(self, monkeypatch, faulty_inverse):
        built, original = [], _RATES[MeasureKind.IDTF]

        def counted(block, out):
            built.append(out.shape[0])
            original(block, out)

        grid = FrequencyGrid(200)
        monkeypatch.setitem(_RATES, MeasureKind.IDTF, counted)
        faulty_inverse(64, {100: np.nan})
        with pytest.raises(NumericalError, match=f"singular at omega = {grid.points[100]:.6g} \\(condition number nan "):
            information_rates(random_stable_model(np.random.default_rng(17), 16, p=2), grid, ["idtf"])
        assert built == [64]

    def test_grid_size_beats_the_guard(self, faulty_inverse):
        faulty_inverse(1, {0: 1e20})
        with pytest.raises(DomainError, match="^rates need a grid of at least 2 points, got 1$"):
            information_rates(fixture("two_var_alpha", alpha=0.5).model, FrequencyGrid(1), ["ipdc"])


def saturating_rows(kind, every):
    """A _RATES entry for kind whose rows at grid indices 0, every, 2 every, ... are 1 throughout.

    The coherence diagonal, which the rate leaves out, stays 0.
    """
    original, drawn = _RATES[kind], [0]

    def squared(block, out):
        original(block, out)
        rows = np.arange(drawn[0], drawn[0] + out.shape[0])
        out[rows % every == 0] = 1.0
        if kind is MeasureKind.COHERENCE:
            diag = np.arange(out.shape[1])
            out[:, diag, diag] = 0.0
        drawn[0] += out.shape[0]

    return squared


class TestBlockBoundaries:
    """Rates do not depend on the block size, and whole-grid np.trapezoid is their oracle."""

    @pytest.mark.parametrize(
        "k, kinds",
        [pytest.param(k, RATE_KINDS, id=str(k)) for k in (1, 2, 16)]
        # one kind alone: at K = 1 its row is one float, which np.add.reduce would sum pairwise
        + [pytest.param(k, (MeasureKind.IPDC,), id=f"{k}-ipdc") for k in (1, 2, 16)],
    )
    def test_rates_do_not_depend_on_the_block_size(self, monkeypatch, k, kinds):
        model = random_stable_model(np.random.default_rng(60 + k), k, p=2)
        # the walk's own block size, at most 256 so that the walk in blocks of one stays short
        size = min(_block_size(k), 256)
        grid = FrequencyGrid(size + 2)
        found = []
        for block_size in (1, size - 1, size, size + 1, grid.n_points):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(varconn.infotheory, "_block_size", lambda k, block_size=block_size: block_size)
                # saturated rows in several blocks of every size above 1
                for kind in kinds:
                    patch.setitem(_RATES, kind, saturating_rows(kind, max(2, size // 2)))
                rates = information_rates(model, grid, kinds)
            found.append({kind: (rates[kind].values.tobytes(), rates[kind].n_clipped) for kind in kinds})
        assert all(rates == found[0] for rates in found[1:])
        # the coherence diagonal is left out, so at K = 1 coherence clips nothing
        assert {kind: n_clipped > 0 for kind, (_, n_clipped) in found[0].items()} == {
            kind: kind is not MeasureKind.COHERENCE or k > 1 for kind in kinds
        }

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_accumulator_matches_whole_grid_trapezoid(self, k):
        # a weighted sum in grid order, np.trapezoid's rule summed in another order;
        # at K = 1 numpy sums the trapezoid terms pairwise, so the orders differ more
        model = random_stable_model(np.random.default_rng(70 + k), k, p=3)
        diag = np.arange(k)
        n_points, rtol = ((2, 3, 1001, 40000), 1e-12) if k == 1 else ((2, 3, 1001, 2048), 1e-14)
        for n in n_points:
            grid = FrequencyGrid(n)
            rates = information_rates(model, grid, RATE_KINDS)
            for measure in measures_from_spectra(evaluate_spectra(model, grid), RATE_KINDS):
                squared = np.abs(measure.values) ** 2
                if measure.kind is MeasureKind.COHERENCE:
                    squared[:, diag, diag] = 0.0
                integrand, n_clipped = reference_bridge(squared)
                expected = trapezoid(integrand, grid.points, axis=0) / (2.0 * np.pi)
                assert_allclose(rates[measure.kind].values, expected, rtol=rtol, atol=0, err_msg=f"{measure.kind} at {n}")
                assert rates[measure.kind].n_clipped == n_clipped, (measure.kind, n)


class TestRateTable:
    """The real-arithmetic rate table against |measure|^2 of the complex measures it replaced."""

    @pytest.mark.parametrize("k, n_points", [(1, 65), (2, 129), (5, 129), (16, 200), (64, 10)])
    def test_each_block_matches_the_squared_measure(self, k, n_points):
        # 200 points are four blocks at K = 16, and 10 are three at K = 64
        model = random_stable_model(np.random.default_rng(50 + k), k, p=3)
        size = _block_size(k)
        diag = np.arange(k)
        blocks = 0
        for block in _spectral_blocks(model, FrequencyGrid(n_points), size):
            for kind in RATE_KINDS:
                squared = np.empty(block.a_bar.shape)
                _RATES[kind](block, squared)
                expected = np.abs(_MEASURES[kind](block).values) ** 2
                if kind is MeasureKind.COHERENCE:
                    expected[:, diag, diag] = 0.0
                assert_allclose(squared, expected, rtol=1e-14, atol=0, err_msg=f"{kind} in block {blocks}")
            blocks += 1
        assert blocks == -(-n_points // size)

    @pytest.mark.parametrize("k, n_points", [(5, 1500), (16, 200), (64, 10)])
    def test_each_block_s_is_the_whole_grid_s(self, monkeypatch, k, n_points):
        # each block writes S into the walk's array by the steps of the whole grid's set;
        # 1500 points are three blocks at K = 5, the last one short
        model = random_stable_model(np.random.default_rng(50 + k), k, p=3)
        grid = FrequencyGrid(n_points)
        whole, original, stop = evaluate_spectra(model, grid).s, _RATES[MeasureKind.COHERENCE], [0]

        def checked(block, out):
            original(block, out)
            window = slice(stop[0], stop[0] + out.shape[0])
            assert block.s.tobytes() == whole[window].tobytes(), window
            assert not block.s.flags.writeable
            stop[0] = window.stop

        monkeypatch.setitem(_RATES, MeasureKind.COHERENCE, checked)
        information_rates(model, grid, ["coh"])
        assert stop[0] == n_points

    def test_saturated_diagonal_clips_as_the_squared_measure_does(self):
        # the model of test_diagonal_saturates_where_a_channel_drives_or_receives_nothing
        model = VarModel([[[0.5, 0.0], [0.4, 0.3]]], np.diag([1.0, 2.0]))
        grid = FrequencyGrid(65)
        rates = information_rates(model, grid, RATE_KINDS)
        for measure in measures_from_spectra(evaluate_spectra(model, grid), RATE_KINDS):
            squared = np.abs(measure.values) ** 2
            if measure.kind is MeasureKind.COHERENCE:
                squared[:, [0, 1], [0, 1]] = 0.0
            assert rates[measure.kind].n_clipped == reference_bridge(squared)[1], measure.kind
        assert [rates[kind].n_clipped for kind in RATE_KINDS] == [grid.n_points, grid.n_points, 0]

    def test_non_positive_quadratic_form_is_refused_as_by_the_measure(self, monkeypatch):
        # a negated sigma^-1 makes every q_j = a_j^H sigma^-1 a_j negative; only sigma is a 2-D inverse
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: -inv(a) if a.ndim == 2 else inv(a))
        model = fixture("two_var_alpha", alpha=0.5).model
        message = "^non-positive column quadratic form: iPDC undefined$"
        with pytest.raises(NumericalError, match=message):
            information_rates(model, GRID, ["ipdc"])
        with pytest.raises(NumericalError, match=message):
            varconn.measures.ipdc(evaluate_spectra(model, GRID))

    @pytest.mark.parametrize("kind", [MeasureKind.IDTF, MeasureKind.COHERENCE])
    def test_zero_autospectrum_is_refused_as_by_the_measure(self, monkeypatch, kind):
        # the rate call reads a block's S, and the measure the whole grid's
        zero = cached_property(lambda spectra: np.zeros(spectra.a_bar.shape, dtype=complex))
        zero.__set_name__(SpectralSet, "s")
        monkeypatch.setattr(SpectralSet, "s", zero)
        model = fixture("two_var_alpha", alpha=0.5).model
        message = "^zero autospectrum: normalization undefined$"
        with pytest.raises(NumericalError, match=message):
            information_rates(model, GRID, ["ipdc", kind])
        with pytest.raises(NumericalError, match=message):
            _MEASURES[kind](evaluate_spectra(model, GRID))


class TestSaturatedRate:
    @pytest.mark.parametrize("n_points", [512, 4097, 40000])
    @pytest.mark.parametrize("kind", ["ipdc", "idtf"])
    def test_single_channel_rate_is_half_the_clipped_log(self, kind, n_points):
        # at K = 1 a channel's own |iPDC|^2 and |iDTF|^2 are 1 at every frequency, each clipped
        # to 1 - EPS_CLIP, so the rate is y / 2 with y = -log(EPS_CLIP); the sum's rounding grows
        # with n (9.4e-15 at 512 points, 7.1e-13 at 40,000), inside the bound below
        model = random_stable_model(np.random.default_rng(1), 1, p=2)
        (rate,) = information_rates(model, FrequencyGrid(n_points), [kind]).values()
        assert rate.n_clipped == n_points
        assert_allclose(rate.values, [[-math.log1p(EPS_CLIP - 1.0) / 2.0]], rtol=1e-12, atol=0.0)


class TestPeakMemory:
    @pytest.mark.parametrize("k, p, n_points", [(16, 4, 2048), (64, 2, 512)])
    def test_rates_hold_one_block(self, k, p, n_points):
        # each complex (n_points, K, K) array is 8 MiB at (16, 2048) and 32 MiB at
        # (64, 512); a block of one is about 256 KiB, so holding a block of A_bar,
        # H_bar, |A_bar|, |H_bar|, S, the rate scratch and each kind's integrand
        # stays near 2.5 MiB (no S^-1 and no complex measure is built), while a
        # single whole-grid array would exceed the bound
        model = random_stable_model(np.random.default_rng(k), k, p=p)
        grid = FrequencyGrid(n_points)
        tracemalloc.start()
        try:
            information_rates(model, grid, ["ipdc", "idtf", "coh"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestBridge:
    def test_known_value(self):
        values, n_clipped = bridged(np.array([0.0, 0.2]))
        assert n_clipped == 0
        assert values[0] == 0.0
        assert abs(values[1] + math.log(1.25)) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        squared = rng.uniform(0.0, 0.99, size=256)
        values, n_clipped = bridged(squared)
        assert n_clipped == 0
        recovered = 1.0 - np.exp(values)
        assert float(np.max(np.abs(recovered - squared))) < 1e-14

    def test_clip_count_reported(self):
        # one kind's (block, K, K) rows as information_rates hands the bridge: the
        # count covers every point and entry, and the shape is kept
        squared = np.full((3, 2, 2), 0.2)
        squared[:, 1, 1] = 1.0
        squared[0, 0, 1] = 1.0
        values, n_clipped = bridged(squared)
        assert n_clipped == 4
        assert values.shape == (3, 2, 2)
        assert np.all(np.isfinite(values))
        assert abs(values[2, 0, 1] + math.log(1.25)) < 1e-15


def assert_same_bits(actual, expected):
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    kept = ~np.isnan(expected)
    assert actual[kept].tobytes() == expected[kept].tobytes(), (actual, expected)


#: Each side of every bound the bridge reads from its max and min.
EDGE_VALUES = {
    "zero": 0.0,
    "negative_zero": -0.0,
    "half_tolerance_below_zero": -BOUND_TOL / 2,
    "clip_limit": 1.0 - EPS_CLIP,
    "above_clip_limit": float(np.nextafter(1.0 - EPS_CLIP, 2.0)),
    "one": 1.0,
    "tolerance_above_one": 1.0 + BOUND_TOL,
}


class TestBridgeEdges:
    """The bridge's log1p(-s) against -log1p(-clip(s)), negated, at and beside each bound, bit for bit."""

    @pytest.mark.parametrize("value", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
    def test_edge_value_matches_the_clipped_log(self, value):
        for squared in ([value], [0.5, value], [value, 0.25, 0.0], np.full((3, 2, 2), value)):
            values, n_clipped = bridged(squared)
            expected, count = reference_bridge(squared)
            assert_same_bits(-values, expected)
            assert n_clipped == count, squared

    def test_all_edge_values_at_once(self):
        squared = list(EDGE_VALUES.values())
        values, n_clipped = bridged(squared)
        expected, count = reference_bridge(squared)
        assert_same_bits(-values, expected)
        assert n_clipped == count == 3

    def test_refusal_texts(self):
        with pytest.raises(DomainError, match=r"^squared coherence exceeds 1 \(max 1\); upstream bound violated$"):
            bridged([0.5, 1.0 + 2 * BOUND_TOL])
        with pytest.raises(DomainError, match=r"^squared coherence is negative \(min -2e-09\)$"):
            bridged([0.5, -2 * BOUND_TOL])

    def test_nan_falls_back_to_the_elementwise_tests(self):
        # max and min of a block with a NaN are NaN, so they bound nothing
        for squared, count in (([np.nan, 1.0], 1), ([np.nan, 0.5], 0), ([1.0, np.nan, -BOUND_TOL / 2], 1)):
            values, n_clipped = bridged(squared)
            assert_same_bits(-values, reference_bridge(squared)[0])
            assert n_clipped == count, squared
        with pytest.raises(DomainError, match=r"^squared coherence exceeds 1 \(max nan\); upstream bound violated$"):
            bridged([np.nan, 1.5])
        with pytest.raises(DomainError, match=r"^squared coherence is negative \(min nan\)$"):
            bridged([np.nan, -0.5])

    def test_empty_input(self):
        values, n_clipped = bridged([])
        assert values.shape == (0,)
        assert n_clipped == 0


def coupled_except_1_to_0(k):
    """A K-channel model in which channel 1 never drives channel 0, so iPDC_01 is exactly 0."""
    if k == 2:
        return fixture("two_var_alpha", alpha=0.5).model
    model = random_stable_model(np.random.default_rng(90 + k), k, p=2, max_radius=0.7)
    coeffs = model.coeffs.copy()
    coeffs[:, 0, 1] = 0.0
    return VarModel(coeffs, model.sigma)


class TestSignedZero:
    """A rate that is exactly zero is +0.0, rendered as 0.0, never -0.0."""

    @pytest.mark.parametrize("blocks", ["one_point", "own_size"])
    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_exact_zero_rates_are_positive_zero(self, monkeypatch, k, blocks):
        if blocks == "one_point":
            monkeypatch.setattr(varconn.infotheory, "_block_size", lambda k: 1)
        model = VarModel([[[0.5]]], [[2.0]]) if k == 1 else coupled_except_1_to_0(k)
        rates = information_rates(model, FrequencyGrid(130), RATE_KINDS)
        diag = np.arange(k)
        zeros = list(rates[MeasureKind.COHERENCE].values[diag, diag])
        if k > 1:
            zeros.append(rates[MeasureKind.IPDC].values[0, 1])
        assert [float.__repr__(float(value)) for value in zeros] == ["0.0"] * len(zeros)
        assert not np.any(np.signbit(zeros))


class TestSymmetryCheck:
    def test_directional_asymmetry_is_visible(self):
        # rates need not be symmetric even though each integrand is
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = rate(fx.model, GRID, "ipdc")
        assert rates.values[1, 0] > 0.1
        assert rates.values[0, 1] == 0.0
