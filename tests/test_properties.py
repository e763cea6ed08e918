"""Properties of the measures and rates on random stable models, through the public routes."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varconn.cli
import varconn.infotheory
from varconn import FrequencyGrid, MeasureKind, evaluate_spectra, information_rates, measures_from_spectra, save_model
from varconn.cli import main
from varconn.infotheory import RATE_KINDS
from varconn.oracles import random_stable_model

from rescaling import rescale

GRID = FrequencyGrid(33)

#: Entry magnitudes that channel gains leave unchanged: every measure but coherence's and the classical members'.
SCALE_FREE = (MeasureKind.GPDC, MeasureKind.DC, MeasureKind.IPDC, MeasureKind.IDTF)


@st.composite
def models(draw, k_max=5):
    k = draw(st.integers(1, k_max))
    return random_stable_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)


@st.composite
def rescaled_models(draw):
    model = draw(models())
    gains = draw(st.lists(st.floats(0.1, 10.0), min_size=model.K, max_size=model.K))
    return model, rescale(model, gains)


def magnitudes(model, kinds) -> dict:
    return {result.kind: np.abs(result.values) for result in measures_from_spectra(evaluate_spectra(model, GRID), kinds)}


@settings(deadline=None, database=None)
@given(models())
def test_pdc_columns_and_dtf_rows_have_unit_power(model):
    found = magnitudes(model, ["pdc", "gpdc", "dtf", "dc"])
    for kind, axis in ((MeasureKind.PDC, 1), (MeasureKind.GPDC, 1), (MeasureKind.DTF, 2), (MeasureKind.DC, 2)):
        np.testing.assert_allclose(np.sum(found[kind] ** 2, axis=axis), 1.0, rtol=0, atol=1e-12, err_msg=kind.value)


@settings(deadline=None, database=None)
@given(models())
def test_information_measures_are_coherences_and_rates_are_non_negative(model):
    for kind, values in magnitudes(model, ["ipdc", "idtf"]).items():
        assert float(np.max(values)) <= 1.0 + 1e-12, kind
    for kind, rates in information_rates(model, GRID, RATE_KINDS).items():
        assert np.all(rates.values >= 0.0), kind


@settings(deadline=None, database=None)
@given(rescaled_models())
def test_channel_gains_change_no_scale_free_measure_and_no_rate(pair):
    model, scaled = pair
    base, moved = magnitudes(model, SCALE_FREE), magnitudes(scaled, SCALE_FREE)
    for kind in SCALE_FREE:
        np.testing.assert_allclose(moved[kind], base[kind], rtol=0, atol=1e-10, err_msg=kind.value)
    base, moved = information_rates(model, GRID, RATE_KINDS), information_rates(scaled, GRID, RATE_KINDS)
    for kind in RATE_KINDS:
        np.testing.assert_allclose(moved[kind].values, base[kind].values, rtol=1e-9, atol=1e-12, err_msg=kind.value)


@st.composite
def walks(draw):
    """A model of 1 to 4 channels and 0 to 3 lags, a grid of 1 to 40 points and a block size in 1..n."""
    k, p, n_points = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 40))
    model = random_stable_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k, p=p)
    return model, FrequencyGrid(n_points), draw(st.integers(1, n_points))


@settings(deadline=None, database=None, max_examples=30)
@given(walks())
def test_bytes_and_rates_do_not_depend_on_the_block_size(walk):
    model, grid, size = walk
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory)
        save_model(model, path / "model.json")
        argv = ["measure", "--model", str(path / "model.json"), "--nfreq", str(grid.n_points), "--mag-sq", "--fs", "250", "--out"]
        found = {}
        for block in (grid.n_points, size):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(varconn.cli, "_block_size", lambda k: block)
                assert main([*argv, str(path / f"{block}.json")]) == 0
            found[block] = (path / f"{block}.json").read_bytes()
        assert found[size] == found[grid.n_points]
    if grid.n_points >= 2:
        rates = {}
        for block in (grid.n_points, size):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(varconn.infotheory, "_block_size", lambda k: block)
                rates[block] = information_rates(model, grid, RATE_KINDS)
        for kind in RATE_KINDS:
            assert rates[size][kind].values.tobytes() == rates[grid.n_points][kind].values.tobytes(), kind
            assert rates[size][kind].n_clipped == rates[grid.n_points][kind].n_clipped, kind
