"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a PASS or
FAIL line for it; run `pytest -s tests/test_acceptance.py` to see every
line. Criteria 3, 4, 5, 9 and 12 sweep a shared random population of 50
stable models with 2 to 5 channels and full innovation covariances.
"""

import functools
import math

import numpy as np
import pytest

from varconn import (
    FrequencyGrid,
    MeasureKind,
    VarModel,
    estimate,
    evaluate_spectra,
    fixture,
    geweke_hosoya_bridge,
    idtf,
    ipdc,
    measures_from_spectra,
    partialized_cross_spectra,
    partialized_innovation_coherence,
    partialized_process_coherence,
    random_stable_model,
    rates_from_spectra,
    rescale,
    simulate,
    validate,
)

N_MODELS = 50
CHANNEL_COUNTS = (2, 3, 4, 5)
GRID = FrequencyGrid.default(128)
DEFAULT_GRID = FrequencyGrid.default(512)


def every_measure(model, grid):
    spectra = evaluate_spectra(model, grid)
    return {result.kind: result for result in measures_from_spectra(spectra, MeasureKind)}


def information_rates(model, grid):
    return rates_from_spectra(evaluate_spectra(model, grid), ["ipdc", "idtf"])


def criterion(number, label):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number:2d}: {label}")
                raise
            print(f"\nPASS criterion {number:2d}: {label}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(20240817)
    return [
        random_stable_model(rng, CHANNEL_COUNTS[index % len(CHANNEL_COUNTS)])
        for index in range(N_MODELS)
    ]


@criterion(1, "two-channel fixture: |ipdc_21|^2 = 0.2 everywhere, ipdc_12 = 0 (1e-12)")
def test_criterion_01_two_channel_fixture():
    fx = fixture("two_var_alpha", alpha=0.5)
    spectra = evaluate_spectra(fx.model, DEFAULT_GRID)
    values = ipdc(spectra).values
    assert float(np.max(np.abs(np.abs(values[:, 1, 0]) ** 2 - 0.2))) < 1e-12
    assert float(np.max(np.abs(values[:, 0, 1]))) < 1e-12


@criterion(2, "chain fixture: |idtf_31|^2 = 1/9, |ipdc_32|^2 = 0.5, ipdc_31 = 0, upper idtf = 0 (1e-12)")
def test_criterion_02_chain_fixture():
    fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
    spectra = evaluate_spectra(fx.model, DEFAULT_GRID)
    ipdc_values = ipdc(spectra).values
    idtf_values = idtf(spectra).values
    assert float(np.max(np.abs(np.abs(idtf_values[:, 2, 0]) ** 2 - 1.0 / 9.0))) < 1e-12
    assert float(np.max(np.abs(np.abs(ipdc_values[:, 2, 1]) ** 2 - 0.5))) < 1e-12
    assert float(np.max(np.abs(ipdc_values[:, 2, 0]))) < 1e-12
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert float(np.max(np.abs(idtf_values[:, i, j]))) < 1e-12


@criterion(3, "iPDC equals the innovation/partialized-process coherence on 50 random models (1e-10)")
def test_criterion_03_process_coherence_identity(population):
    worst = 0.0
    for model in population:
        spectra = evaluate_spectra(model, GRID)
        values = ipdc(spectra).values
        for i in range(model.K):
            for j in range(model.K):
                reference = partialized_process_coherence(model, GRID, i, j, spectra=spectra)
                worst = max(worst, float(np.max(np.abs(reference - values[:, i, j]))))
    assert worst < 1e-10, worst


@criterion(4, "iDTF equals the signal/partialized-innovation coherence on 50 random models (1e-10)")
def test_criterion_04_innovation_coherence_identity(population):
    worst = 0.0
    for model in population:
        spectra = evaluate_spectra(model, GRID)
        values = idtf(spectra).values
        for i in range(model.K):
            for j in range(model.K):
                reference = partialized_innovation_coherence(model, GRID, i, j, spectra=spectra)
                worst = max(worst, float(np.max(np.abs(reference - values[:, i, j]))))
    assert worst < 1e-10, worst


@criterion(5, "partial spectrum: block elimination agrees with the quadratic form (1e-10)")
def test_criterion_05_partial_spectrum_dual_route(population):
    worst = 0.0
    for model in population:
        spectra = evaluate_spectra(model, GRID)
        # the partial spectra iPDC divides by, 1 / [S^-1]_jj
        partial = 1.0 / np.diagonal(spectra.s_inv, axis1=1, axis2=2).real
        for j in range(model.K):
            schur = partialized_cross_spectra(spectra, j)[:, j].real
            worst = max(worst, float(np.max(np.abs(schur - partial[:, j]))))
    assert worst < 1e-10, worst


@criterion(6, "two-channel rate: iPDC rate[2,1] = log(1.25)/2 (1e-8), iPDC rate[1,2] = 0")
def test_criterion_06_two_channel_rate():
    fx = fixture("two_var_alpha", alpha=0.5)
    rates = information_rates(fx.model, DEFAULT_GRID)[MeasureKind.IPDC]
    assert abs(rates.values[1, 0] - 0.5 * math.log(1.25)) < 1e-8
    assert rates.values[0, 1] == 0.0


@criterion(7, "rescaling leaves |iPDC|, |iDTF|, |gPDC| unchanged (1e-12) but moves PDC by > 0.01")
def test_criterion_07_scale_invariance():
    fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
    scaled = rescale(fx.model, [2.0, 1.0, 0.5])
    base = every_measure(fx.model, GRID)
    moved = every_measure(scaled, GRID)
    for kind in (MeasureKind.IPDC, MeasureKind.IDTF, MeasureKind.GPDC):
        deviation = float(np.max(np.abs(np.abs(base[kind].values) - np.abs(moved[kind].values))))
        assert deviation < 1e-12, (kind, deviation)
    pdc_change = float(
        np.max(np.abs(np.abs(base[MeasureKind.PDC].values) - np.abs(moved[MeasureKind.PDC].values)))
    )
    assert pdc_change > 0.01, pdc_change


@criterion(8, "identity innovation covariance collapses each family to its classical member (1e-14)")
def test_criterion_08_identity_sigma_collapse():
    rng = np.random.default_rng(8)
    for k in (2, 3, 4, 5):
        model = random_stable_model(rng, k, sigma_kind="identity")
        results = every_measure(model, GRID)
        pdc = results[MeasureKind.PDC].values
        dtf = results[MeasureKind.DTF].values
        assert float(np.max(np.abs(pdc - results[MeasureKind.GPDC].values))) < 1e-14
        assert float(np.max(np.abs(pdc - results[MeasureKind.IPDC].values))) < 1e-14
        assert float(np.max(np.abs(dtf - results[MeasureKind.DC].values))) < 1e-14
        assert float(np.max(np.abs(dtf - results[MeasureKind.IDTF].values))) < 1e-14


@criterion(9, "two channels: |iPDC| = |iDTF| off-diagonal (1e-12) and the bridge round-trips (1e-14)")
def test_criterion_09_two_channel_coalescence(population):
    checked = 0
    for model in population:
        if model.K != 2:
            continue
        checked += 1
        results = every_measure(model, GRID)
        ipdc_mag = np.abs(results[MeasureKind.IPDC].values)
        idtf_mag = np.abs(results[MeasureKind.IDTF].values)
        for i, j in ((0, 1), (1, 0)):
            assert float(np.max(np.abs(ipdc_mag[:, i, j] - idtf_mag[:, i, j]))) < 1e-12
            squared = ipdc_mag[:, i, j] ** 2
            bridged, n_clipped = geweke_hosoya_bridge(squared)
            assert n_clipped == 0
            recovered = 1.0 - np.exp(-bridged)
            assert float(np.max(np.abs(recovered - squared))) < 1e-14
    assert checked >= 10


@criterion(10, "zeroing a coupling block kills H_bar, iPDC, iDTF and both rates; restoring revives all five")
def test_criterion_10_granger_nullity():
    rng = np.random.default_rng(10)
    tested = 0
    while tested < 5:
        model = random_stable_model(rng, 2)
        severed_coeffs = np.array(model.coeffs)
        severed_coeffs[:, 1, 0] = 0.0
        severed = VarModel(severed_coeffs, model.sigma)
        # keep pairs where both variants are usable and the coupling is real
        if not validate(severed).stable:
            continue
        if float(np.max(np.abs(model.coeffs[:, 1, 0]))) < 0.05:
            continue
        tested += 1
        spectra = evaluate_spectra(severed, GRID)
        results = every_measure(severed, GRID)
        assert float(np.max(np.abs(spectra.h_bar[:, 1, 0]))) < 1e-12
        assert float(np.max(np.abs(results[MeasureKind.IPDC].values[:, 1, 0]))) < 1e-12
        assert float(np.max(np.abs(results[MeasureKind.IDTF].values[:, 1, 0]))) < 1e-12
        for rates in information_rates(severed, GRID).values():
            assert rates.values[1, 0] < 1e-12
        full_spectra = evaluate_spectra(model, GRID)
        full = every_measure(model, GRID)
        assert float(np.max(np.abs(full_spectra.h_bar[:, 1, 0]))) > 1e-6
        assert float(np.max(np.abs(full[MeasureKind.IPDC].values[:, 1, 0]))) > 1e-6
        assert float(np.max(np.abs(full[MeasureKind.IDTF].values[:, 1, 0]))) > 1e-6
        for rates in information_rates(model, GRID).values():
            assert rates.values[1, 0] > 1e-8


@criterion(11, "simulate + fit recovers |ipdc_21| within 0.05 uniformly on the grid")
def test_criterion_11_estimation_recovery():
    fx = fixture("two_var_alpha", alpha=0.5)
    data, _ = simulate(fx.model, 20000, burn_in=1000, seed=42)
    fitted = estimate(data, 1)
    spectra = evaluate_spectra(fitted, DEFAULT_GRID)
    magnitude = np.abs(ipdc(spectra).values[:, 1, 0])
    assert float(np.max(np.abs(magnitude - math.sqrt(0.2)))) < 0.05


@criterion(12, "inverse reconstructions hold at 1e-10 and grid refinement moves fixture rates < 1e-8")
def test_criterion_12_numerical_conditioning(population):
    worst = 0.0
    for model in population:
        spectra = evaluate_spectra(model, GRID)
        eye = np.eye(model.K)
        worst = max(worst, float(np.max(np.abs(spectra.a_bar @ spectra.h_bar - eye))))
        worst = max(worst, float(np.max(np.abs(spectra.s @ spectra.s_inv - eye))))
    assert worst < 1e-10, worst
    for name, params in (
        ("two_var_alpha", {"alpha": 0.5}),
        ("three_var_alpha_beta", {"alpha": 0.5, "beta": 1.0}),
    ):
        model = fixture(name, **params).model
        fine = information_rates(model, FrequencyGrid.default(1024))
        for kind, base in information_rates(model, DEFAULT_GRID).items():
            assert float(np.max(np.abs(base.values - fine[kind].values))) < 1e-8
