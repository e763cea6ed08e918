import csv
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varconn import (
    DataError,
    DomainError,
    FrequencyGrid,
    MeasureKind,
    MeasureResult,
    MirMatrix,
    NumericalError,
    ParseError,
    TimeSeriesData,
    VarModel,
    evaluate_spectra,
    fixture,
    information_rates,
    load_model,
    load_timeseries,
    measures_from_spectra,
    save_model,
    save_timeseries,
)
from varconn.fileio import (
    _parse_cells,
    _parse_vectorised,
    model_from_document,
    model_to_document,
    render_result,
    resolve_output_path,
    save_result,
)
from varconn.oracles import random_stable_model

GRID = FrequencyGrid(16)
DOCS = Path(__file__).resolve().parents[1] / "docs"

#: Values whose repr takes each of float's forms: signed zero, exponents
#: both ways, the smallest subnormal, and the neighbours of 1.
SPECIAL_VALUES = (-0.0, 1e-05, 1e16, 5e-324, 1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-12)


def draw(rng, shape) -> np.ndarray:
    """Random floats across 17 decades, with SPECIAL_VALUES scattered in."""
    values = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)).reshape(-1)
    count = min(values.size, len(SPECIAL_VALUES))
    values[:count] = SPECIAL_VALUES[:count]
    rng.shuffle(values)
    return values.reshape(shape)


class TestModelDocuments:
    def test_round_trip_is_byte_identical(self, tmp_path):
        fx = fixture("three_var_alpha_beta", alpha=0.5, beta=1.0)
        path = tmp_path / "model.json"
        save_model(fx.model, path, name="chain")
        first = path.read_bytes()
        reloaded = load_model(path)
        save_model(reloaded, path, name="chain")
        assert path.read_bytes() == first

    def test_round_trip_without_lags(self, tmp_path):
        # a p = 0 document writes coeffs as [], which carries no (0, K, K) shape
        model = VarModel(np.zeros((0, 2, 2)), np.eye(2))
        path = tmp_path / "white.json"
        save_model(model, path)
        assert json.loads(path.read_text())["coeffs"] == []
        reloaded = load_model(path)
        assert reloaded.coeffs.shape == (0, 2, 2)
        assert_allclose(reloaded.sigma, model.sigma)

    def test_document_shape(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        document = model_to_document(fx.model, name="pair")
        assert document["schema_version"] == 1
        assert document["K"] == 2
        assert document["p"] == 1
        assert document["metadata"] == {"name": "pair"}
        # the schema's optional sample rate is accepted and not kept
        document["metadata"]["sample_rate_hz"] = 250.0
        rebuilt = model_from_document(document)
        assert_allclose(rebuilt.coeffs, fx.model.coeffs)
        assert_allclose(rebuilt.sigma, fx.model.sigma)

    def test_rejects_wrong_schema_version(self):
        document = model_to_document(fixture("two_var_alpha", alpha=0.5).model)
        document["schema_version"] = 99
        with pytest.raises(ParseError, match="schema_version"):
            model_from_document(document)

    def test_rejects_shape_mismatch(self):
        document = model_to_document(fixture("two_var_alpha", alpha=0.5).model)
        document["p"] = 2
        with pytest.raises(ParseError, match="coeffs"):
            model_from_document(document)

    def test_rejects_asymmetric_sigma(self):
        document = model_to_document(fixture("two_var_alpha", alpha=0.5).model)
        document["sigma"] = [[1.0, 0.1], [0.0, 1.0]]
        with pytest.raises(ParseError, match="symmetric"):
            model_from_document(document)

    def test_rejects_missing_key(self):
        document = model_to_document(fixture("two_var_alpha", alpha=0.5).model)
        del document["sigma"]
        with pytest.raises(ParseError, match="sigma"):
            model_from_document(document)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="JSON"):
            load_model(path)

    def test_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_model(path)

    @pytest.mark.parametrize("key", ["K", "p"])
    @pytest.mark.parametrize("value", [1, 1.0, 1.9, 2.7, True, False, "1", None, [1], math.nan, math.inf], ids=repr)
    def test_counts_accepted_exactly_as_the_schema_accepts_them(self, key, value):
        jsonschema = pytest.importorskip("jsonschema")
        document = model_to_document(VarModel([[[0.5]]], np.eye(1)))
        document[key] = value
        schema_accepts = jsonschema.Draft202012Validator(json.loads((DOCS / "model.schema.json").read_text())).is_valid(document)
        try:
            model = model_from_document(document)
        except ParseError:
            assert not schema_accepts
        else:
            assert schema_accepts
            assert (model.K, model.p) == (1, 1)


class TestTimeseriesCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_header_detection(self, tmp_path):
        rng = np.random.default_rng(0)
        body = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.standard_normal((1000, 3)))
        path = self.write(tmp_path, "a,b,c\n" + body + "\n")
        data = load_timeseries(path)
        assert data.K == 3
        assert data.n_samples == 1000

    def test_headerless_file(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0,4.0\n")
        data = load_timeseries(path)
        assert data.n_samples == 2
        assert_allclose(data.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text, vectorised",
        [("1.0,2.0\n3.0,4.0\n5.0,6.0\n", True), ("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.0\n", True), ('"1.0",2.0\n3.0,4.0\n5.0,6.0\n', False)],
        ids=["headerless", "header", "quoted cell"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, vectorised):
        # a mark left in the first cell would make a data row look like a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert (_parse_vectorised(path) is not None) == vectorised
        assert np.array_equal(load_timeseries(path).values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_parse_error_cites_line_and_column(self, tmp_path):
        rows = ["%f,%f" % (i, i) for i in range(10)]
        rows[6] = "6.0,abc"  # physical line 7, column 2
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"7:2"):
            load_timeseries(path)

    def test_rows_are_numbered_by_physical_line(self, tmp_path):
        # the quoted header cell spans lines 1 and 2, so the bad cell sits on line 4
        path = self.write(tmp_path, '"a\nb",c\n1,2\n3,x\n')
        with pytest.raises(ParseError, match=r": 4:2: cannot parse 'x' as a number$"):
            load_timeseries(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match=r"2:1"):
            load_timeseries(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataError, match=r"2:2"):
            load_timeseries(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ParseError, match="no data"):
            load_timeseries(path)

    def test_header_only_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,b\n")
        with pytest.raises(ParseError, match="no data"):
            load_timeseries(path)

    def test_transposed_layout(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = load_timeseries(path, layout="rows_are_channels")
        assert data.n_samples == 3
        assert data.K == 2
        assert_allclose(data.values[:, 0], [1.0, 2.0, 3.0])

    def test_unknown_layout(self, tmp_path):
        path = self.write(tmp_path, "1.0\n")
        with pytest.raises(DomainError, match="layout"):
            load_timeseries(path, layout="columns")

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = TimeSeriesData(rng.standard_normal((50, 2)))
        path = tmp_path / "series.csv"
        save_timeseries(data, path)
        reloaded = load_timeseries(path)
        assert np.array_equal(reloaded.values, data.values)

    @pytest.mark.parametrize("k", [1, 3])
    def test_save_writes_what_csv_writer_writes(self, tmp_path, k):
        rng = np.random.default_rng(k)
        data = TimeSeriesData(draw(rng, (40, k)))
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow([f"ch{i + 1}" for i in range(k)])
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])
        path = save_timeseries(data, tmp_path / "series.csv")
        assert path.read_bytes() == reference.getvalue().encode("utf-8")

    @pytest.mark.parametrize("case", ["rows_are_channels file", "single sample", "uneven row count"])
    def test_save_writes_what_csv_writer_writes_at_block_edges(self, tmp_path, case):
        rng = np.random.default_rng(7)
        if case == "rows_are_channels file":  # loaded transposed: a Fortran-ordered view
            path = tmp_path / "channels.csv"
            path.write_text(repr_rows(3, (3, 1500)))
            data = load_timeseries(path, layout="rows_are_channels")
            assert not data.values.flags.c_contiguous
        else:  # 3001 rows of 3: a multiple of neither 2048 rows nor a block of values
            data = TimeSeriesData(draw(rng, (1, 4) if case == "single sample" else (3001, 3)))
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow([f"ch{i + 1}" for i in range(data.K)])
        writer.writerows([repr(float(v)) for v in row] for row in data.values)
        assert save_timeseries(data, tmp_path / "series.csv").read_bytes() == reference.getvalue().encode("utf-8")

    def test_save_writes_in_bounded_memory(self, tmp_path):
        # the CSV counterpart of TestResultWriter.test_dense_document_renders_in_bounded_memory:
        # the text goes out a block at a time, so the peak does not grow with the sample count
        rng = np.random.default_rng(5)
        peaks = {}
        for n_samples in (20_000, 200_000):
            data = TimeSeriesData(rng.standard_normal((n_samples, 5)))
            tracemalloc.start()
            try:
                save_timeseries(data, tmp_path / f"series{n_samples}.csv")
                peaks[n_samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200_000] < 1.5 * 2**20, peaks
        assert abs(peaks[200_000] - peaks[20_000]) < 0.25 * 2**20, peaks


def repr_rows(seed: int, shape, sep="\n") -> str:
    return "".join(",".join(map(repr, row)) + sep for row in draw(np.random.default_rng(seed), shape).tolist())


#: (CSV text, whether the vectorised parse accepts it). Whatever it
#: refuses must come out of the per-cell loop unchanged.
PARITY_CASES = {
    "repr floats": ("ch1,ch2,ch3\n" + repr_rows(0, (200, 3)), True),
    "repr floats, no header, one column": (repr_rows(1, (50, 1)), True),
    "repr floats, crlf": ("a,b\r\n" + repr_rows(2, (30, 2), "\r\n"), True),
    "signs, spaces, exponents": (" +2.5 ,1e5\n-0.0, -1E-3\n", True),
    "underscore": ("1_0,2\n3,4\n", False),
    "quoted cells": ('"x","y"\n"1.5",2\n3,"-4e2"\n', False),
    "quoted header only": ('"x","y"\n1.5,2\n', True),
    "hash cell": ("1,2\n3,#4\n", False),
    "trailing comment": ("a,b\n1,2 # note\n", False),
    "blank lines": ("\n  \n\na,b\n\n1,2\n\n3,4\n\n", True),
    "whitespace-only line after header": ("a,b\n1,2\n \t \n3,4\n", False),
    "crlf blank lines": ("\r\n \r\na,b\r\n\r\n1,2\r\n", True),
    "header cell spanning lines": ('"a\nb",c\n1,2\n3,4\n', True),
    "header cell spanning lines, bad cell": ('"a\nb",c\n1,2\n3,x\n', False),
    "header wider than data": ("a,b,c\n1,2\n3,4\n", True),
    "ragged": ("a,b\n1,2\n3\n", False),
    "too wide": ("1,2\n3,4,5\n", False),
    "empty cell": ("1,,2\n", False),
    "text cell": ("1,2\n3,abc\n", False),
    "nan": ("1,2\n3,nan\n", False),
    "overflow to inf": ("1,2\n1e400,4\n", False),
    "empty": ("", False),
    "blank only": ("\n \n\r\n", False),
    "header only": ("a,b\n", False),
    "header then blank lines": ("a,b\n\n  \n", False),
}


class TestVectorisedCsvParse:
    @pytest.mark.parametrize("text, accepted", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_matches_the_cell_loop(self, tmp_path, text, accepted):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on an input with no data
            vectorised = _parse_vectorised(path)
            assert (vectorised is not None) == accepted
            try:
                expected = _parse_cells(path)
            except (ParseError, DataError) as exc:
                with pytest.raises(type(exc)) as caught:
                    load_timeseries(path)
                assert type(caught.value) is type(exc)
                assert str(caught.value) == str(exc)
                return
            assert np.array_equal(load_timeseries(path).values, expected)
        if accepted:
            assert np.array_equal(vectorised, expected)
            assert np.array_equal(np.signbit(vectorised), np.signbit(expected))


def every_measure(model) -> dict:
    return {result.kind: result for result in measures_from_spectra(evaluate_spectra(model, GRID), MeasureKind)}


def rendered(grid, **kwargs) -> dict:
    return json.loads(b"".join(render_result(grid, **kwargs)))


class TestResultDocuments:
    def test_measure_serialization(self, tmp_path):
        fx = fixture("two_var_alpha", alpha=0.5)
        results = every_measure(fx.model)
        document = rendered(GRID, measures={MeasureKind.IPDC: results[MeasureKind.IPDC]}, include_mag_sq=True)
        payload = document["measures"]["ipdc"]
        re = np.asarray(payload["re"])
        im = np.asarray(payload["im"])
        mag_sq = np.asarray(payload["mag_sq"])
        assert re.shape == (GRID.n_points, 2, 2)
        assert_allclose(re + 1j * im, results[MeasureKind.IPDC].values, atol=1e-15)
        assert_allclose(mag_sq, np.abs(results[MeasureKind.IPDC].values) ** 2, atol=1e-15)

    def test_mag_sq_omitted_by_default(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        results = every_measure(fx.model)
        document = rendered(GRID, measures={MeasureKind.PDC: results[MeasureKind.PDC]})
        assert "mag_sq" not in document["measures"]["pdc"]

    def test_units_conversion_to_bits(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = information_rates(fx.model, GRID, ["ipdc"])[MeasureKind.IPDC]
        nats = rendered(GRID, mirs={"ipdc": rates})
        bits = rendered(GRID, mirs={"ipdc": rates}, units="bits_per_sample")
        nats_vals = np.asarray(nats["mir"]["ipdc"]["values"])
        bits_vals = np.asarray(bits["mir"]["ipdc"]["values"])
        assert nats["mir"]["ipdc"]["units"] == "nats_per_sample"
        assert bits["mir"]["ipdc"]["units"] == "bits_per_sample"
        assert_allclose(bits_vals, nats_vals / math.log(2.0), atol=1e-15)
        assert nats["mir"]["ipdc"]["n_clipped"] == rates.n_clipped

    def test_unknown_units_rejected(self):
        fx = fixture("two_var_alpha", alpha=0.5)
        rates = information_rates(fx.model, GRID, ["ipdc"])[MeasureKind.IPDC]
        with pytest.raises(DomainError, match="units"):
            render_result(GRID, mirs={"ipdc": rates}, units="hartleys")

    def test_frequency_annotation(self):
        document = rendered(GRID, sample_rate_hz=200.0)
        hz = np.asarray(document["grid"]["frequency_hz"])
        assert hz[0] == 0.0
        assert_allclose(hz[-1], 100.0)

    def test_documents_are_deterministic(self, tmp_path):
        fx = fixture("two_var_alpha", alpha=0.5)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert save_result(render_result(GRID, measures=every_measure(fx.model)), a) == a
        save_result(render_result(GRID, measures=every_measure(fx.model)), b)
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # stays valid JSON


class TestResultWriter:
    """render_result's bytes are what json.dumps writes for the same document.

    The oracle parses the text and renders it again through json.dumps,
    which shares no code with the writer: any byte the writer gets wrong,
    or any value it rounds, makes the two texts differ.
    """

    @pytest.mark.parametrize("k, n_points", [(1, 1), (3, 5), (2, 17), (6, 129)])  # 129 x 6 x 6 values cross a block
    @pytest.mark.parametrize("include_mag_sq", [False, True])
    @pytest.mark.parametrize("units, sample_rate_hz", [("nats_per_sample", None), ("bits_per_sample", 250.0)])
    def test_text_equals_canonical_json(self, k, n_points, include_mag_sq, units, sample_rate_hz):
        rng = np.random.default_rng([k, n_points])
        grid = FrequencyGrid(n_points)
        shape = (n_points, k, k)
        measures = {kind: MeasureResult(kind, draw(rng, shape) + 1j * draw(rng, shape)) for kind in (MeasureKind.IPDC, MeasureKind.COHERENCE)}
        mirs = {kind: MirMatrix(kind, np.abs(draw(rng, (k, k))), int(rng.integers(0, 5))) for kind in (MeasureKind.IDTF, MeasureKind.IPDC)}
        text = b"".join(
            render_result(grid, measures=measures, mirs=mirs, include_mag_sq=include_mag_sq, units=units, sample_rate_hz=sample_rate_hz)
        )
        assert (json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n").encode() == text

    def test_empty_blocks(self):
        text = b"".join(render_result(FrequencyGrid(3)))
        assert (json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n").encode() == text
        assert b'"measures": {}' in text and b'"mir": {}' in text

    def test_dense_document_renders_in_bounded_memory(self, tmp_path):
        # the dense_measure benchmark's document: all seven measures with mag_sq, K = 8, 512 points
        grid = FrequencyGrid(512)
        spectra = evaluate_spectra(random_stable_model(np.random.default_rng(8), 8, 3), grid)
        measures = {result.kind: result for result in measures_from_spectra(spectra, MeasureKind)}
        tracemalloc.start()
        try:
            save_result(render_result(grid, measures=measures, include_mag_sq=True), tmp_path / "dense.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5.32 MiB when each array's text was built whole from one repr per value; 2.54 MiB a block at a time
        assert peak < 5.0 * 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["re", "im", "mir"])
    def test_non_finite_refused_before_any_byte(self, tmp_path, bad, where):
        values = np.zeros((GRID.n_points, 2, 2), dtype=complex)
        rates = np.zeros((2, 2))
        if where == "mir":
            rates[1, 0] = bad
        else:
            values[3, 1, 0] = complex(bad, 0.0) if where == "re" else complex(0.0, bad)
        out = tmp_path / "result.json"
        with pytest.raises(NumericalError, match="not JSON compliant"):
            save_result(
                render_result(
                    GRID,
                    measures={"pdc": MeasureResult(MeasureKind.PDC, values)},
                    mirs={"ipdc": MirMatrix(MeasureKind.IPDC, rates)},
                ),
                out,
            )
        assert not out.exists()


class TestOutputDir:
    def test_env_var_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARCONN_OUT_DIR", str(tmp_path))
        assert resolve_output_path("out.json") == tmp_path / "out.json"
        absolute = tmp_path / "abs.json"
        assert resolve_output_path(absolute) == absolute

    def test_unset_env_is_identity(self, monkeypatch):
        monkeypatch.delenv("VARCONN_OUT_DIR", raising=False)
        assert str(resolve_output_path("out.json")) == "out.json"

    def test_save_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARCONN_OUT_DIR", str(tmp_path))
        fx = fixture("two_var_alpha", alpha=0.5)
        written = save_model(fx.model, "model.json")
        assert written == tmp_path / "model.json"
        assert written.exists()
