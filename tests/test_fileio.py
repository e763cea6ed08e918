import csv
import errno
import io
import json
import math
import os
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
from varconn import fileio
from varconn._floattext import float_text
from varconn.fileio import (
    ResultWriter,
    _parse_cells,
    _parse_vectorised,
    model_from_document,
    model_to_document,
    resolve_output_path,
    save_result,
)
from varconn.oracles import random_stable_model

from test_floattext import SWEEP, from_bits

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

    @pytest.mark.parametrize(
        "sigma, resaved",
        [
            # mirrored entries 1 ulp apart load, and are symmetrized to their mean
            ([[1.0, 0.3], [0.30000000000000004, 1.0]], [[1.0, 0.30000000000000004], [0.30000000000000004, 1.0]]),
            ([[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]]),  # integers re-save as floats
        ],
        ids=["one-ulp-asymmetry", "integers"],
    )
    def test_round_trip_holds_only_for_documents_in_varconn_form(self, tmp_path, sigma, resaved):
        path = tmp_path / "model.json"
        document = {"schema_version": 1, "K": 2, "p": 0, "coeffs": [], "sigma": sigma}
        path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        first = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() != first
        assert json.loads(path.read_text(encoding="utf-8")) == {**document, "sigma": resaved}
        second = path.read_bytes()
        save_model(load_model(path), path)  # the re-saved document is in varconn's form
        assert path.read_bytes() == second

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
    @pytest.mark.parametrize("value", [1, 1.0, 1.9, 2.7, True, False, "1", None, [1], math.nan, math.inf, -1, 0, 1e20], ids=repr)
    def test_counts_accepted_exactly_as_the_schema_accepts_them(self, key, value):
        # the schema checks a count's type and range, not the arrays' shapes, so a count it
        # accepts is refused when the arrays do not match it
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(json.loads((DOCS / "model.schema.json").read_text()))
        for p in (1, 0):  # at p = 0 coeffs is [], which has no shape to check K against
            document = model_to_document(VarModel(np.full((p, 1, 1), 0.5), np.eye(1)))
            accepts = value == document[key]
            document[key] = value
            accepts = accepts and validator.is_valid(document)
            try:
                model = model_from_document(document)
            except ParseError:
                assert not accepts, p
            else:
                assert accepts, p
                assert (model.K, model.p) == (1, p)


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

    @pytest.mark.parametrize("row", [0, 2])
    def test_cell_beyond_the_csv_field_limit_is_a_parse_error(self, tmp_path, row):
        lines = ["1.0,2.0"] * 3
        # its line runs past the limit, so the file is read cell by cell in any row
        lines[row] = "9" * (csv.field_size_limit() + 1) + ",2.0"
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as caught:
            load_timeseries(path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("row", [0, 2])
    def test_valid_number_beyond_the_csv_field_limit_is_refused_in_any_row(self, tmp_path, row):
        # "1." and then zeros is 1.0 to float and to np.loadtxt alike; in the first row and in a later one it is
        # refused by one rule, at its line and column
        limit = csv.field_size_limit()
        lines = ["1.0,2.0"] * 3
        lines[row] = "1.0,1." + "0" * limit
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as caught:
            load_timeseries(path)
        assert str(caught.value) == f"{path}: {row + 1}:2: field larger than field limit ({limit})"
        assert csv.field_size_limit() == limit

    def test_lines_longer_than_the_field_limit_are_read_cell_by_cell(self, tmp_path):
        # rows_are_channels puts every sample of a channel on one line: its cells are short, so it is read,
        # with the values np.loadtxt gives
        values = np.random.default_rng(4).standard_normal((2, 30_000))
        path = self.write(tmp_path, "".join(",".join(map(repr, row.tolist())) + "\n" for row in values))
        assert min(map(len, path.read_text().splitlines())) > csv.field_size_limit()
        assert _parse_vectorised(path) is None
        data = load_timeseries(path, layout="rows_are_channels")
        assert np.array_equal(data.values, np.loadtxt(path, delimiter=",").T)

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

    def test_document_refused_before_the_layout(self, tmp_path):
        # the CSV is the document of fit, and a document is refused before the arguments
        path = self.write(tmp_path, "1.0,2.0\n3.0,x\n")
        with pytest.raises(ParseError, match="2:2: cannot parse 'x' as a number$"):
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


def assert_reads_as_float(path: Path) -> np.ndarray:
    """The vectorised reader accepts the file, and each value has the bits ``float`` gives its cell."""
    values = _parse_vectorised(path)
    assert values is not None
    expected = _parse_cells(path)
    assert values.shape == expected.shape
    wrong = np.flatnonzero(values.view(np.uint64) != expected.view(np.uint64))
    assert not wrong.size, [(float(values.flat[i]), float(expected.flat[i])) for i in wrong[:5]]
    return values


#: Texts at the ends of the exponent range: the smallest subnormal and what rounds to it or to 0,
#: the largest normal and its neighbours, and the normal-subnormal boundary.
EDGE_TEXTS = ["1e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "-4.9406564584124654e-324", "3e-324",
              "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "-2.225073858507201e-308",
              "1e-308", "1e308", "-1e+308", "1.7976931348623157e308", "1.7976931348623158e308", "0e999", "-0e-999"]


class TestDecimalReader:
    """The chunked reader against ``float``, bit for bit, on the text forms a CSV of doubles takes."""

    def test_float_text_sweep(self, tmp_path):
        # every value of the formatter's sweep, one a line, as float_text writes it: repr, which float reads back exactly
        values = np.concatenate([build() for build in SWEEP])
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"".join(float_text(values, ("\n", "\n"))))
        assert np.array_equal(_parse_vectorised(path)[:, 0].view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("digits", [17, 19, 20])
    def test_random_doubles_over_all_binades(self, tmp_path, digits):
        # 10**5 bit patterns, subnormals and both zeros among them, written with `digits` significant digits
        values = from_bits(np.random.default_rng(digits).integers(0, 2**64, 100_000, dtype=np.uint64))
        values = np.concatenate([values[np.isfinite(values)], [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]])
        cells = [f"{value:.{digits - 1}e}" for value in values.tolist()] + EDGE_TEXTS
        cells += ["0"] * (-len(cells) % 4)
        path = tmp_path / "binades.csv"
        path.write_text("".join(",".join(cells[i : i + 4]) + "\n" for i in range(0, len(cells), 4)))
        assert_reads_as_float(path)

    def test_savetxt_text(self, tmp_path):
        values = draw(np.random.default_rng(11), (5000, 3))
        path = tmp_path / "savetxt.csv"
        np.savetxt(path, values, fmt="%.18e", delimiter=",")
        assert np.array_equal(assert_reads_as_float(path).view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "no final line end"])
    def test_point_forms_and_line_ends(self, tmp_path, end):
        lines = [".5,5.,-.5", "+5.e-1,-0.,.0e0", "00012.50,1E5,-0", "9007199254740993,18446744073709551615,123456789012345678901234"]
        path = tmp_path / "forms.csv"
        path.write_bytes(("\r\n" if end == "\r\n" else "\n").join(lines).encode("ascii") + end.encode("ascii"))
        assert assert_reads_as_float(path).shape == (4, 3)

    @pytest.mark.parametrize("lone", [False, True])
    def test_carriage_return_across_a_read(self, tmp_path, lone):
        # a carriage return in the last byte of a read of the buffer's size, its line feed the next read's first, is a
        # line end; one with no line feed is left to the cell-by-cell reader
        size = fileio._PAD + fileio._READ_BYTES + 1
        head = "1.5,2\r\n" * ((size - 8) // 7)
        text = head + "1" * (size - 4 - len(head)) + ",22\r" + ("" if lone else "\n") + "3,4\r\n"
        assert text[size - 1] == "\r"
        path = tmp_path / "returns.csv"
        path.write_bytes(text.encode("ascii"))
        if lone:
            assert _parse_vectorised(path) is None
        else:
            assert assert_reads_as_float(path).shape == (text.count("\n"), 2)

    def test_chunk_edges(self, monkeypatch, tmp_path):
        # chunks of 64 bytes: lines cut back at every offset, and a carried line after each cut
        monkeypatch.setattr(fileio, "_READ_BYTES", 64)
        path = tmp_path / "chunks.csv"
        path.write_text("a,b\n" + repr_rows(12, (300, 2)))
        assert_reads_as_float(path)
        path.write_text("9" * 70 + "\n")  # one line longer than a chunk
        assert _parse_vectorised(path) is None

    def test_load_in_bounded_memory(self, tmp_path):
        # chunks of text into one array of the values: 1.05 MiB beyond a 0.76 MiB array when np.loadtxt read them
        rng = np.random.default_rng(6)
        beyond = {}
        for n_samples in (20_000, 200_000):
            path = save_timeseries(TimeSeriesData(rng.standard_normal((n_samples, 5))), tmp_path / f"series{n_samples}.csv")
            tracemalloc.start()
            try:
                data = load_timeseries(path)
                beyond[n_samples] = tracemalloc.get_traced_memory()[1] - data.values.nbytes
            finally:
                tracemalloc.stop()
        assert beyond[200_000] < 2**20, beyond
        assert abs(beyond[200_000] - beyond[20_000]) < 2**14, beyond


def every_measure(model) -> dict:
    return {result.kind: result for result in measures_from_spectra(evaluate_spectra(model, GRID), MeasureKind)}


def render(grid, measures=None, mirs=None, include_mag_sq=False, units="nats_per_sample", sample_rate_hz=None):
    """A result document's chunks from a ResultWriter that takes each measure as one block."""
    measures = measures or {}
    writer = ResultWriter(grid, measures, include_mag_sq, sample_rate_hz)
    for kind, result in measures.items():
        writer.add(kind, result.values)
    return writer.chunks(mirs, units)


def rendered(grid, **kwargs) -> dict:
    return json.loads(b"".join(render(grid, **kwargs)))


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
            render(GRID, mirs={"ipdc": rates}, units="hartleys")

    def test_frequency_annotation(self):
        document = rendered(GRID, sample_rate_hz=200.0)
        hz = np.asarray(document["grid"]["frequency_hz"])
        assert hz[0] == 0.0
        assert_allclose(hz[-1], 100.0)

    def test_documents_are_deterministic(self, tmp_path):
        fx = fixture("two_var_alpha", alpha=0.5)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert save_result(render(GRID, measures=every_measure(fx.model)), a) == a
        save_result(render(GRID, measures=every_measure(fx.model)), b)
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # stays valid JSON


class TestResultWriter:
    """ResultWriter's bytes are what json.dumps writes for the same document.

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
            render(grid, measures=measures, mirs=mirs, include_mag_sq=include_mag_sq, units=units, sample_rate_hz=sample_rate_hz)
        )
        assert (json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n").encode() == text

    def test_empty_blocks(self):
        text = b"".join(render(FrequencyGrid(3)))
        assert (json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n").encode() == text
        assert b'"measures": {}' in text and b'"mir": {}' in text

    def test_blocks_short_of_the_grid_are_refused_when_rendered(self):
        # a spill holding fewer values than the grid has is never rendered from a stale workspace
        writer = ResultWriter(FrequencyGrid(3), ["coh", "pdc"])
        writer.add("coh", np.ones((3, 1, 1), complex))
        writer.add("pdc", np.ones((2, 1, 1), complex))
        with pytest.raises(ValueError):
            b"".join(writer.chunks())

    def test_blocks_past_the_grid_are_refused_when_rendered(self):
        # a fourth frequency on a grid of three was once dropped without a word
        writer = ResultWriter(FrequencyGrid(3), ["coh"])
        writer.add("coh", np.ones((4, 2, 2), complex))
        with pytest.raises(ValueError, match="hold 16 values of re, not n_points"):
            b"".join(writer.chunks())

    def test_dense_document_renders_in_bounded_memory(self, tmp_path):
        # the dense_measure benchmark's document: all seven measures with mag_sq, K = 8, 512 points
        grid = FrequencyGrid(512)
        spectra = evaluate_spectra(random_stable_model(np.random.default_rng(8), 8, 3), grid)
        measures = {result.kind: result for result in measures_from_spectra(spectra, MeasureKind)}
        tracemalloc.start()
        try:
            save_result(render(grid, measures=measures, include_mag_sq=True), tmp_path / "dense.json")
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
                render(
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


#: A call of each saver, with ``path`` its target, in ``run_with_file_limit``'s child.
SAVER_CALLS = {
    "save_model": "varconn.save_model(varconn.fixture('two_var_alpha', alpha=0.5).model, path)",
    "save_result": "varconn.fileio.save_result(varconn.fileio.ResultWriter(varconn.FrequencyGrid(16)).chunks(), path)",
    "save_timeseries": "varconn.save_timeseries(varconn.TimeSeriesData(np.ones((10, 2))), path)",
}


class TestFailedWrites:
    """A write that fails after the file is opened leaves no partial file, whichever saver writes it."""

    @pytest.mark.parametrize("through_link", [False, True], ids=["file", "link"])
    @pytest.mark.parametrize("saver", sorted(SAVER_CALLS))
    def test_write_failing_after_the_first_byte_leaves_no_file(self, tmp_path, run_with_file_limit, saver, through_link):
        target = path = tmp_path / "out"
        if through_link:  # opening the target truncates its old text, so it goes too
            target.write_bytes(b"old")
            path = tmp_path / "link"
            path.symlink_to(target)
        code = f"path = sys.argv[1]\ntry:\n    {SAVER_CALLS[saver]}\nexcept OSError as exc:\n    print(exc.errno)\n"
        done = run_with_file_limit(1, code, str(path))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{errno.EFBIG}\n"
        assert not target.exists()

    @pytest.mark.parametrize("device", [False, True], ids=["file", "device"])
    def test_failing_chunks_remove_a_file_and_keep_a_device(self, tmp_path, device):
        if device and not os.path.exists(os.devnull):
            pytest.skip("needs a null device")
        path = os.devnull if device else tmp_path / "out.json"

        def chunks():
            yield b"{"
            raise OSError(errno.EIO, "Input/output error")

        with pytest.raises(OSError, match="Input/output error"):
            save_result(chunks(), path)
        assert os.path.exists(path) == device
