"""Model and result documents (JSON) and time-series ingestion (CSV).

Documents are the text of ``json.dumps(document, sort_keys=True,
indent=2)`` and a newline. Model documents round-trip byte-identically:
loading and re-saving a document reproduces the file exactly. Result
documents are written straight from arrays, byte for byte as
``json.dumps`` writes them as nested lists ("re"/"im" for complex
arrays), and nothing is written when one is refused; a measure's arrays
may arrive a block of frequencies at a time (``ResultWriter``). The float
text of result documents and of time-series CSV comes from one vectorised
shortest-round-trip formatter (``_floattext``), byte-identical to ``repr``,
as ASCII bytes that go to files opened in binary mode.
"""

import csv
import functools
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from ._floattext import float_text
from .errors import DataError, DomainError, NumericalError, ParseError
from .spectral import FrequencyGrid
from .var_model import TimeSeriesData, VarModel

MODEL_SCHEMA_VERSION = 1
RESULT_SCHEMA_VERSION = 1

#: Environment variable holding a base directory for relative output paths.
OUTPUT_DIR_ENV = "VARCONN_OUT_DIR"

LAYOUTS = ("rows_are_samples", "rows_are_channels")

UNITS = ("nats_per_sample", "bits_per_sample")

_LN2 = math.log(2.0)


def resolve_output_path(path) -> Path:
    """Resolve a relative output path against VARCONN_OUT_DIR if set."""
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def model_to_document(model: VarModel, name: str | None = None) -> dict:
    """Serialize a model, with an optional name, to a plain dict."""
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "K": model.K,
        "p": model.p,
        "coeffs": model.coeffs.tolist(),
        "sigma": model.sigma.tolist(),
    }
    if name is not None:
        document["metadata"] = {"name": str(name)}
    return document


def model_from_document(document: dict) -> VarModel:
    """Reconstruct a model, checking the document's declared shape."""
    if not isinstance(document, dict):
        raise ParseError("model document must be a JSON object")
    version = document.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ParseError(f"unsupported model schema_version {version!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        k, p = _integer(document, "K"), _integer(document, "p")
        coeffs = np.asarray(document["coeffs"], dtype=float)
        sigma = np.asarray(document["sigma"], dtype=float)
    except KeyError as exc:
        raise ParseError(f"model document is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model document has malformed arrays: {exc}") from None
    if p == 0 and coeffs.shape == (0,):  # no lag matrices: JSON has no shape for an empty list
        coeffs = coeffs.reshape(0, k, k)
    if coeffs.shape != (p, k, k):
        raise ParseError(f"coeffs have shape {coeffs.shape}, declared (p, K, K) = ({p}, {k}, {k})")
    if sigma.shape != (k, k):
        raise ParseError(f"sigma has shape {sigma.shape}, declared (K, K) = ({k}, {k})")
    if float(np.max(np.abs(sigma - sigma.T), initial=0.0)) > 1e-9:
        raise ParseError("sigma is not symmetric within 1e-9")
    return VarModel(coeffs, sigma)


def _integer(document: dict, key: str) -> int:
    """document[key] as an int, refusing what JSON Schema's "integer" refuses: bools, fractions, strings."""
    value = document[key]
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ParseError(f"model document {key} must be an integer, got {value!r}")
    return int(value)


def save_model(model: VarModel, path, name: str | None = None) -> Path:
    """Write a model document; returns the resolved path."""
    target = resolve_output_path(path)
    text = json.dumps(model_to_document(model, name=name), sort_keys=True, indent=2, allow_nan=False) + "\n"
    target.write_text(text, encoding="utf-8")
    return target


def load_model(path) -> VarModel:
    """Read a model document."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    return model_from_document(document)


def load_timeseries(path, layout: str = "rows_are_samples") -> TimeSeriesData:
    """Read a CSV of numbers into TimeSeriesData.

    A header row is detected automatically (any non-numeric cell in the
    first row); a UTF-8 byte-order mark is skipped. Errors cite the
    position as line:column, one-based, counting physical file lines.
    """
    if layout not in LAYOUTS:
        raise DomainError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
    path = Path(path)
    try:
        values = _parse_vectorised(path)
        if values is None:
            values = _parse_cells(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    if layout == "rows_are_channels":
        values = values.T
    return TimeSeriesData._adopt(values)


def _parse_vectorised(path: Path) -> np.ndarray | None:
    """The CSV's values in one ``np.loadtxt`` call, or None when it refuses them.

    Only the rows up to the first data row are read with ``csv``, to detect
    the header. loadtxt parses unquoted numbers as ``float`` does; whatever
    it cannot parse (quotes, underscores, whitespace-only lines, ragged
    rows) or parses to a non-finite value is left to ``_parse_cells``,
    which reports the error or reads what it accepts. ``comments=None``
    keeps a "#" a parse error.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        rows = (row for row in reader if any(cell.strip() for cell in row))
        first = next(rows, None)
        header = first is not None and any(_is_not_number(cell) for cell in first)
        skip = reader.line_num if header else 0
        row = next(rows, None) if header else first
    if row is None:  # no data rows: _parse_cells says which error
        return None
    try:
        values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip, encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[1] != len(row) or not np.all(np.isfinite(values)):
        return None
    return values


def _parse_cells(path: Path) -> np.ndarray:
    """The CSV's values read cell by cell with ``float``, raising at the first bad cell.

    A row is numbered by the physical line its record starts on.
    """
    rows, start = [], 1
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append((start, row))
            start = reader.line_num + 1
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if any(_is_not_number(cell) for cell in rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header only, no data rows")
    width = len(rows[0][1])
    values = np.empty((len(rows), width))
    for r, (line, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: {line}:1: expected {width} fields, found {len(row)}")
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: {line}:{c + 1}: cannot parse {cell.strip()!r} as a number") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: {line}:{c + 1}: non-finite value {cell.strip()!r}")
            values[r, c] = value
    return values


def save_timeseries(data: TimeSeriesData, path) -> Path:
    """Write samples as CSV (rows are samples) under a ch1..chK header.

    Floats are written by the vectorised shortest-round-trip formatter,
    byte-identical to ``repr``, a block of values at a time.
    """
    target = resolve_output_path(path)
    with open(target, "wb") as handle:
        # each line ends in "\r\n" as csv.writer ends it, so the bytes match a csv.writer file
        handle.write((",".join(f"ch{i + 1}" for i in range(data.K)) + "\r\n").encode("ascii"))
        handle.writelines(float_text(data.values, (",", "\r\n", "\r\n")))
    return target


def _is_not_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


def render_result(
    grid: FrequencyGrid,
    measures: dict | None = None,
    mirs: dict | None = None,
    include_mag_sq: bool = False,
    units: str = "nats_per_sample",
    sample_rate_hz: float | None = None,
) -> Iterator[bytes]:
    """Check a result document, then return its ``json.dumps`` text in chunks of bytes.

    Keys of `measures` (to MeasureResult) and `mirs` (to MirMatrix) may be
    enums or strings. The measures are the one block of a ``ResultWriter``,
    so every refusal is raised by this call, before any text exists; a
    non-finite value raises NumericalError with the message of
    ``allow_nan=False``.
    """
    measures = measures or {}
    writer = ResultWriter(grid, measures, include_mag_sq, sample_rate_hz)
    for kind, result in measures.items():
        writer.add(kind, result.values)
    return writer.chunks(mirs, units)


#: Where a measure array sits in a result document: under the document, "measures" and its name.
_MEASURE_LEVEL = 3

#: Bytes per read when a spill is copied into the document.
_COPY_BYTES = 2**16


class ResultWriter:
    """A result document whose measures arrive a block of frequencies at a time.

    ``add`` takes the next block of one of `kinds` (enums or strings), a
    complex (n, K, K) array; a measure's blocks come in grid order and end
    on whole frequencies. Until an array of the document ("re", "im" and,
    with include_mag_sq, "mag_sq" of each measure) holds a non-finite value,
    each block's text goes to the array's spill, an unlinked file in
    ``tempfile``'s directory, which a spill's OSError names. ``chunks``
    raises ``units``, a ``sample_rate_hz`` the grid cannot be written in,
    the first non-finite value of the first array in request order that
    holds one, then a non-finite rate, all after a walk's refusals
    (``spectral._draw_kinds``); else it returns the document's bytes, the
    spills copied in key order. The spills close with the writer or when
    its chunks have been read to the end.
    """

    def __init__(self, grid: FrequencyGrid, kinds=(), include_mag_sq: bool = False, sample_rate_hz: float | None = None):
        self._spills = {}
        self.grid, self.sample_rate_hz = grid, sample_rate_hz
        self._rows = {_name(kind): 0 for kind in kinds}  # rows added of each measure
        self._fields = ("re", "im", "mag_sq") if include_mag_sq else ("re", "im")
        self._first_bad = {}  # (name, field) -> the first non-finite value met
        self._separators = _layout(_MEASURE_LEVEL, 3)[1]
        self._spills.update(((_name(kind), field), tempfile.TemporaryFile()) for kind in kinds for field in self._fields)

    def add(self, kind, values: np.ndarray) -> None:
        """Check a measure's next block and, unless an array holds a non-finite value, render it into the measure's spills."""
        name = _name(kind)
        self._rows[name] += len(values)
        separators = self._separators
        if self._rows[name] < self.grid.n_points:  # the block's last value closes a frequency, not the array
            separators = separators[:3] + separators[2:3]
        for field in self._fields:
            key = (name, field)
            with np.errstate(over="ignore"):  # a squared magnitude that overflows is refused as the inf it leaves
                part = values.real if field == "re" else values.imag if field == "im" else np.abs(values) ** 2
            if key not in self._first_bad and not np.all(np.isfinite(part)):
                self._first_bad[key] = float(part[~np.isfinite(part)][0])
            if not self._first_bad:
                try:  # flushed, so that a full disk is met here and not after the document's first byte
                    self._spills[key].writelines(float_text(part, separators))
                    self._spills[key].flush()
                except OSError as exc:  # a spill is an unlinked file: name its directory
                    raise OSError(exc.errno, exc.strerror, tempfile.gettempdir()) from None

    def chunks(self, mirs: dict | None = None, units: str = "nats_per_sample") -> Iterator[bytes]:
        """Raise a refusal, else return the document's text in chunks of bytes."""
        rate = self.sample_rate_hz
        if units not in UNITS:
            raise DomainError(f"unknown units {units!r}, expected one of {UNITS}")
        if rate is not None and not (rate > 0 and math.isfinite(math.pi * rate)):
            raise DomainError(f"sample_rate_hz must be positive with pi * sample_rate_hz finite, got {rate}")
        for key in self._spills:
            if key in self._first_bad:
                raise _non_finite(self._first_bad[key])
        grid_block = {"n_points": self.grid.n_points, "omega": self.grid.points}
        if rate is not None:
            grid_block["frequency_hz"] = self.grid.points * rate / (2.0 * np.pi)
        document = {"schema_version": RESULT_SCHEMA_VERSION, "grid": grid_block, "measures": {}, "mir": {}}
        for (name, field), spill in self._spills.items():
            document["measures"].setdefault(name, {})[field] = spill
        for kind, mir in (mirs or {}).items():
            values = mir.values if units == "nats_per_sample" else mir.values / _LN2
            if not np.all(np.isfinite(values)):
                raise _non_finite(float(values[~np.isfinite(values)][0]))
            document["mir"][_name(kind)] = {"values": values, "units": units, "n_clipped": int(mir.n_clipped)}
        return self._copy(document)

    def _copy(self, document: dict) -> Iterator[bytes]:
        with self:
            yield from _chunks(document, 0)
            yield b"\n"

    def close(self) -> None:
        for spill in self._spills.values():
            spill.close()

    __del__ = close  # a writer whose chunks are never read still closes its spills

    def __enter__(self) -> "ResultWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_result(chunks: Iterable[bytes], path) -> Path:
    """Write the chunks of a result document's bytes; returns the resolved path."""
    target = resolve_output_path(path)
    with open(target, "wb") as handle:
        handle.writelines(chunks)
    return target


def _name(kind) -> str:
    return str(getattr(kind, "value", kind))


def _non_finite(value: float) -> NumericalError:
    return NumericalError(f"Out of range float values are not JSON compliant: {value!r}")


def _layout(level: int, ndim: int) -> tuple[bytes, list[str]]:
    """The text before the values of an array at indent `level`, and the separators after them, for ``float_text``."""
    # a value that closes t axes is followed by t "]", then, unless it is the last, "," and t "["
    depth = level + ndim  # the values' indent
    closes = ["".join("\n" + "  " * (depth - 1 - j) + "]" for j in range(t)) for t in range(ndim + 1)]
    opens = ["".join("\n" + "  " * (depth - t + j) + "[" for j in range(t)) for t in range(ndim)]
    pad = "\n" + "  " * depth
    return ("[" + opens[-1] + pad).encode("ascii"), [closes[t] + "," + opens[t] + pad for t in range(ndim)] + closes[-1:]


def _chunks(node, level: int) -> Iterator[bytes]:
    """The text of a node at indent `level`, as ``json.dumps(sort_keys=True, indent=2)`` writes it."""
    if isinstance(node, np.ndarray):
        head, separators = _layout(level, node.ndim)
        yield head
        yield from float_text(node, separators)
    elif hasattr(node, "read"):  # a spill, which holds the text of an (n, K, K) array after its head
        yield _layout(level, 3)[0]
        node.seek(0)
        yield from iter(functools.partial(node.read, _COPY_BYTES), b"")
    elif isinstance(node, dict) and node:
        pad = "\n" + "  " * (level + 1)
        for index, key in enumerate(sorted(node)):
            yield (("," if index else "{") + pad + json.dumps(key) + ": ").encode("ascii")
            yield from _chunks(node[key], level + 1)
        yield ("\n" + "  " * level + "}").encode("ascii")
    else:
        yield json.dumps(node).encode("ascii")
