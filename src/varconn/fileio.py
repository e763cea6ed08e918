"""Model and result documents (JSON) and time-series ingestion (CSV).

Documents are the text of ``json.dumps(document, sort_keys=True,
indent=2)`` and a newline. Model documents round-trip byte-identically:
loading and re-saving a document reproduces the file exactly. Result
documents are written straight from arrays, byte for byte as
``json.dumps`` writes them as nested lists ("re"/"im" for complex
arrays), and nothing is written when one is refused. The float text of
result documents and of time-series CSV comes from one vectorised
shortest-round-trip formatter (``_floattext``), byte-identical to ``repr``.
"""

import csv
import itertools
import json
import math
import os
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
    with open(target, "w", newline="", encoding="utf-8") as handle:
        # each line ends in "\r\n" as csv.writer ends it, so the bytes match a csv.writer file
        handle.write(",".join(f"ch{i + 1}" for i in range(data.K)) + "\r\n")
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
) -> Iterator[str]:
    """Check a result document, then return its ``json.dumps`` text in chunks.

    Keys of `measures` (to MeasureResult) and `mirs` (to MirMatrix) may be
    enums or strings. Every refusal is raised by this call, before any text
    exists; a non-finite value raises NumericalError with the message of
    ``allow_nan=False``.
    """
    if units not in UNITS:
        raise DomainError(f"unknown units {units!r}, expected one of {UNITS}")
    grid_block = {"n_points": grid.n_points, "omega": grid.points}
    if sample_rate_hz is not None:
        if not (sample_rate_hz > 0 and math.isfinite(math.pi * sample_rate_hz)):
            raise DomainError(f"sample_rate_hz must be positive with pi * sample_rate_hz finite, got {sample_rate_hz}")
        grid_block["frequency_hz"] = grid.points * sample_rate_hz / (2.0 * np.pi)
    document = {"schema_version": RESULT_SCHEMA_VERSION, "grid": grid_block, "measures": {}, "mir": {}}
    for kind, result in (measures or {}).items():
        block = document["measures"][str(getattr(kind, "value", kind))] = {"re": result.values.real, "im": result.values.imag}
        if include_mag_sq:
            block["mag_sq"] = np.abs(result.values) ** 2
    for kind, mir in (mirs or {}).items():
        values = mir.values if units == "nats_per_sample" else mir.values / _LN2
        document["mir"][str(getattr(kind, "value", kind))] = {"values": values, "units": units, "n_clipped": int(mir.n_clipped)}
    _check_finite(document)
    return itertools.chain(_chunks(document, 0), ("\n",))


def save_result(chunks: Iterable[str], path) -> Path:
    """Write the chunks of a rendered result document; returns the resolved path."""
    target = resolve_output_path(path)
    with open(target, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)
    return target


def _check_finite(node) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _check_finite(value)
    elif isinstance(node, np.ndarray) and not np.all(np.isfinite(node)):
        raise NumericalError(f"Out of range float values are not JSON compliant: {float(node[~np.isfinite(node)][0])!r}")


def _chunks(node, level: int) -> Iterator[str]:
    """The text of a node at indent `level`, as ``json.dumps(sort_keys=True, indent=2)`` writes it."""
    if isinstance(node, np.ndarray):
        # a value that closes t axes is followed by t "]", then, unless it is the last, "," and t "["
        depth = level + node.ndim  # the values' indent
        closes = ["".join("\n" + "  " * (depth - 1 - j) + "]" for j in range(t)) for t in range(node.ndim + 1)]
        opens = ["".join("\n" + "  " * (depth - t + j) + "[" for j in range(t)) for t in range(node.ndim)]
        pad = "\n" + "  " * depth
        yield "[" + opens[-1] + pad
        yield from float_text(node, [closes[t] + "," + opens[t] + pad for t in range(node.ndim)] + closes[-1:])
    elif isinstance(node, dict) and node:
        pad = "\n" + "  " * (level + 1)
        for index, key in enumerate(sorted(node)):
            yield ("," if index else "{") + pad + json.dumps(key) + ": "
            yield from _chunks(node[key], level + 1)
        yield "\n" + "  " * level + "}"
    else:
        yield json.dumps(node)
