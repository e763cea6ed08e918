"""Model and result documents (JSON) and time-series ingestion (CSV).

Model documents round-trip byte-identically: loading and re-saving a
document reproduces the file exactly. Result documents are deterministic
for a given configuration. Complex arrays are serialized as separate
"re"/"im" nested lists.
"""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, ParseError
from .infotheory import MirMatrix
from .measures import MeasureResult
from .spectral import FrequencyGrid
from .var_model import TimeSeriesData, VarModel

MODEL_SCHEMA_VERSION = 1
RESULT_SCHEMA_VERSION = 1

#: Environment variable holding a base directory for relative output paths.
OUTPUT_DIR_ENV = "VARCONN_OUT_DIR"

LAYOUTS = ("rows_are_samples", "rows_are_channels")

UNITS = ("nats_per_sample", "bits_per_sample")

_LN2 = math.log(2.0)


def canonical_json(document: dict) -> str:
    """Render a document deterministically: sorted keys, 2-space indent."""
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def resolve_output_path(path) -> Path:
    """Resolve a relative output path against VARCONN_OUT_DIR if set."""
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def model_to_document(model: VarModel, name: str | None = None, sample_rate_hz: float | None = None) -> dict:
    """Serialize a model, with optional metadata, to a plain dict."""
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "K": model.K,
        "p": model.p,
        "coeffs": model.coeffs.tolist(),
        "sigma": model.sigma.tolist(),
    }
    metadata = {}
    if name is not None:
        metadata["name"] = str(name)
    if sample_rate_hz is not None:
        metadata["sample_rate_hz"] = float(sample_rate_hz)
    if metadata:
        document["metadata"] = metadata
    return document


def model_from_document(document: dict) -> VarModel:
    """Reconstruct a model, checking the document's declared shape."""
    if not isinstance(document, dict):
        raise ParseError("model document must be a JSON object")
    version = document.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ParseError(f"unsupported model schema_version {version!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        k = int(document["K"])
        p = int(document["p"])
        coeffs = np.asarray(document["coeffs"], dtype=float)
        sigma = np.asarray(document["sigma"], dtype=float)
    except KeyError as exc:
        raise ParseError(f"model document is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model document has malformed arrays: {exc}") from None
    if coeffs.shape != (p, k, k):
        raise ParseError(f"coeffs have shape {coeffs.shape}, declared (p, K, K) = ({p}, {k}, {k})")
    if sigma.shape != (k, k):
        raise ParseError(f"sigma has shape {sigma.shape}, declared (K, K) = ({k}, {k})")
    if float(np.max(np.abs(sigma - sigma.T), initial=0.0)) > 1e-9:
        raise ParseError("sigma is not symmetric within 1e-9")
    return VarModel(coeffs, sigma)


def save_model(model: VarModel, path, name: str | None = None, sample_rate_hz: float | None = None) -> Path:
    """Write a model document; returns the resolved path."""
    target = resolve_output_path(path)
    target.write_text(canonical_json(model_to_document(model, name=name, sample_rate_hz=sample_rate_hz)), encoding="utf-8")
    return target


def load_model(path) -> VarModel:
    """Read a model document."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return model_from_document(document)


def load_timeseries(path, layout: str = "rows_are_samples") -> TimeSeriesData:
    """Read a CSV of numbers into TimeSeriesData.

    A header row is detected automatically (any non-numeric cell in the
    first row). Errors cite the position as line:column, one-based,
    counting physical file lines.
    """
    if layout not in LAYOUTS:
        raise DomainError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [(number, row) for number, row in enumerate(csv.reader(handle), start=1) if any(cell.strip() for cell in row)]
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
    if layout == "rows_are_channels":
        values = values.T
    return TimeSeriesData(values)


def save_timeseries(data: TimeSeriesData, path) -> Path:
    """Write samples as CSV (rows are samples) under a ch1..chK header; floats use repr precision."""
    target = resolve_output_path(path)
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"ch{i + 1}" for i in range(data.K)])
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])
    return target


def _is_not_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


def measure_payload(result: MeasureResult, include_mag_sq: bool = False) -> dict:
    """Serialize one measure's complex values (optionally with |.|^2)."""
    payload = {
        "re": result.values.real.tolist(),
        "im": result.values.imag.tolist(),
    }
    if include_mag_sq:
        payload["mag_sq"] = (np.abs(result.values) ** 2).tolist()
    return payload


def mir_payload(mir: MirMatrix, units: str = "nats_per_sample") -> dict:
    """Serialize a rate matrix, converting units at this boundary only."""
    if units not in UNITS:
        raise DomainError(f"unknown units {units!r}, expected one of {UNITS}")
    values = mir.values if units == "nats_per_sample" else mir.values / _LN2
    return {
        "values": values.tolist(),
        "units": units,
        "n_clipped": int(mir.n_clipped),
    }


def build_result_document(
    grid: FrequencyGrid,
    measures: dict | None = None,
    mirs: dict | None = None,
    include_mag_sq: bool = False,
    units: str = "nats_per_sample",
    sample_rate_hz: float | None = None,
) -> dict:
    """Assemble the result document for a set of measures and rate matrices.

    Keys of `measures` and `mirs` may be enums or strings; string values
    are used in the document.
    """
    grid_block = {
        "n_points": grid.n_points,
        "omega": grid.points.tolist(),
    }
    if sample_rate_hz is not None:
        if not sample_rate_hz > 0:
            raise DomainError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
        grid_block["frequency_hz"] = (grid.points * sample_rate_hz / (2.0 * np.pi)).tolist()
    document = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "grid": grid_block,
        "measures": {},
        "mir": {},
    }
    for kind, result in (measures or {}).items():
        document["measures"][str(getattr(kind, "value", kind))] = measure_payload(result, include_mag_sq=include_mag_sq)
    for kind, mir in (mirs or {}).items():
        document["mir"][str(getattr(kind, "value", kind))] = mir_payload(mir, units=units)
    return document


def save_result(document: dict, path) -> Path:
    """Write a result document; returns the resolved path."""
    target = resolve_output_path(path)
    target.write_text(canonical_json(document), encoding="utf-8")
    return target
