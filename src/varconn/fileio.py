"""Model and result documents (JSON) and time series (CSV).

Documents are the text of ``json.dumps(document, sort_keys=True,
indent=2)`` and a newline. A model document in that form, as
``save_model`` writes it, round-trips byte-identically: loading and
re-saving it reproduces the file exactly. Another valid document may
re-save with other bytes: an integer 1 re-saves as 1.0, and a sigma whose
mirrored entries differ in the last digit re-saves symmetrized. Result
documents are written straight from arrays, byte for byte as
``json.dumps`` writes them as nested lists ("re"/"im" for complex
arrays), and nothing is written when one is refused; a measure's arrays
may arrive a block of frequencies at a time (``ResultWriter``, which spills
each array it prints as float64, and renders a large document in two
processes: a forked worker formats the later arrays into a text spill while
this one writes the rest), as a CSV's rows may arrive a block of samples
at a time (``TimeseriesWriter``); both check finiteness by one rule. The float
text of result documents and of time-series CSV comes from one vectorised
shortest-round-trip formatter (``_floattext``), byte-identical to ``repr``,
as ASCII bytes that go to files opened in binary mode.

Every file written here, model document, result document or CSV, is an
``OutputFile``. A refusal met before it is opened leaves an existing file
untouched; one met after it is opened, an I/O error included, removes it
when it is a regular file, so no partial file remains.
"""

import contextlib
import csv
import errno
import json
import math
import os
import shutil
import stat
import tempfile
import time
import types
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import _fork
from ._floattext import _POW10, _U, _tables, float_text, nearest_doubles, read_digits
from ._stages import add, stage, timed
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
    # sigma first: its shape vouches for K before K shapes the empty coeffs of p = 0
    if sigma.shape != (k, k):
        raise ParseError(f"sigma has shape {sigma.shape}, declared (K, K) = ({k}, {k})")
    if p == 0 and coeffs.shape == (0,):  # no lag matrices: JSON has no shape for an empty list
        coeffs = coeffs.reshape(0, k, k)
    if coeffs.shape != (p, k, k):
        raise ParseError(f"coeffs have shape {coeffs.shape}, declared (p, K, K) = ({p}, {k}, {k})")
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
    text = json.dumps(model_to_document(model, name=name), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with OutputFile(path) as out:
        out.writelines([text.encode("utf-8")])
    return out.path


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
    first row); a UTF-8 byte-order mark is skipped. Each value has the bits
    ``float`` gives its cell. A plain file is read a chunk of text at a
    time (``_parse_vectorised``), so memory beyond the values does not grow
    with it; any other is read cell by cell (``_parse_cells``). A cell
    longer than ``csv.field_size_limit()`` is refused in any row. Errors
    cite the position as line:column, one-based, counting physical file
    lines.
    """
    path = Path(path)
    try:
        values = _parse_vectorised(path)
        if values is None:
            values = _parse_cells(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None
    except csv.Error as exc:  # such as a NUL byte
        raise ParseError(f"{path}: {exc}") from None
    if layout not in LAYOUTS:  # an argument: judged after the document, as every command judges them
        raise DomainError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
    if layout == "rows_are_channels":
        values = values.T
    return TimeSeriesData._adopt(values)


#: Bytes of text a chunk of ``_parse_vectorised`` reads, before it is cut back to its last line end.
_READ_BYTES = 2**17
#: Bytes before a chunk in its buffer: the last is a line feed, which opens the chunk's first line, and
#: the rest are room for the 24-byte window of its first cell.
_PAD = 32

# the classes of the bytes of CSV data that are not digits, those that close a cell last and those that end a row last of all
_SIGN, _DOT, _EXP, _EXP_SIGN, _OTHER, _COMMA, _RETURN, _LINE = range(8)
_CLASS = np.full(256, _OTHER, np.uint8)
_CLASS[np.frombuffer(b",+-.eE\r\n", np.uint8)] = [_COMMA, _SIGN, _SIGN, _DOT, _EXP, _EXP, _RETURN, _LINE]


def _pair_rules() -> np.ndarray:
    """Whether a token may follow another: by 32 * its class + 4 * theirs + 2 * (no digit between) + (no digit before it).

    A cell is [sign] digits [. digits] [e [sign] digits], with a digit on
    one side of its dot at least, and a carriage return is followed at once
    by its line feed. Two row ends with nothing between them are a blank
    line, or a carriage return and its line feed.
    """
    rules = {(_SIGN, _DOT): "any", (_SIGN, _EXP): "digits", (_DOT, _EXP): "mantissa", (_EXP, _EXP_SIGN): "none", (_RETURN, _LINE): "none"}
    for close in (_COMMA, _RETURN, _LINE):
        rules.update({(before, close): "digits" for before in (_SIGN, _EXP, _EXP_SIGN, _COMMA, _LINE)})
        rules[_DOT, close] = "mantissa"
    for opener in (_COMMA, _LINE):
        rules.update({(opener, _SIGN): "none", (opener, _DOT): "any", (opener, _EXP): "digits"})
    rules[_LINE, _RETURN] = rules[_LINE, _LINE] = "any"
    table = np.zeros(8 * 32, np.bool_)
    for (before, after), rule in rules.items():
        for none_between in (0, 1):
            for none_before in (0, 1):
                allowed = {"any": True, "none": none_between, "digits": not none_between, "mantissa": not (none_between and none_before)}
                table[before * 32 + after * 4 + none_between * 2 + none_before] = allowed[rule]
    return table


_PAIRS = _pair_rules()

#: By 25 * a mantissa's bytes (0 to 24) + its dot slot (0: no dot; s: the dot in byte s - 1): the three words of
#: the 24-byte window that ends the mantissa that keep its bytes but the dot.
_KEEP = np.array([[(2**192 - 2 ** (8 * (24 - m)) & ~(0xFF << 8 * s >> 8)) >> 64 * j & 2**64 - 1 for j in range(3)] for m in range(25) for s in range(25)], np.uint64)
#: By dot slot: the words that keep the bytes below the dot.
_BELOW = np.array([[0, 0, 0]] + [[(2 ** (8 * o) - 1) >> 64 * j & 2**64 - 1 for j in range(3)] for o in range(24)], np.uint64)


def _parse_vectorised(path: Path) -> np.ndarray | None:
    """The CSV's values, read a chunk of text at a time, or None when they are left to ``_parse_cells``.

    Only the rows up to the first data row are read with ``csv``, to detect
    the header. The rest is read in chunks of ``_READ_BYTES``, each cut back
    to its last line end, into an array sized by a first pass that counts
    line feeds; memory beyond the values does not grow with the file. A
    cell is [sign] digits [. digits] [e [sign] digits], which ``float``
    reads alike, with spaces around it if any; blank lines and "\\n" or
    "\\r\\n" line ends are accepted too. Whatever else a file holds (quotes,
    underscores, tabs, "inf", a ragged row, a lone carriage return, a value
    that overflows) is left to ``_parse_cells``, which reports the error or
    reads what it accepts. So is a file with a line longer than
    ``csv.field_size_limit()``, which may hold a cell beyond the limit.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows = (row for row in reader if any(cell.strip() for cell in row))
            first = next(rows, None)
            header = first is not None and any(_is_not_number(cell) for cell in first)
            skip = reader.line_num if header else 0
            row = next(rows, None) if header else first
    except csv.Error:  # _parse_cells raises it, or names the cell beyond the limit, as a quoted one spanning lines
        return None
    if row is None:  # no data rows: _parse_cells says which error
        return None
    width = len(row)
    with open(path, "rb") as handle:
        head = b"".join(handle.readline() for _ in range(skip))
        if head.count(b"\r") != head.count(b"\r\n"):  # csv counted a lone carriage return as a line end
            return None
        if skip or handle.read(3) != b"\xef\xbb\xbf":
            handle.seek(len(head))
        start = handle.tell()
        buffer = bytearray(_PAD + _READ_BYTES + 1)
        lines = 1
        while read := handle.readinto(buffer):
            lines += buffer.count(b"\n", 0, read)
        values = np.empty((lines, width))
        handle.seek(start)
        buffer[_PAD - 1] = ord("\n")
        rows = kept = 0
        while True:
            read = handle.readinto(memoryview(buffer)[_PAD + kept : _PAD + _READ_BYTES])
            size = kept + read
            if not read and size:  # the last line, which has no line feed
                buffer[_PAD + size] = ord("\n")
                size += 1
            cut = buffer.rfind(b"\n", _PAD, _PAD + size) + 1 - _PAD
            if cut <= 0:
                if size == _READ_BYTES:  # a line longer than a chunk
                    return None
                if not read:
                    break
                kept = size
                continue
            chunk = _chunk_values(buffer, cut, width)
            if chunk is None:
                return None
            values[rows : rows + len(chunk) // width] = chunk.reshape(-1, width)
            rows += len(chunk) // width
            del chunk  # before the next chunk's arrays are made
            buffer[_PAD : _PAD + size - cut] = buffer[_PAD + cut : _PAD + size]
            kept = size - cut
    return values[:rows] if rows else None


def _tokens(text: np.ndarray) -> tuple[np.ndarray, ...]:
    """The positions, bytes and classes of the bytes of `text` that are not digits, and the digits before each."""
    scratch = np.subtract(text, np.uint8(48))
    at = np.flatnonzero(np.greater(scratch, 9, out=scratch.view(np.bool_)))
    del scratch
    byte = np.take(text, at)
    at = at.astype(np.int32)  # positions within a chunk, at half the memory
    digits = np.empty_like(at)
    digits[0] = 0
    np.subtract(at[1:], at[:-1], out=digits[1:])
    digits[1:] -= 1
    return at, byte, np.take(_CLASS, byte), digits


def _without_spaces(text: np.ndarray) -> np.ndarray | None:
    """`text` less the spaces before or after its cells, written over its start, or None if a space stands inside a cell."""
    space = text == ord(" ")
    first, last = np.flatnonzero(space[1:] > space[:-1]) + 1, np.flatnonzero(space[:-1] > space[1:])
    delimiter = (text == ord(",")) | (text == ord("\n")) | (text == ord("\r"))
    if not np.all(delimiter[first - 1] | delimiter[last + 1]):
        return None
    kept = text[~space]
    text[: kept.size] = kept
    return text[: kept.size]


def _chunk_values(buffer: bytearray, size: int, width: int) -> np.ndarray | None:
    """The values of the whole lines buffer[_PAD : _PAD + size], in C order, or None if ``_parse_vectorised`` refuses them.

    The bytes that are not digits are tokens. Checked pair by pair
    (``_PAIRS``), they put each cell in the form [sign] digits [. digits]
    [e [sign] digits], so a cell's tokens are read back from the comma or
    line end that closes it. Its mantissa is read from the 24 bytes that
    end it, the digits before its dot moved up over the dot, and its
    exponent from the 8 bytes that end the cell (``_floattext.read_digits``).
    A mantissa of more than 24 bytes or 19 significant digits, an
    exponent of more than 8 digits and what ``nearest_doubles`` leaves
    undecided are read by ``float``.
    """
    text = np.frombuffer(buffer, np.uint8, size + 1, _PAD - 1)  # from the line feed before the chunk
    at, byte, kind, digits = _tokens(text)
    if size > csv.field_size_limit() + 1 and np.max(np.diff(at[kind == _LINE])) > csv.field_size_limit() + 1:
        return None
    if _OTHER in kind:
        text = _without_spaces(text) if (byte == ord(" ")).any() else None
        if text is None:
            return None
        at, byte, kind, digits = _tokens(text)
        if _OTHER in kind:
            return None
    np.copyto(kind[1:], np.uint8(_EXP_SIGN), where=(kind[1:] == _SIGN) & (kind[:-1] == _EXP))
    none = (digits == 0).view(np.uint8)
    pairs = np.multiply(kind[:-1], np.uint8(32))
    pairs += kind[1:] << np.uint8(2)
    pairs += none[1:] << np.uint8(1)
    pairs += none[:-1]
    if not np.take(_PAIRS, pairs).all():
        return None
    del none, pairs
    close = np.flatnonzero(kind[1:] >= _COMMA)
    close += 1
    line = kind[close] >= _RETURN
    blank = line & (kind[close - 1] >= _RETURN) & (digits[close] == 0)
    if blank.any():
        close, line = close[~blank], line[~blank]
    n = close.size
    if n % width or np.count_nonzero(line) != n // width or not line[width - 1 :: width].all():
        return None
    ends = np.take(at, close)
    del line, blank
    # from the token before the close back: exponent sign, "e", dot, sign, each there or not
    before = close - 1
    exp_sign = np.take(kind, before) == _EXP_SIGN
    exp_negative = exp_sign & (np.take(byte, before) == ord("-"))
    before -= exp_sign
    exp = np.take(kind, before) == _EXP
    before -= exp
    dot = np.take(kind, before) == _DOT
    length = np.take(digits, before)  # digits before the dot
    before -= dot
    negative = np.take(byte, before) == ord("-")
    exp_digits = np.take(digits, close)
    exp_digits *= exp
    close -= exp
    close -= exp_sign  # the token that ends the mantissa
    mantissa_end = np.take(at, close)
    fraction = np.take(digits, close)  # the digits before it: the fraction's, or the whole mantissa's
    del at, byte, kind, digits, close, before, exp, exp_sign
    length += 1
    length *= dot
    length += fraction  # the mantissa's bytes, its dot among them
    fraction *= dot
    long = (length > 24) | (exp_digits > 8)
    mantissa_end += _PAD - 25
    # the 24 bytes from each offset, gathered by indexing (np.take would copy the whole unaligned view first)
    x = np.ndarray((len(buffer) - 23,), "V24", buffer, strides=(1,))[mantissa_end].view(np.uint64).reshape(n, 3)
    del mantissa_end
    slot = np.subtract(24, fraction, dtype=np.intp)
    slot *= dot
    np.maximum(slot, 0, out=slot)
    np.minimum(length, 24, out=length)
    scratch = np.take(_KEEP, slot + 25 * length, axis=0)
    x &= scratch
    # the dot out: the digits below it move up one byte
    np.take(_BELOW, slot, axis=0, out=scratch, mode="clip")
    scratch &= x
    x ^= scratch
    x.view(np.uint8).reshape(-1)[1:] |= scratch.view(np.uint8).reshape(-1)[:-1]  # no dot is in a window's last byte
    del scratch, slot, length
    read_digits(x)
    long |= x[:, 0] >= _U(1000)  # 20 digits or more
    w = x[:, 0] * _POW10[16]
    w += x[:, 1] * _POW10[8]
    w += x[:, 2]
    del x
    q = np.negative(fraction, dtype=np.int64)
    cells = np.flatnonzero(exp_digits)
    if cells.size:
        exponent = np.ndarray((len(buffer) - 7,), np.uint64, buffer, strides=(1,))[np.take(ends, cells) + (_PAD - 9)]
        exponent &= _KEEP[25 * np.minimum(exp_digits[cells], 8), 2]  # the last word of a window keeps up to 8 bytes
        read_digits(exponent)
        exponent = exponent.view(np.int64)
        np.negative(exponent, out=exponent, where=exp_negative[cells])
        q[cells] += exponent
    undecided = nearest_doubles(w, q, negative)
    undecided |= long
    values = w.view(np.float64)
    for cell in np.flatnonzero(undecided).tolist():
        value = float(buffer[_PAD + (ends[cell - 1] if cell else 0) : _PAD - 1 + ends[cell]])
        if not math.isfinite(value):
            return None
        values[cell] = value
    return values


def _parse_cells(path: Path) -> np.ndarray:
    """The CSV's values read cell by cell with ``float``, raising at the first bad cell.

    A row is numbered by the physical line its record starts on. ``csv``
    reads cells of any length here, its limit lifted while the file is
    read, so that a cell beyond it is refused with its line and column.
    """
    rows, start = [], 1
    limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row in reader:
                for c, cell in enumerate(row):
                    if len(cell) > limit:
                        raise ParseError(f"{path}: {start}:{c + 1}: field larger than field limit ({limit})")
                if any(cell.strip() for cell in row):
                    rows.append((start, row))
                start = reader.line_num + 1
    finally:
        csv.field_size_limit(limit)
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
    """Write samples as CSV (rows are samples) under a ch1..chK header; returns the resolved path.

    The one-block case of ``TimeseriesWriter``: floats are written by the
    vectorised shortest-round-trip formatter, byte-identical to ``repr``, a
    block of values at a time.
    """
    with TimeseriesWriter(path, data.K) as writer:
        writer.add(data.values)
    return writer.path


class OutputFile:
    """A file a command writes: `path`, resolved against VARCONN_OUT_DIR, opened for binary writing.

    ``writelines`` flushes what it wrote, so that a full disk is met inside
    the caller's ``with`` block and not on close. A file whose ``with``
    block ends in an exception is removed when it is a regular file, one it
    created or one whose old text it truncated (through a symbolic link
    too), so no partial file remains; a device such as /dev/null is kept.
    """

    def __init__(self, path):
        self.path = resolve_output_path(path)
        self._handle = open(self.path, "wb")
        # the file opened, links resolved, so that a refusal removes it and not a link to it
        self._target = Path(os.path.realpath(self.path))
        self._stat = os.fstat(self._handle.fileno())

    def shares_file(self, other: "OutputFile") -> bool:
        """Whether both write one regular file, by any names (a device such as /dev/null is never shared)."""
        return stat.S_ISREG(self._stat.st_mode) and os.path.samestat(self._stat, other._stat)

    def writelines(self, chunks: Iterable[bytes]) -> None:
        write_chunks(self._handle.write, chunks)
        with stage("write"):
            self._handle.flush()

    def __enter__(self) -> "OutputFile":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            self._handle.close()
        finally:
            if exc_type is not None and stat.S_ISREG(self._stat.st_mode):
                self._target.unlink(missing_ok=True)


def write_chunks(write, chunks: Iterable[bytes]) -> None:
    """Write each chunk before the next is drawn, as a chunk may reuse the last one's buffer."""
    for chunk in chunks:
        with stage("write"):
            write(chunk)
        del chunk  # held while the next is made, it would raise the peak by a chunk's size


class TimeseriesWriter(OutputFile):
    """A CSV of samples (rows are samples) under a ch1..chK header, whose rows arrive a block at a time.

    The file is opened, and its header written, when the writer is made.
    ``add`` refuses a block holding a non-finite value (DomainError) and
    writes the others' text.
    """

    def __init__(self, path, k: int):
        super().__init__(path)
        # each line ends in "\r\n" as csv.writer ends it, so the bytes match a csv.writer file
        self._handle.write((",".join(f"ch{i + 1}" for i in range(k)) + "\r\n").encode("ascii"))

    def add(self, rows: np.ndarray) -> None:
        if _first_non_finite(rows) is not None:
            raise DomainError("samples must be finite")
        self.writelines(timed("render", float_text(rows, (",", "\r\n", "\r\n"))))


def _is_not_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


class ResultWriter:
    """A result document whose measures arrive a block of frequencies at a time.

    ``add`` takes the next block of one of `kinds` (enums or strings), a
    complex (n, K, K) array; a measure's blocks come in grid order and end
    on whole frequencies. Each array it will print ("re", "im" and, with
    include_mag_sq, "mag_sq") is computed once a block into one buffer the
    block's arrays share, checked for finite values, and appended as float64, 8 B
    per entry, to a spill of its own: an unlinked file in ``tempfile``'s
    directory, which a spill's OSError names. A ``sample_rate_hz`` the grid
    cannot be written in is refused when the writer is made; given the
    measures' channel count `k`, so is a temporary directory without room
    for the spills (``_check_disk``). ``chunks`` raises a bad ``units`` or a
    value refusal, in the order the README's refusal paragraph states, and a
    ValueError for a measure whose blocks do not cover the grid; else it
    flushes the spills and returns the document's bytes, each array
    rendered in key order from its spill, read once from its start, so
    nothing is rendered before every check has passed.

    A document of FORK_MIN_VALUES spilled values or more is rendered by two
    processes where ``os.fork`` exists and this process may use two CPUs:
    before the first byte, a forked worker (``_Worker``) takes the later
    half of the spilled arrays, rounded down, and renders them into a text
    spill, while this process renders the rest straight into the chunks and
    then splices the worker's text in, in document order. The bytes are the
    same either way; a worker that fails is an OSError. The spills, the text
    spill and the worker (reaped, and killed first when the chunks are not
    read to the end) go with the writer, or when its chunks have been read
    to the end.
    """

    def __init__(self, grid: FrequencyGrid, kinds=(), include_mag_sq: bool = False, sample_rate_hz: float | None = None, k: int | None = None):
        self._spills, self._worker = {}, None  # first: close, which __del__ runs on a writer whose __init__ raised, reads them
        if not (sample_rate_hz is None or (sample_rate_hz > 0 and math.isfinite(math.pi * sample_rate_hz))):
            raise DomainError(f"sample_rate_hz must be positive with pi * sample_rate_hz finite, got {sample_rate_hz}")
        self.grid, self.sample_rate_hz = grid, sample_rate_hz
        self._fields = ("re", "im", "mag_sq") if include_mag_sq else ("re", "im")
        self._first_bad = {}  # (name, field) -> the first non-finite value met
        self._shape = None  # every measure's (n_points, K, K), known from the first block
        keys = [(_name(kind), field) for kind in kinds for field in self._fields]
        if k is not None:
            _check_disk(len(keys), (grid.n_points, k, k))
        self._spills.update((key, tempfile.TemporaryFile()) for key in keys)

    def add(self, kind, values: np.ndarray) -> None:
        """Check a measure's next block and append each of its arrays to that array's spill."""
        name = _name(kind)
        values = np.asarray(values, np.complex128)
        self._shape = (self.grid.n_points, *values.shape[1:])
        part = np.empty(values.shape)  # each array of the block in turn; freed before the walk's next block, whose peak it would raise
        for field in self._fields:
            with stage("spill"):
                if field == "mag_sq":
                    with np.errstate(over="ignore"):  # a squared magnitude that overflows is refused as the inf it leaves
                        np.square(np.abs(values, out=part), out=part)  # what np.abs(values) ** 2 computes
                else:
                    np.copyto(part, values.real if field == "re" else values.imag)
                bad = _first_non_finite(part)
                if bad is not None:
                    self._first_bad.setdefault((name, field), bad)
                with _in_tempdir():
                    self._spills[name, field].write(part)

    def chunks(self, mirs: dict | None = None, units: str = "nats_per_sample") -> Iterator[bytes]:
        """Raise a refusal, else return the document's text in chunks of bytes.

        A chunk may be a view of a buffer the next chunk reuses: write each
        before drawing the next, as ``writelines`` does.
        """
        if units not in UNITS:
            raise DomainError(f"unknown units {units!r}, expected one of {UNITS}")
        for key in self._spills:
            if key in self._first_bad:
                raise _non_finite(self._first_bad[key])
        grid_block = {"n_points": self.grid.n_points, "omega": self.grid.points}
        if self.sample_rate_hz is not None:
            grid_block["frequency_hz"] = self.grid.points * self.sample_rate_hz / (2.0 * np.pi)
        document = {"schema_version": RESULT_SCHEMA_VERSION, "grid": grid_block, "measures": {}, "mir": {}}
        for (name, field), spill in self._spills.items():
            if self._shape is None or spill.tell() != 8 * math.prod(self._shape):  # blocks short of the grid, or past it
                raise ValueError(f"the blocks of {name} hold {spill.tell() // 8} values of {field}, not n_points * K * K of a grid of {self.grid.n_points}")
            with _in_tempdir():  # once, so that a full disk is met here and not after the document's first byte
                spill.flush()
                spill.seek(0)
            document["measures"].setdefault(name, {})[field] = types.SimpleNamespace(shape=self._shape, readinto=spill.readinto)
        for kind, mir in (mirs or {}).items():
            values = mir.values if units == "nats_per_sample" else mir.values / _LN2
            bad = _first_non_finite(values)
            if bad is not None:
                raise _non_finite(bad)
            document["mir"][_name(kind)] = {"values": values, "units": units, "n_clipped": int(mir.n_clipped)}
        return self._copy(document)

    def _copy(self, document: dict) -> Iterator[bytes]:
        with self:
            later = sorted(self._spills)[len(self._spills) - _worker_arrays(len(self._spills), self._shape) :]
            if later:  # document order is key order: the worker's arrays are the last spilled ones
                arrays = document["measures"]
                self._worker = _Worker([arrays[name][field] for name, field in later], _layout(_LEVEL, len(self._shape))[1])
                for name, field in later:
                    arrays[name][field] = types.SimpleNamespace(shape=self._shape, spliced=self._worker.splice)
            yield from _chunks(document, 0)
            yield b"\n"

    def close(self) -> None:
        try:
            if self._worker is not None:
                self._worker.close()
        finally:
            for spill in self._spills.values():
                spill.close()

    __del__ = close  # a writer whose chunks are never read still closes its spills and reaps its worker

    def __enter__(self) -> "ResultWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Spilled values from which a document is rendered in two processes. Forking takes about 2.5 ms
#: and a value renders in about 300 ns: `measure` at K = 2 (medians of 20, in-process) lost 3.4 ms
#: to the fork at 7,168 values and gained 1.0, 1.7, 9.5 and 18 ms at 14,336, 28,672, 57,344 and 114,688.
FORK_MIN_VALUES = 2**15
#: The indent level of a measure's array: the document, "measures", the measure, the array.
_LEVEL = 3
#: The most bytes a finite value's text takes: "-2.2250738585072014e-308".
_VALUE_BYTES = 24
#: Bytes of each read of the text spill into the buffer the worker's text is spliced from.
_SPLICE_BYTES = 2**18


def _worker_arrays(arrays: int, shape) -> int:
    """How many of the last of `arrays` spilled arrays of `shape` a worker renders: half, or none.

    None where this process may use only one CPU, where the calls a worker
    needs are missing, or where the arrays hold fewer than FORK_MIN_VALUES
    values.
    """
    if not (hasattr(os, "posix_fallocate") and hasattr(os, "preadv") and _fork.ready()) or arrays * math.prod(shape or ()) < FORK_MIN_VALUES:
        return 0
    return arrays // 2  # the worker's arrays cost it copy-on-write faults, so this process takes the odd one


def _text_bytes(shape) -> int:
    """The most bytes the text of a measure's array of `shape` takes in its spill, its head left out."""
    separators = _layout(_LEVEL, len(shape))[1]
    closing = [math.prod(shape[: len(shape) - t]) for t in range(len(shape) + 1)] + [0]  # values that close t axes or more
    return _VALUE_BYTES * math.prod(shape) + sum((closing[t] - closing[t + 1]) * len(separator) for t, separator in enumerate(separators))


def _check_disk(arrays: int, shape) -> None:
    """Refuse, as a full spill would be refused, when the temporary directory cannot hold `arrays` spills of `shape` and their text spill."""
    need = 8 * arrays * math.prod(shape) + _worker_arrays(arrays, shape) * _text_bytes(shape)
    with _in_tempdir():
        if shutil.disk_usage(tempfile.gettempdir()).free < need:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@contextlib.contextmanager
def _in_tempdir():
    """Re-raise an OSError met on a spill, an unlinked file, naming its directory."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, tempfile.gettempdir()) from None


class _Worker(_fork.Worker):
    """A forked process that renders spilled arrays into a text spill, while this one writes the rest.

    The text spill is reserved at its most bytes (``_text_bytes``) before the
    fork, so that a disk without room for it is refused before the first
    byte, and so are ``float_text``'s tables, so that the worker does not
    build them again. The worker renders its arrays in order, with
    ``float_text`` only, and reports each one's byte length over a pipe,
    then the nanoseconds it took (for ``--trace``); an OSError is reported
    as -errno. ``splice`` yields the next array's text, read from the text
    spill into one reused buffer, and after the last one reaps the worker;
    ``close`` kills it first if it has not been reaped.
    """

    def __init__(self, arrays: list, separators: list[str]):
        self.pid, self.report, self.offset, self.left = None, None, 0, len(arrays)
        self.text = tempfile.TemporaryFile()
        try:
            with stage("fork"):
                with _in_tempdir():
                    os.posix_fallocate(self.text.fileno(), 0, sum(_text_bytes(array.shape) for array in arrays))
                _tables()
                super().__init__(_render, arrays, separators, self.text.fileno())
        except BaseException:
            self.close()
            raise
        self.buffer = None  # made at the first splice, once this process's own text is written and its workspaces freed

    def _record(self) -> int:
        with stage("wait"):
            record = os.read(self.report, 8)  # a write of 8 bytes to a pipe arrives whole
        if len(record) < 8:  # the worker ended without a word
            self._reap()
            raise OSError(errno.EIO, "the rendering worker ended early")
        value = int.from_bytes(record, "little", signed=True)
        if value < 0:
            raise OSError(-value, os.strerror(-value), tempfile.gettempdir())
        return value

    def splice(self) -> Iterator[memoryview]:
        """The text of the worker's next array; each chunk is valid until the next is drawn."""
        end = self.offset + self._record()
        if self.buffer is None:
            self.buffer = memoryview(bytearray(_SPLICE_BYTES))
        while self.offset < end:
            with stage("splice"):
                read = os.preadv(self.text.fileno(), [self.buffer[: end - self.offset]], self.offset)
            if read == 0:
                raise OSError(errno.EIO, "the text spill ends early", tempfile.gettempdir())
            self.offset += read
            yield self.buffer[:read]
        self.left -= 1
        if not self.left:
            add("worker.render", self._record())
            self._reap()

    def _reap(self) -> None:
        status = self.wait()
        if status:
            raise OSError(errno.EIO, f"the rendering worker ended with status {os.waitstatus_to_exitcode(status)}")

    def close(self) -> None:
        try:
            super().close()
        finally:
            self.text.close()


def _render(arrays: list, separators: list[str], text: int, report: int) -> None:
    """In the worker: write each array's text to file descriptor `text`, and its length and then the time taken to `report`."""
    try:
        start = time.perf_counter_ns()
        with open(text, "wb", closefd=False) as spill:
            for array in arrays:
                length = sum(spill.write(chunk) for chunk in float_text(array, separators))
                spill.flush()
                os.write(report, length.to_bytes(8, "little", signed=True))
        os.write(report, (time.perf_counter_ns() - start).to_bytes(8, "little", signed=True))
    except OSError as exc:
        os.write(report, (-(exc.errno or errno.EIO)).to_bytes(8, "little", signed=True))
        raise


def save_result(chunks: Iterable[bytes], path) -> Path:
    """Write the chunks of a result document's bytes; returns the resolved path."""
    with OutputFile(path) as out:
        out.writelines(chunks)
    return out.path


def _name(kind) -> str:
    return str(getattr(kind, "value", kind))


def _first_non_finite(values: np.ndarray) -> float | None:
    """The first non-finite value of a real array in C order, or None."""
    # a nan propagates through min and max, which allocate nothing of the array's size
    if np.isfinite(values.min()) and np.isfinite(values.max()):
        return None
    return float(values[~np.isfinite(values)][0])


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
    if hasattr(node, "shape"):  # an array, a measure's array read back from its spill, or one a worker rendered
        head, separators = _layout(level, len(node.shape))
        yield head
        yield from node.spliced() if hasattr(node, "spliced") else timed("render", float_text(node, separators))
    elif isinstance(node, dict) and node:
        pad = "\n" + "  " * (level + 1)
        for index, key in enumerate(sorted(node)):
            yield (("," if index else "{") + pad + json.dumps(key) + ": ").encode("ascii")
            yield from _chunks(node[key], level + 1)
        yield ("\n" + "  " * level + "}").encode("ascii")
    else:
        yield json.dumps(node).encode("ascii")
