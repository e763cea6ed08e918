"""Float64 arrays as text, byte for byte what ``repr`` writes for each value.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): for each value, the shortest decimal f * 10**k inside its
rounding interval, nearest to the value, ties to even. Where ``repr`` runs
a bignum ``dtoa`` per value, this takes one 64 x 126-bit product per value,
which NumPy runs on 32-bit limbs over a block of values at a time. The ends
of the rounding interval lie a shift of the same 126-bit factor away, so,
as in Dragonbox (J. Jeon, 2020), they come from that one product by
addition. What depends only on a value's binary exponent, or only on where
its decimal point falls, is read from a table. The text is laid out as
``repr`` lays it out: fixed notation for decimal exponents -4 <= e < 16
(``.0`` on integers), ``d.ddde±XX`` otherwise.
"""

import functools
from collections.abc import Iterator, Sequence

import numpy as np

#: Values per step. Each array is 16 KiB, which glibc serves from the heap it
#: keeps, and a step holds about 280 KiB of them at once, so memory does not
#: grow with the array; larger steps measured slower, as their temporaries
#: leave the caches.
BLOCK = 2048

_U = np.uint64  # all digit arithmetic is in uint64: mixed with int64, NumPy promotes to float64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_LAST = np.array([int("30" * m + "00" * (8 - m), 16) for m in range(9)], np.uint64)  # "0" in a word's last m bytes
_ZERO = 1  # the exponent column of +-0.0: the bits of a double, 51..62, with bit 0 set when its significand is 0


@functools.cache
def _g(k: int) -> tuple[int, int]:
    """g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), as (g1, g0) with g = g1 * 2**63 + g0."""
    r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10**-k)) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
    return g >> 63, g & (2**63 - 1)


def _end(g1: int, g0: int, e: int, below: bool) -> tuple[int, int]:
    """How an end of the rounding interval, 2**e further from c * 2**(h + 2), changes Schubfach's rop.

    rop(g, cp) reads A = floor(g1 * cp / 2) + floor(g0 * cp / 2**64) as
    A >> 63, made odd if any of its low 63 bits is set. Moving cp by 2**e
    moves A by d = g1 * 2**(e - 1) + (g0 * 2**e >> 64), plus 1 where
    x0 = g0 * cp mod 2**64 and g0 * 2**e mod 2**64 carry (or minus 1 where
    they borrow). Returns the move as a signed integer and the x0 above
    which it is one more.
    """
    d = (g1 << (e - 1)) + (g0 << e >> 64)
    rest = (g0 << e) & (2**64 - 1)
    if not below:
        return d, 2**64 - 1 - rest
    return (-d - 1, rest - 1) if rest else (-d, 2**64 - 1)


def _exponent_column(i: int) -> list[int]:
    """What the digits of a double need from its exponent column i (see `_ZERO`), for `_text`.

    Rows: g1 and g0's high limbs, their low limbs, the shift h + 2 of
    the significand c, the implicit bit, the moves of A to the upper and
    lower ends (high words, then low 63 bits), the x0 above which each is
    one more, and k + 339, the point-table column of a 16-digit f.
    """
    if i == _ZERO:  # c = 0: A and both ends are 0, and so is f
        return [0] * 10 + [2**64 - 1, 2**64 - 1, 1 + 323]
    biased = i >> 1
    irregular = int(i & 1 == 1 and biased > 1)  # 2**e: its lower neighbour is half as far as its upper one
    q = max(biased, 1) - 1075  # the value is c * 2**q
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 * 2**q
    h = q + ((-k * 913124641741) >> 38) + 2  # q + floor(log2(10**-k)) + 2, in 1..4
    g1, g0 = _g(k)
    (up, up_x0), (down, down_x0) = _end(g1, g0, h + 1, False), _end(g1, g0, h + 1 - irregular, True)
    limbs = [g1 >> 32, g0 >> 32, g1 & (2**32 - 1), g0 & (2**32 - 1), h + 2, 2**52 if biased else 0]
    return limbs + [(up >> 63) % 2**64, (down >> 63) % 2**64, up & (2**63 - 1), down & (2**63 - 1), up_x0, down_x0, k + 339]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Tables made on first use, before any block's temporaries, so that they pin none of them in the heap.

    By exponent column (see `_ZERO`): the rows of `_exponent_column`, filled
    as blocks first need them; a column's last row is 0 until it is filled.
    By point + 323 for points -323 .. 309, where the value is 0.ddd * 10**point:
    the divisor that leaves the integer digits of a 17-digit f and the
    factor that left-aligns the rest, the divisor and factor that split
    those into 15 and 5 places (after 0 to 3 zeros), the "0"s of the
    integer digits written, 0x100 in fixed notation (one fraction digit at
    least) and the bytes after the fraction ("e+XX" from byte 1, none in
    fixed notation).
    """
    point = np.arange(-323, 310)
    fixed = (point > -4) & (point < 17)
    whole = np.where(fixed, np.maximum(point, 0), 1)  # digits before the point
    shift = np.where(fixed, np.maximum(-point, 0), 0)  # zeros after it
    before = np.maximum(whole, 1)  # integer digits written
    exponent = np.abs(point - 1).astype(np.uint64)
    three = exponent >= _U(100)
    digits = exponent // _U(100) | (exponent // _U(10) % _U(10)) << _U(8) | (exponent % _U(10)) << _U(16)
    digits = (digits + _U(0x30_3030)) >> (_U(8) - three * _U(8))
    suffix = _U(0x6500) | np.where(point < 1, _U(0x2D_0000), _U(0x2B_0000)) | digits << _U(24)
    layout = [_POW10[17 - whole], _POW10[whole], _POW10[2 + shift], _POW10[6 - shift]]
    layout += [_LAST[np.maximum(before - 8, 0)], _LAST[np.minimum(before, 8)], fixed * _U(0x100), np.where(fixed, _U(0), suffix)]
    # in a mapping of its own, not the heap: there its 416 KiB would sit above the
    # blocks' temporaries and keep glibc from handing them back. Imported here, as
    # loading mmap adds 40 KiB to every command, also those that write no float text.
    import mmap

    exponents = np.frombuffer(mmap.mmap(-1, 13 * 4096 * 8), np.uint64).reshape(13, 4096)
    return exponents, np.array(layout)


def _fill(exponents, columns) -> None:
    columns = sorted(set(columns.tolist()))  # not np.unique, which imports numpy.ma
    exponents[:, columns] = np.array([_exponent_column(i) for i in columns], np.uint64).T


def _shortest(bits, exponents):
    """(f, column, i): the shortest f * 10**k that reads back as each finite double, nearest to it, ties to even.

    f is 0 for a zero. column = k + 339 is the point-table column of f
    written with 16 digits, and i the exponent column (0 for a subnormal).
    """
    m = bits & _U(2**52 - 1)
    i = ((bits >> _U(51)) & _U(0xFFE) | (m == 0)).view(np.int64)
    column = np.take(exponents[12], i)
    if not column.all():
        _fill(exponents, i[column == 0])
        column = np.take(exponents[12], i)
    # Each array is dropped once its last use is behind, and most steps are in place, so
    # that a block holds about 280 KiB at once, not 700: glibc's heap keeps that much
    # between blocks, where it trimmed the larger peak and faulted it in again per block.
    # rop of the value: A = floor(g1 * cp / 2) + floor(g0 * cp / 2**64) for cp = c << (h + 2),
    # on both g's at once, each 64 x 59 bits as four 32 x 32-bit products
    shift, implicit = np.take(exponents[4:6], i, axis=1)
    cp = m + implicit
    cp <<= shift
    del shift, implicit
    cp_hi = cp >> _U(32)
    cp &= _M32  # the low limb
    top = np.take(exponents[:4], i, axis=1)
    cross = top[2:4] * cp_hi
    cross += top[0:2] * cp  # below 2**59 + 2**63, so it does not wrap
    lo, hi = top[2:4] * cp, top[0:2] * cp_hi
    del top, cp, cp_hi
    hi += cross >> _U(32)
    hi += ((lo >> _U(32)) + (cross & _M32)) >> _U(32)
    cross <<= _U(32)
    lo += cross  # g1 * cp and g0 * cp mod 2**64
    del cross
    z = lo[0] >> _U(1)
    z += hi[1]
    a_hi = hi[0] + (z >> _U(63))
    del hi
    a_lo = z
    a_lo &= _M63
    vb = a_hi | ((a_lo + _M63) >> _U(63))
    # the upper and lower ends of the interval, the same rop of A moved by the table's amounts
    bottom = np.take(exponents[8:12], i, axis=1)
    t = a_lo + bottom[0:2]
    t += lo[1] > bottom[2:4]  # lo[1] is x0
    del bottom, lo, a_lo
    ends = np.take(exponents[6:8], i, axis=1)
    ends += a_hi
    del a_hi
    ends += t >> _U(63)
    t &= _M63
    t += _M63
    t >>= _U(63)
    ends |= t
    del t
    odd = m & _U(1)  # an odd c's interval excludes its ends
    ends[0] -= odd
    ends[1] += odd
    high, low = ends
    del m, odd
    s = vb >> _U(2)
    # one digit fewer: at most one multiple of 10 * 10**k is in the interval
    tens = s // _U(10)
    tens4 = tens * _U(40)
    down = low <= tens4
    tens4 += _U(40)
    up = tens4 <= high
    del tens4
    # else s or s + 1, whichever is in the interval, or the nearer, ties to even
    s4 = s << _U(2)
    s_in = low <= s4
    s4 += _U(4)
    t_in = s4 <= high
    s4 -= _U(2)
    del ends, high, low
    plus_one = np.where(s_in == t_in, vb + (s & _U(1)) > s4, t_in)
    return np.where(down != up, (tens + up) * _U(10), s + plus_one), column, i


def _digits8(x):
    """Replace each x < 10**8 by its eight decimal digits, one per byte, the most significant lowest.

    D. Lemire's SWAR split: 4 + 4 digits in the two 32-bit halves, then 2 + 2, then 1 + 1,
    each quotient q a multiply and shift, and x * 2**width - q * (base * 2**width - 1) puts
    the remainder above it. In place: fresh arrays per step make it three times slower.
    """
    q = np.empty_like(x)
    for base, width, magic, shift, mask in (
        (10000, 32, 109951163, 40, None),  # x < 10**8 has one lane: nothing to mask
        (100, 16, 10486, 20, 0x7F_0000_007F),
        (10, 8, 103, 10, 0x000F_000F_000F_000F),
    ):
        np.multiply(x, _U(magic), out=q)
        q >>= _U(shift)
        if mask:
            q &= _U(mask)
        q *= _U((base << width) - 1)
        x <<= _U(width)
        x -= q


def _text(values, marker, tables) -> bytes:
    """The repr of each value as ASCII, each followed by the byte in bits 48..55 of its marker.

    Each value gets five words, zero where it writes nothing: 16 integer
    digits aligned right, the point, 20 fraction digits aligned left (the
    zeros of 0.000ddd included), then the exponent from byte 1 of the last
    word and the marker in its byte 6. A sign goes in byte 7 of the
    previous value's last word. The text is what is left once the zero
    bytes are dropped.
    """
    exponents, layout = tables
    bits = values.view(np.uint64)
    f, column, i = _shortest(bits, exponents)
    big = f >= _POW10[16]  # a normal double's f has 16 or 17 digits
    f17 = np.where(big, f, f * _U(10))  # the digits, 17 of them
    column += big
    column = column.view(np.int64)
    if not i.all():  # a subnormal's f has 1 to 17
        sub = i == 0
        length = np.searchsorted(_POW10[:18], f[sub], side="right")
        f17[sub] = f[sub] * _POW10[17 - length]
        column[sub] += length - 16 - big[sub]
    del f, big, i  # dropped as in _shortest, so that a block's temporaries stay small
    div, mul, low, scale = np.take(layout[:4], column, axis=1)
    integer = f17 // div
    fraction = f17
    fraction -= integer * div
    fraction *= mul  # the fraction's digits, left-aligned in 17 places
    words = np.empty((5, bits.size), np.uint64)
    np.floor_divide(integer, _U(10**8), out=words[0])
    np.subtract(integer, words[0] * _U(10**8), out=words[1])
    del integer
    tail = fraction // low  # the 20 fraction places, `shift` zeros first, as 7 + 8 + 5 digits
    np.floor_divide(tail, _U(10**8), out=words[2])
    np.subtract(tail, words[2] * _U(10**8), out=words[3])
    tail *= low
    fraction -= tail
    np.multiply(fraction, scale, out=words[4])
    del div, mul, low, scale, f17, fraction, tail
    _digits8(words)
    rows = np.take(layout[4:], column, axis=1)
    del column
    written, first, suffix = rows[:2], rows[2], rows[3]
    # fraction digits written: up to the last nonzero one, and one at least in fixed notation
    shown = words[2:] + _U(0x7F7F_7F7F_7F7F_7F7F)
    shown[0] += first
    shown &= _U(0x8080_8080_8080_8080)  # 0x80 in the byte of each nonzero digit
    shown[1] |= (shown[2] != 0) * _U(0x80 << 56)
    shown[0] |= (shown[1] != 0) * _U(0x80 << 56)
    shown |= shown >> _U(8)
    shown |= shown >> _U(16)
    shown |= shown >> _U(32)
    shown >>= _U(7)
    shown *= _U(0x30)
    shown[0] -= (shown[0] & _U(0x10)) >> _U(3)  # "." in byte 0, before any fraction digit
    words[2:] += shown
    del shown
    words[:2] += written
    words[4] |= suffix
    words[4] |= marker
    del rows, written, first, suffix
    canvas = np.empty(5 * bits.size + 1, np.uint64)
    canvas[1:].reshape(-1, 5)[:] = words.T
    del words
    canvas[0] = 0
    canvas[: 5 * bits.size : 5] |= (bits >> _U(63)) * _U(0x2D << 56)
    text = canvas.tobytes()
    del canvas
    return text.translate(None, b"\0")


def float_text(values: np.ndarray, separators: Sequence[str]) -> Iterator[bytes]:
    """The repr of each finite value of `values` in C order, as ASCII bytes yielded a block at a time.

    After each value comes separators[t], where t is how many trailing axes
    the value closes: separators[0] within a row, separators[values.ndim]
    after the last value.
    """
    tables = _tables()
    separators = [separator.encode("ascii") for separator in separators]  # bytes.replace is twice as fast
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    sizes = [int(size) for size in np.cumprod(values.shape[::-1])]
    for start in range(0, flat.size, BLOCK):
        block = flat[start : start + BLOCK]
        marker = np.full(block.size, _U(44 << 48))  # ","
        closes = []
        for t, size in enumerate(sizes, 1):  # deeper axes later: a value that closes t axes closes every shallower one
            first = (-start - 1) % size  # the first value in the block that closes t axes
            marker[first::size] = _U((128 + t) << 48)  # byte 129 marks a value that closes 1 axis, 130 2, ...
            if first < block.size:
                closes.append(t)
        text = _text(block, marker, tables)
        if separators[0] != b",":
            text = text.replace(b",", separators[0])
        for t in closes:  # above 127, no marker is a byte of the ASCII text or the separators
            text = text.replace(bytes([128 + t]), separators[t])
        yield text
