"""Float64 arrays as text, byte for byte what ``repr`` writes for each value.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): for each value, the shortest decimal f * 10**k inside its
rounding interval, nearest to the value, ties to even. Where ``repr`` runs
a bignum ``dtoa`` per value, this takes three 64 x 126-bit products, which
NumPy runs on 32-bit limbs over a block of values at a time. The text is
laid out as ``repr`` lays it out: fixed notation for decimal exponents
-4 <= e < 16 (``.0`` on integers), ``d.ddde±XX`` otherwise.
"""

import functools
from collections.abc import Iterator, Sequence

import numpy as np

#: Values per step. Each step's temporaries stay below 128 KiB, which glibc
#: serves from the heap it keeps, so memory does not grow with the array.
BLOCK = 2048

_U = np.uint64  # all digit arithmetic is in uint64: mixed with int64, NumPy promotes to float64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_LAST = np.array([int("30" * m + "00" * (8 - m), 16) for m in range(9)], np.uint64)  # "0" in a word's last m bytes


def _g(k: int) -> list[int]:
    """Limbs of g = floor(10**-k / 2**r) + 1 in [2**125, 2**126): for g = g1 * 2**63 + g0, each half's two 32-bit limbs and g1."""
    r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10**-k)) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
    g1, g0 = g >> 63, g & (2**63 - 1)
    return [g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1), g1]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Tables made on first use, before any block's temporaries, so that they pin none of them in the heap.

    By k + 324 for k = -324 .. 292: g's limbs, filled as blocks first need
    them, and which are filled. By point + 323 for points -323 .. 309: the
    bytes after the fraction ("e+XX" from byte 1, none in fixed notation),
    and the shift of the marker that follows them.
    """
    point = np.arange(-323, 310)
    exponent = np.abs(point - 1).astype(np.uint64)
    three = exponent >= _U(100)
    digits = exponent // _U(100) | (exponent // _U(10) % _U(10)) << _U(8) | (exponent % _U(10)) << _U(16)
    digits = (digits + _U(0x30_3030)) >> (_U(8) - three * _U(8))
    text = _U(0x6500) | np.where(point < 1, _U(0x2D_0000), _U(0x2B_0000)) | digits << _U(24)
    fixed = (point > -4) & (point < 17)
    return np.zeros((5, 617), np.uint64), np.zeros(617, bool), np.where(fixed, _U(0), text), np.where(fixed | ~three, _U(40), _U(48))


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a * b for a < 2**63 and b < 2**59, from their 32-bit limbs."""
    cross = a_lo * b_hi + a_hi * b_lo  # below 2**59 + 2**63, so it does not wrap
    mid = (a_lo * b_lo >> _U(32)) + (cross & _M32)
    return a_hi * b_hi + (cross >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """g * cp / 2**127 rounded to odd (Schubfach's figure 8), for each value's g and the rows of cp."""
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    z = (g[4] * cp >> _U(1)) + _mulhi(g[2], g[3], cp_hi, cp_lo)
    return (_mulhi(g[0], g[1], cp_hi, cp_lo) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits, table, filled):
    """(f, k): the shortest f * 10**k that reads back as each nonzero finite double, nearest to it, ties to even."""
    biased = (bits >> _U(52)) & _U(0x7FF)
    c = bits & _U(2**52 - 1)
    irregular = (c == 0) & (biased > 1)  # 2**e: its lower neighbour is half as far as its upper one
    c |= (biased != 0).astype(np.uint64) << _U(52)
    q = np.maximum(biased.astype(np.int64), 1) - 1075  # the value is c * 2**q
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 * 2**q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # q + floor(log2(10**-k)) + 2
    index = k + 324
    first, stop = int(index.min()), int(index.max()) + 1
    if not filled[first:stop].all():
        table[:, first:stop] = np.array([_g(j - 324) for j in range(first, stop)], np.uint64).T
        filled[first:stop] = True
    # four times the value and the ends of its rounding interval, times 10**-k, rounded to odd
    cb = c << _U(2)
    vb, low, high = _rop(np.take(table, index, axis=1), np.stack([cb, cb - _U(2) + irregular, cb + _U(2)]) << h)
    odd = c & _U(1)  # an odd c's interval excludes its ends
    low += odd
    high -= odd
    s = vb >> _U(2)
    # one digit fewer: at most one multiple of 10 * 10**k is in the interval. The test is
    # s >= 10, not Java's s >= 100, which keeps Java's two digits (7.9e-323 for 8e-323)
    tens = s // _U(10)
    tens4 = tens * _U(40)
    down, up = low <= tens4, tens4 + _U(40) <= high
    # else s or s + 1, whichever is in the interval, or the nearer, ties to even
    s4 = s << _U(2)
    s_in, t_in = low <= s4, s4 + _U(4) <= high
    s4 += _U(2)
    plus_one = np.where(s_in == t_in, vb + (s & _U(1)) > s4, t_in)
    return np.where((s >= _U(10)) & (down != up), (tens + up) * _U(10), s + plus_one), k


def _digits8(x):
    """Replace each x < 10**8 by its eight decimal digits, one per byte, the most significant lowest.

    D. Lemire's SWAR split: 4 + 4 digits in the two 32-bit halves, then 2 + 2, then 1 + 1,
    each quotient a multiply and shift. In place: fresh arrays per step make it three times slower.
    """
    q, t = np.empty_like(x), np.empty_like(x)
    for base, width, magic, shift, mask in (
        (10000, 32, 109951163, 40, _M32),
        (100, 16, 10486, 20, 0x7F_0000_007F),
        (10, 8, 103, 10, 0x000F_000F_000F_000F),
    ):
        np.multiply(x, _U(magic), out=q)
        q >>= _U(shift)
        q &= _U(mask)
        np.multiply(q, _U(base), out=t)
        x -= t
        x <<= _U(width)
        x += q


def _text(values, marker, tables) -> bytes:
    """The repr of each value, each followed by its marker byte, as ASCII.

    Each value gets five words, zero where it writes nothing: 16 integer
    digits aligned right, the point, 20 fraction digits aligned left (the
    zeros of 0.000ddd included), then the exponent and the marker. A sign
    goes in the byte before the first integer digit, which for 16 of them is
    the last byte of the previous value's words. The text is what is left
    once the zero bytes are dropped.
    """
    table, filled, suffixes, places = tables
    bits = values.view(np.uint64)
    f, k = _shortest(bits, table, filled)
    zero = (bits << _U(1)) == 0
    f[zero] = 0
    length = np.searchsorted(_POW10[:18], f, side="right")  # digits of f, 0 for zero
    point = k + length  # the value is 0.ddd * 10**point
    point[zero] = 1
    fixed = (point > -4) & (point < 17)
    whole = np.where(fixed, np.maximum(point, 0), 1)  # digits before the point
    shift = np.where(fixed, np.maximum(-point, 0), 0)  # zeros after it
    f *= _POW10[17 - length]
    integer, fraction = np.divmod(f, _POW10[17 - whole])
    fraction *= _POW10[whole]  # the fraction's digits, left-aligned in 17 places
    words = np.empty((5, bits.size), np.uint64)
    words[0], words[1] = np.divmod(integer, _U(10**8))
    low = _POW10[2 + shift]  # the 20 fraction places, `shift` zeros first, as 7 + 8 + 5 digits
    words[2], words[3] = np.divmod(fraction // low, _U(10**8))
    words[4] = fraction % low * _POW10[6 - shift]
    _digits8(words)
    before = np.where(fixed, np.maximum(point, 1), 1)  # integer digits written
    words[0] += _LAST[np.maximum(before - 8, 0)]
    words[1] += _LAST[np.minimum(before, 8)]
    # fraction digits written: up to the last nonzero one, and one at least in fixed notation
    shown = words[2:] + _U(0x7F7F_7F7F_7F7F_7F7F)
    shown &= _U(0x8080_8080_8080_8080)  # 0x80 in the byte of each nonzero digit
    shown[1] |= (shown[2] != 0) * _U(0x80 << 56)
    shown[0] |= (shown[1] != 0) * _U(0x80 << 56) | fixed * _U(0x8000)
    shown |= shown >> _U(8)
    shown |= shown >> _U(16)
    shown |= shown >> _U(32)
    shown >>= _U(7)
    shown *= _U(0x30)
    shown[0] -= (shown[0] & _U(0x10)) >> _U(3)  # "." in byte 0, before any fraction digit
    words[2:] += shown
    words[4] |= suffixes[point + 323]
    words[4] |= marker.astype(np.uint64) << places[point + 323]
    canvas = np.empty(5 * bits.size + 1, np.uint64)
    canvas[0] = 0
    canvas[1:].reshape(-1, 5)[:] = words.T
    canvas = canvas.view(np.uint8)
    canvas[np.arange(23, 40 * bits.size, 40) - before] = (bits >> _U(63)) * _U(0x2D)
    return canvas[canvas != 0].tobytes()


def float_text(values: np.ndarray, separators: Sequence[str]) -> Iterator[str]:
    """The repr of each finite value of `values` in C order, yielded a block at a time.

    After each value comes separators[t], where t is how many trailing axes
    the value closes: separators[0] within a row, separators[values.ndim]
    after the last value.
    """
    tables = _tables()
    separators = [separator.encode("ascii") for separator in separators]  # bytes.replace is twice as fast
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    sizes = np.cumprod(values.shape[::-1])
    for start in range(0, flat.size, BLOCK):
        block = flat[start : start + BLOCK]
        index = np.arange(start + 1, start + 1 + block.size)
        closes = sum(index % size == 0 for size in sizes)
        text = _text(block, np.where(closes == 0, 44, 64 + closes), tables)
        counts = np.bincount(closes, minlength=len(separators))
        if counts[0] and separators[0] != b",":
            text = text.replace(b",", separators[0])
        for t in np.flatnonzero(counts[1:]) + 1:  # "A" marks a value that closes 1 axis, "B" 2, ...
            text = text.replace(bytes([64 + t]), separators[t])
        yield text.decode("ascii")
