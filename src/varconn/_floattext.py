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

Each ``float_text`` call renders its blocks in one workspace, allocated
when the call starts: every intermediate is written with ``out=`` into its
rows, and the text is laid out on a canvas that a ``bytearray`` backs, so
that its zero bytes are dropped without first copying the canvas out.

The other way, ``read_digits`` turns words of ASCII digits into numbers and
``nearest_doubles`` takes a decimal significand w < 2**64 and exponent q to
the double nearest w * 10**q (D. Lemire, "Number Parsing at a Gigabyte per
Second", Software: Practice and Experience 51(8), 2021): one 64 x 64-bit
product of w with the top 64 bits of 5**q decides it, unless the product
lands too near a rounding boundary; Clinger's one IEEE operation settles
the exact values among those, and ``float`` the rest.
"""

import functools
import math
from collections.abc import Iterator, Sequence

import numpy as np

#: Values per step. A call's workspace is 133 B a value of a step (532 KiB), and
#: the memory a call holds does not grow with the array. Each step pays a fixed
#: cost in NumPy calls: steps of 2,048 values measured 9% slower, and steps of
#: 8,192 about 3% faster for a workspace twice the size.
BLOCK = 4096

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
    """Tables made on first use.

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
    # in a mapping of its own, whose pages are resident only once a column in them is
    # filled: as a heap array (np.zeros, or np.empty with its last row zeroed) its
    # 416 KiB raised model_fit's peak RSS by 0.17 to 0.45 MiB. Private, as a heap array
    # is: a forked process fills columns of its own copy, and this one never sees a
    # column filled only in part. Imported here, as loading mmap adds 40 KiB to every
    # command, also those that write no float text.
    import mmap

    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}  # Windows has neither the flag nor fork
    exponents = np.frombuffer(mmap.mmap(-1, 13 * 4096 * 8, **private), np.uint64).reshape(13, 4096)
    return exponents, np.array(layout)


def _fill(exponents, columns) -> None:
    columns = sorted(set(columns.tolist()))  # not np.unique, which imports numpy.ma
    exponents[:, columns] = np.array([_exponent_column(i) for i in columns], np.uint64).T


def _shortest(w, c, flags, exponents):
    """(f, column, i) in rows 2, 4 and 3 of the workspace `w`, whose row 0 holds each value's bits.

    f is the shortest f * 10**k that reads back as each finite double,
    nearest to it, ties to even, and 0 for a zero. column = k + 339 is the
    point-table column of f written with 16 digits, and i the exponent
    column (0 for a subnormal). Rows 5 to 10 of `w`, the five rows `c` and
    the `flags` are scratch.
    """
    bits, m, i, column, cp, cp_hi = w[0], w[2], w[3], w[4], w[5], w[6]
    top, vb, lo, cross = c[:4], c[4], w[7:9], w[9:11]
    index = i.view(np.int64)
    np.bitwise_and(bits, _U(2**52 - 1), out=m)
    np.right_shift(bits, _U(51), out=i)
    i &= _U(0xFFE)
    i |= np.equal(m, 0, out=flags[0])
    np.take(exponents[12], index, out=column, mode="clip")
    if not column.all():
        _fill(exponents, index[column == 0])
        np.take(exponents[12], index, out=column, mode="clip")
    # rop of the value: A = floor(g1 * cp / 2) + floor(g0 * cp / 2**64) for cp = c << (h + 2),
    # on both g's at once, each 64 x 59 bits as four 32 x 32-bit products
    np.take(exponents[4:6], index, axis=1, out=top[:2], mode="clip")  # the shift and the implicit bit
    np.add(m, top[1], out=cp)
    cp <<= top[0]
    np.right_shift(cp, _U(32), out=cp_hi)
    cp &= _M32  # the low limb
    np.take(exponents[:4], index, axis=1, out=top, mode="clip")  # g1 and g0's high limbs, then their low limbs
    np.multiply(top[2:], cp, out=lo)
    np.multiply(top[2:], cp_hi, out=cross)
    hi, t = top[:2], top[2:]
    np.multiply(hi, cp, out=t)
    cross += t  # below 2**59 + 2**63, so it does not wrap
    hi *= cp_hi
    np.right_shift(cross, _U(32), out=t)
    hi += t
    cross &= _M32
    np.right_shift(lo, _U(32), out=t)
    t += cross
    t >>= _U(32)
    hi += t
    cross <<= _U(32)
    lo += cross  # g1 * cp and g0 * cp mod 2**64
    z, a_hi = cp, cp_hi
    np.right_shift(lo[0], _U(1), out=z)
    z += hi[1]
    np.right_shift(z, _U(63), out=a_hi)
    a_hi += hi[0]
    a_lo = z
    a_lo &= _M63
    np.add(a_lo, _M63, out=vb)
    vb >>= _U(63)
    vb |= a_hi
    # the upper and lower ends of the interval, the same rop of A moved by the table's amounts
    bottom, t, ends = top, cross, lo
    np.take(exponents[8:12], index, axis=1, out=bottom, mode="clip")
    np.add(a_lo, bottom[:2], out=t)
    t += np.greater(lo[1], bottom[2:], out=flags[:2])  # lo[1] is x0
    np.take(exponents[6:8], index, axis=1, out=ends, mode="clip")
    ends += a_hi
    np.right_shift(t, _U(63), out=bottom[:2])
    ends += bottom[:2]
    t &= _M63
    t += _M63
    t >>= _U(63)
    ends |= t
    odd = m
    odd &= _U(1)  # an odd c's interval excludes its ends
    ends[0] -= odd
    ends[1] += odd
    high, low = ends
    s = m
    np.right_shift(vb, _U(2), out=s)
    tens, tens4, s4, scratch = top
    down, up, s_in, t_in, nearer = flags
    # one digit fewer: at most one multiple of 10 * 10**k is in the interval
    np.floor_divide(s, _U(10), out=tens)
    np.multiply(tens, _U(40), out=tens4)
    np.less_equal(low, tens4, out=down)
    tens4 += _U(40)
    np.less_equal(tens4, high, out=up)
    # else s or s + 1, whichever is in the interval, or the nearer, ties to even
    np.left_shift(s, _U(2), out=s4)
    np.less_equal(low, s4, out=s_in)
    s4 += _U(4)
    np.less_equal(s4, high, out=t_in)
    s4 -= _U(2)
    np.bitwise_and(s, _U(1), out=scratch)
    scratch += vb
    np.greater(scratch, s4, out=nearer)
    plus_one = t_in
    np.copyto(plus_one, nearer, where=np.equal(s_in, t_in, out=s_in))
    s += plus_one
    tens += up
    tens *= _U(10)
    np.copyto(s, tens, where=np.not_equal(down, up, out=down))
    return s, column, i


def _digits8(x, q) -> None:
    """Replace each x < 10**8 by its eight decimal digits, one per byte, the most significant lowest.

    D. Lemire's SWAR split: 4 + 4 digits in the two 32-bit halves, then 2 + 2, then 1 + 1,
    each quotient q a multiply and shift, and x * 2**width - q * (base * 2**width - 1) puts
    the remainder above it. In place, with q an array of x's shape for the quotients.
    """
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


def _text(w, flags, tables, canvas) -> None:
    """Lay out the repr of each value in row 0 of `w` in `canvas`, each followed by the byte in bits 48..55 of row 1.

    Each value gets five words, zero where it writes nothing: 16 integer
    digits aligned right, the point, 20 fraction digits aligned left (the
    zeros of 0.000ddd included), then the exponent from byte 1 of the last
    word and the marker in its byte 6. A sign goes in byte 7 of the
    previous value's last word. The text is what is left once the zero
    bytes are dropped; the canvas past the block's words is zeroed. Until
    the words are laid out, its first 5 * n words are five rows of scratch.
    """
    exponents, layout = tables
    bits, marker = w[0], w[1]
    n = bits.size
    c = canvas[: 5 * n].reshape(5, n)
    f, column, i = _shortest(w, c, flags, exponents)
    f17, big = w[5], flags[0]
    np.greater_equal(f, _POW10[16], out=big)  # a normal double's f has 16 or 17 digits
    np.multiply(f, _U(10), out=f17)
    np.copyto(f17, f, where=big)  # the digits, 17 of them
    column += big
    column = column.view(np.int64)
    if not i.all():  # a subnormal's f has 1 to 17
        sub = i == 0
        length = np.searchsorted(_POW10[:18], f[sub], side="right")
        f17[sub] = f[sub] * _POW10[17 - length]
        column[sub] += length - 16 - big[sub]
    div, mul, low, scale = c[:4]
    np.take(layout[:4], column, axis=1, out=c[:4], mode="clip")
    integer, scratch, fraction, words = w[2], w[3], f17, w[6:11]
    np.floor_divide(f17, div, out=integer)
    np.multiply(integer, div, out=scratch)
    fraction -= scratch
    fraction *= mul  # the fraction's digits, left-aligned in 17 places
    np.floor_divide(integer, _U(10**8), out=words[0])
    np.multiply(words[0], _U(10**8), out=scratch)
    np.subtract(integer, scratch, out=words[1])
    tail = integer
    np.floor_divide(fraction, low, out=tail)  # the 20 fraction places, `shift` zeros first, as 7 + 8 + 5 digits
    np.floor_divide(tail, _U(10**8), out=words[2])
    np.multiply(words[2], _U(10**8), out=scratch)
    np.subtract(tail, scratch, out=words[3])
    tail *= low
    fraction -= tail
    np.multiply(fraction, scale, out=words[4])
    _digits8(words, c)
    np.take(layout[4:], column, axis=1, out=c[:4], mode="clip")
    written, first, suffix = c[:2], c[2], c[3]
    words[:2] += written
    # fraction digits written: up to the last nonzero one, and one at least in fixed notation
    shown, scratch = w[2:5], c[:3]
    np.add(words[2:], _U(0x7F7F_7F7F_7F7F_7F7F), out=shown)
    shown[0] += first
    shown &= _U(0x8080_8080_8080_8080)  # 0x80 in the byte of each nonzero digit
    for later in (1, 0):
        shown[later] |= np.multiply(np.not_equal(shown[later + 1], 0, out=flags[0]), _U(0x80 << 56), out=scratch[0])
    for width in (8, 16, 32):
        shown |= np.right_shift(shown, _U(width), out=scratch)
    shown >>= _U(7)
    shown *= _U(0x30)
    np.bitwise_and(shown[0], _U(0x10), out=scratch[0])
    scratch[0] >>= _U(3)
    shown[0] -= scratch[0]  # "." in byte 0, before any fraction digit
    words[2:] += shown
    words[4] |= suffix
    words[4] |= marker
    canvas[1 : 5 * n + 1].reshape(n, 5)[:] = words.T
    canvas[0] = 0
    canvas[5 * n + 1 :] = 0
    sign = w[5]
    np.right_shift(bits, _U(63), out=sign)
    sign *= _U(0x2D << 56)
    canvas[: 5 * n : 5] |= sign


#: Rows of a workspace: the bits, the markers and the intermediates of `_shortest` and `_text`
#: that the canvas does not hold.
_ROWS = 11


def float_text(values, separators: Sequence[str]) -> Iterator[bytearray]:
    """The repr of each finite value of `values` in C order, as ASCII bytes yielded a block at a time.

    After each value comes separators[t], where t is how many trailing axes
    the value closes: separators[0] within a row, separators[values.ndim]
    after the last value. `values` is an array, or any object with a
    ``shape`` and a ``readinto(out)`` that writes the next len(out) values
    into the float64 array out and returns the bytes written, as a binary
    file's does; values that end early are a ValueError. Every block is
    rendered in one workspace, allocated when the call starts.
    """
    tables = _tables()
    separators = [separator.encode("ascii") for separator in separators]  # bytes.replace is twice as fast
    sizes = [int(size) for size in np.cumprod(values.shape[::-1])]
    total = math.prod(values.shape)
    readinto = getattr(values, "readinto", None) or _reader(values)
    block = BLOCK
    width = min(block, total)
    space, flags = np.empty(_ROWS * width, np.uint64), np.empty(5 * width, np.bool_)
    buffer = bytearray(8 * (5 * width + 1))
    canvas = np.frombuffer(buffer, np.uint64)
    for start in range(0, total, block):
        n = min(block, total - start)
        w = space[: _ROWS * n].reshape(_ROWS, n)
        if readinto(w[0].view(np.float64)) != 8 * n:
            raise ValueError(f"values end before the {total} their shape {tuple(values.shape)} holds")
        marker = w[1]
        marker.fill(_U(44 << 48))  # ","
        closes = []
        for t, size in enumerate(sizes, 1):  # deeper axes later: a value that closes t axes closes every shallower one
            first = (-start - 1) % size  # the first value in the block that closes t axes
            marker[first::size] = _U((128 + t) << 48)  # byte 129 marks a value that closes 1 axis, 130 2, ...
            if first < n:
                closes.append(t)
        _text(w, flags[: 5 * n].reshape(5, n), tables, canvas)
        yield _separated(buffer.translate(None, b"\0"), separators, closes)


def _separated(text: bytearray, separators: list[bytes], closes: list[int]) -> bytearray:
    """The text with each marker replaced by its separator; only the text returned outlives the call."""
    if separators[0] != b",":
        text = text.replace(b",", separators[0])
    for t in closes:  # above 127, no marker is a byte of the ASCII text or the separators
        text = text.replace(bytes([128 + t]), separators[t])
    return text


def read_digits(x) -> None:
    """Replace each word of ASCII digits or zero bytes, its first digit in its lowest byte, by the number they spell.

    The inverse of `_digits8`, in place (Lemire 2021, §6): 1 + 1 digits,
    then 2 + 2, then 4 + 4, each step one multiply by base * 2**width + 1
    and a shift. A zero byte reads as the digit 0.
    """
    for mask, base, width in ((0x0F0F_0F0F_0F0F_0F0F, 10, 8), (0x00FF_00FF_00FF_00FF, 100, 16), (0x0000_FFFF_0000_FFFF, 10000, 32)):
        x &= _U(mask)
        x *= _U((base << width) + 1)
        x >>= _U(width)


#: Decimal exponents of w * 10**q with a power in the table; beyond them a w below 2**64 makes 0 or an infinity.
_Q_MIN, _Q_MAX = -342, 308
_EXACT_POW10 = 10.0 ** np.arange(23)


@functools.cache
def _fives() -> np.ndarray:
    """By q - _Q_MIN: the top 64 bits of 5**q, rounded down, filled as values first need them; 0 until filled."""
    return np.zeros(_Q_MAX - _Q_MIN + 1, np.uint64)


def _five(q: int) -> int:
    if q >= 0:
        power = 5**q
        return power << 64 - power.bit_length() if power.bit_length() <= 64 else power >> power.bit_length() - 64
    power = 5**-q
    return (1 << 63 + power.bit_length()) // power


def nearest_doubles(w, q, negative) -> np.ndarray:
    """Overwrite each w by the bits of the double nearest w * 10**q, negated where `negative`; return where it was not decided.

    w is uint64, q int64 and negative bool. With x = w << lz normal and
    f the top 64 bits of 5**q, the 128-bit x * f is below x times the
    exact power by less than one unit of its high word, so the top 54 bits
    of that word, rounded half up to 53, are the double's unless the bits
    below them are all ones (the shortfall could carry into them) or all
    zeros with a zero low word (a tie, or an exact value). Those, a q
    beyond the table, subnormals, infinities and zeros are left undecided,
    except what Clinger's fast path rounds exactly: w <= 2**53 and
    |q| <= 22.
    """
    f, x, e, a, b, c = np.empty((6, w.size), np.uint64)
    fives = _fives()
    index = e.view(np.int64)
    np.subtract(q, _Q_MIN, out=index)
    undecided = e > _U(_Q_MAX - _Q_MIN)
    np.take(fives, index, out=f, mode="clip")
    if not f.all():
        needed = np.zeros(fives.size, np.bool_)
        needed[index[(f == 0) & ~undecided]] = True
        for i in np.flatnonzero(needed).tolist():
            fives[i] = _five(i + _Q_MIN)
        np.take(fives, index, out=f, mode="clip")
    np.multiply(q, 217706, out=index)
    index >>= 16  # floor(q log2 10) (Lemire 2021, §5)
    e += _U(1086 + 64)  # the biased exponent before the shifts below, plus 64 to stay unsigned
    zero = w == 0
    np.bitwise_or(w, zero, out=x)
    # lz = 63 - floor(log2 x) from x's float64 exponent, which is one too high where x rounds up to a power of 2
    np.copyto(a.view(np.float64), x, casting="unsafe")
    a >>= _U(52)
    np.minimum(a, _U(1086), out=a)  # 2**64 - 1 rounds up to 2**64
    np.subtract(_U(1086), a, out=a)
    x <<= a
    np.right_shift(x, _U(63), out=b)
    b ^= _U(1)
    x <<= b
    a += b
    e -= a
    # the top 64 bits of x * f, from four 32 x 32-bit products; the low 64 bits are x * f mod 2**64
    np.multiply(x, f, out=b)
    low_zero = b == 0
    np.right_shift(x, _U(32), out=a)
    x &= _M32
    np.right_shift(f, _U(32), out=b)
    f &= _M32
    np.multiply(x, f, out=c)
    c >>= _U(32)
    f *= a
    x *= b
    a *= b
    np.bitwise_and(f, _M32, out=b)
    c += b
    np.bitwise_and(x, _M32, out=b)
    c += b  # the middle column, below 3 * 2**32
    f >>= _U(32)
    a += f
    x >>= _U(32)
    a += x
    c >>= _U(32)
    high = a
    high += c
    np.right_shift(high, _U(63), out=b)
    e += b
    b += _U(9)
    np.left_shift(_U(1), b, out=c)
    c -= _U(1)  # the bits below the top 54
    np.bitwise_and(high, c, out=f)
    undecided |= f == c
    undecided |= (f == 0) & low_zero
    high >>= b
    high += _U(1)
    high >>= _U(1)
    np.right_shift(high, _U(53), out=b)  # rounding carried into bit 53
    high >>= b
    e += b
    e -= _U(65)
    undecided |= e >= _U(2046)  # a biased exponent below 1 or above 2046
    e += _U(1)
    high &= _U(2**52 - 1)
    e <<= _U(52)
    high |= e
    undecided |= zero
    exact = np.flatnonzero(undecided)
    exact = exact[(w[exact] <= _U(2**53)) & (np.abs(q[exact]) <= 22)]
    value, power = w[exact].astype(np.float64), _EXACT_POW10[np.abs(q[exact])]
    high[exact] = np.where(q[exact] < 0, value / power, value * power).view(np.uint64)
    undecided[exact] = False
    np.copyto(b, negative)
    b <<= _U(63)
    np.bitwise_or(high, b, out=w)
    return undecided


def _reader(values):
    """A ``readinto`` for an array: each call copies its next values, in C order."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    start = 0

    def readinto(out) -> int:
        nonlocal start
        np.copyto(out, flat[start : start + out.size])
        start += out.size
        return out.nbytes

    return readinto
