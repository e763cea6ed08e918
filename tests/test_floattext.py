"""The vectorised float formatter against its oracle, ``float.__repr__``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varconn._floattext import BLOCK, float_text


def assert_reprs(values) -> None:
    """float_text writes each value as repr writes it."""
    values = np.asarray(values, dtype=np.float64)
    got = "".join(float_text(values, ("\n", "\n"))).split("\n")[:-1]
    want = list(map(float.__repr__, values.tolist()))
    if got != want:
        wrong = [(value, g, w) for value, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(got)} texts for {len(want)} values; first wrong (value, written, repr): {wrong[:5]}")


def signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestOracleSweep:
    def test_powers_of_two_and_their_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_reprs(signed(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])))

    def test_subnormals(self):
        assert_reprs(signed(from_bits(np.append(np.arange(1, 100_001), 2**52 - 1))))

    def test_zeros_and_extremes(self):
        assert_reprs([0.0, -0.0, 5e-324, 8e-323, 1e-322, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308])

    def test_powers_of_ten(self):
        assert_reprs(signed(10.0 ** np.arange(-323, 308)))

    def test_integers(self):
        assert_reprs(signed(np.append(np.arange(1, 100_001), [2**53 - 1, 2**53 + 1])))

    def test_notation_boundaries(self):
        assert_reprs(signed([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05]))

    def test_random_bit_patterns(self):
        values = from_bits(np.random.default_rng(20).integers(0, 2**64, size=1_000_000, dtype=np.uint64))
        assert_reprs(values[np.isfinite(values)])

    @pytest.mark.parametrize("size", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_lengths(self, size):
        rng = np.random.default_rng(size)
        assert_reprs(rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size))


finite_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(from_bits(bits))).filter(math.isfinite)


@settings(deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | finite_bits, max_size=50))
def test_any_finite_floats_render_as_repr(values):
    assert_reprs(values)


@pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (2, 3, 4), (3, 1, 2), (BLOCK + 1,), (3, BLOCK // 2 + 1), (BLOCK // 8 + 1, 2, 4)])
def test_separators_follow_the_axes_each_value_closes(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    separators = [f"<{t}>" for t in range(len(shape) + 1)]
    sizes = np.cumprod(shape[::-1])
    expected = "".join(
        repr(value) + separators[sum((index + 1) % size == 0 for size in sizes)] for index, value in enumerate(values.ravel().tolist())
    )
    assert "".join(float_text(values, separators)) == expected
