"""The vectorised float formatter against its oracle, ``float.__repr__``."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varconn
from varconn import _floattext
from varconn._floattext import BLOCK, float_text


def joined(values, separators) -> str:
    """All of float_text's ASCII bytes for `values`, as one str."""
    return b"".join(float_text(values, separators)).decode("ascii")


def assert_reprs(values) -> None:
    """float_text writes each value as repr writes it."""
    values = np.asarray(values, dtype=np.float64)
    got = joined(values, ("\n", "\n")).split("\n")[:-1]
    want = list(map(float.__repr__, values.tolist()))
    if got != want:
        wrong = [(value, g, w) for value, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(got)} texts for {len(want)} values; first wrong (value, written, repr): {wrong[:5]}")


def signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def powers_of_two_and_their_neighbours() -> np.ndarray:
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return signed(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def subnormals() -> np.ndarray:
    return signed(from_bits(np.append(np.arange(1, 100_001), 2**52 - 1)))


def zeros_and_extremes() -> np.ndarray:
    return np.array([0.0, -0.0, 5e-324, 8e-323, 1e-322, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308])


def powers_of_ten() -> np.ndarray:
    return signed(10.0 ** np.arange(-323, 308))


def integers() -> np.ndarray:
    return signed(np.append(np.arange(1, 100_001), [2**53 - 1, 2**53 + 1]))


def notation_boundaries() -> np.ndarray:
    return signed([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05])


def random_bit_patterns() -> np.ndarray:
    values = from_bits(np.random.default_rng(20).integers(0, 2**64, size=1_000_000, dtype=np.uint64))
    return values[np.isfinite(values)]


SWEEP = (powers_of_two_and_their_neighbours, subnormals, zeros_and_extremes, powers_of_ten, integers, notation_boundaries, random_bit_patterns)


class TestOracleSweep:
    def test_powers_of_two_and_their_neighbours(self):
        assert_reprs(powers_of_two_and_their_neighbours())

    def test_subnormals(self):
        assert_reprs(subnormals())

    def test_zeros_and_extremes(self):
        assert_reprs(zeros_and_extremes())

    def test_powers_of_ten(self):
        assert_reprs(powers_of_ten())

    def test_integers(self):
        assert_reprs(integers())

    def test_notation_boundaries(self):
        assert_reprs(notation_boundaries())

    def test_random_bit_patterns(self):
        assert_reprs(random_bit_patterns())

    # 2,047 to 2,049 straddle a half block, where the block was 2,048 values before it rose to 4,096
    @pytest.mark.parametrize("size", [1, 2, 2047, 2048, 2049, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_lengths(self, size):
        rng = np.random.default_rng(size)
        assert_reprs(rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size))


finite_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(from_bits(bits))).filter(math.isfinite)


@settings(deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | finite_bits, max_size=50))
def test_any_finite_floats_render_as_repr(values):
    assert_reprs(values)


def with_separators(values: np.ndarray, separators) -> str:
    """The oracle: each value's repr, then separators[t] for the t trailing axes it closes."""
    sizes = np.cumprod(values.shape[::-1]).tolist()
    return "".join(
        repr(value) + separators[sum((index + 1) % size == 0 for size in sizes)] for index, value in enumerate(values.ravel().tolist())
    )


@pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (2, 3, 4), (3, 1, 2), (BLOCK + 1,), (3, BLOCK // 2 + 1), (BLOCK // 8 + 1, 2, 4)])
def test_separators_follow_the_axes_each_value_closes(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    separators = [f"<{t}>" for t in range(len(shape) + 1)]
    assert joined(values, separators) == with_separators(values, separators)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="NumPy 1 arrays have at most 32 axes")
@pytest.mark.parametrize("ndim", [37, 64])
def test_separators_after_values_that_close_many_axes(ndim):
    # a value that closes 37 axes was once marked with the byte of "e"
    values = np.full((1,) * (ndim - 1) + (2,), 1e-05)
    separators = [f"<{t}>" for t in range(ndim + 1)]
    assert joined(values, separators) == with_separators(values, separators)


def test_separators_may_hold_any_ascii():
    # letters and digits too, which a marker byte must not be mistaken for
    values = np.random.default_rng(3).standard_normal((2, 3, 4)) * 1e-7
    separators = ["A", "B\n", "e", "0]"]
    assert joined(values, separators) == with_separators(values, separators)


# blocks that start at every offset within each axis, not only at multiples of BLOCK: 7 is
# coprime with 5 and 8, so one-value blocks (20 s for the two large shapes) would add no offset
OFFSET_CASES = [((3, 5, 7), 1)] + [(shape, block) for shape in [(512, 8, 8), (20000, 5), (3, 5, 7)] for block in [7, 2047, 2048, BLOCK - 1, BLOCK]]


@pytest.mark.parametrize("shape, block", OFFSET_CASES, ids=[f"{'x'.join(map(str, shape))}-block{block}" for shape, block in OFFSET_CASES])
def test_separators_at_every_block_offset(monkeypatch, shape, block):
    monkeypatch.setattr(_floattext, "BLOCK", block)
    rng = np.random.default_rng(block)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    separators = [f"<{t}>" for t in range(len(shape) + 1)]
    assert joined(values, separators) == with_separators(values, separators)


def test_text_does_not_depend_on_simd_dispatch(tmp_path):
    # the sweep again, in a process whose NumPy takes its kernels without AVX-512 and whose
    # OpenBLAS takes Haswell's; NumPy ignores the names of features a CPU lacks
    values = np.concatenate([build() for build in SWEEP])
    np.save(tmp_path / "sweep.npy", values)
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from varconn._floattext import float_text\n"
        "text = b''.join(float_text(np.load(sys.argv[1]), ('\\n', '\\n')))\n"
        "print(hashlib.sha256(text).hexdigest())\n"
    )
    src = str(Path(varconn.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep.npy")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == hashlib.sha256(joined(values, ("\n", "\n")).encode("ascii")).hexdigest()


def long_then_short(seed: int, shape) -> np.ndarray:
    """Values of 17 digits and a 3-digit exponent, then, in the last block, the shortest texts: zeros and subnormals."""
    rng = np.random.default_rng(seed)
    values = -rng.uniform(1.0, 2.0, shape) * 1e-300
    flat = values.reshape(-1)
    last = flat[(flat.size - 1) // BLOCK * BLOCK :]
    last[0::3], last[1::3] = -0.0, 0.0
    last[2::3] = from_bits(rng.integers(1, 2**12, last[2::3].size))
    return values


def test_a_workspace_reused_block_after_block_leaks_no_bytes():
    # each call renders all its blocks in one workspace: a short last block after long texts,
    # arrays of other shapes and separators back to back, and two calls whose blocks interleave
    cases = [
        (long_then_short(1, (3, BLOCK // 2 + 1)), ["A", "B\n", "e]"]),
        (long_then_short(2, (2 * BLOCK + 5,)), [",", "\r\n"]),
        (long_then_short(3, (BLOCK // 8 + 1, 2, 4)), [f"<{t}>" for t in range(4)]),
        (np.array([-0.0, 5e-324, -1e-310]), ["\n", "\n"]),
    ]
    for values, separators in cases + cases[::-1]:
        assert joined(values, separators) == with_separators(values, separators)
    (a, separators_a), (b, separators_b) = cases[:2]
    texts = ([], [])
    for pair in itertools.zip_longest(float_text(a, separators_a), float_text(b, separators_b)):
        for text, chunk in zip(texts, pair):
            if chunk is not None:
                text.append(bytes(chunk))
    assert b"".join(texts[0]).decode("ascii") == with_separators(a, separators_a)
    assert b"".join(texts[1]).decode("ascii") == with_separators(b, separators_b)


@pytest.mark.parametrize("blocks", [4, 64])
def test_one_call_peaks_within_a_bound_of_one_block(blocks):
    # the workspace (11 rows of uint64, 5 of flags and the 5-word canvas: 133 B a value) is
    # allocated once per call, so the peak is one block's, whatever the array's length: with
    # the canvas-sized text translate makes (40 B a value) and a block's text before and after
    # its separators (up to 26 and 40 B a value here), about 240 B a value; 1.02 MB measured
    _floattext._tables()
    values = long_then_short(blocks, (blocks * BLOCK - 5,))
    separators = (",\n            ", "\n          ]")  # as long as a measure array's within a row
    tracemalloc.start()
    try:
        for _ in float_text(values, separators):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * BLOCK, peak
