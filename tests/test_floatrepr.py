"""The vectorized ``repr`` of ``_floatrepr`` against Python's own ``repr``,
byte for byte: on Hypothesis floats, on every bit pattern Hypothesis draws,
and on the edges of the shortest-decimal search and of the layout."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ammauction._floatrepr import csv_rows, float_cells, text_cells


def kernel_text(values) -> list[str]:
    """Each value's cell with its unused bytes dropped."""
    x = np.asarray(values, dtype=np.float64)
    cells = float_cells(x).view(np.uint8).reshape(len(x), -1)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64).tolist()
    got = kernel_text(values)
    wrong = [(v.hex(), g, repr(v)) for v, g in zip(values, got) if g != repr(v)]
    assert wrong == []


def edge_values() -> np.ndarray:
    """Every power of two, every power of ten, the integers around 2^53 and
    the switches of the layout, each with its neighbours one ulp away."""
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers += [float(f"1e{e}") for e in range(-323, 309)]
    powers += [float(2**53 + d) for d in range(-4, 5)]
    powers += [1e-4, 1e-5, 9999999999999998.0, 1e16, 0.1, 0.3, 2.0 / 3.0]
    x = np.array(powers)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


class TestFloatRepr:
    def test_repr_is_the_short_style(self):
        # the kernel reproduces the shortest round-trip repr; a build with
        # the legacy 17-digit repr would read differently
        assert sys.float_repr_style == "short"

    @given(st.floats())
    def test_a_float_reads_as_its_repr(self, x):
        assert_reprs([x])

    @given(st.integers(0, 2**64 - 1))
    def test_any_bit_pattern_reads_as_its_repr(self, bits):
        assert_reprs(np.array([bits], dtype=np.uint64).view(np.float64))

    @given(arrays(np.float64, st.integers(1, 40)))
    def test_an_array_reads_as_its_reprs(self, x):
        assert_reprs(x)

    def test_edges_read_as_their_reprs(self):
        x = edge_values()
        assert_reprs(np.concatenate([x, -x]))

    @pytest.mark.parametrize(
        "x, text",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (5e-324, "5e-324"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (1e-4, "0.0001"),
            (1e-5, "1e-05"),
            (9999999999999998.0, "9999999999999998.0"),
            (1e16, "1e+16"),
            (123.0, "123.0"),
            (0.30000000000000004, "0.30000000000000004"),
        ],
    )
    def test_named_values(self, x, text):
        assert kernel_text([x]) == [text]

    def test_random_bit_patterns_read_as_their_reprs(self):
        rng = np.random.default_rng(34)
        assert_reprs(rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64))

    # JDK's integer fast path is left out of the port: these are the values
    # it took, which the search must return as the integer itself

    def test_small_integers_read_as_their_reprs(self):
        for lo in range(0, 2**20 + 1, 2**16):
            assert_reprs(np.arange(lo, min(lo + 2**16, 2**20 + 1), dtype=np.float64))

    def test_integers_near_2_52_and_2_53_read_as_their_reprs(self):
        k = np.arange(4096)
        assert_reprs(np.concatenate([(2**53 - k).astype(np.float64),
                                     (2**52 + k).astype(np.float64)]))

    def test_integers_with_trailing_zeros_read_as_their_reprs(self):
        assert_reprs([float(m * 10**j) for m in range(1000) for j in range(23)])


class TestCsvRows:
    def test_rows_are_the_repr_rows(self):
        rng = np.random.default_rng(3)
        n = 37
        a, b = rng.normal(0.0, 1e-3, n), rng.exponential(1e-5, n)
        b[::4] = 0.0
        names = ["x", "0.30000000000000004", ""]
        tags = text_cells(names)
        which = rng.integers(0, 3, n)
        want = "".join(
            f"{i},{u!r},{names[w]},{v!r}\n"
            for i, u, v, w in zip(range(9, 9 + n), a.tolist(), b.tolist(), which.tolist())
        )
        assert csv_rows(9, [a, tags[which], b]) == want

    @pytest.mark.parametrize("first", [0, 1, 9, 99_999_990, 2**53 - 4])
    def test_row_numbers_cross_powers_of_ten(self, first):
        x = np.zeros(4)
        want = "".join(f"{i},0.0\n" for i in range(first, first + 4))
        assert csv_rows(first, [x]) == want

    @given(st.integers(0, 2**53 - 600), st.integers(1, 600))
    def test_row_numbers_are_their_str(self, first, rows):
        lines = csv_rows(first, [np.zeros(rows)]).splitlines()
        assert [line.split(",")[0] for line in lines] == [str(i) for i in range(first, first + rows)]

    @pytest.mark.parametrize("first, rows", [(2**53 - 3, 4), (2**53, 1), (2**64 - 4, 4)])
    def test_row_numbers_past_2_53_raise(self, first, rows):
        # a float64 lane no longer holds every integer there
        with pytest.raises(ValueError, match="below 2\\^53"):
            csv_rows(first, [np.zeros(rows)])
