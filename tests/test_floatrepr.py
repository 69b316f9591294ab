"""The vectorized ``repr`` of ``_floatrepr`` against Python's own ``repr``,
byte for byte: on Hypothesis floats, on every bit pattern Hypothesis draws,
and on the edges of the shortest-decimal search and of the layout."""

import math
import random
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ammauction._floatrepr import CELL_WORDS, Workspace, text_cells
from ammauction.sim import BATCH_ROWS


def kernel_text(values) -> list[str]:
    """Each value's field in the CSV rows of one float column, formatted
    batch by batch through one workspace."""
    x = np.asarray(values, dtype=np.float64)
    batch = 4096
    workspace = Workspace(min(len(x), batch), 1)
    text = "".join(workspace.csv_rows(0, [x[lo : lo + batch]]) for lo in range(0, len(x), batch))
    return [line.split(",")[1] for line in text.splitlines()]


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


def repr_shape(x: float) -> tuple[int, int]:
    """``repr(x)``'s decpt, the point's place after its first digit, and
    its count of significant digits."""
    _, digits, exponent = Decimal(repr(x)).normalize().as_tuple()
    return len(digits) + exponent, len(digits)


def layout_edge_values() -> list[float]:
    """For every decpt in [-5, 18], at the switch from two exponent digits
    to three and at the normal range's ends, and for every count of
    significant digits from 1 to 17, a float whose repr has them, with both
    signs."""
    rng = random.Random(39)
    values = []
    for decpt in [*range(-5, 19), -99, -98, 100, 101, -306, 308]:
        for size in range(1, 18):
            while True:
                digits = [rng.randint(1, 9), *(rng.randint(0, 9) for _ in range(size - 2)),
                          rng.randint(1, 9)][:size]
                x = float(f"0.{''.join(map(str, digits))}e{decpt}")
                if repr_shape(x) == (decpt, size):
                    break
            values += [x, -x]
    return values


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

    def test_layout_edges_read_as_their_reprs(self):
        # every decpt of both forms and its neighbours, with every count of
        # digits: each place where the text's moves cross a word edge, in
        # one batch beside lanes that take repr's own cell
        x = layout_edge_values() + [5e-324, -2.5e-320, math.inf, -math.inf, math.nan]
        lines = Workspace(len(x), 1).csv_rows(0, [np.array(x)]).splitlines()
        assert [line.split(",")[1] for line in lines] == [repr(v) for v in x]

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
        assert Workspace(n, 2).csv_rows(9, [a, (tags, which), b]) == want

    @pytest.mark.parametrize("first", [0, 1, 9, 99_999_990, 2**53 - 4])
    def test_row_numbers_cross_powers_of_ten(self, first):
        x = np.zeros(4)
        want = "".join(f"{i},0.0\n" for i in range(first, first + 4))
        assert Workspace(4, 1).csv_rows(first, [x]) == want

    @given(st.integers(0, 2**53 - 600), st.integers(1, 600))
    def test_row_numbers_are_their_str(self, first, rows):
        lines = Workspace(rows, 1).csv_rows(first, [np.zeros(rows)]).splitlines()
        assert [line.split(",")[0] for line in lines] == [str(i) for i in range(first, first + rows)]

    @pytest.mark.parametrize("first, rows", [(2**53 - 3, 4), (2**53, 1), (2**64 - 4, 4)])
    def test_row_numbers_past_2_53_raise(self, first, rows):
        # a float64 lane no longer holds every integer there
        with pytest.raises(ValueError, match="below 2\\^53"):
            Workspace(rows, 1).csv_rows(first, [np.zeros(rows)])


class TestWorkspace:
    def test_batches_leave_no_stale_bytes(self):
        # one workspace over batches of random sizes, whose values and text
        # cells turn long and short by turns: each batch reads as its own
        # repr rows, with nothing left over from the batch before
        rng = np.random.default_rng(36)
        workspace = Workspace(BATCH_ROWS, 2)
        names = {True: ["-1.2345678901234567e-300", "0.30000000000000004", "x"], False: ["7"]}
        first = 1
        for batch in range(40):
            long = batch % 2 == 1
            rows = int(rng.integers(1, BATCH_ROWS + 1))
            if long:  # 17 digits, signs and exponents
                a = -rng.random(rows) * 10.0 ** rng.integers(-300, 300, rows)
                b = rng.normal(0.0, 1e-5, rows)
            else:  # one digit
                a = rng.integers(0, 10, rows).astype(np.float64)
                b = np.zeros(rows)
            which = rng.integers(0, len(names[long]), rows)
            want = "".join(
                f"{i},{u!r},{names[long][w]},{v!r}\n"
                for i, u, v, w in zip(range(first, first + rows), a.tolist(), b.tolist(),
                                      which.tolist())
            )
            assert workspace.csv_rows(first, [a, (text_cells(names[long]), which), b]) == want
            first += rows

    @pytest.mark.parametrize(
        "rows, floats, text",
        [(BATCH_ROWS + 1, 2, "x"), (8, 1, "x"), (8, 3, "x"), (BATCH_ROWS, 2, "x" * 800)],
        ids=["more-rows", "fewer-floats", "more-floats", "wide-text"],
    )
    def test_a_batch_that_does_not_fit_raises(self, rows, floats, text):
        # nothing grows: the workspace is made for one batch shape
        workspace = Workspace(BATCH_ROWS, 2)
        columns = [np.zeros(rows) for _ in range(floats)]
        columns.append((text_cells([text]), np.zeros(rows, dtype=np.intp)))
        with pytest.raises(ValueError, match="does not fit a workspace of 512 rows"):
            workspace.csv_rows(1, columns)

    # a block-log batch, 512 rows of 7 columns, writes about 60 KB of text;
    # through a workspace it allocates that text and little else (about
    # 1 MiB when each batch allocated its temporaries)

    @staticmethod
    def block_log_batch():
        rng = np.random.default_rng(7)
        rows = BATCH_ROWS
        fee, rent = text_cells(["0.003"]), text_cells(["1.2345678901234567e-05"])
        run = np.zeros(rows, dtype=np.intp)
        return [rng.exponential(0.01, rows), rng.normal(0.0, 0.05, rows), (fee, run),
                rng.normal(0.0, 1e-4, rows), rng.exponential(1e-5, rows),
                rng.exponential(1e-3, rows), (rent, run)]

    @staticmethod
    def peak_allocation(call) -> tuple[object, int]:
        """``call()``'s result and the most it held allocated at once."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_a_warm_batch_allocates_little_but_its_text(self):
        columns = self.block_log_batch()
        workspace = Workspace(BATCH_ROWS, 5)
        workspace.csv_rows(1, columns)
        text, peak = self.peak_allocation(lambda: workspace.csv_rows(1 + BATCH_ROWS, columns))
        assert len(text) > 50_000
        assert peak < 256 * 1024

    def test_each_field_is_one_run(self):
        # the compaction of the table costs by the run of nonzero bytes: a
        # layout that split a field would slow every batch down
        columns = self.block_log_batch()
        workspace = Workspace(BATCH_ROWS, 5)
        workspace.csv_rows(1, columns)
        words = 6 * CELL_WORDS + sum(col[0].shape[1] for col in columns if isinstance(col, tuple))
        nonzero = workspace._scratch[: 8 * words * BATCH_ROWS] != 0  # the table, at the front
        runs = np.count_nonzero(nonzero[1:] & ~nonzero[:-1]) + nonzero[0]
        assert runs == BATCH_ROWS * (1 + len(columns))

    def test_a_first_batch_allocates_little_but_its_text(self):
        # every buffer is made in the constructor, none at the first batch
        columns = self.block_log_batch()
        Workspace(BATCH_ROWS, 5).csv_rows(1, columns)  # builds the kernel's constants
        workspace = Workspace(BATCH_ROWS, 5)
        text, peak = self.peak_allocation(lambda: workspace.csv_rows(1, columns))
        assert len(text) > 50_000
        assert peak < 256 * 1024
