"""Python's float ``repr``, byte for byte, for whole float64 arrays.

``repr`` of a float is the shortest decimal that reads back as that float,
the one closest to it where several are as short, laid out by the ``'r'``
format: positional from 1e-4 up to 1e16, exponent form outside. Called once
per value, it is most of what writing a CSV of floats costs.

Here the decimal comes from Schubfach's ``toDecimal`` (R. Giulietti, "The
Schubfach way to render doubles", 2020; JDK 19's ``Double.toString``),
ported to uint64 lanes, each high 64-bit product formed from 32-bit halves.
The layout then writes each value's bytes into a fixed-width cell of seven
uint64 words, eight bytes each, in slots that are 0 where the value has no
byte, and :func:`csv_rows` drops the zero bytes of a whole batch of rows at
once. A word holds eight ASCII digits, formed with a few multiplies (SWAR),
and a table of byte masks keeps the digits a value's layout shows. The row
numbers are lanes of the same kernel, float64 integers with their point and
fraction cleared, so they must stay below 2^53.

Normal values and zeros take the kernel. A subnormal, an infinity or a NaN
takes ``repr`` itself: Java's rule asks for two digits where a subnormal's
shortest form has one, and ``repr`` does not.

Every uint64 constant is an ``np.uint64``, so numpy promotes the same way
under NEP 50 and under numpy 1.x's value-based rules, and the lanes stay
arrays, even one lane, since arrays wrap on uint64 overflow where numpy
scalars warn. The constants and the 617-entry table of ``10^-k`` are built
on first use, so importing this module executes no numpy.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from types import SimpleNamespace
from typing import Sequence

from ._numpy import np

__all__ = ["csv_rows", "float_cells", "text_cells"]

# The bytes of a word are those of a little-endian uint64 ("<u8"), on any
# host: the first byte of a text is the word's lowest.
_WORD = "<u8"

# A float's cell, in words: the sign and a "0.000" prefix, then the first
# digit in the top byte; digits 2-9; digits 10-17 (the digits before the
# point); the point, then the first digit again in the top byte; digits
# 2-9 and 10-17 again (the digits after the point); the exponent. The last
# byte is the field's separator.
CELL_WORDS = 7

# Schubfach's constants for binary64
_Q_MIN = -1074
_C_MIN = 1 << 52
_K_MIN, _K_MAX = -324, 292
_E_MIN = -324  # the least decimal exponent of the exponent word table
_KEEP_AT = 12  # the most bytes a mask index falls below zero
_PREFIX_AT = 14  # the most 2 - decpt falls below zero


def _flog2pow10(e):
    """floor(e log2 10)"""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(beta) + 1, where 10^-k = beta 2^r with 2^125 <= beta < 2^126."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        return (1 << -r) // 10**k + 1
    return (10**-k << -r if r < 0 else 10**-k >> r) + 1


def _word(text: bytes, at: int = 0) -> int:
    """The uint64 whose bytes, in memory order, hold ``text`` from byte ``at``."""
    return int.from_bytes(text, "little") << 8 * at


@cache
def _consts() -> SimpleNamespace:
    u = np.uint64
    g = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    g1 = [x >> 63 for x in g]
    g0 = [x & (1 << 63) - 1 for x in g]
    return SimpleNamespace(
        # a lane's k picks a column: g1 and g0
        g=np.array([g1, g0], dtype=np.uint64),
        u0=u(0), u1=u(1), u2=u(2), u8=u(8), u64=u(64), u10=u(10), u16=u(16), u19=u(19),
        u32=u(32), u52=u(52), u56=u(56), u63=u(63), u100=u(100), u103=u(103),
        u5243=u(5243), e4=u(10**4), e8=u(10**8),
        m32=u(0xFFFFFFFF), m63=u((1 << 63) - 1), t_mask=u(_C_MIN - 1),
        c_min=u(_C_MIN), bq_mask=u(0x7FF), sign_mask=u(1 << 63),
        hundreds=u(0x0000007F0000007F), tens=u(0x000F000F000F000F),
        zero=u(ord("0")), zeros=u(0x3030303030303030), minus=u(ord("-")),
        point=u(ord(".")),
        pow10=np.array([10**i for i in range(20)], dtype=np.uint64),
        # keep[m + _KEEP_AT]: the first m bytes of a word, m < 0 for none
        keep=np.array(
            [(1 << 8 * min(max(m, 0), 8)) - 1 for m in range(-_KEEP_AT, 24)], dtype=np.uint64
        ),
        # prefix[2 - decpt + _PREFIX_AT]: from byte 1, "0." and -decpt zeros
        # for decpt in [-3, 0], and nothing for decpt in [1, 16]
        prefix=np.array(
            [0] * (_PREFIX_AT + 2) + [_word(b"0." + b"0" * z, 1) for z in range(4)],
            dtype=np.uint64,
        ),
        # exponent[x - _E_MIN]: "e", the sign, two or three digits
        exponent=np.array(
            [_word(b"e%+03d" % x) for x in range(_E_MIN, -_E_MIN)], dtype=np.uint64
        ),
    )


def _mulhi(a1, a0, b1, b0, out):
    """The high 64 bits of ``a b`` into ``out``, from the 32-bit halves
    ``a1 a0`` and ``b1 b0``."""
    k = _consts()
    np.multiply(a1, b1, out=out)
    lo_hi = a0 * b1
    hi_lo = a1 * b0
    mid = a0 * b0
    mid >>= k.u32
    part = lo_hi & k.m32
    mid += part
    np.bitwise_and(hi_lo, k.m32, out=part)
    mid += part
    mid >>= k.u32
    out += mid
    lo_hi >>= k.u32
    out += lo_hi
    hi_lo >>= k.u32
    out += hi_lo


def _rop3(at, cp, shifts):
    """Schubfach's ``rop(g, cp)``, ``g cp / 2^127`` rounded to odd, with
    ``g`` the table's entry ``at`` of each lane, of ``cp``, ``cp - 2^s`` and
    ``cp + 2^s'`` for ``shifts = (s, s')``: the lanes' rounded ``v``, left
    end and right end, ``vb, vbl, vbr``.

    ``rop`` forms its value from the halves ``y1 y0`` of ``g1 cp`` and the
    high half ``x1`` of ``g0 cp``, with ``g = g1 2^63 + g0``. The ends'
    operands differ from ``cp`` by a power of two, so their products are
    those of ``cp`` less or plus ``g1`` and ``g0`` shifted, in 128-bit
    arithmetic: the same bits as two more full products."""
    k = _consts()
    n = len(cp)
    # the high words of (g1 cp, g0 cp) for cp, the left and the right end
    high = np.empty((3, 2, n), dtype=np.uint64)
    factors = np.take(k.g, at, axis=1)
    _mulhi(factors >> k.u32, factors & k.m32, cp >> k.u32, cp & k.m32, out=high[0])
    low = factors * cp
    y0 = np.empty((3, n), dtype=np.uint64)  # the low words of g1 cp
    y0[0] = low[0]
    # the left end: less g 2^s, with the borrow out of the low words
    word = factors << shifts[0]
    np.subtract(low[0], word[0], out=y0[1])
    borrow = low < word
    np.right_shift(factors, k.u64 - shifts[0], out=word)
    np.subtract(high[0], word, out=high[1])
    high[1] -= borrow
    # the right end: plus g 2^s', with the carry out of the low words
    np.left_shift(factors, shifts[1], out=word)
    low += word
    y0[2] = low[0]
    np.less(low, word, out=borrow)
    np.right_shift(factors, k.u64 - shifts[1], out=word)
    np.add(high[0], word, out=high[2])
    high[2] += borrow
    del factors, low, word, borrow
    # rop: z = (y0 >> 1) + x1, vbp = y1 + (z >> 63), odd if z's low bits are not 0
    vbp, z = high[:, 0], y0
    z >>= k.u1
    z += high[:, 1]
    vbp += z >> k.u63
    z &= k.m63
    z += k.m63
    z >>= k.u63
    vbp |= z
    return vbp


def _to_decimal(bits):
    """Schubfach's ``toDecimal`` for the normal doubles with raw ``bits``:
    ``(f, e)``, the shortest decimal ``f 10^e`` in the rounding interval,
    the closest to the double where several are, ties to an even ``f``.

    JDK's integer fast path is left out: below 2^53 an integer's rounding
    interval is narrower than 1, so the search returns that integer, as
    ``f`` with trailing zeros that the layout drops."""
    k = _consts()
    q = ((bits >> k.u52) & k.bq_mask).astype(np.int64)
    q -= 1075
    c = bits & k.t_mask
    # c == C_MIN has a rounding interval half as wide below, but at q == Q_MIN
    irregular = c == k.u0
    irregular &= q != _Q_MIN
    c |= k.c_min
    # e = flog10pow2(q) = floor(q log10 2), or where irregular
    # flog10threeQuartersPow2(q) = floor(log10(3/4 2^q))
    e = q * 661_971_961_083
    e -= irregular * 274_743_187_321
    e >>= 41
    h = _flog2pow10(-e)
    h += q
    h += 2
    h = h.astype(np.uint64)
    # rop of cb = 4c, cbl = cb - 2 (cb - 1 where irregular) and cbr = cb + 2,
    # each shifted by h: cbl << h = (cb << h) - (1 << h + 1 - irregular)
    shifts = np.empty((2, len(bits)), dtype=np.uint64)
    np.add(h, k.u1, out=shifts[1])
    np.subtract(shifts[1], irregular, out=shifts[0])
    del irregular
    h += k.u2
    vb, vbl, vbr = _rop3(e - _K_MIN, c << h, shifts)
    del h, shifts  # each temporary freed early lowers the kernel's peak memory
    out = c & k.u1
    vbl += out  # the interval holds its ends when c is even
    vbr -= out
    del out

    s = vb >> k.u2
    # u' = 10 floor(s / 10) and w' = u' + 10, one digit shorter than u = s
    # and w = s + 1; the paper's mulhi(s, 115292150460684698 << 4) is s // 10
    sp10 = s // k.u10
    sp10 *= k.u10
    upin = vbl <= sp10 << k.u2
    wpin = sp10 + k.u10 << k.u2 <= vbr
    shorter = (s >= k.u100) & (upin != wpin)
    uin = vbl <= s << k.u2
    win = s + k.u1 << k.u2 <= vbr
    mid = s << k.u2
    mid += k.u2
    # w when it alone is in the interval, or both are and v is nearer w, or
    # halfway and s is odd
    up = np.where(uin == win, (vb > mid) | ((vb == mid) & (s & k.u1).astype(bool)), win)
    f = s + up
    np.copyto(f, sp10 + k.u10 * wpin, where=shorter)
    return f, e


def _eight_digits(v):
    """The eight decimal digits of each lane of ``v`` (below 10^8), one per
    byte, the first in the lowest byte: split in halves of four digits, of
    two and of one, each division a multiply and a shift on all the parts
    of a word at once."""
    k = _consts()
    hi = v // k.e4
    x = v - hi * k.e4
    x <<= k.u32
    x |= hi
    d = x * k.u5243
    d >>= k.u19
    d &= k.hundreds
    x -= d * k.u100
    x <<= k.u16
    x |= d
    d = x * k.u103
    d >>= k.u10
    d &= k.tens
    x -= d * k.u10
    x <<= k.u8
    x |= d
    return x


def float_cells(x):
    """The ``repr`` of each value of the float64 array ``x``, as the rows
    of a ``(len(x), CELL_WORDS)`` uint64 array whose unused bytes are 0;
    the last byte of each row is left free for a separator."""
    k = _consts()
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = len(x)
    bits = x.view(np.uint64)
    bq = (bits >> k.u52) & k.bq_mask
    normal = (bq != k.u0) & (bq != k.bq_mask)
    f, e = _to_decimal(bits)
    f *= normal  # a zero, or a lane repr writes below
    e *= normal

    # the significand, left-aligned on 17 digits: the first, then two words
    size = np.searchsorted(k.pow10, f, side="right")
    np.maximum(size, 1, out=size)  # a zero has one digit
    f *= np.take(k.pow10, 17 - size)
    decpt = e + size  # the point's place after the first digit
    hi = f // k.e8
    words = np.empty((2, n), dtype=np.uint64)
    np.subtract(f, hi * k.e8, out=words[1])
    first = hi // k.e8
    np.subtract(hi, first * k.e8, out=words[0])
    words = _eight_digits(words)
    # each word's bytes up to its last nonzero digit, then the digits shown
    used = np.frexp(words.astype(np.float64))[1]
    used += 7
    used >>= 3
    digits = used[1] + 9
    digits *= used[1] > 0
    np.maximum(digits, used[0] + (used[0] > 0), out=digits)
    np.maximum(digits, first > k.u0, out=digits)
    words += k.zeros
    first += k.zero

    # repr's 'r' rules: positional for decpt in [-3, 16], else d.ddde+XX;
    # the digits before the point are [0, point), those after [point, last)
    positional = (decpt > -4) & (decpt <= 16)
    point = np.where(positional, decpt, 1)
    last = np.where(positional, np.maximum(digits, point + 1), digits)
    at = np.empty((4, n), dtype=np.intp)
    np.add(point, _KEEP_AT - 1, out=at[0])
    np.add(point, _KEEP_AT - 9, out=at[1])
    np.add(last, _KEEP_AT - 1, out=at[2])
    np.add(last, _KEEP_AT - 9, out=at[3])
    keep = np.take(k.keep, at)
    before = keep[:2]
    after = keep[2:]
    after &= ~before
    lead_before = point > 0
    lead = first << k.u56

    cells = np.empty((n, CELL_WORDS), dtype=np.uint64)
    cells[:, 0] = np.take(k.prefix, _PREFIX_AT + 2 - point)
    cells[:, 0] |= (bits >> k.u63) * k.minus
    cells[:, 0] |= lead * lead_before
    np.bitwise_and(words, before, out=cells[:, 1:3].T)
    cells[:, 3] = lead * ~lead_before
    cells[:, 3] |= k.point * (lead_before & (last > point))
    np.bitwise_and(words, after, out=cells[:, 4:6].T)
    cells[:, 6] = np.take(k.exponent, decpt - 1 - _E_MIN) * ~positional

    for i in np.flatnonzero(~normal & ((bits & ~k.sign_mask) != k.u0)).tolist():
        # subnormals, infinities and NaNs
        text = repr(float(x[i])).encode().ljust(8 * CELL_WORDS, b"\0")
        cells[i] = np.frombuffer(text, dtype=_WORD)
    return cells


def text_cells(texts: Sequence[str]):
    """Each of ``texts`` as the bytes of a row of uint64 words, zero-padded,
    with the row's last byte left free for a separator."""
    raw = [t.encode("ascii") for t in texts]
    size = 8 * (max(map(len, raw), default=0) // 8 + 1)
    cells = b"".join(t.ljust(size, b"\0") for t in raw)
    return np.frombuffer(cells, dtype=_WORD).reshape(len(raw), size // 8)


def csv_rows(first: int, columns: Sequence) -> str:
    """The CSV text of the columns' rows, each row its number, counting
    from ``first``, then a field from each column. A float column is a
    float64 array, written as ``repr``; a text column is the array of
    :func:`text_cells`, one row per CSV row. The row numbers are written
    as float64 lanes, exact only below 2^53: a number at or past it raises
    ``ValueError``."""
    rows = len(columns[0])
    if first + rows > 2**53:
        raise ValueError(f"row numbers must stay below 2^53, got up to {first + rows - 1}")
    columns = [np.arange(first, first + rows, dtype=np.float64), *columns]
    ends = list(accumulate((CELL_WORDS if col.ndim == 1 else col.shape[1] for col in columns),
                           initial=0))
    table = np.empty((rows, ends[-1]), dtype=_WORD)
    floats = [col for col in columns if col.ndim == 1]
    cells = iter(float_cells(np.concatenate(floats)).reshape(len(floats), rows, CELL_WORDS))
    for col, lo, hi in zip(columns, ends, ends[1:]):
        table[:, lo:hi] = next(cells) if col.ndim == 1 else col
    table[:, 3:6] = 0  # a row number's point and fraction: 7.0 is written 7

    text = table.view(np.uint8)
    text[:, np.multiply(ends[1:-1], 8) - 1] = ord(",")
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii")
