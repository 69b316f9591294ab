"""Python's float ``repr``, byte for byte, for whole float64 arrays.

``repr`` of a float is the shortest decimal that reads back as that float,
the one closest to it where several are as short, laid out by the ``'r'``
format: positional from 1e-4 up to 1e16, exponent form outside. Called once
per value, it is most of what writing a CSV of floats costs.

Here the decimal comes from Schubfach's ``toDecimal`` (R. Giulietti, "The
Schubfach way to render doubles", 2020; JDK 19's ``Double.toString``),
ported to uint64 lanes, each high 64-bit product formed from 32-bit halves.
The layout writes each text into a cell of four uint64 words, 0 bytes
then the text, right-aligned against its separator in the last byte, so
that :meth:`Workspace.csv_rows`, which drops a batch's zero bytes at once,
copies one run a field. A word holds eight digits, formed with a few
multiplies (SWAR); table lookups by the point's place and by the last
nonzero digit's give the '0's, the point, the sign and the shift that
right-aligns the text. The row numbers are lanes of the same layout that
skip the search, each its own ``f`` with ``e = 0``.

Normal values and zeros take the kernel. A subnormal, an infinity or a NaN
takes ``repr`` itself: Java's rule asks for two digits where a subnormal's
shortest form has one, and ``repr`` does not.

A :class:`Workspace` makes every array the kernel writes once, for one
batch shape, and writes them through ``out=`` from then on. A caller that
formats batch after batch through one workspace, as ``run_sim``'s block log
does, so allocates no array per batch but the compacted text that becomes
the returned ``str``: numpy has no compaction into a given array
(``np.compress`` takes ``out=``, but builds an index array eight times the
text's size first). Temporaries allocated and freed per batch would go back
to the C allocator, which returns the top of its heap to the OS past a
threshold, and the next batch would fault the same pages in again.

Every uint64 constant is an ``np.uint64``, so numpy promotes the same way
under NEP 50 and under numpy 1.x's value-based rules, and the lanes stay
arrays, even one lane, since arrays wrap on uint64 overflow where numpy
scalars warn. No ufunc takes a bool operand beside an integer one, which
costs a cast buffer the size of the operand: ``np.copyto``, which casts
without one, turns a bool into lanes of 0 or 1 that select by multiplying
(a ufunc's ``where=`` runs a masked loop several times slower).
``np.take`` writes into a contiguous buffer with ``mode="clip"``, the only
way it does not copy its output (every index is in range). The constants
and the 617-entry table of ``10^-k`` are built on first use, so importing
this module executes no numpy.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from types import SimpleNamespace
from typing import Sequence

from ._numpy import np

__all__ = ["Workspace", "text_cells"]

# The bytes of a word are those of a little-endian uint64 ("<u8"), on any
# host: the first byte of a text is the word's lowest.
_WORD = "<u8"

# A cell, in words: a text of up to 24 bytes ending at byte 30, then the
# separator's. The layout builds the text in three words, the significand's
# digits from byte 6 with a 0 for the point, and moves it up by 2-23 bytes.
CELL_WORDS = 4

# Schubfach's constants for binary64
_Q_MIN = -1074
_C_MIN = 1 << 52
_K_MIN, _K_MAX = -324, 292
_E_MIN = -324  # the least decimal exponent of the exponent tables
# A lane's slot: decpt + 3 for a float of decpt in [-3, 16], positional;
# 20 and 21 for the exponent form with a 2- and a 3-digit exponent; a row
# number's positional slot + _ROW_SLOT, its decpt its digit count
_SLOTS, _ROW_SLOT = 38, 18

# The kernel's buffers: names -> (shape, dtype), None in a shape standing
# for the lane count; names that share a buffer hold it at different times.
# The kept buffers live through a call. The decimal search's temporaries,
# on the float lanes, and the layout's, on every lane, live one phase each,
# so the two phases share the workspace's scratch storage, as does the CSV
# table after them. Past the layout's own, the digits' temporaries and then
# the move's share the storage.
_KEPT = {
    "x": ((None,), "f8"),  # the lanes' values, 0 on the row lanes
    "cells": ((CELL_WORDS, None), "u8"),  # word by word
    "special": ((None,), "?"),  # zeros, subnormals, infinities and NaNs
    "f": ((None,), "u8"), "e": ((None,), "i8"),  # the decimal f 10^e
    "lanes": ((None,), "p"),  # 0, 1, 2, ...
}
_SEARCH = {
    **dict.fromkeys(("q", "irregular", "h"), ((None,), "i8")),
    **dict.fromkeys(("c", "cp", "b1", "b0", "s", "sp10", "mid", "pick"), ((None,), "u8")),
    "at": ((None,), "p"),
    **dict.fromkeys(("shifts", "factors", ("a1", "low"), ("a0", "word"), "lo_hi", "part",
                     "borrow"), ((2, None), "u8")),
    "y0": ((3, None), "u8"),
    "high": ((3, 2, None), "u8"),
    "less": ((2, None), "?"),
    **dict.fromkeys(("flag", "flag2", "upin", "wpin", "shorter", "uin", "win", "up"),
                    ((None,), "?")),
}
_LAYOUT = {
    **dict.fromkeys(("on", "scale"), ((None,), "u8")),
    **dict.fromkeys(("at", "slot", "hop"), ((None,), "i8")),
    "lane": ((None,), "?"), "digits": ((3, None), "u8"), "shift": ((2, None), "u8"),
}
_DIGITS = {
    **dict.fromkeys(("hi", "top", "gap"), ((None,), "u8")),
    **dict.fromkeys(("size", "h"), ((None,), "i8")),
    **dict.fromkeys(("g", "gm"), ((None,), "f8")), "exp2": ((None,), "i4"),
    **dict.fromkeys(("quot", "d"), ((2, None), "u8")),
}
_MOVE = {
    "sign": ((None,), "i8"), ("mark", "carry"): ((3, None), "u8"), "moved": ((6, None), "u8"),
    "index": ((CELL_WORDS, None), "p"), "exponent": ((2, None), "u8"),
}


def _flog2pow10(e):
    """floor(e log2 10)"""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(beta) + 1, where 10^-k = beta 2^r with 2^125 <= beta < 2^126."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        return (1 << -r) // 10**k + 1
    return (10**-k << -r if r < 0 else 10**-k >> r) + 1


@cache
def _consts() -> SimpleNamespace:
    u = np.uint64
    g = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    g1 = [x >> 63 for x in g]
    g0 = [x & (1 << 63) - 1 for x in g]
    # by decpt - 1 - _E_MIN: the slot; the end of the cell's last word, the
    # exponent form's "e", sign and digits up to byte 6, then the separator;
    # and the bytes kept before the end
    x = range(_E_MIN, -_E_MIN)
    ends = [b"," if -4 <= v < 16 else b"e%+03d," % v for v in x]
    top = np.arange(100, dtype=np.uint64)  # the first two of 18 digits, in bytes 6 and 7
    return SimpleNamespace(
        # a lane's k picks a column: g1 and g0
        g=np.array([g1, g0], dtype=np.uint64),
        u0=u(0), u1=u(1), u2=u(2), u6=u(6), u8=u(8), u9=u(9), u10=u(10), u16=u(16),
        u19=u(19), u32=u(32), u52=u(52), u63=u(63), u64=u(64), u100=u(100), u103=u(103),
        u5243=u(5243), e4=u(10**4), e8=u(10**8),
        m32=u(0xFFFFFFFF), m63=u((1 << 63) - 1), t_mask=u(_C_MIN - 1),
        c_min=u(_C_MIN), bq_mask=u(0x7FF),
        hundreds=u(0x0000007F0000007F), tens=u(0x000F000F000F000F),
        pow10=np.array([10**i for i in range(20)], dtype=np.uint64),
        top=top // u(10) << u(48) | top % u(10) << u(56),
        slot=np.array([v + 4 if -4 <= v < 16 else 20 + (abs(v) > 99) for v in x]),
        exponent=np.array([[(1 << 64 - 8 * len(end)) - 1 for end in ends],
                           np.frombuffer(b"".join(e.rjust(8, b"\0") for e in ends), dtype=_WORD)],
                          dtype=np.uint64),
        **_slots(),
    )


def _slots() -> dict:
    """The layout's tables. By slot: ``gap``, 10 to the digits after the
    point (10^17 where no point falls among them), and ``mark``, the text's
    '0's from its first byte, its point and, at the slot + _SLOTS, its sign,
    in three words where the 18 digits with the point's 0 start at byte 6.
    By ``used _SLOTS + slot``, ``used`` the bytes from byte 8 up to the
    last nonzero digit (0 for none past digit 2), ``move``: how far
    the text moves up to end at byte 30 or before the exponent, as the bits
    each word moves plus 64 times 2 less the words it moves."""
    floats, rows = range(-3, 17), range(1, 17)
    # by slot: the point's byte, the text's first byte, and the text's end
    # at least (a ".0", a row's zeros) and at most
    point = [6 + p for p in floats] + [7, 7] + [24] * 16  # none in a row's 24 bytes
    start = [6 if p > 0 else 5 + p for p in floats] + [6, 6] + [7] * 16
    least = [7 + p for p in floats] + [0, 0] + [6 + p for p in rows]
    end = np.array([30] * 20 + [26, 25] + [30] * 16)
    gap = [10 ** (17 - p) if p > 0 else 10**17 for p in floats] + [10**16] * 2 + [10**17] * 16
    mark = b"".join(
        (bytes(first - 1) + b"\0-"[minus : minus + 1] + b"0" * (at - first) + b"." + b"0" * 24)[:24]
        for minus in (0, 1) for at, first in zip(point, start)
    )
    # the last nonzero digit's byte; of digits 1-2 alone, 7, or 6 in the
    # exponent form, whose point's 0 is byte 7 (elsewhere the least decides)
    last = np.arange(7, 24).reshape(-1, 1)
    shift = (end - np.maximum(last, least)).reshape(-1)
    shift[20:22] += 1  # the exponent form's, digits 1-2 alone: the first is the last
    return dict(
        gap=np.array(gap, dtype=np.uint64),
        mark=np.frombuffer(mark, dtype=_WORD).reshape(-1, 3).T.copy(),
        move=(64 * (2 - (shift >> 3)) + 8 * (shift & 7)).astype(np.uint64),
    )


def _mulhi(t, a1, a0, b1, b0, out):
    """The high 64 bits of ``a b`` into ``out``, from the 32-bit halves
    ``a1 a0`` and ``b1 b0``; ``a1`` and ``a0`` are overwritten."""
    k = _consts()
    np.multiply(a1, b1, out=out)
    lo_hi = np.multiply(a0, b1, out=t.lo_hi)
    hi_lo = np.multiply(a1, b0, out=a1)
    mid = np.multiply(a0, b0, out=a0)
    mid >>= k.u32
    part = np.bitwise_and(lo_hi, k.m32, out=t.part)
    mid += part
    np.bitwise_and(hi_lo, k.m32, out=part)
    mid += part
    mid >>= k.u32
    out += mid
    lo_hi >>= k.u32
    out += lo_hi
    hi_lo >>= k.u32
    out += hi_lo


def _rop3(t, at, cp, shifts):
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
    # the high words of (g1 cp, g0 cp) for cp, the left and the right end
    high = t.high
    factors = np.take(k.g, at, axis=1, out=t.factors, mode="clip")
    np.right_shift(factors, k.u32, out=t.a1)
    np.bitwise_and(factors, k.m32, out=t.a0)
    np.right_shift(cp, k.u32, out=t.b1)
    np.bitwise_and(cp, k.m32, out=t.b0)
    _mulhi(t, t.a1, t.a0, t.b1, t.b0, out=high[0])
    low = np.multiply(factors, cp, out=t.low)
    y0 = t.y0  # the low words of g1 cp
    y0[0] = low[0]
    # the left end: less g 2^s, with the borrow out of the low words
    word, shift = t.word, t.b1  # b1 is spent
    np.left_shift(factors, shifts[0], out=word)
    np.subtract(low[0], word[0], out=y0[1])
    borrow = t.borrow
    np.copyto(borrow, np.less(low, word, out=t.less))
    np.right_shift(factors, np.subtract(k.u64, shifts[0], out=shift), out=word)
    np.subtract(high[0], word, out=high[1])
    high[1] -= borrow
    # the right end: plus g 2^s', with the carry out of the low words
    np.left_shift(factors, shifts[1], out=word)
    low += word
    y0[2] = low[0]
    np.copyto(borrow, np.less(low, word, out=t.less))
    np.right_shift(factors, np.subtract(k.u64, shifts[1], out=shift), out=word)
    np.add(high[0], word, out=high[2])
    high[2] += borrow
    # rop: z = (y0 >> 1) + x1, vbp = y1 + (z >> 63), odd if z's low bits are not 0
    vbp, x1, z = high[:, 0], high[:, 1], y0
    z >>= k.u1
    z += x1
    vbp += np.right_shift(z, k.u63, out=x1)
    z &= k.m63
    z += k.m63
    z >>= k.u63
    vbp |= z
    return vbp


def _to_decimal(t, bits, q):
    """Schubfach's ``toDecimal`` for the normal doubles with raw ``bits``
    and unbiased exponents ``q``: ``(f, e)``, the shortest decimal
    ``f 10^e`` in the rounding interval, the closest to the double where
    several are, ties to an even ``f``.

    JDK's integer fast path is left out: below 2^53 an integer's rounding
    interval is narrower than 1, so the search returns that integer, as
    ``f`` with trailing zeros that the layout drops."""
    k = _consts()
    c = np.bitwise_and(bits, k.t_mask, out=t.c)
    # c == C_MIN has a rounding interval half as wide below, but at q == Q_MIN
    flag = np.equal(c, k.u0, out=t.flag)
    flag &= np.not_equal(q, _Q_MIN, out=t.flag2)
    irregular = t.irregular  # 1 where irregular, else 0
    np.copyto(irregular, flag)
    c |= k.c_min
    # e = flog10pow2(q) = floor(q log10 2), or where irregular
    # flog10threeQuartersPow2(q) = floor(log10(3/4 2^q))
    e = np.multiply(q, 661_971_961_083, out=t.e)
    h = np.multiply(irregular, 274_743_187_321, out=t.h)
    e -= h
    e >>= 41
    np.multiply(e, -913_124_641_741, out=h)  # flog2pow10(-e)
    h >>= 38
    h += q
    h += 2
    h = h.view(np.uint64)
    # rop of cb = 4c, cbl = cb - 2 (cb - 1 where irregular) and cbr = cb + 2,
    # each shifted by h: cbl << h = (cb << h) - (1 << h + 1 - irregular)
    shifts = t.shifts
    np.add(h, k.u1, out=shifts[1])
    np.subtract(shifts[1], irregular.view(np.uint64), out=shifts[0])
    h += k.u2
    cp = np.left_shift(c, h, out=t.cp)
    vb, vbl, vbr = _rop3(t, np.subtract(e, _K_MIN, out=t.at), cp, shifts)
    even = np.bitwise_and(c, k.u1, out=cp)
    vbl += even  # the interval holds its ends when c is even
    vbr -= even

    s = np.right_shift(vb, k.u2, out=t.s)
    # u' = 10 floor(s / 10) and w' = u' + 10, one digit shorter than u = s
    # and w = s + 1; the paper's mulhi(s, 115292150460684698 << 4) is s // 10
    sp10 = np.floor_divide(s, k.u10, out=t.sp10)
    sp10 *= k.u10
    mid = t.mid
    upin = np.less_equal(vbl, np.left_shift(sp10, k.u2, out=mid), out=t.upin)
    np.add(sp10, k.u10, out=mid)
    mid <<= k.u2
    wpin = np.less_equal(mid, vbr, out=t.wpin)
    shorter = np.greater_equal(s, k.u100, out=t.shorter)
    shorter &= np.not_equal(upin, wpin, out=t.flag)
    uin = np.less_equal(vbl, np.left_shift(s, k.u2, out=mid), out=t.uin)
    np.add(s, k.u1, out=mid)
    mid <<= k.u2
    win = np.less_equal(mid, vbr, out=t.win)
    np.left_shift(s, k.u2, out=mid)
    mid += k.u2
    # w when it alone is in the interval, or both are and v is nearer w, or
    # halfway and s is odd
    up = np.greater(vb, mid, out=t.up)
    halfway = np.equal(vb, mid, out=t.flag)
    halfway &= np.not_equal(np.bitwise_and(s, k.u1, out=mid), k.u0, out=t.flag2)
    up |= halfway
    alone = np.not_equal(uin, win, out=t.flag)
    np.greater(up, alone, out=up)  # up & ~alone
    up |= np.logical_and(alone, win, out=alone)
    np.copyto(mid, up)
    f = np.add(s, mid, out=t.f)
    # one digit shorter where u' or w' is in the interval: f + (u' or w' - f)
    np.copyto(mid, wpin)
    mid *= k.u10
    mid += sp10
    mid -= f
    pick = t.pick
    np.copyto(pick, shorter)
    mid *= pick
    f += mid
    return f, e


def _eight_digits(t, x):
    """In place, the eight decimal digits of each lane of ``x`` (below
    10^8), one per byte, the first in the lowest byte: split in halves of
    four digits, of two and of one, each division a multiply and a shift on
    all the parts of a word at once."""
    k = _consts()
    hi = np.floor_divide(x, k.e4, out=t.quot)
    d = np.multiply(hi, k.e4, out=t.d)
    x -= d
    x <<= k.u32
    x |= hi
    np.multiply(x, k.u5243, out=d)
    d >>= k.u19
    d &= k.hundreds
    x -= np.multiply(d, k.u100, out=hi)
    x <<= k.u16
    x |= d
    np.multiply(x, k.u103, out=d)
    d >>= k.u10
    d &= k.tens
    x -= np.multiply(d, k.u10, out=hi)
    x <<= k.u8
    x |= d
    return x


def _float_cells(t):
    """The cell of each lane into ``t.cells``, row ``w`` holding word ``w``
    of every lane: the ``repr`` of a float lane's value ``t.x``, or a row
    lane's integer ``t.f``, one of the first ``t.rows``, whose ``t.e`` is 0."""
    k = _consts()
    s = t.search
    sbits = s.x.view(np.uint64)
    q, special = s.q, t.special[t.rows :]
    np.right_shift(sbits, k.u52, out=q.view(np.uint64))
    np.bitwise_and(q.view(np.uint64), k.bq_mask, out=q.view(np.uint64))
    np.equal(q, 0, out=special)
    special |= np.equal(q, 0x7FF, out=s.flag)
    q -= 1075
    _to_decimal(s, sbits, q)
    # the decimal search's buffers are free from here on
    f, e, lane, scale, size = t.f, t.e, t.lane, t.scale, t.size
    on, on_i = t.on, t.on.view(np.int64)  # 0 or 1 per lane, as uint64 and as int64
    np.copyto(on, np.logical_not(t.special, out=lane))
    f *= on  # a zero, or a lane repr writes below
    e *= on_i

    # the significand, left-aligned on 17 digits. f < 2^E with E frexp's
    # exponent of float(f), so f has t or t + 1 digits, t = floor(E log10 2)
    # = E * 1233 >> 12 for E <= 64: one comparison with 10^t settles it
    np.copyto(t.g, f)
    np.frexp(t.g, out=(t.g, t.exp2))
    t.exp2 *= 1233
    t.exp2 >>= 12
    np.copyto(size, t.exp2)
    np.take(k.pow10, size, out=scale, mode="clip")
    np.copyto(on, np.greater_equal(f, scale, out=lane))
    size += on_i
    np.maximum(size, 1, out=size)  # a zero has one digit
    at = np.add(e, size, out=t.at)  # decpt, the point's place after the first digit
    at -= 1 + _E_MIN
    f *= np.take(k.pow10, np.subtract(17, size, out=size), out=scale, mode="clip")
    slot = np.take(k.slot, at, out=t.slot, mode="clip")
    slot[: t.rows] += _ROW_SLOT
    # the point's 0 digit: f + 9 gap (f // gap) moves the digits before it up
    gap = np.take(k.gap, slot, out=t.gap, mode="clip")
    hi = np.floor_divide(f, gap, out=t.hi)
    hi *= gap
    hi *= k.u9
    f += hi
    # the 18 digits: the first two by the table, then two words of eight
    digits = t.digits
    np.floor_divide(f, k.e8, out=hi)
    np.subtract(f, np.multiply(hi, k.e8, out=scale), out=digits[2])
    top = np.floor_divide(hi, k.e8, out=t.top)
    np.subtract(hi, np.multiply(top, k.e8, out=scale), out=digits[1])
    _eight_digits(t, digits[1:])
    np.take(k.top, top.view(np.int64), out=digits[0], mode="clip")

    # the move, by the bytes up to the last nonzero digit of digits 3-18:
    # lo 2^64 + mid has lo's bit length plus 64, or mid's where lo is 0
    g, h, hop, shift = t.g, t.h, t.hop, t.shift
    np.copyto(g, digits[2])
    g *= 2.0**64
    np.copyto(t.gm, digits[1])
    g += t.gm
    np.frexp(g, out=(g, t.exp2))
    np.copyto(h, t.exp2)
    h += 7
    h >>= 3
    h *= _SLOTS
    h += slot
    move = np.take(k.move, h, out=hop.view(np.uint64), mode="clip")
    np.bitwise_and(move, k.u63, out=shift[0])  # the bits up, then down
    np.subtract(k.u64, shift[0], out=shift[1])
    move >>= k.u6  # into hop
    # the '0's, the point and the sign
    sign = np.right_shift(t.x.view(np.int64), 63, out=t.sign)
    sign &= _SLOTS
    sign += slot
    digits |= np.take(k.mark, sign, axis=1, out=t.mark, mode="clip")
    # the text moved up into place, by bits within words, then by words
    moved, carry = t.moved, t.carry
    moved[:2] = 0
    np.left_shift(digits, shift[0], out=moved[2:5])
    np.right_shift(digits, shift[1], out=carry)
    moved[3:5] |= carry[:2]
    moved[5] = carry[2]
    hop *= len(f)
    hop += t.lanes
    cells = np.take(moved.reshape(-1), np.add(hop, t.words, out=t.index), out=t.cells,
                    mode="clip")
    exponent = np.take(k.exponent, at, axis=1, out=t.exponent, mode="clip")
    cells[-1] &= exponent[0]
    cells[-1] |= exponent[1]

    # subnormals, infinities and NaNs
    special &= np.not_equal(np.bitwise_and(sbits, k.m63, out=scale[t.rows :]), k.u0,
                            out=lane[t.rows :])
    if special.any():
        for i in np.flatnonzero(special).tolist():
            text = repr(float(s.x[i])).encode().rjust(8 * CELL_WORDS - 1, b"\0") + b","
            cells[:, t.rows + i] = np.frombuffer(text, dtype=_WORD)
    return cells


def _carve(store, spec: dict, n: int) -> tuple[dict, int]:
    """Views of ``n`` lanes for each of ``spec``'s buffers, end to end and
    8-byte aligned in the uint8 array ``store`` (none if it is None), and
    the bytes they take."""
    stride, views, at = -(-n // 8) * 8, {}, 0
    for names, (dims, dtype) in spec.items():
        dtype, shape = np.dtype(dtype), tuple(n if d is None else d for d in dims)
        if store is not None:
            view = store[at : at + math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)
            views.update(dict.fromkeys(names if isinstance(names, tuple) else (names,), view))
        at += math.prod(stride if d is None else d for d in dims) * dtype.itemsize
    return views, at


class Workspace:
    """The arrays the kernel writes for batches of up to ``rows`` rows of
    ``floats`` float columns, all made here, once. A run that formats its
    rows batch by batch makes one and calls :meth:`csv_rows` on it for each
    batch, so nothing of it outlives the run. It serves one call at a time.
    """

    def __init__(self, rows: int, floats: int) -> None:
        self.rows, self.floats = rows, floats
        n = (1 + floats) * rows  # the lanes: the row numbers, then each float column
        own, digits, move = (_carve(None, spec, n)[1] for spec in (_LAYOUT, _DIGITS, _MOVE))
        kept = np.zeros(_carve(None, _KEPT, n)[1], dtype=np.uint8)  # x, e 0 on the row lanes
        scratch = np.empty(max(_carve(None, _SEARCH, n - rows)[1], own + max(digits, move)),
                           dtype=np.uint8)
        t = self._t = SimpleNamespace(
            **_carve(kept, _KEPT, n)[0], **_carve(scratch, _LAYOUT, n)[0],
            **_carve(scratch[own:], _DIGITS, n)[0], **_carve(scratch[own:], _MOVE, n)[0],
            rows=rows, words=np.arange(0, CELL_WORDS * n, n, dtype=np.intp).reshape(-1, 1),
        )
        t.search = SimpleNamespace(**_carve(scratch, _SEARCH, n - rows)[0],
                                   x=t.x[rows:], f=t.f[rows:], e=t.e[rows:])
        t.lanes[:] = np.arange(n)
        self._scratch, self._x = scratch, t.search.x.reshape(floats, rows)

    def csv_rows(self, first: int, columns: Sequence) -> str:
        """The CSV text of the columns' rows, each row its number, counting
        from ``first``, then a field from each column. A float column is a
        float64 array, written as ``repr``. A text column is a pair
        ``(cells, which)`` of :func:`text_cells` and the index of each CSV
        row's text in them.

        The kernel runs on every lane: a batch of fewer rows than the
        workspace's zeroes the lanes past its own and reads the front of
        the cells. The table, its mask and, in the mask's place until the
        table is filled, the text gathers use the front of the scratch.
        Raises ``ValueError`` for a row number at or past 2^53 and for a
        batch that does not fit: more rows, another number of float
        columns, or text columns too wide for the scratch."""
        rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
        floats = [col for col in columns if not isinstance(col, tuple)]
        widths = [col[0].shape[1] if isinstance(col, tuple) else CELL_WORDS for col in columns]
        ends = list(accumulate([CELL_WORDS, *widths], initial=0))
        size = rows * ends[-1] * 8
        if rows > self.rows or len(floats) != self.floats or 2 * size > len(self._scratch):
            raise ValueError(
                f"a batch of {rows} rows, {len(floats)} float columns and {ends[-1]} words a "
                f"row does not fit a workspace of {self.rows} rows and {self.floats} float "
                "columns"
            )
        if first + rows > 2**53:
            raise ValueError(f"row numbers must stay below 2^53, got up to {first + rows - 1}")
        t, x = self._t, self._x
        x[:, rows:] = 0.0
        t.f[rows : self.rows] = 0
        np.add(t.lanes[:rows], first, out=t.f[:rows].view(np.int64))  # the row numbers
        for lanes, col in zip(x, floats):
            np.copyto(lanes[:rows], col)
        cells = _float_cells(t).reshape(CELL_WORDS, 1 + self.floats, self.rows)
        cells = iter(cells[:, :, :rows].transpose(1, 2, 0))

        table = self._scratch[:size].view(_WORD).reshape(rows, ends[-1])
        table[:, :CELL_WORDS] = next(cells)
        for col, lo, hi in zip(columns, ends[1:], ends[2:]):
            if isinstance(col, tuple):  # gathered in the mask's place, then copied
                gathered = self._scratch[size:].view(_WORD)[: rows * (hi - lo)]
                table[:, lo:hi] = np.take(*col, axis=0, out=gathered.reshape(rows, hi - lo),
                                          mode="clip")
            else:
                table[:, lo:hi] = next(cells)
        table.view(np.uint8)[:, -1] = ord("\n")  # the row's last separator

        text = table.view(np.uint8).reshape(-1)
        mask = np.not_equal(text, 0, out=self._scratch[size : 2 * size].view(np.bool_))
        return str(text[mask], "ascii")


def text_cells(texts: Sequence[str]):
    """Each of ``texts`` as the bytes of a row of uint64 words, right-aligned
    against its separator ',' in the row's last byte, as a float's cell is."""
    raw = [t.encode("ascii") for t in texts]
    size = 8 * (max(map(len, raw), default=0) // 8 + 1)
    cells = b"".join(t.rjust(size - 1, b"\0") + b"," for t in raw)
    return np.frombuffer(cells, dtype=_WORD).reshape(len(raw), size // 8)
