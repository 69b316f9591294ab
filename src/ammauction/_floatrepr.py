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
byte, and :meth:`Workspace.csv_rows` drops the zero bytes of a whole batch
of rows at once. A word holds eight ASCII digits, formed with a few
multiplies (SWAR), and a table of byte masks keeps the digits a value's
layout shows. The row numbers are lanes of the same kernel, float64
integers with their point and fraction cleared, so they must stay below
2^53.

Normal values and zeros take the kernel. A subnormal, an infinity or a NaN
takes ``repr`` itself: Java's rule asks for two digits where a subnormal's
shortest form has one, and ``repr`` does not.

A :class:`Workspace` holds every array the kernel writes: the lanes'
values, the temporaries of the decimal search and of the layout, the cells,
the CSV table, the text-cell gathers and the compaction mask. It makes them
once, for one batch shape, and writes them through ``out=`` from then on. A
caller that formats batch after batch through one workspace, as
``run_sim``'s block log does, so allocates no array per batch but the
compacted text that becomes the returned ``str``: numpy has no compaction
into a given array (``np.compress`` takes ``out=``, but builds an index
array eight times the text's size first). Temporaries allocated and freed
per batch would go back to the C allocator, which returns the top of its
heap to the OS past a threshold, and the next batch would fault the same
pages in again.

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

# A float's cell, in words: the sign and a "0.000" prefix, then the first
# digit in the top byte; digits 2-9; digits 10-17 (the digits before the
# point); the point or the first digit in the top byte; digits 2-9 and
# 10-17 again (the digits after the point); the exponent, up to the last
# byte, the field's separator. Bytes of one field that touch make one run
# for the compaction to copy, and it costs by the run.
CELL_WORDS = 7

# Schubfach's constants for binary64
_Q_MIN = -1074
_C_MIN = 1 << 52
_K_MIN, _K_MAX = -324, 292
_E_MIN = -324  # the least decimal exponent of the exponent word table
_KEEP_AT = 12  # the most bytes a mask index falls below zero
_PREFIX_AT = 14  # the most 2 - decpt falls below zero

# The kernel's buffers: names -> (shape, dtype), None in a shape standing
# for the lane count; names that share a buffer hold it at different times.
# The kept buffers live through a call. The decimal search's and the
# layout's temporaries live one phase each, so the two phases share the
# workspace's scratch storage, as does the CSV table after them.
_KEPT = {
    "x": ((None,), "f8"),  # the lanes' values
    "cells": ((CELL_WORDS, None), "u8"),  # word by word
    "special": ((None,), "?"),  # zeros, subnormals, infinities and NaNs
    "f": ((None,), "u8"),  # the decimal f 10^e
    "e": ((None,), "i8"),
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
    **dict.fromkeys(("on", "scale", "hi", "first", "lead", "lead0"), ((None,), "u8")),
    **dict.fromkeys(("size", "digits", "decpt", "pos", "point", "last"), ((None,), "i8")),
    "g": ((None,), "f8"),
    "exp2": ((None,), "i4"),
    **dict.fromkeys(("words", "quot", "d"), ((2, None), "u8")),
    "wf": ((2, None), "f8"),
    "exp2s": ((2, None), "i4"),
    "used": ((2, None), "i8"),
    "index": ((4, None), "p"),
    "keep": ((4, None), "u8"),
    **dict.fromkeys(("positional", "lead_before", "lane"), ((None,), "?")),
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
        c_min=u(_C_MIN), bq_mask=u(0x7FF),
        hundreds=u(0x0000007F0000007F), tens=u(0x000F000F000F000F),
        zero=u(ord("0")), zeros=u(0x3030303030303030), minus=u(ord("-")),
        point=u(_word(b".", 7)),
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
        # exponent[x - _E_MIN]: "e", the sign, two or three digits, up to
        # byte 6
        exponent=np.array(
            [_word(b"e%+03d" % x, 3 - (abs(x) > 99)) for x in range(_E_MIN, -_E_MIN)],
            dtype=np.uint64,
        ),
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
    """The ``repr`` of each value ``t.x``, into ``t.cells`` word by word:
    row ``w`` holds word ``w`` of every lane, and a lane's unused bytes are
    0, its last byte left free for a separator."""
    k = _consts()
    bits = t.x.view(np.uint64)
    q, special = t.q, t.special
    np.right_shift(bits, k.u52, out=q.view(np.uint64))
    np.bitwise_and(q.view(np.uint64), k.bq_mask, out=q.view(np.uint64))
    np.equal(q, 0, out=special)
    special |= np.equal(q, 0x7FF, out=t.flag)
    q -= 1075
    f, e = _to_decimal(t, bits, q)
    # the decimal search's buffers are free from here on
    lane = t.lane
    on = t.on  # 0 or 1 per lane, as uint64 and, in on_i, as int64
    on_i = on.view(np.int64)
    np.copyto(on, np.logical_not(special, out=lane))
    f *= on  # a zero, or a lane repr writes below
    e *= on_i

    # the significand, left-aligned on 17 digits: the first, then two words.
    # f < 2^E with E frexp's exponent of float(f), so f has t or t + 1
    # digits, t = floor(E log10 2) = E * 1233 >> 12 for E <= 64: one
    # comparison with 10^t settles it
    scale, size = t.scale, t.size
    np.copyto(t.g, f)
    np.frexp(t.g, out=(t.g, t.exp2))
    t.exp2 *= 1233
    t.exp2 >>= 12
    np.copyto(size, t.exp2)
    np.take(k.pow10, size, out=scale, mode="clip")
    np.copyto(on, np.greater_equal(f, scale, out=lane))
    size += on_i
    np.maximum(size, 1, out=size)  # a zero has one digit
    decpt = np.add(e, size, out=t.decpt)  # the point's place after the first digit
    f *= np.take(k.pow10, np.subtract(17, size, out=size), out=scale, mode="clip")
    hi = np.floor_divide(f, k.e8, out=t.hi)
    words = t.words
    np.subtract(f, np.multiply(hi, k.e8, out=scale), out=words[1])
    first = np.floor_divide(hi, k.e8, out=t.first)
    np.subtract(hi, np.multiply(first, k.e8, out=scale), out=words[0])
    _eight_digits(t, words)
    # each word's bytes up to its last nonzero digit, then the digits shown
    np.copyto(t.wf, words)
    np.frexp(t.wf, out=(t.wf, t.exp2s))
    used = t.used
    np.copyto(used, t.exp2s)
    used += 7
    used >>= 3
    digits = np.add(used[1], 9, out=t.digits)
    np.copyto(on, np.greater(used[1], 0, out=lane))
    digits *= on_i
    np.copyto(on, np.greater(used[0], 0, out=lane))
    used[0] += on_i
    np.maximum(digits, used[0], out=digits)
    np.copyto(on, np.greater(first, k.u0, out=lane))
    np.maximum(digits, on_i, out=digits)
    words += k.zeros
    first += k.zero

    # repr's 'r' rules: positional for decpt in [-3, 16], else d.ddde+XX;
    # the digits before the point are [0, point), those after [point, last)
    positional = np.greater(decpt, -4, out=t.positional)
    positional &= np.less_equal(decpt, 16, out=lane)
    pos = t.pos  # positional as 0 or 1
    np.copyto(pos, positional)
    point = np.subtract(decpt, 1, out=t.point)  # decpt if positional, else 1
    point *= pos
    point += 1
    last = np.add(point, 1, out=t.last)  # max(digits, point + 1) if positional
    last *= pos
    np.maximum(last, digits, out=last)
    index = t.index
    np.add(point, _KEEP_AT - 1, out=index[0])
    np.add(point, _KEEP_AT - 9, out=index[1])
    np.add(last, _KEEP_AT - 1, out=index[2])
    np.add(last, _KEEP_AT - 9, out=index[3])
    keep = np.take(k.keep, index, out=t.keep, mode="clip")
    before = keep[:2]
    after = keep[2:]
    after ^= before  # after & ~before: last >= point, so after covers before
    lead_before = np.greater(point, 0, out=t.lead_before)
    np.copyto(on, lead_before)
    lead = np.left_shift(first, k.u56, out=t.lead)
    lead_at_0 = np.multiply(lead, on, out=t.lead0)  # the first digit before the point
    lead -= lead_at_0  # or after it

    cells = t.cells
    np.take(k.prefix, np.subtract(_PREFIX_AT + 2, point, out=index[0]), out=scale, mode="clip")
    scale |= lead_at_0
    np.multiply(np.right_shift(bits, k.u63, out=hi), k.minus, out=hi)
    np.bitwise_or(scale, hi, out=cells[0])
    np.bitwise_and(words, before, out=cells[1:3])
    np.copyto(scale, np.logical_and(lead_before, np.greater(last, point, out=lane), out=lane))
    scale *= k.point
    np.bitwise_or(scale, lead, out=cells[3])
    np.bitwise_and(words, after, out=cells[4:6])
    np.take(k.exponent, np.subtract(decpt, 1 + _E_MIN, out=index[0]), out=scale, mode="clip")
    np.copyto(on, np.logical_not(positional, out=lane))
    np.multiply(scale, on, out=cells[6])

    # subnormals, infinities and NaNs
    special &= np.not_equal(np.bitwise_and(bits, k.m63, out=scale), k.u0, out=lane)
    if special.any():
        for i in np.flatnonzero(special).tolist():
            text = repr(float(t.x[i])).encode().ljust(8 * CELL_WORDS, b"\0")
            cells[:, i] = np.frombuffer(text, dtype=_WORD)
    return cells


def _extent(spec: dict, n: int) -> int:
    """The bytes :func:`_carve` lays ``spec``'s buffers of ``n`` lanes in."""
    stride = -(-n // 8) * 8  # every buffer starts 8-byte aligned
    return sum(math.prod(stride if d is None else d for d in dims) * np.dtype(dtype).itemsize
               for dims, dtype in spec.values())


def _carve(store, spec: dict, n: int) -> dict:
    """Views of ``n`` lanes for each of ``spec``'s buffers, end to end in
    the uint8 array ``store``."""
    stride = -(-n // 8) * 8
    views, at = {}, 0
    for names, (dims, dtype) in spec.items():
        dtype = np.dtype(dtype)
        shape = tuple(n if d is None else d for d in dims)
        view = store[at : at + math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)
        views.update(dict.fromkeys(names if isinstance(names, tuple) else (names,), view))
        at += math.prod(stride if d is None else d for d in dims) * dtype.itemsize
    return views


class Workspace:
    """The arrays the kernel writes for batches of up to ``rows`` rows of
    ``floats`` float columns, all made here, once.

    A run that formats its rows batch by batch makes one and calls
    :meth:`csv_rows` on it for each batch, so nothing of it outlives the
    run. It serves one call at a time.
    """

    def __init__(self, rows: int, floats: int) -> None:
        self.rows, self.floats = rows, floats
        n = (1 + floats) * rows  # the lanes: the row numbers, then each float column
        kept = np.empty(_extent(_KEPT, n), dtype=np.uint8)
        self._scratch = np.empty(max(_extent(_SEARCH, n), _extent(_LAYOUT, n)), dtype=np.uint8)
        self._t = SimpleNamespace(
            **_carve(kept, _KEPT, n), **_carve(self._scratch, _SEARCH, n),
            **_carve(self._scratch, _LAYOUT, n),
        )
        self._x = self._t.x.reshape(1 + floats, rows)
        self._count = np.arange(rows, dtype=np.float64)  # 0, 1, 2, ... for the row numbers

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
        Raises ``ValueError`` for a row number at or past 2^53, which a
        float64 lane no longer holds exactly, and for a batch that does
        not fit: more rows, another number of float columns, or text
        columns too wide for the scratch."""
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
        x = self._x
        x[:, rows:] = 0.0
        np.add(self._count[:rows], first, out=x[0, :rows])
        for lanes, col in zip(x[1:], floats):
            np.copyto(lanes[:rows], col)
        cells = _float_cells(self._t).reshape(CELL_WORDS, len(x), self.rows)
        cells = iter(cells[:, :, :rows].transpose(1, 2, 0))

        parts, at = [next(cells)], size  # the row numbers, then each column's cells
        for col in columns:
            if isinstance(col, tuple):
                texts, which = col
                gathered = self._scratch[at : at + 8 * rows * texts.shape[1]]
                at += len(gathered)
                parts.append(np.take(texts, which, axis=0, mode="clip",
                                     out=gathered.view(_WORD).reshape(rows, texts.shape[1])))
            else:
                parts.append(next(cells))
        table = self._scratch[:size].view(_WORD).reshape(rows, ends[-1])
        for part, lo, hi in zip(parts, ends, ends[1:]):
            table[:, lo:hi] = part
        table[:, 3:6] = 0  # a row number's point and fraction: 7.0 is written 7

        text = table.view(np.uint8)
        text[:, np.multiply(ends[1:-1], 8) - 1] = ord(",")
        text[:, -1] = ord("\n")
        text = text.reshape(-1)
        mask = np.not_equal(text, 0, out=self._scratch[size : 2 * size].view(np.bool_))
        return str(text[mask], "ascii")


def text_cells(texts: Sequence[str]):
    """Each of ``texts`` as the bytes of a row of uint64 words, zero-padded,
    with the row's last byte left free for a separator."""
    raw = [t.encode("ascii") for t in texts]
    size = 8 * (max(map(len, raw), default=0) // 8 + 1)
    cells = b"".join(t.ljust(size, b"\0") for t in raw)
    return np.frombuffer(cells, dtype=_WORD).reshape(len(raw), size // 8)
