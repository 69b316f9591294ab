"""Replay of a line-delimited JSON auction scenario into an event trace.

The scenario drives the Harberger-lease auction alone, with no pool, no
market and no random draws, and its rent and deposit arithmetic stays exact
``Fraction`` arithmetic: this module needs the standard library and
:mod:`.auction` only.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .auction import AuctionParams, AuctionRejection, AuctionState, _to_fraction
from .auction import _decode_utf8, read_json_object

__all__ = ["ReplayParseError", "ReplayTrace", "TRACE_HEADER", "TraceRow", "replay_auction"]


class ReplayParseError(ValueError):
    """A scenario file line could not be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Each scenario action: the name of the AuctionState method it calls and the
# fields it passes, in order. "advance" calls nothing: the clock already
# stands at its block.
_REPLAY_ACTIONS = {
    "submit_bid": ("submit_bid", ("bidder", "rent", "deposit")),
    "reduce_deposit": ("reduce_deposit", ("bidder", "amount")),
    "top_up": ("top_up_deposit", ("bidder", "amount")),
    "set_fee": ("set_fee", ("bidder", "fee")),
    "register_lp": ("register_lp", ("lp", "shares")),
    "claim_rent": ("claim_rent", ("lp",)),
    "advance": (None, ()),
}


class TraceRow(NamedTuple):
    """One ``trace.csv`` row, its fields in the header's order; ``""`` is a
    blank field, and no field is ``None``."""

    line: int
    block: int
    origin: str  # scenario | auction
    action: str  # the scenario action, or the auction event's kind
    # bidder to shares: a scenario row echoes its line's values as given; an
    # event row fills bidder and amount (a string) only
    bidder: object  # the bidder, else the LP
    rent: object
    deposit: object
    fee: object
    amount: object
    shares: object
    status: str  # ok | rejected:<code> | event
    detail: str


TRACE_HEADER = TraceRow._fields


@dataclass(frozen=True)
class ReplayTrace:
    rows: tuple[TraceRow, ...]  # written to trace.csv as they are
    final_state_json: str
    scenario_sha256: str  # of the scenario file's bytes, as read for the replay


def _parse_scenario(
    scenario_path: str,
) -> tuple[AuctionParams, Fraction | None, list[tuple[int, dict]], str]:
    """The auction params, the ``lp_total_shares`` override and the
    ``(line number, action)`` pairs of a scenario file, all validated, and
    the sha256 of the bytes they were read from. The file is read once."""
    data = Path(scenario_path).read_bytes()
    lines = _decode_utf8(data, scenario_path).splitlines()

    header = None
    header_no = 0
    actions: list[tuple[int, dict]] = []
    block = 0
    for no, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReplayParseError(no, f"malformed JSON ({exc.msg})")
        except ValueError as exc:  # an integer past Python's digit limit
            raise ReplayParseError(no, f"unreadable number ({exc})")
        if not isinstance(obj, dict):
            raise ReplayParseError(no, "each line must be a JSON object")
        if header is None:
            try:
                read_json_object(obj, AuctionParams, "header (first line)",
                                 extra=("lp_total_shares",))
            except ValueError as exc:
                raise ReplayParseError(no, str(exc))
            header, header_no = obj, no
            continue
        action = obj.get("action")
        if not isinstance(action, str) or action not in _REPLAY_ACTIONS:
            raise ReplayParseError(no, f"unknown action {action!r}")
        if not isinstance(obj.get("block"), int) or isinstance(obj["block"], bool):
            raise ReplayParseError(no, "missing integer 'block'")
        if obj["block"] < block:
            raise ReplayParseError(no, f"block {obj['block']} precedes current block {block}")
        block = obj["block"]
        _check_fields(obj, no)
        actions.append((no, obj))

    if header is None:
        raise ReplayParseError(1, "empty scenario: missing header line")

    shares = header.pop("lp_total_shares", None)
    try:
        params = AuctionParams(**header)
        # floats once checked, as final_state.json and rejection details print them
        params = replace(params, fee_cap=float(params.fee_cap),
                         min_increment_factor=float(params.min_increment_factor),
                         default_fee=float(params.default_fee))
    except ValueError as exc:
        raise ReplayParseError(header_no, f"bad auction params: {exc}")
    if shares is not None:
        try:
            shares = _to_fraction(shares, "lp_total_shares")
        except AuctionRejection as exc:
            raise ReplayParseError(header_no, str(exc))
        if shares <= 0:
            raise ReplayParseError(header_no, f"lp_total_shares must be positive, got {shares}")
    return params, shares, actions, hashlib.sha256(data).hexdigest()


# scenario fields the trace echoes as given, and the characters none may hold:
# csv.writer leaves a bare carriage return unquoted, which splits its row, and
# a lone surrogate (a JSON escape such as "\ud800") has no UTF-8 form, so
# the trace would stop part-written
_ECHOED_FIELDS = ("bidder", "lp", "rent", "deposit", "fee", "amount", "shares")
_UNECHOABLE = re.compile(r"[\x00-\x1f\x7f\ud800-\udfff]")  # one scan of each string
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f]")  # only to word the error


def _check_fields(obj: dict, line_no: int) -> None:
    """Refuse an action that lacks one of its fields, has one of the wrong
    type, or would echo a control character or a lone surrogate into the
    trace."""
    _, keys = _REPLAY_ACTIONS[obj["action"]]
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ReplayParseError(line_no, f"action {obj['action']!r} needs {missing}")
    # the auction parses amounts and shares itself; a NaN fee reaches it too
    for key in keys:
        value = obj[key]
        if key in ("bidder", "lp") and not isinstance(value, str):
            raise ReplayParseError(line_no, f"{key} must be a string, got {value!r}")
        if key == "fee" and (not isinstance(value, (int, float)) or isinstance(value, bool)):
            raise ReplayParseError(line_no, f"fee must be a number, got {value!r}")
    for key in _ECHOED_FIELDS:
        value = obj.get(key)
        if not isinstance(value, str) or not _UNECHOABLE.search(value):
            continue
        if _CONTROL_CHAR.search(value):
            raise ReplayParseError(
                line_no, f"{key} must not contain control characters, got {value!r}"
            )
        raise ReplayParseError(line_no, f"{key} must not contain a lone surrogate, got {value!r}")


def _digit_bound() -> tuple[int, float]:
    """Python's digit limit for integer strings, and the bit length past
    which a total may outgrow it: infinite when there is no limit."""
    limit = sys.get_int_max_str_digits()
    # a b-bit integer has < b log10(2) + 1 digits
    return limit, (int(limit * math.log2(10)) if limit else math.inf)


def _check_totals(auction: AuctionState, line_no: int, bound: tuple[int, float]) -> None:
    """Refuse the line after which an exact running total has more digits
    than Python converts to a string, as ``final_state.json`` must. Bit
    lengths (against ``bound``, from :func:`_digit_bound`) bound the digits
    without building a string, so a total of exactly the limit's digits may
    be refused too."""
    limit, max_bits = bound
    for name in ("rent_per_share", "claims_paid"):
        total = getattr(auction, name)
        if max(total.numerator.bit_length(), total.denominator.bit_length()) > max_bits:
            raise ReplayParseError(line_no, f"{name} would exceed {limit} digits")


def _apply_action(
    auction: AuctionState, line_no: int, obj: dict, bound: tuple[int, float]
) -> TraceRow:
    """Apply one scenario action at the current block; its trace row.
    ``bound`` is :func:`_digit_bound`'s, taken once per replay."""
    action = obj["action"]
    method, keys = _REPLAY_ACTIONS[action]
    status, detail = "ok", ""
    try:
        if method is not None:
            result = getattr(auction, method)(*(obj[k] for k in keys))
    except AuctionRejection as exc:
        status, detail = f"rejected:{exc.code}", str(exc)
    # the totals hold the rent streamed up to this line's block, and a claim
    # is in claims_paid before its amount is printed
    _check_totals(auction, line_no, bound)
    if action == "claim_rent" and status == "ok":
        detail = str(result)
    get = obj.get
    bidder, rent, deposit = get("bidder", get("lp")), get("rent"), get("deposit")
    fee, amount, shares = get("fee"), get("amount"), get("shares")
    return TraceRow(
        line_no,
        obj["block"],
        "scenario",
        action,
        "" if bidder is None else bidder,
        "" if rent is None else rent,
        "" if deposit is None else deposit,
        "" if fee is None else fee,
        "" if amount is None else amount,
        "" if shares is None else shares,
        status,
        detail,
    )


def replay_auction(scenario_path: str) -> ReplayTrace:
    """Replay a line-delimited JSON auction scenario into an event trace.

    The first line configures the auction (``k_delay``, ``fee_cap``,
    optionally ``min_increment_factor``, ``default_fee``,
    ``lp_total_shares``). Every following line is an action at a block height:
    invalid actions are recorded in the trace with their rejection code
    rather than aborting the replay; malformed lines, and a line after which
    ``rent_per_share`` or ``claims_paid`` outgrows Python's digit limit for
    integer strings, raise :class:`ReplayParseError` with the line number.

    The clock jumps to each action's block through
    :meth:`AuctionState.advance_to`, so the cost grows with the number of
    auction events, not with block heights, and a step costs the same
    whatever the number of registered LPs. Each rent-only stretch leaves one
    ``rent`` row: its last block, payer and total, its span in ``detail`` as
    ``first-last``; an event block's rent row spans that one block.

    The trace's rows are :class:`TraceRow` tuples, each built once in
    ``TRACE_HEADER`` order with ``""`` for a blank field, so ``trace.csv``
    writes them as they are.
    """
    params, shares, actions, digest = _parse_scenario(scenario_path)
    auction = AuctionState(params)
    bound = _digit_bound()
    rows: list[TraceRow] = []
    for line_no, obj in actions:
        for blocks, events in auction.advance_to(obj["block"], shares):
            first = auction.current_block - blocks + 1
            rows.extend(
                TraceRow(
                    line_no,
                    block,
                    "auction",
                    kind,
                    "" if bidder is None else bidder,
                    "",
                    "",
                    "",
                    "" if amount is None else str(amount),
                    "",
                    "event",
                    f"{first}-{block}" if kind == "rent" else ("" if reason is None else reason),
                )
                for block, kind, bidder, amount, reason in events
            )
        rows.append(_apply_action(auction, line_no, obj, bound))
    return ReplayTrace(
        rows=tuple(rows), final_state_json=auction.to_json(), scenario_sha256=digest
    )
