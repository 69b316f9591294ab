"""Scenario input that costs bounded work and never leaves a part-written
trace.

Random scenario files go through ``ammauction replay``: it exits 0 or 2,
never with a traceback, each within a second, and a trace it writes parses
to rows as wide as its header. Field values are drawn as raw JSON text:
integers past Python's 4,300-digit conversion limit, decimals with
exponents up to 10^9, NaN and infinities, booleans, nulls, strings with
control characters (escaped and raw) and lone surrogates, and values of the
wrong kind for their field. Fixed cases pin the line each refusal names.
"""

import csv
import json
import random
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ammauction.auction import AuctionParams, AuctionState
from ammauction.cli import main
from ammauction.replay import (
    _REPLAY_ACTIONS,
    TRACE_HEADER,
    ReplayParseError,
    _check_totals,
    _digit_bound,
    replay_auction,
)

NUMBERS = st.one_of(
    st.integers(-10, 10**7).map(str),
    st.integers(1, 5_000).map(lambda digits: "9" * digits),
    st.builds("{}e{}".format, st.integers(1, 10**6), st.integers(-(10**9), 10**9)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0.0", "0"]),
)
# mostly amounts a bid can be placed with, so that actions reach the auction
AMOUNTS = st.one_of(
    st.sampled_from(["1", "2", "10", "100", "0.5", "1e2", '"10"', '"1.5e1"']),
    NUMBERS,
    NUMBERS.map(json.dumps),  # an amount as a decimal string
)
# mostly a few names, so that bidders and LPs act more than once; one in four
# any text, control characters and lone surrogates included
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
NAMES = st.integers(0, 3).flatmap(
    lambda i: ANY_TEXT if i == 0 else st.sampled_from(["a", "b", "lp1"])
)
VALUES = st.one_of(
    AMOUNTS,
    NAMES.map(json.dumps),
    st.text(st.characters(max_codepoint=0x7F), max_size=4).map('"{}"'.format),  # raw
    st.sampled_from(["true", "false", "null", "[]", "{}"]),
)


def json_line(fields: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


@st.composite
def scenarios(draw) -> str:
    """A header and up to six actions, each with its own fields, some of
    them of the wrong kind, missing or extra."""
    header = {"k_delay": str(draw(st.integers(1, 4))), "fee_cap": "0.05"}
    if draw(st.integers(0, 3)) == 0:
        header["lp_total_shares"] = draw(VALUES)
    lines = [json_line(header)]
    block = 0
    for _ in range(draw(st.integers(0, 6))):
        block += draw(st.sampled_from([0, 1, 3, 10**3, 10**9]))
        action = draw(st.sampled_from(list(_REPLAY_ACTIONS)))
        fields = {"action": json.dumps(action), "block": str(block)}
        for key in _REPLAY_ACTIONS[action][1]:
            name = key in ("bidder", "lp")
            fields[key] = json.dumps(draw(NAMES)) if name else draw(AMOUNTS)
        if draw(st.integers(0, 9)) == 0:
            fields[draw(st.sampled_from([*fields, "extra"]))] = draw(VALUES)
        if draw(st.integers(0, 19)) == 0:
            del fields[draw(st.sampled_from(sorted(fields)))]
        lines.append(json_line(fields))
    return "\n".join(lines) + "\n"


def trace_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# manifest ")
        return list(csv.reader(fh))


@settings(
    max_examples=100,
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_replay_exits_0_or_2_and_writes_whole_rows(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.jsonl"
        scenario.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["replay", str(scenario), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            header, *rows = trace_rows(out / "trace.csv")
            assert header == list(TRACE_HEADER)
            assert all(len(row) == len(header) for row in rows)
        else:  # refused before any output
            assert not out.exists()


HEADER = '{"k_delay": 2, "fee_cap": 0.05}\n'
BID = '{"block": 1, "action": "submit_bid", "bidder": "a", "rent": 1, "deposit": 10}\n'


def write(tmp_path, text: str) -> Path:
    path = tmp_path / "scenario.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


class TestBoundedInput:
    @pytest.mark.parametrize("amount", ['"1e1000000"', '"1e999999999"', '"1e401"', '"1e-401"',
                                        '"' + "1" * 101 + '"', "1" + "0" * 100])
    def test_amount_out_of_range_is_a_rejected_row(self, tmp_path, amount):
        path = write(tmp_path, HEADER + BID + '{"block": 2, "action": "top_up", "bidder": "a", '
                     f'"amount": {amount}}}\n')
        begin = time.perf_counter()
        trace = replay_auction(str(path))
        assert time.perf_counter() - begin < 0.5
        assert trace.rows[-1].status == "rejected:invalid-amount"
        assert "out of range" in trace.rows[-1].detail

    def test_amounts_at_the_bounds_are_taken(self, tmp_path):
        # 100 significant digits; exponents of +400 and -400
        lines = [HEADER, BID]
        for amount in ("9" * 100, '"1e400"', '"1e-400"', '"' + "1" * 100 + 'e-300"'):
            lines.append(f'{{"block": 2, "action": "register_lp", "lp": "p", "shares": {amount}}}\n')
        trace = replay_auction(str(write(tmp_path, "".join(lines))))
        assert [row.status for row in trace.rows[-4:]] == ["ok"] * 4

    def test_header_shares_out_of_range_names_the_line(self, tmp_path):
        path = write(tmp_path, '\n{"k_delay": 2, "fee_cap": 0.05, "lp_total_shares": "1e1000000"}\n')
        with pytest.raises(ReplayParseError, match="line 2: invalid-amount: lp_total_shares is out"):
            replay_auction(str(path))

    def test_integer_past_the_digit_limit_names_the_line(self, tmp_path, capsys):
        path = write(tmp_path, HEADER + '{"block": 1, "action": "top_up", "bidder": "a", '
                     f'"amount": {"9" * 5_000}}}\n')
        with pytest.raises(ReplayParseError, match="line 2: unreadable number"):
            replay_auction(str(path))
        assert main(["replay", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: unreadable number")
        assert not (tmp_path / "out").exists()

    def test_text_that_is_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        # lines counted as the parser counts them: CR LF is one line break
        path = tmp_path / "scenario.jsonl"
        path.write_bytes(HEADER.encode().replace(b"\n", b"\r\n") + b"\n"
                         + b'{"block": 1, "action": "advance", "bidder": "\xff"}\n')
        assert main(["replay", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: not UTF-8 (byte 0xff: invalid start byte)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["bidder", "amount"])
    def test_lone_surrogate_refused_before_any_output(self, tmp_path, capsys, field):
        fields = {"block": 1, "action": "top_up", "bidder": "a", "amount": "1", field: "x\ud800"}
        path = write(tmp_path, HEADER + json.dumps(fields) + "\n")
        assert main(["replay", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {field} must not contain a lone surrogate")
        assert not (tmp_path / "out").exists()

    def test_running_totals_past_the_digit_limit_name_the_line(self, tmp_path, capsys):
        # one manager and 60 LPs whose 99-digit share totals all differ:
        # every stretch adds rent / shares with a new denominator to
        # rent_per_share, which final_state.json prints in full
        rng = random.Random(7)
        lines = [HEADER, BID.replace('"deposit": 10', '"deposit": 1000')]
        for i in range(60):
            shares = rng.randrange(10**98, 10**99)
            lines.append(json.dumps({"block": 4 + i, "action": "register_lp", "lp": f"lp{i}",
                                     "shares": shares}) + "\n")
        path = write(tmp_path, "".join(lines))
        with pytest.raises(ReplayParseError, match="line 47: rent_per_share would exceed 4300"):
            replay_auction(str(path))
        assert main(["replay", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: line 47: rent_per_share")
        assert not (tmp_path / "out").exists()

    def test_running_totals_are_bounded_by_bit_length(self, monkeypatch):
        # at the smallest limit Python allows, 640 digits
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        bound = _digit_bound()
        auction = AuctionState(AuctionParams(k_delay=2, fee_cap=0.05))
        auction.rent_per_share = Fraction(10**639, 3)
        _check_totals(auction, 7, bound)
        auction.claims_paid = Fraction(1, 10**640)
        with pytest.raises(ReplayParseError, match="line 7: claims_paid would exceed 640 digits"):
            _check_totals(auction, 7, bound)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        _check_totals(auction, 7, _digit_bound())
