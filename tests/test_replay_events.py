"""The event-driven replay against the single-step reference.

Random action streams with long jumps (``auction_driver.random_jump_events``)
are written as scenario files and replayed both ways. The end state must be
byte-identical and every row other than ``rent`` equal, in the same order.
The replay writes one ``rent`` row per rent-only stretch where the reference
writes one per block, so rent rows are compared span by span: each span
covers exactly the reference's rent rows of those blocks, with the same
payer and scenario line, and carries their exact total.
"""

import json
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from ammauction.auction import AuctionState
from ammauction.replay import TRACE_HEADER, ReplayParseError, TraceRow, replay_auction

from auction_driver import (
    FEE_CAP,
    K_DELAY,
    every_action_scenario,
    many_lp_scenario,
    random_jump_events,
)
from replay_reference import reference_replay

DATA = pathlib.Path(__file__).parent / "data"

HEADERS = {
    "registered_shares": {"k_delay": K_DELAY, "fee_cap": FEE_CAP},
    "fixed_shares": {
        "k_delay": K_DELAY,
        "fee_cap": FEE_CAP,
        "default_fee": 0.01,
        "lp_total_shares": "1.5",
    },
}

# generator op -> scenario action and the keys it carries
_ACTIONS = {
    "submit": ("submit_bid", ("bidder", "rent", "deposit")),
    "reduce": ("reduce_deposit", ("bidder", "amount")),
    "top_up": ("top_up", ("bidder", "amount")),
    "set_fee": ("set_fee", ("bidder", "fee")),
    "register_lp": ("register_lp", ("lp", "shares")),
    "claim": ("claim_rent", ("lp",)),
}


def write_scenario(path: pathlib.Path, header: dict, events: list[dict]) -> None:
    """A generated stream as a scenario file: advances and jumps become
    ``advance`` lines at the block they reach; other actions happen at the
    block the clock stands on."""
    block = 0
    lines = [header]
    for ev in events:
        if ev["op"] in ("advance", "jump"):
            block += ev.get("blocks", 1)
            lines.append({"block": block, "action": "advance"})
        else:
            action, keys = _ACTIONS[ev["op"]]
            lines.append({"block": block, "action": action, **{k: ev[k] for k in keys}})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def is_rent(row: TraceRow) -> bool:
    return row.origin == "auction" and row.action == "rent"


def span(row: TraceRow) -> tuple[int, int]:
    first, last = map(int, row.detail.split("-"))
    return first, last


def rent_totals(rows) -> Counter:
    totals: Counter = Counter()
    for row in filter(is_rent, rows):
        totals[row.line, row.bidder] += Fraction(row.amount)
    return totals


def assert_equivalent(path: pathlib.Path):
    """Replay ``path`` both ways and compare; returns both traces."""
    fast, ref = replay_auction(str(path)), reference_replay(str(path))
    assert fast.final_state_json == ref.final_state_json
    assert [r for r in fast.rows if not is_rent(r)] == [r for r in ref.rows if not is_rent(r)]
    assert rent_totals(fast.rows) == rent_totals(ref.rows)

    ref_rent = {row.block: row for row in filter(is_rent, ref.rows)}
    blocks_paid: Counter = Counter()
    last_paid = 0
    for row in filter(is_rent, fast.rows):
        first, last = span(row)
        assert last == row.block and last_paid < first <= last  # ascending, disjoint
        last_paid = last
        covered = [ref_rent[b] for b in range(first, last + 1)]
        assert {(r.line, r.bidder) for r in covered} == {(row.line, row.bidder)}
        assert sum(Fraction(r.amount) for r in covered) == Fraction(row.amount)
        blocks_paid[row.bidder] += last - first + 1
    assert blocks_paid == Counter(r.bidder for r in ref_rent.values())
    return fast, ref


@pytest.mark.parametrize(
    "scenario", ["depletion.jsonl", "k_delay.jsonl", "every-action", "random-stream"]
)
def test_every_row_is_a_whole_trace_row(tmp_path, scenario):
    # csv.writer writes None as it writes "", so no pinned trace.csv can show
    # a None in a row: the rows themselves are checked, both replays' rows
    path = DATA / scenario
    if scenario == "every-action":
        path = tmp_path / "every_action.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in every_action_scenario()))
    elif scenario == "random-stream":
        path = tmp_path / "random.jsonl"
        write_scenario(path, HEADERS["fixed_shares"], random_jump_events(random.Random(5), 250))
    for trace in (replay_auction(str(path)), reference_replay(str(path))):
        assert len(trace.rows) > 10
        for row in trace.rows:
            assert type(row) is TraceRow and len(row) == len(TRACE_HEADER)
            assert all(value is not None for value in row), row


@pytest.mark.parametrize("header", sorted(HEADERS))
def test_random_streams_match_single_steps(tmp_path, header):
    statuses: Counter = Counter()
    coalesced = 0
    for seed in range(4):
        path = tmp_path / f"seed{seed}.jsonl"
        write_scenario(path, HEADERS[header], random_jump_events(random.Random(seed), 250))
        fast, ref = assert_equivalent(path)
        statuses.update(
            (r.action, r.status.split(":")[0]) for r in ref.rows if r.origin == "scenario"
        )
        coalesced += len(ref.rows) - len(fast.rows)
    # the streams reach rejections and fee requests that stay pending a block
    assert statuses["set_fee", "ok"] > 5 and statuses["set_fee", "rejected"] > 5
    assert statuses["submit_bid", "rejected"] > 5
    assert coalesced > 10_000  # and long rent stretches


def test_data_scenarios_match_single_steps():
    parsed = []
    for path in sorted(DATA.glob("*.jsonl")):
        try:
            reference_replay(str(path))
        except ReplayParseError as exc:
            with pytest.raises(ReplayParseError) as fast_exc:
                replay_auction(str(path))
            assert str(fast_exc.value) == str(exc)
            continue
        assert_equivalent(path)
        parsed.append(path.name)
    assert {"depletion.jsonl", "k_delay.jsonl"} <= set(parsed)


def test_jump_to_block_1e9_costs_events_not_blocks(tmp_path, monkeypatch):
    single_step = AuctionState.advance_block
    calls = Counter()

    def counted(self, *args, **kwargs):
        calls["advance_block"] += 1
        return single_step(self, *args, **kwargs)

    monkeypatch.setattr(AuctionState, "advance_block", counted)

    # alice's deposit covers 10^6 blocks; bob outbids her halfway through his
    # own 10^6-block deposit, she waits as runner-up and is promoted when he
    # depletes; after her depletion the pool is unmanaged up to block 10^9
    lines = [
        {"k_delay": 5, "fee_cap": 0.05, "lp_total_shares": 7},
        {"block": 1, "action": "register_lp", "lp": "lp1", "shares": 3},
        {"block": 1, "action": "submit_bid", "bidder": "alice", "rent": 3, "deposit": 3 * 10**6},
        {"block": 7, "action": "set_fee", "bidder": "alice", "fee": 0.01},
        {"block": 500_000, "action": "submit_bid", "bidder": "bob", "rent": 4,
         "deposit": 4 * 10**6},
        {"block": 10**9, "action": "claim_rent", "lp": "lp1"},
        {"block": 10**9, "action": "advance"},
    ]
    path = tmp_path / "far.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

    trace = replay_auction(str(path))
    state = json.loads(trace.final_state_json)

    assert calls["advance_block"] <= 30
    assert len(trace.rows) <= 30
    assert state["current_block"] == 10**9
    assert state["top"] is None and state["next"] is None

    distributed = Fraction(state["rent_distributed"])
    assert distributed == 3 * 10**6 + 4 * 10**6
    assert sum(Fraction(r.amount) for r in trace.rows if is_rent(r)) == distributed
    live = sum((Fraction(b["deposit"]) for b in state["pending"]), Fraction(0))
    assert Fraction(state["deposits_posted"]) == distributed + Fraction(state["refunds"]) + live

    blocks_paid: Counter = Counter()
    for row in filter(is_rent, trace.rows):
        first, last = span(row)
        blocks_paid[row.bidder] += last - first + 1
    assert blocks_paid == {"alice": 10**6, "bob": 10**6}
    claim = next(r for r in trace.rows if r.action == "claim_rent")
    assert Fraction(claim.detail) == distributed * Fraction(3, 7)


class _WalkCountingDict(dict):
    """An LP table that counts every walk over its entries."""

    walks = 0

    def _walk(self, name):
        type(self).walks += 1
        return getattr(super(), name)()

    def __iter__(self):
        return self._walk("__iter__")

    def keys(self):
        return self._walk("keys")

    def values(self):
        return self._walk("values")

    def items(self):
        return self._walk("items")


def test_rent_steps_cost_the_same_whatever_the_lp_count(tmp_path, monkeypatch):
    path = tmp_path / "many_lps.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in many_lp_scenario(2_000, 100)),
        encoding="utf-8",
    )
    fast, _ = assert_equivalent(path)
    state = json.loads(fast.final_state_json)
    assert len(state["lps"]) >= 2_000

    # replay again with an LP table that counts walks: rent streams to the
    # running share total, so only the final serialization walks the table
    init = AuctionState.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._lps = _WalkCountingDict()

    monkeypatch.setattr(AuctionState, "__init__", counting_init)
    monkeypatch.setattr(_WalkCountingDict, "walks", 0)
    trace = replay_auction(str(path))
    assert trace.final_state_json == fast.final_state_json
    assert sum(map(is_rent, trace.rows)) >= 100
    assert _WalkCountingDict.walks <= 1
