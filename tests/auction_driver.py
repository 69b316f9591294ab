"""Randomized driver for the auction state machine.

Shared by the unit tests and the acceptance suite: generates a mixed stream
of valid and invalid actions, applies them, and checks the safety invariants
after every single step (exact conservation, fee cap, deposit multiples,
action-time coverage, lock-in of the manager identity). Streams with
multi-block jumps exercise the bulk advance between auction events.
"""

import random
from fractions import Fraction

from ammauction.auction import AuctionParams, AuctionRejection, AuctionState

K_DELAY = 5
FEE_CAP = 0.05
TOTAL_SHARES = Fraction(2)

BIDDERS = [f"bidder{i}" for i in range(6)]
LPS = ["lp1", "lp2", "lp3"]


def make_state() -> AuctionState:
    return AuctionState(
        AuctionParams(k_delay=K_DELAY, fee_cap=FEE_CAP, min_increment_factor=1.10)
    )


def random_events(rng: random.Random, n: int) -> list[dict]:
    events = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.34:
            events.append({"op": "advance"})
        elif roll < 0.56:
            rent = rng.choice([1, 2, 3, 5, 10, 20, 50, 100])
            events.append(
                {
                    "op": "submit",
                    "bidder": rng.choice(BIDDERS),
                    "rent": rent,
                    "deposit": rent * rng.randint(1, 3 * K_DELAY),
                }
            )
        elif roll < 0.72:
            events.append(
                {
                    "op": "reduce",
                    "bidder": rng.choice(BIDDERS),
                    "amount": rng.choice([1, 2, 5, 10, 20, 50, 100, 250]),
                }
            )
        elif roll < 0.78:
            events.append(
                {
                    "op": "top_up",
                    "bidder": rng.choice(BIDDERS),
                    "amount": rng.choice([1, 5, 10, 30]),
                }
            )
        elif roll < 0.86:
            events.append(
                {
                    "op": "set_fee",
                    "bidder": rng.choice(BIDDERS),
                    "fee": rng.choice([0.0, 0.003, 0.01, FEE_CAP, FEE_CAP + 0.01, -0.01]),
                }
            )
        elif roll < 0.94:
            events.append(
                {"op": "register_lp", "lp": rng.choice(LPS), "shares": rng.randint(0, 3)}
            )
        else:
            events.append({"op": "claim", "lp": rng.choice(LPS + ["ghost"])})
    return events


def check_safety(state: AuctionState) -> None:
    assert state.conservation_gap() == 0, "deposit conservation broken"
    assert 0.0 <= state.effective_fee <= FEE_CAP, "effective fee outside the cap"
    assert state._lp_shares == sum(
        (a.shares for a in state._lps.values()), Fraction(0)
    ), "running share total drifted"
    for bid in state.live_bids():
        assert bid.deposit >= 0
        assert (bid.deposit / bid.rent).denominator == 1, "deposit not a rent multiple"
    if state.next is not None and state.top is not None:
        assert state.next.rent < state.top.rent, "runner-up outranks the manager"


def random_jump_events(rng: random.Random, n: int) -> list[dict]:
    """:func:`random_events` with long runways and multi-block jumps.

    Deposits cover up to a few thousand blocks and half of the single-block
    advances become jumps of up to 3,000 blocks, so jumps cross
    activations, usurps and depletions.
    """
    events = []
    for ev in random_events(rng, n):
        if ev["op"] == "submit":
            ev["deposit"] = ev["rent"] * rng.randint(K_DELAY, 3_000)
        elif ev["op"] == "advance" and rng.random() < 0.5:
            ev = {"op": "jump", "blocks": rng.choice([2, K_DELAY, 40, 400, 3_000])}
        events.append(ev)
    return events


def many_lp_scenario(n_lps: int = 2_000, n_bids: int = 100) -> list[dict]:
    """Scenario lines with ``n_lps`` registered LPs and ``n_bids`` rising bids.

    A new bid is submitted every 10 blocks and usurps the manager, which
    waits as runner-up until a newer bid replaces it; every other bid's
    deposit runs out after 8 blocks and hands the seat back to the runner-up,
    and the seat is vacant after the last depletion. Between bids one LP
    leaves, one joins and one claims, so the registered share total keeps
    changing while rent streams to it.
    """
    lines: list[dict] = [{"k_delay": K_DELAY, "fee_cap": FEE_CAP}]
    lines += [
        {"block": 0, "action": "register_lp", "lp": f"lp{i}", "shares": 1 + i % 7}
        for i in range(n_lps)
    ]
    rent = 10
    for i in range(n_bids):
        block = 1 + 10 * i
        runway = 8 if i % 2 else 30
        lines += [
            {"block": block, "action": "submit_bid", "bidder": f"b{i}", "rent": rent,
             "deposit": rent * runway},
            {"block": block + 2, "action": "register_lp", "lp": f"lp{i}", "shares": 0},
            {"block": block + 2, "action": "register_lp", "lp": f"lp{n_lps + i}",
             "shares": 1 + i % 5},
            {"block": block + 3, "action": "claim_rent", "lp": f"lp{2 * i}"},
        ]
        rent = -(-rent * 11 // 10) + 1
    lines.append({"block": 10 * n_bids + 40, "action": "advance"})
    return lines


def jump(state: AuctionState, blocks: int, shares=TOTAL_SHARES) -> None:
    """Advance ``blocks`` blocks: rent-only stretches in bulk, events one by one."""
    for _ in state.advance_to(state.current_block + blocks, shares):
        pass


def apply_event(
    state: AuctionState, ev: dict, single_step: bool = False, shares=TOTAL_SHARES
) -> None:
    """Apply one generated action; the rules' rejections are absorbed.

    A ``jump`` advances in bulk via :func:`jump`, or block by block with
    ``single_step``. Blocks advance with ``lp_total_shares=shares``; ``None``
    pays rent to the registered shares, or to one synthetic share.
    """
    op = ev["op"]
    try:
        if op == "advance":
            state.advance_block(shares)
        elif op == "jump":
            if single_step:
                for _ in range(ev["blocks"]):
                    state.advance_block(shares)
            else:
                jump(state, ev["blocks"], shares)
        elif op == "submit":
            state.submit_bid(ev["bidder"], ev["rent"], ev["deposit"])
        elif op == "reduce":
            _, slot = state._find_bid(ev["bidder"])
            state.reduce_deposit(ev["bidder"], ev["amount"])
            # action-time coverage: an accepted reduction of the runner-up
            # must leave the combined runway at K whenever the top cannot
            # cover K alone (rent decay alone may sink the combined runway,
            # which is why this binds on the action, not the state)
            if (
                slot == "next"
                and state.top is not None
                and state.next is not None
                and state.top.runway() < K_DELAY
            ):
                assert state.top.runway() + state.next.runway() >= K_DELAY
        elif op == "top_up":
            state.top_up_deposit(ev["bidder"], ev["amount"])
        elif op == "set_fee":
            state.set_fee(ev["bidder"], ev["fee"])
        elif op == "register_lp":
            state.register_lp(ev["lp"], ev["shares"])
        elif op == "claim":
            state.claim_rent(ev["lp"])
        else:  # pragma: no cover - generator bug
            raise AssertionError(f"unknown op {op!r}")
    except AuctionRejection:
        pass


def apply_events(events, collect_managers: bool = False):
    """Apply an event stream, asserting invariants after every step.

    Returns ``(state, manager_log)``; the log holds one
    ``(block, bidder, submitted_at)`` entry per advanced block (``bidder`` is
    None while unmanaged) when ``collect_managers`` is set.
    """
    state = make_state()
    manager_log = []
    for ev in events:
        apply_event(state, ev)
        if collect_managers and ev["op"] == "advance":
            top = state.top
            manager_log.append(
                (state.current_block, None, None)
                if top is None
                else (state.current_block, top.bidder, top.submitted_at)
            )
        check_safety(state)
    return state, manager_log


def check_lock_in(manager_log) -> None:
    """Every seated manager's bid predates its reign by at least K blocks."""
    for block, bidder, submitted_at in manager_log:
        if bidder is not None:
            assert submitted_at <= block - K_DELAY, (
                f"manager {bidder} at block {block} was submitted at {submitted_at}"
            )
