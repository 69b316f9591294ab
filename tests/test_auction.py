import copy
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ammauction.auction import (
    AuctionParams,
    AuctionRejection,
    AuctionState,
    Bid,
    _to_fraction,
)

import auction_driver
from auction_driver import (
    apply_event,
    apply_events,
    check_lock_in,
    check_safety,
    random_events,
    random_jump_events,
)


def make_state(k_delay=5, increment=1.10, fee_cap=0.05, default_fee=None):
    return AuctionState(
        AuctionParams(
            k_delay=k_delay,
            fee_cap=fee_cap,
            min_increment_factor=increment,
            default_fee=default_fee,
        )
    )


def seat_manager(state, bidder="mgr", rent=10, deposit=None):
    """Submit a bid and advance through activation so it manages the pool."""
    if deposit is None:
        deposit = rent * state.params.k_delay * 10
    state.submit_bid(bidder, rent, deposit)
    for _ in range(state.params.k_delay):
        state.advance_block(1)
    assert state.manager == bidder
    return state


@pytest.mark.parametrize("value", [True, math.nan, "0.05"])
@pytest.mark.parametrize("name", ["k_delay", "fee_cap", "min_increment_factor", "default_fee"])
def test_params_fields_checked_when_built(name, value):
    fields = {"k_delay": 5, "fee_cap": 0.05, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        AuctionParams(**fields)


class TestAmountBounds:
    """Amounts are checked before any Fraction is built: at most 100
    significant digits and an adjusted exponent within +-400."""

    @pytest.mark.parametrize(
        "value",
        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.5e-7, 0.1,
         "1e400", "-1e-400", "9" * 100, "0." + "1" * 100, 10**100 - 1, -(10**100 - 1), "0"],
    )
    def test_in_range_converts_exactly(self, value):
        want = Fraction(str(value)) if not isinstance(value, float) else Fraction(repr(value))
        assert _to_fraction(value, "amount") == want

    def test_every_float_repr_is_in_range(self):
        rng = random.Random(3)
        for _ in range(2_000):
            x = rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-1074, 1023.99)
            assert _to_fraction(x, "amount") == Fraction(repr(x))
            assert _to_fraction(repr(x), "amount") == Fraction(repr(x))

    @pytest.mark.parametrize(
        "value",
        ["1e1000000", "1e999999999", "1e401", "1e-401", "1" * 101, "1" + "0" * 100,
         10**100, -(10**100), 10**100_000],
        ids=["1e1000000", "1e999999999", "1e401", "1e-401", "101-ones", "1e100-written-out",
             "int-10^100", "int--10^100", "int-10^100000"],
    )
    def test_out_of_range_refused_at_once(self, value):
        begin = time.perf_counter()
        with pytest.raises(AuctionRejection, match="amount is out of range") as info:
            _to_fraction(value, "amount")
        assert time.perf_counter() - begin < 0.05
        assert info.value.code == "invalid-amount"

    def test_out_of_range_bid_is_rejected(self):
        state = make_state()
        with pytest.raises(AuctionRejection) as info:
            state.submit_bid("a", "1e-401", "1")
        assert info.value.code == "invalid-amount"


class TestSubmitBid:
    def test_boundary_deposit_accepted(self):
        state = make_state(k_delay=5)
        bid = state.submit_bid("a", 10, 50)  # exactly rent * K
        assert bid.active_from == state.current_block + 5
        assert state.pending == [bid]

    def test_deposit_not_multiple(self):
        state = make_state()
        with pytest.raises(AuctionRejection) as err:
            state.submit_bid("a", 10, 55)
        assert err.value.code == "deposit-not-multiple"

    def test_deposit_too_small(self):
        state = make_state(k_delay=5)
        with pytest.raises(AuctionRejection) as err:
            state.submit_bid("a", 10, 40)
        assert err.value.code == "deposit-too-small"

    def test_increment_enforced_against_top(self):
        state = seat_manager(make_state(), rent=10)
        with pytest.raises(AuctionRejection) as err:
            state.submit_bid("b", 10.5, 105)  # needs >= 1.1 * 10
        assert err.value.code == "increment-too-small"
        state.submit_bid("b", 11, 110)  # exactly the increment is fine

    def test_increment_enforced_against_pending(self):
        state = make_state()
        state.submit_bid("a", 10, 50)
        with pytest.raises(AuctionRejection) as err:
            state.submit_bid("b", 10, 50)  # tie with a pending bid loses
        assert err.value.code == "increment-too-small"

    def test_invalid_rent(self):
        state = make_state()
        with pytest.raises(AuctionRejection) as err:
            state.submit_bid("a", 0, 0)
        assert err.value.code == "invalid-rent"


class TestReduceDeposit:
    def test_top_reduce_to_floor(self):
        state = seat_manager(make_state(k_delay=5), rent=10, deposit=150)
        # one block of rent paid at activation: 140 left, floor is 50
        assert state.top.deposit == 140
        refund = state.reduce_deposit("mgr", 90)
        assert refund == 90
        assert state.top.deposit == 50

    def test_top_floor_breach_rejected(self):
        state = seat_manager(make_state(k_delay=5), rent=10, deposit=150)
        with pytest.raises(AuctionRejection) as err:
            state.reduce_deposit("mgr", 100)  # would leave 40 < 50
        assert err.value.code == "would-violate-coverage"

    def test_top_cannot_cancel(self):
        state = seat_manager(make_state(k_delay=5), rent=10, deposit=150)
        with pytest.raises(AuctionRejection) as err:
            state.reduce_deposit("mgr", 140)
        assert err.value.code == "would-violate-coverage"

    def test_next_coverage_floor(self):
        # top runway 3 with K = 5: the runner-up must keep two blocks of rent
        state = make_state(k_delay=5)
        state.top = Bid("a", Fraction(10), Fraction(30), submitted_at=-5, active_from=0)
        state.next = Bid("b", Fraction(20), Fraction(100), submitted_at=-5, active_from=0)
        state.deposits_posted = Fraction(130)
        refund = state.reduce_deposit("b", 60)  # down to 40 = 2 blocks
        assert refund == 60
        assert state.top.runway() + state.next.runway() == 5
        with pytest.raises(AuctionRejection) as err:
            state.reduce_deposit("b", 20)  # would leave 1 block
        assert err.value.code == "would-violate-coverage"

    def test_next_cancels_when_top_covered(self):
        state = make_state(k_delay=5)
        state.top = Bid("a", Fraction(10), Fraction(100), submitted_at=-5, active_from=0)
        state.next = Bid("b", Fraction(20), Fraction(100), submitted_at=-5, active_from=0)
        state.deposits_posted = Fraction(200)
        state.reduce_deposit("b", 100)
        assert state.next is None
        assert state.conservation_gap() == 0

    def test_remaining_must_stay_multiple(self):
        state = seat_manager(make_state(k_delay=5), rent=10, deposit=150)
        with pytest.raises(AuctionRejection) as err:
            state.reduce_deposit("mgr", 45)  # would leave 95
        assert err.value.code == "deposit-not-multiple"

    def test_unknown_bidder(self):
        state = make_state()
        with pytest.raises(AuctionRejection) as err:
            state.reduce_deposit("ghost", 10)
        assert err.value.code == "no-live-bid"


class TestAdvanceBlock:
    def test_activation_delay_is_exact(self):
        # a higher bid submitted at block N takes over exactly at N + K
        state = seat_manager(make_state(k_delay=5), bidder="a", rent=10)
        n = state.current_block
        state.submit_bid("b", 20, 200)
        for expected_block in range(n + 1, n + 5):
            state.advance_block(1)
            assert state.current_block == expected_block
            assert state.manager == "a"
        events = state.advance_block(1)
        assert state.current_block == n + 5
        assert state.manager == "b"
        assert any(e.kind == "usurped" and e.reason == "outbid" for e in events)
        # the deposed manager keeps its deposit in the runner-up slot
        assert state.next is not None and state.next.bidder == "a"

    def test_depletion_promotes_runner_up(self):
        state = seat_manager(make_state(k_delay=3), bidder="a", rent=10, deposit=300)
        state.submit_bid("b", 11, 33)  # three blocks of deposit only
        for _ in range(3):
            state.advance_block(1)
        assert state.manager == "b"
        assert state.next.bidder == "a"
        events = []
        for _ in range(2):
            events.extend(state.advance_block(1))
        assert any(e.kind == "depleted" and e.bidder == "b" for e in events)
        assert any(e.kind == "usurped" and e.reason == "depletion" for e in events)
        assert state.manager == "a"

    def test_rent_stops_with_no_bids(self):
        state = make_state(default_fee=0.02)
        events = state.advance_block(1)
        assert events == []
        assert state.effective_fee == 0.02
        assert state.rent_per_share == 0

    def test_rent_accumulates_per_share(self):
        state = seat_manager(make_state(k_delay=2), rent=6)
        start = state.rent_per_share
        state.advance_block(3)
        assert state.rent_per_share - start == Fraction(2)

    def test_depletion_without_successor_unmanages_pool(self):
        state = make_state(k_delay=2, default_fee=0.05)
        state.submit_bid("a", 10, 20)
        for _ in range(2 + 2):
            state.advance_block(1)
        assert state.manager is None
        assert state.effective_fee == 0.05

    def test_pending_bid_cannot_be_promoted_early(self):
        # the manager depletes while a challenger is still in its delay window:
        # the pool must go unmanaged rather than seat the pending bid early
        state = seat_manager(make_state(k_delay=5), bidder="a", rent=10, deposit=50)
        blocks_to_depletion = int(state.top.runway())
        state.submit_bid("b", 20, 20 * 5)
        assert blocks_to_depletion < 5
        for _ in range(blocks_to_depletion):
            state.advance_block(1)
        assert state.manager is None  # b is still pending
        state.advance_block(1)
        assert state.manager == "b"  # activation, not promotion

    @given(
        st.sampled_from([1.0, 1.1]),
        st.lists(
            st.one_of(
                st.just(("advance",)),
                st.tuples(st.just("submit"), st.sampled_from("abc"),
                          st.sampled_from([1, 2, 3, 5, 8]), st.integers(1, 8)),
                st.tuples(st.sampled_from(["reduce", "top_up"]), st.sampled_from("abc"),
                          st.sampled_from([1, 2, 5, 10])),
            ),
            max_size=60,
        ),
    )
    def test_an_activating_bid_outranks_next(self, increment, actions):
        # advance_block seats each activating bid in the next slot, refunding
        # the bid there: whatever the bids, cuts and top-ups before, the
        # activating bid must outrank it
        state = make_state(k_delay=3, increment=increment)
        for op, *args in actions:
            if op == "advance":
                runner_up = state.next
                for bid in state.pending:
                    if bid.active_from <= state.current_block + 1:
                        assert runner_up is None or bid.rent > runner_up.rent
                        runner_up = bid
                state.advance_block(1)
                continue
            try:
                if op == "submit":
                    bidder, rent, blocks = args
                    state.submit_bid(bidder, rent, rent * blocks)
                elif op == "reduce":
                    state.reduce_deposit(*args)
                else:
                    state.top_up_deposit(*args)
            except AuctionRejection:
                pass
            check_safety(state)


class TestSetFee:
    def test_cap_boundary(self):
        state = seat_manager(make_state(fee_cap=0.05, default_fee=0.0))
        state.set_fee("mgr", 0.05)
        assert state.effective_fee == 0.0  # not retroactive
        state.advance_block(1)
        assert state.effective_fee == 0.05

    def test_above_cap_rejected(self):
        state = seat_manager(make_state(fee_cap=0.05))
        with pytest.raises(AuctionRejection) as err:
            state.set_fee("mgr", 0.05 + 1e-9)
        assert err.value.code == "fee-above-cap"

    def test_non_manager_rejected(self):
        state = seat_manager(make_state())
        with pytest.raises(AuctionRejection) as err:
            state.set_fee("someone", 0.01)
        assert err.value.code == "not-manager"

    def test_usurper_discards_predecessors_request(self):
        state = seat_manager(make_state(k_delay=1, default_fee=0.0), bidder="a")
        state.submit_bid("b", 20, 200)
        state.set_fee("a", 0.04)  # a requests a change, then loses the seat
        state.advance_block(1)
        assert state.manager == "b"
        assert state.effective_fee == 0.0


class TestClaimRent:
    def test_single_lp_collects_everything(self):
        state = seat_manager(make_state(k_delay=2), rent=7)
        state.register_lp("lp", 4)
        for _ in range(10):
            state.advance_block(4)
        assert state.claim_rent("lp") == Fraction(70)
        assert state.claim_rent("lp") == 0  # idempotent

    def test_even_split(self):
        state = seat_manager(make_state(k_delay=2), rent=8)
        state.register_lp("lp1", 1)
        state.register_lp("lp2", 1)
        for _ in range(10):
            state.advance_block(2)
        assert state.claim_rent("lp1") == Fraction(40)
        assert state.claim_rent("lp2") == Fraction(40)

    def test_mid_stream_entry(self):
        # two-snapshot computation: lp2 joins after 4 of 10 blocks and shares
        # the remaining 6 blocks of rent equally
        state = seat_manager(make_state(k_delay=2), rent=10)
        state.register_lp("lp1", 1)
        for _ in range(4):
            state.advance_block(1)
        state.register_lp("lp2", 1)
        for _ in range(6):
            state.advance_block(2)
        assert state.claim_rent("lp2") == Fraction(30)
        assert state.claim_rent("lp1") == Fraction(40) + Fraction(30)

    def test_unknown_lp(self):
        state = make_state()
        with pytest.raises(AuctionRejection) as err:
            state.claim_rent("nobody")
        assert err.value.code == "unknown-lp"


class TestRandomizedInvariants:
    def test_invariants_hold_across_random_streams(self):
        for seed in range(6):
            events = random_events(random.Random(seed), 1200)
            _, log = apply_events(events, collect_managers=True)
            check_lock_in(log)

    def test_replay_determinism(self):
        events = random_events(random.Random(99), 800)
        state_a, _ = apply_events(events)
        state_b, _ = apply_events(events)
        assert state_a.to_json() == state_b.to_json()

    def test_lock_in_counterfactual(self):
        # removing every bid submitted inside the final K-block window must
        # not change who manages at the cut block
        k = auction_driver.K_DELAY
        for seed in (5, 17, 23):
            events = random_events(random.Random(seed), 600)
            state, log = apply_events(events, collect_managers=True)
            if not log:
                continue
            cut_block = log[-1][0]
            baseline = log[-1][1]

            blocks_seen = 0
            filtered = []
            for ev in events:
                if ev["op"] == "advance":
                    blocks_seen += 1
                    if blocks_seen > cut_block:
                        break
                if ev["op"] == "submit" and blocks_seen > cut_block - k:
                    continue
                filtered.append(ev)
            replay_state, replay_log = apply_events(filtered, collect_managers=True)
            assert replay_log[-1][0] == cut_block
            assert replay_log[-1][1] == baseline


class TestBulkAdvance:
    def test_next_event_block_cases(self):
        state = make_state(k_delay=5)
        assert state.next_event_block() is None  # nothing can ever happen
        state.submit_bid("a", 10, 200)
        assert state.next_event_block() == 5  # activation
        for _ in range(5):
            state.advance_block(1)
        # 20 blocks of deposit, the first paid at activation: empty at block 24
        assert state.next_event_block() == 24
        state.set_fee("a", 0.01)
        assert state.next_event_block() == 6  # the fee takes effect next block
        state.advance_block(1)
        state.submit_bid("b", 20, 100)
        assert state.next_event_block() == 6 + 5  # b activates before a depletes

    def test_bulk_rent_is_exact(self):
        state = seat_manager(make_state(), rent=Fraction(1, 3), deposit=Fraction(200, 3))
        state.register_lp("lp", 7)
        start = state.current_block
        steps = [
            (blocks, [(e.block, e.kind, e.bidder, e.amount) for e in events])
            for blocks, events in state.advance_to(start + 150)
        ]
        assert steps == [(150, [(start + 150, "rent", "mgr", 50)])]  # one exact step
        assert state.top.deposit == Fraction(200 - 1 - 150, 3)  # one block at activation
        assert state.claim_rent("lp") == 50
        assert state.conservation_gap() == 0

    def test_advance_to_steps_over_stretches_and_events(self):
        state = make_state(k_delay=5)
        state.submit_bid("a", 10, 200)
        steps = [
            (blocks, [(e.block, e.kind, e.amount) for e in events])
            for blocks, events in state.advance_to(30, 1)
        ]
        assert steps == [
            (4, []),  # unmanaged until the activation
            (1, [(5, "activated", 200), (5, "usurped", None), (5, "rent", 10)]),
            (18, [(23, "rent", 180)]),  # blocks 6-23 in one step
            (1, [(24, "rent", 10), (24, "depleted", None)]),
            (6, []),
        ]
        assert state.current_block == 30 and state.rent_distributed == 200

    # None pays rent to the registered LP shares, or to one synthetic share
    # while none are registered
    @pytest.mark.parametrize(
        "shares", [auction_driver.TOTAL_SHARES, None], ids=["total-shares", "registered-shares"]
    )
    def test_random_jumps_match_single_steps(self, shares):
        crossed = 0
        for seed in range(6):
            bulk, single = auction_driver.make_state(), auction_driver.make_state()
            for ev in random_jump_events(random.Random(seed), 400):
                if ev["op"] == "jump":
                    event = bulk.next_event_block()
                    crossed += event is not None and event <= bulk.current_block + ev["blocks"]
                apply_event(bulk, ev, shares=shares)
                apply_event(single, ev, single_step=True, shares=shares)
                check_safety(bulk)  # exact conservation after every jump
                assert bulk.to_json() == single.to_json()
                assert bulk.block_fee == single.block_fee
        assert crossed > 50  # the jumps do run through auction events

    def test_only_rent_before_the_next_event(self):
        for seed in range(4):
            state = auction_driver.make_state()
            for ev in random_jump_events(random.Random(100 + seed), 200):
                apply_event(state, ev)
                event = state.next_event_block()
                if event is None:
                    continue
                probe = copy.deepcopy(state)
                for _ in range(min(event - 1 - state.current_block, 500)):
                    kinds = {e.kind for e in probe.advance_block(auction_driver.TOTAL_SHARES)}
                    assert kinds <= {"rent"}, kinds


class TestSerialization:
    def test_round_trip_stability(self):
        state = seat_manager(make_state(), rent=10)
        state.submit_bid("b", 20, 100)
        state.register_lp("lp", 3)
        state.advance_block(3)
        assert state.to_json() == state.to_json()

    def test_conservation_gap_is_exact_zero(self):
        state = seat_manager(make_state(), rent=10)
        state.submit_bid("b", 20, 100)
        for _ in range(30):
            state.advance_block(1)
        assert state.conservation_gap() == 0
