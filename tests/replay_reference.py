"""Single-step reference for ``replay_auction``: one ``advance_block`` per
block and one ``rent`` row per managed block.

This is the replay's original clock loop, kept as the oracle the
event-driven replay is checked against in ``test_replay_events.py``. Rent
rows carry no span here, as in trace files of earlier versions.
"""

from ammauction.auction import AuctionState
from ammauction.replay import ReplayTrace, _apply_action, _parse_scenario, _trace_row


def reference_replay(scenario_path: str) -> ReplayTrace:
    params, shares, actions, digest = _parse_scenario(scenario_path)
    auction = AuctionState(params)
    rows = []
    for line_no, obj in actions:
        while auction.current_block < obj["block"]:
            for ev in auction.advance_block(shares):
                rows.append(
                    _trace_row(
                        line=line_no,
                        block=ev.block,
                        origin="auction",
                        action=ev.kind,
                        bidder=ev.bidder,
                        amount=None if ev.amount is None else str(ev.amount),
                        detail=ev.reason,
                        status="event",
                    )
                )
        rows.append(_apply_action(auction, line_no, obj))
    return ReplayTrace(
        rows=tuple(rows), final_state_json=auction.to_json(), scenario_sha256=digest
    )
