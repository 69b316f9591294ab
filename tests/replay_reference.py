"""Single-step reference for ``replay_auction``: one ``advance_block`` per
block and one ``rent`` row per managed block.

This is the replay's original clock loop, kept as the oracle the
event-driven replay is checked against in ``test_replay_events.py``. Rent
rows carry no span here, as in trace files of earlier versions. Event rows
are built here, field by field, so the comparison checks the replay's own
row builder too; scenario rows come from the replay's ``_apply_action``.
"""

from ammauction.auction import AuctionState
from ammauction.replay import ReplayTrace, TraceRow, _apply_action, _digit_bound, _parse_scenario


def reference_replay(scenario_path: str) -> ReplayTrace:
    params, shares, actions, digest = _parse_scenario(scenario_path)
    auction = AuctionState(params)
    bound = _digit_bound()
    rows = []
    for line_no, obj in actions:
        while auction.current_block < obj["block"]:
            for ev in auction.advance_block(shares):
                rows.append(
                    TraceRow(
                        line=line_no,
                        block=ev.block,
                        origin="auction",
                        action=ev.kind,
                        bidder="" if ev.bidder is None else ev.bidder,
                        rent="",
                        deposit="",
                        fee="",
                        amount="" if ev.amount is None else str(ev.amount),
                        shares="",
                        status="event",
                        detail="" if ev.reason is None else ev.reason,
                    )
                )
        rows.append(_apply_action(auction, line_no, obj, bound))
    return ReplayTrace(
        rows=tuple(rows), final_state_json=auction.to_json(), scenario_sha256=digest
    )
