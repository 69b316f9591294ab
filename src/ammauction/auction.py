"""Harberger-lease manager auction: a deterministic block-level state machine.

Bids name a per-block rent ``R`` with a deposit ``D`` that must be a multiple
of ``R`` and at least ``R * K``. New bids activate ``K`` blocks after
submission, so the manager and rent effective at block ``N`` are fixed by the
state at block ``N - K``: a pending bid cannot touch the top or next slot, or
anyone's deposit, before it activates.

Slot model: ``top`` is the current manager's bid; ``next`` is the single
tracked runner-up (normally a previously usurped manager that has not
cancelled); ``pending`` holds bids waiting out the activation delay. On
activation a bid contends for the ``next`` slot and usurps within the same
block when its rent beats the top's, demoting the old manager (deposit
intact) into the runner-up slot. When a rent deduction empties the top's
deposit, the runner-up (always activated, by construction) is promoted, so a
pending bid can never reach the manager seat early.

All deposit and rent arithmetic uses exact rationals, so the conservation
identity

    deposits posted == rent distributed + refunds + live deposits

holds exactly, not merely to rounding. Rent streams to LPs through a
monotone rent-per-share accumulator: a holder's claim is
``shares * (accumulator_now - accumulator_at_snapshot)``, settled lazily.

Block clock: ``advance_block`` runs an event block through every rule, and
``advance_to`` pays each rent-only stretch between events in one step; both
pay rent through the same rent step, so a stretch equals its single blocks.

Mutations must be serialized by the caller (single writer); reads of
serialized snapshots are safe from any thread.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from decimal import Decimal
from fractions import Fraction
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

Number = Union[int, float, str, Fraction]

_FLOAT_MAX = sys.float_info.max

__all__ = [
    "AuctionParams",
    "AuctionRejection",
    "AuctionEvent",
    "Bid",
    "AuctionState",
    "ConfigError",
]


class ConfigError(ValueError):
    """A configuration (a simulation config, a params file, a command-line
    value) failed validation."""


class AuctionRejection(ValueError):
    """An action refused by the auction rules; ``code`` is machine-stable."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# Bounds on an amount given as an integer or a decimal string, checked before
# any Fraction is built, so that a few bytes of input cannot cost unbounded
# work: at most _AMOUNT_DIGITS significant digits, and an adjusted (leading
# digit) exponent within +-_AMOUNT_EXPONENT. Every finite float's repr, at
# most 17 digits with an exponent from -324 to 308, lies within them.
_AMOUNT_DIGITS = 100
_AMOUNT_EXPONENT = 400
_AMOUNT_INT_LIMIT = 10**_AMOUNT_DIGITS


def _to_fraction(value: Number, what: str) -> Fraction:
    """Exact conversion; floats go through their shortest decimal form. An
    integer or decimal string outside the bounds above is refused, as is
    anything that is not a number."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        if isinstance(value, int):
            if abs(value) < _AMOUNT_INT_LIMIT:
                return Fraction(value)
        else:
            exact = Decimal(str(value) if isinstance(value, float) else value)
            if not exact.is_finite() or (
                len(exact.as_tuple().digits) <= _AMOUNT_DIGITS
                and abs(exact.adjusted()) <= _AMOUNT_EXPONENT
            ):
                return Fraction(exact)  # raises on a NaN or an infinity
    except (ValueError, TypeError, ArithmeticError):
        raise AuctionRejection("invalid-amount", f"{what} is not a number: {value!r}")
    raise AuctionRejection(
        "invalid-amount",
        f"{what} is out of range: more than {_AMOUNT_DIGITS} significant digits "
        f"or an exponent beyond +-{_AMOUNT_EXPONENT}",
    )


def _exact_float(value):
    """``value`` as a float where a float holds it exactly, so that a JSON
    integer and its float spelling make the same record, and hash the same;
    a larger integer is kept, as no float spells it."""
    return float(value) if float(value) == value else value


def _finite_real(value) -> bool:
    """A finite real number, not a boolean: the check for numbers read from JSON."""
    # abs() <= the largest float: false for NaN and inf, and safe on a huge int
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


# The JSON kind of each annotation a record checks (annotations are strings
# under postponed evaluation), with its name for the error.
_JSON_KINDS = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    "float": (_finite_real, "a finite number"),
    "float | None": (lambda v: v is None or _finite_real(v), "a finite number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_field_types(record, error: type[Exception] = ValueError) -> None:
    """Check each ``int``, ``float``, ``float | None`` and ``str`` field of a
    dataclass record as JSON delivers it: a boolean is not a number, NaN and
    infinity are not floats, and a string is not a number. A float field's
    number is then stored through :func:`_exact_float`."""
    for field in fields(record):
        kind = _JSON_KINDS.get(field.type)
        value = getattr(record, field.name)
        if kind is not None and not kind[0](value):
            raise error(f"{field.name} must be {kind[1]}, got {value!r}")
        if field.type in ("float", "float | None") and value is not None:
            object.__setattr__(record, field.name, _exact_float(value))


def read_json_object(raw, cls, what: str, extra=(), required=None) -> None:
    """Check that ``raw``, read from JSON for the dataclass ``cls``, is an object
    with the ``required`` keys (by default the fields without a default) and no
    key that is neither a field of ``cls`` nor in ``extra``."""
    known = {f.name: f for f in fields(cls)}
    if required is None:
        required = [n for n, f in known.items() if f.default is f.default_factory is MISSING]
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {raw!r}")
    missing = [k for k in required if k not in raw]
    if missing:
        listed = ", ".join(required)
        raise ValueError(f"{what} must be a JSON object with {listed}; missing {missing}")
    unknown = sorted(raw.keys() - known.keys() - set(extra))
    if unknown:
        raise ValueError(f"unknown keys in {what}: {unknown}")


def read_utf8(path: str) -> str:
    """The text of a UTF-8 input file, newlines translated as ``open`` does.
    A file that is not UTF-8 is an error naming the file and the line of the
    first bad byte, lines numbered as ``str.splitlines`` numbers them."""
    return _decode_utf8(Path(path).read_bytes(), path)


def _decode_utf8(data: bytes, path: str) -> str:
    """:func:`read_utf8` on the bytes ``data`` already read from ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(
            f"{path}: line {line}: not UTF-8 (byte 0x{data[exc.start]:02x}: {exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


@dataclass(frozen=True)
class AuctionParams:
    k_delay: int
    fee_cap: float
    min_increment_factor: float = 1.10
    default_fee: float | None = None  # fee when unmanaged; None means fee_cap

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.k_delay < 1:
            raise ValueError(f"k_delay must be >= 1, got {self.k_delay}")
        if self.min_increment_factor < 1.0:
            raise ValueError(
                f"min_increment_factor must be >= 1, got {self.min_increment_factor}"
            )
        if self.fee_cap < 0.0:
            raise ValueError(f"fee_cap must be >= 0, got {self.fee_cap}")
        if self.default_fee is None:
            object.__setattr__(self, "default_fee", self.fee_cap)
        elif not 0.0 <= self.default_fee <= self.fee_cap:
            raise ValueError(
                f"default_fee {self.default_fee} outside [0, {self.fee_cap}]"
            )


@dataclass
class Bid:
    bidder: str
    rent: Fraction
    deposit: Fraction
    submitted_at: int
    active_from: int

    def runway(self) -> Fraction:
        """Blocks of rent the remaining deposit covers."""
        return self.deposit / self.rent

    def to_dict(self) -> dict:
        return {**asdict(self), "rent": str(self.rent), "deposit": str(self.deposit)}


class AuctionEvent(NamedTuple):
    """One dated auction event: an immutable tuple, so a replay unpacks it as
    ``block, kind, bidder, amount, reason``."""

    block: int
    kind: str  # activated | next-replaced | usurped | demoted | rent | depleted
    bidder: str | None = None
    amount: Fraction | None = None
    reason: str | None = None


@dataclass
class _LPAccount:
    shares: Fraction
    snapshot: Fraction
    accrued: Fraction = Fraction(0)


class AuctionState:
    def __init__(self, params: AuctionParams):
        self.params = params
        self.current_block = 0
        self.top: Optional[Bid] = None
        self.next: Optional[Bid] = None
        self.pending: list[Bid] = []
        self.effective_fee: float = params.default_fee
        self.block_fee: float = params.default_fee  # fee in force for the last-advanced block
        self._pending_fee: float | None = None
        self.rent_per_share = Fraction(0)
        # conservation ledger
        self.deposits_posted = Fraction(0)
        self.rent_distributed = Fraction(0)
        self.refunds = Fraction(0)
        self.claims_paid = Fraction(0)
        self._lps: dict[str, _LPAccount] = {}
        self._lp_shares = Fraction(0)  # sum of the accounts' shares, kept by register_lp
        self._increment = _to_fraction(params.min_increment_factor, "increment")

    # -- queries ------------------------------------------------------------

    @property
    def manager(self) -> str | None:
        return self.top.bidder if self.top is not None else None

    def live_bids(self) -> Iterable[Bid]:
        if self.top is not None:
            yield self.top
        if self.next is not None:
            yield self.next
        yield from self.pending

    def conservation_gap(self) -> Fraction:
        """Posted minus (distributed + refunded + still on deposit); zero always."""
        live = sum((b.deposit for b in self.live_bids()), Fraction(0))
        return self.deposits_posted - (self.rent_distributed + self.refunds + live)

    # -- bidder actions -----------------------------------------------------

    def submit_bid(self, bidder: str, rent: Number, deposit: Number) -> Bid:
        """Enqueue a bid; it activates (and may usurp) K blocks from now.

        Rejection codes: ``invalid-rent``, ``deposit-not-multiple``,
        ``deposit-too-small``, ``increment-too-small``.
        """
        r = _to_fraction(rent, "rent")
        d = _to_fraction(deposit, "deposit")
        if r <= 0:
            raise AuctionRejection("invalid-rent", f"rent must be positive, got {rent}")
        if d <= 0 or (d / r).denominator != 1:
            raise AuctionRejection(
                "deposit-not-multiple", f"deposit {deposit} is not a multiple of rent {rent}"
            )
        if d < r * self.params.k_delay:
            raise AuctionRejection(
                "deposit-too-small",
                f"deposit {deposit} below rent * K = {r * self.params.k_delay}",
            )
        benchmark = max((b.rent for b in self.live_bids()), default=None)
        if benchmark is not None and (r < benchmark * self._increment or r <= benchmark):
            raise AuctionRejection(
                "increment-too-small",
                f"rent {rent} must exceed {benchmark} by factor "
                f"{self.params.min_increment_factor}",
            )
        bid = Bid(
            bidder=bidder,
            rent=r,
            deposit=d,
            submitted_at=self.current_block,
            active_from=self.current_block + self.params.k_delay,
        )
        self.pending.append(bid)
        self.deposits_posted += d
        return bid

    def _find_bid(self, bidder: str) -> tuple[Bid, str]:
        if self.top is not None and self.top.bidder == bidder:
            return self.top, "top"
        if self.next is not None and self.next.bidder == bidder:
            return self.next, "next"
        for bid in self.pending:
            if bid.bidder == bidder:
                return bid, "pending"
        raise AuctionRejection("no-live-bid", f"{bidder} has no live bid")

    def reduce_deposit(self, bidder: str, amount: Number) -> Fraction:
        """Withdraw deposit, subject to the runway floors. Returns the refund.

        The top bid must keep ``R * K``. The next bid, while the top cannot
        cover K blocks on its own, must keep the combined runway at K; it may
        cancel outright otherwise. Pending bids keep the submission floor or
        cancel. Remaining deposits stay multiples of the rent.
        """
        amt = _to_fraction(amount, "amount")
        bid, slot = self._find_bid(bidder)
        if amt <= 0 or amt > bid.deposit:
            raise AuctionRejection(
                "invalid-amount", f"amount {amount} outside (0, {bid.deposit}]"
            )
        remaining = bid.deposit - amt
        floor_rk = bid.rent * self.params.k_delay
        if slot == "top":
            floor = floor_rk  # the top bid can never cancel
        elif slot == "next":
            shortfall = Fraction(0)
            if self.top is not None and self.top.runway() < self.params.k_delay:
                shortfall = self.params.k_delay - self.top.runway()
            floor = shortfall * bid.rent
        else:  # pending: keep the submission floor, or cancel outright
            floor = Fraction(0) if remaining == 0 else floor_rk
        if remaining < floor:
            raise AuctionRejection(
                "would-violate-coverage",
                f"{slot} bid must keep a deposit of at least {floor}",
            )
        if (remaining / bid.rent).denominator != 1:
            raise AuctionRejection(
                "deposit-not-multiple",
                f"remaining deposit {remaining} is not a multiple of rent {bid.rent}",
            )
        bid.deposit = remaining
        self.refunds += amt
        if remaining == 0:
            if slot == "next":
                self.next = None
            else:
                self.pending.remove(bid)
        return amt

    def top_up_deposit(self, bidder: str, amount: Number) -> None:
        """Add deposit to a live bid, in multiples of its rent."""
        amt = _to_fraction(amount, "amount")
        bid, _ = self._find_bid(bidder)
        if amt <= 0:
            raise AuctionRejection("invalid-amount", f"amount must be positive, got {amount}")
        if (amt / bid.rent).denominator != 1:
            raise AuctionRejection(
                "deposit-not-multiple", f"top-up {amount} is not a multiple of rent {bid.rent}"
            )
        bid.deposit += amt
        self.deposits_posted += amt

    def set_fee(self, bidder: str, fee: float) -> None:
        """Request the swap fee for the next block; manager only, capped."""
        if self.manager is None or bidder != self.manager:
            raise AuctionRejection("not-manager", f"{bidder} is not the pool manager")
        if not 0.0 <= fee <= self.params.fee_cap:
            raise AuctionRejection(
                "fee-above-cap", f"fee {fee} outside [0, {self.params.fee_cap}]"
            )
        self._pending_fee = float(fee)

    # -- LP rent accounting ---------------------------------------------------

    def register_lp(self, lp_id: str, shares: Number) -> None:
        """Record an LP's share balance, settling rent accrued so far."""
        s = _to_fraction(shares, "shares")
        if s < 0:
            raise AuctionRejection("invalid-amount", f"shares must be >= 0, got {shares}")
        account = self._lps.get(lp_id)
        if account is None:
            if s > 0:
                self._lps[lp_id] = _LPAccount(shares=s, snapshot=self.rent_per_share)
                self._lp_shares += s
            return
        account.accrued += account.shares * (self.rent_per_share - account.snapshot)
        account.snapshot = self.rent_per_share
        self._lp_shares += s - account.shares
        account.shares = s
        if s == 0 and account.accrued == 0:
            del self._lps[lp_id]

    def claim_rent(self, lp_id: str) -> Fraction:
        """Pay out rent accrued to an LP since its last claim; idempotent."""
        account = self._lps.get(lp_id)
        if account is None:
            raise AuctionRejection("unknown-lp", f"no shares registered for {lp_id!r}")
        amount = account.accrued + account.shares * (self.rent_per_share - account.snapshot)
        account.accrued = Fraction(0)
        account.snapshot = self.rent_per_share
        self.claims_paid += amount
        return amount

    # -- block clock ----------------------------------------------------------

    def advance_block(self, lp_total_shares: Number | None = None) -> list[AuctionEvent]:
        """Advance one block: activations, usurpation, rent, depletion.

        ``lp_total_shares`` is the authoritative LP share supply for the rent
        accumulator; defaults to the registered total, or one synthetic share
        when nothing is registered. Total function of state: never raises for
        any reachable state.
        """
        self.current_block += 1
        block = self.current_block
        events: list[AuctionEvent] = []

        # 1. activations take the next slot: an activating bid outranks the
        # bid there, since it outbid every live bid when submitted, and every
        # bid seated since was submitted before it
        due = [b for b in self.pending if b.active_from <= block] if self.pending else ()
        for bid in due:
            self.pending.remove(bid)
            events.append(AuctionEvent(block, "activated", bid.bidder, bid.deposit))
            if self.next is not None:
                self._refund(self.next)
                events.append(
                    AuctionEvent(block, "next-replaced", self.next.bidder, reason=bid.bidder)
                )
            self.next = bid

        # 2. a strictly higher activated bid usurps the manager; the outbid
        # manager keeps its deposit and demotes into the runner-up slot
        if self.next is not None and (self.top is None or self.next.rent > self.top.rent):
            reason = "vacant" if self.top is None else "outbid"
            old_top = self.top
            self.top, self.next = self.next, old_top
            events.append(AuctionEvent(block, "usurped", self.top.bidder, reason=reason))
            if old_top is not None:
                events.append(AuctionEvent(block, "demoted", old_top.bidder, old_top.deposit))
            self._pending_fee = None  # a dethroned manager's request dies with it

        # 3. the (still seated) manager's fee set last block takes effect now
        if self._pending_fee is not None:
            self.effective_fee = self._pending_fee
            self._pending_fee = None
        # a depletion below hands over only from the next block on, so the
        # fee ruling *this* block is pinned here
        self.block_fee = self.effective_fee

        # 4. rent streams from the manager's deposit to LP shares
        if self.top is not None:
            events.append(self._stream_rent(1, lp_total_shares))

            # 5. depletion promotes the (already activated) next bid
            if self.top.deposit == 0:
                events.append(AuctionEvent(block, "depleted", self.top.bidder))
                self.top = None
                if self.next is not None:
                    self.top, self.next = self.next, None
                    events.append(
                        AuctionEvent(block, "usurped", self.top.bidder, reason="depletion")
                    )

        if self.top is None:
            self.effective_fee = self.params.default_fee
        return events

    def next_event_block(self) -> int | None:
        """Earliest block at which anything other than rent can happen.

        That is the next block while a fee request is pending or a runner-up
        outranks the manager; otherwise the earliest of a pending bid's
        ``active_from`` and the block at which the top bid's deposit runs
        out. ``None`` when nothing is scheduled at all. Every block before
        it only streams rent, which :meth:`advance_to` pays in one step.
        """
        soon = self.current_block + 1
        if self._pending_fee is not None or (
            self.next is not None and (self.top is None or self.next.rent > self.top.rent)
        ):
            return soon
        candidates = [bid.active_from for bid in self.pending]
        if self.top is not None:
            # the exact ceiling of the runway, from one integer floor division
            d, r = self.top.deposit, self.top.rent
            runway = -(-d.numerator * r.denominator // (d.denominator * r.numerator))
            candidates.append(self.current_block + runway)
        return max(soon, min(candidates)) if candidates else None

    def advance_to(
        self, block: int, lp_total_shares: Number | None = None
    ) -> Iterator[tuple[int, list[AuctionEvent]]]:
        """Advance to ``block``, one step per rent-only stretch or event block.

        Each rent-only stretch before :meth:`next_event_block` is one exact
        step, the same as that many :meth:`advance_block` calls; each event
        block is one :meth:`advance_block`. Yields ``(blocks, events)`` after
        each step: the step's length and its events, dated and ordered as the
        block rules emit them (a stretch has one ``rent`` event for its total,
        none while unmanaged).
        The state advances only as the steps are consumed, so a caller may
        act on the auction between steps, for example set a new manager's
        fee, and the next step sees it. A step costs the same whatever the
        number of registered LPs: rent goes to their running share total.
        """
        while self.current_block < block:
            event = self.next_event_block()
            bulk = (block if event is None else min(block, event - 1)) - self.current_block
            if bulk > 0:
                self.current_block += bulk
                self.block_fee = self.effective_fee
                yield bulk, [self._stream_rent(bulk, lp_total_shares)] if self.top else []
            else:
                yield 1, self.advance_block(lp_total_shares)

    def _stream_rent(self, n: int, lp_total_shares: Number | None) -> AuctionEvent:
        """Pay ``n`` blocks of the top's rent, ending at the current block, to
        ``lp_total_shares``, else the registered shares, else one share."""
        shares = (
            _to_fraction(lp_total_shares, "lp_total_shares")
            if lp_total_shares is not None
            else self._lp_shares
        )
        if shares.numerator <= 0:  # a Fraction's sign, without a comparison's ABC check
            shares = Fraction(1)
        top = self.top
        # Fraction * int, not int * Fraction: the reflected operator also
        # checks numbers.Rational
        rent = top.rent if n == 1 else top.rent * n
        top.deposit -= rent
        self.rent_distributed += rent
        self.rent_per_share += rent if shares == 1 else rent / shares
        return AuctionEvent(self.current_block, "rent", top.bidder, rent)

    def _refund(self, bid: Bid) -> None:
        self.refunds += bid.deposit
        bid.deposit = Fraction(0)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "current_block": self.current_block,
            "params": asdict(self.params),
            "top": None if self.top is None else self.top.to_dict(),
            "next": None if self.next is None else self.next.to_dict(),
            "pending": [b.to_dict() for b in self.pending],
            "effective_fee": self.effective_fee,
            "pending_fee": self._pending_fee,
            "rent_per_share": str(self.rent_per_share),
            "deposits_posted": str(self.deposits_posted),
            "rent_distributed": str(self.rent_distributed),
            "refunds": str(self.refunds),
            "claims_paid": str(self.claims_paid),
            "lps": {
                lp: {k: str(v) for k, v in asdict(a).items()}
                for lp, a in sorted(self._lps.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
