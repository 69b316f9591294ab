"""Event-segmented simulation of the managed pool.

Each block: draw an interblock time and a fresh log-mispricing increment; let
outside arbitrageurs trade the pool to the fee band (their net profit is the
manager's forgone "excess"); let the manager, who pays no fee, correct the
remaining gap to zero; book noise-trader fee flow; and stream one block of
auction rent. Noise trades are pure fee flow and do not move the pool price.

The auction changes only at events: an activation, a usurp, a fee change, a
depletion. Between them it streams the same rent every block, so it advances
in one exact step per stretch and single-steps only the event blocks. Its
steps become runs: consecutive blocks under one fee and one rent payer,
cut at the summation-block edges below.

The pool side runs in work chunks of :data:`WORK_ROWS` summation blocks of
:data:`CHUNK_BLOCKS` blocks each. A work chunk's blocks are drawn from the
one seeded stream and pushed through one numpy kernel on explicit reserve
arrays; memory stays flat at any horizon. Every reported sum then adds one
partial sum per summation block, in block order, so the 1,024-block rows,
and not the work chunk, fix the float sum order and the report's bits. The
block log is formatted and written one run at a time.

A managed pool restarts on-price every block, so its blocks are independent.
An unmanaged run carries its mispricing from block to block inside the fee
band: the carry scan handles a managed run as one array sum and walks an
unmanaged run as a scalar loop.

Price normalization: value homogeneity (profits per unit pool value depend on
the mispricing only) lets the simulator rebase the price level to 1 at every
block start, so the pool value stays O(L) over arbitrarily long horizons and
the per-block accounting identity can be checked to float precision.
Per-block value accounting closes exactly: manager arb profit + arbitrageur
swap fees + outside arb profit = the pool's adverse-selection loss, all
measured from actual reserve changes at the block's true price.

When no manager is seated (no bids, or a depleted deposit with no runner-up)
nobody corrects the pool for free: the mispricing carries over to the next
block, the fee reverts to the configured default, and swap fees route to the
LPs instead of a manager.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import IO, Iterable, Optional, Sequence

from . import equilibrium, market
from ._numpy import np
from .auction import AuctionParams, AuctionState, Bid, _to_fraction
from .auction import check_field_types, read_json_object
from .market import MarketParams
from .pool import strategic_withdrawal_values, trade_to_band, withdrawal_fee_required

# ammbench/spans.py wraps this name; the kernel below calls trade_to_band
# itself, so the wrapper sees no call.
arb_trade_to_band = trade_to_band

__all__ = [
    "BidSpec",
    "SimConfig",
    "SimReport",
    "ConfigError",
    "WithdrawalAttackReport",
    "check_seed",
    "run_sim",
    "run_strategic_withdrawal_attack",
]

SCHEMA_VERSION = 1

BLOCK_LOG_HEADER = ("block", "tau", "z", "fee", "arb_profit", "excess", "noise_fees", "rent")

# The summation block. Every summed SimReport field books one partial sum
# per CHUNK_BLOCKS blocks, in block order, and the moments merge one such
# row at a time: this alone fixes the float sum order, and with it the
# report's bits, whatever the work chunk.
CHUNK_BLOCKS = 1024

# Summation blocks per work chunk. The auction advance, the draws and the
# pool kernel run on WORK_ROWS * CHUNK_BLOCKS blocks at a time: large enough
# that numpy's per-call overhead is small per block, small enough that the
# chunk arrays stay well under a megabyte each.
WORK_ROWS = 4

# The LPs' liquidity L, as given or as zero_profit derives it. The pool kernel
# forms the product of the two reserves, about L^2, and the pool value is
# about 2L: this range keeps both finite and normal, with decades to spare
# for the price factor, where the float limits would make the report NaN or
# silently wrong.
LIQUIDITY_RANGE = (1e-150, 1e150)


class ConfigError(ValueError):
    """A simulation config failed validation."""


def check_seed(seed: int) -> None:
    """Refuse a seed that cannot key the Philox stream: an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be in [0, 2**128), got {seed}")


@dataclass(frozen=True)
class BidSpec:
    bidder: str
    rent: float
    deposit: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.bidder in ("lp", "external_arb", "noise_traders"):
            raise ValueError(f"bidder name {self.bidder!r} is an agent of pnl_by_agent")


@dataclass(frozen=True)
class SimConfig:
    horizon_blocks: int
    seed: int
    market: MarketParams
    k_delay: int = 5
    min_increment_factor: float = 1.10
    default_fee: float | None = None  # fee when unmanaged; None -> fee cap
    withdrawal_fee: float | None = None  # None -> exactly offsets a capped move
    manager_policy: str = "fixed"  # "fixed" | "optimal"
    manager_fee: float | None = None  # fixed policy; None -> default fee
    lp_policy: str = "static"  # "static" | "zero_profit"
    initial_liquidity: float = 1.0
    initial_bids: tuple[BidSpec, ...] = ()

    def __post_init__(self) -> None:
        check_field_types(self, ConfigError)
        check_seed(self.seed)
        if self.horizon_blocks < 1:
            raise ConfigError(f"horizon_blocks must be >= 1, got {self.horizon_blocks}")
        if self.manager_policy not in ("fixed", "optimal"):
            raise ConfigError(f"unknown manager_policy {self.manager_policy!r}")
        if self.lp_policy not in ("static", "zero_profit"):
            raise ConfigError(f"unknown lp_policy {self.lp_policy!r}")
        lo, hi = LIQUIDITY_RANGE
        if not lo <= self.initial_liquidity <= hi:
            raise ConfigError(
                f"initial_liquidity must lie in [{lo:g}, {hi:g}], got {self.initial_liquidity}"
            )
        if self.manager_fee is not None and not (
            0.0 <= self.manager_fee <= self.market.f_max
        ):
            raise ConfigError(
                f"manager_fee {self.manager_fee} outside [0, {self.market.f_max}]"
            )
        if len(self.initial_bids) > 2:
            raise ConfigError("at most two initial bids are supported (top and runner-up)")
        if self.lp_policy == "zero_profit":
            if not self.initial_bids:
                raise ConfigError("zero_profit lp_policy needs an initial bid to price rent")
            if not market.ap0(0.0, self.market) + self.market.r > 0.0:
                raise ConfigError(
                    "zero_profit lp_policy needs ap0(0) + r > 0 to price liquidity: "
                    "price motion or a capital charge"
                )
        try:
            self.auction_params()
            # run_sim's auction keeps the increment exact
            _to_fraction(self.min_increment_factor, "min_increment_factor")
        except ValueError as exc:
            raise ConfigError(str(exc))
        for spec in self.initial_bids:
            rent = _to_fraction(spec.rent, "rent")
            deposit = _to_fraction(spec.deposit, "deposit")
            if rent <= 0 or deposit < rent * self.k_delay or (deposit / rent).denominator != 1:
                raise ConfigError(f"initial bid for {spec.bidder!r} violates the deposit rules")
        if self.lp_policy == "zero_profit":
            liquidity = self.lp_liquidity()
            if not lo <= liquidity <= hi:
                raise ConfigError(
                    f"zero_profit liquidity must lie in [{lo:g}, {hi:g}], got {liquidity} "
                    "from the top bid's rent"
                )

    def lp_liquidity(self) -> float:
        """The LPs' liquidity: ``initial_liquidity``, or under the zero_profit
        policy the level at which the top bid's rent breaks even."""
        if self.lp_policy != "zero_profit":
            return self.initial_liquidity
        # R/dt = (ap0(0) + r) * 2L, converting the per-block rent into a
        # per-time rate
        rent = max(_to_fraction(spec.rent, "rent") for spec in self.initial_bids)
        rent_rate = float(rent) / self.market.delta_t
        return rent_rate / (2.0 * float(market.ap0(0.0, self.market) + self.market.r))

    def auction_params(self) -> AuctionParams:
        return AuctionParams(
            k_delay=self.k_delay,
            fee_cap=self.market.f_max,
            min_increment_factor=self.min_increment_factor,
            default_fee=self.default_fee,
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """The config a JSON object describes: no object in it may hold an
        unknown key, and each record checks its own values."""
        try:
            read_json_object(
                raw, cls, "config", extra=("schema_version",), required=("horizon_blocks", "market")
            )
            version = raw.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
            read_json_object(raw["market"], MarketParams, "market")
            mkt = MarketParams(**raw["market"])
            raw_bids = raw.get("initial_bids", [])
            if not isinstance(raw_bids, list):
                raise ValueError(f"initial_bids must be a list, got {raw_bids!r}")
            bids = []
            for i, b in enumerate(raw_bids):
                read_json_object(b, BidSpec, f"initial_bids[{i}]")
                try:
                    spec = BidSpec(**b)
                except ValueError as exc:
                    raise ValueError(f"initial_bids[{i}].{exc}")
                # JSON integers become floats, as config_hash has always read them
                bids.append(replace(spec, rent=float(spec.rent), deposit=float(spec.deposit)))
            values = dict(raw, seed=raw.get("seed", 0), market=mkt, initial_bids=tuple(bids))
            del values["schema_version"]
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def to_dict(self) -> dict:
        # a list of bids, as from_dict reads them
        return {
            "schema_version": SCHEMA_VERSION,
            **asdict(self),
            "initial_bids": [asdict(b) for b in self.initial_bids],
        }


@dataclass(frozen=True)
class SimReport:
    horizon_blocks: int
    seed: int
    fee_effective_mean: float
    ap0_hat: float
    ap0_se: float
    ae0_hat: float
    ae0_se: float
    manager_noise_fees: float
    manager_arb_fees: float
    manager_arb_profit: float
    manager_rent_paid: float
    lp_rent_received: float
    lp_fee_revenue: float  # swap fees routed to LPs while unmanaged
    lp_adverse_selection: float
    lp_capital_charge: float
    noise_volume_total: float
    noise_fees_paid: float
    external_arb_profit: float
    usurps: int
    depletions: int
    no_trade_blocks: int
    unmanaged_blocks: int
    accounting_drift: float
    max_block_residual: float
    max_end_mispricing: float
    pnl_by_agent: dict[str, float]

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "pnl_by_agent"}
        out["pnl_by_agent"] = dict(sorted(self.pnl_by_agent.items()))
        return out


def _install_initial_bids(auc: AuctionState, specs: Sequence[BidSpec], k_delay: int) -> None:
    # Bootstrap bids as if submitted K blocks before the start, already active;
    # SimConfig has checked them against the deposit rules.
    ordered = sorted(specs, key=lambda s: -_to_fraction(s.rent, "rent"))
    for i, spec in enumerate(ordered):
        rent = _to_fraction(spec.rent, "rent")
        deposit = _to_fraction(spec.deposit, "deposit")
        bid = Bid(
            bidder=spec.bidder,
            rent=rent,
            deposit=deposit,
            submitted_at=-k_delay,
            active_from=0,
        )
        auc.deposits_posted += deposit
        if i == 0:
            auc.top = bid
        else:
            auc.next = bid


def _setup(config: SimConfig) -> tuple[AuctionState, float, float]:
    """The auction with the initial bids seated, the LP liquidity and the manager's fee."""
    params = config.market
    auction = AuctionState(config.auction_params())
    _install_initial_bids(auction, config.initial_bids, config.k_delay)
    auction.register_lp("lp", 1)

    liquidity = config.lp_liquidity()
    if config.manager_policy == "optimal":
        policy_fee = equilibrium.manager_optimal_fee(liquidity, params)
    else:
        policy_fee = (
            config.manager_fee if config.manager_fee is not None else auction.params.default_fee
        )
    if auction.manager is not None:
        auction.set_fee(auction.manager, policy_fee)
    return auction, liquidity, policy_fee


@dataclass(frozen=True)
class _Run:
    """Consecutive blocks under one fee and one rent payer."""

    blocks: int
    fee: float
    rent: float  # per block
    payer: str | None  # the manager of these blocks; None while unmanaged


def _advance_auction(
    auction: AuctionState, n: int, policy_fee: float, counts: Counter
) -> list[_Run]:
    """Advance the auction ``n`` blocks and describe them as runs, one per
    :meth:`AuctionState.advance_to` step. It advances to each
    :data:`CHUNK_BLOCKS`-block row edge in turn, so no run crosses one. A
    new manager sets the policy fee, which takes effect from the next
    block."""
    runs = []
    start = auction.current_block
    for lo in range(0, n, CHUNK_BLOCKS):
        for blocks, events in auction.advance_to(start + min(lo + CHUNK_BLOCKS, n)):
            rent, payer = 0.0, None
            for ev in events:
                if ev.kind == "usurped":
                    counts["usurps"] += 1
                    auction.set_fee(ev.bidder, policy_fee)
                elif ev.kind == "depleted":
                    counts["depletions"] += 1
                elif ev.kind == "rent":
                    rent, payer = float(ev.amount / blocks), ev.bidder
            runs.append(_Run(blocks, float(auction.block_fee), rent, payer))
    return runs


def _carry_scan(eps: np.ndarray, runs: list[_Run], carry: float) -> tuple[np.ndarray, float]:
    """Pre-trade mispricing of each block of ``runs``, given the carry into
    the first.

    Nobody corrects an unmanaged pool, so its mispricing carries into the
    next block, clamped to the fee band where arbitrageurs traded: the
    recurrence of the ``mc_rates`` chain. A managed block ends on-price, so
    a managed run is its first block's carry and then zero carry, added as
    arrays. Returns the mispricings and the carry out of the last block.
    """
    z = np.empty_like(eps)
    lo = 0
    for run in runs:
        hi = lo + run.blocks
        if run.payer is not None:
            np.add(0.0, eps[lo:hi], out=z[lo:hi])  # a -0.0 draw reads 0.0, as carry + e does
            z[lo] = carry + eps[lo]
            carry = 0.0
        else:
            # comparisons, not min/max calls: the same bits, NaN and -0.0 included
            f = run.fee
            zs = []
            for e in eps[lo:hi].tolist():
                zi = carry + e
                zs.append(zi)
                carry = f if zi > f else -f if zi < -f else zi
            z[lo:hi] = zs
        lo = hi
    return z, carry


def _pool_kernel(z: np.ndarray, fee: np.ndarray, managed: np.ndarray, liquidity: float):
    """Each block's trades on explicit reserve arrays, one block per element.

    The true price is rebased to 1 and the pool opens at price ``e^{-z}``.
    Outside arbitrageurs trade to the fee band's edge through
    :func:`pool.trade_to_band`; on managed blocks the manager then closes the
    rest of the gap for free. Profits, fees and the pool's loss all come from
    reserve changes, and the end mispricing from the end reserves.

    Returns ``(traded, excess, arb_fee, mgr_arb, adverse, z_end)``.
    """
    sqrt_p = np.sqrt(np.exp(-z))
    x0 = liquidity / sqrt_p
    y0 = liquidity * sqrt_p
    x1, y1, arb_fee, traded = trade_to_band(x0, y0, 1.0, fee)
    excess = (x0 - x1) + (y0 - y1) - arb_fee

    correct = managed & (np.log(1.0 / (y1 / x1)) != 0.0)
    liq1 = np.sqrt(x1 * y1)
    x2 = np.where(correct, liq1, x1)
    y2 = np.where(correct, liq1, y1)
    mgr_arb = (x1 - x2) + (y1 - y2)
    adverse = (x0 + y0) - (x2 + y2)
    z_end = -np.log(y2 / x2)
    return traded, excess, arb_fee, mgr_arb, adverse, z_end


def _row_views(x: np.ndarray) -> list[np.ndarray]:
    """``x`` as 2-D views of :data:`CHUNK_BLOCKS`-block rows: the full rows,
    then a short last row if there is one. A reduction along axis 1 gives
    each row the bits of reducing that row on its own."""
    full = len(x) - len(x) % CHUNK_BLOCKS
    views = (x[:full].reshape(-1, CHUNK_BLOCKS), x[full:].reshape(1, -1))
    return [v for v in views if v.size]


def _row_sums(x: np.ndarray, mask: np.ndarray | None = None) -> list[float]:
    """The sum of each :data:`CHUNK_BLOCKS`-block row of ``x``, or of the
    row's entries where ``mask`` holds."""
    if mask is None or mask.all():
        return [s for v in _row_views(x) for s in v.sum(axis=1).tolist()]
    return [
        float(x[lo : lo + CHUNK_BLOCKS][mask[lo : lo + CHUNK_BLOCKS]].sum())
        for lo in range(0, len(x), CHUNK_BLOCKS)
    ]


class _Moments:
    """Running mean and sample standard deviation, fed one
    :data:`CHUNK_BLOCKS`-block row at a time and merged with the pairwise
    update of Chan, Golub and LeVeque."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0  # sum of squared deviations from the mean

    def add(self, x: np.ndarray) -> None:
        """Merge in each row of ``x``, in order."""
        for rows in _row_views(x):
            means = rows.mean(axis=1)
            m2s = np.square(rows - means[:, None]).sum(axis=1)
            n_x = rows.shape[1]
            for mean_x, m2_x in zip(means.tolist(), m2s.tolist()):
                n = self.n + n_x
                delta = mean_x - self.mean
                self.mean += delta * n_x / n
                self.m2 += m2_x + delta * delta * self.n * n_x / n
                self.n = n

    def std(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else math.nan


def _format_run(
    first: int,
    run: _Run,
    tau: np.ndarray,
    z: np.ndarray,
    mgr_arb: np.ndarray,
    excess: np.ndarray,
    noise_fee: np.ndarray,
) -> str:
    """CSV rows for the blocks of ``run`` from block ``first`` on, floats as
    ``repr``; the run's fee and rent are formatted once."""
    fee, rent = repr(run.fee), repr(run.rent)
    return "".join(
        f"{b},{t!r},{zi!r},{fee},{mgr!r},{exc!r},{nf!r},{rent}\n"
        for b, t, zi, mgr, exc, nf in zip(
            range(first, first + run.blocks),
            tau.tolist(),
            z.tolist(),
            mgr_arb.tolist(),
            excess.tolist(),
            noise_fee.tolist(),
        )
    )


def _abs_max(running: float, x: np.ndarray) -> float:
    """The larger of ``running`` and the largest ``|x|``; NaN once either
    holds a NaN, which the built-in ``max`` would drop when its comparison
    with the NaN came out false."""
    return float(np.maximum(running, np.abs(x).max()))


class _Books:
    """The running totals of one simulation, booked one work chunk at a time.

    A work chunk's arrays live only while :meth:`book` runs, but for the
    columns it returns to the block log, so memory holds one chunk's
    columns at a time, whatever the horizon.
    """

    def __init__(self, params: MarketParams, liquidity: float) -> None:
        self.params = params
        self.liquidity = liquidity
        self.value_scale = 2.0 * liquidity  # pool value at the (rebased) true price of 1
        # each SimReport field that sums a per-block column, one partial sum per row
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.counts = Counter(usurps=0, depletions=0, no_trade_blocks=0, unmanaged_blocks=0)
        self.pnl: dict[str, float] = {"lp": 0.0}  # and one entry per manager
        self.excess_frac = _Moments()
        self.adverse_frac = _Moments()
        self.max_resid = self.max_end_z = 0.0
        self.carry = 0.0  # mispricing an unmanaged block leaves to the next

    def book(
        self, runs: list[_Run], rng: tuple[np.random.Generator, np.random.Generator]
    ) -> tuple:
        """Draw and run the blocks of ``runs``, none of which crosses a row
        edge, and book their totals. Returns the block log's float columns
        other than the runs' own fee and rent:
        ``(tau, z, arb_profit, excess, noise_fees)``.
        """
        params, sums = self.params, self.sums
        lengths = [run.blocks for run in runs]
        fee = np.repeat([run.fee for run in runs], lengths)
        managed = np.repeat([run.payer is not None for run in runs], lengths)

        tau, z = market.sample_blocks(params, sum(lengths), rng)
        # the draws are the increments; rebinding z lets them go after the scan
        z, self.carry = _carry_scan(z, runs, self.carry)
        traded, excess, arb_fee, mgr_arb, adverse, z_end = _pool_kernel(
            z, fee, managed, self.liquidity
        )
        rent = np.repeat([run.rent for run in runs], lengths)
        residual = mgr_arb + arb_fee + excess - adverse
        rate = [market.noise_volume(run.fee, self.liquidity, params) for run in runs]
        noise_vol = np.repeat(rate, lengths) * tau
        noise_fee = fee * noise_vol
        unmanaged = ~managed
        lp_swap_fees = [
            a + b for a, b in zip(_row_sums(noise_fee, unmanaged), _row_sums(arb_fee, unmanaged))
        ]

        # one partial sum per row, booked in block order
        for field, row_totals in (
            ("fee_effective_mean", _row_sums(fee)),  # divided by the horizon at the end
            ("manager_noise_fees", _row_sums(noise_fee, managed)),
            ("manager_arb_fees", _row_sums(arb_fee, managed)),
            ("manager_arb_profit", _row_sums(mgr_arb)),  # zero on unmanaged blocks
            ("lp_rent_received", _row_sums(rent)),  # only managed blocks pay rent
            ("lp_fee_revenue", lp_swap_fees),
            ("lp_adverse_selection", _row_sums(adverse)),
            ("lp_capital_charge", _row_sums(params.r * self.value_scale * tau)),
            ("noise_volume_total", _row_sums(noise_vol)),
            ("noise_fees_paid", _row_sums(noise_fee)),
            ("external_arb_profit", _row_sums(excess)),
            ("accounting_drift", _row_sums(residual)),
        ):
            for total in row_totals:
                sums[field] += total
        self.counts["no_trade_blocks"] += len(tau) - int(traded.sum())
        self.counts["unmanaged_blocks"] += int(unmanaged.sum())
        self.max_resid = _abs_max(self.max_resid, residual)
        if managed.any():
            self.max_end_z = _abs_max(self.max_end_z, z_end[managed])
        self.excess_frac.add(excess / self.value_scale)
        self.adverse_frac.add(adverse / self.value_scale)

        pnl = self.pnl
        for lp_row, swap_fees in zip(_row_sums(rent - adverse), lp_swap_fees):
            pnl["lp"] += lp_row + swap_fees
        manager_gain = noise_fee + arb_fee + mgr_arb - rent
        lo = 0
        for run in runs:  # no run crosses a row edge, so each sum stays within a row
            if run.payer is not None:
                pnl[run.payer] = pnl.get(run.payer, 0.0) + float(
                    manager_gain[lo : lo + run.blocks].sum()
                )
            lo += run.blocks
        return tau, z, mgr_arb, excess, noise_fee


def run_sim(config: SimConfig, block_log: Optional[IO[str]] = None) -> SimReport:
    """Run the block simulation; deterministic for a given config and seed.

    ``block_log`` takes an optional text sink for the per-block CSV rows
    (columns :data:`BLOCK_LOG_HEADER`).
    """
    params = config.market
    dt = params.delta_t
    horizon = config.horizon_blocks
    auction, liquidity, policy_fee = _setup(config)
    rng = market.block_rng(config.seed)
    books = _Books(params, liquidity)

    if block_log is not None:
        block_log.write(",".join(BLOCK_LOG_HEADER) + "\n")

    work = WORK_ROWS * CHUNK_BLOCKS
    for start in range(0, horizon, work):
        n = min(work, horizon - start)
        runs = _advance_auction(auction, n, policy_fee, books.counts)
        columns = books.book(runs, rng)
        if block_log is not None:
            lo = 0
            for run in runs:  # never a whole chunk's text at once
                hi = lo + run.blocks
                block_log.write(_format_run(start + lo + 1, run, *(c[lo:hi] for c in columns)))
                lo = hi
        del columns  # freed before the next chunk is drawn

    n = float(horizon)
    sums, pnl = books.sums, books.pnl
    sums["fee_effective_mean"] /= n
    pnl["external_arb"] = sums["external_arb_profit"]
    pnl["noise_traders"] = 0.0 - sums["noise_fees_paid"]  # +0.0 when no fee is paid
    return SimReport(
        horizon_blocks=horizon,
        seed=config.seed,
        ap0_hat=books.adverse_frac.mean / dt,
        ap0_se=books.adverse_frac.std() / math.sqrt(n) / dt,
        ae0_hat=books.excess_frac.mean / dt,
        ae0_se=books.excess_frac.std() / math.sqrt(n) / dt,
        manager_rent_paid=sums["lp_rent_received"],
        max_block_residual=books.max_resid,
        max_end_mispricing=books.max_end_z,
        pnl_by_agent=pnl,
        **sums,
        **books.counts,
    )


@dataclass(frozen=True)
class WithdrawalAttackRow:
    ratio: float
    v_now: float
    v_after: float
    fee_paid: float
    net_gain: float
    gross_gain: float


@dataclass(frozen=True)
class WithdrawalAttackReport:
    """Strategic-withdrawal sweep: exit just before the manager's arbitrage.

    ``net_gain`` compares withdrawing now (paying the exit fee, credited to
    the manager) against staying through the correcting trade. With the fee
    set to exactly offset a move of the full fee cap, the gain is zero at the
    cap and negative below it.
    """

    fee_rate: float
    rows: tuple[WithdrawalAttackRow, ...]
    max_net_gain: float
    gain_at_cap: float
    manager_fee_credit: float

    CSV_HEADER = tuple(f.name for f in fields(WithdrawalAttackRow))

    def to_csv_rows(self) -> list[tuple]:
        return [astuple(r) for r in self.rows]


def run_strategic_withdrawal_attack(
    config: SimConfig, ratios: Iterable[float] | None = None
) -> WithdrawalAttackReport:
    """Sweep price-move ratios and value an LP that withdraws pre-correction.

    The LP sees the realized move before the manager can trade and withdraws
    whenever that is profitable gross of the exit fee (any ratio above one).
    """
    f_max = config.market.f_max
    fee_rate = (
        config.withdrawal_fee
        if config.withdrawal_fee is not None
        else withdrawal_fee_required(1.0 + f_max)
    )
    if ratios is None:
        ratios = np.linspace(1.0, 1.0 + f_max, 41)
    liquidity = config.initial_liquidity
    rows = []
    credit = 0.0
    for ratio in map(float, ratios):
        v_now, v_after = strategic_withdrawal_values(liquidity, 1.0, ratio)
        fee_paid = fee_rate * v_now
        net = (1.0 - fee_rate) * v_now - v_after
        gross = v_now - v_after
        if gross > 0.0:  # the strategic LP withdraws; the fee goes to the manager
            credit += fee_paid
        rows.append(WithdrawalAttackRow(ratio, v_now, v_after, fee_paid, net, gross))
    cap_row = min(rows, key=lambda r: abs(r.ratio - (1.0 + f_max)))
    return WithdrawalAttackReport(
        fee_rate=fee_rate,
        rows=tuple(rows),
        max_net_gain=max(r.net_gain for r in rows),
        gain_at_cap=cap_row.net_gain,
        manager_fee_credit=credit,
    )
