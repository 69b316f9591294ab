"""Reduced-form market model and its Monte-Carlo oracles.

Closed-form layer: noise-trader demand ``H(f, L) = c0 * L^alpha * e^{-c1 f}``,
the arbitrage-profit rate :func:`ap0` and arbitrage-excess rate :func:`ae0`
(both per unit pool value per unit time).

Stochastic layer: block times are exponential with mean ``delta_t`` and the
log-mispricing accumulated over a block is ``N(0, sigma^2 * tau)``. The
simulator draws them with :func:`sample_blocks` from numpy's own ziggurat
samplers (Marsaglia and Tsang, J. Stat. Softw. 2000) on the two counter-based
streams of :func:`block_rng`: ``Philox(key=seed)`` for the times and its
``jumped()`` copy for the mispricings. Each stream is read in order, so
results are reproducible for a given seed and a horizon drawn in chunks of
any sizes is bit for bit the horizon drawn in one call. The exponential
ziggurat can return an exact zero, so a block time of zero, a block with no
price motion, is possible but vanishingly rare; nothing needs to guard it.

:func:`mc_rates` draws with the same sampler on ``block_rng(seed)``: the
i.i.d. mispricings first, then the profit chain's start and steps. Both its
estimators read the streams in blocks of about :data:`CHAIN_BLOCKS` draws:
the i.i.d. excesses are merged into running moments one block at a time and
the chain is bit for bit the chain drawn one step at a time, so its memory is
a bounded block whatever the sample count.

:func:`kappa`, :func:`ap0`, :func:`ae0`, their slopes :func:`ap0_slope` and
:func:`ae0_slope`, :func:`excess_ratio` and :func:`noise_volume_per_value`
compute with numpy alone and take a fee array (or one fee): each fee of an
array gets the bits of that fee passed on its own. :func:`mc_rates` takes a
1-D fee array.

Units: time is measured in days, ``sigma`` per sqrt(day), ``r`` per day. Only
the dimensionless combinations ``sigma^2 * delta_t`` and
``f / (sigma * sqrt(delta_t))`` enter the formulas. The closed forms require
``sigma^2 * delta_t < 8`` so that ``1 - sigma^2 delta_t / 8 > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._numpy import np
from .auction import ConfigError, _exact_float, _finite_real
from .pool import excess_fraction

__all__ = [
    "BracketError",
    "MarketParams",
    "MCRates",
    "ap0",
    "ap0_slope",
    "ae0",
    "ae0_slope",
    "excess_ratio",
    "kappa",
    "noise_volume",
    "noise_volume_per_value",
    "block_rng",
    "check_seed",
    "sample_blocks",
    "mc_rates",
]


class BracketError(RuntimeError):
    """No positive finite equilibrium exists; carries diagnostics. Raised by
    the :mod:`equilibrium` solvers, defined here so that a caller can catch it
    without importing them."""


@dataclass(frozen=True)
class MarketParams:
    """Model constants. Validated once at construction.

    ``alpha`` must lie strictly inside (0, 1): demand per unit pool value is
    then strictly decreasing in liquidity, unbounded as L -> 0 and vanishing
    as L -> infinity, so every fee has one zero-profit liquidity in closed
    form, which the equilibrium solvers rely on.
    Every field must be a finite real number; booleans and strings are
    rejected rather than coerced.
    """

    sigma: float
    delta_t: float
    r: float
    f_max: float
    c0: float = 25.0
    c1: float = 120.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not _finite_real(value):
                raise ValueError(f"{field.name} must be a finite real number, got {value!r}")
            object.__setattr__(self, field.name, _exact_float(value))
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.delta_t <= 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        try:
            spread = self.sigma**2 * self.delta_t
        except OverflowError:  # float ** 2 raises instead of returning inf
            spread = math.inf
        if spread >= 8.0:
            raise ValueError(
                f"sigma^2 * delta_t = {spread} violates the validity condition (< 8)"
            )
        if self.r < 0.0:
            raise ValueError(f"r must be non-negative, got {self.r}")
        if self.f_max < 0.0:
            raise ValueError(f"f_max must be non-negative, got {self.f_max}")
        if self.c0 <= 0.0 or self.c1 <= 0.0:
            raise ValueError(f"c0 and c1 must be positive, got {self.c0}, {self.c1}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be strictly inside (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class MCRates:
    """Monte-Carlo rate estimates with standard errors, per unit value per day.

    ``fee`` and the four rate fields are arrays in fee order; ``n_samples``
    is the count per fee.
    """

    fee: np.ndarray
    n_samples: int
    ap0_hat: np.ndarray
    ap0_se: np.ndarray
    ae0_hat: np.ndarray
    ae0_se: np.ndarray


def _check_fee(fee) -> None:
    if not (np.isfinite(fee) & (fee >= 0.0)).all():
        raise ValueError(f"fee must be non-negative, got {fee}")


def _denominator(params: MarketParams) -> float:
    # positive: MarketParams refuses sigma**2 * delta_t >= 8, the same product
    return 1.0 - params.sigma**2 * params.delta_t / 8.0


def kappa(fee, params: MarketParams):
    """Dimensionless fee scale ``f / (sigma * sqrt(delta_t / 2))``."""
    scale = params.sigma * math.sqrt(params.delta_t / 2.0)
    if scale == 0.0:
        return np.where(fee > 0.0, math.inf, 0.0)
    return fee / scale


# A slope is its rate's factor of cosh(f/2) times a bracket that holds
# kappa(1): where that factor is 0, because kappa is infinite or sigma^2 is
# below the smallest double, the rate reads 0 and its slope is 0 too, the
# limit, as excess_ratio's is for infinite kappa; the product would be
# 0 * inf there (kappa(1) is infinite when sigma sqrt(delta_t / 2) is 0).
#
# The closed forms evaluate cosh(f/2), and the slopes sinh(f/2), under
# np.errstate(over="raise"): past a fee of about 1420 they overflow a double,
# and raise FloatingPointError instead of giving inf. They come before kappa,
# so that a fee past both ranges names cosh.


def ap0(fee, params: MarketParams):
    """Arbitrage-profit rate per unit pool value per unit time at a fixed fee.

    sigma^2/8 (the continuous-time rebalancing-loss rate) times the
    probability 1/(1 + kappa) that the mispricing escapes the fee band at a
    block time, times the expected profit factor cosh(f/2)/(1 - sigma^2 dt/8)
    conditioned on trade. Strictly decreasing in the fee.
    """
    _check_fee(fee)
    if params.sigma == 0.0:
        return 0.0 * fee  # no price motion, no arbitrage
    with np.errstate(over="raise"):
        cosh = np.cosh(0.5 * fee)
        k = kappa(fee, params)
    return params.sigma**2 / 8.0 * (1.0 / (1.0 + k)) * cosh / _denominator(params)


def ap0_slope(fee, params: MarketParams):
    """``d ap0 / d fee``: the profit rate's factor ``cosh(f/2) / (1 + kappa)``
    has slope ``(sinh(f/2)/2 - cosh(f/2) kappa'(f) / (1 + kappa)) / (1 + kappa)``,
    with ``kappa'(f) = kappa(1)``."""
    _check_fee(fee)
    if params.sigma == 0.0:
        return 0.0 * fee
    with np.errstate(over="raise"):
        cosh, sinh = np.cosh(0.5 * fee), np.sinh(0.5 * fee)
        k = kappa(fee, params)
    factor = params.sigma**2 / 8.0 / (1.0 + k)
    with np.errstate(invalid="ignore"):  # 0 * inf where the factor is 0
        slope = factor * (0.5 * sinh - kappa(1.0, params) * cosh / (1.0 + k)) / _denominator(params)
    return np.where(factor == 0.0, 0.0, slope)


def ae0(fee, params: MarketParams):
    """Arbitrage profit forgone to outsiders, per unit pool value per unit time.

    Same conditional profit factor as :func:`ap0` but with escape probability
    ``e^{-kappa}``: the pool restarts each block on-price, so reaching the
    band edge requires a full crossing within one block. ae0 <= ap0 with
    equality only at zero fee.
    """
    _check_fee(fee)
    if params.sigma == 0.0:
        return 0.0 * fee
    with np.errstate(over="raise"):
        cosh = np.cosh(0.5 * fee)
        k = kappa(fee, params)
    return params.sigma**2 / 8.0 * np.exp(-k) * cosh / _denominator(params)


def ae0_slope(fee, params: MarketParams):
    """``d ae0 / d fee``: the excess rate's factor ``e^{-kappa} cosh(f/2)`` has
    slope ``e^{-kappa} (sinh(f/2)/2 - cosh(f/2) kappa'(f))``."""
    _check_fee(fee)
    if params.sigma == 0.0:
        return 0.0 * fee
    with np.errstate(over="raise"):
        cosh, sinh = np.cosh(0.5 * fee), np.sinh(0.5 * fee)
        k = kappa(fee, params)
    factor = params.sigma**2 / 8.0 * np.exp(-k)
    with np.errstate(invalid="ignore"):  # 0 * inf where the factor is 0
        slope = factor * (0.5 * sinh - kappa(1.0, params) * cosh) / _denominator(params)
    return np.where(factor == 0.0, 0.0, slope)


def excess_ratio(fee, params: MarketParams):
    """``ae0 / ap0 = (1 + kappa) * e^{-kappa}``, exponentially vanishing in kappa."""
    _check_fee(fee)
    k = kappa(fee, params)
    with np.errstate(invalid="ignore"):  # inf * 0 where kappa is infinite
        return np.where(np.isinf(k), 0.0, (1.0 + k) * np.exp(-k))


def noise_volume(fee: float, liquidity: float, params: MarketParams) -> float:
    """Expected noise-trade volume per unit time, ``c0 * L^alpha * e^{-c1 f}``."""
    _check_fee(fee)
    if liquidity < 0.0:
        raise ValueError(f"liquidity must be non-negative, got {liquidity}")
    return params.c0 * liquidity**params.alpha * math.exp(-params.c1 * fee)


def _h0_factor(liquidity: float, params: MarketParams) -> float:
    # H0(f, L) = _h0_factor * e^{-c1 f}
    return params.c0 * liquidity ** (params.alpha - 1.0) / 2.0


def noise_volume_per_value(fee, liquidity: float, params: MarketParams):
    """Noise volume per unit pool value at the reference price 1,
    ``H0(f, L) = H(f, L) / (2L) = c0 L^(alpha-1) e^{-c1 f} / 2``.

    One power of L, so it stays finite where the pool value ``2L`` does not.
    Strictly decreasing in L for alpha < 1, diverging as L -> 0 and
    vanishing as L -> infinity.
    """
    _check_fee(fee)
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    return _h0_factor(liquidity, params) * np.exp(-params.c1 * fee)


def check_seed(seed: int) -> None:
    """Refuse a seed that cannot key the Philox stream: an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be in [0, 2**128), got {seed}")


def block_rng(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The two block streams for a seed, shared by the simulator and
    :func:`mc_rates`: a generator on ``Philox(key=seed)`` for the block
    times, and one on that Philox's :meth:`~numpy.random.Philox.jumped` copy
    (2^128 draws on) for the mispricings. Same seed, same streams."""
    bits = np.random.Philox(key=seed)
    return np.random.Generator(bits), np.random.Generator(bits.jumped())


def sample_blocks(
    params: MarketParams,
    n: int,
    rng: tuple[np.random.Generator, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n blocks as ``(tau, z)`` arrays: tau ~ Exp(mean delta_t), z ~ N(0, sigma^2 tau).

    ``rng`` is a :func:`block_rng` pair: ``tau`` is ``delta_t`` times the first
    stream's ``standard_exponential(n)``, and ``z`` is ``sigma * sqrt(tau)``
    times the second stream's ``standard_normal(n)``. Each stream is read in
    order and holds no state between calls but its position, so a horizon
    drawn in chunks of any sizes is bit for bit the horizon drawn in one call.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    tau_rng, z_rng = rng
    tau = tau_rng.standard_exponential(n)
    tau *= params.delta_t
    z = np.sqrt(tau)
    z *= params.sigma
    z *= z_rng.standard_normal(n)
    return tau, z


def _stationary_start(fees: np.ndarray, params: MarketParams, u: np.ndarray) -> np.ndarray:
    """The profit chain's stationary post-trade law at the 1-D ``fees``, by
    inverse CDF at the uniforms ``u``: mass ``e = 1/(2(1 + kappa))`` at each
    band edge, flat inside (arXiv 2305.14604; exact for Laplace steps). Where
    ``1 - 2e`` is 0 (fee 0, or kappa under about 1e-16) it is the edge ``u``
    falls on; at sigma 0 it is uniform in the band. Shape ``(fees, u)``."""
    e = 0.5 / (1.0 + kappa(fees, params)[:, None])
    x = np.divide(u - e, 1.0 - 2.0 * e, out=np.where(u < e, 0.0, 1.0), where=e < 0.5)
    return fees[:, None] * (2.0 * np.clip(x, 0.0, 1.0) - 1.0)


class _Moments:
    """Running mean and sample standard deviation, fed one chunk at a time
    and merged with the pairwise update of Chan, Golub and LeVeque. The
    simulator's report and :func:`mc_rates`' excess estimator both use it."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0  # sum of squared deviations from the mean

    def add(self, x: np.ndarray) -> None:
        """Merge in the non-empty float chunk ``x``, which it consumes (overwrites)."""
        n_x = len(x)
        mean_x = float(np.add.reduce(x)) / n_x
        x -= mean_x
        m2_x = float(np.add.reduce(np.square(x, out=x)))
        n = self.n + n_x
        delta = mean_x - self.mean
        self.mean += delta * n_x / n
        self.m2 += m2_x + delta * delta * self.n * n_x / n
        self.n = n

    def std(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else math.nan


# Draws per block in both estimators of :func:`mc_rates`: large enough that
# numpy's per-call overhead is small per draw, small enough that a block's
# arrays and the excess kernel's temporaries stay well under a megabyte
# whatever ``n_samples`` (a chain block is one step when ``chains`` exceeds
# it). The i.i.d. excess sums merge one block at a time, so it fixes their
# bits; the chain's bits do not depend on it.
CHAIN_BLOCKS = 1 << 13


def mc_rates(
    fee,
    params: MarketParams,
    n_samples: int,
    seed: int = 0,
    chains: int = 250,
) -> MCRates:
    """Monte-Carlo estimates of the profit and excess rates at fees.

    ``fee`` is a 1-D array (a scalar is one fee), and the :class:`MCRates`
    rate fields are arrays in its order; ``n_samples`` is the sample count
    per fee. One :func:`block_rng` pair serves every fee of a call: each
    fee's estimates are bit for bit those of a call at that fee alone, and
    the fees share common random numbers, so their errors are correlated.

    The excess estimator draws i.i.d. blocks: the pool starts each block
    on-price (the manager corrects it for free), so the pre-trade mispricing
    is exactly N(0, sigma^2 tau) and the per-block excess is averaged
    directly. It draws the ``n_samples`` mispricings :data:`CHAIN_BLOCKS` at a
    time and merges each block's excesses into one running mean and variance
    per fee (:class:`_Moments`), so its memory is one block's whatever
    ``n_samples`` and the number of fees.

    The profit estimator simulates the fixed-fee pool in stationarity: the
    mispricing carries over between blocks, clamped to the fee band whenever
    arbitrageurs trade. It runs ``chains`` replicas from the exact stationary
    law and reports the standard error across replica means (the samples
    within a chain are autocorrelated). Each averages its pre-trade states
    at steps ``1..ceil(n_samples / chains)``, never its start, so the chain
    uses ``ceil(n_samples / chains) * chains`` draws, not exactly
    ``n_samples``. At fee zero the two estimators sample the same law.

    The chain is drawn from the same streams, after the i.i.d. draws and the
    start's uniforms, in blocks of about :data:`CHAIN_BLOCKS` chain blocks,
    one draw call per block shared by every fee's chain. The states are
    stored step-major, one contiguous ``(fees, chains)`` row per step, so a
    step is a maximum, a minimum and an add whatever the number of fees, in
    that order and through the bare ufuncs (``np.clip``'s Python wrapper
    costs more than the step's work). Each fee
    sums a block with one ``excess_fraction`` call on a ``(steps, chains)``
    view, written into an accumulator allocated once per call and reduced in
    step order: every result is bit for bit the chain drawn one step at a
    time, held in about :data:`CHAIN_BLOCKS` states per fee (one step's when
    ``chains`` is larger).
    """
    fees = np.array(fee, dtype=float, ndmin=1 if np.isscalar(fee) else 0)
    if fees.ndim != 1 or fees.size == 0:
        raise ValueError(f"fee array must be 1-D and non-empty, got shape {fees.shape}")
    _check_fee(fees)
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be at least 10^4, got {n_samples}")
    if chains < 2:
        raise ValueError(f"chains must be at least 2, got {chains}")
    fee_list = fees.tolist()
    rng = block_rng(seed)
    dt = params.delta_t
    ap0_hat, ap0_se, ae0_hat, ae0_se = np.empty((4, len(fees)))

    # Excess: i.i.d. per-block draws, CHAIN_BLOCKS at a time, each block's
    # excesses merged into every fee's running moments
    moments = [_Moments() for _ in fee_list]
    for start in range(0, n_samples, CHAIN_BLOCKS):
        _, z = sample_blocks(params, min(CHAIN_BLOCKS, n_samples - start), rng)
        for mom, f in zip(moments, fee_list):
            mom.add(excess_fraction(z, f))
    for i, mom in enumerate(moments):
        ae0_hat[i] = mom.mean / dt
        ae0_se[i] = mom.std() / math.sqrt(n_samples) / dt

    # Profit: stationary band-clamped chains, vectorized across fees and
    # replicas and drawn in blocks of about CHAIN_BLOCKS chain blocks. The
    # layout is step-major: ``path[j]`` is the ``(fees, chains)`` state at
    # step start + j, one contiguous row, and ``path[0]`` carries the state
    # between blocks. The band bounds are full rows too, so a step is a
    # maximum, a minimum and an add over one contiguous row: np.clip's own
    # order (minimum first gives -0.0 at fee 0), without its Python wrapper.
    steps = -(-n_samples // chains)
    block = max(1, CHAIN_BLOCKS // chains)
    upper = np.repeat(fees[:, None], chains, axis=1)
    lower = -upper
    path = np.empty((min(block, steps) + 1, len(fees), chains))
    rows = list(path)
    path[0] = _stationary_start(fees, params, rng[0].random(chains))
    totals = np.zeros((len(fees), chains))
    acc = np.empty((len(path), chains))
    for start in range(0, steps, block):
        m = min(block, steps - start)
        _, eps = sample_blocks(params, m * chains, rng)
        for prev, row, e in zip(rows, rows[1 : m + 1], eps.reshape(m, chains)):
            np.maximum(prev, lower, out=row)
            np.minimum(row, upper, out=row)
            row += e
        for i, f in enumerate(fee_list):
            # running totals first, then the rows in step order: the same
            # left-to-right sum as adding one step at a time
            acc[0] = totals[i]
            excess_fraction(path[1 : m + 1, i], f, out=acc[1 : m + 1])
            np.add.reduce(acc[: m + 1], axis=0, out=totals[i])
        path[0] = path[m]
    for i, row in enumerate(totals):
        means = row / steps / dt
        ap0_hat[i] = float(means.mean())
        ap0_se[i] = float(means.std(ddof=1)) / math.sqrt(chains)

    return MCRates(fees, n_samples, ap0_hat, ap0_se, ae0_hat, ae0_se)
