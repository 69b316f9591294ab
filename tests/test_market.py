import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from ammauction import market
from ammauction.equilibrium import dominance_report, solve_ff_liquidity
from ammauction.market import (
    MarketParams,
    ae0,
    ae0_slope,
    ap0,
    ap0_slope,
    block_rng,
    excess_ratio,
    kappa,
    mc_rates,
    noise_volume,
    noise_volume_per_value,
    sample_blocks,
)
from ammauction.pool import excess_fraction

from closed_forms import conditional_excess
from conftest import REF
from mc_reference import reference_mc_rates

# the rare-event cell: kappa 10 at fee 0.01
RARE = MarketParams(sigma=0.02, delta_t=0.005, r=1e-4, f_max=0.05)


@functools.lru_cache(maxsize=None)
def cached_reference(fee, params, n_samples, seed, chains, chain_blocks):
    """The per-step oracle at ``CHAIN_BLOCKS == chain_blocks``: its excess
    moments merge that many samples at a time, so the block size is part of
    the key."""
    assert chain_blocks == market.CHAIN_BLOCKS
    return reference_mc_rates(fee, params, n_samples, seed=seed, chains=chains)


def one_fee(est):
    """The four estimates of a one-fee :class:`MCRates`, as floats."""
    assert est.fee.shape == (1,)
    names = ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se")
    return tuple(float(getattr(est, name)[0]) for name in names)


def quadrature_excess(sigma, tau, fee, side):
    """Gaussian quadrature of the one-sided excess over z ~ N(0, sigma^2 tau)."""
    s = sigma * math.sqrt(tau)
    sign = 1.0 if side == "plus" else -1.0

    def integrand(z):
        pdf = math.exp(-z * z / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        return excess_fraction(sign * z, fee) * pdf

    value, _ = integrate.quad(integrand, fee, fee + 60.0 * s, limit=400, epsabs=1e-13)
    return value


class TestMarketParams:
    def test_validity_condition(self):
        with pytest.raises(ValueError, match="validity"):
            MarketParams(sigma=3.0, delta_t=1.0, r=0.0, f_max=0.01)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_strictly_interior(self, alpha):
        with pytest.raises(ValueError):
            MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, alpha=alpha)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            MarketParams(sigma=-0.1, delta_t=0.01, r=1e-4, f_max=0.05)
        with pytest.raises(ValueError):
            MarketParams(sigma=0.05, delta_t=0.01, r=-1e-4, f_max=0.05)
        with pytest.raises(ValueError):
            MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c0=0.0)

    @pytest.mark.parametrize("name", ["sigma", "delta_t", "r", "f_max", "c0", "c1", "alpha"])
    @pytest.mark.parametrize(
        "value", ["0.05", True, False, np.bool_(True), None, math.nan, math.inf, -math.inf, 10**400]
    )
    def test_every_field_is_a_finite_real(self, name, value):
        fields = dict(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
            MarketParams(**fields)

    def test_real_numbers_of_any_type_accepted(self):
        params = MarketParams(sigma=np.float64(0.05), delta_t=0.01, r=0, f_max=0.05, c0=25)
        assert params.c0 == 25 and params.r == 0

    def test_overflowing_validity_product_rejected(self):
        # sigma**2 overflows a float: the validity check reads it as infinite
        for sigma in (1e300, 10**300):
            with pytest.raises(ValueError, match="validity"):
                MarketParams(sigma=sigma, delta_t=0.01, r=1e-4, f_max=0.05)


class TestNoiseDemand:
    def test_unit_point(self):
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c0=1.0)
        assert noise_volume(0.0, 1.0, params) == 1.0

    def test_fee_separability(self):
        for liquidity in (0.5, 1.0, 37.0):
            ratio = noise_volume(0.004, liquidity, REF) / noise_volume(0.0, liquidity, REF)
            assert ratio == pytest.approx(math.exp(-REF.c1 * 0.004), rel=1e-12)

    def test_per_value_decreasing_in_liquidity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            liquidity = float(rng.uniform(1e-3, 1e6))
            fee = float(rng.uniform(0.0, REF.f_max))
            assert noise_volume_per_value(fee, 2 * liquidity, REF) < noise_volume_per_value(
                fee, liquidity, REF
            )

    def test_per_value_diverges_at_zero_liquidity(self):
        # growth along L = 10^-k demonstrates the unbounded limit
        values = [noise_volume_per_value(0.01, 10.0**-k, REF) for k in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e5

    def test_per_value_vanishes_at_large_liquidity(self):
        assert noise_volume_per_value(0.0, 1e12, REF) < 1e-4

    def test_decreasing_in_fee(self):
        fees = np.linspace(0.0, REF.f_max, 64)
        h = [noise_volume_per_value(float(f), 1.0, REF) for f in fees]
        assert all(b < a for a, b in zip(h, h[1:]))

    @pytest.mark.parametrize("liquidity", [1e308, 1.7e308])
    def test_per_value_finite_where_the_pool_value_overflows(self, liquidity):
        # 2L overflows a double above about 9e307; H0 is one power of L, so it
        # keeps its value there instead of H / inf = 0
        assert math.isinf(2.0 * liquidity)
        want = REF.c0 / math.sqrt(liquidity) * math.exp(-REF.c1 * 0.003) / 2.0
        got = noise_volume_per_value(0.003, liquidity, REF)
        assert got == pytest.approx(want, rel=1e-14) and got > 0.0
        if liquidity == 1e308:
            assert float(got) == pytest.approx(8.72e-154, rel=1e-3)


class TestClosedFormRates:
    def test_zero_fee_value(self):
        expected = (REF.sigma**2 / 8.0) / (1.0 - REF.sigma**2 * REF.delta_t / 8.0)
        assert ap0(0.0, REF) == pytest.approx(expected, rel=1e-15)
        assert ae0(0.0, REF) == pytest.approx(expected, rel=1e-15)

    def test_small_blocktime_limit_is_lvr_rate(self):
        params = MarketParams(sigma=0.05, delta_t=1e-10, r=1e-4, f_max=0.05)
        assert ap0(0.0, params) == pytest.approx(params.sigma**2 / 8.0, rel=1e-9)

    def test_strictly_decreasing_in_fee(self):
        fees = np.linspace(0.0, REF.f_max, 256)
        aps = [ap0(float(f), REF) for f in fees]
        aes = [ae0(float(f), REF) for f in fees]
        assert all(b < a for a, b in zip(aps, aps[1:]))
        assert all(b < a for a, b in zip(aes, aes[1:]))

    def test_excess_below_profit_except_at_zero(self):
        for f in np.linspace(0.0, REF.f_max, 64)[1:]:
            assert ae0(float(f), REF) < ap0(float(f), REF)

    def test_ratio_closed_form(self):
        for f in (0.001, 0.003, 0.01, 0.05):
            k = kappa(f, REF)
            assert excess_ratio(f, REF) == pytest.approx((1.0 + k) * math.exp(-k), rel=1e-15)
            assert ae0(f, REF) / ap0(f, REF) == pytest.approx(excess_ratio(f, REF), rel=1e-12)

    def test_ratio_at_zero_and_unit_kappa(self):
        assert excess_ratio(0.0, REF) == 1.0
        f_unit = REF.sigma * math.sqrt(REF.delta_t / 2.0)  # kappa = 1
        assert excess_ratio(f_unit, REF) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_ratio_times_profit_is_excess(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = MarketParams(
                sigma=float(rng.uniform(0.01, 0.5)),
                delta_t=float(rng.uniform(1e-4, 0.1)),
                r=1e-4,
                f_max=0.05,
            )
            f = float(rng.uniform(0.0, 0.05))
            assert excess_ratio(f, params) * ap0(f, params) == pytest.approx(
                ae0(f, params), rel=1e-12
            )

    def test_negative_fee_rejected(self):
        with pytest.raises(ValueError):
            ap0(-0.001, REF)

    def test_sigma_zero_degenerate(self):
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        assert ap0(0.01, params) == 0.0
        assert ae0(0.01, params) == 0.0
        assert excess_ratio(0.01, params) == 0.0


class TestVectorizedRates:
    SIGMA_ZERO = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)

    @staticmethod
    def assert_same_bits(grid, one):
        # one fee's value against its lane of the array: the same bits
        assert [float(v).hex() for v in grid] == [float(v).hex() for v in one]

    @pytest.mark.parametrize("params", [REF, SIGMA_ZERO], ids=["ref", "sigma0"])
    def test_grid_rates_match_scalar_forms(self, params):
        # one numpy path serves one fee and a fee array: a fee gets the same
        # bits whichever caller asks
        fees = np.linspace(0.0, params.f_max, 257)
        z = np.linspace(-4.0 * params.f_max, 4.0 * params.f_max, 257)
        for fn in (ap0, ae0, ap0_slope, ae0_slope, kappa, excess_ratio):
            self.assert_same_bits(fn(fees, params), [fn(f, params) for f in fees.tolist()])
        for fee in (0.0, 0.003, params.f_max):
            self.assert_same_bits(
                excess_fraction(z, fee), [excess_fraction(zi, fee) for zi in z.tolist()]
            )

    def test_dominance_rows_match_single_fee_solves(self):
        report = dominance_report(REF, n_grid=257)
        self.assert_same_bits(
            [row.L_ff for row in report.rows],
            [solve_ff_liquidity(row.fee, REF).liquidity for row in report.rows],
        )

    def test_negative_fee_in_array_rejected(self):
        fees = np.array([0.0, 0.003, -0.001])
        for fn in (ap0, ae0, excess_ratio):
            with pytest.raises(ValueError, match="non-negative"):
                fn(fees, REF)


class TestConditionalExcess:
    CASES = [
        (0.05, 0.01, 0.003),
        (0.05, 0.02, 0.0),
        (0.02, 0.005, 0.001),
        (0.05, 0.05, 0.01),
        (0.30, 1.00, 0.10),
        (0.05, 0.003, 0.005),
    ]

    @pytest.mark.parametrize("sigma,tau,fee", CASES)
    def test_matches_quadrature_plus(self, sigma, tau, fee):
        closed = conditional_excess(sigma, tau, fee, side="plus")
        assert abs(closed - quadrature_excess(sigma, tau, fee, "plus")) <= 1e-8

    @pytest.mark.parametrize("sigma,tau,fee", CASES)
    def test_matches_quadrature_minus(self, sigma, tau, fee):
        closed = conditional_excess(sigma, tau, fee, side="minus")
        assert abs(closed - quadrature_excess(sigma, tau, fee, "minus")) <= 1e-8

    def test_side_reflection_identity(self):
        plus = conditional_excess(0.05, 0.02, 0.004, side="plus")
        minus = conditional_excess(0.05, 0.02, 0.004, side="minus")
        assert minus == pytest.approx(math.exp(-0.004) * plus, rel=1e-12)

    def test_zero_fee_reduces_to_growth_term(self):
        # at f = 0 the two sides are equal halves of e^{sigma^2 tau / 8} - 1
        sigma, tau = 0.05, 0.02
        total = conditional_excess(sigma, tau, 0.0, "plus") + conditional_excess(
            sigma, tau, 0.0, "minus"
        )
        assert total == pytest.approx(math.exp(sigma**2 * tau / 8.0) - 1.0, rel=1e-12)

    def test_vanishes_as_tau_shrinks(self):
        # with f > 0 the band is never escaped in the short-time limit
        assert conditional_excess(0.05, 1e-12, 0.01) == pytest.approx(0.0, abs=1e-300)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            conditional_excess(0.05, 0.0, 0.01)
        with pytest.raises(ValueError):
            conditional_excess(0.05, 0.01, -0.01)
        with pytest.raises(ValueError):
            conditional_excess(0.05, 0.01, 0.01, side="both")


class TestSampling:
    def test_same_seed_same_stream(self):
        a = sample_blocks(REF, 1, block_rng(123))
        b = sample_blocks(REF, 1, block_rng(123))
        assert np.array_equal(a, b)
        rng = block_rng(9)
        first = [sample_blocks(REF, 1, rng) for _ in range(5)]
        rng = block_rng(9)
        second = [sample_blocks(REF, 1, rng) for _ in range(5)]
        assert np.array_equal(first, second)

    def test_draws_are_numpys_samplers_on_two_streams(self):
        # tau on Philox(key=seed), z on its jumped copy
        n = 1_000
        tau, z = sample_blocks(REF, n, block_rng(31))
        bits = np.random.Philox(key=31)
        want_tau = REF.delta_t * np.random.Generator(bits).standard_exponential(n)
        normal = np.random.Generator(np.random.Philox(key=31).jumped()).standard_normal(n)
        want_z = REF.sigma * np.sqrt(want_tau) * normal
        assert tau.tobytes() == want_tau.tobytes()
        assert z.tobytes() == want_z.tobytes()

    def test_300_1_699_blocks_match_one_draw_of_1000(self):
        tau, z = sample_blocks(REF, 1_000, block_rng(8))
        rng = block_rng(8)
        parts = [sample_blocks(REF, size, rng) for size in (300, 1, 699)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == tau.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == z.tobytes()

    def test_million_draws_positive_tau_finite_z(self):
        tau, z = sample_blocks(REF, 1_000_000, block_rng(6))
        assert float(tau.min()) > 0.0
        assert bool(np.isfinite(z).all())

    def test_uneven_chunks_match_one_call(self):
        # the simulator draws its horizon in chunks from one generator
        n = 10_000
        tau, z = sample_blocks(REF, n, block_rng(77))
        rng = block_rng(77)
        sizes = (1, 1_000, 3, 1, 1, 4_096, n - 5_102)
        parts = [sample_blocks(REF, size, rng) for size in sizes]
        assert np.concatenate([p[0] for p in parts]).tobytes() == tau.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == z.tobytes()

    def test_tau_mean(self):
        n = 400_000
        tau, _ = sample_blocks(REF, n, block_rng(2))
        bound = 4.0 * REF.delta_t / math.sqrt(n)
        assert abs(float(tau.mean()) - REF.delta_t) <= bound

    def test_z_scaling_variance(self):
        n = 400_000
        tau, z = sample_blocks(REF, n, block_rng(3))
        ratio = z / np.sqrt(tau)
        var = float(np.var(ratio, ddof=1))
        se = REF.sigma**2 * math.sqrt(2.0 / n)
        assert abs(var - REF.sigma**2) <= 4.0 * se

    def test_positive_tau(self):
        tau, _ = sample_blocks(REF, 10_000, block_rng(4))
        assert float(tau.min()) > 0.0


class TestMCRates:
    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            mc_rates(0.0, REF, 9_999)

    def test_determinism(self):
        a = mc_rates(0.003, REF, 20_000, seed=5)
        b = mc_rates(0.003, REF, 20_000, seed=5)
        for name in ("fee", "ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.n_samples == b.n_samples

    def test_pinned_output(self):
        # exact bits: a change to the chain's draws or the excess kernel shows here
        est = mc_rates(0.003, REF, 20_000, seed=5)
        assert est.ap0_hat.tolist() == [float.fromhex("0x1.5881058192da3p-13")]
        assert est.ap0_se.tolist() == [float.fromhex("0x1.0747fb1fb3703p-18")]
        assert est.ae0_hat.tolist() == [float.fromhex("0x1.12639ee0bc017p-13")]
        assert est.ae0_se.tolist() == [float.fromhex("0x1.b1fa3b379facbp-19")]

    def test_pinned_fee_vector_output(self):
        # exact bits of one call over four fees; the per-step reference in
        # mc_reference.py shares excess_fraction, so a kernel change that
        # moves both sides of the reference tests shows here
        est = mc_rates(np.array([0.0, 0.001, 0.003, 0.01]), REF, 20_000, seed=5)
        want = {
            "ap0_hat": ["0x1.3e6c0b80e1956p-12", "0x1.f0a4d27f65541p-13",
                        "0x1.5881058192da3p-13", "0x1.420d8c1918ea9p-14"],
            "ap0_se": ["0x1.5ac8d7410b8c8p-18", "0x1.38dea1ba6154dp-18",
                       "0x1.0747fb1fb3703p-18", "0x1.60a1841d2e7d2p-19"],
            "ae0_hat": ["0x1.43ce19e21a822p-12", "0x1.e6ba846b4c40fp-13",
                        "0x1.12639ee0bc017p-13", "0x1.21f33433895aep-16"],
            "ae0_se": ["0x1.3f914b9456d73p-18", "0x1.1adcb553e39a9p-18",
                       "0x1.b1fa3b379facbp-19", "0x1.2e6f531cd830cp-20"],
        }
        for name, hexes in want.items():
            assert [v.hex() for v in getattr(est, name).tolist()] == hexes, name

    def test_zero_fee_estimators_agree(self):
        ap0_hat, ap0_se, ae0_hat, ae0_se = one_fee(mc_rates(0.0, REF, 200_000, seed=1))
        assert abs(ap0_hat - ae0_hat) <= 3.0 * math.hypot(ap0_se, ae0_se)

    def test_wide_band_kills_excess(self):
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=1.0)
        fee = 20.0 * params.sigma * math.sqrt(params.delta_t / 2.0)  # kappa = 20
        _, _, ae0_hat, ae0_se = one_fee(mc_rates(fee, params, 100_000, seed=2))
        assert abs(ae0_hat) <= max(3.0 * ae0_se, 1e-12)

    def test_huge_fee_gives_finite_estimates(self):
        # nothing leaves a band 2000 wide, so every excess is zero
        est = mc_rates(2000.0, REF, 10_000, chains=2)
        for name in ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
            assert np.isfinite(getattr(est, name)).all(), name

    def test_three_se_agreement_at_reference_point(self):
        ap0_hat, ap0_se, ae0_hat, ae0_se = one_fee(mc_rates(0.003, REF, 200_000, seed=0))
        assert abs(ap0_hat - ap0(0.003, REF)) <= 3.0 * ap0_se
        assert abs(ae0_hat - ae0(0.003, REF)) <= 3.0 * ae0_se

    @pytest.mark.parametrize("params, fee", [(REF, 0.003), (RARE, 0.01)], ids=["REF", "rare"])
    def test_short_run_agrees_with_ap0(self, params, fee):
        # 40 steps per chain: the stationary start needs no warm-up
        ap0_hat, ap0_se, _, _ = one_fee(mc_rates(fee, params, 10_000, seed=0))
        assert abs(ap0_hat - ap0(fee, params)) <= 3.0 * ap0_se

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: in the rare-event cell (kappa 10, about 45 of 10^6 "
        "blocks leave the band) the sample standard error of ae0_hat is too small; "
        "over seeds 1-44 at n = 10^6, seeds 13 (z_ae0 -4.67) and 40 (-3.58) fail "
        "|z| <= 3",
    )
    def test_rare_event_cell_ae0_within_three_se(self):
        _, _, ae0_hat, ae0_se = one_fee(mc_rates(0.01, RARE, 1_000_000, seed=13))
        assert abs(ae0_hat - ae0(0.01, RARE)) <= 3.0 * ae0_se

    def test_memory_does_not_grow_with_samples(self):
        # both estimators stream: the i.i.d. excesses merge one CHAIN_BLOCKS
        # block at a time and the chain holds one block of steps, so the
        # traced peak (about 0.6-1.4 MB) is the same at 2e5 and 2e6 samples,
        # with one fee or four. A buffer of one float64 per sample is 16 MB
        # at 2e6.
        for n in (200_000, 2_000_000):
            for fee in (0.003, np.array([0.0, 0.001, 0.003, 0.01])):
                tracemalloc.start()
                try:
                    mc_rates(fee, REF, n)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 2.5e6, (n, fee, peak)

    def test_a_float_fee_is_a_one_fee_array(self):
        one = mc_rates(0.003, REF, 10_000)
        many = mc_rates(np.array([0.003, 0.0]), REF, 10_000)
        assert one.fee.tolist() == [0.003] and type(one.n_samples) is int
        for name in ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
            value = getattr(one, name)
            assert value.shape == (1,) and getattr(many, name).shape == (2,), name
            assert value[0] == getattr(many, name)[0], name

    @pytest.mark.parametrize("fee", [np.array([]), np.array(0.003), np.zeros((2, 2)),
                                     np.array([0.003, -0.001]), np.array([0.003, np.nan])],
                             ids=["empty", "0-d", "2-d", "negative", "nan"])
    def test_bad_fee_array_rejected(self, fee):
        with pytest.raises(ValueError, match="fee"):
            mc_rates(fee, REF, 10_000)


class TestStationaryStart:
    """The profit chain's start: mass 1/(2(1 + kappa)) at each band edge,
    flat inside, and unchanged by a step of the chain."""

    N = 1_000_000

    @classmethod
    def assert_law(cls, states, fee, k):
        # each edge atom and each tenth of the inside within 4 binomial SEs
        edge = 0.5 / (1.0 + k)
        inside = states[(states > -fee) & (states < fee)]
        counts = [np.count_nonzero(states == -fee), np.count_nonzero(states == fee)]
        counts += np.histogram(inside, bins=10, range=(-fee, fee))[0].tolist()
        assert sum(counts) == cls.N
        for i, count in enumerate(counts):
            p = edge if i < 2 else (1.0 - 2.0 * edge) / 10.0
            assert abs(count - cls.N * p) <= 4.0 * math.sqrt(cls.N * p * (1.0 - p)), (i, count)

    @staticmethod
    def start(fee, params, u):
        return market._stationary_start(np.array([fee]), params, u)[0]

    @pytest.mark.parametrize("k", [0.5, 2.0, 10.0])
    def test_edge_atoms_and_flat_inside(self, k):
        fee = k * REF.sigma * math.sqrt(REF.delta_t / 2.0)
        u = np.random.default_rng(1).random(self.N)
        self.assert_law(self.start(fee, REF, u), fee, kappa(fee, REF))

    @pytest.mark.parametrize("k", [0.5, 2.0, 10.0])
    def test_one_chain_step_keeps_the_law(self, k):
        fee = k * REF.sigma * math.sqrt(REF.delta_t / 2.0)
        state = self.start(fee, REF, np.random.default_rng(2).random(self.N))
        _, eps = sample_blocks(REF, self.N, block_rng(3))
        self.assert_law(np.clip(state + eps, -fee, fee), fee, kappa(fee, REF))

    def test_zero_fee_starts_on_price(self):
        u = np.random.default_rng(4).random(1_000)
        zero_sigma = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        for params in (REF, zero_sigma):
            assert (self.start(0.0, params, u) == 0.0).all()

    def test_zero_sigma_starts_uniform_in_the_band(self):
        # kappa is infinite: no edge mass, the band stretched over u
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        u = np.random.default_rng(5).random(1_000)
        assert self.start(0.003, params, u).tolist() == (0.003 * (2.0 * u - 1.0)).tolist()

    # sigma^2 delta_t is under 8 there, but sigma * sqrt(delta_t / 2) rounds
    # to 2, so the least subnormal fee's kappa rounds to 0
    @pytest.mark.parametrize(
        "fee, params",
        [(5e-324, MarketParams(sigma=4.216175460150635, delta_t=0.4500415737239494,
                               r=1e-4, f_max=0.05)),
         (1e-300, REF)],
        ids=["kappa-zero", "one-plus-kappa-is-one"],
    )
    def test_vanishing_kappa_starts_on_an_edge(self, fee, params):
        k = float(kappa(fee, params))
        assert 1.0 + k == 1.0 and (k == 0.0) == (fee == 5e-324)
        u = np.random.default_rng(6).random(1_000)
        states = self.start(fee, params, u)
        assert states.tolist() == np.where(u < 0.5, -fee, fee).tolist()
        est = mc_rates(fee, params, 10_000)
        for name in ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
            assert np.isfinite(getattr(est, name)).all(), name


class TestMoments:
    """``_Moments.add`` overwrites its chunk with the squared deviations; the
    merge keeps the bits of the copying formula."""

    @staticmethod
    def assert_merge_bits(chunks):
        moments = market._Moments()
        n_seen, mean, m2 = 0, 0.0, 0.0
        for chunk in chunks:
            size = len(chunk)
            consumed = chunk.copy()
            moments.add(consumed)
            # the merge as it was written before add consumed its chunk
            mean_x = float(chunk.mean())
            deviations = np.square(chunk - mean_x)
            total = n_seen + size
            delta = mean_x - mean
            mean += delta * size / total
            m2 += float(deviations.sum()) + delta * delta * n_seen * size / total
            n_seen = total
            assert consumed.tobytes() == deviations.tobytes()
        assert (moments.n, moments.mean.hex(), moments.m2.hex()) == (n_seen, mean.hex(), m2.hex())

    # 8, 9, 127, 128 and 129: the edges of numpy's pairwise-sum unroll and block
    @pytest.mark.parametrize(
        "sizes", [(1, 7, 4096, 3, 1000), (2, 8193, 1), (5000,), (8, 9, 127, 128, 129)]
    )
    def test_consuming_add_matches_the_copying_merge(self, sizes):
        rng = np.random.default_rng(len(sizes))
        x = rng.normal(0.0, 1.0, sum(sizes)) * 10.0 ** rng.integers(-8, 8, sum(sizes))
        self.assert_merge_bits(np.split(x, np.cumsum(sizes)[:-1]))

    def test_consuming_add_matches_the_copying_merge_at_special_values(self):
        rng = np.random.default_rng(0)
        special = rng.normal(0.0, 1.0, 129)
        special[[0, 9, 64, 128]] = [-0.0, math.inf, -math.inf, math.nan]
        chunks = [rng.normal(0.0, 1.0, 128), np.full(9, -0.0), special, rng.normal(0.0, 1.0, 8)]
        with np.errstate(invalid="ignore"):  # inf - inf, in both merges alike
            self.assert_merge_bits(chunks)


# lanes the chain-step property draws on top of the general floats: signed
# zeros, infinities, NaN and the subnormal and normal range edges
EDGE_LANES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]


class TestChainStepBits:
    """``mc_rates`` steps its chain with ``np.maximum`` then ``np.minimum``
    into ``out=``; the per-step oracle uses ``np.clip``. This pins numpy
    giving both the same bits. The order matters only at signed zeros, which
    no output shows: a +-0.0 state has a +0.0 excess."""

    @given(
        fees=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=3),
        lanes=st.lists(st.floats(), max_size=8),
    )
    def test_maximum_then_minimum_is_clip(self, fees, lanes):
        # fee 0 always, so that lower holds -0.0; every fee row holds the
        # edge lanes, its own band edges and one ulp past each
        fee = np.array([0.0, *fees])
        rows = [
            [*EDGE_LANES, f, -f, math.nextafter(f, math.inf), math.nextafter(-f, -math.inf), *lanes]
            for f in fee.tolist()
        ]
        x = np.array(rows)
        upper = np.repeat(fee[:, None], x.shape[1], axis=1)
        lower = -upper
        assert np.signbit(lower[0]).all()
        row = np.full_like(x, 7.0)
        np.maximum(x, lower, out=row)
        np.minimum(row, upper, out=row)
        assert row.tobytes() == np.clip(x, lower, upper).tobytes()


class TestBlockedChain:
    """``mc_rates`` draws its chain in blocks; the per-step loop is the oracle."""

    @staticmethod
    def assert_same(fee, params, n_samples, seed=5, chains=250):
        got = mc_rates(fee, params, n_samples, seed=seed, chains=chains)
        want = reference_mc_rates(fee, params, n_samples, seed=seed, chains=chains)
        assert (got.fee.tolist(), got.n_samples) == (want.fee.tolist(), want.n_samples)
        for name in ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
            assert getattr(got, name)[0].hex() == getattr(want, name)[0].hex(), name

    @staticmethod
    def block(chains):
        return max(1, market.CHAIN_BLOCKS // chains)

    # unsorted, with zero, a duplicate and a wide band (kappa 25 at REF)
    VECTOR_FEES = (0.01, 0.0, 0.003, 0.003, 25.0 * REF.sigma * math.sqrt(REF.delta_t / 2.0))

    @classmethod
    def assert_vector_same(cls, params, n_samples, seed=5, chains=250):
        got = mc_rates(np.array(cls.VECTOR_FEES), params, n_samples, seed=seed, chains=chains)
        assert got.n_samples == n_samples
        assert got.fee.tolist() == list(cls.VECTOR_FEES)
        for i, fee in enumerate(cls.VECTOR_FEES):
            want = cached_reference(fee, params, n_samples, seed, chains, market.CHAIN_BLOCKS)
            for name in ("ap0_hat", "ap0_se", "ae0_hat", "ae0_se"):
                assert getattr(got, name)[i].hex() == getattr(want, name)[0].hex(), (fee, name)

    @pytest.mark.parametrize("chains", [2, 7, 1000])  # 250: the window tests below
    def test_chains_match_reference(self, chains):
        self.assert_same(0.003, REF, 20_000, chains=chains)

    def test_more_chains_than_chain_blocks(self, monkeypatch):
        # one step per block; a smaller constant keeps the case cheap
        monkeypatch.setattr(market, "CHAIN_BLOCKS", 64)
        assert self.block(100) == 1
        self.assert_same(0.003, REF, 20_000, chains=100)

    @pytest.mark.parametrize("chain_blocks", [1, 3, 500, 2**20])
    def test_any_block_size_matches_reference(self, chain_blocks, monkeypatch):
        monkeypatch.setattr(market, "CHAIN_BLOCKS", chain_blocks)
        self.assert_same(0.003, REF, 10_000, chains=3)

    def test_samples_not_a_multiple_of_chains(self):
        assert 20_001 % 7 != 0
        self.assert_same(0.003, REF, 20_001, chains=7)

    def test_window_ends_inside_a_block(self, monkeypatch):
        # 80 steps in blocks of 3: the last block holds two
        monkeypatch.setattr(market, "CHAIN_BLOCKS", 3 * 250)
        assert 20_000 // 250 % self.block(250) == 2
        self.assert_same(0.003, REF, 20_000, chains=250)

    def test_window_ends_on_a_block_boundary(self, monkeypatch):
        # 80 steps in blocks of 8; the first block's carry row holds only
        # the start, which is never counted
        monkeypatch.setattr(market, "CHAIN_BLOCKS", 8 * 250)
        assert 20_000 // 250 % self.block(250) == 0
        self.assert_same(0.003, REF, 20_000, chains=250)

    def test_zero_fee(self):
        self.assert_same(0.0, REF, 20_000, chains=250)

    @pytest.mark.parametrize(
        "n_samples, chain_blocks",
        [(20_000, 2_000), (20_001, 2_000), (20_000, 30_000)],
        ids=["multiple", "multiple-plus-one", "within-one-block"],
    )
    def test_iid_blocks_match_reference(self, n_samples, chain_blocks, monkeypatch):
        # the i.i.d. excess draws fill the last block exactly, spill one
        # sample into a new block, or never fill the first
        monkeypatch.setattr(market, "CHAIN_BLOCKS", chain_blocks)
        self.assert_same(0.003, REF, n_samples, chains=250)

    @pytest.mark.parametrize("fee", [0.0, 0.003])
    def test_zero_sigma(self, fee):
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        self.assert_same(fee, params, 20_000, chains=250)

    @pytest.mark.parametrize("chains", [7, 1000])
    def test_fee_vector_matches_reference(self, chains):
        self.assert_vector_same(REF, 20_000, chains=chains)

    @pytest.mark.parametrize("chain_blocks", [1, 3, 2**20])
    def test_fee_vector_any_block_size(self, chain_blocks, monkeypatch):
        monkeypatch.setattr(market, "CHAIN_BLOCKS", chain_blocks)
        self.assert_vector_same(REF, 10_000, chains=3)

    def test_fee_vector_more_chains_than_chain_blocks(self, monkeypatch):
        monkeypatch.setattr(market, "CHAIN_BLOCKS", 64)
        assert self.block(100) == 1
        self.assert_vector_same(REF, 20_000, chains=100)

    def test_fee_vector_zero_sigma(self):
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        self.assert_vector_same(params, 20_000, chains=250)
