"""Randomized invariant suites (hypothesis)."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from flexmarket.capacity import CapacityConfig, CapacityPool, build_pool, settle
from flexmarket.plants import PowerPlant, StartUpTime, flexibilities_for, flexibility
from flexmarket.spotmarket import MarketConfig, clear, make_offers

RUNS = settings(max_examples=200, deadline=None)

money = st.fractions(min_value=0, max_value=200, max_denominator=20)
capacity_mw = st.fractions(min_value=Fraction(1, 4), max_value=50, max_denominator=8)
start_up = st.one_of(
    st.none(),
    st.fractions(min_value=0, max_value=100, max_denominator=10),
)


@st.composite
def plant_lists(draw, min_size=1, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    plants = []
    for i in range(n):
        hours = draw(start_up)
        plants.append(
            PowerPlant(
                id=f"plant{i:02d}",
                start_up_time=StartUpTime(hours),
                marginal_cost=draw(money),
                capacity=draw(capacity_mw),
            )
        )
    return plants


@st.composite
def markets(draw, plants_strategy=plant_lists(), demand_over_capacity=False):
    plants = draw(plants_strategy)
    total = sum(p.capacity for p in plants)
    # draw a ratio rather than an absolute demand: total's denominator can
    # exceed what st.fractions accepts as a bound
    hi = 2 if demand_over_capacity else 1
    ratio = draw(st.fractions(min_value=0, max_value=hi, max_denominator=16))
    p0 = draw(money)
    return plants, MarketConfig(p0, ratio * total)


@st.composite
def pools(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    participants = tuple(
        (
            f"reserve{i:02d}",
            draw(st.fractions(min_value=Fraction(51, 100), max_value=1,
                              max_denominator=100)),
            draw(capacity_mw),
        )
        for i in range(n)
    )
    return CapacityPool(participants)


class TestSettlementProperties:
    @RUNS
    @given(pools(), money)
    def test_fee_conservation(self, pool, cf):
        payments = settle(pool, cf).payments
        assert sum(payments.values(), Fraction(0)) == cf  # exact, beats 1e-9
        assert all(v >= 0 for v in payments.values())

    @RUNS
    @given(plant_lists(max_size=8), money, st.data())
    def test_payments_sum_to_cf_whenever_settle_returns(self, plants, cf, data):
        # any pool build_pool accepts, from the auto rule or an explicit list
        # that may repeat ids or name dispatched plants, with or without overlap
        phis = flexibilities_for(plants)
        ids = [p.id for p in plants]
        eligible = [pid for pid in ids if phis[pid] > Fraction(1, 2)]
        dispatched = data.draw(st.sets(st.sampled_from(ids)))
        participants = data.draw(
            st.none() | st.lists(st.sampled_from(eligible or ids), max_size=2 * len(ids))
        )
        try:
            config = CapacityConfig(
                participants=None if participants is None else tuple(participants),
                allow_overlap=data.draw(st.booleans()),
            )
            pool = build_pool(plants, config, dispatched)
            payments = settle(pool, cf).payments
        except ValueError:  # ineligible, overlapping, repeated, or no one to pay
            return
        assert sum(payments.values(), Fraction(0)) == cf
        assert len(payments) == len(pool.participants)

    @RUNS
    @given(pools(), money, st.fractions(min_value=0, max_value=10, max_denominator=12))
    def test_homogeneity_and_share_invariance(self, pool, cf, scale):
        base = settle(pool, cf).payments
        scaled = settle(pool, scale * cf).payments
        for pid in base:
            assert scaled[pid] == scale * base[pid]
        if cf > 0:
            shares = {pid: v / cf for pid, v in base.items()}
            other = settle(pool, cf + 17).payments
            assert shares == {pid: v / (cf + 17) for pid, v in other.items()}

    @RUNS
    @given(pools(), money)
    def test_monotone_shares(self, pool, cf):
        if cf == 0:
            return
        payments = settle(pool, cf).payments
        weight = {pid: phi * cap for pid, phi, cap in pool.participants}
        ids = list(weight)
        for a in ids:
            for b in ids:
                if weight[a] > weight[b]:
                    assert payments[a] > payments[b]


class TestClearingProperties:
    @RUNS
    @given(markets(demand_over_capacity=True))
    def test_dispatch_conservation(self, market):
        plants, config = market
        result = clear(make_offers(plants, config), config)
        assert sum(result.dispatch.values(), Fraction(0)) == min(
            config.demand, result.total_capacity
        )
        assert result.blackout == (config.demand > result.total_capacity)

    @RUNS
    @given(plant_lists(), money, money, start_up)
    def test_uniform_phi_never_reorders(self, plants, p0, demand, shared_hours):
        # when every plant has the same start-up time, and so the same score,
        # all offers shift by the same fee and the permutation must match the
        # zero-fee one
        shared = StartUpTime(shared_hours)
        plants = [PowerPlant(p.id, shared, p.marginal_cost, p.capacity) for p in plants]
        base = clear(
            make_offers(plants, MarketConfig(0, demand)), MarketConfig(0, demand)
        ).merit_order
        config = MarketConfig(p0, demand)
        shifted = clear(make_offers(plants, config), config).merit_order
        assert shifted == base

    @RUNS
    @given(markets())
    def test_dispatched_profits_nonnegative(self, market):
        plants, config = market
        result = clear(make_offers(plants, config), config)
        assert all(m >= 0 for m in result.profits.values())


def brute_force_min_cost(offers, capacities, demand):
    """Exhaustive dispatch oracle: every split into fully-dispatched plants
    plus an optional partially-dispatched marginal one."""
    price = {o.plant_id: o.offer_price for o in offers}
    ids = sorted(price)
    best_cost, best_dispatch = None, None
    for r in range(len(ids) + 1):
        for full in combinations(ids, r):
            cap_full = sum((capacities[i] for i in full), Fraction(0))
            base_cost = sum((price[i] * capacities[i] for i in full), Fraction(0))
            if cap_full == demand:
                candidates = [(base_cost, {i: capacities[i] for i in full})]
            elif cap_full < demand:
                rest = demand - cap_full
                candidates = [
                    (
                        base_cost + price[m] * rest,
                        {**{i: capacities[i] for i in full}, m: rest},
                    )
                    for m in ids
                    if m not in full and capacities[m] >= rest
                ]
            else:
                candidates = []
            for cost, dispatch in candidates:
                if best_cost is None or cost < best_cost:
                    best_cost, best_dispatch = cost, dispatch
    return best_cost, best_dispatch


class TestDispatchOracle:
    @RUNS
    @given(markets(plants_strategy=plant_lists(max_size=8)))
    def test_merit_dispatch_is_cost_minimal(self, market):
        plants, config = market
        offers = make_offers(plants, config)
        result = clear(offers, config)
        if result.blackout or config.demand == 0:
            return
        price = {o.plant_id: o.offer_price for o in offers}
        engine_cost = sum(
            (price[pid] * mw for pid, mw in result.dispatch.items()), Fraction(0)
        )
        oracle_cost, oracle_dispatch = brute_force_min_cost(
            offers, {p.id: p.capacity for p in plants}, config.demand
        )
        assert engine_cost == oracle_cost
        if len(set(price.values())) == len(price):  # ties allow equal-cost swaps
            assert result.dispatch == oracle_dispatch


class TestMeasureProperties:
    @RUNS
    @given(st.lists(st.fractions(min_value=0, max_value=1000, max_denominator=40),
                    min_size=2, max_size=12, unique=True))
    def test_hyperbolic_strictly_decreasing_on_random_grids(self, hours):
        scores = [flexibility(StartUpTime(h)) for h in sorted(hours)]
        assert all(a > b for a, b in zip(scores, scores[1:]))
        assert all(0 < s <= 1 for s in scores)

    @RUNS
    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=100))
    def test_hyperbolic_identity(self, hours):
        score = flexibility(StartUpTime(hours))
        assert score * (hours + 1) == 1
