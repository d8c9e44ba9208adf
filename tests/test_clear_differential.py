"""Differential test: one clearing (score, offers, merit order, the integer
fill and the exact sums) against a plain Fraction reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from flexmarket.analysis import clear_scenario
from flexmarket.flexibility import StartUpTime
from flexmarket.plants import PowerPlant
from flexmarket.scenario import Scenario, toy_grid
from flexmarket.spotmarket import MarketConfig

RUNS = settings(max_examples=300, deadline=None)

start_up = st.one_of(
    st.none(),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=100, max_denominator=10),
)
money = st.one_of(
    st.integers(min_value=0, max_value=20).map(Fraction),
    st.fractions(min_value=0, max_value=200, max_denominator=20),
)
# coprime and large denominators make the fill grow its common denominator
capacity_mw = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from([1, 2, 3, 7, 10, 97, 100, 10**18 + 9, 10**20 + 39]),
).filter(lambda c: c <= 500)


def reference_clearing(scenario):
    """Everything `clear_scenario` reports, computed the plain way: phi as
    1/(h + 1), offers mc + (1 - phi)·p0, `sorted` on the exact key, and the
    fill loop on Fractions."""
    config = scenario.market
    phi = {
        p.id: Fraction(0) if p.start_up_time.hours is None
        else 1 / (p.start_up_time.hours + 1)
        for p in scenario.plants
    }
    offers = {
        p.id: (p.marginal_cost + (1 - phi[p.id]) * config.reference_price_p0,
               (1 - phi[p.id]) * config.reference_price_p0)
        for p in scenario.plants
    }
    stack = sorted(scenario.plants, key=lambda p: (offers[p.id][0], -phi[p.id], p.id))
    dispatch = {}
    remaining = config.demand
    clearing_price = Fraction(0)
    for plant in stack:
        if remaining == 0:
            break
        mw = min(plant.capacity, remaining)
        dispatch[plant.id] = mw
        remaining -= mw
        clearing_price = offers[plant.id][0]
    fee_ledger = {pid: offers[pid][1] * mw for pid, mw in dispatch.items()}
    profits = {pid: clearing_price - offers[pid][0] for pid in dispatch}
    return {
        "merit_order": tuple(p.id for p in stack),
        "offers": [(offers[p.id][0], offers[p.id][1], phi[p.id], p.capacity)
                   for p in stack],
        "dispatch": dispatch,
        "clearing_price": clearing_price,
        "fee_ledger": fee_ledger,
        "profits": profits,
        "total_fee_cf": sum(fee_ledger.values(), Fraction(0)),
        "total_capacity": sum((p.capacity for p in scenario.plants), Fraction(0)),
        "blackout": remaining > 0,
    }


def observed(result):
    return {
        "merit_order": result.merit_order,
        "offers": [(o.offer_price, o.fee_rate, o.phi, o.capacity) for o in result.offers],
        "dispatch": result.dispatch,
        "clearing_price": result.clearing_price,
        "fee_ledger": result.fee_ledger,
        "profits": result.profits,
        "total_fee_cf": result.total_fee_cf,
        "total_capacity": result.total_capacity,
        "blackout": result.blackout,
    }


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    plants = []
    for i in range(n):
        if plants and draw(st.booleans()):
            # a copy of an earlier plant under a new id: an equal offer
            twin = draw(st.sampled_from(plants))
            plants.append(twin._replace(id=f"plant{i:02d}"))
            continue
        hours = draw(start_up)
        plants.append(
            PowerPlant(
                id=f"plant{i:02d}",
                start_up_time=StartUpTime(hours),
                marginal_cost=draw(money),
                capacity=draw(capacity_mw),
            )
        )
    plants = tuple(draw(st.permutations(plants)))
    p0 = draw(money)
    # zero demand, demand that fills the first k plants of the merit order
    # exactly, any share of the capacity, or a blackout
    stack = reference_clearing(
        Scenario(plants=plants, market=MarketConfig(p0, 0))
    )["merit_order"]
    capacity = {p.id: p.capacity for p in plants}
    k = draw(st.integers(min_value=0, max_value=n))
    total = sum(capacity.values())
    demand = draw(st.one_of(
        st.just(Fraction(0)),
        st.just(sum((capacity[pid] for pid in stack[:k]), Fraction(0))),
        st.fractions(min_value=0, max_value=1, max_denominator=16).map(lambda r: r * total),
        st.fractions(min_value=1, max_value=2, max_denominator=16).map(
            lambda r: r * total + Fraction(1, 10**20 + 39)),
    ))
    return Scenario(plants=plants, market=MarketConfig(p0, demand))


class TestClearMatchesReference:
    @RUNS
    @given(scenarios())
    def test_every_reported_field_equal(self, scenario):
        assert observed(clear_scenario(scenario)) == reference_clearing(scenario)

    def test_toy_grid(self):
        for p0 in (0, 10, 70):
            for demand in (0, 5, 25, Fraction(37, 3), 40, 55):
                scenario = toy_grid(p0, demand)
                assert observed(clear_scenario(scenario)) == reference_clearing(scenario)
