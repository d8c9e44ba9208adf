"""Differential test: the integer-key sweep against per-point clearings."""

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from flexmarket.analysis import SweepPoint, SweepResult, clear_scenario, sweep_p0
from flexmarket.capacity import eligible_plants
from flexmarket.flexibility import StartUpTime
from flexmarket.plants import PowerPlant
from flexmarket.scenario import CapacityConfig, Scenario
from flexmarket.spotmarket import MarketConfig

RUNS = settings(max_examples=200, deadline=None)

# Small shared value sets make equal offers common: plants with the same
# start-up time and cost tie at every p0, and plants with different scores
# tie exactly at grid points such as p0 = 10 for (0 + p0/2) and (5 + 0·p0).
start_up = st.one_of(
    st.none(),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=100, max_denominator=10),
)
money = st.one_of(
    st.integers(min_value=0, max_value=20).map(Fraction),
    st.fractions(min_value=0, max_value=200, max_denominator=20),
)
capacity_mw = st.fractions(min_value=Fraction(1, 4), max_value=50, max_denominator=8)


def brute_force_sweep(scenario, grid):
    """The reference: one full clearing per grid point."""
    eligible = set(
        eligible_plants(
            scenario.plants, scenario.flexibilities(), scenario.capacity.threshold
        )
    )
    points = []
    change_points = []
    previous_order = None
    for p0 in grid:
        result = clear_scenario(scenario, p0)
        dispatched = frozenset(result.dispatch)
        reserve = frozenset(eligible - dispatched)
        points.append(
            SweepPoint(
                p0=p0,
                clearing_price=result.clearing_price,
                merit_order=result.merit_order,
                dispatched=dispatched,
                total_fee_cf=result.total_fee_cf,
                reserve=reserve,
                paradox=bool(eligible) and not reserve,
            )
        )
        if previous_order is not None and result.merit_order != previous_order:
            change_points.append(p0)
        previous_order = result.merit_order
    return SweepResult(tuple(points), tuple(change_points))


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    plants = []
    for i in range(n):
        if plants and draw(st.booleans()):
            # a copy of an earlier plant under a new id: tied at every p0
            twin = draw(st.sampled_from(plants))
            plants.append(replace(twin, id=f"plant{i:02d}"))
            continue
        hours = draw(start_up)
        plants.append(
            PowerPlant(
                id=f"plant{i:02d}",
                start_up_time=StartUpTime.unbounded()
                if hours is None
                else StartUpTime(hours),
                marginal_cost=draw(money),
                capacity=draw(capacity_mw),
            )
        )
    plants = draw(st.permutations(plants))
    total = sum(p.capacity for p in plants)
    # up to twice the total capacity: zero demand and blackout both occur
    ratio = draw(st.fractions(min_value=0, max_value=2, max_denominator=16))
    threshold = draw(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                     max_denominator=100)
    )
    return Scenario(
        plants=tuple(plants),
        market=MarketConfig(0, ratio * total),
        capacity=CapacityConfig(threshold=threshold),
    )


grids = st.lists(
    st.fractions(min_value=0, max_value=100, max_denominator=4),
    min_size=1, max_size=15, unique=True,
).map(sorted)


class TestSweepMatchesPerPointClearing:
    @RUNS
    @given(scenarios(), grids)
    def test_points_and_change_points_equal(self, scenario, grid):
        assert sweep_p0(scenario, grid) == brute_force_sweep(scenario, grid)

    def test_toy_grid_fine(self, toy):
        grid = [Fraction(i, 4) for i in range(0, 321)]
        assert sweep_p0(toy, grid) == brute_force_sweep(toy, grid)
