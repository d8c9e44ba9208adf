"""Differential test: the integer-key sweep against per-point clearings and
the capacity path's reserve and paradox at each point."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket.analysis import SweepPoint, SweepResult, clear_scenario, sweep_p0
from flexmarket.capacity import (
    CapacityConfig,
    UnallocatableFeeError,
    build_pool,
    settle,
)
from flexmarket.flexibility import StartUpTime, hyperbolic_measure
from flexmarket.plants import PowerPlant, flexibilities_for
from flexmarket.scenario import Scenario
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
    """The reference: one full clearing per grid point, with the reserve and
    the paradox that the capacity path (`build_pool` + `settle` on the
    clearing's C_f) gives there. Where that path rejects the pool, raise its
    ValueError, naming the p0."""
    phi = scenario.flexibilities()
    points = []
    change_points = []
    previous_order = None
    for p0 in grid:
        result = clear_scenario(scenario, p0)
        dispatched = frozenset(result.dispatch)
        try:
            pool = build_pool(scenario.plants, phi, scenario.capacity, dispatched)
            settle(pool, result.total_fee_cf)
            paradox = False
        except UnallocatableFeeError:
            paradox = True
        except ValueError as exc:
            raise ValueError(f"p0 = {p0}: {exc}") from None
        points.append(
            SweepPoint(
                p0=p0,
                clearing_price=result.clearing_price,
                merit_order=result.merit_order,
                dispatched=dispatched,
                total_fee_cf=result.total_fee_cf,
                reserve=frozenset(pid for pid, _, _ in pool.participants),
                paradox=paradox,
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
    # the auto pool, or a pinned list of eligible plants (possibly empty)
    phi = flexibilities_for(plants, hyperbolic_measure())
    eligible = [p.id for p in plants if phi[p.id] > threshold]
    pinned = st.lists(st.sampled_from(eligible), unique=True) if eligible else st.just([])
    participants = draw(st.none() | pinned.map(tuple))
    return Scenario(
        plants=tuple(plants),
        market=MarketConfig(0, ratio * total),
        capacity=CapacityConfig(threshold, participants, draw(st.booleans())),
    )


grids = st.lists(
    st.fractions(min_value=0, max_value=100, max_denominator=4),
    min_size=1, max_size=15, unique=True,
).map(sorted)


class TestSweepMatchesPerPointClearing:
    @RUNS
    @given(scenarios(), grids)
    def test_points_and_change_points_equal(self, scenario, grid):
        try:
            expected = brute_force_sweep(scenario, grid)
        except ValueError as exc:  # capacity would exit 1 at some grid point
            with pytest.raises(ValueError) as raised:
                sweep_p0(scenario, grid)
            assert str(raised.value) == str(exc)
            return
        assert sweep_p0(scenario, grid) == expected

    def test_toy_grid_fine(self, toy):
        grid = [Fraction(i, 4) for i in range(0, 321)]
        assert sweep_p0(toy, grid) == brute_force_sweep(toy, grid)
