"""Differential test: the integer-key sweep, read back as points and change
points, against per-point clearings and the capacity path's reserve and
paradox at each point; and its grid check against Fraction comparisons."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket.analysis import SweepPoint, clear_scenario, sweep_p0
from flexmarket.capacity import (
    CapacityConfig,
    UnallocatableFeeError,
    build_pool,
    settle,
)
from flexmarket.flexibility import StartUpTime, hyperbolic_measure
from flexmarket.plants import PowerPlant, flexibilities_for
from flexmarket.scenario import Scenario, toy_grid
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
    clearing's C_f) gives there, as (points, change points). Where that path
    rejects the pool, raise its ValueError, naming the p0."""
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
    return tuple(points), tuple(change_points)


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


def assert_matches_brute_force(scenario, grid):
    sweep = sweep_p0(scenario, grid)
    points, change_points = brute_force_sweep(scenario, grid)
    assert sweep.points == points
    assert sweep.change_points == change_points


class TestSweepMatchesPerPointClearing:
    @RUNS
    @given(scenarios(), grids)
    def test_points_and_change_points_equal(self, scenario, grid):
        try:
            brute_force_sweep(scenario, grid)
        except ValueError as exc:  # capacity would exit 1 at some grid point
            with pytest.raises(ValueError) as raised:
                sweep_p0(scenario, grid)
            assert str(raised.value) == str(exc)
            return
        assert_matches_brute_force(scenario, grid)

    def test_toy_grid_fine(self, toy):
        assert_matches_brute_force(toy, [Fraction(i, 4) for i in range(0, 321)])


@st.composite
def near_grids(draw):
    """Non-negative grids, half of them strictly ascending, with repeats,
    descending pairs and neighbours within 1/10**k of each other over
    distinct denominators."""
    grid = []
    for x in draw(st.lists(st.fractions(min_value=0, max_value=100,
                                        max_denominator=50), min_size=1, max_size=8)):
        grid.append(x)
        eps = Fraction(1, draw(st.integers(min_value=2, max_value=10**30)))
        grid.extend(draw(st.sampled_from([[], [x], [x + eps], [x + eps, x]])))
    if draw(st.booleans()):
        grid = sorted(set(grid))
    return grid


TOY = toy_grid(10, 25)


class TestGridCheck:
    @RUNS
    @given(near_grids())
    def test_raises_iff_not_strictly_ascending(self, grid):
        if any(a >= b for a, b in zip(grid, grid[1:])):
            with pytest.raises(ValueError, match="strictly ascending"):
                sweep_p0(TOY, grid)
        else:
            assert sweep_p0(TOY, grid).grid == tuple(grid)
