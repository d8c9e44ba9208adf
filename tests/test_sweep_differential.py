"""Differential test: the integer-key sweep, read back as points and change
points, against per-point clearings and the capacity path's reserve and
paradox at each point; and its grid check against Fraction comparisons.

Grids are drawn two ways: from `p0_range`, whose lo and step have
independent denominators, and as explicit lists of Fractions, which
`sweep_p0` puts over the lcm of their denominators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket import analysis
from flexmarket.analysis import SweepPoint, clear_scenario, p0_range, sweep_p0
from flexmarket.capacity import (
    CapacityConfig,
    UnallocatableFeeError,
    build_pool,
    settle,
)
from flexmarket.flexibility import StartUpTime
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
    plants = draw(st.permutations(plants))
    total = sum(p.capacity for p in plants)
    # up to twice the total capacity: zero demand and blackout both occur
    ratio = draw(st.fractions(min_value=0, max_value=2, max_denominator=16))
    threshold = draw(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                     max_denominator=100)
    )
    # the auto pool, or a pinned list of eligible plants (possibly empty)
    phi = flexibilities_for(plants)
    eligible = [p.id for p in plants if phi[p.id] > threshold]
    pinned = st.lists(st.sampled_from(eligible), unique=True) if eligible else st.just([])
    participants = draw(st.none() | pinned.map(tuple))
    return Scenario(
        plants=tuple(plants),
        market=MarketConfig(0, ratio * total),
        capacity=CapacityConfig(threshold, participants, draw(st.booleans())),
    )


@st.composite
def ranged_grids(draw):
    """A `p0_range` grid of 1-15 points."""
    lo = draw(st.fractions(min_value=0, max_value=60, max_denominator=12))
    step = draw(st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12))
    count = draw(st.integers(min_value=1, max_value=15))
    return p0_range(lo, lo + (count - 1) * step, step)


grids = st.one_of(
    ranged_grids(),
    # shared small denominators: integer points, where offers often tie
    st.lists(st.fractions(min_value=0, max_value=100, max_denominator=4),
             min_size=1, max_size=15, unique=True).map(sorted),
    # one denominator per point
    st.lists(st.fractions(min_value=0, max_value=100, max_denominator=30),
             min_size=1, max_size=15, unique_by=lambda x: x.denominator).map(sorted),
)


@st.composite
def scenarios_with_long_grids(draw):
    """A scenario and an arithmetic grid lo + i·step of 50-400 points. If
    two offers cross at some p0 > 0, the grid puts one such crossing at a
    drawn index, so a run of any length ends there: the galloping search
    doubles about log2 L times for a run of L points, then bisects. The grid
    is a `p0_range` grid or the same points as a list."""
    scenario = draw(scenarios())
    step = draw(st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100))
    count = draw(st.integers(min_value=50, max_value=400))
    phi = scenario.flexibilities()
    # offers mc + (1 - phi)·p0 of two plants are equal at this p0
    crossings = sorted(x for x in {
        (q.marginal_cost - p.marginal_cost) / (phi[q.id] - phi[p.id])
        for p in scenario.plants for q in scenario.plants if phi[p.id] != phi[q.id]
    } if x > 0)
    if crossings:
        at = draw(st.sampled_from(crossings))
        lo = max(at - draw(st.integers(min_value=0, max_value=count - 1)) * step, 0)
    else:
        lo = draw(st.fractions(min_value=0, max_value=40, max_denominator=4))
    grid = p0_range(lo, lo + (count - 1) * step, step)
    return scenario, grid if draw(st.booleans()) else list(grid)


def assert_matches_brute_force(scenario, grid):
    sweep = sweep_p0(scenario, grid)
    points, change_points = brute_force_sweep(scenario, grid)
    assert sweep.points == points
    assert sweep.change_points == change_points


def assert_same_result_or_error(scenario, grid):
    try:
        brute_force_sweep(scenario, grid)
    except ValueError as exc:  # capacity would exit 1 at some grid point
        with pytest.raises(ValueError) as raised:
            sweep_p0(scenario, grid)
        assert str(raised.value) == str(exc)
        return
    assert_matches_brute_force(scenario, grid)


# The toy grid's merit order changes at these points of the 0:80:1/100 grid.
TOY_CHANGE_POINTS = [Fraction(x) for x in ("13.26", "40", "53.89", "55.09",
                                             "57.33", "63.07")]


class TestSweepMatchesPerPointClearing:
    @RUNS
    @given(scenarios(), grids)
    def test_points_and_change_points_equal(self, scenario, grid):
        assert_same_result_or_error(scenario, grid)

    @settings(max_examples=60, deadline=None)
    @given(scenarios_with_long_grids())
    def test_long_runs(self, case):
        assert_same_result_or_error(*case)

    def test_toy_grid_fine(self, toy):
        assert_matches_brute_force(toy, [Fraction(i, 4) for i in range(0, 321)])

    @pytest.mark.parametrize("p0", [Fraction(0), Fraction(13), Fraction(1325, 100), Fraction(80)])
    def test_one_point_grid(self, toy, p0):
        assert len(sweep_p0(toy, [p0]).runs) == 1
        assert_matches_brute_force(toy, [p0])

    @pytest.mark.parametrize("hi, starts", [("13.25", [0]), ("13.26", [0, 1326])])
    def test_run_ends_at_the_last_point(self, toy, hi, starts):
        # up to 13.25 the first run fills the grid; at 13.26 a second run
        # starts at the last point
        grid = p0_range(Fraction(0), Fraction(hi), Fraction(1, 100))
        sweep = sweep_p0(toy, grid)
        assert [run.start for run in sweep.runs] == starts
        assert_matches_brute_force(toy, grid)

    def test_every_point_its_own_run(self, toy):
        grid = [Fraction(0), *TOY_CHANGE_POINTS]
        sweep = sweep_p0(toy, grid)
        assert [run.start for run in sweep.runs] == list(range(len(grid)))
        assert_matches_brute_force(toy, grid)


def count_orders(monkeypatch):
    """Count the merit orders `sweep_p0` computes from here on."""
    calls = []
    order_at = analysis._order_at

    def counted(*args):
        calls.append(args)
        return order_at(*args)

    monkeypatch.setattr(analysis, "_order_at", counted)
    return calls


class TestSortsPerRun:
    """The run search sorts at most 2⌈log₂ L⌉ + 1 times for a run of L
    points after the first point's sort, never once per point."""

    def test_fine_toy_grid(self, toy, monkeypatch):
        calls = count_orders(monkeypatch)
        grid = p0_range(Fraction(0), Fraction(80), Fraction(1, 100))
        sweep = sweep_p0(toy, grid)
        assert sweep.change_points == tuple(TOY_CHANGE_POINTS)
        bound = 1 + len(sweep.runs) * (2 * (len(grid) - 1).bit_length() + 1)
        assert bound == 190
        assert len(calls) <= bound

    def test_every_point_its_own_run(self, toy, monkeypatch):
        calls = count_orders(monkeypatch)
        grid = [Fraction(0), *TOY_CHANGE_POINTS]
        sweep_p0(toy, grid)
        assert len(calls) == len(grid)


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
            assert tuple(sweep_p0(TOY, grid).grid) == tuple(grid)
