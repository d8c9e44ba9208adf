from fractions import Fraction

import pytest

from flexmarket.analysis import (
    MAX_GRID_POINTS,
    P0Grid,
    p0_range,
    sweep_p0,
)
from flexmarket.capacity import eligible_plants
from flexmarket.plants import PowerPlant, StartUpTime
from flexmarket.scenario import Scenario, ScenarioError, toy_grid
from flexmarket.spotmarket import MarketConfig, clear_scenario
from reference import sweep_rows


def single_plant_scenario():
    plant = PowerPlant("only", StartUpTime(1), Fraction(10), Fraction(5))
    return Scenario(plants=(plant,), market=MarketConfig(0, 3))


class TestSweep:
    def test_p0_10_keeps_base_order(self, toy):
        base = clear_scenario(toy, Fraction(0)).merit_order
        (point,) = sweep_rows(sweep_p0(toy, [Fraction(10)]))
        assert point.merit_order == base
        assert not point.paradox
        assert point.reserve == {"gas"}

    def test_p0_70_changes_order_and_depletes_reserve(self, toy):
        base = clear_scenario(toy, Fraction(0)).merit_order
        (point,) = sweep_rows(sweep_p0(toy, [Fraction(70)]))
        assert point.merit_order != base
        assert point.paradox
        assert point.reserve == frozenset()
        assert {"hydro", "chp", "gas"} <= point.dispatched

    def test_change_points_recorded(self, toy):
        sweep = sweep_p0(toy, [Fraction(10), Fraction(70)])
        assert sweep.change_points == (Fraction(70),)

    def test_empty_scenario_rejected(self, toy):
        # a scenario without plants cannot be built, so there is none to sweep
        with pytest.raises(ValueError, match="at least one plant"):
            toy._replace(plants=())

    def test_grid_must_be_ascending(self, toy):
        with pytest.raises(ValueError):
            sweep_p0(toy, [Fraction(10), Fraction(5)])

    def test_partition_at_every_point(self, toy):
        all_ids = {p.id for p in toy.plants}
        eligible = set(eligible_plants(toy.plants))
        for point in sweep_rows(sweep_p0(toy, [Fraction(n) for n in range(0, 81, 5)])):
            rest = all_ids - point.dispatched - point.reserve
            assert point.dispatched | point.reserve | rest == all_ids
            assert point.dispatched & point.reserve == frozenset()
            assert rest.isdisjoint(eligible - point.dispatched)

    def test_cf_matches_ledger_recomputation(self, toy):
        grid = [Fraction(n) for n in range(0, 81, 5)]
        for point, p0 in zip(sweep_rows(sweep_p0(toy, grid)), grid):
            result = clear_scenario(toy, p0)
            assert point.total_fee_cf == sum(result.fee_ledger.values())

    def test_paradox_monotone_in_demand(self):
        # on equal-capacity grids, raising demand keeps the flag true
        for p0 in (Fraction(40), Fraction(70)):
            flags = [
                all(
                    pt.paradox
                    for pt in sweep_rows(sweep_p0(toy_grid(p0, Fraction(q)), [p0]))
                )
                for q in range(0, 41, 5)
            ]
            for earlier, later in zip(flags, flags[1:]):
                assert later or not earlier


def change_points(scenario, lo, hi, step):
    """The p0 grid points lo:hi:step whose merit order differs from the
    previous point's."""
    return sweep_p0(scenario, p0_range(lo, hi, step)).change_points


class TestFindFirstChange:
    def test_no_change_up_to_10(self, toy):
        assert change_points(toy, Fraction(0), Fraction(10), Fraction(1)) == ()

    def test_change_found_by_70(self, toy):
        changes = change_points(toy, Fraction(0), Fraction(70), Fraction(1))
        assert changes and changes[0] <= 70

    def test_golden_threshold_is_14(self, toy):
        # independently: lignite (40 + 0.9 p0) and CHP (50 + 17/117 p0)
        # cross at p0 = 10 / (0.9 - 17/117) = 11700/883 ~ 13.2503, the
        # earliest crossing, so the first integer grid point with a changed
        # order is 14
        crossing = Fraction(10) / (Fraction(9, 10) - Fraction(17, 117))
        assert 13 < crossing < 14
        assert change_points(toy, Fraction(0), Fraction(70), Fraction(1))[0] == 14

    def test_single_plant_never_changes(self):
        scenario = single_plant_scenario()
        assert change_points(scenario, Fraction(0), Fraction(100), Fraction(1)) == ()

    def test_bad_bounds_rejected(self, toy):
        with pytest.raises(ScenarioError, match="step"):
            change_points(toy, Fraction(0), Fraction(5), Fraction(0))

    def test_grid_length_is_bounded(self, toy):
        with pytest.raises(ScenarioError, match="limit"):
            change_points(toy, Fraction(0), Fraction(10**9), Fraction(1))


class TestP0Range:
    def test_same_points_as_repeated_addition(self):
        lo, hi, step = Fraction(1, 3), Fraction(7, 2), Fraction(2, 7)
        expected = []
        p0 = lo
        while p0 <= hi:
            expected.append(p0)
            p0 += step
        assert list(p0_range(lo, hi, step)) == expected

    def test_hi_is_inclusive_and_below_lo_is_empty(self):
        assert list(p0_range(Fraction(0), Fraction(2), Fraction(1))) == [0, 1, 2]
        assert list(p0_range(Fraction(2), Fraction(1), Fraction(1))) == []

    def test_numerators_over_one_denominator(self):
        # lo = 1/3 and step = 7/10 share the denominator 30; the grid is a
        # range of numerators, whatever its length
        grid = p0_range(Fraction(1, 3), Fraction(80), Fraction(7, 10))
        assert (grid.nums, grid.den) == (range(10, 2400, 21), 30)
        assert len(grid) == 114 and grid[113] == Fraction(2383, 30)
        sliced = grid[1:3]
        assert (sliced.nums, sliced.den, list(sliced)) == (
            range(31, 73, 21), 30, [Fraction(31, 30), Fraction(52, 30)])

    def test_cap_allows_exactly_max_points(self):
        top = Fraction(MAX_GRID_POINTS - 1)
        assert len(p0_range(Fraction(0), top, Fraction(1))) == MAX_GRID_POINTS
        with pytest.raises(ScenarioError):
            p0_range(Fraction(0), top + 1, Fraction(1))

    def test_step_must_be_positive(self):
        # else a zero step divides by zero and a negative one gives a
        # descending grid
        for step in (Fraction(0), Fraction(-1), Fraction(-1, 3)):
            with pytest.raises(ScenarioError, match="step must be > 0"):
                p0_range(Fraction(0), Fraction(-3), step)
            with pytest.raises(ScenarioError, match="step must be > 0"):
                p0_range(Fraction(0), Fraction(1), step)

    @pytest.mark.parametrize("den", [0, -1])
    def test_grid_denominator_must_be_positive(self, den):
        # a denominator of -1 once swept p0 = 0, -10, ..., -80 and reported
        # a negative C_f
        with pytest.raises(ValueError, match="denominator must be > 0"):
            P0Grid(range(0, 81, 10), den)
