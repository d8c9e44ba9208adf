"""Differential test of the sweep report: `emit_sweep`, which writes each
run's columns from its integers, against the reference's per-point sweep
written a row at a time. Grids come from `p0_range` and as explicit lists
(`reference.grids`)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket.analysis import p0_range, sweep_p0
from flexmarket.reports import emit_sweep
from flexmarket.scenario import _scenario_from_dict as scenario_of

RUNS = settings(max_examples=200, deadline=None)
grids = ref.grids(p0_range)


def assert_same_report(doc, grid):
    """`emit_sweep` of the sweep gives the reference's bytes in every format
    and rounding mode, or its ValueError; returns the reference's points.
    A pool that capacity would reject (exit 1) leaves nothing to report."""
    try:
        sweep = sweep_p0(scenario_of(doc), grid)
    except ValueError:
        return None
    points, changes = ref.sweep(ref.read(doc), grid)
    ref.assert_same_reports(lambda f, m: emit_sweep(sweep, f, m),
                            lambda f, m: ref.sweep_report(points, changes, f, m))
    return points


def plant(pid, start_up, mc, capacity=5):
    return {"id": pid, "start_up_time_h": start_up, "marginal_cost_eur_per_mwh": Fraction(mc),
            "capacity_mw": Fraction(capacity)}


def scenario(plants, demand):
    return {"plants": plants, "market": {"demand_mw": Fraction(demand)}}


def assert_halves_round_away_from_zero(grid):
    doc = scenario([plant("a", 0, Fraction(5, 2)), plant("b", "inf", Fraction(1, 2))],
                   Fraction(15, 2))
    points = assert_same_report(doc, grid)
    assert any(pt.clearing_price.denominator == 2 for pt in points)
    assert any(pt.total_fee_cf.denominator == 2 for pt in points)
    rows = emit_sweep(sweep_p0(scenario_of(doc), grid), "csv", "paper-rounded")
    assert rows.decode().splitlines()[1].split(",")[:2] == ["0", "3"]  # price 5/2 shows as 3


@st.composite
def huge_scenarios(draw):
    """A random scenario with one plant's cost a non-integer near the float
    limit, about 2**1024, and every plant dispatched, that one last."""
    doc = draw(ref.scenarios())
    i = draw(st.integers(min_value=0, max_value=len(doc["plants"]) - 1))
    cost = 2 ** draw(st.integers(min_value=1010, max_value=1035))
    cost += draw(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7),
                              max_denominator=7))
    doc["plants"][i] = dict(doc["plants"][i], marginal_cost_eur_per_mwh=cost)
    doc["market"]["demand_mw"] = sum(p.capacity for p in ref.read(doc).plants)
    return doc


class TestEmitSweepMatchesPerPointReport:
    @RUNS
    @given(ref.scenarios(), grids)
    def test_random_sweeps(self, doc, grid):
        assert_same_report(doc, grid)

    @settings(max_examples=60, deadline=None)
    @given(huge_scenarios(), grids)
    def test_values_near_the_float_limit(self, doc, grid):
        assert_same_report(doc, grid)

    def test_toy_grid_fine(self):
        assert_same_report(ref.toy(), [Fraction(i, 100) for i in range(8001)])

    def test_integral_values(self):
        # phi = 1 offers its cost, phi = 0 its cost plus p0: integers at
        # integer p0
        doc = scenario([plant("firm", 0, 7), plant("flat", "inf", 3), plant("peak", 0, 40)], 8)
        points = assert_same_report(doc, [Fraction(p) for p in range(0, 12)])
        assert all(pt.clearing_price.denominator == 1 for pt in points)
        assert any(pt.total_fee_cf > 0 for pt in points)

    def test_exact_halves_round_away_from_zero(self):
        assert_halves_round_away_from_zero([Fraction(k, 2) for k in range(0, 13)])

    def test_exact_halves_on_a_p0_range_grid(self):
        assert_halves_round_away_from_zero(
            p0_range(Fraction(0), Fraction(6), Fraction(1, 2)))

    @pytest.mark.parametrize("grid, cost, first_too_large", [
        ([10**310 + Fraction(1, 3)], 1, 10**310 + Fraction(1, 3)),  # p0 itself
        # the price; at p0 = 1/3 the report's ratio for it is not reduced,
        # and its bit lengths differ by one less than the reduced value's
        ([Fraction(1, 3), Fraction(1, 2)], 10**400 + Fraction(1, 3),
         10**400 + Fraction(1, 3)),
        (p0_range(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)),
         10**400 + Fraction(1, 3), 10**400 + Fraction(1, 3)),
        # p0 is too large at the second point, the price already at the
        # first: the report names the first in row order, the price
        ([Fraction(1, 3), 10**310 + Fraction(1, 3)], 10**400 + Fraction(1, 3),
         10**400 + Fraction(1, 3)),
    ])
    def test_beyond_the_float_range_raises_to_floats_error(
        self, grid, cost, first_too_large
    ):
        doc = scenario([plant("cheap", "inf", 1), plant("dear", 0, cost)], 10)
        sweep = sweep_p0(scenario_of(doc), grid)
        with pytest.raises(ValueError) as expected:
            ref.shown(first_too_large)
        for format in ("plain-table", "csv", "json"):
            with pytest.raises(ValueError) as raised:
                emit_sweep(sweep, format, "exact")
            assert str(raised.value) == str(expected.value)
        assert_same_report(doc, grid)
