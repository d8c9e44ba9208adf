"""Differential test of the sweep report: `emit_sweep`, which writes each
run's columns from its integers, against the per-point emitter it replaced,
which rendered every point's Fractions. Grids come from `p0_range` and as
explicit lists (`test_sweep_differential.grids`)."""

import json
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket.analysis import p0_range, sweep_p0
from flexmarket._numeric import to_float
from flexmarket.flexibility import StartUpTime
from flexmarket.plants import PowerPlant
from flexmarket.reports import emit_sweep
from flexmarket.scenario import Scenario, toy_grid
from flexmarket.spotmarket import MarketConfig
from report_oracles import table_bytes
from test_sweep_differential import grids, scenarios

RUNS = settings(max_examples=200, deadline=None)
FORMATS = ("csv", "plain-table", "json")
MODES = ("exact", "paper-rounded")
HEADERS = [
    "p0", "clearing_price", "merit_order", "dispatched",
    "total_fee_cf", "reserve", "paradox",
]


def number(x):
    return x.numerator if x.denominator == 1 else to_float(x)


def shown(x, mode):
    if mode == "paper-rounded":  # half away from zero
        return int((1 if x >= 0 else -1) * floor(abs(x) + Fraction(1, 2)))
    return number(x)


def per_point_emit_sweep(sweep, format, mode):
    """The reference: one row per `SweepPoint`, each value rendered from its
    reduced Fraction."""
    rows = [
        [
            number(pt.p0),
            shown(pt.clearing_price, mode),
            "|".join(pt.merit_order),
            "|".join(sorted(pt.dispatched)),
            shown(pt.total_fee_cf, mode),
            "|".join(sorted(pt.reserve)),
            pt.paradox,
        ]
        for pt in sweep.points
    ]
    changes = [number(p) for p in sweep.change_points]
    if format == "json":
        doc = {"points": [dict(zip(HEADERS, row)) for row in rows],
               "change_points": changes}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    if format == "csv":
        lines = [",".join(HEADERS)] + [",".join(str(c) for c in row) for row in rows]
        body = ("\n".join(lines) + "\n").encode()
    else:
        body = table_bytes(HEADERS, rows)
    prefix = "# " if format == "csv" else ""
    return body + f"{prefix}change_points: {','.join(map(str, changes))}\n".encode()


def assert_same_report(sweep):
    """Every format and rounding mode gives the reference's bytes, or the
    reference's ValueError."""
    for format in FORMATS:
        for mode in MODES:
            try:
                expected = per_point_emit_sweep(sweep, format, mode)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    emit_sweep(sweep, format, mode)
                assert str(raised.value) == str(exc)
                continue
            assert emit_sweep(sweep, format, mode) == expected


def plant(pid, start_up, mc, capacity=5):
    return PowerPlant(pid, StartUpTime(start_up), Fraction(mc), Fraction(capacity))


def assert_halves_round_away_from_zero(grid):
    plants = (plant("a", 0, Fraction(5, 2)), plant("b", None, Fraction(1, 2)))
    sweep = sweep_p0(Scenario(plants, MarketConfig(0, Fraction(15, 2))), grid)
    halves = [pt.clearing_price for pt in sweep.points
              if pt.clearing_price.denominator == 2]
    assert halves and any(pt.total_fee_cf.denominator == 2 for pt in sweep.points)
    assert_same_report(sweep)
    rows = emit_sweep(sweep, "csv", "paper-rounded").decode().splitlines()
    assert rows[1].split(",")[:2] == ["0", "3"]  # price 5/2 shows as 3


@st.composite
def huge_scenarios(draw):
    """A random scenario with one plant's cost a non-integer near the float
    limit, about 2**1024, and every plant dispatched, that one last."""
    scenario = draw(scenarios())
    plants = list(scenario.plants)
    i = draw(st.integers(min_value=0, max_value=len(plants) - 1))
    cost = 2 ** draw(st.integers(min_value=1010, max_value=1035))
    cost += draw(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7),
                              max_denominator=7))
    plants[i] = plants[i]._replace(marginal_cost=cost)
    total = sum(p.capacity for p in plants)
    return scenario._replace(plants=tuple(plants), market=MarketConfig(0, total))


class TestEmitSweepMatchesPerPointReport:
    @RUNS
    @given(scenarios(), grids)
    def test_random_sweeps(self, scenario, grid):
        try:
            sweep = sweep_p0(scenario, grid)
        except ValueError:  # capacity would exit 1; nothing to report
            return
        assert_same_report(sweep)

    @settings(max_examples=60, deadline=None)
    @given(huge_scenarios(), grids)
    def test_values_near_the_float_limit(self, scenario, grid):
        try:
            sweep = sweep_p0(scenario, grid)
        except ValueError:
            return
        assert_same_report(sweep)

    def test_toy_grid_fine(self, toy):
        assert_same_report(sweep_p0(toy, [Fraction(i, 100) for i in range(8001)]))

    def test_integral_values(self):
        # phi = 1 offers its cost, phi = 0 its cost plus p0: integers at
        # integer p0
        plants = (plant("firm", 0, 7), plant("flat", None, 3), plant("peak", 0, 40))
        sweep = sweep_p0(Scenario(plants, MarketConfig(0, 8)),
                         [Fraction(p) for p in range(0, 12)])
        prices = [pt.clearing_price for pt in sweep.points]
        assert all(p.denominator == 1 for p in prices)
        assert any(pt.total_fee_cf > 0 for pt in sweep.points)
        assert_same_report(sweep)

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
        plants = (plant("cheap", None, 1), plant("dear", 0, cost))
        sweep = sweep_p0(Scenario(plants, MarketConfig(0, 10)), grid)
        with pytest.raises(ValueError) as expected:
            to_float(first_too_large)
        for format in FORMATS:
            with pytest.raises(ValueError) as raised:
                emit_sweep(sweep, format, "exact")
            assert str(raised.value) == str(expected.value)
        assert_same_report(sweep)
