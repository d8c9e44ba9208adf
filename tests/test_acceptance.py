"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 4's exact-mode fee totals are asserted exactly as stated even
though they are known to be unreachable: the stated 152.25 / 788.25 EUR/h
come from summing display-rounded per-plant addends (the CHP fee rate
rounded to 1.45 / 10.15), while full-precision arithmetic, which every
other criterion and the stated invariants require, gives
(10 + 10/51 + 170/117 + 9 + 500/51) * 5 = 152.2649... and
(70 + 70/51 + 7.5 + 1190/117 + 3500/51) * 5 = 788.3547... EUR/h.
That test fails by design rather than papering over the inconsistency.
"""

import ast
from fractions import Fraction
from pathlib import Path

from flexmarket.analysis import sweep_p0
from flexmarket.capacity import CapacityConfig, build_pool, settle
from flexmarket.scenario import toy_grid
from flexmarket.spotmarket import clear_scenario, market_wide_fee_intensity, total_fee

from flexmarket._numeric import ratio_number
from reference import sweep_rows


def rounded(x):
    """x rounded to an int, ties away from zero, as reports show it."""
    return ratio_number(x.numerator, x.denominator, True)


def verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


TABLE_II = {
    10: {"wind": 11, "hydro": 1, "gas": 91, "chp": 51, "ccgt": 58, "coal": 69,
         "lignite": 49, "nuclear": 15},
    70: {"wind": 71, "hydro": 2, "gas": 98, "chp": 60, "ccgt": 108, "coal": 120,
         "lignite": 103, "nuclear": 74},
}

PROFITS = {
    10: {"wind": 40, "hydro": 50, "chp": 0, "lignite": 2, "nuclear": 37},
    70: {"wind": 27, "hydro": 95, "chp": 37, "gas": 0, "nuclear": 24},
}


def test_criterion_1_offer_table_reproduction():
    ok = True
    for p0, expected in TABLE_II.items():
        result = clear_scenario(toy_grid(p0, 25))
        for offer in result.offers:
            displayed = rounded(offer.offer_price)
            ok &= abs(displayed - expected[offer.plant_id]) <= 1
    verdict("1 offer-price table (both reference prices, +/-1)", ok)


def test_criterion_2_profit_tables():
    ok = True
    for p0, expected in PROFITS.items():
        result = clear_scenario(toy_grid(p0, 25))
        ok &= set(result.profits) == set(expected)
        for pid, margin in expected.items():
            ok &= abs(rounded(result.profits[pid]) - margin) <= 1
    verdict("2 profit tables at q=25 (both reference prices, +/-1)", ok)


def test_criterion_3_fee_intensity():
    at10 = market_wide_fee_intensity(clear_scenario(toy_grid(10, 25)).offers)
    at70 = market_wide_fee_intensity(clear_scenario(toy_grid(70, 25)).offers)
    ok = abs(at10 - Fraction("48.4")) <= Fraction("0.05")
    ok &= abs(at70 - 339) <= Fraction("0.5")
    verdict("3 market-wide fee intensity 48.4 / 339", ok)


def test_criterion_4_fee_pool_rounded_mode():
    result = clear_scenario(toy_grid(70, 25))
    verdict("4a fee pool, rounded mode = 790 exactly",
            total_fee(result, "paper-rounded") == 790)


def test_criterion_4_fee_pool_exact_mode_as_stated():
    # KNOWN FAILURE, see module docstring: the stated targets are themselves
    # rounded; full-precision totals are 788.3547 and 152.2650.
    at70 = total_fee(clear_scenario(toy_grid(70, 25)), "exact")
    at10 = total_fee(clear_scenario(toy_grid(10, 25)), "exact")
    ok = abs(at70 - Fraction("788.25")) <= Fraction("0.01")
    ok &= abs(at10 - Fraction("152.25")) <= Fraction("0.01")
    verdict("4b fee pool, exact mode = 788.25 / 152.25 (+/-0.01)", ok)


def test_criterion_4_documented_205_discrepancy():
    # the published 205 EUR/h does not follow from its own addends:
    # (10 + 1 + 1 + 9 + 10) * 5 = 155, and the exact pool is 152.26
    addends = (10 + 1 + 1 + 9 + 10) * 5
    exact = total_fee(clear_scenario(toy_grid(10, 25)), "exact")
    ok = addends == 155 and addends != 205
    ok &= abs(exact - Fraction("152.2649")) < Fraction("0.001")
    verdict("4c published 205 figure documented as inconsistent (155 / 152.26)", ok)


def test_criterion_5_settlement_table():
    toy = toy_grid(10, 25)
    pool = build_pool(
        toy.plants,
        CapacityConfig(participants=("hydro", "gas", "chp"), allow_overlap=True),
    )
    expected = {205: {"hydro": 74, "gas": 67, "chp": 64},
                790: {"hydro": 284, "gas": 259, "chp": 247}}
    ok = True
    for cf, column in expected.items():
        payments = settle(pool, Fraction(cf)).payments
        for pid, printed in column.items():
            ok &= abs(payments[pid] - printed) <= 1
    verdict("5 reliability-payment table, all six values (+/-1)", ok)


def test_criterion_6_merit_order_behavior():
    toy = toy_grid(10, 25)
    base = clear_scenario(toy, Fraction(0)).merit_order
    sweep = sweep_p0(toy, [Fraction(10), Fraction(70)])
    at10, at70 = sweep_rows(sweep)
    ok = at10.merit_order == base
    ok &= at70.merit_order != base
    ok &= at70.merit_order == ("hydro", "chp", "wind", "nuclear",
                               "gas", "lignite", "ccgt", "coal")
    ok &= not at10.paradox and at70.paradox
    verdict("6 merit-order change and reserve-depletion paradox", ok)


def test_criterion_7_property_suites_configured():
    # the suites themselves execute in tests/test_properties.py within the
    # same pytest run; here we pin their breadth, read from its source
    tree = ast.parse((Path(__file__).parent / "test_properties.py").read_text())
    runs = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["RUNS"])
    ok = ast.literal_eval(dict((k.arg, k.value) for k in runs.keywords)["max_examples"]) >= 200
    suites = ("TestSettlementProperties", "TestClearingProperties", "TestDispatchOracle",
              "TestMeasureProperties")
    methods = {f.name for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name in suites for f in node.body if isinstance(f, ast.FunctionDef)}
    ok &= methods.issuperset({
        "test_fee_conservation",
        "test_uniform_phi_never_reorders",
        "test_dispatch_conservation",
        "test_hyperbolic_strictly_decreasing_on_random_grids",
        "test_merit_dispatch_is_cost_minimal",
        "test_homogeneity_and_share_invariance",
    })
    verdict("7 randomized property suites present at >=200 cases each", ok)


def test_criterion_8_blackout_flag():
    ok = clear_scenario(toy_grid(10, 45)).blackout
    ok &= not clear_scenario(toy_grid(10, 40)).blackout
    verdict("8 blackout flag at demand 45 MW, clear at 40 MW", ok)
