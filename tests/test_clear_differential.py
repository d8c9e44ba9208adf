"""Differential test: one clearing (score, offers, merit order, the integer
fill and the exact sums) against the reference's, from a document and from
the file a JSON scenario would be."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings

import reference as ref
from flexmarket.scenario import _scenario_from_dict as scenario_of
from flexmarket.scenario import load_scenario
from flexmarket.spotmarket import clear_scenario

RUNS = settings(max_examples=300, deadline=None)


def observed(result):
    """Everything a ClearingResult reports, in the reference's fields."""
    return ref.Clearing(
        merit_order=result.merit_order,
        offers=list(result.offers),
        dispatch=result.dispatch,
        clearing_price=result.clearing_price,
        fee_ledger=result.fee_ledger,
        profits=result.profits,
        total_fee_cf=result.total_fee_cf,
        consumed_energy=result.consumed_energy,
        total_capacity=result.total_capacity,
        blackout=result.blackout,
    )


def assert_matches_reference(doc):
    assert observed(clear_scenario(scenario_of(doc))) == ref.clearing(ref.read(doc))


class TestClearMatchesReference:
    @RUNS
    @given(ref.scenarios())
    def test_every_reported_field_equal(self, doc):
        assert_matches_reference(doc)

    def test_toy_grid(self):
        for p0 in (0, 10, 70):
            for demand in (0, 5, 25, Fraction(37, 3), 40, 55):
                assert_matches_reference(ref.toy(p0, demand))


def literal(x):
    """x as JSON text: an exact decimal as a JSON float ("12.5", "3.0"),
    other rationals as a "n/d" string."""
    d, twos, fives = x.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    k = max(twos, fives)  # x·10**k is an int when d is left 1
    if d != 1:
        assume(max(len(str(abs(x.numerator))), len(str(x.denominator))) <= 100)
        return json.dumps(f"{x.numerator}/{x.denominator}")
    digits = str(abs(x * 10**k)).rjust(k + 1, "0")
    text = f"{digits[:-k]}.{digits[-k:]}" if k else f"{digits}.0"
    assume(len(text.strip("0.")) <= 100)
    return "-" + text if x < 0 else text


def json_text(value):
    if isinstance(value, Fraction):
        return literal(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


class TestClearFromAFileMatchesReference:
    @RUNS
    @given(ref.scenarios())
    def test_every_reported_field_equal(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json_text(doc))
            scenario = load_scenario(path)
        assert observed(clear_scenario(scenario)) == ref.clearing(ref.read(doc))

    def test_literals(self):
        assert [literal(Fraction(x)) for x in ("12.5", "3", "-1/8", "7/3", "1/40", "1/1024")] == [
            "12.5", "3.0", "-0.125", '"7/3"', "0.025", "0.0009765625"]
