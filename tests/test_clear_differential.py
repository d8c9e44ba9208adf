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

    @settings(max_examples=50, deadline=None)
    @given(ref.large_denominator_scenarios())
    def test_every_reported_field_equal_on_large_denominators(self, doc):
        assert_matches_reference(doc)

    def test_toy_grid(self):
        for p0 in (0, 10, 70):
            for demand in (0, 5, 25, Fraction(37, 3), 40, 55):
                assert_matches_reference(ref.toy(p0, demand))


def literal(x):
    """x as JSON text: an exact decimal as a JSON float ("12.5", "3.0"),
    other rationals as a "n/d" string; None beyond the parser's 100
    significant digits."""
    d, twos, fives = x.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    k = max(twos, fives)  # x·10**k is an int when d is left 1
    if d != 1:
        if max(len(str(abs(x.numerator))), len(str(x.denominator))) > 100:
            return None
        return json.dumps(f"{x.numerator}/{x.denominator}")
    digits = str(abs(x * 10**k)).rjust(k + 1, "0")
    text = f"{digits[:-k]}.{digits[-k:]}" if k else f"{digits}.0"
    if len(text.strip("0.")) > 100:
        return None
    return "-" + text if x < 0 else text


def json_text(value):
    """value as JSON text, each Fraction by `literal`; None if one has none."""
    if isinstance(value, Fraction):
        return literal(value)
    if isinstance(value, dict):
        parts = [(json.dumps(k) + ": ", json_text(v)) for k, v in value.items()]
    elif isinstance(value, list):
        parts = [("", json_text(v)) for v in value]
    else:
        return json.dumps(value)
    if any(text is None for _, text in parts):
        return None
    body = ", ".join(key + text for key, text in parts)
    return "{" + body + "}" if isinstance(value, dict) else "[" + body + "]"


class TestClearFromAFileMatchesReference:
    @RUNS
    @given(ref.scenarios())
    def test_every_reported_field_equal(self, doc):
        text = json_text(doc)
        assume(text is not None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(text)
            scenario = load_scenario(path)
        assert observed(clear_scenario(scenario)) == ref.clearing(ref.read(doc))

    def test_literals(self):
        assert [literal(Fraction(x)) for x in ("12.5", "3", "-1/8", "7/3", "1/40", "1/1024")] == [
            "12.5", "3.0", "-0.125", '"7/3"', "0.025", "0.0009765625"]
        assert literal(Fraction(1, 3**210)) is None  # a 101-digit denominator
