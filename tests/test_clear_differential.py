"""Differential test: one clearing (score, offers, merit order, the integer
fill and the exact sums) against the reference's."""

from fractions import Fraction

from hypothesis import given, settings

import reference as ref
from flexmarket.scenario import _scenario_from_dict as scenario_of
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
