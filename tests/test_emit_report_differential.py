"""Differential test of the clearing report: `emit_report` of a clearing,
which writes each column from int pairs and the rows through one template
per block, against the reference's clearing written a row at a time. Also
`merit_order`, which breaks equal offers on int ranks, against `sorted` on
the reference's key."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket.analysis import sweep_p0
from flexmarket.reports import emit_report, emit_sweep
from flexmarket.scenario import _scenario_from_dict as scenario_of
from flexmarket.spotmarket import MarketConfig, Offer, clear, clear_scenario, merit_order

RUNS = settings(max_examples=200, deadline=None)
# beyond the float range: the exact report cannot write it and names it
HUGE = Fraction(10**350)


def assert_same_report(doc, result=None):
    """`emit_report` of the document's clearing (or of `result`) gives the
    reference's bytes in every text format and mode, or its ValueError."""
    if result is None:
        result = clear_scenario(scenario_of(doc))
    expected = ref.clearing(ref.read(doc))
    ref.assert_same_reports(lambda f, m: emit_report(result, f, m),
                            lambda f, m: ref.clearing_report(expected, f, m))


@st.composite
def scenarios_with_huge_costs(draw):
    """A scenario where some plants cost HUGE or more, so that the first
    value too large for a float sits in different rows and columns: an
    offer, a margin, or a fee rate when p0 is HUGE too."""
    doc = draw(ref.scenarios())
    for i in draw(st.sets(st.integers(0, len(doc["plants"]) - 1), min_size=1)):
        extra = draw(st.fractions(min_value=0, max_value=10, max_denominator=7))
        doc["plants"][i] = dict(doc["plants"][i], marginal_cost_eur_per_mwh=HUGE + extra)
    if draw(st.booleans()):
        doc["market"]["p0_eur_per_mwh"] = HUGE / 3
    return doc


class TestEmitReportMatchesRowDicts:
    @RUNS
    @given(ref.scenarios())
    def test_every_format_and_mode(self, doc):
        assert_same_report(doc)

    @RUNS
    @given(scenarios_with_huge_costs())
    def test_values_beyond_the_float_range(self, doc):
        assert_same_report(doc)

    def test_huge_marginal_cost_names_the_same_value(self):
        # the cheapest plant is the only one dispatched; its margin is 0,
        # and the first row's offer is the value that cannot be written
        doc = ref.toy(10, 1)
        doc["plants"] = [dict(p, marginal_cost_eur_per_mwh=HUGE + 1) for p in doc["plants"]]
        with pytest.raises(ValueError, match="too large to report"):
            ref.clearing_report(ref.clearing(ref.read(doc)), "csv", "exact")
        assert_same_report(doc)

    def test_toy_grid(self):
        for p0 in (0, 10, 70):
            for demand in (0, 5, 25, Fraction(37, 3), 40, 55):
                assert_same_report(ref.toy(p0, demand))

    @pytest.mark.parametrize("demand", [0, 25])
    def test_no_offers(self, demand):
        doc = {"plants": [], "market": {"p0_eur_per_mwh": 10, "demand_mw": demand}}
        assert_same_report(doc, clear([], MarketConfig(10, demand)))


# Plant ids with the characters a row template or an encoder treats
# specially: format and %-directives, markup, backslashes and escape-like
# text, comment marks, separators and non-ASCII text; one for each plant a
# drawn scenario can have. (`PowerPlant` rejects ids with `,`, `"`, `|` or
# unprintable characters, which no report could write as one field.)
ODD_IDS = ["a%s", "b%%", "c<q>&", "d{0}", "e}", "\u00e9\u6f22", "f\\g", "g\\u0009h",
           "h# i", "i  j", "j;k", "k'l"]


def renamed(doc, ids):
    names = dict(zip((p["id"] for p in doc["plants"]), ids))
    capacity = dict(doc.get("capacity", {}))
    if capacity.get("participants", "auto") != "auto":
        capacity["participants"] = [names[pid] for pid in capacity["participants"]]
    return dict(doc, plants=[dict(p, id=names[p["id"]]) for p in doc["plants"]],
                capacity=capacity)


class TestOddPlantIds:
    @settings(max_examples=100, deadline=None)
    @given(ref.scenarios(), st.permutations(ODD_IDS))
    def test_clearing_reports(self, doc, ids):
        assert_same_report(renamed(doc, ids))

    @pytest.mark.parametrize("p0", [0, 10, 70])
    def test_toy_grid_clearing_and_sweep(self, p0):
        doc = renamed(ref.toy(p0, 25), ODD_IDS)
        assert_same_report(doc)
        grid = [Fraction(k, 4) for k in range(0, 321)]
        sweep = sweep_p0(scenario_of(doc), grid)
        expected = ref.sweep(ref.read(doc), grid)
        ref.assert_same_reports(lambda f, m: emit_sweep(sweep, f, m),
                                lambda f, m: ref.sweep_report(*expected, f, m))


# Few prices, two of them closer than 2**-64, so that most offers tie on
# the coarse sort key or on the exact price; scores in [0, 1] that are
# mostly distinct, some closer than 2**-64, and some shared.
prices = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**70),
                          Fraction(7), Fraction(7, 2)])
scores = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.sampled_from([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**80), Fraction(0),
                     Fraction(1)]),
)


@st.composite
def offer_lists(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ids = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    return [Offer(pid, draw(prices), Fraction(0), draw(scores), Fraction(1)) for pid in ids]


class TestMeritOrderMatchesSorted:
    @settings(max_examples=300, deadline=None)
    @given(offer_lists())
    def test_equal_prices_break_on_higher_phi_then_id(self, offers):
        expected = sorted(offers, key=ref.merit_key)
        assert merit_order(offers) == expected
