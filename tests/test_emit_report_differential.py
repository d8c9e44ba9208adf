"""Differential test of the clearing report: `emit_report`, which writes
each column from int pairs and the rows through one template per block,
against the row-dict emitter it replaced, kept here as the oracle. Also
`merit_order`, which breaks equal offers on int ranks, against `sorted` on
the exact key."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket._numeric import ratio_number, to_number
from flexmarket.analysis import clear_scenario, sweep_p0
from flexmarket.reports import emit_report
from flexmarket.scenario import toy_grid
from flexmarket.spotmarket import MarketConfig, Offer, clear, merit_order, total_fee
from report_oracles import csv_bytes, table_bytes
from test_clear_differential import scenarios
from test_emit_sweep_differential import assert_same_report as assert_same_sweep_report

RUNS = settings(max_examples=200, deadline=None)
FORMATS = ("plain-table", "csv", "json")
MODES = ("exact", "paper-rounded")
HEADERS = ["plant_id", "phi", "fee_rate_eur_per_mwh", "offer_eur_per_mwh",
           "capacity_mw", "dispatch_mw", "profit_margin_eur_per_mwh", "fee_eur_per_h"]
# beyond the float range: the exact report cannot write it and names it
HUGE = Fraction(10**350)


def shown(x, mode):
    return ratio_number(x.numerator, x.denominator, mode == "paper-rounded")


def clearing_rows(result, mode):
    """One dict per offer in merit order, every value from its Fraction."""
    rows = []
    for offer in result.offers:
        pid = offer.plant_id
        dispatched = result.dispatch.get(pid)
        profit = result.profits.get(pid)
        rows.append({
            "plant_id": pid,
            "phi": to_number(offer.phi),
            "fee_rate_eur_per_mwh": shown(offer.fee_rate, mode),
            "offer_eur_per_mwh": shown(offer.offer_price, mode),
            "capacity_mw": to_number(offer.capacity),
            "dispatch_mw": to_number(dispatched) if dispatched is not None else 0,
            "profit_margin_eur_per_mwh": shown(profit, mode) if profit is not None else "",
            "fee_eur_per_h": shown(result.fee_ledger[pid], mode)
            if pid in result.fee_ledger else "",
        })
    return rows


def row_dict_emit_report(result, format, mode):
    """The reference: rows as dicts, then json.dumps, CSV or a plain table."""
    rows = clearing_rows(result, mode)
    summary = {
        "clearing_price_eur_per_mwh": shown(result.clearing_price, mode),
        "total_fee_cf_eur_per_h": shown(total_fee(result, mode), mode),
        "consumed_energy_mwh": to_number(result.consumed_energy),
        "total_capacity_mw": to_number(result.total_capacity),
        "blackout": result.blackout,
    }
    if format == "json":
        doc = {"plants": rows, "summary": summary}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    table_rows = [[r[h] for h in HEADERS] for r in rows]
    if format == "csv":
        footer = "".join(f"# {k}={v}\n" for k, v in summary.items())
        return csv_bytes(HEADERS, table_rows) + footer.encode("utf-8")
    footer = "".join(f"{k}: {v}\n" for k, v in summary.items())
    return table_bytes(HEADERS, table_rows) + footer.encode("utf-8")


def assert_same_report(result):
    """Every text format and rounding mode gives the reference's bytes, or
    the reference's ValueError with the same text."""
    for format in FORMATS:
        for mode in MODES:
            try:
                expected = row_dict_emit_report(result, format, mode)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    emit_report(result, format, mode)
                assert str(raised.value) == str(exc)
                continue
            assert emit_report(result, format, mode) == expected


@st.composite
def scenarios_with_huge_costs(draw):
    """A scenario where some plants cost HUGE or more, so that the first
    value too large for a float sits in different rows and columns: an
    offer, a margin, or a fee rate when p0 is HUGE too."""
    scenario = draw(scenarios())
    plants = list(scenario.plants)
    for i in draw(st.sets(st.integers(0, len(plants) - 1), min_size=1)):
        extra = draw(st.fractions(min_value=0, max_value=10, max_denominator=7))
        plants[i] = plants[i]._replace(marginal_cost=HUGE + extra)
    market = scenario.market
    if draw(st.booleans()):
        market = market._replace(reference_price_p0=HUGE / 3)
    return scenario._replace(plants=tuple(plants), market=market)


class TestEmitReportMatchesRowDicts:
    @RUNS
    @given(scenarios())
    def test_every_format_and_mode(self, scenario):
        assert_same_report(clear_scenario(scenario))

    @RUNS
    @given(scenarios_with_huge_costs())
    def test_values_beyond_the_float_range(self, scenario):
        assert_same_report(clear_scenario(scenario))

    def test_huge_marginal_cost_names_the_same_value(self):
        # the cheapest plant is the only one dispatched; its margin is 0,
        # and the first row's offer is the value that cannot be written
        scenario = toy_grid(10, 1)
        plants = [p._replace(marginal_cost=HUGE + 1) for p in scenario.plants]
        result = clear_scenario(scenario._replace(plants=tuple(plants)))
        with pytest.raises(ValueError, match="too large to report"):
            row_dict_emit_report(result, "csv", "exact")
        assert_same_report(result)

    def test_toy_grid(self):
        for p0 in (0, 10, 70):
            for demand in (0, 5, 25, Fraction(37, 3), 40, 55):
                assert_same_report(clear_scenario(toy_grid(p0, demand)))

    @pytest.mark.parametrize("demand", [0, 25])
    def test_no_offers(self, demand):
        assert_same_report(clear([], MarketConfig(10, demand)))


# Plant ids with the characters a row template or an encoder treats
# specially: format and %-directives, quotes, backslashes, separators and
# non-ASCII text.
ODD_IDS = ["a%s", "b%%", 'c"q', "d{0}", "e}", "\u00e9\u6f22", "f\\g", "g\th", "h,i", "i  j"]


def renamed(scenario, ids):
    names = dict(zip((p.id for p in scenario.plants), ids))
    plants = tuple(p._replace(id=names[p.id]) for p in scenario.plants)
    capacity = scenario.capacity
    if capacity.participants is not None:
        capacity = capacity._replace(participants=tuple(names[i] for i in capacity.participants))
    return scenario._replace(plants=plants, capacity=capacity)


class TestOddPlantIds:
    @settings(max_examples=100, deadline=None)
    @given(scenarios(), st.permutations(ODD_IDS))
    def test_clearing_reports(self, scenario, ids):
        assert_same_report(clear_scenario(renamed(scenario, ids)))

    @pytest.mark.parametrize("p0", [0, 10, 70])
    def test_toy_grid_clearing_and_sweep(self, p0):
        scenario = renamed(toy_grid(p0, 25), ODD_IDS)
        assert_same_report(clear_scenario(scenario))
        assert_same_sweep_report(sweep_p0(scenario, [Fraction(k, 4) for k in range(0, 321)]))


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
        expected = sorted(offers, key=lambda o: (o.offer_price, -o.phi, o.plant_id))
        assert merit_order(offers) == expected
