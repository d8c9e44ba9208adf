import json
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket.analysis import sweep_p0
from flexmarket.capacity import CapacityConfig, build_pool, settle
from flexmarket.reports import _json_bytes, emit_report, emit_settlement, emit_sweep
from flexmarket.scenario import toy_grid
from flexmarket.spotmarket import MarketConfig, clear, clear_scenario

SVG = "http://www.w3.org/2000/svg"

TABLE_II = {
    10: {"wind": 11, "hydro": 1, "gas": 91, "chp": 51, "ccgt": 58, "coal": 69,
         "lignite": 49, "nuclear": 15},
    70: {"wind": 71, "hydro": 2, "gas": 98, "chp": 60, "ccgt": 108, "coal": 120,
         "lignite": 103, "nuclear": 74},
}


def csv_rows(payload: bytes):
    lines = [l for l in payload.decode().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEmitReport:
    @pytest.mark.parametrize("p0", [10, 70])
    def test_csv_paper_rounded_offers_match_display_table(self, p0):
        result = clear_scenario(toy_grid(p0, 25))
        rows = csv_rows(emit_report(result, "csv", "paper-rounded"))
        offers = {r["plant_id"]: int(r["offer_eur_per_mwh"]) for r in rows}
        assert offers == TABLE_II[p0]

    def test_empty_dispatch_json_is_valid(self):
        result = clear_scenario(toy_grid(10, 0))
        doc = json.loads(emit_report(result, "json"))
        assert [r for r in doc["plants"] if r["dispatch_mw"]] == []
        assert doc["summary"]["clearing_price_eur_per_mwh"] == 0

    def test_byte_stable(self):
        result = clear_scenario(toy_grid(10, 25))
        for fmt in ("plain-table", "csv", "json", "svg-stack"):
            assert emit_report(result, fmt) == emit_report(result, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(clear_scenario(toy_grid(10, 25)), "yaml")

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError):
            emit_report(clear_scenario(toy_grid(10, 25)), "csv", "truncate")

    def test_exact_json_reproduces_engine_values(self):
        result = clear_scenario(toy_grid(10, 25))
        doc = json.loads(emit_report(result, "json", "exact"))
        assert abs(doc["summary"]["clearing_price_eur_per_mwh"]
                   - float(result.clearing_price)) < 1e-9
        assert abs(doc["summary"]["total_fee_cf_eur_per_h"]
                   - float(result.total_fee_cf)) < 1e-9
        by_id = {r["plant_id"]: r for r in doc["plants"]}
        for offer in result.offers:
            assert abs(by_id[offer.plant_id]["offer_eur_per_mwh"]
                       - float(offer.offer_price)) < 1e-9

    def test_rounding_only_affects_display(self):
        result = clear_scenario(toy_grid(70, 25))
        exact = json.loads(emit_report(result, "json", "exact"))
        rounded = json.loads(emit_report(result, "json", "paper-rounded"))
        assert exact["summary"]["blackout"] == rounded["summary"]["blackout"]
        assert [r["plant_id"] for r in exact["plants"]] == [
            r["plant_id"] for r in rounded["plants"]
        ]

    def test_svg_structure(self):
        result = clear_scenario(toy_grid(10, 25))
        svg = emit_report(result, "svg-stack").decode()
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= len(result.offers)
        assert "stroke-dasharray" in svg  # clearing-price rule
        for offer in result.offers:
            assert offer.plant_id in svg

    def test_svg_escapes_plant_ids(self):
        toy = toy_grid(10, 25)
        plants = (toy.plants[0]._replace(id="A&B <1>"), *toy.plants[1:])
        svg = emit_report(clear_scenario(toy._replace(plants=plants)), "svg-stack").decode()
        assert ">A&amp;B &lt;1&gt;</text>" in svg
        assert "A&B" not in svg
        labels = [t.text for t in ElementTree.fromstring(svg).iter(f"{{{SVG}}}text")]
        assert "A&B <1>" in labels

    def test_blackout_flag_in_report(self):
        doc = json.loads(emit_report(clear_scenario(toy_grid(10, 45)), "json"))
        assert doc["summary"]["blackout"] is True


class TestEmitSweep:
    def test_csv(self, toy):
        sweep = sweep_p0(toy, [Fraction(10), Fraction(70)])
        rows = csv_rows(emit_sweep(sweep, "csv"))
        assert [r["p0"] for r in rows] == ["10", "70"]
        assert rows[0]["paradox"] == "False"
        assert rows[1]["paradox"] == "True"

    def test_json_includes_change_points(self, toy):
        sweep = sweep_p0(toy, [Fraction(10), Fraction(70)])
        doc = json.loads(emit_sweep(sweep, "json"))
        assert doc["change_points"] == [70]

    def test_svg_rejected_for_sweeps(self, toy):
        sweep = sweep_p0(toy, [Fraction(10)])
        with pytest.raises(ValueError):
            emit_sweep(sweep, "svg-stack")


class TestEmitSettlement:
    def test_plain_table(self, toy):
        pool = build_pool(
            toy.plants,
            CapacityConfig(participants=("hydro", "gas", "chp"), allow_overlap=True),
        )
        text = emit_settlement(settle(pool, Fraction(790)), "plain-table",
                               "paper-rounded").decode()
        assert "hydro" in text and "284" in text
        assert "source_fee_cf_eur_per_h: 790" in text


# JSON documents of every shape: empty objects and arrays at any depth,
# non-ASCII and control-character strings and keys, ints of over 100
# digits, float edge cases, booleans and null.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**100, max_value=10**130).map(lambda n: n * (-1) ** (n % 2)),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u6f22\U0001f600", "\ud800", '"\\/\n\t']),
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestJsonBytes:
    @settings(max_examples=500, deadline=None)
    @given(json_docs)
    def test_equals_indented_json_dumps(self, doc):
        expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        assert _json_bytes(doc) == expected

    @pytest.mark.parametrize(
        "doc",
        [{}, [], {"a": {}}, {"a": []}, [[], {}], {"a": [{"b": []}]},
         {1: 2, 2.5: None, True: "t"}, ((1, 2), ("x",)), [True, 1, 1.0],
         {"x": float("nan"), "y": [float("inf"), -float("inf")]}],
    )
    def test_equals_json_dumps_on_edge_shapes(self, doc):
        expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        assert _json_bytes(doc) == expected

    @pytest.mark.parametrize("doc", [{"a": [Fraction(1, 3)]}, {"a": Fraction(1, 3)},
                                     {"a": {(1,): 2}}])
    def test_documents_it_cannot_write_raise_type_error(self, doc):
        # a value or a key json cannot write
        with pytest.raises(TypeError):
            _json_bytes(doc)
