import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket.capacity import CapacityConfig
from flexmarket.plants import PowerPlant, StartUpTime
from flexmarket.scenario import (
    DuplicatePlantIdError,
    InvalidNumberError,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    UnknownMeasureError,
    load_scenario,
    toy_grid,
)
from flexmarket.spotmarket import MarketConfig

TOY_GRID_DOC = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "toy-grid.json").read_text()
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return path


def minimal_doc(**overrides):
    doc = {
        "plants": [
            {"id": "a", "start_up_time_h": 1, "marginal_cost_eur_per_mwh": 10,
             "capacity_mw": 5},
            {"id": "b", "start_up_time_h": 2, "marginal_cost_eur_per_mwh": 20,
             "capacity_mw": 5},
        ],
        "market": {"p0_eur_per_mwh": 10, "demand_mw": 7},
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_bundled_toy_grid(self, toy_grid_path):
        scenario = load_scenario(toy_grid_path)
        assert len(scenario.plants) == 8
        assert scenario.market.demand == 25
        assert scenario.market.reference_price_p0 == 10
        # file and in-code builder agree
        assert scenario.plants == toy_grid().plants

    def test_inf_start_up_time(self, toy_grid_path):
        scenario = load_scenario(toy_grid_path)
        wind = next(p for p in scenario.plants if p.id == "wind")
        assert wind.start_up_time.hours is None

    def test_duplicate_id(self, tmp_path):
        doc = minimal_doc()
        doc["plants"][1]["id"] = "a"
        with pytest.raises(DuplicatePlantIdError):
            load_scenario(write(tmp_path, "dup.json", doc))

    @pytest.mark.parametrize("plant_id", [7, "", None])
    def test_bad_plant_id_is_a_parse_error(self, tmp_path, plant_id):
        # PowerPlant owns the id rule; an id is structure, not a number
        doc = minimal_doc()
        doc["plants"][1]["id"] = plant_id
        with pytest.raises(ScenarioParseError,
                           match=r"^plants\[1\]: plant id must be a non-empty string"):
            load_scenario(write(tmp_path, "id.json", doc))

    def test_unknown_measure(self, tmp_path):
        with pytest.raises(UnknownMeasureError):
            load_scenario(write(tmp_path, "m.json", minimal_doc(measure="cubic")))

    def test_negative_marginal_cost(self, tmp_path):
        doc = minimal_doc()
        doc["plants"][0]["marginal_cost_eur_per_mwh"] = -1
        with pytest.raises(InvalidNumberError, match="marginal_cost"):
            load_scenario(write(tmp_path, "neg.json", doc))

    def test_parse_error(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(write(tmp_path, "broken.json", "{not json"))

    def test_unknown_participant(self, tmp_path):
        doc = minimal_doc(capacity={"participants": ["ghost"]})
        with pytest.raises(ScenarioParseError, match="ghost"):
            load_scenario(write(tmp_path, "p.json", doc))

    def test_repeated_participant_rejected(self, tmp_path):
        doc = minimal_doc(capacity={"participants": ["a", "b", "a"]})
        with pytest.raises(
            ScenarioParseError, match=r"capacity\.participants\[2\]: .*'a' is listed twice"
        ):
            load_scenario(write(tmp_path, "p.json", doc))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"measure": []}, "measure"),
            ({"measure": {"name": "hyperbolic"}}, "measure"),
            ({"capacity": {"participants": [["a"]]}}, r"capacity\.participants\[0\]"),
            ({"capacity": {"participants": ["a", {"id": "b"}]}},
             r"capacity\.participants\[1\]"),
        ],
    )
    def test_names_of_the_wrong_type_rejected(self, tmp_path, overrides, path):
        with pytest.raises(ScenarioParseError, match=path):
            load_scenario(write(tmp_path, "t.json", minimal_doc(**overrides)))

    def test_decimal_fields_parse_exactly(self, tmp_path):
        doc = minimal_doc()
        doc["plants"][0]["start_up_time_h"] = 0.12
        scenario = load_scenario(write(tmp_path, "d.json", doc))
        assert scenario.plants[0].start_up_time.hours == Fraction(3, 25)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_allow_overlap_must_be_a_json_boolean(self, tmp_path, value):
        doc = minimal_doc(capacity={"allow_overlap": value})
        with pytest.raises(ScenarioParseError, match="allow_overlap"):
            load_scenario(write(tmp_path, "o.json", doc))

    @pytest.mark.parametrize("value", [False, True])
    def test_allow_overlap_boolean_accepted(self, tmp_path, value):
        doc = minimal_doc(capacity={"allow_overlap": value})
        scenario = load_scenario(write(tmp_path, "o.json", doc))
        assert scenario.capacity.allow_overlap is value

    def test_mistyped_demand_key_rejected(self, tmp_path):
        # "demand" for "demand_mw" used to clear silently at zero demand
        doc = minimal_doc(market={"p0_eur_per_mwh": 10, "demand": 7})
        with pytest.raises(ScenarioParseError, match=r"market\.demand\b"):
            load_scenario(write(tmp_path, "typo.json", doc))

    @pytest.mark.parametrize(
        "level, path",
        [
            ("top", "demand_mw"),
            ("plant", "plants[1].capacity"),
            ("market", "market.p0"),
            ("capacity", "capacity.threshhold"),
        ],
    )
    def test_unknown_key_rejected_at_every_level(self, tmp_path, level, path):
        doc = minimal_doc(capacity={"threshold": 0.5})
        key = path.rsplit(".", 1)[-1]
        target = {
            "top": doc,
            "plant": doc["plants"][1],
            "market": doc["market"],
            "capacity": doc["capacity"],
        }[level]
        target[key] = 1
        with pytest.raises(ScenarioParseError, match=re.escape(path)):
            load_scenario(write(tmp_path, "k.json", doc))

    @pytest.mark.parametrize(
        "old, new, path",
        [
            ('"demand_mw": 7', '"demand_mw": 5, "demand_mw": 500', "market.demand_mw"),
            ('"capacity_mw": 5}', '"capacity_mw": 5, "capacity_mw": 50}',
             "plants[0].capacity_mw"),
            ('"plants"', '"market": {}, "plants"', "market"),
        ],
    )
    def test_duplicate_key_rejected(self, tmp_path, old, new, path):
        # json.loads keeps the last of two equal keys: a quiet wrong answer
        text = json.dumps(minimal_doc()).replace(old, new, 1)
        with pytest.raises(ScenarioParseError, match=rf"^{re.escape(path)}: duplicate key$"):
            load_scenario(write(tmp_path, "dup.json", text))

    @pytest.mark.parametrize("literal", ["1e3000000", '"1e3000000"'])
    def test_huge_exponent_rejected_quickly(self, tmp_path, literal):
        text = json.dumps(minimal_doc()).replace('"demand_mw": 7', f'"demand_mw": {literal}')
        path = write(tmp_path, "huge.json", text)
        start = time.perf_counter()
        with pytest.raises(InvalidNumberError, match="out of range"):
            load_scenario(path)
        assert time.perf_counter() - start < 0.1

    def test_too_many_digits_rejected(self, tmp_path):
        text = json.dumps(minimal_doc()).replace('"demand_mw": 7', f'"demand_mw": {"7" * 200}')
        with pytest.raises(InvalidNumberError, match="significant digits"):
            load_scenario(write(tmp_path, "long.json", text))

    def test_p0_grid(self, tmp_path):
        # a sweep's grid comes from `sweep --p0-grid`; the scenario has none
        doc = minimal_doc(market={"p0_grid": [0, 10, 20], "demand_mw": 7})
        with pytest.raises(ScenarioParseError, match="market.p0_grid: unknown key"):
            load_scenario(write(tmp_path, "g.json", doc))

    def test_csv_plant_table(self, tmp_path):
        csv_text = (
            "id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
            "fast,0.1,30,5\n"
            "slow,inf,1,10\n"
        )
        scenario = load_scenario(write(tmp_path, "plants.csv", csv_text))
        assert len(scenario.plants) == 2
        assert scenario.plants[1].start_up_time.hours is None

    def test_csv_missing_column(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(write(tmp_path, "bad.csv", "id,capacity_mw\na,5\n"))

    def test_csv_unknown_column(self, tmp_path):
        csv_text = (
            "id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw,demand_mw\n"
            "fast,0.1,30,5,20\n"
        )
        with pytest.raises(ScenarioParseError, match="demand_mw"):
            load_scenario(write(tmp_path, "extra.csv", csv_text))

    def test_csv_duplicate_column_rejected(self, tmp_path):
        # DictReader keeps the later of two equal columns
        csv_text = (
            "id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw,capacity_mw\n"
            "fast,0.1,30,5,500\n"
        )
        with pytest.raises(ScenarioParseError, match="capacity_mw: duplicate column"):
            load_scenario(write(tmp_path, "dup.csv", csv_text))

    def test_csv_row_longer_than_header(self, tmp_path):
        csv_text = (
            "id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
            "fast,0.1,30,5,20\n"
        )
        with pytest.raises(ScenarioParseError, match="more values"):
            load_scenario(write(tmp_path, "long.csv", csv_text))


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        doc = json.loads(json.dumps(TOY_GRID_DOC))
        doc["market"]["p0_eur_per_mwh"] = 12.5
        assert load_scenario(write(tmp_path, "rt.json", doc)) == toy_grid("12.5", 25)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
    def test_every_written_float_loads(self, x):
        # json.dumps writes a float as its repr
        doc = minimal_doc(market={"demand_mw": x})
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "f.json", doc)
            assert load_scenario(path).market.demand == Fraction(repr(x))

    def test_round_trip_is_stable(self, tmp_path):
        rewritten = write(tmp_path, "toy.json", TOY_GRID_DOC)
        assert load_scenario(rewritten) == load_scenario(rewritten) == toy_grid(10, 25)


# Every place a mutation may write to.
_FUZZ_PATHS = [
    ("plants",), ("market",), ("capacity",), ("measure",), ("plants", 0),
    *(("plants", 1, key) for key in
      ("id", "start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw")),
    *(("market", key) for key in ("p0_eur_per_mwh", "demand_mw", "period_h")),
    *(("capacity", key) for key in ("threshold", "participants", "allow_overlap")),
    ("capacity", "participants", 0),
]
# Numeric literals beyond the parser's bounds, or beyond the float range; they
# are written into the JSON text bare, in place of their quoted marker.
_RAW = ["1e350", "-1e350", "1e3000000", "1e-401", "9" * 200, "0." + "7" * 150]
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="abcinfhydro01.e-/", max_size=8),
    st.sampled_from(["inf", "auto", "hyperbolic", "hydro", "1e3000000"]),
    st.sampled_from(_RAW).map(lambda raw: f"<<{raw}>>"),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "x", "demand_mw"]), inner, max_size=2),
    max_leaves=4,
)


def _mutate(doc, path, value):
    *parents, last = path
    try:
        for key in parents:
            doc = doc[key]
        doc[last] = value
    except (KeyError, IndexError, TypeError):
        pass  # the path is missing or runs through a value of another type


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), _values),
                    min_size=1, max_size=3))
    def test_mutated_toy_grid_loads_or_fails_as_a_scenario_error(self, mutations):
        doc = json.loads(json.dumps(TOY_GRID_DOC))
        doc["capacity"]["participants"] = ["hydro", "gas"]
        for path, value in mutations:
            _mutate(doc, path, value)
        text = re.sub(r'"<<([^"<>]*)>>"', r"\1", json.dumps(doc))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_text(text)
            try:
                scenario = load_scenario(path)
            except ScenarioError as exc:
                # every error names its section of the document, or the file
                assert str(exc).startswith((*_SECTIONS, str(path))), str(exc)
                return
        assert isinstance(scenario, Scenario)


_SECTIONS = ("plants", "market", "capacity", "measure", "scenario document")


# Values that break one scenario rule each, written over a valid document.
_BREAKS = [
    (("plants", 1, "id"), "p0"), (("plants", 1, "id"), ""), (("plants", 1, "id"), 7),
    (("plants", 1, "id"), "wi,nd\nx"),
    (("plants", 1, "start_up_time_h"), -1),
    (("plants", 1, "marginal_cost_eur_per_mwh"), "-1/2"),
    (("plants", 1, "capacity_mw"), 0),
    (("market", "p0_eur_per_mwh"), -1), (("market", "demand_mw"), "-0.5"),
    (("market", "period_h"), 0),
    (("capacity", "threshold"), 0), (("capacity", "threshold"), 1),
    (("capacity", "participants"), ["p0", "p0"]),
    (("capacity", "participants"), ["ghost"]),
    (("plants",), []),
]


@st.composite
def documents(draw):
    """Scenario documents, about half of them with one or two rules broken:
    repeated, empty or non-string ids, negative numbers, a zero capacity or
    period, thresholds of 0 and 1, no plants, and pinned lists
    with unknown or repeated ids. A pinned plant is ineligible whenever its
    start-up time is too long for the threshold."""
    n = draw(st.integers(min_value=1, max_value=4))
    ids = [f"p{i}" for i in range(n)]
    doc = {
        "plants": [
            {
                "id": pid,
                "start_up_time_h": draw(st.sampled_from(["inf", 0, "1/2", 1, 3])),
                "marginal_cost_eur_per_mwh": draw(st.sampled_from([0, 10, "2.5"])),
                "capacity_mw": draw(st.sampled_from([5, "1/3"])),
            }
            for pid in ids
        ],
        "market": {"p0_eur_per_mwh": draw(st.sampled_from([0, 10])),
                   "demand_mw": draw(st.sampled_from([0, 7])),
                   "period_h": draw(st.sampled_from([1, "1/4"]))},
        "capacity": {
            "threshold": draw(st.sampled_from(["1/4", "1/2", "2/3"])),
            "participants": draw(
                st.just("auto") | st.lists(st.sampled_from(ids), unique=True)
            ),
            "allow_overlap": draw(st.booleans()),
        },
        "measure": "hyperbolic",
    }
    if draw(st.booleans()):
        for path, value in draw(st.lists(st.sampled_from(_BREAKS), min_size=1, max_size=2)):
            _mutate(doc, path, value)
    return doc


def scenario_in_python(doc):
    """The `Scenario` a document describes, built with the constructors."""
    plants = tuple(
        PowerPlant(
            p["id"],
            StartUpTime(None) if p["start_up_time_h"] == "inf"
            else StartUpTime(Fraction(p["start_up_time_h"])),
            Fraction(p["marginal_cost_eur_per_mwh"]),
            Fraction(p["capacity_mw"]),
        )
        for p in doc["plants"]
    )
    market = MarketConfig(*(Fraction(doc["market"][key]) for key in
                            ("p0_eur_per_mwh", "demand_mw", "period_h")))
    cap = doc["capacity"]
    participants = cap["participants"]
    capacity = CapacityConfig(
        Fraction(cap["threshold"]),
        None if participants == "auto" else tuple(participants),
        cap["allow_overlap"],
    )
    return Scenario(plants, market, capacity)


class TestFileAndPythonAgree:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_file_rejected_exactly_when_python_rejects(self, doc):
        try:
            built = scenario_in_python(doc)
        except ValueError:
            built = None
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "s.json", doc)
            try:
                loaded = load_scenario(path)
            except ScenarioError:
                loaded = None
        assert loaded == built
