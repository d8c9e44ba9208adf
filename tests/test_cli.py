import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flexmarket import cli
from flexmarket.cli import main
from flexmarket import plants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, *targets):
    """Replace these functions, each "module.name" in flexmarket, by stubs
    that record each call by name. A command imports the functions it runs
    when it runs, so a stub in their own module is the one it calls."""
    calls = []
    for target in targets:
        name = target.rpartition(".")[2]
        monkeypatch.setattr(f"flexmarket.{target}",
                            lambda *args, name=name: calls.append(name))
    return calls


def write_doc(path, toy_grid_path, market=None, capacity=None):
    """The toy grid with some market and capacity fields replaced."""
    doc = json.loads(toy_grid_path.read_text())
    doc["market"].update(market or {})
    doc["capacity"].update(capacity or {})
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_ok(self, capsys, toy_grid_path):
        code, out, _ = run(capsys, "validate", str(toy_grid_path))
        assert code == 0
        assert "8 plants" in out

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "validate", "does-not-exist.json")
        assert code == 2
        assert "I/O" in err

    def test_invalid_scenario_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plants": []}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "validation" in err

    def test_mistyped_demand_exit_1(self, capsys, tmp_path, toy_grid_path):
        doc = json.loads(toy_grid_path.read_text())
        doc["market"]["demand"] = doc["market"].pop("demand_mw")
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "clear", str(path))
        assert (code, out) == (1, "")
        assert "market.demand" in err

    @pytest.mark.parametrize("command", ["validate", "clear"])
    def test_ineligible_pinned_participant_exit_1(self, capsys, tmp_path, toy_grid_path,
                                                  command):
        # both once accepted a file that `capacity` and `sweep` reject
        path = write_doc(tmp_path / "pinned.json", toy_grid_path,
                         capacity={"participants": ["nuclear"]})
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert "capacity.participants" in err and "nuclear" in err

    def test_load_scores_only_pinned_plants(self, capsys, monkeypatch, toy_grid_path):
        scored = []
        score = plants.score

        def counting(hours):  # counts the finite start-up times scored
            if hours is not None:
                scored.append(hours)
            return score(hours)

        monkeypatch.setattr(plants, "score", counting)
        pinned = str(toy_grid_path.parent / "toy-grid-pinned.json")
        assert run(capsys, "validate", str(toy_grid_path))[0] == 0
        assert scored == []  # an auto pool is scored where it is built
        assert run(capsys, "validate", pinned)[0] == 0
        assert len(scored) == 3  # hydro, gas and chp
        scored.clear()
        assert run(capsys, "capacity", pinned)[0] == 0
        # the three pinned plants at load, then every plant with a finite
        # start-up time once for the clearing
        assert len(scored) == 3 + 7

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc.update(measure="cubic"), "measure: unknown measure 'cubic'"),
        (lambda doc: doc["plants"][1].update(id=7),
         "plants[1]: plant id must be a non-empty string, got 7"),
        # ids that once validated, then split a CSV row, made a sweep's
        # |-joined ids ambiguous, or failed to encode after the computation
        *((lambda doc, pid=pid: doc["plants"][0].update(id=pid),
           f"plants[0]: plant id must be printable, without ',', '\"' or '|', got {pid!r}")
          for pid in ["wi,nd\nx", "a|b", 'say "wind"', "w\ud800"]),
    ])
    def test_rule_checked_outside_the_parser_exit_1(self, capsys, tmp_path, toy_grid_path,
                                                    mutate, message):
        # the measure is checked by the parser alone, and a plant's id by
        # PowerPlant, which adds the plant's path
        doc = json.loads(toy_grid_path.read_text())
        mutate(doc)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert message in err

    def test_duplicate_key_exit_1(self, capsys, tmp_path, toy_grid_path):
        # once validated as the later 500 MW and exited 0
        text = toy_grid_path.read_text().replace(
            '"demand_mw": 25', '"demand_mw": 5, "demand_mw": 500')
        path = tmp_path / "dup.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert "market.demand_mw: duplicate key" in err

    @pytest.mark.parametrize("literal", ["1e3000000", '"1e3000000"'])
    def test_huge_number_exit_1(self, capsys, tmp_path, toy_grid_path, literal):
        text = toy_grid_path.read_text().replace('"demand_mw": 25', f'"demand_mw": {literal}')
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "out of range" in err


    def test_csv_field_beyond_the_field_limit_exit_1(self, capsys, tmp_path):
        # once a traceback ending "_csv.Error: field larger than field limit"
        path = tmp_path / "big.csv"
        path.write_text("id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
                        f"a,1,10,{'7' * 200_000}\n")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("validation error: CSV plant table, line 2: field larger")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["csv", "json"])
    @pytest.mark.parametrize("digits", ["\u0661\u0662.\u0665", "\uff11\uff12", "\u0663e2"])
    def test_non_ascii_digits_exit_1(self, capsys, tmp_path, where, digits):
        # once read as 25/2, 12 and 300: `int` reads every script's digits
        if where == "csv":
            path = tmp_path / "plants.csv"
            path.write_text("id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
                            f"a,1,{digits},5\n", encoding="utf-8")
        else:
            path = tmp_path / "plants.json"
            path.write_text(json.dumps({"plants": [
                {"id": "a", "start_up_time_h": 1, "marginal_cost_eur_per_mwh": digits,
                 "capacity_mw": 5}]}), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == ("validation error: plants[0].marginal_cost_eur_per_mwh: expected a "
                       f"number: invalid numeric literal {digits!r}\n")

    def test_ascii_padding_in_a_csv_cell_still_parses(self, capsys, tmp_path):
        path = tmp_path / "plants.csv"
        path.write_text("id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
                        "a, 1 ,\t12.5 , 5\n")
        assert run(capsys, "validate", str(path)) == (
            0, "OK: 1 plants, demand 0 MW, measure hyperbolic\n", "")

    def test_deeply_nested_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("validation error:")
        assert err.endswith("not valid JSON: nested too deeply\n")


class TestClear:
    def test_default(self, capsys, toy_grid_path):
        code, out, _ = run(capsys, "clear", str(toy_grid_path))
        assert code == 0
        assert "clearing_price" in out

    def test_p0_override_and_json(self, capsys, toy_grid_path):
        code, out, _ = run(
            capsys, "clear", str(toy_grid_path), "--p0", "70", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["summary"]["clearing_price_eur_per_mwh"] - 97.5) < 1e-9

    @pytest.mark.parametrize("option", [["--p0", "\u0665"], ["--demand", "\uff13"],
                                        ["--p0", "\u0664\u0660"]])
    def test_non_ascii_digits_in_an_option_exit_1(self, capsys, tmp_path, toy_grid_path,
                                                  option):
        # `clear` on a CSV plant table with `--p0 \u0665 --demand \uff13` once exited 0
        table = tmp_path / "plants.csv"
        table.write_text("id,start_up_time_h,marginal_cost_eur_per_mwh,capacity_mw\n"
                         "a,1,10,5\n")
        for path in (table, toy_grid_path):
            code, out, err = run(capsys, "clear", str(path), *option)
            assert (code, out) == (1, "")
            assert err == f"validation error: invalid numeric literal {option[1]!r}\n"

    def test_rounding_flag(self, capsys, toy_grid_path):
        code, out, _ = run(
            capsys, "clear", str(toy_grid_path), "--p0", "70",
            "--format", "json", "--rounding", "paper-rounded",
        )
        assert code == 0
        assert json.loads(out)["summary"]["total_fee_cf_eur_per_h"] == 790

    @pytest.mark.parametrize("fmt", ["json", "svg-stack"])
    def test_value_beyond_float_range_exit_1(self, capsys, tmp_path, toy_grid_path, fmt):
        # 1e350 is within the parser's bounds, but hydro's offer 1e350 + a
        # non-integral fee has no float to report it as
        doc = json.loads(toy_grid_path.read_text())
        doc["plants"][1]["marginal_cost_eur_per_mwh"] = "HUGE"
        path = tmp_path / "huge-cost.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1e350"))
        code, out, err = run(capsys, "clear", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("validation error:")
        assert "too large to report" in err

    def test_svg_stack_drawn_where_no_table_can_be(self, capsys, tmp_path):
        # the fee of 2/3·1e300 EUR/MWh on 1e100 MW is beyond the float
        # range, but every value the SVG draws is within it
        plant = {"id": "only", "start_up_time_h": 2, "marginal_cost_eur_per_mwh": "1e300",
                 "capacity_mw": "1e100"}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"plants": [plant], "market": {"p0_eur_per_mwh": "1e300", "demand_mw": "1e100"}}))
        code, _, err = run(capsys, "clear", str(path), "--format", "csv")
        assert code == 1 and "too large to report" in err
        code, out, err = run(capsys, "clear", str(path), "--format", "svg-stack")
        assert (code, err) == (0, "")
        assert out.startswith("<svg")

    def test_output_file(self, capsys, toy_grid_path, tmp_path):
        target = tmp_path / "report.svg"
        code, _, _ = run(
            capsys, "clear", str(toy_grid_path), "--format", "svg-stack",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_bytes().startswith(b"<svg")


class TestSweep:
    def test_grid_sweep(self, capsys, toy_grid_path):
        code, out, _ = run(
            capsys, "sweep", str(toy_grid_path), "--p0-grid", "0:70:10",
            "--format", "csv",
        )
        assert code == 0
        assert out.count("\n") >= 9

    def test_fail_on_paradox(self, capsys, toy_grid_path):
        code, _, err = run(
            capsys, "sweep", str(toy_grid_path), "--p0-grid", "60:70:10",
            "--fail-on-paradox",
        )
        assert code == 3
        assert "paradox" in err

    def test_no_paradox_exit_0(self, capsys, toy_grid_path):
        code, _, _ = run(
            capsys, "sweep", str(toy_grid_path), "--p0-grid", "0:10:5",
            "--fail-on-paradox",
        )
        assert code == 0

    def test_bad_grid_spec(self, capsys, toy_grid_path):
        code, _, _ = run(capsys, "sweep", str(toy_grid_path), "--p0-grid", "10")
        assert code == 1

    def test_descending_grid_names_only_the_bound_rule(self, capsys, toy_grid_path):
        # the step is checked by p0_range, with its own message
        code, out, err = run(capsys, "sweep", str(toy_grid_path), "--p0-grid", "5:1:1")
        assert (code, out) == (1, "")
        assert err == "validation error: bad p0 grid '5:1:1': need lo <= hi\n"
        code, _, err = run(capsys, "sweep", str(toy_grid_path), "--p0-grid", "1:5:0")
        assert code == 1
        assert "step must be > 0" in err

    def test_pinned_overlapping_pool_pays_like_capacity(self, capsys, tmp_path,
                                                         toy_grid_path):
        # hydro and gas are dispatched at p0 = 70 but pinned with overlap:
        # the sweep once reported an empty reserve and a paradox (exit 3)
        path = write_doc(
            tmp_path / "pinned.json", toy_grid_path, {"p0_eur_per_mwh": 70},
            {"participants": ["hydro", "gas"], "allow_overlap": True},
        )
        code, out, _ = run(capsys, "capacity", path, "--format", "json")
        assert code == 0
        payments = {
            r["plant_id"]: round(r["reliability_payment_eur_per_h"], 2)
            for r in json.loads(out)["payments"]
        }
        assert payments == {"hydro": 412.60, "gas": 375.76}
        code, out, err = run(
            capsys, "sweep", path, "--p0-grid", "70:70:1", "--fail-on-paradox",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        (point,) = json.loads(out)["points"]
        assert (point["reserve"], point["paradox"]) == ("gas|hydro", False)

    def test_empty_reserve_at_zero_fee_is_no_paradox(self, capsys, tmp_path,
                                                     toy_grid_path):
        # demand 40 dispatches all eight plants, but at p0 = 0 C_f is 0:
        # capacity settles nothing and exits 0, and so must the sweep
        path = write_doc(tmp_path / "full.json", toy_grid_path,
                         {"p0_eur_per_mwh": 0, "demand_mw": 40})
        code, out, _ = run(capsys, "capacity", path, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "payments": [], "summary": {"source_fee_cf_eur_per_h": 0}
        }
        code, out, err = run(
            capsys, "sweep", path, "--p0-grid", "0:0:1", "--fail-on-paradox",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        (point,) = json.loads(out)["points"]
        assert (point["reserve"], point["total_fee_cf"], point["paradox"]) == ("", 0, False)

    def test_pinned_dispatched_without_overlap_exit_1(self, capsys, tmp_path,
                                                      toy_grid_path):
        # capacity rejects this pool at every p0, so the sweep fails at the
        # first point and names the plant and the p0
        path = write_doc(tmp_path / "pinned.json", toy_grid_path,
                         capacity={"participants": ["hydro", "gas", "chp"]})
        code, out, err = run(capsys, "capacity", path)
        assert (code, out) == (1, "")
        code, out, err = run(capsys, "sweep", path, "--p0-grid", "0:80:1")
        assert (code, out) == (1, "")
        assert err.startswith("validation error: p0 = 0: hydro is dispatched")

    def test_oversized_grid_rejected_before_allocation(self, capsys, toy_grid_path):
        code, out, err = run(
            capsys, "sweep", str(toy_grid_path), "--p0-grid", "0:1000000000:1"
        )
        assert code == 1
        assert out == ""
        assert "limit" in err

    def test_svg_stack_rejected_before_the_sweep(self, capsys, monkeypatch,
                                                 toy_grid_path):
        calls = record_calls(monkeypatch, "cli.load_scenario", "analysis.sweep_p0")
        code, out, err = run(capsys, "sweep", str(toy_grid_path), "--p0-grid",
                             "0:80:1/100", "--format", "svg-stack")
        assert (code, out, calls) == (1, "", [])
        assert err == "validation error: svg-stack applies to single clearings, not sweeps\n"


class TestCapacity:
    def test_literal_cf_with_overlap(self, capsys, tmp_path, toy_grid_path):
        # reproduce the three-plant settlement column directly from a C_f;
        # auto participants exclude dispatched plants, so pin them explicitly
        doc = json.loads(toy_grid_path.read_text())
        doc["capacity"]["participants"] = ["hydro", "gas", "chp"]
        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "capacity", str(pinned), "--cf", "205",
            "--allow-overlap", "--format", "json", "--rounding", "paper-rounded",
        )
        assert code == 0
        payments = {
            r["plant_id"]: r["reliability_payment_eur_per_h"]
            for r in json.loads(out)["payments"]
        }
        assert payments == {"hydro": 74, "gas": 67, "chp": 64}

    def test_from_clearing(self, capsys, toy_grid_path):
        # without --cf, C_f comes from a spot clearing of the scenario
        code, out, _ = run(capsys, "capacity", str(toy_grid_path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # at p0=10 only the gas turbine is eligible and undispatched
        assert [r["plant_id"] for r in doc["payments"]] == ["gas"]
        assert abs(doc["summary"]["source_fee_cf_eur_per_h"] - 152.264957) < 1e-5

    def test_depleted_pool_exit_3(self, capsys, tmp_path, toy_grid_path):
        doc = json.loads(toy_grid_path.read_text())
        doc["market"]["p0_eur_per_mwh"] = 70
        depleted = tmp_path / "depleted.json"
        depleted.write_text(json.dumps(doc))
        code, _, err = run(capsys, "capacity", str(depleted))
        assert code == 3
        assert "paradox" in err

    def test_overlapping_explicit_pool_needs_flag(self, capsys, tmp_path,
                                                  toy_grid_path):
        doc = json.loads(toy_grid_path.read_text())
        doc["capacity"]["participants"] = ["hydro", "gas", "chp"]
        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "capacity", str(pinned), "--cf", "205")
        assert code == 1
        code, _, _ = run(
            capsys, "capacity", str(pinned), "--cf", "205", "--allow-overlap"
        )
        assert code == 0

    def test_repeated_participant_exit_1(self, capsys, tmp_path, toy_grid_path):
        # hydro listed twice once paid 34.36 + 31.29 of a 100 EUR/h pool
        doc = json.loads(toy_grid_path.read_text())
        doc["capacity"]["participants"] = ["hydro", "hydro", "gas"]
        repeated = tmp_path / "repeated.json"
        repeated.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "capacity", str(repeated), "--cf", "100", "--allow-overlap"
        )
        assert (code, out) == (1, "")
        assert "capacity.participants[1]" in err

    def test_svg_stack_rejected_before_the_clearing(self, capsys, monkeypatch,
                                                    toy_grid_path):
        calls = record_calls(monkeypatch, "cli.load_scenario", "spotmarket.clear_scenario")
        code, out, err = run(capsys, "capacity", str(toy_grid_path),
                             "--format", "svg-stack")
        assert (code, out, calls) == (1, "", [])
        assert err == "validation error: svg-stack applies to clearings, not settlements\n"


def _call(*argv):
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--output", str(out)])
        return code, out.read_bytes() if out.exists() else b""


@st.composite
def pool_cases(draw):
    """A scenario document with an auto or pinned pool, and a p0 for it."""
    n = draw(st.integers(min_value=1, max_value=8))
    plants = [
        {
            "id": f"p{i}",
            "start_up_time_h": draw(st.sampled_from(["inf", "0", "0.02", "0.5", "1", "3"])),
            "marginal_cost_eur_per_mwh": draw(st.integers(min_value=0, max_value=100)),
            "capacity_mw": draw(st.sampled_from([5, 10, 15])),
        }
        for i in range(n)
    ]
    threshold = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]))
    # phi = 1/(1 + start-up hours); pin eligible plants unless none is
    eligible = [
        p["id"] for p in plants
        if p["start_up_time_h"] != "inf"
        and 1 / (1 + Fraction(p["start_up_time_h"])) > threshold
    ]
    pinnable = eligible or [p["id"] for p in plants]
    total = sum(p["capacity_mw"] for p in plants)
    p0 = draw(st.fractions(min_value=0, max_value=100, max_denominator=4))
    doc = {
        "plants": plants,
        "market": {"p0_eur_per_mwh": f"{p0.numerator}/{p0.denominator}",
                   "demand_mw": draw(st.integers(min_value=0, max_value=total + 5))},
        "capacity": {
            "threshold": f"{threshold.numerator}/{threshold.denominator}",
            "participants": draw(
                st.just("auto") | st.lists(st.sampled_from(pinnable), unique=True)
            ),
            "allow_overlap": draw(st.booleans()),
        },
    }
    return doc, p0


@settings(max_examples=150, deadline=None)
@given(pool_cases())
def test_sweep_point_reports_what_capacity_does(case):
    # the same scenario, swept at its own p0: same exit code (1 where the pool
    # is rejected, 3 on the paradox) and, on success, the same reserve
    doc, p0 = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        capacity_code, capacity_out = _call("capacity", str(path), "--format", "json")
        sweep_code, sweep_out = _call(
            "sweep", str(path), "--p0-grid", f"{p0}:{p0}:1", "--fail-on-paradox",
            "--format", "json",
        )
    assert sweep_code == capacity_code
    if capacity_code == 1:
        assert sweep_out == b""
        return
    (point,) = json.loads(sweep_out)["points"]
    assert point["paradox"] == (capacity_code == 3)
    if capacity_code == 0:
        paid = sorted(r["plant_id"] for r in json.loads(capacity_out)["payments"])
        assert point["reserve"] == "|".join(paid)
    else:
        assert point["reserve"] == ""
