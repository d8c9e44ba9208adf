import json

import pytest

from flexmarket.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("literal", ["1e3000000", '"1e3000000"'])
    def test_huge_number_exit_1(self, capsys, tmp_path, toy_grid_path, literal):
        text = toy_grid_path.read_text().replace('"demand_mw": 25', f'"demand_mw": {literal}')
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "out of range" in err


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

    def test_oversized_grid_rejected_before_allocation(self, capsys, toy_grid_path):
        code, out, err = run(
            capsys, "sweep", str(toy_grid_path), "--p0-grid", "0:1000000000:1"
        )
        assert code == 1
        assert out == ""
        assert "limit" in err


class TestCapacity:
    def test_literal_cf_with_overlap(self, capsys, tmp_path, toy_grid_path):
        # reproduce the three-plant settlement column directly from a C_f
        code, out, _ = run(
            capsys, "capacity", str(toy_grid_path), "--cf", "205",
            "--allow-overlap", "--format", "json", "--rounding", "paper-rounded",
        )
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
