"""CLI stdout bytes and exit codes against stored outputs: every command on
the toy grid, `capacity` and `sweep` on the toy grid with a pinned reserve
(`toy-grid-pinned.json`: hydro, gas and CHP, overlap allowed), and clearing
reports in every text format and JSON capacity reports on a 100-plant
scenario with decimal inputs (fractional capacities and demand, a partly
dispatched marginal plant, non-integer fees).
Both toy-grid sweeps run on the integer grid 0:80:1 and on 1/3:80:7/10,
where no p0 is an integer.

Each case runs `flexmarket.cli.main` in process and compares its exit code
and stdout byte for byte with `tests/golden/<case>.out`. Each point of the
stored sweeps is also checked against `capacity` at that p0. To rewrite the
stored outputs after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from flexmarket.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TOY_GRID = str(SCENARIOS / "toy-grid.json")
TOY_GRID_PINNED = str(SCENARIOS / "toy-grid-pinned.json")
DECIMAL_100 = str(SCENARIOS / "decimal-100.json")
FRACTIONAL_GRID = "1/3:80:7/10"


def _cases() -> dict[str, tuple[list[str], int]]:
    commands = {
        "clear-p0-10": ["clear", TOY_GRID, "--p0", "10"],
        "clear-p0-70": ["clear", TOY_GRID, "--p0", "70"],
        "capacity-from-clearing": ["capacity", TOY_GRID],
        "capacity-cf-790-overlap": ["capacity", TOY_GRID, "--cf", "790", "--allow-overlap"],
        "sweep-0-80-1": ["sweep", TOY_GRID, "--p0-grid", "0:80:1"],
        "pinned-capacity-from-clearing": ["capacity", TOY_GRID_PINNED],
        "pinned-capacity-cf-790": ["capacity", TOY_GRID_PINNED, "--cf", "790"],
        "pinned-sweep-0-80-1": ["sweep", TOY_GRID_PINNED, "--p0-grid", "0:80:1"],
        # 114 non-integer points, lo and step over different denominators,
        # across all six of the toy grid's merit-order changes
        "sweep-third-80-7-10": ["sweep", TOY_GRID, "--p0-grid", FRACTIONAL_GRID],
        "pinned-sweep-third-80-7-10": ["sweep", TOY_GRID_PINNED, "--p0-grid", FRACTIONAL_GRID],
    }
    cases = {}
    for name, argv in commands.items():
        for fmt in ("plain-table", "csv", "json"):
            for rounding in ("exact", "paper-rounded"):
                cases[f"{name}.{fmt}.{rounding}"] = (
                    argv + ["--format", fmt, "--rounding", rounding], 0
                )
    cases["clear-p0-10.svg-stack"] = (["clear", TOY_GRID, "--format", "svg-stack"], 0)
    for command, formats in (("clear", ("plain-table", "csv", "json")),
                             ("capacity", ("json",))):
        for fmt in formats:
            for rounding in ("exact", "paper-rounded"):
                cases[f"decimal-100-{command}.{fmt}.{rounding}"] = (
                    [command, DECIMAL_100, "--format", fmt, "--rounding", rounding], 0
                )
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
        stdout.flush()
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name):
    argv, expected_code = CASES[name]
    code, out = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "sweep, scenario",
    [("sweep-0-80-1", TOY_GRID), ("pinned-sweep-0-80-1", TOY_GRID_PINNED)],
)
def test_sweep_points_report_what_capacity_does(sweep, scenario, tmp_path):
    # at each stored point, capacity on the scenario with that p0 exits 3
    # exactly where the point flags the paradox, and otherwise pays the reserve
    points = json.loads((GOLDEN / f"{sweep}.json.exact.out").read_text())["points"]
    doc = json.loads(Path(scenario).read_text())
    path = tmp_path / "at-p0.json"
    for point in points:
        doc["market"]["p0_eur_per_mwh"] = point["p0"]
        path.write_text(json.dumps(doc))
        code, out = _run(["capacity", str(path), "--format", "json"])
        assert code == (3 if point["paradox"] else 0)
        paid = [r["plant_id"] for r in json.loads(out)["payments"]] if code == 0 else []
        assert point["reserve"] == "|".join(sorted(paid))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
    print(f"wrote {len(CASES)} outputs to {GOLDEN}")
