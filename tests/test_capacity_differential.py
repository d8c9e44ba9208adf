"""Differential test: `flexmarket capacity` bytes against the path that
scored every plant twice and sorted payments on Fraction keys."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from flexmarket.analysis import clear_scenario
from flexmarket.capacity import UnallocatableFeeError, build_pool, settle
from flexmarket.cli import main
from flexmarket.reports import _disp, _json_bytes
from flexmarket.scenario import load_scenario
from report_oracles import csv_bytes, table_bytes

RUNS = settings(max_examples=150, deadline=None)

# Few distinct values, so twin plants (equal phi·P, hence equal payments)
# are common.
start_up = st.one_of(
    st.just("inf"),
    st.sampled_from(["0", "0.02", "0.5", "1", "3"]),
    st.fractions(min_value=0, max_value=5, max_denominator=40).map(
        lambda f: f"{f.numerator}/{f.denominator}"
    ),
)
money = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.decimals(min_value=0, max_value=120, places=2).map(str),
)
capacity_mw = st.one_of(
    st.sampled_from([5, 10]), st.integers(min_value=1, max_value=80)
)


def oracle(scenario_path, cf_arg, allow_overlap, fmt, rounding):
    """(exit code, stdout) of the old capacity path."""
    try:
        scenario = load_scenario(scenario_path)  # rejects an ineligible pinned plant
        result = clear_scenario(scenario)
        cf = result.total_fee_cf if cf_arg is None else Fraction(cf_arg)
        config = scenario.capacity._replace(
            allow_overlap=allow_overlap or scenario.capacity.allow_overlap,
        )
        pool = build_pool(
            scenario.plants, scenario.flexibilities(), config, result.dispatch
        )
        settlement = settle(pool, cf)
    except UnallocatableFeeError:
        return 3, b""
    except ValueError:
        return 1, b""
    items = sorted(settlement.payments.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [[pid, _disp(value, rounding)] for pid, value in items]
    headers = ["plant_id", "reliability_payment_eur_per_h"]
    source = _disp(settlement.source_fee_cf, rounding)
    if fmt == "json":
        return 0, _json_bytes(
            {
                "payments": [dict(zip(headers, r)) for r in rows],
                "summary": {"source_fee_cf_eur_per_h": source},
            }
        )
    body = csv_bytes(headers, rows) if fmt == "csv" else table_bytes(headers, rows)
    prefix = "# " if fmt == "csv" else ""
    return 0, body + f"{prefix}source_fee_cf_eur_per_h: {source}\n".encode()


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    plants = []
    for i in range(n):
        if plants and draw(st.booleans()):
            plants.append(dict(draw(st.sampled_from(plants)), id=f"p{i:02d}"))
            continue
        plants.append(
            {
                "id": f"p{i:02d}",
                "start_up_time_h": draw(start_up),
                "marginal_cost_eur_per_mwh": draw(money),
                "capacity_mw": draw(capacity_mw),
            }
        )
    total = sum(p["capacity_mw"] for p in plants)
    doc = {
        "plants": plants,
        "market": {
            "p0_eur_per_mwh": draw(st.sampled_from([0, 10, 40, 70, "12.5"])),
            "demand_mw": draw(st.integers(min_value=0, max_value=total + 5)),
        },
        "capacity": {"threshold": draw(st.sampled_from([0.25, 0.5, "2/3"]))},
    }
    if draw(st.integers(min_value=0, max_value=2)) == 2:
        # an explicit list: eligible or not, dispatched or not
        ids = [p["id"] for p in plants]
        doc["capacity"]["participants"] = draw(
            st.lists(st.sampled_from(ids), unique=True, max_size=n)
        )
    csv_input = draw(st.integers(min_value=0, max_value=5)) == 5
    cf = draw(st.one_of(st.none(), st.sampled_from(["0", "205", "12.345", "1/3"])))
    allow_overlap = draw(st.booleans())
    fmt = draw(st.sampled_from(["plain-table", "csv", "json"]))
    rounding = draw(st.sampled_from(["exact", "paper-rounded"]))
    return doc, csv_input, cf, allow_overlap, fmt, rounding


def write_scenario(directory, doc, csv_input):
    if not csv_input:
        path = Path(directory) / "s.json"
        path.write_text(json.dumps(doc))
        return path
    # the CSV plant table carries plants only: market and capacity defaults
    columns = ["id", "start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw"]
    lines = [",".join(columns)]
    lines += [",".join(str(p[c]) for c in columns) for p in doc["plants"]]
    path = Path(directory) / "s.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@RUNS
@given(cases())
def test_capacity_cli_matches_the_two_scoring_path(case):
    doc, csv_input, cf, allow_overlap, fmt, rounding = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_scenario(tmp, doc, csv_input)
        out = Path(tmp) / "out"
        argv = ["capacity", str(scenario), "--format", fmt, "--rounding", rounding,
                "--output", str(out)]
        if cf is not None:
            argv += ["--cf", cf]
        if allow_overlap:
            argv.append("--allow-overlap")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        stdout = out.read_bytes() if out.exists() else b""
        assert (code, stdout) == oracle(scenario, cf, allow_overlap, fmt, rounding)


def test_zero_fee_pool_orders_tied_payments_by_id(tmp_path):
    plants = [
        {"id": pid, "start_up_time_h": "0.5", "marginal_cost_eur_per_mwh": 10,
         "capacity_mw": 5}
        for pid in ["zeta", "alpha", "mu"]
    ]
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"plants": plants, "market": {"demand_mw": 0}}))
    out = tmp_path / "out.csv"
    assert main(["capacity", str(path), "--format", "csv", "--output", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:4]] == [
        "alpha", "mu", "zeta",
    ]
