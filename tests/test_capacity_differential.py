"""Differential test: `flexmarket capacity` exit codes and bytes against the
reference's clearing, reserve, settlement and report, from the drawn
scenario document."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket.cli import main

RUNS = settings(max_examples=150, deadline=None)
COLUMNS = ["id", "start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw"]


def oracle(doc, csv_input, cf_arg, allow_overlap, fmt, rounding):
    """(exit code, stdout) of `capacity` on the document, from the
    reference: 1 where the pool is rejected, 3 on the paradox."""
    if csv_input:  # the CSV plant table carries plants only: market and capacity defaults
        doc = {"plants": doc["plants"]}
    written = [*(v for p in doc["plants"] for v in p.values()), *doc.get("market", {}).values(),
               doc.get("capacity", {}).get("threshold")]
    if any(isinstance(v, Fraction) and len(str(max(v.numerator, v.denominator))) > 100
           for v in written):
        return 1, b""  # a literal "n/d" may have at most 100 digits in each part
    scenario = ref.read(doc)
    if allow_overlap:
        scenario = scenario._replace(allow_overlap=True)
    result = ref.clearing(scenario)
    cf = result.total_fee_cf if cf_arg is None else Fraction(cf_arg)
    try:
        paid = ref.payments(scenario, ref.reserve(scenario, result.dispatch), cf)
    except ref.Paradox:
        return 3, b""
    except ValueError:
        return 1, b""
    return 0, ref.settlement_report(paid, cf, fmt, rounding)


@st.composite
def cases(draw):
    doc = draw(ref.scenarios())
    if draw(st.integers(min_value=0, max_value=2)) == 2:
        # an explicit list: eligible or not, dispatched or not
        ids = [p["id"] for p in doc["plants"]]
        doc["capacity"]["participants"] = draw(st.lists(st.sampled_from(ids), unique=True))
    csv_input = draw(st.integers(min_value=0, max_value=5)) == 5
    cf = draw(st.one_of(st.none(), st.sampled_from(["0", "205", "12.345", "1/3"])))
    allow_overlap = draw(st.booleans())
    fmt = draw(st.sampled_from(["plain-table", "csv", "json"]))
    rounding = draw(st.sampled_from(["exact", "paper-rounded"]))
    return doc, csv_input, cf, allow_overlap, fmt, rounding


def literal(value):
    """A document's number as a scenario file holds it: an int, a float
    where the decimal is exact, else the string "n/d"."""
    if not isinstance(value, Fraction):
        return value
    if value.denominator == 1:
        return value.numerator
    for digits in range(1, 9):
        if (value * 10**digits).denominator == 1:
            return float(value)
    return f"{value.numerator}/{value.denominator}"


def write_scenario(directory, doc, csv_input):
    if not csv_input:
        path = Path(directory) / "s.json"
        path.write_text(json.dumps(doc, default=literal))
        return path
    lines = [",".join(COLUMNS)]
    lines += [",".join(str(literal(p[c])) for c in COLUMNS) for p in doc["plants"]]
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
        assert (code, stdout) == oracle(doc, csv_input, cf, allow_overlap, fmt, rounding)


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
