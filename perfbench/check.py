"""Output checks for the benchmark.

Three kinds, all counted as failures by run.py:
- the stdout sha256 must equal the digest recorded for the same scenario
  (digests.json), and every invocation in a run must print the same bytes;
- the sweep-fine-grid change-point line must equal the known answer;
- a reference clearing, computed here from the scenario file without
  importing flexmarket, must agree with what the CLI printed.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

# Exact crossings on the toy grid at step 1/100, rounded up to the grid; the
# first is lignite/CHP at 11700/883 = 13.2503...
FINE_GRID_CHANGE_POINTS = "13.26,40,53.89,55.09,57.33,63.07"

# Sweep grid points re-cleared by the reference (every sweep grid here
# contains them).
SWEEP_SAMPLES = (Fraction(0), Fraction(40), Fraction(80))

# The CLI prints exact values through float(); sums here are taken with
# math.fsum over those floats, so they agree to far better than this.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Plant:
    id: str
    phi: Fraction
    cost: Fraction
    capacity: Fraction


@dataclass(frozen=True)
class Market:
    plants: tuple[Plant, ...]
    p0: Fraction
    demand: Fraction
    threshold: Fraction


@dataclass(frozen=True)
class Clearing:
    order: tuple[str, ...]
    price: Fraction
    dispatch: dict[str, Fraction]
    fees: dict[str, Fraction]


def read_market(scenario: bytes) -> Market:
    """Parse a scenario file on its own terms (hyperbolic measure only)."""
    doc = json.loads(scenario, parse_float=Fraction)
    if doc.get("measure", "hyperbolic") != "hyperbolic":
        raise ValueError("the reference only knows the hyperbolic measure")
    plants = []
    for rec in doc["plants"]:
        x = rec["start_up_time_h"]
        phi = Fraction(0) if x == "inf" else 1 / (Fraction(x) + 1)
        plants.append(
            Plant(rec["id"], phi, Fraction(rec["marginal_cost_eur_per_mwh"]),
                  Fraction(rec["capacity_mw"]))
        )
    market = doc.get("market", {})
    return Market(
        tuple(plants),
        Fraction(market.get("p0_eur_per_mwh", 0)),
        Fraction(market.get("demand_mw", 0)),
        Fraction(doc.get("capacity", {}).get("threshold", Fraction(1, 2))),
    )


def reference_clear(market: Market, p0: Fraction) -> Clearing:
    """Uniform-price clearing of the market's demand at reference price p0."""
    def offer(p: Plant) -> Fraction:
        return p.cost + (1 - p.phi) * p0

    stack = sorted(market.plants, key=lambda p: (offer(p), -p.phi, p.id))
    if market.demand > sum(p.capacity for p in stack):
        raise ValueError("the reference does not model blackouts")
    dispatch: dict[str, Fraction] = {}
    fees: dict[str, Fraction] = {}
    remaining, price = market.demand, Fraction(0)
    for p in stack:
        if remaining == 0:
            break
        mw = min(p.capacity, remaining)
        dispatch[p.id] = mw
        fees[p.id] = (1 - p.phi) * p0 * mw
        remaining -= mw
        price = offer(p)
    return Clearing(tuple(p.id for p in stack), price, dispatch, fees)


def number(x: Fraction) -> int | float:
    """A value as the CLI prints it: an int when integral, else a float."""
    return x.numerator if x.denominator == 1 else float(x)


def render(x: Fraction) -> str:
    return str(number(x))


def _fee_sum(clearing: Clearing) -> float:
    return math.fsum(float(v) for v in clearing.fees.values())


def _close(label: str, got: float, want: float) -> list[str]:
    if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        return []
    return [f"{label}: printed {got!r}, reference {want!r}"]


def check_validate(stdout: bytes, market: Market) -> list[str]:
    want = (
        f"OK: {len(market.plants)} plants, demand {render(market.demand)} MW, "
        "measure hyperbolic\n"
    )
    got = stdout.decode("utf-8", "replace")
    return [] if got == want else [f"validate printed {got!r}, expected {want!r}"]


def check_sweep(stdout: bytes, market: Market, grid: list[Fraction],
                known_change_points: str | None) -> list[str]:
    """CSV sweep: one row per grid point, sampled rows re-cleared, change
    points consistent with the merit-order column (and the known answer)."""
    text = stdout.decode("utf-8", "replace")
    body, _, footer = text.rpartition("# change_points: ")
    rows = list(csv.DictReader(io.StringIO(body)))
    problems = []
    if [r.get("p0") for r in rows] != [render(p) for p in grid]:
        return [f"sweep printed {len(rows)} rows, not the {len(grid)} grid points"]
    eligible = {p.id for p in market.plants if p.phi > market.threshold}
    for p0 in SWEEP_SAMPLES:
        row = rows[grid.index(p0)]
        ref = reference_clear(market, p0)
        reserve = sorted(eligible - ref.dispatch.keys())
        want = {
            "clearing_price": render(ref.price),
            "merit_order": "|".join(ref.order),
            "dispatched": "|".join(sorted(ref.dispatch)),
            "reserve": "|".join(reserve),
            "paradox": str(bool(eligible) and not reserve),
        }
        for key, value in want.items():
            if row[key] != value:
                problems.append(f"sweep p0={render(p0)} {key} differs from the reference")
        problems += _close(f"sweep p0={render(p0)} total_fee_cf",
                           float(row["total_fee_cf"]), _fee_sum(ref))
    changes = [
        b["p0"] for a, b in zip(rows, rows[1:]) if a["merit_order"] != b["merit_order"]
    ]
    printed = footer.rstrip("\n")
    if printed != ",".join(changes):
        problems.append(f"change_points {printed!r} do not match the merit-order column")
    if known_change_points is not None and printed != known_change_points:
        problems.append(
            f"change_points {printed!r}, known answer {known_change_points!r}"
        )
    return problems


def check_capacity(stdout: bytes, market: Market) -> list[str]:
    """JSON settlement: the auto reserve, C_f from the clearing, and
    payments proportional to phi * capacity that add up to C_f."""
    doc = json.loads(stdout)
    ref = reference_clear(market, market.p0)
    cf = _fee_sum(ref)
    pool = [p for p in market.plants
            if p.phi > market.threshold and p.id not in ref.dispatch]
    p_flex = math.fsum(float(p.phi * p.capacity) for p in pool)
    paid = {r["plant_id"]: r["reliability_payment_eur_per_h"] for r in doc["payments"]}
    problems = _close("source_fee_cf", doc["summary"]["source_fee_cf_eur_per_h"], cf)
    if set(paid) != {p.id for p in pool}:
        return problems + [
            f"reserve has {len(paid)} participants, reference has {len(pool)}"
        ]
    for p in pool:
        problems += _close(f"payment {p.id}", paid[p.id],
                           float(p.phi * p.capacity) / p_flex * cf)
    problems += _close("sum of payments", math.fsum(paid.values()), cf)
    return problems


def check_clear(stdout: bytes, market: Market) -> list[str]:
    """JSON clearing report: rows in the reference merit order with the
    reference dispatch, and the reference price and C_f."""
    doc = json.loads(stdout)
    ref = reference_clear(market, market.p0)
    rows, summary = doc["plants"], doc["summary"]
    problems = []
    if [r["plant_id"] for r in rows] != list(ref.order):
        problems.append("merit order differs from the reference")
    dispatch = {r["plant_id"]: r["dispatch_mw"] for r in rows if r["dispatch_mw"]}
    if dispatch != {pid: number(mw) for pid, mw in ref.dispatch.items() if mw}:
        problems.append("dispatch differs from the reference")
    if summary["clearing_price_eur_per_mwh"] != number(ref.price):
        problems.append(
            f"clearing price {summary['clearing_price_eur_per_mwh']!r}, "
            f"reference {render(ref.price)}"
        )
    if summary["blackout"] is not False:
        problems.append("blackout flagged below total capacity")
    problems += _close("total_fee_cf", summary["total_fee_cf_eur_per_h"], _fee_sum(ref))
    return problems
