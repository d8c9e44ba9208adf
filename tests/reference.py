"""One independent reference for the whole flexmarket chain, in plain
Fractions and loops, for the differential tests, and the Hypothesis
strategies they share. It imports nothing from flexmarket.

A scenario starts as its document: the dict a JSON scenario file holds,
with numbers as ints, floats, numeric strings or Fractions, and "inf" for
an unbounded start-up time. `read` takes its exact values, a missing
section with the defaults a CSV plant table gets. From them the reference
computes:

- phi = 1/(h + 1) for a start-up time of h hours, and 0 for "inf";
- each offer mc + (1 - phi)·p0, whose fee rate is (1 - phi)·p0;
- the merit order, a plain `sorted` on (offer, -phi, id);
- the fill, min(capacity, demand left) in merit order, the clearing price
  of the last plant filled, the fee ledger and its sum C_f;
- the reserve: the undispatched plants with phi above the threshold
  ("auto"), or the pinned list, which may hold a dispatched plant only with
  `allow_overlap`; a pool that `capacity` rejects raises its error text;
- the paradox, C_f > 0 and an empty reserve, and the payments
  rho_i = phi_i·P_i / P_flex · C_f;
- a sweep's per-point records and change points;
- the report bytes of each, written a row at a time by `shown`.
"""

import json
from collections import namedtuple
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

import pytest
from hypothesis import strategies as st

TOY_GRID = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "toy-grid.json").read_text()
)

Plant = namedtuple("Plant", "id phi marginal_cost capacity")
Scenario = namedtuple("Scenario", "plants p0 demand period threshold participants "
                                  "allow_overlap")
# the fields of flexmarket's Offer, in its order, so the two compare as tuples
Offer = namedtuple("Offer", "plant_id offer_price fee_rate phi capacity")
Clearing = namedtuple("Clearing", "merit_order offers dispatch clearing_price fee_ledger "
                                  "profits total_fee_cf consumed_energy total_capacity blackout")
# the fields of flexmarket's SweepPoint, in its order
Point = namedtuple("Point", "p0 clearing_price merit_order dispatched total_fee_cf reserve "
                            "paradox")


class Paradox(ValueError):
    """A positive fee pool and nobody in the reserve to pay it to."""


def number(raw):
    """The exact value of a document's number; a float is read as its repr,
    as a JSON literal."""
    return Fraction(repr(raw)) if isinstance(raw, float) else Fraction(raw)


def phi(hours):
    return Fraction(0) if hours == "inf" else 1 / (number(hours) + 1)


def read(doc):
    """The document's plants, market and capacity rules as exact values."""
    market, rules = doc.get("market", {}), doc.get("capacity", {})
    return Scenario(
        plants=[Plant(p["id"], phi(p["start_up_time_h"]), number(p["marginal_cost_eur_per_mwh"]),
                      number(p["capacity_mw"])) for p in doc["plants"]],
        p0=number(market.get("p0_eur_per_mwh", 0)),
        demand=number(market.get("demand_mw", 0)),
        period=number(market.get("period_h", 1)),
        threshold=number(rules.get("threshold", Fraction(1, 2))),
        participants=rules.get("participants", "auto"),
        allow_overlap=rules.get("allow_overlap", False),
    )


def toy(p0=10, demand=25):
    """The bundled toy grid's document at this p0 and demand."""
    return dict(TOY_GRID, market=dict(TOY_GRID["market"], p0_eur_per_mwh=p0, demand_mw=demand))


def offer(plant, p0):
    """The plant's offer mc + (1 - phi)·p0, whose fee rate is (1 - phi)·p0."""
    fee_rate = (1 - plant.phi) * p0
    return Offer(plant.id, plant.marginal_cost + fee_rate, fee_rate, plant.phi, plant.capacity)


def merit_key(o):
    """Ascending offer, then higher phi, then id."""
    return o.offer_price, -o.phi, o.plant_id


def fill(capacities, demand):
    """The MW of each plant in turn, min(capacity, demand left), until the
    demand is met; and the demand left unmet."""
    dispatch = []
    for capacity in capacities:
        if demand == 0:
            break
        dispatch.append(min(capacity, demand))
        demand -= dispatch[-1]
    return dispatch, demand


def clearing(scenario, p0=None):
    """One clearing of the scenario, at its own p0 unless one is given."""
    if p0 is None:
        p0 = scenario.p0
    offers = sorted((offer(p, p0) for p in scenario.plants), key=merit_key)
    mw, unmet = fill([o.capacity for o in offers], scenario.demand)
    filled = offers[:len(mw)]
    price = filled[-1].offer_price if filled else Fraction(0)
    ledger = {o.plant_id: o.fee_rate * m for o, m in zip(filled, mw)}
    return Clearing(
        merit_order=tuple(o.plant_id for o in offers),
        offers=offers,
        dispatch={o.plant_id: m for o, m in zip(filled, mw)},
        clearing_price=price,
        fee_ledger=ledger,
        profits={o.plant_id: price - o.offer_price for o in filled},
        total_fee_cf=sum(ledger.values(), Fraction(0)),
        consumed_energy=scenario.demand * scenario.period,
        total_capacity=sum((o.capacity for o in offers), Fraction(0)),
        blackout=unmet > 0,
    )


def reserve(scenario, dispatched):
    """The reserve's plant ids once `dispatched` clear. A pinned list of an
    unknown or ineligible plant, or of a dispatched one without
    `allow_overlap`, raises ValueError with the text `capacity` gives."""
    phis = {p.id: p.phi for p in scenario.plants}
    pinned, threshold = scenario.participants, scenario.threshold
    if pinned == "auto":
        return [pid for pid, score in phis.items() if score > threshold and pid not in dispatched]
    for pid in pinned:
        if pid not in phis:
            raise ValueError(f"unknown plant id {pid!r}")
    for pid in pinned:
        if not phis[pid] > threshold:
            raise ValueError(f"{pid}: phi = {phis[pid]} does not exceed threshold {threshold}")
    for pid in pinned:
        if pid in dispatched and not scenario.allow_overlap:
            raise ValueError(f"{pid} is dispatched on the spot market and cannot join the "
                             "reserve pool (use allow_overlap to override)")
    return list(pinned)


def is_paradox(members, cf):
    return cf > 0 and not members


def payments(scenario, members, cf):
    """rho_i = phi_i·P_i / P_flex · C_f for each reserve plant, or Paradox."""
    if cf < 0:
        raise ValueError("fee pool C_f must be >= 0")
    if is_paradox(members, cf):
        raise Paradox(f"fee pool of {cf} EUR/h but no reserve plant to receive it")
    weight = {p.id: p.phi * p.capacity for p in scenario.plants if p.id in members}
    p_flex = sum(weight.values(), Fraction(0))
    return {pid: w / p_flex * cf for pid, w in weight.items()}


def sweep(scenario, grid):
    """A Point per p0 of the grid, each from its own clearing and reserve,
    and the p0s whose merit order differs from the point before. Where the
    pool is rejected, the ValueError names the p0."""
    points = []
    for p0 in grid:
        result = clearing(scenario, p0)
        dispatched = frozenset(result.dispatch)
        try:
            members = reserve(scenario, dispatched)
        except ValueError as exc:
            raise ValueError(f"p0 = {p0}: {exc}") from None
        points.append(Point(p0, result.clearing_price, result.merit_order, dispatched,
                            result.total_fee_cf, frozenset(members),
                            is_paradox(members, result.total_fee_cf)))
    changes = tuple(b.p0 for a, b in zip(points, points[1:]) if a.merit_order != b.merit_order)
    return tuple(points), changes


def sweep_rows(result):
    """A flexmarket `SweepResult`'s runs expanded to a Point per grid point,
    as `emit_sweep` writes them: the price and C_f from the run's affine
    coefficients, and a paradox at each p0 > 0 of a depleting run."""
    ends = [run.start for run in result.runs[1:]] + [len(result.grid)]
    return tuple(
        Point(p0, run.price_base + run.price_slope * p0, run.merit_order, run.dispatched,
              run.fee_slope * p0, run.reserve, run.depletes and p0 > 0)
        for run, end in zip(result.runs, ends)
        for p0 in map(result.grid.__getitem__, range(run.start, end))
    )


# ---- reports


def shown(x, mode="exact"):
    """x as a report writes it. Paper-rounded: the nearest int, halves away
    from zero. Exact: the int if x is one, else the nearest float, and a
    ValueError beyond the float range."""
    if mode == "paper-rounded":
        return (1 if x >= 0 else -1) * floor(abs(x) + Fraction(1, 2))
    if x.denominator == 1:
        return x.numerator
    try:
        return float(x)
    except OverflowError:
        bits = x.numerator.bit_length() - x.denominator.bit_length()
        raise ValueError(f"a value of about 2**{bits} is too large to report as a float") from None


def text_lines(format, headers, rows):
    """The CSV lines, or the plain table's padded lines with a rule under
    the header, of the header and rows."""
    cells = [headers] + [list(map(str, row)) for row in rows]
    if format == "csv":
        return [",".join(row) for row in cells]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return lines[:1] + ["  ".join("-" * w for w in widths)] + lines[1:]


def report(format, headers, rows, key, tail, footer):
    """JSON {key: the rows as objects, **tail}, indented by two and with
    sorted keys; else the CSV or plain-table lines, then the footer lines,
    each after "# " in CSV."""
    if format == "json":
        doc = {key: [dict(zip(headers, row)) for row in rows], **tail}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    prefix = "# " if format == "csv" else ""
    lines = text_lines(format, headers, rows) + [prefix + line for line in footer]
    return "".join(line + "\n" for line in lines).encode("utf-8")


CLEARING_HEADERS = ["plant_id", "phi", "fee_rate_eur_per_mwh", "offer_eur_per_mwh",
                    "capacity_mw", "dispatch_mw", "profit_margin_eur_per_mwh", "fee_eur_per_h"]


def clearing_report(result, format, mode):
    """A Clearing's report: a row per offer in merit order, and a summary
    whose paper-rounded C_f sums each rounded fee rate times its MW."""
    rows = []
    for o in result.offers:
        mw = result.dispatch.get(o.plant_id)
        rows.append([o.plant_id, shown(o.phi), shown(o.fee_rate, mode),
                     shown(o.offer_price, mode), shown(o.capacity)]
                    + ([0, "", ""] if mw is None else
                       [shown(mw), shown(result.profits[o.plant_id], mode),
                        shown(result.fee_ledger[o.plant_id], mode)]))
    cf = result.total_fee_cf if mode == "exact" else sum(
        (shown(o.fee_rate, mode) * result.dispatch[o.plant_id]
         for o in result.offers if o.plant_id in result.dispatch), Fraction(0))
    summary = {
        "clearing_price_eur_per_mwh": shown(result.clearing_price, mode),
        "total_fee_cf_eur_per_h": shown(cf, mode),
        "consumed_energy_mwh": shown(result.consumed_energy),
        "total_capacity_mw": shown(result.total_capacity),
        "blackout": result.blackout,
    }
    sep = "=" if format == "csv" else ": "
    return report(format, CLEARING_HEADERS, rows, "plants", {"summary": summary},
                  [f"{k}{sep}{v}" for k, v in summary.items()])


SWEEP_HEADERS = ["p0", "clearing_price", "merit_order", "dispatched", "total_fee_cf",
                 "reserve", "paradox"]


def sweep_report(points, changes, format, mode):
    rows = [[shown(pt.p0), shown(pt.clearing_price, mode), "|".join(pt.merit_order),
             "|".join(sorted(pt.dispatched)), shown(pt.total_fee_cf, mode),
             "|".join(sorted(pt.reserve)), pt.paradox] for pt in points]
    changes = [shown(p0) for p0 in changes]
    return report(format, SWEEP_HEADERS, rows, "points", {"change_points": changes},
                  ["change_points: " + ",".join(map(str, changes))])


def settlement_report(paid, cf, format, mode):
    """Payments by descending value, then id, and the fee pool."""
    rows = [[pid, shown(value, mode)]
            for pid, value in sorted(paid.items(), key=lambda kv: (-kv[1], kv[0]))]
    source = shown(cf, mode)
    return report(format, ["plant_id", "reliability_payment_eur_per_h"], rows, "payments",
                  {"summary": {"source_fee_cf_eur_per_h": source}},
                  [f"source_fee_cf_eur_per_h: {source}"])


def assert_same_reports(emit, expected):
    """emit(format, mode) gives expected(format, mode) in every text format
    and rounding mode, or raises its ValueError with the same text."""
    for format in ("plain-table", "csv", "json"):
        for mode in ("exact", "paper-rounded"):
            try:
                want = expected(format, mode)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    emit(format, mode)
                assert str(raised.value) == str(exc)
                continue
            assert emit(format, mode) == want


# ---- shared Hypothesis strategies


def coprime_20_digit(count):
    found = []
    k = 1
    while len(found) < count:
        candidate = 10**19 + k
        if all(gcd(candidate, other) == 1 for other in found):
            found.append(candidate)
        k += 2
    return found


# Small shared value sets make equal offers common: plants with the same
# start-up time and cost tie at every p0, and plants with different scores
# tie exactly at grid points such as p0 = 10 for (0 + p0/2) and (5 + 0·p0).
start_up = st.one_of(
    st.just("inf"),
    st.sampled_from([Fraction(0), Fraction(1, 50), Fraction(1, 2), Fraction(1), Fraction(3)]),
    st.fractions(min_value=0, max_value=100, max_denominator=10),
    st.fractions(min_value=0, max_value=5, max_denominator=40),
)
money = st.one_of(
    st.integers(min_value=0, max_value=20).map(Fraction),
    st.fractions(min_value=0, max_value=200, max_denominator=20),
    st.decimals(min_value=0, max_value=120, places=2).map(Fraction),
)
# coprime and large denominators make the fill grow its common denominator
fine_capacities = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from([1, 2, 3, 7, 10, 97, 100, *coprime_20_digit(4)]),
).filter(lambda c: c <= 500)
capacities = st.one_of(
    # few values, so that distinct plants often have equal phi·P
    st.sampled_from([5, 10]).map(Fraction),
    st.integers(min_value=1, max_value=80).map(Fraction),
    st.fractions(min_value=Fraction(1, 4), max_value=50, max_denominator=8),
    fine_capacities,
)


def near_integers(max_value):
    """k + 1/q for ints 0 <= k <= max_value and 1 <= q <= 2**300, q often
    above 2**64: values that round to one float but differ exactly, and
    whose common denominators run to hundreds of bits."""
    return st.builds(lambda k, q: k + Fraction(1, q), st.integers(min_value=0, max_value=max_value),
                     st.integers(min_value=1, max_value=2**300)
                     | st.integers(min_value=2**64, max_value=2**300))


@st.composite
def scenarios(draw, start_up=start_up, money=money):
    """A scenario document of 1-12 plants in any order, some of them copies
    of an earlier plant under a new id, which tie with it at every p0. The
    demand is 0, exactly the first k plants of the merit order at p0, any
    share of up to twice the capacity, or just above it: a blackout. The
    pool is "auto" or a pinned list of eligible plants, possibly empty.
    `start_up` and `money` draw the start-up times and the costs and p0."""
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        if rows and draw(st.booleans()):
            rows.append(dict(draw(st.sampled_from(rows)), id=f"plant{i:02d}"))
            continue
        rows.append({"id": f"plant{i:02d}", "start_up_time_h": draw(start_up),
                     "marginal_cost_eur_per_mwh": draw(money), "capacity_mw": draw(capacities)})
    doc = {"plants": draw(st.permutations(rows)),
           "market": {"p0_eur_per_mwh": draw(money), "demand_mw": 0}}
    merit = clearing(read(doc)).offers
    total = sum(o.capacity for o in merit)
    k = draw(st.integers(min_value=0, max_value=len(merit)))
    doc["market"]["demand_mw"] = draw(st.one_of(
        st.just(Fraction(0)),
        st.just(sum((o.capacity for o in merit[:k]), Fraction(0))),
        st.fractions(min_value=0, max_value=2, max_denominator=16).map(lambda r: r * total),
        st.fractions(min_value=1, max_value=2, max_denominator=16).map(
            lambda r: r * total + Fraction(1, 10**20 + 39)),
    ))
    threshold = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
                     | st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                                    max_denominator=100))
    eligible = [o.plant_id for o in merit if o.phi > threshold]
    pinned = st.lists(st.sampled_from(eligible), unique=True) if eligible else st.just([])
    doc["capacity"] = {"threshold": threshold, "participants": draw(st.just("auto") | pinned),
                       "allow_overlap": draw(st.booleans())}
    return doc


def large_denominator_scenarios():
    """`scenarios` whose costs, p0 and start-up times are k + 1/q, q up to
    2**300."""
    return scenarios(start_up=st.just("inf") | near_integers(3), money=near_integers(5))


def grids(p0_range):
    """Sweep grids of 1-15 points: from `p0_range` (flexmarket's, passed in),
    whose lo and step have independent denominators, and ascending lists,
    with shared small denominators, where offers often tie, or with one
    denominator per point. The reference reads any of them as its p0s."""
    ranged = st.builds(
        lambda lo, step, count: p0_range(lo, lo + (count - 1) * step, step),
        st.fractions(min_value=0, max_value=60, max_denominator=12),
        st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
        st.integers(min_value=1, max_value=15),
    )
    return st.one_of(
        ranged,
        st.lists(st.fractions(min_value=0, max_value=100, max_denominator=4),
                 min_size=1, max_size=15, unique=True).map(sorted),
        st.lists(st.fractions(min_value=0, max_value=100, max_denominator=30),
                 min_size=1, max_size=15, unique_by=lambda x: x.denominator).map(sorted),
    )
