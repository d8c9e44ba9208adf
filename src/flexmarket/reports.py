"""Report emission: plain tables, CSV, JSON and an SVG merit-order stack.

All emitters are byte-stable for identical inputs. The rounding mode
affects displayed values only: `exact` prints full-precision floats,
`paper-rounded` rounds money columns to integer EUR, half away from zero."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from ._numeric import FORMATS, ROUNDING_MODES, ratio_column, ratio_number, ratio_sum, to_number
from .spotmarket import ClearingResult, total_fee

if TYPE_CHECKING:  # for annotations only
    from .analysis import SweepResult
    from .capacity import CapacitySettlement

__all__ = ["check_format", "emit_report", "emit_sweep", "emit_settlement"]

_NO_STACK = {"sweep": "single clearings, not sweeps",
             "settlement": "clearings, not settlements"}


def check_format(report: str, format: str, rounding_mode: str = "exact") -> None:
    """Raise ValueError unless a "clearing", "sweep" or "settlement" report
    can be written so; a caller can ask before it does the work."""
    if format == "svg-stack" and report in _NO_STACK:
        raise ValueError(f"svg-stack applies to {_NO_STACK[report]}")
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r} (choose from {FORMATS})")
    if rounding_mode not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding_mode!r} (choose from {ROUNDING_MODES})")


def _disp(x: Fraction, mode: str) -> int | float:
    return ratio_number(x.numerator, x.denominator, mode == "paper-rounded")


def _columns(parts: list[tuple[Sequence[int], Iterable[int], bool]]) -> list[list]:
    """`ratio_column(*part)` for each part, or the ValueError of the first
    value too large in row order, as a row-by-row report raises it. The
    first part has a value in every row, the others in their first rows."""
    try:
        return [ratio_column(*part) for part in parts]
    except ValueError:
        rows = [zip(nums, dens) for nums, dens, _ in parts]
        for i in range(len(parts[0][0])):
            for (nums, _, rounded), pairs in zip(parts, rows):
                if i < len(nums):
                    ratio_number(*next(pairs), rounded)
        raise


def _clearing_blocks(result: ClearingResult, rounded: bool) -> list[list]:
    """The plants' rows for `_body`, in merit order: a block of the
    dispatched plants, then one of the rest. Each column is rendered from
    the result's int pairs (n, d); a margin P - o is (Pn·od - on·Pd)/(Pd·od)
    and a fee r·m is (rn·mn)/(rd·md), unreduced, which render as the
    reduced values."""
    stack, count = result.stack, len(result.mw)
    phi, rate, offer, cap, mw = (([n for n, _ in c], [d for _, d in c]) for c in (
        stack.phis, stack.fees, stack.prices, stack.capacities, result.mw))
    pn, pd = result.clearing_price.numerator, result.clearing_price.denominator
    on, od = offer[0][:count], offer[1][:count]
    margin = [pn * d - n * pd for n, d in zip(on, od)], [pd * d for d in od]
    fee = [a * b for a, b in zip(rate[0], mw[0])], [a * b for a, b in zip(rate[1], mw[1])]
    columns = _columns([(*phi, False), (*rate, rounded), (*offer, rounded), (*cap, False),
                        (*mw, False), (*margin, rounded), (*fee, rounded)])
    ids = stack.ids
    return [[ids[:count], *(column[:count] for column in columns)],
            [ids[count:], *(column[count:] for column in columns[:4]), 0, "", ""]]


def _clearing_summary(result: ClearingResult, mode: str) -> dict:
    return {"clearing_price_eur_per_mwh": _disp(result.clearing_price, mode),
            "total_fee_cf_eur_per_h": _disp(total_fee(result, mode), mode),
            "consumed_energy_mwh": to_number(result.consumed_energy),
            "total_capacity_mw": to_number(result.total_capacity), "blackout": result.blackout}


_CHUNK = 512  # rows rendered at a time, so not every cell is a str at once


def _body(format: str, headers: list[str], blocks: list[list]) -> list[bytes]:
    """Rows as `format` writes them, `_CHUNK` rows to a bytes: CSV's header
    line and rows, a plain table's header, rule and padded rows, or JSON's
    rows as objects with sorted keys at depth 2, joined by commas. A block
    is a cell per header, the first a list: a list holds the value
    of each of the block's rows, and any other cell is one value shared by
    them, rendered (encoded or padded) once, in the block's row template."""
    blocks = [block for block in blocks if block[0]]
    order, chunks = range(len(headers)), []
    if format == "json":
        order = sorted(order, key=headers.__getitem__)
        start, sep, end, render = "    {\n", ",\n", "\n    },\n", json.dumps
        slots = [f"      {encode_basestring_ascii(h)}: %s" for h in headers]
    elif format == "csv":
        start, sep, end, render, slots = "", ",", "\n", str, ["%s"] * len(headers)
        chunks.append(",".join(headers) + "\n")
    else:
        blocks = [[list(map(str, c)) if isinstance(c, list) else str(c) for c in block]
                  for block in blocks]
        widths = [max([len(h)] + [max(map(len, c)) if isinstance(c, list) else len(c)
                                  for c in (block[i] for block in blocks)])
                  for i, h in enumerate(headers)]
        start, sep, end, render, slots = "", "  ", "", str, [f"%-{w}s" for w in widths]
        chunks.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
                      + "\n" + "  ".join("-" * w for w in widths) + "\n")
    chunks = [chunk.encode("utf-8") for chunk in chunks]
    for block in blocks:
        columns, parts = [], []
        for i in order:
            cell = block[i]
            if isinstance(cell, list):
                if format == "json" and isinstance(cell[0], str):
                    cell = [encode_basestring_ascii(v) for v in cell]
                columns.append(cell)
                parts.append(slots[i])
            else:
                parts.append((slots[i] % render(cell)).replace("%", "%%"))
        template = start + sep.join(parts) + end
        for at in range(0, len(block[0]), _CHUNK):
            rows = map(template.__mod__, zip(*(c[at:at + _CHUNK] for c in columns)))
            if format == "plain-table":
                rows = (row.rstrip() + "\n" for row in rows)
            chunks.append("".join(rows).encode("utf-8"))
    if format == "json" and chunks:
        chunks[-1] = chunks[-1][:-2]  # no comma after the last row
    return chunks


def _json_bytes(doc: object) -> bytes:
    """`json.dumps(doc, indent=2, sort_keys=True)` and a newline, as bytes."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _with_rows(doc: dict, key: str, rows: list[bytes]) -> bytes:
    """`_json_bytes(doc)` with the JSON rows from `_body` as the list
    doc[key], which is empty in doc."""
    text = _json_bytes(doc)
    if not rows:
        return text
    head, tail = text.split(f'"{key}": []'.encode(), 1)
    return b"".join([head, f'"{key}": [\n'.encode(), *rows, b"\n  ]", tail])


def emit_report(result: ClearingResult, format: str = "plain-table",
                rounding_mode: str = "exact") -> bytes:
    """Render one clearing result."""
    check_format("clearing", format, rounding_mode)
    if format == "svg-stack":
        return _svg_stack(result)
    blocks = _clearing_blocks(result, rounding_mode == "paper-rounded")
    summary = _clearing_summary(result, rounding_mode)
    headers = ["plant_id", "phi", "fee_rate_eur_per_mwh", "offer_eur_per_mwh", "capacity_mw",
               "dispatch_mw", "profit_margin_eur_per_mwh", "fee_eur_per_h"]
    rows = _body(format, headers, blocks)
    if format == "json":
        return _with_rows({"plants": [], "summary": summary}, "plants", rows)
    prefix, sep = ("# ", "=") if format == "csv" else ("", ": ")
    footer = "".join(f"{prefix}{k}{sep}{v}\n" for k, v in summary.items())
    return b"".join([*rows, footer.encode("utf-8")])


_PALETTE = ("#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
            "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd")


def _drawn(x: Fraction) -> float:
    """x as a float to draw. `to_number` gives an int beyond the float range
    as it is, which no drawing can hold: it raises the ValueError of x + 1/2,
    which names the same power of two."""
    try:
        return float(to_number(x))
    except OverflowError:
        return to_number(x + Fraction(1, 2))


def _svg_stack(result: ClearingResult) -> bytes:
    """Merit-order block diagram: width proportional to capacity, height to
    offer price, with the clearing price as a dashed rule and the served
    demand as a vertical marker."""
    width, height, margin = 800.0, 400.0, 50.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    total_mw = _drawn(result.total_capacity) or 1.0
    clearing_price = _drawn(result.clearing_price)
    max_price = max([_drawn(o.offer_price) for o in result.offers] + [clearing_price, 1.0])
    demand_mw = _drawn(Fraction(*ratio_sum(result.mw)))

    def x(mw: float) -> float:
        return margin + plot_w * mw / total_mw

    def y(price: float) -> float:
        return height - margin - plot_h * price / max_price

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    cursor, escape = 0.0, str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
    for i, offer in enumerate(result.offers):
        mw = _drawn(offer.capacity)
        x0, x1, y0 = x(cursor), x(cursor + mw), y(_drawn(offer.offer_price))
        parts += [f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                  f'height="{height - margin - y0:.2f}" fill="{_PALETTE[i % len(_PALETTE)]}" '
                  'stroke="black"/>',
                  f'<text x="{(x0 + x1) / 2:.2f}" y="{height - margin + 14:.0f}" font-size="10" '
                  f'text-anchor="middle">{offer.plant_id.translate(escape)}</text>']
        cursor += mw
    p_star_y = y(clearing_price)
    parts += [f'<line x1="{margin}" y1="{p_star_y:.2f}" x2="{width - margin}" '
              f'y2="{p_star_y:.2f}" stroke="red" stroke-dasharray="6,4"/>',
              f'<text x="{margin + 4:.0f}" y="{p_star_y - 4:.2f}" font-size="11" '
              f'fill="red">p* = {clearing_price:g} EUR/MWh</text>']
    if demand_mw > 0:
        demand_x = x(demand_mw)
        parts += [f'<line x1="{demand_x:.2f}" y1="{margin}" x2="{demand_x:.2f}" '
                  f'y2="{height - margin}" stroke="red" stroke-dasharray="6,4"/>',
                  f'<text x="{demand_x + 4:.2f}" y="{margin + 12:.0f}" font-size="11" '
                  f'fill="red">q = {demand_mw:g} MW</text>']
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def emit_sweep(sweep: SweepResult, format: str = "plain-table",
               rounding_mode: str = "exact") -> bytes:
    """Render a reference-price sweep as table records, a run at a time. At
    p0 = a/den a run's price u/v + (s/v)·p0 is (u·den + s·a)/(v·den) and its
    C_f (w/z)·p0 is w·a/(z·den): `ratio_column` renders each column over its
    one denominator, and `_body` renders the cells a run's rows share once."""
    check_format("sweep", format, rounding_mode)
    headers = ["p0", "clearing_price", "merit_order", "dispatched", "total_fee_cf",
               "reserve", "paradox"]
    rounded = rounding_mode == "paper-rounded"
    blocks = []  # for _body: per run, its rows before p0 > 0 and the rest
    for run, p0s in sweep.pieces():
        nums, den = p0s.nums, p0s.den
        base, slope = run.price_base, run.price_slope
        v = lcm(base.denominator, slope.denominator)
        u = base.numerator * (v // base.denominator) * den
        s = slope.numerator * (v // slope.denominator)
        w, z = run.fee_slope.numerator, run.fee_slope.denominator
        prices, fees = [u + s * a for a in nums], [w * a for a in nums]
        columns = _columns([(nums, repeat(den), False), (prices, repeat(v * den), rounded),
                            (fees, repeat(z * den), rounded)])
        order = "|".join(run.merit_order)
        dispatched = "|".join(sorted(run.merit_order[:run.dispatched_count]))
        reserve = "|".join(sorted(run.reserve))
        cut = 1 if run.depletes and nums[0] == 0 else 0  # no paradox at p0 = 0
        for part, paradox in ((slice(cut), False), (slice(cut, None), run.depletes)):
            p0s, prices, fees = (column[part] for column in columns)
            blocks.append([p0s, prices, order, dispatched, fees, reserve, paradox])
    rows = _body(format, headers, blocks)
    if format == "json":
        return _with_rows({"points": [], "change_points": [
            to_number(p) for p in sweep.change_points]}, "points", rows)
    changes = ",".join(str(to_number(p)) for p in sweep.change_points)
    prefix = "# " if format == "csv" else ""
    return b"".join([*rows, f"{prefix}change_points: {changes}\n".encode("utf-8")])


def emit_settlement(settlement: CapacitySettlement, format: str = "plain-table",
                    rounding_mode: str = "exact") -> bytes:
    """Render reliability payments in the order given (`settle` gives them
    largest first, then by id), each as its weight times the share, on ints."""
    check_format("settlement", format, rounding_mode)
    (sn, sd), weights = settlement.share, settlement.weights
    paid = ratio_column([n * sn for n, _ in weights], [d * sd for _, d in weights],
                        rounding_mode == "paper-rounded")
    headers = ["plant_id", "reliability_payment_eur_per_h"]
    rows = _body(format, headers, [[list(settlement.ids), paid]])
    source = _disp(settlement.source_fee_cf, rounding_mode)
    if format == "json":
        return _with_rows({"payments": [], "summary": {"source_fee_cf_eur_per_h": source}},
                          "payments", rows)
    prefix = "# " if format == "csv" else ""
    return b"".join([*rows, f"{prefix}source_fee_cf_eur_per_h: {source}\n".encode("utf-8")])
