"""Report emission: plain tables, CSV, JSON and an SVG merit-order stack.

All emitters are deterministic and byte-stable for identical inputs. The
rounding mode affects displayed values only: `exact` prints full-precision
floats, `paper-rounded` rounds money columns to integer EUR per unit, half
away from zero.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import lcm

from ._numeric import exact_sum, ratio_column, ratio_number, sorted_exact
from ._numeric import to_float, to_number
from .analysis import SweepResult
from .capacity import CapacitySettlement
from .spotmarket import ClearingResult, total_fee

__all__ = ["check_format", "emit_report", "emit_sweep", "emit_settlement"]

FORMATS = ("plain-table", "csv", "json", "svg-stack")
ROUNDING_MODES = ("exact", "paper-rounded")
# values that json and its C encoder both write as themselves
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NOT_SERIALIZABLE = json.JSONEncoder().default  # raises json's own TypeError
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
        raise ValueError(
            f"unknown rounding mode {rounding_mode!r} (choose from {ROUNDING_MODES})"
        )


def _disp(x: Fraction, mode: str) -> int | float:
    return ratio_number(x.numerator, x.denominator, mode == "paper-rounded")


def _clearing_rows(result: ClearingResult, mode: str) -> list[dict]:
    rows = []
    for offer in result.offers:  # already in merit order
        pid = offer.plant_id
        dispatched = result.dispatch.get(pid)
        profit = result.profits.get(pid)
        rows.append(
            {
                "plant_id": pid,
                "phi": to_number(offer.phi),
                "fee_rate_eur_per_mwh": _disp(offer.fee_rate, mode),
                "offer_eur_per_mwh": _disp(offer.offer_price, mode),
                "capacity_mw": to_number(offer.capacity),
                "dispatch_mw": to_number(dispatched) if dispatched is not None else 0,
                "profit_margin_eur_per_mwh": _disp(profit.margin, mode)
                if profit
                else "",
                "fee_eur_per_h": _disp(result.fee_ledger[pid], mode)
                if pid in result.fee_ledger
                else "",
            }
        )
    return rows


def _clearing_summary(result: ClearingResult, mode: str) -> dict:
    return {
        "clearing_price_eur_per_mwh": _disp(result.clearing_price, mode),
        "total_fee_cf_eur_per_h": _disp(total_fee(result, mode), mode),
        "consumed_energy_mwh": to_number(result.consumed_energy),
        "total_capacity_mw": to_number(result.total_capacity),
        "blackout": result.blackout,
    }


def _table(headers: list[str], rows: list[list[object]]) -> bytes:
    cells = [list(map(str, row)) for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue().encode("utf-8")


def _csv(headers: list[str], rows: list[list[object]]) -> bytes:
    out = io.StringIO()
    out.write(",".join(headers) + "\n")
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")
    return out.getvalue().encode("utf-8")


def _json_bytes(doc: object) -> bytes:
    """`json.dumps(doc, indent=2, sort_keys=True)` and a newline, as bytes.

    json.dumps runs the pure-Python encoder whenever `indent` is set. The same
    bytes come from the C encoder: with item separator ",\n" plus the
    indentation it writes an object or array of scalars exactly as the
    indenting encoder would, apart from the line breaks after its opening
    and before its closing bracket, which _indented adds around it.
    """
    if c_make_encoder is None:
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return (_indented(doc, 0, {}) + "\n").encode("utf-8")


def _indented(value: object, depth: int, encoders: dict) -> str:
    """`value`, a document whose objects have str keys, as json.dumps(indent=2,
    sort_keys=True) writes it at `depth` levels of nesting; `encoders` caches
    a C encoder per depth."""
    if isinstance(value, dict):
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        values = ()
    encode = encoders.get(depth)
    if encode is None:
        encode = encoders[depth] = c_make_encoder(
            None, _NOT_SERIALIZABLE, encode_basestring_ascii, None, ": ",
            ",\n" + "  " * (depth + 1), True, False, True,
        )
    if not values or _SCALARS.issuperset(map(type, values)):
        text = "".join(encode(value, 0))
        if not values:  # a scalar, or an empty object or array
            return text
        return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"
    if isinstance(value, dict):
        parts = [
            f"{encode_basestring_ascii(k)}: {_indented(v, depth + 1, encoders)}"
            for k, v in sorted(value.items())
        ]
        brackets = "{}"
    else:
        parts = [_indented(v, depth + 1, encoders) for v in values]
        brackets = "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}\n{'  ' * depth}{brackets[1]}"


def emit_report(
    result: ClearingResult,
    format: str = "plain-table",
    rounding_mode: str = "exact",
) -> bytes:
    """Render one clearing result."""
    check_format("clearing", format, rounding_mode)
    rows = _clearing_rows(result, rounding_mode)
    summary = _clearing_summary(result, rounding_mode)

    if format == "json":
        return _json_bytes({"plants": rows, "summary": summary})

    headers = list(rows[0].keys()) if rows else [
        "plant_id", "phi", "fee_rate_eur_per_mwh", "offer_eur_per_mwh",
        "capacity_mw", "dispatch_mw", "profit_margin_eur_per_mwh", "fee_eur_per_h",
    ]
    table_rows = [[r[h] for h in headers] for r in rows]
    if format == "csv":
        body = _csv(headers, table_rows)
        footer = "".join(f"# {k}={v}\n" for k, v in summary.items())
        return body + footer.encode("utf-8")
    if format == "plain-table":
        body = _table(headers, table_rows)
        footer = "".join(f"{k}: {v}\n" for k, v in summary.items())
        return body + footer.encode("utf-8")
    return _svg_stack(result)


_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
    "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
)


def _svg_stack(result: ClearingResult) -> bytes:
    """Merit-order block diagram: width proportional to capacity, height to
    offer price, with the clearing price as a dashed rule and the served
    demand as a vertical marker."""
    width, height = 800.0, 400.0
    margin = 50.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    total_mw = to_float(result.total_capacity) or 1.0
    clearing_price = to_float(result.clearing_price)
    max_price = max([to_float(o.offer_price) for o in result.offers]
                    + [clearing_price, 1.0])
    demand_mw = to_float(exact_sum(result.dispatch.values()))

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
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    cursor = 0.0
    for i, offer in enumerate(result.offers):
        mw = to_float(offer.capacity)
        price = to_float(offer.offer_price)
        x0, x1 = x(cursor), x(cursor + mw)
        y0 = y(price)
        fill = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{height - margin - y0:.2f}" fill="{fill}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{height - margin + 14:.0f}" '
            f'font-size="10" text-anchor="middle">{offer.plant_id}</text>'
        )
        cursor += mw
    p_star_y = y(clearing_price)
    parts.append(
        f'<line x1="{margin}" y1="{p_star_y:.2f}" x2="{width - margin}" '
        f'y2="{p_star_y:.2f}" stroke="red" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{margin + 4:.0f}" y="{p_star_y - 4:.2f}" font-size="11" '
        f'fill="red">p* = {clearing_price:g} EUR/MWh</text>'
    )
    if demand_mw > 0:
        demand_x = x(demand_mw)
        parts.append(
            f'<line x1="{demand_x:.2f}" y1="{margin}" x2="{demand_x:.2f}" '
            f'y2="{height - margin}" stroke="red" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{demand_x + 4:.2f}" y="{margin + 12:.0f}" font-size="11" '
            f'fill="red">q = {demand_mw:g} MW</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def emit_sweep(
    sweep: SweepResult,
    format: str = "plain-table",
    rounding_mode: str = "exact",
) -> bytes:
    """Render a reference-price sweep as table records, a run at a time. At
    p0 = a/den a run's price u/v + (s/v)·p0 is (u·den + s·a)/(v·den) and its
    C_f (w/z)·p0 is w·a/(z·den): `ratio_column` renders each column over its
    one denominator, and the other cells are joined once per run."""
    check_format("sweep", format, rounding_mode)
    headers = ["p0", "clearing_price", "merit_order", "dispatched", "total_fee_cf",
               "reserve", "paradox"]
    rounded = rounding_mode == "paper-rounded"
    blocks = []  # p0s, prices, fees, then the cells shared by their rows
    for run, p0s in sweep.pieces():
        nums, den = p0s.nums, p0s.den
        base, slope = run.price_base, run.price_slope
        v = lcm(base.denominator, slope.denominator)
        u = base.numerator * (v // base.denominator) * den
        s = slope.numerator * (v // slope.denominator)
        w, z = run.fee_slope.numerator, run.fee_slope.denominator
        prices, fees = [u + s * a for a in nums], [w * a for a in nums]
        try:
            columns = [ratio_column(nums, den), ratio_column(prices, v * den, rounded),
                       ratio_column(fees, z * den, rounded)]
        except ValueError:  # raise the first value too large in row order
            for a, c, f in zip(nums, prices, fees):
                ratio_number(a, den)
                ratio_number(c, v * den, rounded)
                ratio_number(f, z * den, rounded)
            raise
        cells = ["|".join(run.merit_order), "|".join(sorted(run.dispatched)),
                 "|".join(sorted(run.reserve))]
        cut = 1 if run.depletes and nums[0] == 0 else 0  # no paradox at p0 = 0
        blocks.append([col[:cut] for col in columns] + cells + [False])
        blocks.append([col[cut:] for col in columns] + cells + [run.depletes])
    changes = ",".join(str(to_number(p)) for p in sweep.change_points)
    if format == "csv":
        lines = [",".join(headers) + "\n"]
        for p0s, prices, fees, order, dispatched, reserve, paradox in blocks:
            mid, end = f",{order},{dispatched},", f",{reserve},{paradox}\n"
            lines += [f"{p},{c}{mid}{f}{end}" for p, c, f in zip(p0s, prices, fees)]
        lines.append(f"# change_points: {changes}\n")
        return "".join(lines).encode("utf-8")
    rows = [[p, c, order, dispatched, f, reserve, paradox]
            for p0s, prices, fees, order, dispatched, reserve, paradox in blocks
            for p, c, f in zip(p0s, prices, fees)]
    if format == "json":
        return _json_bytes({
            "points": [dict(zip(headers, row)) for row in rows],
            "change_points": [to_number(p) for p in sweep.change_points],
        })
    return _table(headers, rows) + f"change_points: {changes}\n".encode("utf-8")


def emit_settlement(
    settlement: CapacitySettlement,
    format: str = "plain-table",
    rounding_mode: str = "exact",
) -> bytes:
    """Render reliability payments."""
    check_format("settlement", format, rounding_mode)
    items = sorted_exact(
        settlement.payments.items(), lambda kv: -kv[1], lambda kv: kv[0]
    )
    rows = [[pid, _disp(value, rounding_mode)] for pid, value in items]
    headers = ["plant_id", "reliability_payment_eur_per_h"]
    summary = {"source_fee_cf_eur_per_h": _disp(settlement.source_fee_cf, rounding_mode)}
    if format == "json":
        return _json_bytes(
            {"payments": [dict(zip(headers, r)) for r in rows], "summary": summary}
        )
    body = _csv(headers, rows) if format == "csv" else _table(headers, rows)
    prefix = "# " if format == "csv" else ""
    line = f"{prefix}source_fee_cf_eur_per_h: {summary['source_fee_cf_eur_per_h']}\n"
    return body + line.encode("utf-8")
