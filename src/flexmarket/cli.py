"""Command-line surface.

Subcommands: validate, clear, sweep, capacity. Exit codes: 0 success,
1 validation error, 2 I/O error, 3 paradox (with --fail-on-paradox, or a
capacity settlement with no one to pay). Each command imports the pipeline
modules it runs when it runs, so `validate` loads only the scenario model:
without a bytecode cache, each call compiles every module it imports."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._numeric import FORMATS, ROUNDING_MODES, frac, to_number
from .scenario import ScenarioError, load_scenario

if TYPE_CHECKING:
    from .analysis import P0Grid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PARADOX = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexmarket", description="Spot-market simulator with operational-inflexibility fees")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario file (JSON, or CSV plant table)")
        p.add_argument("--format", default="plain-table", choices=FORMATS)
        p.add_argument("--rounding", default="exact", choices=ROUNDING_MODES)
        p.add_argument("--output", help="write the report here instead of stdout")

    sub.add_parser("validate", help="parse and validate a scenario").add_argument("scenario")

    p_clear = sub.add_parser("clear", help="clear the spot market once")
    add_common(p_clear)
    p_clear.add_argument("--p0", help="override the scenario reference price")
    p_clear.add_argument("--demand", help="override the scenario demand (MW)")

    p_sweep = sub.add_parser("sweep", help="sweep the reference price p0")
    add_common(p_sweep)
    p_sweep.add_argument("--p0-grid", required=True, metavar="LO:HI:STEP",
                         help="inclusive grid of reference prices")
    p_sweep.add_argument("--fail-on-paradox", action="store_true",
                         help="exit 3 if any sweep point depletes the capacity reserve")

    p_cap = sub.add_parser("capacity", help="settle reliability payments")
    add_common(p_cap)
    p_cap.add_argument("--cf", help="fee pool C_f in EUR/h (default: from a spot clearing)")
    p_cap.add_argument("--allow-overlap", action="store_true",
                       help="let dispatched plants join the reserve pool")
    return parser


def _parse_grid(spec: str) -> P0Grid:
    from .analysis import p0_range
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = frac(lo_s), frac(hi_s), frac(step_s)
    except (ValueError, TypeError):
        raise ScenarioError(f"bad p0 grid {spec!r}, expected LO:HI:STEP") from None
    if hi < lo:
        raise ScenarioError(f"bad p0 grid {spec!r}: need lo <= hi")
    return p0_range(lo, hi, step)


def _write(payload: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"OK: {len(scenario.plants)} plants, demand "
          f"{to_number(scenario.market.demand)} MW, measure hyperbolic")
    return EXIT_OK


def _cmd_clear(args: argparse.Namespace) -> int:
    from .spotmarket import clear_scenario
    from .reports import emit_report
    scenario = load_scenario(args.scenario)
    if args.demand is not None:
        market = scenario.market._replace(demand=frac(args.demand))
        scenario = scenario._replace(market=market)
    result = clear_scenario(scenario, frac(args.p0) if args.p0 is not None else None)
    _write(emit_report(result, args.format, args.rounding), args.output)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import sweep_p0
    from .reports import check_format, emit_sweep
    check_format("sweep", args.format, args.rounding)
    scenario = load_scenario(args.scenario)
    sweep = sweep_p0(scenario, _parse_grid(args.p0_grid))
    _write(emit_sweep(sweep, args.format, args.rounding), args.output)
    if args.fail_on_paradox and sweep.has_paradox:
        print("paradox: capacity reserve depleted at some sweep points", file=sys.stderr)
        return EXIT_PARADOX
    return EXIT_OK


def _cmd_capacity(args: argparse.Namespace) -> int:
    from .spotmarket import clear_scenario
    from .capacity import UnallocatableFeeError, build_pool, settle
    from .reports import check_format, emit_settlement
    check_format("settlement", args.format, args.rounding)
    scenario = load_scenario(args.scenario)
    result = clear_scenario(scenario)
    cf = result.total_fee_cf if args.cf is None else frac(args.cf)
    config = scenario.capacity
    if args.allow_overlap:
        config = config._replace(allow_overlap=True)
    pool = build_pool(scenario.plants, config, result.dispatched)
    try:
        settlement = settle(pool, cf)
    except UnallocatableFeeError as exc:
        print(f"paradox: {exc}", file=sys.stderr)
        return EXIT_PARADOX
    _write(emit_settlement(settlement, args.format, args.rounding), args.output)
    return EXIT_OK


_COMMANDS = {"validate": _cmd_validate, "clear": _cmd_clear, "sweep": _cmd_sweep,
             "capacity": _cmd_capacity}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ScenarioError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
