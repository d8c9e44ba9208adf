#!/usr/bin/env python3
"""Sweep the reference price over the toy grid and write the results.

Produces sweep.csv (one row per p0: clearing price, fee pool, reserve set,
paradox flag) and one merit-order stack SVG per change point, into an
output directory (default ./sweep-out). The grid lo:hi:step is bounded as
the CLI's --p0-grid is; a grid it rejects ends the script with exit 1.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from flexmarket import clear_scenario, emit_report, emit_sweep, sweep_p0, toy_grid
from flexmarket.analysis import p0_range


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=int, default=0)
    parser.add_argument("--hi", type=int, default=80)
    parser.add_argument("--step", type=int, default=1)
    parser.add_argument("--out", default="sweep-out")
    args = parser.parse_args()

    scenario = toy_grid(0, 25)
    try:
        grid = p0_range(Fraction(args.lo), Fraction(args.hi), Fraction(args.step))
        sweep = sweep_p0(scenario, grid)
    except ValueError as exc:  # includes ScenarioError
        raise SystemExit(f"validation error: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    (out / "sweep.csv").write_bytes(emit_sweep(sweep, "csv"))
    print(f"wrote {out / 'sweep.csv'} ({len(sweep.grid)} points)")
    print("merit-order change points:",
          [str(p) for p in sweep.change_points] or "none")
    # a depleting run is a paradox at each of its points with p0 > 0
    paradox_onset = next(
        (p0 for run, p0s in sweep.pieces() if run.depletes for p0 in p0s if p0 > 0),
        None,
    )
    print("reserve depleted from p0 =", paradox_onset)

    for p0 in (grid[0], *sweep.change_points):
        result = clear_scenario(scenario, p0)
        target = out / f"stack_p0_{p0}.svg"
        target.write_bytes(emit_report(result, "svg-stack"))
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
