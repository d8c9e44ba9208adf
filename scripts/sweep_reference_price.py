#!/usr/bin/env python3
"""Sweep the reference price over the toy grid and write the results.

Produces sweep.csv (one row per p0: clearing price, fee pool, reserve set,
paradox flag) and one merit-order stack SVG per change point, into an
output directory (default ./sweep-out).
"""

import argparse
from fractions import Fraction
from pathlib import Path

from flexmarket import clear_scenario, emit_report, emit_sweep, sweep_p0, toy_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=int, default=0)
    parser.add_argument("--hi", type=int, default=80)
    parser.add_argument("--step", type=int, default=1)
    parser.add_argument("--out", default="sweep-out")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = toy_grid(0, 25)
    grid = [Fraction(p) for p in range(args.lo, args.hi + 1, args.step)]
    sweep = sweep_p0(scenario, grid)

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
