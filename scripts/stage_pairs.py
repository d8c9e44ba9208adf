#!/usr/bin/env python3
"""Time the stages of one clearing in two source checkouts, in alternating pairs.

    python3 scripts/stage_pairs.py PARENT CHANGE --n 5000 --digits decimal \\
        --seed 1 --pairs 10 --repeat 5

The scenario is written once by this repository's perfbench/gen.py (run as
a program, so nothing under perfbench/ changes). Each pair runs one fresh
Python process per checkout, with that checkout's src/ on the path; the side
that runs first alternates from pair to pair, so a drift in the host's speed
falls on both sides alike. A process times each stage in-process, the best
of --repeat calls: load_scenario, flexibilities, make_offers, merit_order,
clear, clear_scenario, emit_report (json), build_pool, settle,
emit_settlement (json), sweep_p0 over the 21 points 0, 4, ..., 80 (as the
sweep-large-n workload runs) and emit_sweep (csv), each on the result of
the stage before it; then capacity_cli and clear_cli, one in-process
`cli.main([command, SCENARIO, "--format", "json", "--output", os.devnull])`
each, which time what the CLI runs whatever internal names it calls. For each
stage, and for load_scenario + clear_scenario, the script prints each side's
median and quartiles in ms, the ratio of the medians and how many pairs each
side won. It exits 1 if a process fails, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, summary

ROOT = Path(__file__).resolve().parent.parent

# One process of one side: prints {stage: best seconds} as JSON. It imports
# each stage by its public name, which stays the same in both checkouts when
# the module that defines the stage does not. make_offers and build_pool get
# the scores of `flexibilities` only in a checkout whose signature takes phi.
WORKER = """
import inspect, json, os, sys, time
from fractions import Fraction
from flexmarket import (build_pool, clear, clear_scenario, emit_report, emit_settlement,
                        emit_sweep, load_scenario, make_offers, merit_order, settle, sweep_p0)
from flexmarket import cli
from flexmarket.analysis import p0_range

path, repeat = sys.argv[1], int(sys.argv[2])
times = {}

def stage(name, call):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    times[name] = best
    return result

scenario = stage("load_scenario", lambda: load_scenario(path))
phi = stage("flexibilities", scenario.flexibilities)

def arguments(function, *rest):
    scores = (phi,) if "phi" in inspect.signature(function).parameters else ()
    return (scenario.plants, *scores, *rest)

offer_args = arguments(make_offers, scenario.market)
offers = stage("make_offers", lambda: make_offers(*offer_args))
stage("merit_order", lambda: merit_order(offers))
stage("clear", lambda: clear(offers, scenario.market))
result = stage("clear_scenario", lambda: clear_scenario(scenario))
stage("emit_report", lambda: emit_report(result, "json"))
pool_args = arguments(build_pool, scenario.capacity, result.dispatch)
pool = stage("build_pool", lambda: build_pool(*pool_args))
settlement = stage("settle", lambda: settle(pool, result.total_fee_cf))
stage("emit_settlement", lambda: emit_settlement(settlement, "json"))
grid = p0_range(Fraction(0), Fraction(80), Fraction(4))
sweep = stage("sweep_p0", lambda: sweep_p0(scenario, grid))
stage("emit_sweep", lambda: emit_sweep(sweep, "csv"))

def run_cli(argv):
    if cli.main(argv) != 0:
        raise SystemExit(f"flexmarket {argv[0]} failed")

for command in ("capacity", "clear"):
    argv = [command, path, "--format", "json", "--output", os.devnull]
    stage(f"{command}_cli", lambda: run_cli(argv))
print(json.dumps(times))
"""

TOTAL = ("load_scenario", "clear_scenario")


def run_once(checkout: Path, scenario: Path, repeat: int) -> dict[str, float]:
    """One fresh process's best time of each stage, in seconds."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", WORKER, str(scenario), str(repeat)],
                          cwd=checkout, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise SystemExit(f"stage run in {checkout} failed:\n{tail}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    times["+".join(TOTAL)] = sum(times[name] for name in TOTAL)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--n", type=int, default=5000, help="plants in the scenario")
    parser.add_argument("--digits", choices=("decimal", "integer"), default="decimal")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5, help="calls per stage and process")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeat < 1 or args.n < 1:
        parser.error("--n, --pairs and --repeat must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "flexmarket").is_dir():
            parser.error(f"{checkout} has no src/flexmarket")

    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    results: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"),
                        "--seed", str(args.seed), "--n", str(args.n),
                        "--digits", args.digits, "-o", str(scenario)], check=True)
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(checkouts[side], scenario, args.repeat))
            print(f"# pair {pair + 1} of {args.pairs} done", flush=True)

    print(f"N = {args.n} {args.digits}, seed {args.seed}, {args.pairs} pairs, best of "
          f"{args.repeat} calls: parent -> change, median [quartiles] ms, "
          "parent/change median, pairs won by parent/change")
    for name in results["change"][0]:
        parent = [r[name] * 1000 for r in results["parent"]]
        change = [r[name] * 1000 for r in results["change"]]
        change_won = sum(c < p for p, c in zip(parent, change))
        parent_won = sum(p < c for p, c in zip(parent, change))
        ratio = statistics.median(parent) / statistics.median(change)
        print(f"  {name}: {summary(parent)} -> {summary(change)}; "
              f"{ratio:.2f}x; won {parent_won}/{change_won}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
