#!/usr/bin/env python3
"""Compare two source checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload clear-json --seed 1 \\
        --pairs 6 --seconds 12

Each pair runs `perfbench/run.py --trace 0` once in each checkout, from that
checkout's own perfbench/ and src/; the side that runs first alternates from
pair to pair, so a drift in the host's speed falls on both sides alike. For
each end-to-end metric the script prints each side's median and quartiles
and how many pairs each side won. It exits 1 if any run reports
`correct: false` or does not finish, and 2 on bad arguments. Nothing under
perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """The result object that perfbench/run.py prints as its last line."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode != 0:
            raise ValueError(f"exit code {done.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise SystemExit(f"run in {checkout} failed ({exc}):\n{tail}") from None


def lower_is_better(checkout: Path) -> dict[str, bool]:
    """Each end-to-end metric's direction, from the checkout's BENCHMARK.json."""
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") == "lower" for m in spec.get("end_to_end", [])}


def summary(values: list[float]) -> str:
    """Median [lower quartile - upper quartile]."""
    if len(values) > 1:
        low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    else:
        low = mid = high = values[0]
    return f"{mid:.4f} [{low:.4f}-{high:.4f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    incorrect = 0
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args)
            results[side].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"# pair {pair + 1}, {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {json.dumps(values)}",
                  flush=True)
            incorrect += not result["correct"]

    lower = lower_is_better(checkouts["change"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: "
          "parent -> change, median [quartiles], pairs won by parent/change")
    for name in results["change"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if lower.get(name, True) else -1
        change_won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_won = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
        print(f"  {name}: {summary(parent)} -> {summary(change)}; "
              f"won {parent_won}/{change_won}")
    if incorrect:
        print(f"{incorrect} run(s) reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
