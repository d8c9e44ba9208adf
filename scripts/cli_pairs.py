#!/usr/bin/env python3
"""Time one CLI command line in two source checkouts, in alternating pairs.

    python3 scripts/cli_pairs.py PARENT CHANGE --pairs 40 -- validate scenarios/toy-grid.json

Each run is a fresh `python -m flexmarket.cli ARGS...` process with its own
checkout's src/ as PYTHONPATH and the checkout as its working directory, so
a relative scenario path names each checkout's own file. The side that runs
first alternates from pair to pair. Each run's wall time covers interpreter
start, imports and the command, as the benchmark's `setup_s` does for
`validate`. The script prints each side's median, quartiles and mean, and
how many pairs each side won. It exits 1 if any run's exit code or stdout
bytes differ from the parent's first run, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], out_path: Path) -> tuple[float, int, bytes]:
    """Seconds, exit code and stdout of one fresh CLI process in `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "flexmarket.cli", *command],
                              stdout=out, stderr=subprocess.DEVNULL, env=env,
                              cwd=checkout).returncode
        seconds = time.perf_counter() - start
    return seconds, code, out_path.read_bytes()


def summary(values: list[float]) -> str:
    """Median [lower quartile - upper quartile], mean, in milliseconds."""
    ms = [1000 * v for v in values]
    if len(ms) > 1:
        low, mid, high = statistics.quantiles(ms, n=4, method="inclusive")
    else:
        low = mid = high = ms[0]
    return f"median {mid:.1f} [{low:.1f}-{high:.1f}] ms, mean {statistics.fmean(ms):.1f} ms"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s PARENT CHANGE [--pairs N] -- CLI-ARGS...")
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=40)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command:
        parser.error("give the CLI arguments after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "flexmarket" / "cli.py").is_file():
            parser.error(f"{checkout} has no src/flexmarket/cli.py")

    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    seconds: dict[str, list[float]] = {side: [] for side in SIDES}
    reference, differences = None, []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "stdout"
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                elapsed, code, out = run_once(checkouts[side], command, out_path)
                seconds[side].append(elapsed)
                if reference is None:
                    reference = code, out
                elif (code, out) != reference:
                    differences.append(f"pair {pair + 1}, {side}: exit {code}, "
                                       f"{len(out)} stdout bytes")

    parent, change = seconds["parent"], seconds["change"]
    print(f"{' '.join(command)}: {args.pairs} pairs, exit {reference[0]}, "
          f"{len(reference[1])} stdout bytes")
    print(f"  parent: {summary(parent)}")
    print(f"  change: {summary(change)}")
    print(f"  pairs won: parent {sum(p < c for p, c in zip(parent, change))}, "
          f"change {sum(c < p for p, c in zip(parent, change))}")
    if differences:
        print("exit code or stdout differs from the parent's first run:\n  "
              + "\n  ".join(differences), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
