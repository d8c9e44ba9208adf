"""Seeded synthetic scenario generator for the benchmark.

The same (seed, n, digits) always gives byte-identical JSON. Files use only
the keys of scenarios/toy-grid.json, JSON booleans, and numbers with at most
two decimals, so they stay valid under a strict scenario parser.

Usage: python3 perfbench/gen.py --seed 1 --n 1000 --digits decimal -o out.json
"""

from __future__ import annotations

import argparse
import random
import sys

# The distribution is part of every benchmark result, so a later change to it
# is visible next to the numbers it moves.
DISTRIBUTION = {
    "start_up_time_h": "15% inf; 30% uniform 0.01-0.9 h; 55% uniform 1-60 h",
    "marginal_cost_eur_per_mwh": "uniform 0-120",
    "capacity_mw": "uniform integer 5-800",
    "decimals": "decimal: multiples of 0.01; integer: the decimal draw rounded half to even",
    "market": "p0 40, demand floor(60% of total capacity), period 1",
    "capacity": "threshold 0.5, participants auto, allow_overlap false",
    "measure": "hyperbolic",
}

DIGITS = ("decimal", "integer")


def _number(hundredths: int, digits: str) -> str:
    """Render a value given in hundredths as a JSON number token."""
    if digits == "integer":
        return str(round(hundredths / 100))
    whole, cents = divmod(hundredths, 100)
    if cents == 0:
        return str(whole)
    return f"{whole}.{cents:02d}".rstrip("0")


def generate(seed: int, n: int, digits: str) -> bytes:
    """Scenario JSON for `n` plants drawn from DISTRIBUTION with `seed`."""
    if digits not in DIGITS:
        raise ValueError(f"digits must be one of {DIGITS}, got {digits!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    lines = []
    total_capacity = 0
    for i in range(n):
        kind = rng.random()
        if kind < 0.15:
            start_up = '"inf"'
        elif kind < 0.45:
            start_up = _number(rng.randint(1, 90), digits)
        else:
            start_up = _number(rng.randint(100, 6000), digits)
        cost = _number(rng.randint(0, 12000), digits)
        capacity = rng.randint(5, 800)
        total_capacity += capacity
        lines.append(
            f'    {{"id": "p{i:05d}", "start_up_time_h": {start_up}, '
            f'"marginal_cost_eur_per_mwh": {cost}, "capacity_mw": {capacity}}}'
        )
    demand = total_capacity * 3 // 5
    text = (
        '{\n  "plants": [\n'
        + ",\n".join(lines)
        + "\n  ],\n"
        + '  "market": {\n'
        + '    "p0_eur_per_mwh": 40,\n'
        + f'    "demand_mw": {demand},\n'
        + '    "period_h": 1\n'
        + "  },\n"
        + '  "capacity": {\n'
        + '    "threshold": 0.5,\n'
        + '    "participants": "auto",\n'
        + '    "allow_overlap": false\n'
        + "  },\n"
        + '  "measure": "hyperbolic"\n'
        + "}\n"
    )
    return text.encode("ascii")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--digits", choices=DIGITS, default="decimal")
    parser.add_argument("-o", "--output", help="file to write (default stdout)")
    args = parser.parse_args(argv)
    payload = generate(args.seed, args.n, args.digits)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
