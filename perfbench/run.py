"""Benchmark of the flexmarket CLI.

    python3 perfbench/run.py --workload sweep-large-n --seed 1 --seconds 30 --trace 0

The script lives in a source checkout and runs the CLI from the checkout's
src/ directory. One closed-loop client runs one CLI subprocess at a time
until --seconds have passed, checks every output (check.py), and prints one
JSON object as the last line of stdout. With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer metrics of separate calls
of cli.main whose public calls are timed (spans.py). Lines starting with
"# " before it describe the run: scenario digest, generator distribution,
sample counts, output digests and any failure.

README.md in this directory lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOY_GRID = ROOT / "scenarios" / "toy-grid.json"
WORK = ROOT / ".perfbench-work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Rounds are started only while they fit in --seconds, but at least
# MIN_ROUNDS (end-to-end) or one (traced) run, and none starts after
# HARD_LIMIT_S, so a run always ends well inside three minutes. One CLI call
# is killed after CHILD_TIMEOUT_S, a trace worker (two calls) after twice that.
MIN_ROUNDS = 3
HARD_LIMIT_S = 100.0
CHILD_TIMEOUT_S = 50
# End-to-end times are the median of this many interleaved means (see
# median_of_means).
TIME_BLOCKS = 3


@dataclass(frozen=True)
class Workload:
    command: str
    options: tuple[str, ...]
    n: int | None = None  # None: the bundled toy grid, whatever the seed
    digits: str = "decimal"
    known_change_points: str | None = None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Calls of about a second give a run 20 or more of them to take the median of.
WORKLOADS = {
    "sweep-large-n": Workload("sweep", ("--p0-grid", "0:80:4", "--format", "csv"), 1000),
    "sweep-fine-grid": Workload(
        "sweep", ("--p0-grid", "0:80:1/100", "--format", "csv"),
        known_change_points=check.FINE_GRID_CHANGE_POINTS,
    ),
    "capacity-exact": Workload("capacity", ("--format", "json"), 5000),
    "clear-json": Workload("clear", ("--format", "json"), 5000, "integer"),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "scenario.load_s": "s",
    "scenario.plants": "count",
    "scenario.bytes": "bytes",
    "plants.score_s": "s",
    "plants.phi_den_bits_max": "bits",
    "spotmarket.make_offers_s": "s",
    "spotmarket.merit_order_s": "s",
    "spotmarket.clear_s": "s",
    "spotmarket.dispatch_s": "s",
    "spotmarket.offers": "count",
    "spotmarket.dispatched": "count",
    "spotmarket.offer_den_bits_max": "bits",
    "spotmarket.cf_den_bits": "bits",
    "capacity.build_pool_s": "s",
    "capacity.settle_s": "s",
    "capacity.participants": "count",
    "capacity.payment_den_bits_max": "bits",
    "analysis.sweep_s": "s",
    "analysis.clear_scenario_s": "s",
    "analysis.per_point_s": "s",
    "analysis.points": "count",
    "analysis.change_points": "count",
    "analysis.paradox_points": "count",
    "reports.emit_s": "s",
    "reports.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.span_sum_s": "s",
    "trace.main_s": "s",
    "trace.overhead_s": "s",
}


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def median_of_means(samples: list[float]) -> float:
    """The median of the means of TIME_BLOCKS interleaved subsets of `samples`.

    Call i goes to subset i mod TIME_BLOCKS, so every subset spans the whole
    run. Call times on a shared host are bimodal (a slow mode about 1.6x the
    fast one, in spells of seconds); a plain median jumps between the modes
    as their shares cross one half, while a mean follows the shares smoothly.
    The median over subsets keeps one extreme call from moving the result.
    """
    blocks = min(TIME_BLOCKS, len(samples))
    return median([statistics.fmean(samples[i::blocks]) for i in range(blocks)])


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) >= 1000:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return "none (fewer than 20 samples)"


@dataclass(frozen=True)
class Call:
    seconds: float
    rss_mib: float
    exit_code: int
    stdout: bytes


class Cli:
    """Runs `python -m flexmarket.cli` from the checkout's src/, one at a time."""

    def __init__(self, out_path: Path) -> None:
        self.out_path = out_path
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, argv: list[str]) -> Call:
        with open(self.out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "flexmarket.cli", *argv],
                stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
            )
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(seconds, usage.ru_maxrss / 1024, proc.returncode,
                    self.out_path.read_bytes())


class Checks:
    """Counts calls and failures.

    A call fails if its exit code is not 0, if its stdout sha256 differs from
    the recorded digest (when one is recorded for this scenario) or from the
    first call with the same label in this run, or if the reference check
    (run once per distinct output) finds a problem.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}
        self._reference: dict[str, list[str]] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        if problem not in self.problems:
            self.problems.append(problem)

    def record(self, label: str, exit_code: int, stdout: bytes,
               reference: Callable[[bytes], list[str]], expected: str | None = None) -> str:
        self.attempted += 1
        digest = sha256(stdout)
        problems = [f"exit code {exit_code}"] if exit_code != 0 else []
        if expected is not None and digest != expected:
            problems.append(f"stdout sha256 {digest}, recorded {expected}")
        if self._first.setdefault(label, digest) != digest:
            problems.append("stdout differs from the first call in this run")
        if exit_code == 0:
            if digest not in self._reference:
                try:
                    self._reference[digest] = reference(stdout)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    self._reference[digest] = [f"unreadable output: {exc!r}"]
            problems += self._reference[digest]
        if problems:
            more = f"; and {len(problems) - 3} more" if len(problems) > 3 else ""
            self.fail(f"{label}: {'; '.join(problems[:3])}{more}")
        return digest


def scenario_for(name: str, workload: Workload, seed: int) -> Path:
    """The workload's scenario file; a generated one is removed after the run."""
    if workload.n is None:
        return TOY_GRID
    path = WORK / f"{name}-seed{seed}.json"
    path.write_bytes(gen.generate(seed, workload.n, workload.digits))
    return path


def reference_check(workload: Workload, market: check.Market) -> Callable[[bytes], list[str]]:
    if workload.command == "sweep":
        spec = workload.options[workload.options.index("--p0-grid") + 1]
        lo, hi, step = (Fraction(x) for x in spec.split(":"))
        grid = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        return lambda out: check.check_sweep(out, market, grid, workload.known_change_points)
    if workload.command == "capacity":
        return lambda out: check.check_capacity(out, market)
    return lambda out: check.check_clear(out, market)


def expected_digest(name: str, seed: int, scenario_sha: str, checks: Checks) -> str | None:
    """The recorded stdout digest for this scenario, or None if none is."""
    recorded = json.loads(DIGESTS.read_text())
    entry = recorded["workloads"].get(name)
    if entry and entry["scenario_sha256"] == scenario_sha:
        return entry["stdout_sha256"]
    if seed == recorded["default_seed"]:
        checks.fail(f"{name}: scenario sha256 {scenario_sha} at the default seed "
                    "is not the recorded one, so the generator changed")
    return None


def rounds(seconds: float, min_rounds: int) -> Callable[[float], bool]:
    """A predicate: may another round of the given length start now?"""
    start = time.perf_counter()
    count = 0

    def another(round_s: float) -> bool:
        nonlocal count
        elapsed = time.perf_counter() - start
        ok = count < min_rounds or elapsed + round_s <= seconds
        ok = ok and elapsed < HARD_LIMIT_S
        count += ok
        return ok

    return another


def run_end_to_end(argv: list[str], validate: list[str], seconds: float,
                   cli: Cli, checks: Checks, on_workload: Callable[[Call], str],
                   on_validate: Callable[[Call], str]) -> dict[str, float]:
    """Closed loop of rounds, each one `validate` then one workload call."""
    on_validate(cli(validate))  # warm-up: byte-compiles, fills the file cache
    setup, wall, rss = [], [], []
    another = rounds(seconds, MIN_ROUNDS)
    while another(median(setup) + median(wall)):
        call = cli(validate)
        on_validate(call)
        setup.append(call.seconds)
        call = cli(argv)
        on_workload(call)
        wall.append(call.seconds)
        rss.append(call.rss_mib)
    note(f"wall_s: median of {TIME_BLOCKS} interleaved means {median_of_means(wall):.4f} s "
         f"of n={len(wall)} calls; median {median(wall):.4f} s; fastest {min(wall):.4f} s; "
         f"highest percentile with >= 10 samples beyond it: {tail_percentile(wall)}")
    note(f"setup_s: median of {TIME_BLOCKS} interleaved means {median_of_means(setup):.4f} s "
         f"of n={len(setup)} validate calls; median {median(setup):.4f} s; "
         f"fastest {min(setup):.4f} s")
    note(f"samples: wall_s {' '.join(f'{x:.4f}' for x in wall)}; "
         f"setup_s {' '.join(f'{x:.4f}' for x in setup)}")
    return {"wall_s": median_of_means(wall), "setup_s": median_of_means(setup),
            "peak_rss_mb": median(rss)}


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Durations and counts of one traced run."""
    root = next(i for i, r in enumerate(records) if r["name"] == spans.ROOT_SPAN)
    seconds: dict[str, float] = {"trace.span_sum_s": 0.0}
    counts: dict[str, int] = {}
    clear_scenario_calls = []
    for r in records:
        duration = r["end"] - r["start"]
        seconds[f"{r['name']}_s"] = seconds.get(f"{r['name']}_s", 0.0) + duration
        if r["parent"] == root:
            seconds["trace.span_sum_s"] += duration
        if r["name"] == "analysis.clear_scenario":
            clear_scenario_calls.append(duration)
        for key, value in r["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if "bits" in key \
                else counts.get(key, 0) + value
    seconds["analysis.clear_scenario_s"] = median(clear_scenario_calls)
    return seconds, counts


def run_traced(argv: list[str], scenario: Path, seconds: float, cli: Cli,
               checks: Checks, on_workload: Callable[[Call], str],
               spans_path: Path) -> dict[str, float]:
    """Rounds of: one CLI subprocess (untraced wall time), then one spans.py
    worker process that runs main(argv) untraced and then traced."""
    result = WORK / f"trace-{os.getpid()}.json"
    outputs = [Path(f"{result}.untraced.out"), Path(f"{result}.traced.out")]
    wall, main_s, traced_s = [], [], []
    per_run: list[dict[str, float]] = []
    all_spans: list[dict] = []
    missing: list[str] = []
    counts: dict[str, int] | None = None
    another = rounds(seconds, 1)
    try:
        while another(median(wall) + median(main_s) + median(traced_s)):
            call = cli(argv)
            on_workload(call)
            wall.append(call.seconds)

            try:
                worker = subprocess.run(
                    [sys.executable, str(Path(spans.__file__).resolve()), str(result), *argv],
                    env=cli.env, cwd=ROOT, timeout=2 * CHILD_TIMEOUT_S,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                )
            except subprocess.TimeoutExpired:
                checks.fail(f"trace worker killed after {2 * CHILD_TIMEOUT_S} s")
                break
            if worker.returncode != 0:
                checks.fail(f"trace worker exited {worker.returncode}: "
                            f"{worker.stderr.decode(errors='replace').strip()[-300:]}")
                break
            run = json.loads(result.read_text())
            for code, out in zip((run["main_exit"], run["traced_exit"]), outputs):
                on_workload(Call(0.0, 0.0, code, out.read_bytes()))
            main_s.append(run["main_s"])
            traced_s.append(run["traced_s"])
            missing += [m for m in run["missing"] if m not in missing]
            durations, run_counts = layer_metrics(run["spans"])
            durations["trace.coverage"] = durations["trace.span_sum_s"] / run["traced_s"]
            if counts is not None and run_counts != counts:
                checks.fail("traced counts differ between runs")
            counts = run_counts
            all_spans += [dict(r, run=len(per_run)) for r in run["spans"]]
            per_run.append(durations)
    finally:
        for path in (result, *outputs):
            path.unlink(missing_ok=True)

    metrics: dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    if not per_run:
        return metrics
    for name in per_run[0]:
        if name in metrics:
            metrics[name] = median([d.get(name, 0.0) for d in per_run])
    metrics.update(counts or {})
    metrics["cli.main_s"] = median(main_s)
    metrics["cli.overhead_s"] = median(wall) - metrics["cli.main_s"]
    metrics["scenario.bytes"] = scenario.stat().st_size
    metrics["spotmarket.dispatch_s"] = (
        metrics["spotmarket.clear_s"] - metrics["spotmarket.merit_order_s"]
    )
    if metrics["analysis.points"]:
        metrics["analysis.per_point_s"] = metrics["analysis.sweep_s"] / metrics["analysis.points"]
    metrics["trace.main_s"] = median(traced_s)
    metrics["trace.overhead_s"] = metrics["trace.main_s"] - metrics["cli.main_s"]
    note(f"traced rounds: {len(per_run)}; trace.coverage = trace.span_sum_s / "
         "trace.main_s of the same traced call (median over rounds): "
         + ", ".join(f"{d['trace.span_sum_s']:.4f}/{t:.4f}" for d, t in zip(per_run, traced_s)))
    note("spotmarket.dispatch_s is derived: spotmarket.clear_s - spotmarket.merit_order_s")
    if missing:
        note(f"missing spans (reported as 0): {', '.join(missing)}")
    spans_path.write_text(json.dumps({"argv": argv, "missing": missing, "spans": all_spans}) + "\n")
    note(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the flexmarket CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="scenario seed: 1 is gated by digests.json, 7919 is held out")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flexmarket" / "cli.py").is_file() or not TOY_GRID.is_file():
        print(f"error: {ROOT} is not a flexmarket source checkout "
              "(src/flexmarket/cli.py and scenarios/toy-grid.json are needed)",
              file=sys.stderr)
        return 2

    name, workload = args.workload, WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scenario = scenario_for(name, workload, args.seed)
    scenario_bytes = scenario.read_bytes()
    scenario_sha = sha256(scenario_bytes)
    market = check.read_market(scenario_bytes)
    note(f"workload {name}, seed {args.seed}, scenario {scenario.relative_to(ROOT)}: "
         f"{len(market.plants)} plants, {len(scenario_bytes)} bytes, sha256 {scenario_sha}")
    if workload.n is not None:
        note(f"generator: n={workload.n}, digits={workload.digits}, "
             f"distribution {json.dumps(gen.DISTRIBUTION, sort_keys=True)}")

    checks = Checks()
    expected = expected_digest(name, args.seed, scenario_sha, checks)
    reference = reference_check(workload, market)
    command = [workload.command, str(scenario), *workload.options]
    validate = ["validate", str(scenario)]
    out_path = WORK / f"stdout-{os.getpid()}"
    cli = Cli(out_path)
    digests: set[str] = set()

    def on_workload(call: Call) -> str:
        digest = checks.record(workload.command, call.exit_code, call.stdout,
                               reference, expected)
        digests.add(digest)
        return digest

    def on_validate(call: Call) -> str:
        return checks.record("validate", call.exit_code, call.stdout,
                             lambda out: check.check_validate(out, market))

    try:
        if args.trace:
            spans_path = WORK / f"spans-{name}-seed{args.seed}.json"
            metrics = run_traced(command, scenario, args.seconds, cli, checks,
                                 on_workload, spans_path)
            units = LAYER_UNITS
        else:
            metrics = run_end_to_end(command, validate, args.seconds, cli, checks,
                                     on_workload, on_validate)
            units = E2E_UNITS
    finally:
        out_path.unlink(missing_ok=True)
        if scenario != TOY_GRID:
            scenario.unlink()

    gate = "gated, matches the recorded digest" if expected in digests else (
        "gated, MISMATCH" if expected else "reported, not gated")
    note(f"stdout sha256: {', '.join(sorted(digests))} ({gate})")
    note(f"error_rate: {checks.failed}/{checks.attempted} = "
         f"{checks.failed / checks.attempted:.4f}")
    for problem in checks.problems:
        note(f"FAILED {problem}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
