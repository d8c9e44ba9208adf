"""Smoke tests of the example scripts in scripts/, run as programs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_reproduce_toy_grid(tmp_path):
    done = run_script("reproduce_toy_grid.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "fee pool C_f paper-rounded: 790 EUR/h" in done.stdout
    assert "=== reliability payments for C_f = 790 EUR/h ===" in done.stdout


def test_sweep_reference_price(tmp_path):
    out = tmp_path / "out"
    done = run_script("sweep_reference_price.py", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    # the script sweeps the toy grid over 0:80:1, as the stored CLI output does
    golden = ROOT / "tests" / "golden" / "sweep-0-80-1.csv.exact.out"
    assert (out / "sweep.csv").read_bytes() == golden.read_bytes()
    assert "(81 points)" in done.stdout
    assert "reserve depleted from p0 = 64\n" in done.stdout
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs == [f"stack_p0_{p0}.svg" for p0 in (0, 14, 40, 54, 56, 58, 64)]
    assert all((out / name).read_bytes().startswith(b"<svg") for name in svgs)


def test_sweep_reference_price_rejects_an_oversized_grid(tmp_path):
    # a billion points: rejected by count, before any point is built
    out = tmp_path / "out"
    done = run_script("sweep_reference_price.py", "--hi", "1000000000",
                      "--out", str(out), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("validation error: p0 grid has 1000000001 points")
    assert "Traceback" not in done.stderr
    assert not out.exists()


# A stand-in for perfbench/run.py: prints the last-line result object with
# the wall time and correctness stored in its checkout's fake.json.
FAKE_RUN = """import json, sys
from pathlib import Path
wall, correct = json.loads((Path(__file__).resolve().parent.parent / "fake.json").read_text())
print("# fake run", sys.argv[1:])
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
"""


def fake_checkout(root, wall, correct=True):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "fake.json").write_text(json.dumps([wall, correct]))
    return root


def run_bench_pairs(tmp_path, parent, change):
    return run_script("bench_pairs.py", str(parent), str(change), "--workload", "clear-json",
                      "--pairs", "3", "--seconds", "1", cwd=tmp_path)


def test_bench_pairs_alternates_and_counts_pairs_won(tmp_path):
    done = run_bench_pairs(tmp_path, fake_checkout(tmp_path / "parent", 0.5),
                           fake_checkout(tmp_path / "change", 0.4))
    assert done.returncode == 0, done.stderr
    assert "  wall_s: 0.5000 [0.5000-0.5000] -> 0.4000 [0.4000-0.4000]; won 0/3\n" in done.stdout
    runs = [line.split(":")[0] for line in done.stdout.splitlines() if line.startswith("# pair")]
    assert runs == ["# pair 1, parent", "# pair 1, change", "# pair 2, change",
                    "# pair 2, parent", "# pair 3, parent", "# pair 3, change"]


def test_bench_pairs_fails_on_an_incorrect_run(tmp_path):
    done = run_bench_pairs(tmp_path, fake_checkout(tmp_path / "parent", 0.5),
                           fake_checkout(tmp_path / "change", 0.4, correct=False))
    assert done.returncode == 1
    assert "3 run(s) reported correct: false" in done.stderr


def test_stage_pairs_times_every_stage_of_the_repo_against_itself(tmp_path):
    done = run_script("stage_pairs.py", str(ROOT), str(ROOT), "--n", "50", "--pairs", "1",
                      "--repeat", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "N = 50 decimal, seed 1, 1 pairs" in done.stdout
    stages = [line.split(":")[0].strip() for line in done.stdout.splitlines()
              if line.startswith("  ")]
    assert stages == ["load_scenario", "flexibilities", "make_offers", "merit_order", "clear",
                      "clear_scenario", "emit_report", "build_pool", "settle",
                      "emit_settlement", "sweep_p0", "emit_sweep", "capacity_cli", "clear_cli",
                      "load_scenario+clear_scenario"]
    assert all("; won " in line for line in done.stdout.splitlines() if line.startswith("  "))


def test_cli_pairs_times_the_repo_against_itself(tmp_path):
    done = run_script("cli_pairs.py", str(ROOT), str(ROOT), "--pairs", "2", "--",
                      "validate", "scenarios/toy-grid.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "validate scenarios/toy-grid.json: 2 pairs, exit 0, 47 stdout bytes"
    assert [line.split(":")[0] for line in lines[1:]] == ["  parent", "  change", "  pairs won"]
    assert all(" ms, mean " in line for line in lines[1:3])


def fake_cli_checkout(root, output):
    """A checkout whose CLI prints `output` and exits 0."""
    (root / "src" / "flexmarket").mkdir(parents=True)
    (root / "src" / "flexmarket" / "__init__.py").write_text("")
    (root / "src" / "flexmarket" / "cli.py").write_text(f"print({output!r})\n")
    return root


def test_cli_pairs_fails_when_the_stdout_differs(tmp_path):
    done = run_script("cli_pairs.py", str(fake_cli_checkout(tmp_path / "parent", "a")),
                      str(fake_cli_checkout(tmp_path / "change", "b")), "--pairs", "2",
                      "--", "validate", "x.json", cwd=tmp_path)
    assert done.returncode == 1
    assert "pair 1, change: exit 0, 2 stdout bytes" in done.stderr
    assert "pair 2, parent" not in done.stderr
