"""Smoke tests of the example scripts in scripts/, run as programs."""

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
