"""The benchmark's traced run wraps flexmarket functions by name
(`perfbench/spans.py`, TARGETS). A refactor that renames or removes one of
them would leave its span silently empty; this fails instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def spans(monkeypatch):
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(spans):
    missing = []
    for _, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"flexmarket.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


@pytest.mark.parametrize("argv", [
    ["clear"],
    ["capacity", "--format", "json"],
    ["sweep", "--p0-grid", "0:80:10"],
])
def test_traced_run_loses_no_counter(spans, argv):
    # a counter that fails on a renamed result field is noted as missing
    # instead of failing the run, and its count would read 0
    from flexmarket import cli

    argv = [argv[0], str(ROOT / "scenarios" / "toy-grid.json"), *argv[1:]]
    _, code, untraced = spans.in_process(cli.main, argv)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        _, traced_code, traced = spans.in_process(cli.main, argv)
    assert tracer.missing == []
    assert (code, traced_code) == (0, 0)
    assert traced == untraced
    assert tracer.spans  # the wrappers were in place
