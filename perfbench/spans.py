"""In-process span recorder around flexmarket's public functions.

`traced(tracer)` wraps each public function in TARGETS for the duration of a
`with` block, wherever a flexmarket module holds a reference to it, so one
in-process `cli.main(argv)` records the calls in exactly the order the CLI
makes them (for example, `capacity` scores plants twice: once inside
`clear_scenario` and once for `build_pool`). Nothing under src/ is changed.
A target that no longer exists is reported as missing instead of failing.

Run as a script, this is the worker of a traced round, in a fresh process
so the benchmark's own heap does not slow it:

    PYTHONPATH=src python3 perfbench/spans.py RESULT.json CLI-ARGS...

It imports flexmarket.cli, runs `main(argv)` once untraced and once traced,
and writes both timings, the spans and the missing targets to RESULT.json
and the captured stdouts to RESULT.json.untraced.out and .traced.out.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


def _bits(values: Any) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


# (span name, module, attribute path, counter). A counter turns the call's
# result into per-layer counts; run.py sums counts over calls, except
# denominator sizes ("bits"), which it maximises. Span names follow the
# layer table in README.md; the module is the layer.
TARGETS: tuple[tuple[str, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    ("scenario.load", "scenario", "load_scenario",
     lambda r: {"scenario.plants": len(r.plants)}),
    ("plants.score", "scenario", "Scenario.flexibilities",
     lambda r: {"plants.phi_den_bits_max": _bits(r.values())}),
    ("spotmarket.make_offers", "spotmarket", "make_offers",
     lambda r: {"spotmarket.offers": len(r),
                "spotmarket.offer_den_bits_max": _bits(o.offer_price for o in r)}),
    ("spotmarket.merit_order", "spotmarket", "merit_order", None),
    ("spotmarket.clear", "spotmarket", "clear",
     lambda r: {"spotmarket.dispatched": len(r.dispatch),
                "spotmarket.cf_den_bits": _bits([r.total_fee_cf])}),
    ("capacity.build_pool", "capacity", "build_pool",
     lambda r: {"capacity.participants": len(r.participants)}),
    ("capacity.settle", "capacity", "settle",
     lambda r: {"capacity.payment_den_bits_max": _bits(r.payments.values())}),
    ("analysis.sweep", "analysis", "sweep_p0",
     lambda r: {"analysis.points": len(r.points),
                "analysis.change_points": len(r.change_points),
                "analysis.paradox_points": sum(p.paradox for p in r.points)}),
    ("analysis.clear_scenario", "analysis", "clear_scenario", None),
    ("reports.emit", "reports", "emit_sweep", lambda r: {"reports.bytes": len(r)}),
    ("reports.emit", "reports", "emit_report", lambda r: {"reports.bytes": len(r)}),
    ("reports.emit", "reports", "emit_settlement", lambda r: {"reports.bytes": len(r)}),
)

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Spans of one traced run, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, counter: Callable[[Any], dict[str, int]] | None,
             fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run fn inside a span; count its result after the span has ended."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            try:
                span.counts = counter(result)
            except (AttributeError, TypeError):
                self.note_missing(f"counts of {name}")
        return result

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def records(self) -> list[dict]:
        """Spans as JSON-ready records."""
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "counts": s.counts}
            for s in self.spans
        ]


def _wrap(tracer: Tracer, name: str, counter: Callable[[Any], dict[str, int]] | None,
          fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, counter, fn, *args, **kwargs)

    return wrapper


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Wrap every available target while the block runs; restore on exit."""
    undo: list[tuple[Any, str, Any]] = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "flexmarket" or n.startswith("flexmarket.")]
    try:
        for name, module_name, path, counter in TARGETS:
            try:
                owner: Any = importlib.import_module(f"flexmarket.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                tracer.note_missing(f"{module_name}.{path}")
                continue
            wrapper = _wrap(tracer, name, counter, fn)
            if parents:  # a method: patch the class
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def in_process(main: Callable[[list[str]], int], argv: list[str]) -> tuple[float, int, bytes]:
    """Run main(argv) here with stdout captured: seconds, exit code, bytes."""
    buffer = io.BytesIO()
    saved, sys.stdout = sys.stdout, io.TextIOWrapper(buffer, encoding="utf-8")
    try:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        sys.stdout.flush()
        return seconds, code, buffer.getvalue()
    finally:
        sys.stdout = saved


def run_worker(result: Path, argv: list[str]) -> None:
    from flexmarket import cli

    main_s, main_code, main_out = in_process(cli.main, argv)
    tracer = Tracer()
    with traced(tracer):
        traced_s, traced_code, traced_out = in_process(
            lambda a: tracer.call(ROOT_SPAN, None, cli.main, a), argv
        )
    Path(f"{result}.untraced.out").write_bytes(main_out)
    Path(f"{result}.traced.out").write_bytes(traced_out)
    result.write_text(json.dumps({
        "main_s": main_s, "main_exit": main_code,
        "traced_s": traced_s, "traced_exit": traced_code,
        "missing": tracer.missing, "spans": tracer.records(),
    }))


if __name__ == "__main__":
    run_worker(Path(sys.argv[1]), sys.argv[2:])
