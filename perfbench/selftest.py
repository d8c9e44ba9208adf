"""Self-test of the benchmark: python3 perfbench/selftest.py

Checks that the scenario generator is deterministic and schema-clean, that
a one-byte change to a CLI output is caught, and that the metric names in
run.py and BENCHMARK.json agree and match [A-Za-z0-9_.-]+.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from fractions import Fraction

import check
import gen
import run
import spans


def _keys(doc: object) -> set[str]:
    """Every key path in a JSON document, with list items merged."""
    paths: set[str] = set()

    def walk(node: object, prefix: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                paths.add(prefix + key)
                walk(value, prefix + key + ".")
        elif isinstance(node, list):
            for item in node:
                walk(item, prefix + "[].")

    walk(doc, "")
    return paths


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self) -> None:
        for digits in gen.DIGITS:
            self.assertEqual(gen.generate(7, 300, digits), gen.generate(7, 300, digits))
        self.assertNotEqual(gen.generate(7, 300, "decimal"), gen.generate(8, 300, "decimal"))

    def test_schema_of_toy_grid_and_two_decimals(self) -> None:
        toy = json.loads(run.TOY_GRID.read_text())
        for digits in gen.DIGITS:
            tokens: list[str] = []
            doc = json.loads(gen.generate(3, 300, digits),
                             parse_float=lambda t: tokens.append(t) or Fraction(t))
            self.assertLessEqual(_keys(doc), _keys(toy))
            self.assertIs(doc["capacity"]["allow_overlap"], False)
            self.assertEqual(doc["capacity"]["participants"], "auto")
            for token in tokens:
                self.assertLessEqual(len(token.partition(".")[2]), 2, token)
            if digits == "integer":
                self.assertEqual(tokens, ["0.5"])  # only the threshold


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        sys.path.insert(0, str(run.SRC))
        from flexmarket import cli

        run.WORK.mkdir(exist_ok=True)
        path = run.WORK / "selftest-scenario.json"
        path.write_bytes(gen.generate(5, 40, "decimal"))
        cls.market = check.read_market(path.read_bytes())
        cls.grid = [Fraction(p) for p in range(81)]
        _, code, cls.output = spans.in_process(
            cli.main, ["sweep", str(path), "--p0-grid", "0:80:1", "--format", "csv"]
        )
        path.unlink()
        if code != 0:
            raise RuntimeError(f"flexmarket sweep exited {code}")

    def reference(self, out: bytes) -> list[str]:
        return check.check_sweep(out, self.market, self.grid, None)

    def test_unchanged_output_passes(self) -> None:
        checks = run.Checks()
        checks.record("sweep", 0, self.output, self.reference, run.sha256(self.output))
        self.assertEqual((checks.attempted, checks.failed), (1, 0), checks.problems)

    def test_one_byte_change_fails_the_digest(self) -> None:
        expected = run.sha256(self.output)
        for position in range(0, len(self.output), max(1, len(self.output) // 50)):
            changed = bytearray(self.output)
            changed[position] ^= 0x01
            checks = run.Checks()
            checks.record("sweep", 0, bytes(changed), self.reference, expected)
            self.assertEqual(checks.failed, 1, position)

    def test_one_byte_change_fails_the_reference(self) -> None:
        lines = self.output.decode().splitlines(keepends=True)
        row = lines[1 + 40]  # the p0 = 40 row, after the header
        price_at = row.index(",") + 1
        digit = row[price_at]
        lines[41] = row[:price_at] + ("1" if digit != "1" else "2") + row[price_at + 1:]
        changed = "".join(lines).encode()
        self.assertEqual(len(changed), len(self.output))
        checks = run.Checks()
        checks.record("sweep", 0, changed, self.reference)
        self.assertEqual(checks.failed, 1)


class MetricNameTest(unittest.TestCase):
    def test_names_match_benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.E2E_UNITS)
        self.assertEqual(layers, run.LAYER_UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for name in [*e2e, *layers, *run.WORKLOADS]:
            self.assertRegex(name, re.compile(r"\A[A-Za-z0-9_.-]+\Z"))


if __name__ == "__main__":
    unittest.main()
