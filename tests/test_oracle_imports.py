"""The differential tests' oracle stays independent of the code it checks,
and test modules share code only through it."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported(path):
    """The top-level names of the modules a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_reference_imports_nothing_from_flexmarket():
    assert "flexmarket" not in imported(TESTS / "reference.py")


def test_no_test_module_imports_another():
    found = {path.name: sorted(name for name in imported(path) if name.startswith("test_"))
             for path in sorted(TESTS.glob("test_*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}
