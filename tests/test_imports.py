"""What each entry point loads, in fresh processes. Without a bytecode cache
every module a CLI call imports is compiled again, so `validate` loads only
the model layer (`_numeric`, `plants`, `scenario`), each other command only
the pipeline modules it runs, and `import flexmarket` no submodule; the
public names still load on use."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import flexmarket

ROOT = Path(__file__).resolve().parent.parent

# the package's public names, as the package exported them before they
# loaded lazily
PUBLIC = [
    "CapacityConfig", "CapacityPool", "CapacitySettlement", "ClearingResult", "MarketConfig",
    "Offer", "PowerPlant", "Scenario", "ScenarioError", "StartUpTime", "SweepPoint",
    "SweepResult", "SweepRun", "UnallocatableFeeError", "build_pool", "clear",
    "clear_scenario", "eligible_plants", "emit_report", "emit_settlement", "emit_sweep",
    "flexibilities_for", "flexibility", "load_scenario", "make_offers",
    "market_wide_fee_intensity", "merit_order", "settle", "sweep_p0", "total_fee",
    "toy_grid", "validate_measure",
]

MODEL_LAYER = ["flexmarket", "flexmarket._numeric", "flexmarket.cli", "flexmarket.plants",
               "flexmarket.scenario"]

# prints the flexmarket modules and csv that the process has loaded
LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m in ('csv', 'flexmarket') or m.startswith('flexmarket.'))))")


def fresh(code):
    """What `code` then LOADED prints in a fresh interpreter, from the repo root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, extra", [
    (["validate", "scenarios/toy-grid.json"], []),
    (["validate", "scenarios/toy-grid-pinned.json"], ["capacity"]),  # checks the pinned pool
    (["clear", "scenarios/toy-grid.json"], ["spotmarket", "reports"]),
    (["capacity", "scenarios/toy-grid.json"], ["spotmarket", "reports", "capacity"]),
    (["sweep", "scenarios/toy-grid.json", "--p0-grid", "0:80:10"],
     ["spotmarket", "reports", "capacity", "analysis"]),
], ids=["validate", "validate-pinned", "clear", "capacity", "sweep"])
def test_command_loads_only_what_it_runs(argv, extra):
    code = f"from flexmarket.cli import main\nassert main({argv!r}) == 0"
    assert fresh(code) == sorted(MODEL_LAYER + [f"flexmarket.{m}" for m in extra])


def test_import_flexmarket_loads_no_submodule():
    assert fresh("import flexmarket") == ["flexmarket"]


def test_all_lists_the_public_names():
    assert sorted(flexmarket.__all__) == PUBLIC


def test_no_submodule_shares_a_public_name():
    # importing a submodule binds it on the package by its name, which would
    # replace a public name it shared
    submodules = {module.name for module in pkgutil.iter_modules(flexmarket.__path__)}
    assert submodules & set(flexmarket.__all__) == set()


def test_public_names_load_on_use_in_a_fresh_process():
    code = ("import flexmarket\n"
            "names = {}\n"
            "exec('from flexmarket import *', names)\n"
            "assert sorted(set(names) & set(flexmarket.__all__)) == sorted(flexmarket.__all__)\n"
            "assert set(flexmarket.__all__) <= set(dir(flexmarket))")
    loaded = fresh(code)
    assert {"flexmarket.analysis", "flexmarket.reports"} <= set(loaded)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_modules_object(name):
    # here every submodule is loaded, and each is bound on the package by its
    # own name, which no public name shares
    value = getattr(flexmarket, name)
    assert not isinstance(value, ModuleType)
    assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(flexmarket)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        flexmarket.no_such_name  # noqa: B018


def test_configs_keep_their_old_import_paths():
    from flexmarket.capacity import CapacityConfig
    from flexmarket.scenario import CapacityConfig as NewCapacityConfig
    from flexmarket.scenario import MarketConfig as NewMarketConfig
    from flexmarket.spotmarket import MarketConfig

    assert (MarketConfig, CapacityConfig) == (NewMarketConfig, NewCapacityConfig)
    assert flexmarket.MarketConfig is MarketConfig
