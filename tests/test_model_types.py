"""The model types are NamedTuples whose constructor checks each field, so a
copy made by `_replace` is checked again and no instance can be changed;
and importing the CLI loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flexmarket.capacity import CapacityConfig, CapacityPool
from flexmarket.plants import StartUpTime
from flexmarket.scenario import ScenarioParseError, toy_grid

ROOT = Path(__file__).resolve().parent.parent

TOY = toy_grid()
POOL = CapacityPool((("hydro", Fraction(50, 51), Fraction(5)),))

# (instance, a field and a value its type rejects, the error and its message)
VALIDATED = [
    pytest.param(TOY.plants[1], "id", "", ValueError, "plant id must be a non-empty",
                 id="PowerPlant"),
    pytest.param(StartUpTime(2), "hours", -1, ValueError, "start-up time must be >= 0",
                 id="StartUpTime"),
    pytest.param(TOY.market, "demand", -1, ValueError, "demand must be >= 0",
                 id="MarketConfig"),
    pytest.param(CapacityConfig(), "threshold", 1, ValueError, "threshold: must lie in",
                 id="CapacityConfig"),
    pytest.param(POOL, "participants", (("coal", Fraction(1, 2), Fraction(5)),),
                 ValueError, "does not exceed threshold", id="CapacityPool"),
    pytest.param(TOY, "plants", (), ScenarioParseError, "at least one plant",
                 id="Scenario"),
]


@pytest.mark.parametrize("instance, name, bad, error, message", VALIDATED)
def test_replace_checks_again_and_fields_are_read_only(instance, name, bad, error,
                                                       message):
    assert type(instance)(*instance) == instance
    assert instance._replace(**{name: getattr(instance, name)}) == instance
    with pytest.raises(error, match=message):
        instance._replace(**{name: bad})
    with pytest.raises(AttributeError):
        setattr(instance, name, bad)
    with pytest.raises(AttributeError):
        instance.note = "x"  # no instance dict either


@pytest.mark.parametrize("participants", ["ab", {"a", "b"}, iter("ab"), 7])
def test_participants_that_are_no_list_rejected(participants):
    with pytest.raises(ValueError, match="^participants: expected None or a list"):
        CapacityConfig(participants=participants)


def test_participants_list_stored_as_tuple():
    config = CapacityConfig(participants=["hydro", "gas"])
    assert config.participants == ("hydro", "gas")
    assert config == CapacityConfig(participants=("hydro", "gas"))
    hash(TOY._replace(capacity=config))  # a Scenario that holds it can be hashed


def test_replace_coerces_like_the_constructor():
    demand = TOY.market._replace(demand="12.5").demand
    assert type(demand) is Fraction and demand == Fraction(25, 2)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, flexmarket.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
