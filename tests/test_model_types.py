"""The model types are NamedTuples whose constructor checks each field, so a
copy made by `_replace` is checked again and no instance can be changed;
and importing the CLI loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flexmarket.capacity import CapacityConfig, CapacityPool, settle
from flexmarket.plants import PowerPlant, StartUpTime
from flexmarket.scenario import MarketConfig, ScenarioParseError, toy_grid
from flexmarket.spotmarket import Offer, clear, market_wide_fee_intensity

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
    # a plain tuple is built as a PowerPlant, with its checks
    pytest.param(TOY, "plants", (("a", StartUpTime(1), -5, 0), ("b", 3, "1/2", -2)),
                 ValueError, "^a: marginal_cost must be >= 0$", id="Scenario-tuple-rows"),
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
    # every Python entry point reads a float by its decimal repr, as
    # PowerPlant does, and a str as a literal
    assert PowerPlant("x", StartUpTime(0), 0.1, 5).marginal_cost == Fraction(1, 10)
    pool = CapacityPool([("x", 0.7, 5), ("y", Fraction(3, 4), 2.5)])
    assert pool.participants[0] == ("x", Fraction(7, 10), Fraction(5))
    assert settle(pool, 100).payments == {"x": Fraction(2800, 43), "y": Fraction(1500, 43)}
    assert settle(pool, 0.1).source_fee_cf == Fraction(1, 10)
    threshold = CapacityPool(pool.participants, 0.1).eligibility_threshold
    assert type(threshold) is Fraction and threshold == Fraction(1, 10)
    assert CapacityPool(pool.participants, "1/3").eligibility_threshold == Fraction(1, 3)
    offer, market = Offer("a", 0.1, 0.1, Fraction(1, 2), 5), MarketConfig(0, 5)
    assert clear([offer], market).clearing_price == Fraction(1, 10)
    assert market_wide_fee_intensity([offer]) == Fraction(1, 10)
    assert clear([offer._replace(offer_price="3")], market).clearing_price == 3
    with pytest.raises(TypeError):  # True == 1, but no number
        clear([offer._replace(capacity=True)], market)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, flexmarket.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
