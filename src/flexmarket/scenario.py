"""Scenario model and file ingestion (JSON canonical, CSV plant table).

Scenario numbers are parsed into exact fractions; `start_up_time_h` accepts
the string "inf" for plants with no guaranteed start-up.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from ._numeric import MAX_SIGNIFICANT_DIGITS, frac, parse_number
from .capacity import CapacityConfig
from .flexibility import BUILTIN_MEASURES, FlexibilityMeasure, StartUpTime
from .plants import PowerPlant, flexibilities_for
from .spotmarket import MarketConfig

__all__ = [
    "ScenarioError",
    "ScenarioParseError",
    "UnknownMeasureError",
    "DuplicatePlantIdError",
    "InvalidNumberError",
    "Scenario",
    "load_scenario",
    "toy_grid",
]


class ScenarioError(ValueError):
    """Base class for scenario validation failures."""


class ScenarioParseError(ScenarioError):
    """The file is not parseable or structurally malformed."""


class UnknownMeasureError(ScenarioError):
    """The named flexibility measure is not a built-in."""


class DuplicatePlantIdError(ScenarioError):
    """Two plants share an id."""


class InvalidNumberError(ScenarioError):
    """A numeric field is missing, non-numeric, or out of range."""


@dataclass(frozen=True)
class Scenario:
    plants: tuple[PowerPlant, ...]
    market: MarketConfig
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    measure_name: str = "hyperbolic"

    def measure(self) -> FlexibilityMeasure:
        try:
            return BUILTIN_MEASURES[self.measure_name]()
        except KeyError:
            raise UnknownMeasureError(
                f"measure: unknown measure {self.measure_name!r}"
            ) from None

    def flexibilities(self) -> dict[str, Fraction]:
        return flexibilities_for(self.plants, self.measure())


# The keys each level of a scenario document may have.
_TOP_KEYS = frozenset({"plants", "market", "capacity", "measure"})
_PLANT_KEYS = frozenset(
    {"id", "start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw"}
)
_MARKET_KEYS = frozenset({"p0_eur_per_mwh", "demand_mw", "period_h"})
_CAPACITY_KEYS = frozenset({"threshold", "participants", "allow_overlap"})


def _check_keys(record: dict, allowed: frozenset[str], path: str) -> None:
    if not allowed.issuperset(record):
        unknown = sorted(str(key) for key in record if key not in allowed)
        prefix = f"{path}." if path else ""
        raise ScenarioParseError(
            f"{prefix}{unknown[0]}: unknown key (expected one of "
            f"{', '.join(sorted(allowed))})"
        )


def _number(raw: object, path: str, *, nonnegative: bool = False) -> Fraction:
    try:
        value = frac(raw)  # type: ignore[arg-type]
    except TypeError:
        raise InvalidNumberError(f"{path}: expected a number, got {raw!r}") from None
    except ValueError as exc:
        raise InvalidNumberError(f"{path}: expected a number: {exc}") from None
    if nonnegative and value.numerator < 0:
        raise InvalidNumberError(f"{path}: {value} is below minimum 0")
    return value


def _start_up(raw: object, path: str) -> StartUpTime:
    if isinstance(raw, str) and raw == "inf":
        return StartUpTime.unbounded()
    value = _number(raw, path)
    if value.numerator < 0:
        raise InvalidNumberError(f"{path}: start-up time must be >= 0")
    return StartUpTime(value)


def _plant_from_record(record: dict, path: str) -> PowerPlant:
    _check_keys(record, _PLANT_KEYS, path)
    pid = record.get("id")
    if not isinstance(pid, str) or not pid:
        raise ScenarioParseError(f"{path}.id: expected a non-empty string")
    return PowerPlant(
        id=pid,
        start_up_time=_start_up(
            record.get("start_up_time_h"), f"{path}.start_up_time_h"
        ),
        marginal_cost=_number(
            record.get("marginal_cost_eur_per_mwh"),
            f"{path}.marginal_cost_eur_per_mwh",
            nonnegative=True,
        ),
        capacity=_number(
            record.get("capacity_mw"), f"{path}.capacity_mw"
        ),
    )


def _check_unique_ids(plants: Sequence[PowerPlant]) -> None:
    seen: set[str] = set()
    for p in plants:
        if p.id in seen:
            raise DuplicatePlantIdError(f"plants: duplicate plant id {p.id!r}")
        seen.add(p.id)


def _scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "")
    raw_plants = doc.get("plants")
    if not isinstance(raw_plants, list) or not raw_plants:
        raise ScenarioParseError("plants: expected a non-empty list")
    plants = []
    for i, record in enumerate(raw_plants):
        if not isinstance(record, dict):
            raise ScenarioParseError(f"plants[{i}]: expected an object")
        try:
            plants.append(_plant_from_record(record, f"plants[{i}]"))
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise InvalidNumberError(f"plants[{i}]: {exc}") from None
    _check_unique_ids(plants)

    market = doc.get("market", {})
    if not isinstance(market, dict):
        raise ScenarioParseError("market: expected an object")
    _check_keys(market, _MARKET_KEYS, "market")
    try:
        config = MarketConfig(
            reference_price_p0=_number(market.get("p0_eur_per_mwh", 0),
                                       "market.p0_eur_per_mwh", nonnegative=True),
            demand=_number(market.get("demand_mw", 0), "market.demand_mw",
                           nonnegative=True),
            period=_number(market.get("period_h", 1), "market.period_h"),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise InvalidNumberError(f"market: {exc}") from None

    cap = doc.get("capacity", {})
    if not isinstance(cap, dict):
        raise ScenarioParseError("capacity: expected an object")
    _check_keys(cap, _CAPACITY_KEYS, "capacity")
    raw_participants = cap.get("participants", "auto")
    if raw_participants == "auto":
        participants = None
    elif isinstance(raw_participants, list):
        participants = tuple(raw_participants)
        known = {p.id for p in plants}
        seen: set[str] = set()
        for i, pid in enumerate(participants):
            if not isinstance(pid, str):
                raise ScenarioParseError(
                    f"capacity.participants[{i}]: expected a plant id string, got {pid!r}"
                )
            if pid not in known:
                raise ScenarioParseError(
                    f"capacity.participants: unknown plant id {pid!r}"
                )
            if pid in seen:
                raise ScenarioParseError(
                    f"capacity.participants[{i}]: plant id {pid!r} is listed twice"
                )
            seen.add(pid)
    else:
        raise ScenarioParseError('capacity.participants: expected "auto" or a list')
    threshold = _number(cap.get("threshold", Fraction(1, 2)), "capacity.threshold")
    if not (0 < threshold < 1):
        raise InvalidNumberError("capacity.threshold: must lie in (0, 1)")
    allow_overlap = cap.get("allow_overlap", False)
    if not isinstance(allow_overlap, bool):
        raise ScenarioParseError(
            f"capacity.allow_overlap: expected true or false, got {allow_overlap!r}"
        )
    capacity = CapacityConfig(threshold, participants, allow_overlap)

    measure_name = doc.get("measure", "hyperbolic")
    if not isinstance(measure_name, str):
        raise ScenarioParseError(f"measure: expected a measure name, got {measure_name!r}")
    if measure_name not in BUILTIN_MEASURES:
        raise UnknownMeasureError(f"measure: unknown measure {measure_name!r}")

    return Scenario(tuple(plants), config, capacity, measure_name)


def _scenario_from_csv(text: str) -> Scenario:
    """Convenience plant-table format: one row per plant, market defaults."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or set(reader.fieldnames) != _PLANT_KEYS:
        raise ScenarioParseError(
            f"CSV plant table must have exactly the columns {sorted(_PLANT_KEYS)}, "
            f"got {reader.fieldnames}"
        )
    records = []
    for row in reader:
        if None in row:  # DictReader's key for values beyond the header
            raise ScenarioParseError(
                f"CSV plant table, line {reader.line_num}: more values than columns"
            )
        records.append(row)
    if not records:
        raise ScenarioParseError("CSV plant table has no rows")
    return _scenario_from_dict({"plants": records})


def _json_int(text: str) -> int | Fraction:
    # a literal this short is within parse_number's bounds
    if len(text) <= MAX_SIGNIFICANT_DIGITS:
        return int(text)
    return parse_number(text)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file (JSON, or CSV plant table)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".csv":
        return _scenario_from_csv(text)
    try:
        doc = json.loads(text, parse_float=parse_number, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:  # a number beyond parse_number's bounds
        raise InvalidNumberError(f"{path}: {exc}") from None
    return _scenario_from_dict(doc)


def toy_grid(
    p0: Fraction | int | str = 10,
    demand: Fraction | int | str = 25,
) -> Scenario:
    """The bundled eight-plant toy grid (5 MW each)."""
    rows = [
        ("wind", None, 1),
        ("hydro", "0.02", 1),
        ("gas", "0.12", 90),
        ("chp", "0.17", 50),
        ("ccgt", "5", 50),
        ("coal", "6", 60),
        ("lignite", "9", 40),
        ("nuclear", "50", 5),
    ]
    plants = tuple(
        PowerPlant(
            id=pid,
            start_up_time=StartUpTime.unbounded()
            if hours is None
            else StartUpTime.of(hours),
            marginal_cost=Fraction(mc),
            capacity=Fraction(5),
        )
        for pid, hours, mc in rows
    )
    return Scenario(
        plants=plants,
        market=MarketConfig(
            reference_price_p0=frac(p0), demand=frac(demand), period=Fraction(1)
        ),
    )
