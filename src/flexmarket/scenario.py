"""Scenario model, with its market and capacity settings, and file ingestion
(JSON canonical, CSV plant table). Numbers are parsed exactly, as int pairs
in one `PlantTable` for the plants; `start_up_time_h` accepts "inf" for no
guaranteed start-up. The parser checks only the document's structure and
number syntax: each rule is checked by the type that owns it (a plant's by
the functions `PowerPlant` and `StartUpTime` call), and the parser adds the
JSON path to that type's error."""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import cache
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from ._numeric import MAX_SIGNIFICANT_DIGITS, Validated, first_duplicate, frac, json_ratio, ratio
from .plants import (Pair, PlantIdError, PlantTable, PowerPlant, StartUpTime, check_hours,
                     check_plant, flexibilities_for)

__all__ = ["MarketConfig", "CapacityConfig", "ScenarioError", "ScenarioParseError",
           "UnknownMeasureError", "DuplicatePlantIdError", "InvalidNumberError", "Scenario",
           "load_scenario", "toy_grid"]


class ScenarioError(ValueError):
    """Base class for scenario validation failures."""


class ScenarioParseError(ScenarioError):
    """The file is not parseable or structurally malformed."""


class UnknownMeasureError(ScenarioError):
    """The document names a flexibility measure other than "hyperbolic"."""


class DuplicatePlantIdError(ScenarioError):
    """Two plants share an id."""


class InvalidNumberError(ScenarioError):
    """A numeric field is missing, non-numeric, or out of range."""


class _MarketConfigFields(NamedTuple):
    reference_price_p0: Fraction
    demand: Fraction
    period: Fraction


class MarketConfig(Validated, _MarketConfigFields):
    """Reference price p0 (EUR/MWh), demand (MW), period (h)."""

    __slots__ = ()

    def __new__(cls, reference_price_p0: Fraction, demand: Fraction,
                period: Fraction = Fraction(1)) -> MarketConfig:
        p0, demand, period = frac(reference_price_p0), frac(demand), frac(period)
        if p0.numerator < 0:
            raise ValueError("reference price p0 must be >= 0")
        if demand.numerator < 0:
            raise ValueError("demand must be >= 0")
        if period.numerator <= 0:
            raise ValueError("period must be > 0")
        return super().__new__(cls, p0, demand, period)


class _CapacityConfigFields(NamedTuple):
    threshold: Fraction
    participants: tuple[str, ...] | None
    allow_overlap: bool


class CapacityConfig(Validated, _CapacityConfigFields):
    """Eligibility threshold in (0, 1), the reserve participants (None for
    "auto", else distinct plant ids) and whether dispatched plants may join."""

    __slots__ = ()

    def __new__(cls, threshold: Fraction = Fraction(1, 2),
                participants: tuple[str, ...] | None = None,
                allow_overlap: bool = False) -> CapacityConfig:
        threshold = frac(threshold)
        if not (0 < threshold < 1):
            raise ValueError("threshold: must lie in (0, 1)")
        if participants is not None:
            if not isinstance(participants, (list, tuple)):
                raise ValueError("participants: expected None or a list of plant ids, "
                                 f"got {participants!r}")
            participants = tuple(participants)
        seen: set[str] = set()
        for i, pid in enumerate(participants or ()):
            if not isinstance(pid, str):
                raise ValueError(f"participants[{i}]: expected a plant id string, got {pid!r}")
            if pid in seen:
                raise ValueError(f"participants[{i}]: plant id {pid!r} is listed twice")
            seen.add(pid)
        if not isinstance(allow_overlap, bool):
            raise ValueError(f"allow_overlap: expected true or false, got {allow_overlap!r}")
        return super().__new__(cls, threshold, participants, allow_overlap)


class _ScenarioFields(NamedTuple):
    plants: PlantTable
    market: MarketConfig
    capacity: CapacityConfig


class Scenario(Validated, _ScenarioFields):
    """Plants (any sequence of PowerPlant, kept as a `PlantTable`), market and
    capacity settings. Construction checks the rules that span the parts: at
    least one plant, unique plant ids, and an explicit participant list of
    known, eligible plants (only the listed plants are scored for it). Each
    error is a `ScenarioError` that names the section at fault."""

    __slots__ = ()

    def __new__(cls, plants: Sequence[PowerPlant], market: MarketConfig,
                capacity: CapacityConfig = CapacityConfig()) -> Scenario:
        plants = PlantTable.of(plants)
        if not plants:
            raise ScenarioParseError("plants: expected at least one plant")
        position = dict(zip(plants.ids, count()))
        if len(position) < len(plants):
            duplicate = first_duplicate(plants.ids)
            raise DuplicatePlantIdError(f"plants: duplicate plant id {duplicate!r}")
        pinned = capacity.participants
        if pinned is not None:
            from .capacity import build_pool  # only a pinned pool needs it
            listed = plants.take(position[pid] for pid in pinned if pid in position)
            try:
                build_pool(listed, capacity)
            except ValueError as exc:
                raise ScenarioParseError(f"capacity.participants: {exc}") from None
        return super().__new__(cls, plants, market, capacity)

    def flexibilities(self) -> dict[str, Fraction]:
        return flexibilities_for(self.plants)


# The keys each level of a scenario document may have.
_TOP_KEYS = frozenset({"plants", "market", "capacity", "measure"})
_PLANT_FIELDS = ("id", "start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw")
_PLANT_KEYS = frozenset(_PLANT_FIELDS)
_plant_fields = itemgetter(*_PLANT_FIELDS)
_MARKET_DEFAULTS = (("p0_eur_per_mwh", 0), ("demand_mw", 0), ("period_h", 1))
_MARKET_KEYS = frozenset(key for key, _ in _MARKET_DEFAULTS)
_CAPACITY_KEYS = frozenset({"threshold", "participants", "allow_overlap"})


class _DuplicateKeyObject(dict):
    """A JSON object that named `duplicate` more than once; the parser
    rejects it once it knows the object's path."""

    duplicate: str


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    record = dict(pairs)
    if len(record) == len(pairs):
        return record
    record = _DuplicateKeyObject(record)
    record.duplicate = first_duplicate(key for key, _ in pairs)
    return record


def _check_keys(record: dict, allowed: frozenset[str], path: str) -> None:
    if not isinstance(record, dict):
        raise ScenarioParseError(f"{path}: expected an object")
    if isinstance(record, _DuplicateKeyObject):
        error = f"{record.duplicate}: duplicate key"
    elif allowed.issuperset(record):
        return
    else:
        unknown = sorted(str(key) for key in record if key not in allowed)
        error = f"{unknown[0]}: unknown key (expected one of {', '.join(sorted(allowed))})"
    raise ScenarioParseError(f"{path}.{error}" if path else error)


def _number(raw: object, path: str, numbers: Callable = ratio, field: str = "") -> Pair:
    """raw as a reduced pair, by `numbers`: `ratio`, or a document's memo of
    it. The error names path + field."""
    try:
        if isinstance(raw, _Number):  # a JSON literal, parsed once per text
            return raw  # type: ignore[return-value]
        return (ratio if raw.__class__ is bool else numbers)(raw)  # True == 1, but no number
    except TypeError:
        raise InvalidNumberError(f"{path}{field}: expected a number, got {raw!r}") from None
    except ValueError as exc:
        raise InvalidNumberError(f"{path}{field}: expected a number: {exc}") from None


def _plant_table(raw_plants: list) -> PlantTable:
    """The plant records as a table, each checked in turn: its keys, its
    numbers, then the plant rules. A JSON number is a pair already."""
    numbers = cache(ratio)  # one document's other literals
    columns = ids, hours, costs, capacities = [], [], [], []
    for i, record in enumerate(raw_plants):
        if record.__class__ is dict and len(record) == 4 and _PLANT_KEYS.issuperset(record):
            pid, h, mc, cap = _plant_fields(record)
        else:
            _check_keys(record, _PLANT_KEYS, f"plants[{i}]")
            pid, h, mc, cap = map(record.get, _PLANT_FIELDS)
        if not isinstance(h, _Number):
            h = (None if isinstance(h, str) and h == "inf"
                 else _number(h, f"plants[{i}]", numbers, ".start_up_time_h"))
        if not isinstance(mc, _Number):
            mc = _number(mc, f"plants[{i}]", numbers, ".marginal_cost_eur_per_mwh")
        if not isinstance(cap, _Number):
            cap = _number(cap, f"plants[{i}]", numbers, ".capacity_mw")
        try:
            if h is not None:
                check_hours(*h)
            check_plant(pid, mc[0], cap[0])
        except PlantIdError as exc:
            raise ScenarioParseError(f"plants[{i}]: {exc}") from None
        except ValueError as exc:
            raise InvalidNumberError(f"plants[{i}]: {exc}") from None
        ids.append(pid)
        hours.append(h)
        costs.append(mc)
        capacities.append(cap)
    return PlantTable(*columns)


def _scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "")
    if not isinstance(doc.get("plants"), list):
        raise ScenarioParseError("plants: expected a list")
    plants = _plant_table(doc["plants"])

    market = doc.get("market", {})
    _check_keys(market, _MARKET_KEYS, "market")
    p0, demand, period = (Fraction(*_number(market.get(key, default), f"market.{key}"))
                          for key, default in _MARKET_DEFAULTS)
    try:
        config = MarketConfig(p0, demand, period)
    except ValueError as exc:
        raise InvalidNumberError(f"market: {exc}") from None

    cap = doc.get("capacity", {})
    _check_keys(cap, _CAPACITY_KEYS, "capacity")
    participants = cap.get("participants", "auto")
    if participants == "auto":
        participants = None
    elif isinstance(participants, list):
        participants = tuple(participants)
    else:
        raise ScenarioParseError('capacity.participants: expected "auto" or a list')
    threshold = Fraction(*_number(cap.get("threshold", Fraction(1, 2)), "capacity.threshold"))
    try:
        capacity = CapacityConfig(threshold, participants, cap.get("allow_overlap", False))
    except ValueError as exc:  # its messages start with the field's name
        raise ScenarioParseError(f"capacity.{exc}") from None

    measure = doc.get("measure", "hyperbolic")
    if not isinstance(measure, str):
        raise ScenarioParseError(f"measure: expected a measure name, got {measure!r}")
    if measure != "hyperbolic":
        raise UnknownMeasureError(f"measure: unknown measure {measure!r}")
    return Scenario(plants, config, capacity)


def _scenario_from_csv(text: str) -> Scenario:
    """Convenience plant-table format: one row per plant, market defaults."""
    import csv  # only a CSV plant table needs it
    reader = csv.DictReader(io.StringIO(text))
    try:
        duplicate = first_duplicate(reader.fieldnames or ())
        if duplicate is not None:
            raise ScenarioParseError(f"CSV plant table: {duplicate}: duplicate column")
        if reader.fieldnames is None or set(reader.fieldnames) != _PLANT_KEYS:
            raise ScenarioParseError("CSV plant table must have exactly the columns "
                                     f"{sorted(_PLANT_KEYS)}, got {reader.fieldnames}")
        records = []
        for row in reader:
            if None in row:  # DictReader's key for values beyond the header
                raise ScenarioParseError(f"CSV plant table, line {reader.line_num}: "
                                         "more values than columns")
            records.append(row)
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        line = reader.reader.line_num  # DictReader's own count lags a failed row
        raise ScenarioParseError(f"CSV plant table, line {line}: {exc}") from None
    return _scenario_from_dict({"plants": records})


class _Number(tuple):
    """A JSON number literal's value as a reduced (numerator, denominator).
    An error message that quotes the value shows it as the parser once made
    it: a Fraction, or for an int literal (`_Int`) the int."""

    __slots__ = ()
    SHOWN = "Fraction({}, {})"

    def __repr__(self) -> str:
        return self.SHOWN.format(*self)


class _Int(_Number):
    __slots__, SHOWN = (), "{}"


def _json_float(text: str) -> _Number:
    return _Number(json_ratio(text))


def _json_int(text: str) -> _Number:
    # a literal this short is within parse_number's bounds
    return _Int((int(text), 1)) if len(text) <= MAX_SIGNIFICANT_DIGITS else _json_float(text)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file (JSON, or CSV plant table). Each
    distinct numeric literal is parsed once."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".csv":
        return _scenario_from_csv(text)
    try:
        doc = json.loads(text, object_pairs_hook=_json_object,
                         parse_float=cache(_json_float), parse_int=cache(_json_int))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioParseError(f"{path}: not valid JSON: nested too deeply") from None
    except ValueError as exc:  # a number beyond parse_number's bounds
        raise InvalidNumberError(f"{path}: {exc}") from None
    return _scenario_from_dict(doc)


def toy_grid(p0: Fraction | int | str = 10, demand: Fraction | int | str = 25) -> Scenario:
    """The bundled eight-plant toy grid (5 MW each)."""
    rows = [("wind", None, 1), ("hydro", "0.02", 1), ("gas", "0.12", 90), ("chp", "0.17", 50),
            ("ccgt", "5", 50), ("coal", "6", 60), ("lignite", "9", 40), ("nuclear", "50", 5)]
    plants = tuple(PowerPlant(pid, StartUpTime(hours), mc, 5) for pid, hours, mc in rows)
    return Scenario(plants, MarketConfig(p0, demand))
