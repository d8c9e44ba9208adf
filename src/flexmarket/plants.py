"""Power-plant data model and per-plant flexibility scores."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from ._numeric import Validated, frac
from .flexibility import StartUpTime, flexibility

__all__ = ["PlantIdError", "PowerPlant", "flexibilities_for"]


class PlantIdError(ValueError):
    """A plant id that is not a non-empty string, or that a report cannot write
    as one field: unprintable, or holding `,`, `"` or a sweep's `|` joiner."""


class _PowerPlantFields(NamedTuple):
    id: str
    start_up_time: StartUpTime
    marginal_cost: Fraction
    capacity: Fraction


class PowerPlant(Validated, _PowerPlantFields):
    """A generator: id, guaranteed start-up time, marginal cost (EUR/MWh),
    capacity (MW)."""

    __slots__ = ()

    def __new__(cls, id: str, start_up_time: StartUpTime, marginal_cost: Fraction,
                capacity: Fraction) -> PowerPlant:
        if marginal_cost.__class__ is not Fraction or capacity.__class__ is not Fraction:
            marginal_cost, capacity = frac(marginal_cost), frac(capacity)
        if not isinstance(id, str) or not id:
            raise PlantIdError(f"plant id must be a non-empty string, got {id!r}")
        if not id.isprintable() or "," in id or '"' in id or "|" in id:
            raise PlantIdError(f"plant id must be printable, without ',', '\"' or '|', "
                               f"got {id!r}")
        if marginal_cost.numerator < 0:
            raise ValueError(f"{id}: marginal_cost must be >= 0")
        if capacity.numerator <= 0:
            raise ValueError(f"{id}: capacity must be > 0")
        return super().__new__(cls, id, start_up_time, marginal_cost, capacity)


def flexibilities_for(plants: Iterable[PowerPlant]) -> dict[str, Fraction]:
    """Map plant id -> flexibility score for a plant list, scoring each
    distinct start-up time once (keyed on its hours' ints)."""
    scores: dict[tuple[int, int] | None, Fraction] = {}
    phi = {}
    for plant_id, start_up_time, _, _ in plants:
        hours = start_up_time.hours
        key = None if hours is None else hours.as_integer_ratio()
        if key not in scores:
            scores[key] = flexibility(start_up_time)
        phi[plant_id] = scores[key]
    return phi

