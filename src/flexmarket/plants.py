"""Power-plant data model and per-plant flexibility scores."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ._numeric import frac
from .flexibility import StartUpTime, flexibility

__all__ = ["PowerPlant", "flexibilities_for"]


@dataclass(frozen=True)
class PowerPlant:
    """A generator: id, guaranteed start-up time, marginal cost (EUR/MWh),
    capacity (MW)."""

    id: str
    start_up_time: StartUpTime
    marginal_cost: Fraction
    capacity: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "marginal_cost", frac(self.marginal_cost))
        object.__setattr__(self, "capacity", frac(self.capacity))
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"plant id must be a non-empty string, got {self.id!r}")
        if self.marginal_cost.numerator < 0:
            raise ValueError(f"{self.id}: marginal_cost must be >= 0")
        if self.capacity.numerator <= 0:
            raise ValueError(f"{self.id}: capacity must be > 0")


def flexibilities_for(plants: Iterable[PowerPlant]) -> dict[str, Fraction]:
    """Map plant id -> flexibility score for a plant list."""
    return {p.id: flexibility(p.start_up_time) for p in plants}

