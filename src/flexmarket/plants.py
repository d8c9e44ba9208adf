"""Power-plant data model and per-plant operational flexibility scores.

The flexibility of a plant with guaranteed start-up time t (hours) is
phi = 1/(t + 1): strictly decreasing, 1 for instantaneous start-up and
approaching 0 for arbitrarily slow plants. A plant with no guaranteed
start-up at all (e.g. a wind turbine) scores exactly 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from ._numeric import Validated, frac

__all__ = ["PlantIdError", "PowerPlant", "StartUpTime", "flexibilities_for", "flexibility",
           "validate_measure"]


class _StartUpTimeFields(NamedTuple):
    hours: Fraction | None


class StartUpTime(Validated, _StartUpTimeFields):
    """Guaranteed start-up time in hours; `hours is None` means unbounded.

    Unbounded is a first-class value, not a large finite surrogate: its
    flexibility is exactly zero.
    """

    __slots__ = ()

    def __new__(cls, hours: Fraction | None) -> StartUpTime:
        if hours is not None:
            hours = frac(hours)
            if hours.numerator < 0:
                raise ValueError(f"start-up time must be >= 0, got {hours}")
        return super().__new__(cls, hours)


def flexibility(t: StartUpTime) -> Fraction:
    """phi = 1/(t + 1), and 0 for an unbounded start-up time."""
    if t.hours is None:
        return Fraction(0)
    n, d = t.hours.numerator, t.hours.denominator
    return Fraction(d, n + d)  # 1 / (n/d + 1)


# the near-limit checks of validate_measure: score(0.001) >= 0.99 and
# score(1000) <= 0.01
NEAR_ONE_PROBE, NEAR_ONE_MIN = Fraction(1, 1000), Fraction(99, 100)
NEAR_ZERO_PROBE, NEAR_ZERO_MAX = Fraction(1000), Fraction(1, 100)


def validate_measure(
    measure: Callable[[StartUpTime], Fraction], probe_grid: Sequence[StartUpTime]
) -> tuple[str, ...]:
    """Check the measure axioms on a finite probe grid.

    The axioms are asymptotic, so this is the testable surrogate: strict
    monotone decrease and range [0, 1] across the grid, plus near-limit
    checks at two fixed probes (score(0.001) >= 0.99 and score(1000) <=
    0.01). Returns the violations; an empty tuple means valid on the grid.
    """
    if not probe_grid:
        raise ValueError("probe grid must not be empty")
    hours = []
    for i, t in enumerate(probe_grid):
        if t.hours is None:
            raise ValueError(f"probe_grid[{i}]: probes must be finite")
        hours.append(t.hours)
    if any(a >= b for a, b in zip(hours, hours[1:])):
        raise ValueError("probe grid must be strictly ascending")

    violations: list[str] = []
    scores = [measure(t) for t in probe_grid]
    for x, s in zip(hours, scores):
        if not (0 <= s <= 1):
            violations.append(f"range: score({x}) = {s} outside [0, 1]")
    for (x1, s1), (x2, s2) in zip(zip(hours, scores), zip(hours[1:], scores[1:])):
        if not s1 > s2:
            violations.append(
                f"monotonicity: score({x1}) = {s1} not > score({x2}) = {s2}"
            )
    lo = measure(StartUpTime(NEAR_ONE_PROBE))
    if lo < NEAR_ONE_MIN:
        violations.append(
            f"limit: score({NEAR_ONE_PROBE}) = {lo} < {NEAR_ONE_MIN} (should approach 1)"
        )
    hi = measure(StartUpTime(NEAR_ZERO_PROBE))
    if hi > NEAR_ZERO_MAX:
        violations.append(
            f"limit: score({NEAR_ZERO_PROBE}) = {hi} > {NEAR_ZERO_MAX} (should approach 0)"
        )
    return tuple(violations)


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
        if not isinstance(start_up_time, StartUpTime):
            raise ValueError(f"{id}: start_up_time must be a StartUpTime, got {start_up_time!r}")
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
