"""Power-plant data model and per-plant operational flexibility scores.

The flexibility of a plant with guaranteed start-up time t (hours) is
phi = 1/(t + 1): strictly decreasing, 1 for instantaneous start-up and
approaching 0 for arbitrarily slow plants. A plant with no guaranteed
start-up at all (e.g. a wind turbine) scores exactly 0."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._numeric import Rows, Validated, frac

__all__ = ["PlantIdError", "PlantTable", "PowerPlant", "StartUpTime", "flexibilities_for",
           "flexibility", "validate_measure"]

Pair = tuple[int, int]  # a value as its reduced (numerator, denominator)


class _StartUpTimeFields(NamedTuple):
    hours: Fraction | None


class StartUpTime(Validated, _StartUpTimeFields):
    """Guaranteed start-up time in hours; `hours is None` means unbounded, a
    first-class value whose flexibility is exactly zero."""

    __slots__ = ()

    def __new__(cls, hours: Fraction | None) -> StartUpTime:
        if hours is not None:
            hours = frac(hours)
            check_hours(*hours.as_integer_ratio())
        return super().__new__(cls, hours)

    def as_integer_ratio(self) -> Pair | None:
        """The hours as a pair, None when unbounded: a `PlantTable` cell."""
        return None if self.hours is None else self.hours.as_integer_ratio()


def check_hours(n: int, d: int) -> None:
    """StartUpTime's rule, on a start-up time of n/d hours (reduced)."""
    if n < 0:
        raise ValueError(f"start-up time must be >= 0, got {n if d == 1 else f'{n}/{d}'}")


def score(hours: Pair | None) -> Pair:
    """phi = 1/(t + 1) of a start-up time t = n/d hours, as the reduced pair
    (d, n + d); (0, 1) for an unbounded one (None)."""
    if hours is None:
        return 0, 1
    n, d = hours
    return d, n + d


def flexibility(t: StartUpTime) -> Fraction:
    """phi = 1/(t + 1), and 0 for an unbounded start-up time."""
    return Fraction(*score(t.as_integer_ratio()))


# the near-limit checks of validate_measure: score(0.001) >= 0.99 and
# score(1000) <= 0.01
NEAR_ONE_PROBE, NEAR_ONE_MIN = Fraction(1, 1000), Fraction(99, 100)
NEAR_ZERO_PROBE, NEAR_ZERO_MAX = Fraction(1000), Fraction(1, 100)


def validate_measure(measure: Callable[[StartUpTime], Fraction],
                     probe_grid: Sequence[StartUpTime]) -> tuple[str, ...]:
    """Check the measure axioms on a finite probe grid. The axioms are
    asymptotic, so this is the testable surrogate: strict monotone decrease
    and range [0, 1] across the grid, plus near-limit checks at two fixed
    probes (score(0.001) >= 0.99 and score(1000) <= 0.01). Returns the
    violations; an empty tuple means valid on the grid."""
    if not probe_grid:
        raise ValueError("probe grid must not be empty")
    hours = [t.hours for t in probe_grid]
    if None in hours:
        raise ValueError(f"probe_grid[{hours.index(None)}]: probes must be finite")
    if any(a >= b for a, b in zip(hours, hours[1:])):
        raise ValueError("probe grid must be strictly ascending")

    scores = [measure(t) for t in probe_grid]
    violations = [f"range: score({x}) = {s} outside [0, 1]"
                  for x, s in zip(hours, scores) if not 0 <= s <= 1]
    violations += [f"monotonicity: score({x1}) = {s1} not > score({x2}) = {s2}"
                   for x1, s1, x2, s2 in zip(hours, scores, hours[1:], scores[1:])
                   if not s1 > s2]
    lo = measure(StartUpTime(NEAR_ONE_PROBE))
    if lo < NEAR_ONE_MIN:
        violations.append(
            f"limit: score({NEAR_ONE_PROBE}) = {lo} < {NEAR_ONE_MIN} (should approach 1)")
    hi = measure(StartUpTime(NEAR_ZERO_PROBE))
    if hi > NEAR_ZERO_MAX:
        violations.append(
            f"limit: score({NEAR_ZERO_PROBE}) = {hi} > {NEAR_ZERO_MAX} (should approach 0)")
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
        marginal_cost, capacity = frac(marginal_cost), frac(capacity)
        check_plant(id, marginal_cost.numerator, capacity.numerator, start_up_time)
        return super().__new__(cls, id, start_up_time, marginal_cost, capacity)


def check_plant(plant_id: object, marginal_cost: int, capacity: int,
                start_up_time: object = StartUpTime(None)) -> None:
    """PowerPlant's rules, on the numerators of its marginal cost and capacity.
    The parser passes no start-up time: it checks the hours by `check_hours`
    and builds the StartUpTime when a plant is read."""
    if not isinstance(plant_id, str) or not plant_id:
        raise PlantIdError(f"plant id must be a non-empty string, got {plant_id!r}")
    if not plant_id.isprintable() or "," in plant_id or '"' in plant_id or "|" in plant_id:
        raise PlantIdError(f"plant id must be printable, without ',', '\"' or '|', "
                           f"got {plant_id!r}")
    if not isinstance(start_up_time, StartUpTime):
        raise ValueError(
            f"{plant_id}: start_up_time must be a StartUpTime, got {start_up_time!r}")
    if marginal_cost < 0:
        raise ValueError(f"{plant_id}: marginal_cost must be >= 0")
    if capacity <= 0:
        raise ValueError(f"{plant_id}: capacity must be > 0")


class PlantTable(Rows):
    """Plants as columns: ids, start-up hours (a pair, or None when
    unbounded), marginal costs and capacities, each row checked by
    `check_hours` and `check_plant`. Its rows are PowerPlants, in which
    equal start-up times share one StartUpTime."""

    __slots__ = ("ids", "hours", "costs", "capacities", "_phis")
    COLUMNS = ("ids", "hours", "costs", "capacities")

    def __init__(self, *columns: list, rows: tuple | None = None) -> None:
        super().__init__(*columns, rows=rows)
        self._phis: list[Pair] | None = None

    def _build(self, fraction: Callable[[Pair], Fraction]) -> Iterator[PowerPlant]:
        starts: dict[Pair | None, StartUpTime] = {}
        for pid, hours, mc, cap in zip(self.ids, self.hours, self.costs, self.capacities):
            if hours not in starts:
                starts[hours] = StartUpTime(hours and fraction(hours))
            # checked when the table was built
            yield tuple.__new__(PowerPlant, (pid, starts[hours], fraction(mc), fraction(cap)))

    @property
    def phis(self) -> list[Pair]:
        """Each plant's phi as a pair, scored once per distinct start-up time."""
        if self._phis is None:
            scores: dict[Pair | None, Pair] = {}
            self._phis = [scores[h] if h in scores else scores.setdefault(h, score(h))
                          for h in self.hours]
        return self._phis


def flexibilities_for(plants: Iterable[PowerPlant]) -> dict[str, Fraction]:
    """Map plant id -> flexibility score for a plant list, scoring each
    distinct start-up time once."""
    table, built = PlantTable.of(plants), {}  # one Fraction per distinct score
    return {pid: built.get(phi) or built.setdefault(phi, Fraction(*phi))
            for pid, phi in zip(table.ids, table.phis)}
