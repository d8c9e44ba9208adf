"""Reference-price sweeps: merit-order change detection and the
reserve-depletion paradox (`capacity.is_paradox`): a reference price high
enough that the spot market empties the reserve while C_f > 0."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import lt
from typing import Iterator, NamedTuple, Sequence

from ._numeric import frac
from .capacity import is_paradox, reserve_candidates, reserve_members
from .plants import tie_key
from .scenario import Scenario, ScenarioError
from .spotmarket import _fill
from .spotmarket import clear_scenario  # perfbench/spans.py traces it at this path

__all__ = ["MAX_GRID_POINTS", "P0Grid", "SweepPoint", "SweepResult", "SweepRun", "p0_range",
           "sweep_p0"]

# Upper bound on the points of one p0 grid, so an untrusted grid spec cannot
# pin the CPU or exhaust memory.
MAX_GRID_POINTS = 100_000


class P0Grid:
    """An ascending p0 grid of ints: point i is nums[i]/den, and `p0_range`
    makes nums a range. An index gives a Fraction, a slice a P0Grid."""

    def __init__(self, nums: Sequence[int], den: int) -> None:
        if den <= 0:
            raise ValueError(f"p0 grid denominator must be > 0, got {den}")
        self.nums, self.den = nums, den

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int | slice) -> Fraction | P0Grid:
        nums = self.nums[i]
        return P0Grid(nums, self.den) if isinstance(i, slice) else Fraction(nums, self.den)


class SweepPoint(NamedTuple):
    p0: Fraction
    clearing_price: Fraction
    merit_order: tuple[str, ...]
    dispatched: frozenset[str]
    total_fee_cf: Fraction
    reserve: frozenset[str]  # the pool `capacity` would build at this p0
    paradox: bool


class SweepRun(NamedTuple):
    """The grid points from index `start` up to the next run's start, which
    share one merit order, whose first `dispatched_count` plants clear. Their
    dispatch is fixed, so the clearing price is price_base + price_slope·p0
    and C_f is fee_slope·p0."""

    start: int
    merit_order: tuple[str, ...]
    dispatched_count: int
    reserve: frozenset[str]  # the pool `capacity` would build in this run
    price_base: Fraction
    price_slope: Fraction
    fee_slope: Fraction

    @property
    def dispatched(self) -> frozenset[str]:
        return frozenset(self.merit_order[:self.dispatched_count])

    @property
    def depletes(self) -> bool:
        """Whether each point of the run with p0 > 0 is a paradox: C_f > 0
        there exactly when fee_slope > 0 (`capacity.is_paradox`)."""
        return is_paradox(self.reserve, self.fee_slope)


class SweepResult:
    """A sweep's grid, as ints over one denominator, and its runs in grid
    order. The points and the change points are derived from them."""

    def __init__(self, grid: P0Grid, runs: tuple[SweepRun, ...]) -> None:
        self.grid, self.runs = grid, runs

    def pieces(self) -> Iterator[tuple[SweepRun, P0Grid]]:
        """Each run with its part of the grid."""
        ends = [run.start for run in self.runs[1:]] + [len(self.grid)]
        for run, end in zip(self.runs, ends):
            yield run, self.grid[run.start:end]

    @property
    def change_points(self) -> tuple[Fraction, ...]:
        """The p0 of each point whose merit order differs from the point before."""
        return tuple(self.grid[run.start] for run in self.runs[1:])

    @property
    def has_paradox(self) -> bool:
        """Whether some point is a paradox: a depleting run holds a p0 > 0."""
        return any(run.depletes and p0s.nums[-1] > 0 for run, p0s in self.pieces())

    @cached_property
    def points(self) -> tuple[SweepPoint, ...]:
        """One SweepPoint per grid point, built on first use."""
        points = []
        for run, p0s in self.pieces():
            dispatched = run.dispatched
            for p0 in p0s:
                cf = run.fee_slope * p0
                points.append(SweepPoint(
                    p0, run.price_base + run.price_slope * p0, run.merit_order,
                    dispatched, cf, run.reserve, is_paradox(run.reserve, cf),
                ))
        return tuple(points)


def _scaled(x: Fraction, den: int) -> int:
    """x·den as an int; den must be a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


def p0_range(lo: Fraction, hi: Fraction, step: Fraction) -> P0Grid:
    """The grid lo + i·step for i = 0, 1, ... up to hi inclusive (empty if
    hi < lo): the range start + i·stride of numerators over den, the lcm of
    lo's and step's denominators, so four ints for any length. A step <= 0
    raises ScenarioError, and so does a grid of more than MAX_GRID_POINTS."""
    if step <= 0:
        raise ScenarioError(f"p0 grid step must be > 0, got {step}")
    count = max((hi - lo) // step + 1, 0)
    if count > MAX_GRID_POINTS:
        raise ScenarioError(f"p0 grid has {count} points, more than the limit of "
                            f"{MAX_GRID_POINTS}")
    den = lcm(lo.denominator, step.denominator)
    start, stride = _scaled(lo, den), _scaled(step, den)
    return P0Grid(range(start, start + count * stride, stride), den)


def _order_at(order: list[int], terms: list[tuple[int, int, int]], a: int, b: int) -> list[int]:
    """`order` sorted on the int keys M_i·N·b + F_i·N·a + r_i, the offers at
    p0 = a/b with the tie rank below them, from `terms` (M_i·N, F_i·N, r_i).
    The keys are distinct, so the result does not depend on `order`; a
    nearly sorted one is faster for timsort."""
    keys = [m * b + f * a + r for m, f, r in terms]
    return sorted(order, key=keys.__getitem__)


def _run_end(order: list[int], start: int, terms: list[tuple[int, int, int]],
             nums: Sequence[int], den: int) -> tuple[int, list[int] | None]:
    """The grid index where the run of `order` beginning at `start` ends, and
    the merit order there (None if the run reaches the grid's end). Each
    key difference between two plants is linear in p0, so the points
    where `order` holds form an interval from `start`. Probe start+1,
    start+2, start+4, ... until the order fails (or the grid ends), then
    bisect: a run of L points costs at most 2⌈log₂ L⌉ + 1 sorts."""
    grid_len = len(nums)
    # order holds at lo; once the gallop stops, it fails at hi (or hi is the
    # grid's end), and bisection keeps it so
    lo, hi, after = start, start + 1, None
    while hi < grid_len:
        probe = _order_at(order, terms, nums[hi], den)
        if probe != order:
            after = probe
            break
        lo, hi = hi, min(2 * hi - start, grid_len)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = _order_at(order, terms, nums[mid], den)
        if probe == order:
            lo = mid
        else:
            hi, after = mid, probe
    return hi, after


def sweep_p0(scenario: Scenario, p0_grid: P0Grid | Sequence[Fraction]) -> SweepResult:
    """Clear the scenario at every grid point, as runs of one merit order.

    Each point gives the same result as `spotmarket.clear_scenario` at that
    p0. Per scenario, the plant table's columns are scaled once: with one
    common denominator D over all mc_i and 1 - phi_i, the offers at p0 =
    a/den are (M_i·den + F_i·a) / (D·den), so a merit order is a sort of int
    keys. One order holds on an interval of the grid, which a galloping
    search (`_run_end`) finds; each distinct order starts a `SweepRun`,
    whose fill, reserve and exact price and C_f coefficients (affine in p0)
    are computed once. A grid that is no `P0Grid` becomes one over the lcm
    of its denominators. Where `capacity` would reject the pool, this raises
    ValueError naming the first p0 of the run."""
    if not isinstance(p0_grid, P0Grid):
        points = [frac(p) for p in p0_grid]
        den = lcm(*(p.denominator for p in points))
        p0_grid = P0Grid([_scaled(p, den) for p in points], den)
    nums, den = p0_grid.nums, p0_grid.den
    if not nums:
        raise ValueError("p0 grid must not be empty")
    if not all(map(lt, nums, nums[1:])):
        raise ValueError("p0 grid must be strictly ascending")
    if nums[0] < 0:
        raise ValueError("p0 grid must be non-negative")

    table = scenario.plants
    phis, ids, n = table.phis, table.ids, len(table)
    # unchecked: `eligible_plants` chose them, or `Scenario` checked the list
    candidates = reserve_candidates(table, scenario.capacity)
    fee_share = [(d - p, d) for p, d in phis]  # 1 - phi, reduced
    d = lcm(*(md for _, md in table.costs), *(fd for _, fd in fee_share))
    mc_num = [mn * (d // md) for mn, md in table.costs]
    fee_num = [fn * (d // fd) for fn, fd in fee_share]
    demand = scenario.market.demand
    e = lcm(demand.denominator, *(cd for _, cd in table.capacities))
    cap = [cn * (e // cd) for cn, cd in table.capacities]
    fee_cap = [f * c for f, c in zip(fee_num, cap)]  # F_i·C_i: fee at full output
    q = _scaled(demand, e)
    # merit_order breaks equal offers on this rank; it is added below the
    # offer in the sort key, which keeps keys distinct.
    key, rank = tie_key(phis), [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: key(phis[i], ids[i]))):
        rank[i] = r
    terms = [(m * n, f * n, r) for m, f, r in zip(mc_num, fee_num, rank)]

    runs = []
    start, order = 0, _order_at(list(range(n)), terms, nums[0], den)
    while order is not None:
        merit = tuple(ids[i] for i in order)
        # capacities and demand are ints over e, so the fill's den is 1
        count, rest, _ = _fill(zip(map(cap.__getitem__, order), repeat(1)), (q, 1))
        try:
            members = reserve_members(candidates, scenario.capacity, set(merit[:count]))
        except ValueError as exc:
            raise ValueError(f"p0 = {p0_grid[start]}: {exc}") from None
        fees = sum(map(fee_cap.__getitem__, order[:count]))
        mc_m = fee_m = 0  # nothing dispatched: price and C_f are 0
        if count:
            marginal = order[count - 1]
            mc_m, fee_m = mc_num[marginal], fee_num[marginal]
            fees += fee_m * min(rest, 0)  # the marginal plant's unused MW
        runs.append(SweepRun(start, merit, count, frozenset(members.ids),
                             Fraction(mc_m, d), Fraction(fee_m, d), Fraction(fees, d * e)))
        start, order = _run_end(order, start, terms, nums, den)
    return SweepResult(p0_grid, tuple(runs))
