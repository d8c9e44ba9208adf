"""Reference-price sweeps: merit-order change detection and the
reserve-depletion paradox.

The paradox: a reference price high enough that every eligible flexible
plant clears on the spot market, leaving the capacity pool empty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Sequence

from ._numeric import frac, sorted_exact
from .capacity import eligible_plants
from .scenario import Scenario, ScenarioError
from .spotmarket import ClearingResult, MarketConfig, clear, make_offers

__all__ = [
    "MAX_GRID_POINTS",
    "SweepPoint",
    "SweepResult",
    "clear_scenario",
    "p0_range",
    "sweep_p0",
    "find_first_change",
]

# Upper bound on the points of one p0 grid, so an untrusted grid spec cannot
# pin the CPU or exhaust memory.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class SweepPoint:
    p0: Fraction
    clearing_price: Fraction
    merit_order: tuple[str, ...]
    dispatched: frozenset[str]
    total_fee_cf: Fraction
    reserve: frozenset[str]  # eligible and not dispatched
    paradox: bool


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    change_points: tuple[Fraction, ...]


def clear_scenario(scenario: Scenario, p0: Fraction | None = None) -> ClearingResult:
    """Run one spot clearing of the scenario, optionally overriding p0."""
    if not scenario.plants:
        raise ValueError("scenario has no plants")
    config = scenario.market
    if p0 is not None:
        config = replace(config, reference_price_p0=frac(p0))
    offers = make_offers(scenario.plants, scenario.flexibilities(), config)
    return clear(offers, scenario.plants, config)


def _scaled(x: Fraction, den: int) -> int:
    """x·den as an int; den must be a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


def p0_range(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    """The grid lo + i·step for i = 0, 1, ... up to hi inclusive (empty if
    hi < lo).

    The point count is checked before anything is allocated: a grid of more
    than MAX_GRID_POINTS points raises ScenarioError.
    """
    count = max((hi - lo) // step + 1, 0)
    if count > MAX_GRID_POINTS:
        raise ScenarioError(
            f"p0 grid has {count} points, more than the limit of {MAX_GRID_POINTS}"
        )
    den = lcm(lo.denominator, step.denominator)
    start, stride = _scaled(lo, den), _scaled(step, den)
    return [Fraction(start + i * stride, den) for i in range(count)]


def sweep_p0(scenario: Scenario, p0_grid: Sequence[Fraction]) -> SweepResult:
    """Clear the scenario at every grid point, flagging merit-order changes.

    Each point gives the same result as `clear_scenario` at that p0; the
    output is ordered by p0. Scoring, eligibility and an integer scaling of
    the plants are done once per scenario. Every offer mc_i + (1 - phi_i)·p0
    is linear in p0: with one common denominator D over all mc_i and
    1 - phi_i, the offers at p0 = a/b are (M_i·b + F_i·a) / (D·b) for the
    integers M_i = mc_i·D and F_i = (1 - phi_i)·D, so each point sorts,
    dispatches and sums plain ints and builds only its price and C_f as
    Fractions.
    """
    if not scenario.plants:
        raise ValueError("scenario has no plants")
    grid = [frac(p) for p in p0_grid]
    if not grid:
        raise ValueError("p0 grid must not be empty")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("p0 grid must be strictly ascending")
    if grid[0] < 0:
        raise ValueError("p0 grid must be non-negative")

    plants = scenario.plants
    phi = scenario.flexibilities()
    eligible = frozenset(
        eligible_plants(plants, phi, scenario.capacity.threshold)
    )
    n = len(plants)
    ids = [p.id for p in plants]
    fee_share = [1 - phi[pid] for pid in ids]
    d = lcm(*(p.marginal_cost.denominator for p in plants),
            *(f.denominator for f in fee_share))
    mc_num = [_scaled(p.marginal_cost, d) for p in plants]
    fee_num = [_scaled(f, d) for f in fee_share]
    demand = scenario.market.demand
    e = lcm(demand.denominator, *(p.capacity.denominator for p in plants))
    cap = [_scaled(p.capacity, e) for p in plants]
    q = _scaled(demand, e)
    # merit_order breaks equal offers by higher phi, then plant id; the rank
    # is added below the offer in the sort key, which keeps keys distinct.
    rank = [0] * n
    tie_order = sorted_exact(range(n), lambda i: -phi[ids[i]], ids.__getitem__)
    for r, i in enumerate(tie_order):
        rank[i] = r

    points = []
    change_points = []
    order = list(range(n))
    previous: list[int] | None = None
    merit: tuple[str, ...] = ()
    dispatched: frozenset[str] = frozenset()
    reserve = eligible
    for p0 in grid:
        a, b = p0.numerator, p0.denominator
        keys = [(m * b + f * a) * n + r for m, f, r in zip(mc_num, fee_num, rank)]
        # the previous point's order is nearly sorted, which timsort exploits
        order = sorted(order, key=keys.__getitem__)
        if order != previous:
            merit = tuple(ids[i] for i in order)
            if previous is not None:
                change_points.append(p0)
        if q == 0:
            price = cf = Fraction(0)
            prefix = 0
        else:
            # fill the merit order; in a blackout the loop runs to the end,
            # dispatching every plant in full at the highest offer
            served = fees = 0
            for prefix, i in enumerate(order, 1):
                served += cap[i]
                fees += fee_num[i] * cap[i]
                if served >= q:
                    fees -= fee_num[i] * (served - q)  # marginal plant's unused MW
                    break
            price = Fraction(mc_num[i] * b + fee_num[i] * a, d * b)
            cf = Fraction(a * fees, b * d * e)
        now = frozenset(ids[i] for i in order[:prefix])
        if now != dispatched:
            dispatched = now
            reserve = eligible - dispatched
        previous = order
        points.append(
            SweepPoint(
                p0=p0,
                clearing_price=price,
                merit_order=merit,
                dispatched=dispatched,
                total_fee_cf=cf,
                reserve=reserve,
                paradox=bool(eligible) and not reserve,
            )
        )
    return SweepResult(tuple(points), tuple(change_points))


def find_first_change(
    scenario: Scenario,
    lo: Fraction,
    hi: Fraction,
    resolution: Fraction,
) -> Fraction | None:
    """Smallest grid point in [lo, hi] (step = resolution) whose merit order
    differs from the order at lo; None if the order never changes."""
    lo, hi, resolution = frac(lo), frac(hi), frac(resolution)
    if not lo < hi:
        raise ValueError("lo must be < hi")
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    changes = sweep_p0(scenario, p0_range(lo, hi, resolution)).change_points
    return changes[0] if changes else None
