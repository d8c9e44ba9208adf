"""Spot-market offer pricing, merit order, uniform-price clearing and the
inflexibility-fee ledger.

Each plant's offer is its marginal cost plus an inflexibility fee
(1 - phi) * p0, where p0 is a market-wide reference price set by the market
authority. Dispatch fills the merit order until the (inelastic) demand is
met; the last dispatched plant sets the uniform clearing price. Fees are
charged on dispatched power only and accumulate into the pool C_f that
funds the capacity mechanism.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._numeric import coarse_runs, exact_sum, first_duplicate, ratio_number, sort_runs
from .plants import PowerPlant
from .scenario import MarketConfig, Scenario

__all__ = [
    "MarketConfig",
    "Offer",
    "ClearingResult",
    "make_offers",
    "merit_order",
    "clear",
    "clear_scenario",
    "total_fee",
    "market_wide_fee_intensity",
]


class Offer(NamedTuple):
    """A sell bid of the plant's capacity (MW) at offer_price =
    marginal_cost + fee_rate, exactly."""

    plant_id: str
    offer_price: Fraction
    fee_rate: Fraction
    phi: Fraction
    capacity: Fraction


class ClearingResult:
    """One clearing. The dispatched plants (MW) are the first of the offers
    in merit order; their fees and margins are derived when read."""

    def __init__(self, clearing_price: Fraction, dispatch: dict[str, Fraction],
                 total_fee_cf: Fraction, consumed_energy: Fraction, blackout: bool,
                 offers: tuple[Offer, ...] = ()) -> None:  # offers in merit order
        self.clearing_price, self.dispatch = clearing_price, dispatch
        self.total_fee_cf, self.consumed_energy = total_fee_cf, consumed_energy
        self.blackout, self.offers = blackout, offers

    @cached_property
    def fee_ledger(self) -> dict[str, Fraction]:
        """Each dispatched plant's fee (EUR/h): its fee rate times its MW."""
        return {o.plant_id: o.fee_rate * mw
                for o, mw in zip(self.offers, self.dispatch.values())}

    @cached_property
    def profits(self) -> dict[str, Fraction]:
        """Each dispatched plant's margin (EUR/MWh): the clearing price less
        its offer."""
        return {o.plant_id: self.clearing_price - o.offer_price
                for o in self.offers[:len(self.dispatch)]}

    @property
    def merit_order(self) -> tuple[str, ...]:
        return tuple(o.plant_id for o in self.offers)

    @property
    def total_capacity(self) -> Fraction:
        return exact_sum(o.capacity for o in self.offers)


def make_offers(
    plants: Sequence[PowerPlant],
    phi: Mapping[str, Fraction],
    config: MarketConfig,
) -> list[Offer]:
    """One offer per plant at full precision. Each distinct fee rate (per phi)
    and offer price (per marginal cost and phi) is built once and shared."""
    # (1 - n/d)·(a/b) and mc + that are each built from ints as one Fraction
    a, b = config.reference_price_p0.as_integer_ratio()
    by_phi = {}  # phi's ints -> (fee rate, {mc's ints -> offer price})
    offers = []
    for plant_id, _, mc, capacity in plants:
        try:
            score = phi[plant_id]
        except KeyError:
            raise ValueError(f"no flexibility score for plant {plant_id!r}") from None
        phi_ints = score.as_integer_ratio()
        if phi_ints not in by_phi:
            n, d = phi_ints
            by_phi[phi_ints] = Fraction((d - n) * a, d * b), {}
        fee_rate, prices = by_phi[phi_ints]
        mc_ints = mc.as_integer_ratio()
        offer_price = prices.get(mc_ints)
        if offer_price is None:
            (mn, md), (fn, fd) = mc_ints, fee_rate.as_integer_ratio()
            offer_price = prices[mc_ints] = Fraction(mn * fd + fn * md, md * fd)
        offers.append(Offer(plant_id, offer_price, fee_rate, score, capacity))
    return offers


def tie_key(phis: Iterable[Fraction]) -> Callable[[Fraction, str], tuple[int, str]]:
    """The key that orders plants with equal offers, among these scores: a
    plant's (phi, id) maps to the rank of phi among the distinct scores,
    highest first, then the id. Equal offers compare on ints and ids."""
    scores = list(dict.fromkeys(p.as_integer_ratio() for p in phis))
    ascending = sort_runs(*coarse_runs(scores), scores, lambda i: 0)  # no two are equal
    rank = {scores[i]: -r for r, i in enumerate(ascending)}
    return lambda phi, plant_id: (rank[phi.as_integer_ratio()], plant_id)


def merit_order(offers: Sequence[Offer]) -> list[Offer]:
    """Ascending by offer price; ties broken by higher phi, then plant id. phi
    is ranked only in the runs of `coarse_runs`, the only offers that can tie."""
    if not offers:
        raise ValueError("offer list must not be empty")
    pairs = [o.offer_price.as_integer_ratio() for o in offers]
    order, runs = coarse_runs(pairs)
    tied = [i for part in runs for i in order[part]]
    key = tie_key(offers[i].phi for i in tied)
    ties = {i: key(offers[i].phi, offers[i].plant_id) for i in tied}
    return [offers[i] for i in sort_runs(order, runs, pairs, ties.__getitem__)]


def _fill(
    capacities: Iterable[Fraction | int], demand: Fraction | int
) -> tuple[int, int, int]:
    """Fill demand (MW) from capacities taken in merit order.

    Returns (count, rest, den): the first `count` plants are dispatched. A
    positive rest / den is demand left unmet (a blackout, every plant
    dispatched in full); a negative one is the MW the marginal plant leaves
    unused. Ints and Fractions both work: only numerators and denominators
    are read, and den grows only to cover the capacities visited.
    """
    count = 0
    rest, den = demand.numerator, demand.denominator
    for capacity in capacities:
        if rest <= 0:
            break
        n, d = capacity.as_integer_ratio()
        common = gcd(den, d)
        scaled = n * (den // common)  # over lcm(den, its den)
        if common != d:
            grow = d // common
            rest *= grow
            den *= grow
        rest -= scaled
        count += 1
    return count, rest, den


def clear(offers: Sequence[Offer], config: MarketConfig) -> ClearingResult:
    """Uniform-price clearing of inelastic demand against the merit order.

    The marginal (last dispatched) plant sets the clearing price and may be
    partially dispatched; its fee is pro-rata on dispatched MW. Demand above
    total capacity is a blackout outcome (flag set, full dispatch at the
    highest offer), not an error, so reference-price sweeps can continue.
    """
    ids = [offer.plant_id for offer in offers]
    if len(set(ids)) < len(ids):
        raise ValueError(f"two offers for plant {first_duplicate(ids)!r}")
    demand = config.demand
    stack = merit_order(offers) if offers else []
    count, rest, den = _fill((o.capacity for o in stack), demand)
    dispatch = {o.plant_id: o.capacity for o in stack[:count]}
    clearing_price = Fraction(0)
    if count:
        marginal = stack[count - 1]
        clearing_price = marginal.offer_price
        if rest < 0:  # partly dispatched: den is a multiple of its denominator
            capacity = marginal.capacity
            dispatch[marginal.plant_id] = Fraction(
                capacity.numerator * (den // capacity.denominator) + rest, den
            )
    return ClearingResult(
        clearing_price=clearing_price,
        dispatch=dispatch,
        total_fee_cf=_product_sum(zip((o.fee_rate for o in stack), dispatch.values())),
        consumed_energy=demand * config.period,
        blackout=rest > 0,
        offers=tuple(stack),
    )


def clear_scenario(scenario: Scenario, p0: Fraction | None = None) -> ClearingResult:
    """Run one spot clearing of the scenario, optionally overriding p0."""
    config = scenario.market
    if p0 is not None:
        config = config._replace(reference_price_p0=p0)
    offers = make_offers(scenario.plants, scenario.flexibilities(), config)
    return clear(offers, config)


def _product_sum(pairs: Iterable[tuple[Fraction | int, Fraction]]) -> Fraction:
    """The exact sum of x·y over the pairs: numerator products are added as
    ints per product of denominators, and those sums by `exact_sum`."""
    groups: dict[int, int] = {}
    for x, y in pairs:
        (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
        groups[xd * yd] = groups.get(xd * yd, 0) + xn * yn
    return exact_sum(Fraction(n, d) for d, n in groups.items())


def total_fee(result: ClearingResult, mode: str = "exact") -> Fraction:
    """The fee pool C_f in EUR/h.

    `exact` sums the full-precision ledger. `paper-rounded` rounds each
    per-plant fee rate to integer EUR/MWh before multiplying by dispatched
    MW; it is a reporting convention only and never affects clearing.
    """
    if mode == "exact":
        return result.total_fee_cf
    if mode == "paper-rounded":
        rates = (ratio_number(o.fee_rate.numerator, o.fee_rate.denominator, True)
                 for o in result.offers)
        return _product_sum(zip(rates, result.dispatch.values()))
    raise ValueError(f"unknown fee mode {mode!r}")


def market_wide_fee_intensity(offers: Sequence[Offer]) -> Fraction:
    """Sum of fee rates over all offering plants (EUR/MWh), dispatch-independent."""
    return exact_sum(o.fee_rate for o in offers)
