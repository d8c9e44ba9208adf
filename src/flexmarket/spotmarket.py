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

from ._numeric import Validated, exact_sum, frac, ratio_number, sorted_exact
from .plants import PowerPlant

__all__ = [
    "MarketConfig",
    "Offer",
    "ClearingResult",
    "make_offers",
    "merit_order",
    "clear",
    "total_fee",
    "market_wide_fee_intensity",
]


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
    """One offer per plant at full precision."""
    # (1 - n/d)·(a/b) and mc + that are each built from ints as one Fraction
    a, b = config.reference_price_p0.numerator, config.reference_price_p0.denominator
    offers = []
    for plant in plants:
        if plant.id not in phi:
            raise ValueError(f"no flexibility score for plant {plant.id!r}")
        score = phi[plant.id]
        fee_rate = Fraction((score.denominator - score.numerator) * a,
                            score.denominator * b)
        mc = plant.marginal_cost
        offer_price = Fraction(
            mc.numerator * fee_rate.denominator + fee_rate.numerator * mc.denominator,
            mc.denominator * fee_rate.denominator,
        )
        offers.append(Offer(plant.id, offer_price, fee_rate, score, plant.capacity))
    return offers


def tie_key(phis: Iterable[Fraction]) -> Callable[[Fraction, str], tuple[int, str]]:
    """The key that orders plants with equal offers, among these scores: a
    plant's (phi, id) maps to the rank of phi among the distinct scores,
    highest first, then the id. Equal offers compare on ints and ids."""
    scores = {(p.numerator, p.denominator): p for p in phis}
    ascending = sorted_exact(scores, scores.__getitem__, lambda key: 0)
    rank = {key: -r for r, key in enumerate(ascending)}
    return lambda phi, plant_id: (rank[phi.numerator, phi.denominator], plant_id)


def merit_order(offers: Sequence[Offer]) -> list[Offer]:
    """Ascending by offer price; ties broken by higher phi, then plant id."""
    if not offers:
        raise ValueError("offer list must not be empty")
    key = tie_key(o.phi for o in offers)
    return sorted_exact(offers, lambda o: o.offer_price, lambda o: key(o.phi, o.plant_id))


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
        common = gcd(den, capacity.denominator)
        scaled = capacity.numerator * (den // common)  # over lcm(den, its den)
        if common != capacity.denominator:
            grow = capacity.denominator // common
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
    offered: set[str] = set()
    for offer in offers:
        if offer.plant_id in offered:
            raise ValueError(f"two offers for plant {offer.plant_id!r}")
        offered.add(offer.plant_id)
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


def _product_sum(pairs: Iterable[tuple[Fraction | int, Fraction]]) -> Fraction:
    """The exact sum of x·y over the pairs: numerator products are added as
    ints per product of denominators, and those sums by `exact_sum`."""
    groups: dict[int, int] = {}
    for x, y in pairs:
        d = x.denominator * y.denominator
        groups[d] = groups.get(d, 0) + x.numerator * y.numerator
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
