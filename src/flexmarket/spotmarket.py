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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from ._numeric import exact_sum, frac, round_half_away, sorted_exact
from .plants import PowerPlant

__all__ = [
    "MarketConfig",
    "Offer",
    "Profit",
    "ClearingResult",
    "make_offers",
    "merit_order",
    "clear",
    "total_fee",
    "market_wide_fee_intensity",
]


@dataclass(frozen=True)
class MarketConfig:
    """Reference price p0 (EUR/MWh), demand (MW), period (h)."""

    reference_price_p0: Fraction
    demand: Fraction
    period: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reference_price_p0", frac(self.reference_price_p0))
        object.__setattr__(self, "demand", frac(self.demand))
        object.__setattr__(self, "period", frac(self.period))
        if self.reference_price_p0.numerator < 0:
            raise ValueError("reference price p0 must be >= 0")
        if self.demand.numerator < 0:
            raise ValueError("demand must be >= 0")
        if self.period.numerator <= 0:
            raise ValueError("period must be > 0")


@dataclass(frozen=True)
class Offer:
    """A sell bid of the plant's capacity (MW) at offer_price =
    marginal_cost + fee_rate, exactly."""

    plant_id: str
    offer_price: Fraction
    fee_rate: Fraction
    phi: Fraction
    capacity: Fraction


@dataclass(frozen=True)
class Profit:
    """Per-plant profit margin (EUR/MWh): the clearing price less the offer."""

    margin: Fraction


@dataclass(frozen=True)
class ClearingResult:
    clearing_price: Fraction
    dispatch: dict[str, Fraction]
    profits: dict[str, Profit]
    fee_ledger: dict[str, Fraction]
    total_fee_cf: Fraction
    consumed_energy: Fraction
    blackout: bool
    offers: tuple[Offer, ...] = ()  # in merit order

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


def merit_order(offers: Sequence[Offer]) -> list[Offer]:
    """Ascending by offer price; ties broken by higher phi, then plant id."""
    if not offers:
        raise ValueError("offer list must not be empty")
    # equal scores share one -phi object: tuples compare identical items as
    # equal without calling Fraction.__eq__, which equal offers would do often
    neg_phi: dict[tuple[int, int], Fraction] = {}

    def tiebreak(offer: Offer) -> tuple[Fraction, str]:
        key = (offer.phi.numerator, offer.phi.denominator)
        if key not in neg_phi:
            neg_phi[key] = -offer.phi
        return neg_phi[key], offer.plant_id

    return sorted_exact(offers, lambda o: o.offer_price, tiebreak)


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


def clear(
    offers: Sequence[Offer],
    plants: Sequence[PowerPlant],
    config: MarketConfig,
) -> ClearingResult:
    """Uniform-price clearing of inelastic demand against the merit order.

    The marginal (last dispatched) plant sets the clearing price and may be
    partially dispatched; its fee is pro-rata on dispatched MW. Demand above
    total capacity is a blackout outcome (flag set, full dispatch at the
    highest offer), not an error, so reference-price sweeps can continue.
    """
    known = {p.id for p in plants}
    offered: set[str] = set()
    for offer in offers:
        if offer.plant_id not in known:
            raise ValueError(f"offer references unknown plant {offer.plant_id!r}")
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

    fee_ledger = {}
    profits = {}
    for offer in stack[:count]:
        fee_ledger[offer.plant_id] = offer.fee_rate * dispatch[offer.plant_id]
        profits[offer.plant_id] = Profit(margin=clearing_price - offer.offer_price)
    return ClearingResult(
        clearing_price=clearing_price,
        dispatch=dispatch,
        profits=profits,
        fee_ledger=fee_ledger,
        total_fee_cf=exact_sum(fee_ledger.values()),
        consumed_energy=demand * config.period,
        blackout=rest > 0,
        offers=tuple(stack),
    )


def total_fee(result: ClearingResult, mode: str = "exact") -> Fraction:
    """The fee pool C_f in EUR/h.

    `exact` sums the full-precision ledger. `paper-rounded` rounds each
    per-plant fee rate to integer EUR/MWh before multiplying by dispatched
    MW; it is a reporting convention only and never affects clearing.
    """
    if mode == "exact":
        return result.total_fee_cf
    if mode == "paper-rounded":
        rate = {o.plant_id: o.fee_rate for o in result.offers}
        return exact_sum(
            round_half_away(rate[pid]) * mw for pid, mw in result.dispatch.items()
        )
    raise ValueError(f"unknown fee mode {mode!r}")


def market_wide_fee_intensity(offers: Sequence[Offer]) -> Fraction:
    """Sum of fee rates over all offering plants (EUR/MWh), dispatch-independent."""
    return exact_sum(o.fee_rate for o in offers)
