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
from typing import Mapping, Sequence

from ._numeric import frac, round_half_away, sorted_exact
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
        if self.reference_price_p0 < 0:
            raise ValueError("reference price p0 must be >= 0")
        if self.demand < 0:
            raise ValueError("demand must be >= 0")
        if self.period <= 0:
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
    """Per-plant profit: margin (EUR/MWh) and absolute rate (EUR/h)."""

    margin: Fraction
    per_hour: Fraction


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
        return sum((o.capacity for o in self.offers), Fraction(0))


def make_offers(
    plants: Sequence[PowerPlant],
    phi: Mapping[str, Fraction],
    config: MarketConfig,
) -> list[Offer]:
    """One offer per plant at full precision."""
    offers = []
    for plant in plants:
        if plant.id not in phi:
            raise ValueError(f"no flexibility score for plant {plant.id!r}")
        fee_rate = (1 - phi[plant.id]) * config.reference_price_p0
        offers.append(Offer(plant.id, plant.marginal_cost + fee_rate, fee_rate,
                            phi[plant.id], plant.capacity))
    return offers


def merit_order(offers: Sequence[Offer]) -> list[Offer]:
    """Ascending by offer price; ties broken by higher phi, then plant id."""
    if not offers:
        raise ValueError("offer list must not be empty")
    return sorted_exact(
        offers, lambda o: o.offer_price, lambda o: (-o.phi, o.plant_id)
    )


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

    # fill the merit order; demand beyond every plant's capacity leaves a
    # remainder, a blackout with everyone dispatched at the highest offer
    stack = merit_order(offers) if offers else []
    dispatch: dict[str, Fraction] = {}
    remaining = demand
    clearing_price = Fraction(0)
    for offer in stack:
        if remaining == 0:
            break
        mw = min(offer.capacity, remaining)
        dispatch[offer.plant_id] = mw
        remaining -= mw
        clearing_price = offer.offer_price

    price_of = {o.plant_id: o for o in stack}
    fee_ledger = {pid: price_of[pid].fee_rate * mw for pid, mw in dispatch.items()}
    profits = {
        pid: Profit(
            margin=clearing_price - price_of[pid].offer_price,
            per_hour=(clearing_price - price_of[pid].offer_price) * mw,
        )
        for pid, mw in dispatch.items()
    }
    return ClearingResult(
        clearing_price=clearing_price,
        dispatch=dispatch,
        profits=profits,
        fee_ledger=fee_ledger,
        total_fee_cf=sum(fee_ledger.values(), Fraction(0)),
        consumed_energy=demand * config.period,
        blackout=remaining > 0,
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
        return sum(
            (round_half_away(rate[pid]) * mw for pid, mw in result.dispatch.items()),
            Fraction(0),
        )
    raise ValueError(f"unknown fee mode {mode!r}")


def market_wide_fee_intensity(offers: Sequence[Offer]) -> Fraction:
    """Sum of fee rates over all offering plants (EUR/MWh), dispatch-independent."""
    return sum((o.fee_rate for o in offers), Fraction(0))
