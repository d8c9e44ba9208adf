"""Spot-market offer pricing, merit order, uniform-price clearing and the
inflexibility-fee ledger.

Each plant's offer is its marginal cost plus an inflexibility fee
(1 - phi) * p0, for a market-wide reference price p0. Dispatch fills the
merit order until the inelastic demand is met; the last dispatched plant
sets the uniform clearing price. Fees on dispatched power accumulate into
the pool C_f that funds the capacity mechanism. All of it runs on columns
of int pairs; Fractions are built only for a caller who reads them."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from ._numeric import Rows, coarse_runs, first_duplicate, ratio_column, ratio_sum, sort_runs
from .plants import Pair, PlantTable, PowerPlant, tie_key
from .scenario import MarketConfig, Scenario

__all__ = ["MarketConfig", "Offer", "OfferTable", "ClearingResult", "make_offers", "merit_order",
           "clear", "clear_scenario", "total_fee", "market_wide_fee_intensity"]


class Offer(NamedTuple):
    """A sell bid of the plant's capacity (MW) at offer_price =
    marginal_cost + fee_rate, exactly."""

    plant_id: str
    offer_price: Fraction
    fee_rate: Fraction
    phi: Fraction
    capacity: Fraction


class OfferTable(Rows):
    """Offers as columns of ids and int pairs (an offer price's pair need not
    be reduced). Its rows are Offers."""

    __slots__ = ("ids", "prices", "fees", "phis", "capacities")
    COLUMNS, ROW = __slots__, Offer


class ClearingResult:
    """One clearing: the offers in merit order (`stack`), of which the first
    len(mw) are dispatched at the MW pairs `mw` (in full but for the
    marginal one). The per-plant fields are built when read."""

    def __init__(self, stack: OfferTable, mw: list[Pair], total_fee_cf: Pair,
                 consumed_energy: Fraction, blackout: bool) -> None:
        self.stack, self.mw, self.blackout = stack, mw, blackout
        self.clearing_price = Fraction(*stack.prices[len(mw) - 1]) if mw else Fraction(0)
        self.total_fee_cf, self.consumed_energy = Fraction(*total_fee_cf), consumed_energy

    @cached_property
    def offers(self) -> tuple[Offer, ...]:
        return self.stack.rows

    @cached_property
    def dispatch(self) -> dict[str, Fraction]:
        """Each dispatched plant's MW, in merit order."""
        return {pid: Fraction(*mw) for pid, mw in zip(self.stack.ids, self.mw)}

    @cached_property
    def fee_ledger(self) -> dict[str, Fraction]:
        """Each dispatched plant's fee (EUR/h): its fee rate times its MW."""
        return {o.plant_id: o.fee_rate * mw for o, mw in zip(self.offers, self.dispatch.values())}

    @cached_property
    def profits(self) -> dict[str, Fraction]:
        """Each dispatched plant's margin (EUR/MWh): clearing price less offer."""
        price = self.clearing_price
        return {o.plant_id: price - o.offer_price for o in self.offers[:len(self.mw)]}

    @property
    def merit_order(self) -> tuple[str, ...]:
        return tuple(self.stack.ids)

    @property
    def dispatched(self) -> list[str]:
        return self.stack.ids[:len(self.mw)]

    @property
    def total_capacity(self) -> Fraction:
        return Fraction(*ratio_sum(self.stack.capacities))


def make_offers(plants: Sequence[PowerPlant], config: MarketConfig) -> OfferTable:
    """One offer per plant at full precision, on int pairs: the fee rate
    (1 - phi)·p0 once per distinct phi, each plant's own score, and the
    offer price mc + fee rate, unreduced."""
    table = PlantTable.of(plants)
    phis = table.phis
    a, b = config.reference_price_p0.as_integer_ratio()
    rate = {}
    for n, d in set(phis):
        g = gcd((d - n) * a, d * b)
        rate[n, d] = (d - n) * a // g, d * b // g
    fees = list(map(rate.__getitem__, phis))
    prices = [(mn * fd + fn * md, md * fd) for (mn, md), (fn, fd) in zip(table.costs, fees)]
    return OfferTable(table.ids, prices, fees, phis, table.capacities)


def merit_order(offers: Sequence[Offer]) -> OfferTable:
    """Ascending by offer price; ties broken by higher phi, then plant id. phi
    is ranked only in the runs of `coarse_runs`, the only offers that can tie."""
    if not offers:
        raise ValueError("offer list must not be empty")
    table = OfferTable.of(offers)
    pairs, phis, ids = table.prices, table.phis, table.ids
    order, runs = coarse_runs(pairs)
    tied = [i for part in runs for i in order[part]]
    key = tie_key(phis[i] for i in tied)
    ties = {i: key(phis[i], ids[i]) for i in tied}
    return table.take(sort_runs(order, runs, pairs, ties.__getitem__))


def _fill(capacities: Iterable[Pair], demand: Pair) -> tuple[int, int, int]:
    """Fill demand (MW) from capacities taken in merit order, all as pairs:
    the first `count` of (count, rest, den) are dispatched. A positive
    rest/den is demand left unmet (a blackout); a negative one the MW the
    marginal plant leaves unused. den grows only over the capacities visited."""
    count = 0
    rest, den = demand
    for n, d in capacities:
        if rest <= 0:
            break
        if d != den:
            common = gcd(den, d)
            n *= den // common  # over lcm(den, d)
            if common != d:
                grow = d // common
                rest *= grow
                den *= grow
        rest -= n
        count += 1
    return count, rest, den


def clear(offers: Sequence[Offer], config: MarketConfig) -> ClearingResult:
    """Uniform-price clearing of inelastic demand against the merit order.
    The marginal (last dispatched) plant sets the clearing price and may be
    partially dispatched; its fee is pro-rata on dispatched MW. Demand above
    total capacity is a blackout (flag set, full dispatch at the highest
    offer), not an error. C_f is summed on ints per product of denominators."""
    table = OfferTable.of(offers)
    ids = table.ids
    if len(set(ids)) < len(ids):
        raise ValueError(f"two offers for plant {first_duplicate(ids)!r}")
    demand = config.demand
    stack = merit_order(table) if ids else table
    count, rest, den = _fill(stack.capacities, demand.as_integer_ratio())
    mw = stack.capacities[:count]
    if rest < 0:  # partly dispatched: den is a multiple of its denominator
        n, d = mw[-1]
        mw[-1] = n * (den // d) + rest, den
    cf = ratio_sum((fn * n, fd * d) for (fn, fd), (n, d) in zip(stack.fees, mw))
    return ClearingResult(stack, mw, cf, demand * config.period, rest > 0)


def clear_scenario(scenario: Scenario, p0: Fraction | None = None) -> ClearingResult:
    """Run one spot clearing of the scenario, optionally overriding p0."""
    config = scenario.market
    if p0 is not None:
        config = config._replace(reference_price_p0=p0)
    return clear(make_offers(scenario.plants, config), config)


def total_fee(result: ClearingResult, mode: str = "exact") -> Fraction:
    """The fee pool C_f in EUR/h: the full-precision ledger (`exact`), or
    with each fee rate rounded to integer EUR/MWh before it is multiplied by
    the dispatched MW (`paper-rounded`, a reporting convention only)."""
    if mode == "exact":
        return result.total_fee_cf
    if mode == "paper-rounded":
        fees = result.stack.fees[:len(result.mw)]
        rates = ratio_column([n for n, _ in fees], [d for _, d in fees], True)
        return Fraction(*ratio_sum((rate * n, d) for rate, (n, d) in zip(rates, result.mw)))
    raise ValueError(f"unknown fee mode {mode!r}")


def market_wide_fee_intensity(offers: Sequence[Offer]) -> Fraction:
    """Sum of fee rates over all offering plants (EUR/MWh), dispatch-independent."""
    return Fraction(*ratio_sum(OfferTable.of(offers).fees))
