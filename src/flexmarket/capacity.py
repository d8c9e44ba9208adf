"""Capacity-mechanism eligibility, reserve rule and reliability payments.

Plants whose flexibility score exceeds a threshold (default 1/2) may serve
as capacity reserve. The fee pool C_f is split among the pool in proportion
to phi_i * P_i, so the payments sum back to C_f. `capacity` and every sweep
point take the reserve and the depletion paradox from the rule here."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import Collection, Container, Iterable, NamedTuple, Sequence

from ._numeric import Rows, Validated, coarse_runs, first_duplicate, frac, ratio_sum, sort_runs
from .plants import Pair, PlantTable, PowerPlant, tie_key
from .scenario import CapacityConfig

__all__ = ["UnallocatableFeeError", "CapacityConfig", "CapacityPool", "CapacitySettlement",
           "Members", "eligible_plants", "reserve_candidates", "reserve_members", "build_pool",
           "is_paradox", "settle"]


class UnallocatableFeeError(ValueError):
    """A positive fee pool with no reserve plant to receive it: the
    depletion paradox (`is_paradox`)."""


class Members(Rows):
    """Reserve members as columns: ids, and phi and capacity (MW) as int
    pairs. Its rows are (plant_id, phi, capacity_mw) triples of Fractions."""

    __slots__ = ("ids", "phis", "capacities")
    COLUMNS = __slots__

    def weights(self) -> list[Pair]:  # each member's phi·P
        return [(pn * cn, pd * cd) for (pn, pd), (cn, cd) in zip(self.phis, self.capacities)]


class _CapacityPoolFields(NamedTuple):
    participants: Members
    eligibility_threshold: Fraction


class CapacityPool(Validated, _CapacityPoolFields):
    """Reserve participants as (plant_id, phi, capacity_mw) triples, one per
    id and each phi in (threshold, 1], kept as `Members`."""

    __slots__ = ()

    def __new__(cls, participants: Iterable[tuple[str, Fraction, Fraction]],
                eligibility_threshold: Fraction = Fraction(1, 2)) -> CapacityPool:
        eligibility_threshold = frac(eligibility_threshold)
        if not 0 < eligibility_threshold < 1:  # so every phi, and P_flex, is > 0
            raise ValueError("eligibility_threshold: must lie in (0, 1)")
        members = Members.of(participants)
        tn, td = eligibility_threshold.as_integer_ratio()
        for pid, (n, d), (cap, _) in zip(members.ids, members.phis, members.capacities):
            if n * td <= tn * d:  # phi <= threshold, on ints
                raise ValueError(f"{pid}: phi = {Fraction(n, d)} does not exceed threshold "
                                 f"{eligibility_threshold}")
            if n > d:  # no measure scores above 1, and settle would overpay it
                raise ValueError(f"{pid}: phi = {Fraction(n, d)} exceeds 1")
            if cap <= 0:
                raise ValueError(f"{pid}: capacity must be > 0")
        repeated = first_duplicate(members.ids)
        if repeated is not None:
            raise ValueError(f"{repeated}: listed twice in the pool")
        return super().__new__(cls, members, eligibility_threshold)

    @property
    def p_flex(self) -> Fraction:
        """Flexibility-weighted total capacity, sum of phi_j * P_j."""
        return Fraction(*ratio_sum(self.participants.weights()))


class CapacitySettlement:
    """Reliability payments rho_i = w_i·s in payment order: each member's
    weight w_i = phi_i·P_i and the one share s = C_f/P_flex, as int pairs.
    `payments`, a dict of Fractions, is built when read."""

    def __init__(self, ids: list[str], weights: list[Pair], share: Pair,
                 source_fee_cf: Fraction) -> None:
        self.ids, self.weights, self.share, self.source_fee_cf = ids, weights, share, source_fee_cf

    @cached_property
    def payments(self) -> dict[str, Fraction]:
        sn, sd = self.share
        return {pid: Fraction(wn * sn, wd * sd) for pid, (wn, wd) in zip(self.ids, self.weights)}


def eligible_plants(plants: Iterable[PowerPlant],
                    config: CapacityConfig = CapacityConfig()) -> list[str]:
    """Plant ids with phi strictly above the config's threshold, by
    descending phi, then id. Scores are compared and sorted on their ints."""
    return reserve_candidates(plants, config._replace(participants=None)).ids


def reserve_candidates(plants: Sequence[PowerPlant], config: CapacityConfig) -> Members:
    """The plants that may join the reserve, chosen once per scenario, as
    unchecked members with their own scores: the eligible ones (auto), in
    `tie_key` order, or the explicit list, whose ids must be known. Each id
    is one plant here, so no id comes twice."""
    table = PlantTable.of(plants)
    phis, ids, position = table.phis, table.ids, dict(zip(table.ids, count()))
    if config.participants is None:
        tn, td = config.threshold.as_integer_ratio()
        above = {p for p in set(phis) if p[0] * td > tn * p[1]}  # each distinct score once
        key = tie_key(above)
        picked = sorted((i for i in position.values() if phis[i] in above),
                        key=lambda i: key(phis[i], ids[i]))
    else:
        for pid in config.participants:
            if pid not in position:
                raise ValueError(f"unknown plant id {pid!r}")
        picked = [position[pid] for pid in config.participants]
    return Members([ids[i] for i in picked], [phis[i] for i in picked],
                   [table.capacities[i] for i in picked])


def reserve_members(candidates: Iterable[tuple[str, Fraction, Fraction]],
                    config: CapacityConfig, dispatched: Container[str]) -> Members:
    """The reserve once `dispatched` clear on the spot market, decided once
    per dispatched set: the auto rule drops them, and an explicit list stays
    whole but may not include them unless `allow_overlap` is set."""
    candidates = Members.of(candidates)
    if config.participants is None:
        return candidates.take(i for i, pid in enumerate(candidates.ids)
                               if pid not in dispatched)
    for pid in candidates.ids:
        if pid in dispatched and not config.allow_overlap:
            raise ValueError(f"{pid} is dispatched on the spot market and cannot join "
                             "the reserve pool (use allow_overlap to override)")
    return candidates


def build_pool(plants: Sequence[PowerPlant], config: CapacityConfig = CapacityConfig(),
               dispatched: Iterable[str] = ()) -> CapacityPool:
    """The reserve pool, each member with its own score: `reserve_candidates`,
    then `reserve_members`, then one `CapacityPool`, which checks each member
    once."""
    candidates = reserve_candidates(plants, config)
    return CapacityPool(reserve_members(candidates, config, set(dispatched)), config.threshold)


def is_paradox(reserve: Collection[object], cf: Fraction) -> bool:
    """The depletion paradox, on which `settle` raises: C_f > 0, empty reserve."""
    return not reserve and cf > 0


def settle(pool: CapacityPool, cf: Fraction) -> CapacitySettlement:
    """Reliability payments rho_i = phi_i * P_i / P_flex * C_f (EUR/h), largest
    first, then by id. Each payment is its weight phi_i * P_i times one shared
    factor, so the weights, compared on their own ints, give that order."""
    cf = frac(cf)
    if cf < 0:
        raise ValueError("fee pool C_f must be >= 0")
    members = pool.participants
    if is_paradox(members, cf):
        raise UnallocatableFeeError(f"fee pool of {cf} EUR/h but no reserve plant to receive it")
    ids, weights = members.ids, members.weights()
    if cf == 0:  # every payment is 0
        order, share = sorted(range(len(ids)), key=ids.__getitem__), (0, 1)
    else:
        share = (cf / Fraction(*ratio_sum(weights))).as_integer_ratio()  # C_f per phi·P
        pairs = [(-n, d) for n, d in weights]  # ascending: largest first
        order = sort_runs(*coarse_runs(pairs), pairs, ids.__getitem__)
    return CapacitySettlement([ids[i] for i in order], [weights[i] for i in order], share, cf)
