"""Capacity-mechanism eligibility, reserve rule and reliability payments.

Plants whose flexibility score exceeds a threshold (default 1/2) may serve
as capacity reserve. The fee pool C_f collected on the spot market is split
among pool participants in proportion to phi_i * P_i, so the payments sum
back to C_f by construction. `capacity` and every sweep point take the
reserve and the depletion paradox from the rule here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Container, Iterable, Mapping, NamedTuple, Sequence

from ._numeric import Validated, coarse_runs, exact_sum, first_duplicate, frac, sort_runs
from .plants import PowerPlant
from .scenario import CapacityConfig

__all__ = [
    "UnallocatableFeeError", "CapacityConfig", "CapacityPool", "CapacitySettlement",
    "eligible_plants", "reserve_candidates", "reserve_members", "build_pool",
    "is_paradox", "settle",
]


class UnallocatableFeeError(ValueError):
    """A positive fee pool with no reserve plant to receive it: the
    depletion paradox (`is_paradox`)."""


class _CapacityPoolFields(NamedTuple):
    participants: tuple[tuple[str, Fraction, Fraction], ...]
    eligibility_threshold: Fraction


class CapacityPool(Validated, _CapacityPoolFields):
    """Reserve participants as (plant_id, phi, capacity_mw) triples, one per id."""

    __slots__ = ()

    def __new__(cls, participants: tuple[tuple[str, Fraction, Fraction], ...],
                eligibility_threshold: Fraction = Fraction(1, 2)) -> CapacityPool:
        if not 0 < eligibility_threshold < 1:  # so every phi, and P_flex, is > 0
            raise ValueError("eligibility_threshold: must lie in (0, 1)")
        tn, td = eligibility_threshold.as_integer_ratio()
        for pid, phi, cap in participants:
            n, d = phi.as_integer_ratio()
            if n * td <= tn * d:  # phi <= threshold, on ints
                raise ValueError(
                    f"{pid}: phi = {phi} does not exceed threshold "
                    f"{eligibility_threshold}"
                )
            if cap.as_integer_ratio()[0] <= 0:
                raise ValueError(f"{pid}: capacity must be > 0")
        repeated = first_duplicate(pid for pid, _, _ in participants)
        if repeated is not None:
            raise ValueError(f"{repeated}: listed twice in the pool")
        return super().__new__(cls, participants, eligibility_threshold)

    @property
    def p_flex(self) -> Fraction:
        """Flexibility-weighted total capacity, sum of phi_j * P_j."""
        return exact_sum(phi * cap for _, phi, cap in self.participants)


class CapacitySettlement(NamedTuple):
    payments: dict[str, Fraction]
    source_fee_cf: Fraction


def eligible_plants(
    plants: Iterable[PowerPlant],
    phi: Mapping[str, Fraction],
    config: CapacityConfig = CapacityConfig(),
) -> list[str]:
    """Plant ids with phi strictly above the config's threshold, by
    descending phi, then id. Scores are compared and sorted on their ints."""
    tn, td = config.threshold.as_integer_ratio()
    ids, pairs = [], []  # pairs: -phi, so that ascending is by descending phi
    for p in plants:
        n, d = phi[p.id].as_integer_ratio()
        if n * td > tn * d:
            ids.append(p.id)
            pairs.append((-n, d))
    return [ids[i] for i in sort_runs(*coarse_runs(pairs), pairs, ids.__getitem__)]


def reserve_candidates(
    plants: Sequence[PowerPlant], phi: Mapping[str, Fraction], config: CapacityConfig
) -> tuple[tuple[str, Fraction, Fraction], ...]:
    """The plants that may join the reserve, chosen once per scenario, as
    unchecked (plant_id, phi, capacity_mw) triples: the eligible ones (auto),
    or the explicit list, whose ids must be known. For an explicit list,
    `phi` needs only the listed plants' scores. Each id is one plant here,
    so no id comes twice."""
    by_id = {p.id: p for p in plants}
    ids = config.participants
    if ids is None:
        ids = eligible_plants(by_id.values(), phi, config)
    for pid in ids:
        if pid not in by_id:
            raise ValueError(f"unknown plant id {pid!r}")
    return tuple((pid, phi[pid], by_id[pid].capacity) for pid in ids)


def reserve_members(
    candidates: tuple[tuple[str, Fraction, Fraction], ...], config: CapacityConfig,
    dispatched: Container[str],
) -> tuple[tuple[str, Fraction, Fraction], ...]:
    """The reserve once `dispatched` clear on the spot market, decided once
    per dispatched set: the auto rule drops them, and an explicit list stays
    whole but may not include them unless `allow_overlap` is set."""
    if config.participants is None:
        return tuple(m for m in candidates if m[0] not in dispatched)
    for pid, _, _ in candidates:
        if pid in dispatched and not config.allow_overlap:
            raise ValueError(
                f"{pid} is dispatched on the spot market and cannot join "
                "the reserve pool (use allow_overlap to override)"
            )
    return candidates


def build_pool(
    plants: Sequence[PowerPlant],
    phi: Mapping[str, Fraction],
    config: CapacityConfig = CapacityConfig(),
    dispatched: Iterable[str] = (),
) -> CapacityPool:
    """The reserve pool: `reserve_candidates`, then `reserve_members`, then
    one `CapacityPool`, which checks each member once."""
    members = reserve_members(reserve_candidates(plants, phi, config), config,
                              set(dispatched))
    return CapacityPool(members, config.threshold)


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
    if is_paradox(pool.participants, cf):
        raise UnallocatableFeeError(
            f"fee pool of {cf} EUR/h but no reserve plant to receive it"
        )
    members = pool.participants
    if cf == 0:  # every payment is 0
        return CapacitySettlement(dict.fromkeys(sorted(m[0] for m in members), Fraction(0)), cf)
    share = cf / pool.p_flex  # C_f per unit of phi·P
    weights = [phi * cap for _, phi, cap in members]
    pairs = [(-w.numerator, w.denominator) for w in weights]  # ascending: largest first
    order = sort_runs(*coarse_runs(pairs), pairs, lambda i: members[i][0])
    return CapacitySettlement({members[i][0]: weights[i] * share for i in order}, cf)
