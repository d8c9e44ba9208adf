"""Capacity-mechanism eligibility and reliability-payment settlement.

Plants whose flexibility score exceeds a threshold (default 1/2) may serve
as capacity reserve. The fee pool C_f collected on the spot market is split
among pool participants in proportion to phi_i * P_i, so the payments sum
back to C_f by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._numeric import frac, sorted_exact
from .plants import PowerPlant

__all__ = [
    "UnallocatableFeeError",
    "CapacityPool",
    "CapacitySettlement",
    "eligible_plants",
    "build_pool",
    "settle",
]


class UnallocatableFeeError(ValueError):
    """Raised when a positive fee pool has no reserve plant to receive it.

    This is the depletion paradox: every eligible flexible plant is already
    dispatched on the spot market.
    """


@dataclass(frozen=True)
class CapacityPool:
    """Reserve participants as (plant_id, phi, capacity_mw) triples."""

    participants: tuple[tuple[str, Fraction, Fraction], ...]
    eligibility_threshold: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for pid, phi, cap in self.participants:
            if pid in seen:
                raise ValueError(f"{pid}: listed twice in the reserve pool")
            seen.add(pid)
            if not phi > self.eligibility_threshold:
                raise ValueError(
                    f"{pid}: phi = {phi} does not exceed threshold "
                    f"{self.eligibility_threshold}"
                )
            if cap <= 0:
                raise ValueError(f"{pid}: capacity must be > 0")

    @property
    def p_flex(self) -> Fraction:
        """Flexibility-weighted total capacity, sum of phi_j * P_j."""
        return sum((phi * cap for _, phi, cap in self.participants), Fraction(0))


@dataclass(frozen=True)
class CapacitySettlement:
    payments: dict[str, Fraction]
    source_fee_cf: Fraction


def eligible_plants(
    plants: Sequence[PowerPlant],
    phi: Mapping[str, Fraction],
    threshold: Fraction = Fraction(1, 2),
) -> list[str]:
    """Plant ids with phi strictly above the threshold, by descending phi."""
    threshold = frac(threshold)
    if not (0 < threshold < 1):
        raise ValueError("threshold must lie in (0, 1)")
    chosen = [p.id for p in plants if phi[p.id] > threshold]
    return sorted_exact(chosen, lambda pid: -phi[pid], lambda pid: pid)


def build_pool(
    plants: Sequence[PowerPlant],
    phi: Mapping[str, Fraction],
    *,
    threshold: Fraction = Fraction(1, 2),
    participants: Sequence[str] | None = None,
    dispatched: Iterable[str] = (),
    allow_overlap: bool = False,
) -> CapacityPool:
    """Assemble the reserve pool.

    With `participants=None` the pool is the auto rule: eligible and not
    dispatched on the spot market. An explicit participant list is checked
    for eligibility, and for disjointness from the dispatched set unless
    `allow_overlap` is set.
    """
    by_id = {p.id: p for p in plants}
    dispatched = set(dispatched)
    if participants is None:
        ids = [
            pid
            for pid in eligible_plants(plants, phi, threshold)
            if pid not in dispatched
        ]
    else:
        ids = list(participants)
        for pid in ids:
            if pid not in by_id:
                raise ValueError(f"unknown participant {pid!r}")
            if not allow_overlap and pid in dispatched:
                raise ValueError(
                    f"{pid} is dispatched on the spot market and cannot join "
                    "the reserve pool (use allow_overlap to override)"
                )
    return CapacityPool(
        tuple((pid, phi[pid], by_id[pid].capacity) for pid in ids),
        eligibility_threshold=frac(threshold),
    )


def settle(pool: CapacityPool, cf: Fraction) -> CapacitySettlement:
    """Reliability payments rho_i = phi_i * P_i / P_flex * C_f (EUR/h)."""
    cf = frac(cf)
    if cf < 0:
        raise ValueError("fee pool C_f must be >= 0")
    if not pool.participants:
        if cf > 0:
            raise UnallocatableFeeError(
                f"fee pool of {cf} EUR/h but no reserve plant to receive it"
            )
        return CapacitySettlement({}, cf)
    p_flex = pool.p_flex
    payments = {
        pid: phi * cap / p_flex * cf for pid, phi, cap in pool.participants
    }
    return CapacitySettlement(payments, cf)
