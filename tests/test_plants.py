import random
from fractions import Fraction

import pytest

from flexmarket.flexibility import (
    BUILTIN_MEASURES,
    StartUpTime,
    hyperbolic_measure,
    validate_measure,
)
from flexmarket.plants import PowerPlant, flexibilities_for


def plant(pid="p", hours="1", mc=10, cap=5):
    sut = StartUpTime.unbounded() if hours is None else StartUpTime.of(hours)
    return PowerPlant(pid, sut, Fraction(mc), Fraction(cap))


def phi_of(p):
    return flexibilities_for([p], hyperbolic_measure())[p.id]


class TestPowerPlant:
    def test_negative_marginal_cost_rejected(self):
        with pytest.raises(ValueError):
            plant(mc=-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            plant(cap=0)


class TestFlexibilityOf:
    def test_ccgt(self):
        phi = phi_of(plant("ccgt", 5))
        assert phi == Fraction(1, 6)
        assert abs(phi - Fraction("0.1667")) < Fraction("0.0001")

    def test_lignite(self):
        assert phi_of(plant("lignite", 9)) == Fraction(1, 10)

    def test_wind_unbounded(self):
        assert phi_of(plant("wind", None)) == 0

    def test_phi_range_enforced(self):
        # scores carry no range check of their own: every built-in measure
        # passes validate_measure, whose range rule keeps them in [0, 1]
        hours = ("0", "0.01", "1", "50", "1000")
        plants = [plant(f"p{i}", h) for i, h in enumerate(hours)] + [plant("w", None)]
        for make in BUILTIN_MEASURES.values():
            assert validate_measure(make(), [p.start_up_time for p in plants[:-1]]).is_valid
            assert all(0 <= phi <= 1 for phi in flexibilities_for(plants, make()).values())

    def test_order_independent(self):
        plants = [plant(f"p{i}", i) for i in range(8)]
        shuffled = plants[:]
        random.Random(7).shuffle(shuffled)
        assert flexibilities_for(plants, hyperbolic_measure()) == flexibilities_for(
            shuffled, hyperbolic_measure()
        )

    def test_half_threshold_equals_one_hour(self):
        # For the hyperbolic measure only: phi > 1/2 iff start-up < 1 h.
        m = hyperbolic_measure()
        for h in ("0", "0.5", "0.999"):
            assert m(StartUpTime.of(h)) > Fraction(1, 2)
        for h in ("1", "1.001", "50"):
            assert not m(StartUpTime.of(h)) > Fraction(1, 2)
