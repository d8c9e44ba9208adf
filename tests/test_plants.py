import random
from fractions import Fraction

import pytest

from flexmarket.plants import (
    PlantIdError, PowerPlant, StartUpTime, flexibilities_for, flexibility, validate_measure,
)


def plant(pid="p", hours="1", mc=10, cap=5):
    return PowerPlant(pid, StartUpTime(hours), Fraction(mc), Fraction(cap))


def phi_of(p):
    return flexibilities_for([p])[p.id]


class TestPowerPlant:
    def test_negative_marginal_cost_rejected(self):
        with pytest.raises(ValueError):
            plant(mc=-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            plant(cap=0)

    @pytest.mark.parametrize("pid", ["A&B <1>", "gas 2", "Kraftwerk Süd", "<'>"])
    def test_printable_ids_accepted(self, pid):
        assert plant(pid).id == pid

    @pytest.mark.parametrize("pid", ["a,b", 'a"b', "a|b", "a\nb", "a\tb", "a\x00",
                                     "w\ud800", "\u2028"])
    def test_id_no_report_can_write_rejected(self, pid):
        with pytest.raises(PlantIdError, match="plant id must be printable, without"):
            plant(pid)

    @pytest.mark.parametrize("pid", ["", 7, None])
    def test_id_that_is_no_string_keeps_its_message(self, pid):
        with pytest.raises(PlantIdError, match=f"non-empty string, got {pid!r}$"):
            plant(pid)

    @pytest.mark.parametrize("pid, hours", [("x", 2), ("y", None), ("z", Fraction(2))])
    def test_start_up_time_that_is_no_start_up_time_rejected(self, pid, hours):
        with pytest.raises(ValueError, match=f"^{pid}: start_up_time must be a StartUpTime"):
            PowerPlant(pid, hours, 10, 5)


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
        # scores carry no range check of their own: the measure passes
        # validate_measure, whose range rule keeps them in [0, 1]
        hours = ("0", "0.01", "1", "50", "1000")
        plants = [plant(f"p{i}", h) for i, h in enumerate(hours)] + [plant("w", None)]
        assert validate_measure(flexibility, [p.start_up_time for p in plants[:-1]]) == ()
        assert all(0 <= phi <= 1 for phi in flexibilities_for(plants).values())

    def test_order_independent(self):
        plants = [plant(f"p{i}", i) for i in range(8)]
        shuffled = plants[:]
        random.Random(7).shuffle(shuffled)
        assert flexibilities_for(plants) == flexibilities_for(shuffled)

    def test_half_threshold_equals_one_hour(self):
        # phi > 1/2 iff start-up < 1 h.
        for h in ("0", "0.5", "0.999"):
            assert flexibility(StartUpTime(h)) > Fraction(1, 2)
        for h in ("1", "1.001", "50"):
            assert not flexibility(StartUpTime(h)) > Fraction(1, 2)
