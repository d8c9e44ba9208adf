from fractions import Fraction

import pytest

from flexmarket.plants import StartUpTime, flexibility, validate_measure


def grid(*hours):
    return [StartUpTime(h) for h in hours]


def of_hours(score):
    """A measure over finite start-up hours, as a function of StartUpTime."""
    return lambda t: score(t.hours)


class TestStartUpTime:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StartUpTime(-1)

    def test_unbounded_is_distinct(self):
        t = StartUpTime(None)
        assert t.hours is None
        assert t != StartUpTime(10**9)


class TestHyperbolicMeasure:
    def test_zero_start_up_scores_one(self):
        assert flexibility(StartUpTime(0)) == 1

    def test_gas_turbine_score(self):
        # 1 / 1.12 = 0.8929, so score, not 1 - score: check the fee side too
        assert abs(flexibility(StartUpTime("0.12")) - Fraction("0.893")) < Fraction("0.0005")

    def test_nuclear_score(self):
        assert abs(flexibility(StartUpTime(50)) - Fraction("0.020")) < Fraction("0.0005")

    def test_unbounded_scores_exactly_zero(self):
        assert flexibility(StartUpTime(None)) == 0

    def test_hydro_score_is_exact_not_table_rounding(self):
        # 1 / 1.02 = 50/51 = 0.98039...; the displayed .979 is a typo and
        # the exact rational is carried instead.
        assert flexibility(StartUpTime("0.02")) == Fraction(50, 51)

    def test_identity_product(self):
        for h in ("0", "0.02", "0.17", "5", "50", "1000"):
            t = StartUpTime(h)
            assert flexibility(t) * (t.hours + 1) == 1


class TestValidateMeasure:
    def test_hyperbolic_is_valid(self):
        assert validate_measure(flexibility, grid("0.01", "0.1", 1, 10, 100)) == ()

    def test_constant_measure_fails_monotonicity(self):
        constant = of_hours(lambda x: Fraction(1, 2))
        violations = validate_measure(constant, grid("0.01", "0.1", 1, 10, 100))
        assert any("monotonicity" in v for v in violations)

    def test_scaled_hyperbolic_fails_range(self):
        # 1.5 / 1.01 = 1.485 > 1
        scaled = of_hours(lambda x: Fraction(3, 2) / (x + 1))
        violations = validate_measure(scaled, grid("0.01", "0.1", 1, 10, 100))
        assert any("range" in v and "0.01" in v.replace("1/100", "0.01") for v in violations)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_measure(flexibility, [])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_measure(flexibility, grid(1, 1))

    def test_slowly_decaying_measure_fails_upper_limit(self):
        # decays too slowly: score(1000) = 1/sqrt-ish stays above 0.01
        slow = of_hours(lambda x: Fraction(1) / (Fraction(x) / 100 + 1))
        violations = validate_measure(slow, grid(1, 10, 100))
        assert any("should approach 0" in v for v in violations)
