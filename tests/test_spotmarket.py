from fractions import Fraction

import pytest

from flexmarket._numeric import ratio_number
from flexmarket.capacity import build_pool
from flexmarket.plants import PowerPlant, StartUpTime, flexibility
from flexmarket.scenario import toy_grid
from flexmarket.spotmarket import (
    MarketConfig,
    Offer,
    clear,
    clear_scenario,
    make_offers,
    market_wide_fee_intensity,
    merit_order,
    total_fee,
)


def simple_plant(pid, mc=10, cap=5, hours="1"):
    return PowerPlant(pid, StartUpTime(hours), Fraction(mc), Fraction(cap))


ORDER_P0_10 = ("hydro", "wind", "nuclear", "lignite", "chp", "ccgt", "coal", "gas")
ORDER_P0_70 = ("hydro", "chp", "wind", "nuclear", "gas", "lignite", "ccgt", "coal")


class TestMakeOffers:
    def test_wind_offer(self):
        plants = [PowerPlant("wind", StartUpTime(None), Fraction(1), Fraction(5))]
        (offer,) = make_offers(plants, MarketConfig(10, 25))
        assert offer.offer_price == 11
        assert offer.fee_rate == 10

    def test_hard_coal_offer(self):
        plants = [simple_plant("coal", mc=60, hours=6)]
        (offer,) = make_offers(plants, MarketConfig(70, 25))
        assert offer.offer_price == 120

    def test_fully_flexible_plant_pays_no_fee(self):
        plants = [simple_plant("ideal", mc=33, hours=0)]
        (offer,) = make_offers(plants, MarketConfig(1000, 25))
        assert offer.offer_price == 33
        assert offer.fee_rate == 0

    def test_nuclear_offer_displays_as_15(self):
        plants = [simple_plant("nuclear", mc=5, hours=50)]
        (offer,) = make_offers(plants, MarketConfig(10, 25))
        assert abs(offer.offer_price - Fraction("14.804")) < Fraction("0.001")
        assert round(float(offer.offer_price)) == 15

    def test_price_identity(self, toy):
        offers = make_offers(toy.plants, toy.market)
        plant = {p.id: p for p in toy.plants}
        for o in offers:
            assert o.offer_price == plant[o.plant_id].marginal_cost + o.fee_rate
            assert o.fee_rate >= 0
            assert o.phi == flexibility(plant[o.plant_id].start_up_time)
        # the reserve scores each member by its own start-up time too
        members = build_pool(toy.plants).participants
        assert [pid for pid, _, _ in members] == ["hydro", "gas", "chp"]
        for pid, phi, _ in members:
            assert phi == flexibility(plant[pid].start_up_time)


class TestMeritOrder:
    def test_toy_grid_p0_10(self):
        assert clear_scenario(toy_grid(10, 25)).merit_order == ORDER_P0_10

    def test_toy_grid_p0_70(self):
        assert clear_scenario(toy_grid(70, 25)).merit_order == ORDER_P0_70

    def test_tie_broken_by_higher_phi(self):
        a = Offer("a", Fraction(10), Fraction(0), Fraction(1, 4), Fraction(5))
        b = Offer("b", Fraction(10), Fraction(0), Fraction(3, 4), Fraction(5))
        assert [o.plant_id for o in merit_order([a, b])] == ["b", "a"]

    def test_tie_broken_by_id_when_phi_equal(self):
        a = Offer("zeta", Fraction(10), Fraction(0), Fraction(1, 2), Fraction(5))
        b = Offer("alpha", Fraction(10), Fraction(0), Fraction(1, 2), Fraction(5))
        assert [o.plant_id for o in merit_order([a, b])] == ["alpha", "zeta"]

    def test_empty_offers_rejected(self):
        with pytest.raises(ValueError):
            merit_order([])


class TestClear:
    def test_toy_grid_p0_10_profits(self):
        result = clear_scenario(toy_grid(10, 25))
        assert set(result.dispatch) == {"hydro", "wind", "nuclear", "lignite", "chp"}
        rounded = {pid: ratio_number(m.numerator, m.denominator, True)
                   for pid, m in result.profits.items()}
        assert rounded == {"wind": 40, "hydro": 50, "chp": 0, "lignite": 2, "nuclear": 37}

    def test_toy_grid_p0_70_profits(self):
        result = clear_scenario(toy_grid(70, 25))
        assert set(result.dispatch) == {"hydro", "chp", "wind", "nuclear", "gas"}
        rounded = {pid: ratio_number(m.numerator, m.denominator, True)
                   for pid, m in result.profits.items()}
        assert rounded == {"wind": 27, "hydro": 95, "chp": 37, "gas": 0, "nuclear": 24}

    def test_clearing_price_p0_10_unrounded(self):
        # marginal plant is the CHP: 50 + (17/117) * 10
        result = clear_scenario(toy_grid(10, 25))
        assert result.clearing_price == Fraction(50) + Fraction(17, 117) * 10
        assert abs(result.clearing_price - Fraction("51.45")) < Fraction("0.005")

    def test_duplicate_offer_for_one_plant_rejected(self):
        plants = [simple_plant("a", mc=10), simple_plant("b", mc=20, hours=2)]
        config = MarketConfig(10, 7)
        offers = make_offers(plants, config)
        cheaper = Offer("a", Fraction(1), Fraction(0), Fraction(1, 2), Fraction(5))
        with pytest.raises(ValueError, match="'a'"):
            clear(offers + [cheaper], config)

    def test_zero_demand(self):
        result = clear_scenario(toy_grid(10, 0))
        assert result.dispatch == {}
        assert result.clearing_price == 0
        assert result.total_fee_cf == 0
        assert not result.blackout

    def test_blackout_at_45(self):
        result = clear_scenario(toy_grid(10, 45))
        assert result.blackout
        assert result.total_capacity == 40
        assert sum(result.dispatch.values()) == 40
        # everyone runs, price set by the most expensive offer
        assert result.clearing_price == max(o.offer_price for o in result.offers)

    def test_no_blackout_at_exact_capacity(self):
        result = clear_scenario(toy_grid(10, 40))
        assert not result.blackout
        assert sum(result.dispatch.values()) == 40

    def test_marginal_plant_partially_dispatched(self):
        plants = [simple_plant("a", mc=1, cap=5, hours=0),
                  simple_plant("b", mc=2, cap=5, hours=0)]
        config = MarketConfig(0, 7)
        result = clear(make_offers(plants, config), config)
        assert result.dispatch == {"a": 5, "b": 2}
        assert result.clearing_price == 2

    def test_block_boundary_demand_excludes_next_plant(self):
        plants = [simple_plant("a", mc=1, cap=5, hours=0),
                  simple_plant("b", mc=2, cap=5, hours=0)]
        config = MarketConfig(0, 5)
        result = clear(make_offers(plants, config), config)
        assert result.dispatch == {"a": 5}
        assert result.clearing_price == 1

    def test_empty_offer_list_with_demand_is_blackout(self):
        result = clear([], MarketConfig(10, 25))
        assert result.blackout
        assert result.dispatch == {}

    def test_marginal_margin_zero_and_others_nonnegative(self):
        result = clear_scenario(toy_grid(70, 25))
        margins = [result.profits[pid] for pid in result.dispatch]
        assert all(m >= 0 for m in margins)
        assert min(margins) == 0

    def test_consumed_energy(self):
        assert clear_scenario(toy_grid(10, 25)).consumed_energy == 25


class TestTotalFee:
    def test_paper_rounded_reproduces_790(self):
        result = clear_scenario(toy_grid(70, 25))
        assert total_fee(result, "paper-rounded") == 790

    def test_exact_p0_70(self):
        # full-precision fee rates: 70 + 70/51 + 7.5 + 1190/117 + 3500/51,
        # times 5 MW each
        result = clear_scenario(toy_grid(70, 25))
        expected = (Fraction(70) + Fraction(70, 51) + Fraction(15, 2)
                    + Fraction(1190, 117) + Fraction(3500, 51)) * 5
        assert result.total_fee_cf == expected
        assert abs(float(expected) - 788.3547) < 0.0005

    def test_exact_p0_10(self):
        # (10 + 10/51 + 170/117 + 9 + 500/51) * 5
        result = clear_scenario(toy_grid(10, 25))
        expected = (Fraction(10) + Fraction(10, 51) + Fraction(170, 117)
                    + Fraction(9) + Fraction(500, 51)) * 5
        assert result.total_fee_cf == expected

    def test_zero_reference_price(self):
        assert clear_scenario(toy_grid(0, 25)).total_fee_cf == 0

    def test_ledger_consistency(self):
        result = clear_scenario(toy_grid(70, 25))
        assert result.total_fee_cf == sum(result.fee_ledger.values())
        rate = {o.plant_id: o.fee_rate for o in result.offers}
        for pid, fee in result.fee_ledger.items():
            assert fee == rate[pid] * result.dispatch[pid]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            total_fee(clear_scenario(toy_grid(10, 25)), "bogus")


class TestFeeIntensity:
    def test_p0_10(self):
        offers = clear_scenario(toy_grid(10, 25)).offers
        assert abs(market_wide_fee_intensity(offers) - Fraction("48.4")) < Fraction("0.05")

    def test_p0_70(self):
        offers = clear_scenario(toy_grid(70, 25)).offers
        assert abs(market_wide_fee_intensity(offers) - 339) < Fraction("0.5")

    def test_p0_0(self):
        offers = clear_scenario(toy_grid(0, 25)).offers
        assert market_wide_fee_intensity(offers) == 0
