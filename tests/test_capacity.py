import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference as ref
from flexmarket.analysis import p0_range, sweep_p0
from flexmarket.capacity import (
    CapacityConfig,
    CapacityPool,
    UnallocatableFeeError,
    build_pool,
    eligible_plants,
    settle,
)
from flexmarket.reports import emit_settlement
from flexmarket.scenario import load_scenario, toy_grid
from flexmarket.spotmarket import clear_scenario


def pool_of(toy, ids):
    config = CapacityConfig(participants=tuple(ids), allow_overlap=True)
    return build_pool(toy.plants, config)


class TestEligibility:
    def test_toy_grid_default_threshold(self, toy):
        assert set(eligible_plants(toy.plants)) == {"hydro", "gas", "chp"}

    def test_ordered_by_descending_phi(self, toy):
        assert eligible_plants(toy.plants) == ["hydro", "gas", "chp"]

    def test_high_threshold_empties_pool(self, toy):
        # max phi on the toy grid is hydro's 50/51 = 0.98039 < 0.99
        config = CapacityConfig(threshold=Fraction("0.99"))
        assert eligible_plants(toy.plants, config) == []

    def test_threshold_is_strict(self, toy):
        config = CapacityConfig(threshold=toy.flexibilities()["hydro"])
        assert "hydro" not in eligible_plants(toy.plants, config)

    def test_threshold_must_be_interior(self):
        for threshold in (0, 1, Fraction(-1, 2), 2):
            with pytest.raises(ValueError, match=r"threshold: must lie in \(0, 1\)"):
                CapacityConfig(threshold=threshold)


class TestBuildPool:
    def test_auto_rule_excludes_dispatched(self, toy):
        dispatched = clear_scenario(toy).dispatch
        pool = build_pool(toy.plants, dispatched=dispatched)
        assert [pid for pid, _, _ in pool.participants] == ["gas"]

    def test_explicit_overlap_rejected_without_override(self, toy):
        with pytest.raises(ValueError, match="dispatched"):
            build_pool(
                toy.plants,
                CapacityConfig(participants=("hydro", "gas", "chp")),
                dispatched={"hydro", "chp"},
            )

    def test_override_allows_overlap(self, toy):
        pool = build_pool(
            toy.plants,
            CapacityConfig(participants=("hydro", "gas", "chp"), allow_overlap=True),
            dispatched={"hydro", "chp"},
        )
        assert len(pool.participants) == 3

    def test_ineligible_participant_rejected(self, toy):
        with pytest.raises(ValueError):
            pool_of(toy, ["nuclear"])

    def test_repeated_participant_rejected(self, toy):
        # CapacityConfig rejects the list before any pool is built
        with pytest.raises(ValueError, match=r"participants\[1\]: .*'hydro' is listed twice"):
            pool_of(toy, ["hydro", "hydro", "gas"])

    def test_auto_pool_holds_each_id_once(self, toy):
        # a plant list that repeats an id (Scenario rejects one) still gives
        # a pool that pays out exactly C_f
        plants = toy.plants + (toy.plants[1],)  # hydro twice
        pool = build_pool(plants)
        assert [pid for pid, _, _ in pool.participants] == ["hydro", "gas", "chp"]
        assert sum(settle(pool, Fraction(100)).payments.values()) == 100

    @pytest.mark.parametrize("participants, dispatched, checked", [
        (None, {"hydro", "chp"}, ["gas"]),  # auto: only the kept member
        (("hydro", "gas"), set(), ["hydro", "gas"]),  # a list: whole, once
    ])
    def test_each_member_checked_once(self, monkeypatch, toy, participants,
                                      dispatched, checked):
        seen = []
        new = CapacityPool.__new__

        def recording(cls, members, *args, **kwargs):
            seen.extend(pid for pid, _, _ in members)
            return new(cls, members, *args, **kwargs)

        monkeypatch.setattr(CapacityPool, "__new__", staticmethod(recording))
        config = CapacityConfig(participants=participants)
        pool = build_pool(toy.plants, config, dispatched)
        assert seen == checked == [pid for pid, _, _ in pool.participants]
        # a copy made by _replace is checked again
        with pytest.raises(ValueError, match="does not exceed threshold"):
            pool._replace(eligibility_threshold=Fraction(99, 100))

    def test_pinned_scenario_checked_once_at_load_and_not_per_sweep_run(
            self, monkeypatch, toy_grid_path):
        seen = []
        new = CapacityPool.__new__

        def recording(cls, members, *args, **kwargs):
            seen.extend(pid for pid, _, _ in members)
            return new(cls, members, *args, **kwargs)

        monkeypatch.setattr(CapacityPool, "__new__", staticmethod(recording))
        scenario = load_scenario(toy_grid_path.with_name("toy-grid-pinned.json"))
        assert seen == ["hydro", "gas", "chp"]
        seen.clear()
        sweep = sweep_p0(scenario, p0_range(Fraction(0), Fraction(80), Fraction(10)))
        assert seen == [] and len(sweep.runs) > 1

    def test_p_flex(self, toy):
        pool, phis = pool_of(toy, ["hydro", "gas", "chp"]), toy.flexibilities()
        assert pool.p_flex == 5 * (phis["hydro"] + phis["gas"] + phis["chp"])


class TestSettle:
    def test_three_plant_pool_cf_205(self, toy):
        st = settle(pool_of(toy, ["hydro", "gas", "chp"]), Fraction(205))
        rounded = {pid: round(float(v)) for pid, v in st.payments.items()}
        assert rounded == {"hydro": 74, "gas": 67, "chp": 64}

    def test_two_plant_pool_cf_205(self, toy):
        st = settle(pool_of(toy, ["gas", "chp"]), Fraction(205))
        rounded = {pid: round(float(v)) for pid, v in st.payments.items()}
        assert rounded == {"gas": 105, "chp": 100}

    def test_three_plant_pool_cf_790(self, toy):
        st = settle(pool_of(toy, ["hydro", "gas", "chp"]), Fraction(790))
        assert abs(st.payments["hydro"] - 284) < 1
        assert abs(st.payments["gas"] - 259) < 1
        # printed as 247; exact is 247.52
        assert abs(st.payments["chp"] - 247) <= 1

    def test_two_plant_pool_cf_790(self, toy):
        st = settle(pool_of(toy, ["gas", "chp"]), Fraction(790))
        assert abs(st.payments["gas"] - 404) < 1
        assert abs(st.payments["chp"] - 386) < 1

    def test_single_participant_gets_everything(self, toy):
        st = settle(pool_of(toy, ["gas"]), Fraction("123.45"))
        assert st.payments == {"gas": Fraction("123.45")}

    def test_zero_fee(self, toy):
        st = settle(pool_of(toy, ["hydro", "gas"]), Fraction(0))
        assert all(v == 0 for v in st.payments.values())

    def test_conservation_exact(self, toy):
        st = settle(pool_of(toy, ["hydro", "gas", "chp"]), Fraction(790))
        assert sum(st.payments.values()) == 790

    def test_empty_pool_with_positive_fee_raises(self):
        with pytest.raises(UnallocatableFeeError):
            settle(CapacityPool(()), Fraction(100))

    def test_empty_pool_with_zero_fee_is_benign(self):
        assert settle(CapacityPool(()), Fraction(0)).payments == {}

    def test_negative_fee_rejected(self, toy):
        with pytest.raises(ValueError):
            settle(pool_of(toy, ["gas"]), Fraction(-1))

    def test_pool_rejects_ineligible_member(self):
        with pytest.raises(ValueError):
            CapacityPool((("slow", Fraction(1, 4), Fraction(5)),))

    @pytest.mark.parametrize("members, threshold, message", [
        # p_flex would count "a" twice while the payments keep one "a"
        ((("a", Fraction(3, 4), Fraction(10)), ("b", Fraction(2, 3), Fraction(10)),
          ("a", Fraction(3, 5), Fraction(10))), Fraction(1, 2), "a: listed twice in the pool"),
        # a score <= 0 could make P_flex <= 0, and so reverse or break the payments
        ((("a", Fraction(-1, 2), Fraction(5)), ("b", Fraction(1, 4), Fraction(5))),
         Fraction(-1), r"eligibility_threshold: must lie in \(0, 1\)"),
        # no start-up time scores above 1: x would take 30/37 of C_f
        ((("x", Fraction(3), Fraction(5)), ("y", Fraction(7, 10), Fraction(5))),
         Fraction(1, 2), "x: phi = 3 exceeds 1"),
    ])
    def test_pool_rejects_what_settle_cannot_pay(self, members, threshold, message):
        with pytest.raises(ValueError, match=message):
            CapacityPool(members, threshold)


# Scores above the default threshold 1/2: 1 (a 0 h start-up), plain ones,
# ones closer together than 2**-64, and ones over 20-digit coprime
# denominators, which all round to the float 1.0.
phis_above_half = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=50),
    st.builds(lambda k, bits: 1 - Fraction(k, 2**bits),
              st.integers(min_value=1, max_value=3), st.integers(min_value=60, max_value=200)),
    st.builds(lambda r, j: Fraction(r - 1 - j, r),
              st.sampled_from(ref.coprime_20_digit(4)), st.integers(min_value=0, max_value=6)),
).filter(lambda phi: phi > Fraction(1, 2))


@st.composite
def pools(draw):
    """A pool whose members reuse a few scores and capacities, so that
    distinct members often have equal phi·P, in any id order."""
    ids = draw(st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=10))
    scores = draw(st.lists(phis_above_half, min_size=1, max_size=3))
    capacities = draw(st.lists(st.sampled_from([Fraction(5), Fraction(10), Fraction(15, 2)]),
                               min_size=1, max_size=2))
    return CapacityPool(tuple((pid, draw(st.sampled_from(scores)),
                               draw(st.sampled_from(capacities))) for pid in ids))


@settings(max_examples=300, deadline=None)
@given(pools(), st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=Fraction(1, 1000), max_value=1000)))
def test_settle_orders_payments_by_exact_payment_then_id(pool, cf):
    assume(pool.participants or not cf)  # else the depletion paradox: settle raises
    p_flex = sum(phi * cap for _, phi, cap in pool.participants)
    exact = {pid: phi * cap * cf / p_flex for pid, phi, cap in pool.participants}
    payments = settle(pool, cf).payments
    assert payments == exact
    assert list(payments) == sorted(exact, key=lambda pid: (-exact[pid], pid))


def test_settle_and_emit_bounded_on_coprime_denominators():
    # 500 scores (r - 1 - i mod 7)/r, equal as floats, over distinct 20-digit
    # denominators r: a payment's denominator has about 10,000 digits, but
    # the order comes from each member's own phi·P
    members = tuple((f"p{i:03d}", Fraction(r - 1 - i % 7, r), Fraction(10))
                    for i, r in enumerate(ref.coprime_20_digit(500)))
    pool = CapacityPool(members)
    start = time.perf_counter()
    text = emit_settlement(settle(pool, Fraction(790)), "json")
    assert time.perf_counter() - start < 0.5
    assert text.count(b'"plant_id"') == 500
