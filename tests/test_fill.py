"""The one fill kernel that `clear` and `sweep_p0` share: on the int pairs
of Fraction capacities (as `clear` passes them) and on the same capacities
scaled to ints over 1 (as `sweep_p0` passes them), against the reference's
fill."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket.spotmarket import _fill


def reference_count_rest(capacities, demand):
    """(count, rest) of the reference's fill: rest is the demand left unmet
    if positive, the marginal plant's unused MW if negative."""
    dispatch, unmet = ref.fill(capacities, demand)
    if unmet > 0 or not dispatch:
        return len(dispatch), unmet
    return len(dispatch), dispatch[-1] - capacities[len(dispatch) - 1]


def pairs(values):
    return [v.as_integer_ratio() for v in values]


def fills(capacities, demand):
    """The kernel's (count, rest in MW) on Fractions and on ints over the
    lcm of every denominator."""
    count, rest, den = _fill(pairs(capacities), demand.as_integer_ratio())
    scale = lcm(demand.denominator, *(c.denominator for c in capacities))
    scaled = [(int(c * scale), 1) for c in capacities]
    int_count, int_rest, int_den = _fill(scaled, (int(demand * scale), 1))
    return (count, Fraction(rest, den)), (int_count, Fraction(int_rest, int_den * scale))


@st.composite
def fill_cases(draw):
    capacities = draw(st.lists(ref.fine_capacities, max_size=8))
    total = sum(capacities, Fraction(0))
    prefix = draw(st.integers(min_value=0, max_value=len(capacities)))
    served = sum(capacities[:prefix], Fraction(0))
    kind = draw(st.sampled_from(["zero", "prefix", "partial", "blackout"]))
    if kind == "zero":
        demand = Fraction(0)
    elif kind == "prefix":
        demand = served
    elif kind == "partial" and prefix < len(capacities):
        share = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6)
                     .filter(lambda s: 0 < s < 1))
        demand = served + share * capacities[prefix]
    else:
        demand = total + draw(ref.fine_capacities)
    return capacities, demand


@settings(max_examples=300, deadline=None)
@given(fill_cases())
def test_fractions_and_scaled_ints_match_the_plain_fill(case):
    capacities, demand = case
    on_fractions, on_ints = fills(capacities, demand)
    assert on_fractions == on_ints == reference_count_rest(capacities, demand)


BIG = ref.coprime_20_digit(3)


@pytest.mark.parametrize(
    "capacities, demand, expected",
    [
        ([], Fraction(0), (0, 0)),
        ([], Fraction(5), (0, 5)),  # blackout with nothing to dispatch
        ([Fraction(3), Fraction(4)], Fraction(0), (0, 0)),
        ([Fraction(3), Fraction(4)], Fraction(3), (1, 0)),  # exact prefix
        ([Fraction(3), Fraction(4)], Fraction(7), (2, 0)),  # exact total
        ([Fraction(3), Fraction(4)], Fraction(5), (2, -2)),  # partial marginal
        ([Fraction(3), Fraction(4)], Fraction(9), (2, 2)),  # blackout
        ([Fraction(1, 3), Fraction(1, 7)], Fraction(2, 5), (2, Fraction(-8, 105))),
        ([Fraction(1, BIG[0]), Fraction(1, BIG[1]), Fraction(1, BIG[2])],
         Fraction(1, BIG[0]) + Fraction(1, 2 * BIG[1]),
         (2, Fraction(-1, 2 * BIG[1]))),
    ],
)
def test_edge_cases(capacities, demand, expected):
    on_fractions, on_ints = fills(capacities, demand)
    assert on_fractions == on_ints == reference_count_rest(capacities, demand) == expected


def test_den_grows_only_over_the_plants_visited():
    capacities = [Fraction(1, BIG[0]), Fraction(1, BIG[1]), Fraction(1, BIG[2])]
    count, _, den = _fill(pairs(capacities), (1, 2 * BIG[0]))
    assert count == 1 and den == 2 * BIG[0]
