"""The exact two-stage sort, the bounded numeric-literal parser and the
reporting conversion."""

import json
import time
from fractions import Fraction
from itertools import repeat
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket._numeric import (
    MAX_DECIMAL_EXPONENT,
    MAX_SIGNIFICANT_DIGITS,
    coarse_runs,
    json_ratio,
    parse_number,
    ratio_column,
    ratio_number,
    ratio_sum,
    sort_runs,
    to_number,
)
from flexmarket.scenario import _json_float, _json_int

# Values that stress the integer floor key floor(v·2**64): equal values,
# values closer together than 2**-64, negatives, and large numerators and
# denominators.
base = st.one_of(
    st.integers(min_value=-50, max_value=50).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**300), max_value=2**300),
        st.integers(min_value=1, max_value=2**300),
    ),
)
values = st.one_of(
    base,
    st.builds(
        lambda v, k, bits: v + Fraction(k, 2**bits),
        base,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=60, max_value=200),
    ),
)
ids = st.sampled_from(["a", "b", "c", "d"])  # few ids, so duplicates are common


def sorted_on_ints(items, value, tiebreak):
    """The items in ascending order of (value(item), tiebreak(item)), by the
    two-stage kernel: `coarse_runs`, then `sort_runs`."""
    pairs = [value(item).as_integer_ratio() for item in items]
    order = sort_runs(*coarse_runs(pairs), pairs, lambda i: tiebreak(items[i]))
    return [items[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ids, values), max_size=40), st.data())
def test_sort_runs_matches_sorted_on_the_exact_key(pairs, data):
    # items reuse earlier values exactly, so equal values occur in every size
    items = [
        (pid, data.draw(st.sampled_from([v for _, v in pairs[: i + 1]])), i)
        for i, (pid, v) in enumerate(pairs)
    ]
    expected = sorted(items, key=lambda item: (item[1], item[0]))
    # the index in each item also checks that equal keys keep input order
    assert sorted_on_ints(items, lambda item: item[1], lambda item: item[0]) == expected


def test_sort_runs_orders_values_closer_than_the_floor_key():
    tiny = Fraction(1, 2**100)
    items = ["x", "y", "z"]
    value = {"x": 1 + 2 * tiny, "y": 1 + tiny, "z": Fraction(1)}
    assert sorted_on_ints(items, value.__getitem__, str) == ["z", "y", "x"]


def test_sort_runs_run_of_distinct_denominators_stays_cheap():
    # 4,000 values within 2**-64 of each other form one run of equal floors;
    # a common denominator of their 100-bit denominators would grow with it
    values = [Fraction(10**30 + i + 1, 10**30 + i) for i in range(4000)]
    start = time.perf_counter()
    assert sorted_on_ints(values, lambda v: v, lambda v: 0) == sorted(values)
    assert time.perf_counter() - start < 1.0


# Short plain decimals: signs, leading and trailing zeros, a bare point at
# either end, and lengths around 17 characters, where a JSON float's
# shortcut (`json_ratio`) ends.
short_decimals = st.builds(
    lambda sign, whole, point, part: sign + whole + point + part,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=10),
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=10),
).filter(lambda t: any(c.isdigit() for c in t) and len(t) <= 19)


def assert_parse_number_matches_fraction(text):
    """parse_number gives Fraction's value for ASCII text without "_", or
    raises ValueError where Fraction does."""
    try:
        exact = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_number(text)
        return
    assert parse_number(text) == exact
    assert type(parse_number(text)) is Fraction


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-(10**40), max_value=10**40).map(str),
        st.decimals(min_value=-(10**30), max_value=10**30, places=12).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.fractions(max_denominator=10**6).map(str),
        st.builds(
            lambda m, e: f"{m}e{e}",
            st.integers(min_value=-(10**20), max_value=10**20),
            st.integers(min_value=-300, max_value=300),
        ),
    )
)
def test_parse_number_matches_fraction_within_the_bounds(text):
    assert_parse_number_matches_fraction(text)


@settings(max_examples=500, deadline=None)
@given(short_decimals)
def test_parse_number_fast_path_matches_the_general_parser(text):
    assert_parse_number_matches_fraction(text)


# Fixed cases of the strategies above: plain decimals up to and past 17
# characters, and text that only looks like one.
@pytest.mark.parametrize(
    "text",
    ["-0", "+0", "0", "-0.0", "00012.50", "-.5", "+7.", "1.", ".0",
     "1234567890123456", "12345678901234567", "123456789012345678",
     "-1234567890123456", "-12345678901234567", "0.00000000000001",
     "0.000000000000001", "0.0000000000000001", "99999999999999999"],
)
def test_parse_number_fast_path_at_its_edges(text):
    assert_parse_number_matches_fraction(text)


@pytest.mark.parametrize("text", [".", "-", "+", "-.", "1.2.3", "1e5", " 1", "1 "])
def test_parse_number_fast_path_leaves_other_text_to_the_general_parser(text):
    assert_parse_number_matches_fraction(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(values, max_size=30))
def test_ratio_sum_matches_sum(terms):
    n, d = ratio_sum(v.as_integer_ratio() for v in terms)
    assert d > 0 and gcd(n, d) == 1
    assert Fraction(n, d) == sum(terms, Fraction(0))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_float_repr_loads(x):
    assert parse_number(repr(x)) == Fraction(repr(x))


@pytest.mark.parametrize(
    "text",
    [
        "1e3000000",
        "1E3000000",
        "-1e-3000000",
        f"1e{MAX_DECIMAL_EXPONENT + 1}",
        f"1e-{MAX_DECIMAL_EXPONENT + 1}",
        f"0.{'0' * MAX_DECIMAL_EXPONENT}1",
        "1" * (MAX_SIGNIFICANT_DIGITS + 1),
        "0." + "7" * (MAX_SIGNIFICANT_DIGITS + 1),
        "1/" + "3" * (MAX_SIGNIFICANT_DIGITS + 1),
        "1e" + "9" * 5000,
    ],
)
def test_oversized_literals_rejected_before_building(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="numeric literal"):
        parse_number(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text", [f"1e{MAX_DECIMAL_EXPONENT}", f"-9.5e-{MAX_DECIMAL_EXPONENT}",
             "1" + "0" * 300, "9" * MAX_SIGNIFICANT_DIGITS, "0e999999999"]
)
def test_literals_at_the_bounds_accepted(text):
    assert parse_number(text) == (0 if text == "0e999999999" else Fraction(text))


@pytest.mark.parametrize("text", ["", ".", "e5", "1e", "inf", "nan", "1/0", "3 / 4"])
def test_malformed_literals_rejected(text):
    with pytest.raises(ValueError):
        parse_number(text)


@pytest.mark.parametrize("value", [Fraction(10**350, 3), -Fraction(10**400 + 1, 7)])
def test_values_beyond_the_float_range_raise_value_error(value):
    with pytest.raises(ValueError, match="too large to report"):
        to_number(value)


# numerators near d·2**1024, where a quotient leaves the float range, and
# small ones, where d = 2 makes exact halves
numerators = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.builds(lambda sign, k, d, r: sign * ((2**1024 + k) * d + r),
              st.sampled_from([-1, 1]), st.integers(-(2**970), 2**970),
              st.sampled_from([1, 2, 3, 10**40]), st.integers(0, 5)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(numerators, max_size=8), st.sampled_from([1, 2, 3, 7, 10**40]),
       st.booleans())
def test_ratio_column_is_shown_per_value(nums, d, rounded):
    # the values of the reference, or the ValueError of the first value that
    # raises one there, with its text
    mode = "paper-rounded" if rounded else "exact"
    try:
        expected = [ref.shown(Fraction(n, d), mode) for n in nums]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ratio_column(nums, repeat(d), rounded)
        assert str(raised.value) == str(exc)
        return
    column = ratio_column(nums, repeat(d), rounded)
    assert column == expected
    assert list(map(type, column)) == list(map(type, expected))
    assert [ratio_number(n, d, rounded) for n in nums] == column


def test_integral_values_report_as_ints_at_any_size():
    assert to_number(Fraction(10**400)) == 10**400


# JSON number texts (RFC 8259 grammar): a sign, an int part without leading
# zeros, an optional fraction (leading zeros allowed) and an optional
# exponent, up to 100 significant digits and exponents around +/-400.
json_numbers = st.builds(
    lambda sign, whole, part, exponent: sign + whole + part + exponent,
    st.sampled_from(["", "-"]),
    st.one_of(st.just("0"), st.builds(lambda lead, rest: lead + rest,
                                      st.sampled_from("123456789"),
                                      st.text("0123456789", max_size=99))),
    st.one_of(st.just(""), st.builds(lambda zeros, digits: "." + "0" * zeros + digits,
                                     st.integers(min_value=0, max_value=20),
                                     st.text("0123456789", min_size=1, max_size=100))),
    st.one_of(st.just(""), st.builds(
        lambda e, sign, value: f"{e}{sign}{value}", st.sampled_from("eE"),
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.integers(min_value=0, max_value=30), st.sampled_from([399, 400, 401]),
                  st.integers(min_value=0, max_value=10**6)))),
)


def assert_json_literal_matches_parse_number(text):
    """json_ratio, and the loader's JSON hooks, give parse_number's value as a
    reduced pair, or raise its ValueError with the same text."""
    assert json.loads(text, parse_float=str, parse_int=str) == text  # a JSON number
    try:
        expected = parse_number(text)
    except ValueError as exc:
        for parse in (json_ratio, lambda t: json.loads(t, parse_float=_json_float,
                                                        parse_int=_json_int)):
            with pytest.raises(ValueError) as raised:
                parse(text)
            assert str(raised.value) == str(exc)
        return
    n, d = json_ratio(text)
    assert d > 0 and gcd(n, d) == 1 and Fraction(n, d) == expected
    loaded = json.loads(text, parse_float=_json_float, parse_int=_json_int)
    assert (Fraction(*loaded) if isinstance(loaded, tuple) else loaded) == expected


@settings(max_examples=500, deadline=None)
@given(json_numbers)
def test_json_literal_pair_matches_parse_number(text):
    assert_json_literal_matches_parse_number(text)


@pytest.mark.parametrize("text", [
    "-0", "-0.0", "0.000", "0e5", "-0E-401", "1.5E+3", "12E-2",
    "1234567890123456", "12345678901234.56", "123456789012345.67",  # 16, 17, 18 characters
    "-1234567890123.45", "-12345678901234.56", "0.000000000000001", "0.0000000000000001",
    "9" * MAX_SIGNIFICANT_DIGITS, "9" * (MAX_SIGNIFICANT_DIGITS + 1),
    "0." + "0" * 30 + "1" * MAX_SIGNIFICANT_DIGITS, "1" + "0" * 150 + ".5",
    f"1e{MAX_DECIMAL_EXPONENT}", f"1e-{MAX_DECIMAL_EXPONENT}",
    f"1e{MAX_DECIMAL_EXPONENT + 1}", f"-1E-{MAX_DECIMAL_EXPONENT + 1}",
    "0." + "0" * (MAX_DECIMAL_EXPONENT - 1) + "1", "0." + "0" * MAX_DECIMAL_EXPONENT + "1",
])
def test_json_literal_pair_at_the_edges(text):
    assert_json_literal_matches_parse_number(text)


@pytest.mark.parametrize("text", ["1_0", "1_000.5", "\u0661\u0662.\u0665", "\uff11\uff12",
                                  "\u0663e2", "1e\u0663", "\u0661/\u0662", "\u00a012",
                                  "12\u2003"])
def test_text_int_would_take_is_no_literal(text):
    # int() reads "1_0" as 10, other scripts' digits as digits (Arabic-Indic
    # "12.5", fullwidth "12", "3e2") and strips non-ASCII spaces
    with pytest.raises(ValueError, match="invalid numeric literal"):
        parse_number(text)


@pytest.mark.parametrize("text, value", [(" 12.5\t", Fraction(25, 2)), ("\n7/4 ", Fraction(7, 4)),
                                         ("\t-3e2\r\n", Fraction(-300))])
def test_ascii_whitespace_padding_still_parses(text, value):
    assert parse_number(text) == value
