"""Exact rational arithmetic helpers, and the base of validated model types.

All money (EUR/MWh, EUR/h) and power (MW) quantities are carried as
`fractions.Fraction` so that intermediate results stay unrounded; rounding
happens only at the reporting boundary, half away from zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, count
from operator import ne
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

# Bounds on a numeric literal, checked before its Fraction is built. Fraction
# scales a literal by 10**exponent, so "1e3000000" alone would cost seconds of
# CPU; CPython's int-string digit limit (CVE-2020-10735) does not cover that.
# Every float repr (at most 17 digits, exponents -324 to 308) is within them.
MAX_SIGNIFICANT_DIGITS = 100
MAX_DECIMAL_EXPONENT = 400

_DECIMAL = re.compile(r"\s*([-+]?)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*")
_RATIONAL = re.compile(r"\s*([-+]?)0*(\d+)/0*(\d+)\s*")
# A plain decimal ("-12.50", ".5", "7") of at most _PLAIN_MAX characters has
# at most 17 digits and its leading digit within 10**+/-17, inside both bounds.
_PLAIN_DECIMAL = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")
_PLAIN_MAX = 17

# Beyond the float range, coarse_runs orders values on floor(value * 2**_COARSE_BITS).
_COARSE_BITS = 64


def frac(value: int | float | str | Fraction) -> Fraction:
    """Coerce a numeric input to an exact Fraction.

    Floats are converted through their decimal repr, so a JSON value like
    0.12 becomes 3/25 exactly rather than the binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return parse_number(value)
    raise TypeError(f"cannot interpret {value!r} as a number")


class Validated:
    """First base of a model type whose `__new__` checks a NamedTuple's fields:
    `_make`, and so `_replace`, go through `__new__`: a copy is checked again."""

    __slots__ = ()

    @classmethod
    def _make(cls: type[T], fields: Iterable[Any]) -> T:
        return cls(*fields)


def first_duplicate(items: Iterable[T]) -> T | None:
    """The first item equal to one before it, or None."""
    seen: set = set()
    return next((item for item in items if item in seen or seen.add(item)), None)


def parse_number(text: str) -> Fraction:
    """The exact value of a numeric literal: decimal ("12.5", "-3e-2") or
    rational ("7/4").

    Raises ValueError for any other text and, before building anything, for
    a literal with more than MAX_SIGNIFICANT_DIGITS significant digits (in
    either part of a rational), or whose written exponent or leading digit's
    decimal exponent lies beyond +/-MAX_DECIMAL_EXPONENT.
    """
    if len(text) <= _PLAIN_MAX and _PLAIN_DECIMAL.fullmatch(text):
        whole, _, part = text.partition(".")
        return Fraction(int(whole + part), 10 ** len(part))
    return _parse_literal(text)


def _parse_literal(text: str) -> Fraction:
    """parse_number without its plain-decimal fast path."""
    shown = repr(text if len(text) <= 40 else text[:37] + "...")
    match = _DECIMAL.fullmatch(text)
    if match is None or not (match[2] or match[3]):
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ValueError(f"invalid numeric literal {shown}")
        sign, numerator, denominator = match.groups()
        if max(len(numerator), len(denominator)) > MAX_SIGNIFICANT_DIGITS:
            raise ValueError(
                f"numeric literal {shown} has more than "
                f"{MAX_SIGNIFICANT_DIGITS} significant digits"
            )
        if int(denominator) == 0:
            raise ValueError(f"numeric literal {shown} divides by zero")
        return Fraction(int(sign + numerator), int(denominator))
    sign, whole, part, exponent = match.groups()
    digits = whole + (part or "")
    significant = digits.strip("0")
    if not significant:
        return Fraction(0)
    if len(significant) > MAX_SIGNIFICANT_DIGITS:
        raise ValueError(
            f"numeric literal {shown} has more than {MAX_SIGNIFICANT_DIGITS} "
            "significant digits"
        )
    # the value is significant·10**scale, its leading digit at 10**leading;
    # an exponent with more digits than the bound is rejected unparsed
    if exponent is None:
        written = 0
    elif len(exponent.lstrip("+-0")) > len(str(MAX_DECIMAL_EXPONENT)):
        written = MAX_DECIMAL_EXPONENT + 1
    else:
        written = int(exponent)
    leading = len(whole) - 1 - (len(digits) - len(digits.lstrip("0"))) + written
    if max(abs(written), abs(leading)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"numeric literal {shown} is out of range: exponents beyond "
            f"+/-{MAX_DECIMAL_EXPONENT} are not accepted"
        )
    scale = leading - len(significant) + 1
    numerator = int(sign + significant)
    if scale >= 0:
        return Fraction(numerator * 10**scale)
    return Fraction(numerator, 10**-scale)


def coarse_runs(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], list[slice]]:
    """Indices of values n/d (d > 0) sorted on n/d as a float (beyond its range,
    floor(n/d·2**64)), which never decreases as n/d grows, and the slices of
    that order with two or more equal keys, the runs that `sort_runs` sorts."""
    try:
        coarse = [n / d for n, d in pairs]  # int division rounds correctly
    except OverflowError:
        coarse = [(n << _COARSE_BITS) // d for n, d in pairs]
    order = sorted(range(len(coarse)), key=coarse.__getitem__)
    keys = [coarse[i] for i in order]
    runs, start = [], 0  # order[start:end] is each run of equal keys in turn
    for end in compress(count(1), map(ne, keys, keys[1:] + [None])):
        if end - start > 1:
            runs.append(slice(start, end))
        start = end
    return order, runs


def sort_runs(order: list[int], runs: Iterable[slice], pairs: Sequence[tuple[int, int]],
              tiebreak: Callable[[int], Any]) -> list[int]:
    """`order` with each run sorted on (pairs[i] as n/d, tiebreak(i)): on the
    tiebreak, then stably on numerators where the run shares one denominator,
    else on cross-multiplied pairs (a common denominator could grow with it)."""
    for part in runs:
        run = sorted(order[part], key=tiebreak)
        if len({pairs[i][1] for i in run}) == 1:
            run.sort(key=lambda i: pairs[i][0])
        else:
            run.sort(key=cmp_to_key(
                lambda i, j: pairs[i][0] * pairs[j][1] - pairs[j][0] * pairs[i][1]))
        order[part] = run
    return order


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of Fractions.

    Values that share a denominator are added as ints, and the sums per
    denominator are then added pairwise, so that distinct large denominators
    multiply up evenly instead of one growing product at a time.
    """
    groups: dict[int, list[Fraction]] = {}
    for v in values:
        groups.setdefault(v.denominator, []).append(v)
    terms = [
        group[0] if len(group) == 1 else Fraction(sum(v.numerator for v in group), d)
        for d, group in groups.items()
    ]
    while len(terms) > 1:
        paired = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0] if terms else Fraction(0)


# Report formats and rounding modes: here, so the CLI offers them without `reports`.
FORMATS = ("plain-table", "csv", "json", "svg-stack")
ROUNDING_MODES = ("exact", "paper-rounded")


def to_float(x: Fraction) -> float:
    """The nearest float to x; ValueError if x is beyond the float range."""
    try:
        return x.numerator / x.denominator  # what float(x) computes
    except OverflowError:
        raise ValueError(
            f"a value of about 2**{x.numerator.bit_length() - x.denominator.bit_length()}"
            " is too large to report as a float"
        ) from None


def ratio_number(n: int, d: int, rounded: bool = False) -> int | float:
    """n/d for ints n and d > 0, as a report writes it, whether reduced or not.

    Rounded: the nearest int, ties away from zero. Otherwise the int when d
    divides n, else the nearest float (int true division rounds correctly,
    as `to_float` does), and to_float's ValueError beyond the float range.
    """
    if rounded:
        q = (2 * abs(n) + d) // (2 * d)
        return -q if n < 0 else q
    if n % d == 0:
        return n // d
    try:
        return n / d
    except OverflowError:
        return to_float(Fraction(n, d))  # raises, naming the reduced value


def ratio_column(nums: Sequence[int], dens: Iterable[int],
                 rounded: bool = False) -> list[int | float]:
    """[ratio_number(n, d, rounded) for n, d in zip(nums, dens)], a column
    at a time: the same ints, floats and ValueError, without a call per
    value. `dens` may be read twice: a sequence, or `itertools.repeat(d)`
    for one d in every row."""
    if rounded:
        return [(2 * n + d) // (2 * d) if n >= 0 else -((d - 2 * n) // (2 * d))
                for n, d in zip(nums, dens)]
    try:
        return [n // d if n % d == 0 else n / d for n, d in zip(nums, dens)]
    except OverflowError:  # raises for the first such n / d
        return [ratio_number(n, d) for n, d in zip(nums, dens)]


def to_number(x: Fraction) -> int | float:
    """Render a Fraction as an int when integral, else a float."""
    return ratio_number(x.numerator, x.denominator)
