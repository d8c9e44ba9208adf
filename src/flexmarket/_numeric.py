"""Exact rational arithmetic on Fractions and on (numerator, denominator)
int pairs, and the bases of the validated model types and column tables.
Values stay unrounded up to the reporting boundary (half away from zero)."""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, count
from math import gcd
from operator import ne
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")

# Bounds on a numeric literal, checked before its Fraction is built. Fraction
# scales a literal by 10**exponent, so "1e3000000" alone would cost seconds of
# CPU; CPython's int-string digit limit (CVE-2020-10735) does not cover that.
# Every float repr (at most 17 digits, exponents -324 to 308) is within them.
MAX_SIGNIFICANT_DIGITS = 100
MAX_DECIMAL_EXPONENT = 400

# ASCII digits and whitespace only: `int` would also take other scripts' digits.
_DECIMAL = re.compile(r"\s*([-+]?)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*", re.ASCII)
_RATIONAL = re.compile(r"\s*([-+]?)0*(\d+)/0*(\d+)\s*", re.ASCII)
# A JSON number of at most _PLAIN_MAX characters without an exponent has at
# most 17 digits and its leading digit within 10**+/-17, inside both bounds.
_PLAIN_MAX = 17

# Beyond the float range, coarse_runs orders values on floor(value * 2**_COARSE_BITS).
_COARSE_BITS = 64


def frac(value: int | float | str | Fraction) -> Fraction:
    """A numeric input as an exact Fraction, read by `ratio`."""
    return value if isinstance(value, Fraction) else Fraction(*ratio(value))


def ratio(value: int | float | str | Fraction) -> tuple[int, int]:
    """A numeric input as its reduced (numerator, denominator): an int or a
    Fraction as it is, a str by `parse_ratio`, a float by its decimal repr
    (0.12 is 3/25, not the binary float), and any other object by its own
    `as_integer_ratio` (a `StartUpTime` gives None when unbounded). A bool,
    or an object without `as_integer_ratio`, raises TypeError."""
    if value.__class__ is int:
        return value, 1
    if isinstance(value, str):
        return parse_ratio(value)
    if isinstance(value, float):
        return parse_ratio(float.__repr__(value))
    if isinstance(value, bool) or not hasattr(value, "as_integer_ratio"):
        raise TypeError(f"cannot interpret {value!r} as a number")
    return value.as_integer_ratio()


class Validated:
    """First base of a model type whose `__new__` checks a NamedTuple's fields:
    `_make`, and so `_replace`, go through `__new__`: a copy is checked again."""

    __slots__ = ()

    @classmethod
    def _make(cls: type[T], fields: Iterable[Any]) -> T:
        return cls(*fields)


class Rows(Sequence):
    """A read-only sequence kept as columns: the first holds each row's id,
    the others its values as (numerator, denominator) int pairs. The rows,
    `ROW(id, *Fractions)`, are built from the columns all at once when a
    caller first reads one. It equals, and hashes as, the tuple of its rows."""

    __slots__ = ("_rows",)
    COLUMNS: tuple[str, ...] = ()
    ROW: Callable[..., Any] = staticmethod(lambda *row: row)

    def __init__(self, *columns: list) -> None:
        for name, column in zip(self.COLUMNS, columns):
            setattr(self, name, column)
        self._rows: tuple | None = None

    @classmethod
    def of(cls: type[T], rows: Iterable[Any]) -> T:
        """The rows as columns, each value read by `ratio` (such a sequence
        as it is)."""
        if isinstance(rows, cls):
            return rows
        rows = tuple(rows)
        return cls([row[0] for row in rows], *([ratio(row[k]) for row in rows]
                                               for k in range(1, len(cls.COLUMNS))))

    def _build(self, fraction: Callable[[tuple[int, int]], Fraction]) -> Iterable:
        for pid, *values in zip(*map(self.__getattribute__, self.COLUMNS)):
            yield self.ROW(pid, *map(fraction, values))

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            built: dict[tuple[int, int], Fraction] = {}  # one Fraction per distinct pair
            self._rows = tuple(self._build(
                lambda pair: built.get(pair) or built.setdefault(pair, Fraction(*pair))))
        return self._rows

    def take(self: T, order: Iterable[int]) -> T:
        """The rows at these indices, in this order."""
        order = list(order)
        return type(self)(*(list(map(getattr(self, name).__getitem__, order))
                            for name in self.COLUMNS))

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[0]))

    def __getitem__(self, i: int | slice) -> Any:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rows):
            other = other.rows
        return self.rows == tuple(other) if isinstance(other, (tuple, list)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: Iterable) -> tuple:
        return self.rows + tuple(other)


def first_duplicate(items: Iterable[T]) -> T | None:
    """The first item equal to one before it, or None."""
    seen: set = set()
    return next((item for item in items if item in seen or seen.add(item)), None)


def parse_number(text: str) -> Fraction:
    """The exact value of a numeric literal: decimal ("12.5", "-3e-2") or
    rational ("7/4"), in ASCII digits. Raises ValueError for any other text
    and, before building anything, for a literal with more than
    MAX_SIGNIFICANT_DIGITS significant digits (in either part of a
    rational), or whose written exponent or leading digit's decimal exponent
    lies beyond +/-MAX_DECIMAL_EXPONENT."""
    return Fraction(*parse_ratio(text))


def parse_ratio(text: str) -> tuple[int, int]:
    """parse_number's value as a reduced (numerator, denominator)."""
    shown = repr(text if len(text) <= 40 else text[:37] + "...")
    match = _DECIMAL.fullmatch(text)
    if match is None or not (match[2] or match[3]):
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ValueError(f"invalid numeric literal {shown}")
        sign, numerator, denominator = match.groups()
        size, significant = max(len(numerator), len(denominator)), numerator
    else:
        sign, whole, part, exponent = match.groups()
        digits = whole + (part or "")
        significant = digits.strip("0")
        size = len(significant)
    if size > MAX_SIGNIFICANT_DIGITS:
        raise ValueError(f"numeric literal {shown} has more than {MAX_SIGNIFICANT_DIGITS} "
                         "significant digits")
    if match.re is _RATIONAL:
        if int(denominator) == 0:
            raise ValueError(f"numeric literal {shown} divides by zero")
        return _reduced(int(sign + numerator), int(denominator))
    if not significant:
        return 0, 1
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
        raise ValueError(f"numeric literal {shown} is out of range: exponents beyond "
                         f"+/-{MAX_DECIMAL_EXPONENT} are not accepted")
    scale = leading - len(significant) + 1
    numerator = int(sign + significant)
    return (numerator * 10**scale, 1) if scale >= 0 else _reduced(numerator, 10**-scale)


def json_ratio(text: str) -> tuple[int, int]:
    """parse_ratio of a JSON number literal. The JSON grammar has checked
    its digits, so a short one without an exponent skips the regex."""
    if len(text) > _PLAIN_MAX or "e" in text or "E" in text:
        return parse_ratio(text)
    whole, _, part = text.partition(".")
    return _reduced(int(whole + part), 10 ** len(part))


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


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


def ratio_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of values n/d (d > 0) as a reduced pair: numerators are
    added as ints per denominator, and those sums pairwise, so that distinct
    large denominators multiply up evenly, not one growing product at a time."""
    groups: dict[int, int] = {}
    for n, d in pairs:
        groups[d] = groups.get(d, 0) + n
    terms = [_reduced(n, d) for d, n in groups.items()]
    while len(terms) > 1:
        terms = [_add(a, b) for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0] if terms else (0, 1)


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b for reduced pairs, reduced as `Fraction.__add__` does it."""
    (na, da), (nb, db) = a, b
    g = gcd(da, db)
    s, t = da // g, na * (db // g) + nb * (da // g)
    g2 = gcd(t, g)
    return t // g2, s * (db // g2)


# Report formats and rounding modes: here, so the CLI offers them without `reports`.
FORMATS = ("plain-table", "csv", "json", "svg-stack")
ROUNDING_MODES = ("exact", "paper-rounded")


def ratio_number(n: int, d: int, rounded: bool = False) -> int | float:
    """n/d as `ratio_column` reports it."""
    return ratio_column((n,), (d,), rounded)[0]


def ratio_column(nums: Sequence[int], dens: Iterable[int],
                 rounded: bool = False) -> list[int | float]:
    """Each n/d (d > 0) of nums and dens as a report writes it, whether
    reduced or not. Rounded: the nearest int, ties away from zero. Otherwise
    the int when d divides n, else the nearest float (int true division
    rounds correctly), and a ValueError that names the first value beyond
    the float range. `dens` may be read twice: a sequence, or
    `itertools.repeat(d)` for one d in every row."""
    if rounded:
        return [(2 * n + d) // (2 * d) if n >= 0 else -((d - 2 * n) // (2 * d))
                for n, d in zip(nums, dens)]
    try:
        return [n // d if n % d == 0 else n / d for n, d in zip(nums, dens)]
    except OverflowError:
        for n, d in zip(nums, dens):  # the first n / d that raises it
            try:
                if n % d:
                    n / d
            except OverflowError:
                n, d = _reduced(n, d)
                raise ValueError(f"a value of about 2**{n.bit_length() - d.bit_length()}"
                                 " is too large to report as a float") from None
        raise


def to_number(x: Fraction) -> int | float:
    """Render a Fraction as an int when integral, else a float."""
    return ratio_number(x.numerator, x.denominator)
