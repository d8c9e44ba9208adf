"""Differential test: the integer-key sweep, expanded to per-point rows
and change points, against the reference's clearing, reserve and paradox
at each point; and its grid check against Fraction comparisons.

Grids are drawn two ways: from `p0_range`, whose lo and step have
independent denominators, and as explicit lists of Fractions, which
`sweep_p0` puts over the lcm of their denominators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from flexmarket import analysis
from flexmarket.analysis import p0_range, sweep_p0
from flexmarket.scenario import _scenario_from_dict as scenario_of

RUNS = settings(max_examples=200, deadline=None)
grids = ref.grids(p0_range)


@st.composite
def scenarios_with_long_grids(draw):
    """A scenario and an arithmetic grid lo + i·step of 50-400 points. If
    two offers cross at some p0 > 0, the grid puts one such crossing at a
    drawn index, so a run of any length ends there: the galloping search
    doubles about log2 L times for a run of L points, then bisects. The grid
    is a `p0_range` grid or the same points as a list."""
    doc = draw(ref.scenarios())
    step = draw(st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100))
    count = draw(st.integers(min_value=50, max_value=400))
    plants = ref.read(doc).plants
    # offers mc + (1 - phi)·p0 of two plants are equal at this p0
    crossings = sorted(x for x in {
        (q.marginal_cost - p.marginal_cost) / (q.phi - p.phi)
        for p in plants for q in plants if p.phi != q.phi
    } if x > 0)
    if crossings:
        at = draw(st.sampled_from(crossings))
        lo = max(at - draw(st.integers(min_value=0, max_value=count - 1)) * step, 0)
    else:
        lo = draw(st.fractions(min_value=0, max_value=40, max_denominator=4))
    grid = p0_range(lo, lo + (count - 1) * step, step)
    return doc, grid if draw(st.booleans()) else list(grid)


def assert_matches_reference(doc, grid):
    sweep = sweep_p0(scenario_of(doc), grid)
    assert (ref.sweep_rows(sweep), sweep.change_points) == ref.sweep(ref.read(doc), grid)
    return sweep


def assert_same_result_or_error(doc, grid):
    """The sweep, if it matches the reference; None if both reject the pool
    at some grid point, as capacity would (exit 1), with the same text."""
    try:
        ref.sweep(ref.read(doc), grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            sweep_p0(scenario_of(doc), grid)
        assert str(raised.value) == str(exc)
        return None
    return assert_matches_reference(doc, grid)


TOY_DOC = ref.toy()
TOY = scenario_of(TOY_DOC)
# The toy grid's merit order changes at these points of the 0:80:1/100 grid.
TOY_CHANGE_POINTS = [Fraction(x) for x in ("13.26", "40", "53.89", "55.09",
                                             "57.33", "63.07")]


class TestSweepMatchesPerPointClearing:
    @RUNS
    @given(ref.scenarios(), grids)
    def test_points_and_change_points_equal(self, doc, grid):
        sweep = assert_same_result_or_error(doc, grid)
        if sweep is not None:  # the per-point view, built from the runs
            assert sweep.points == ref.sweep_rows(sweep)

    @settings(max_examples=60, deadline=None)
    @given(scenarios_with_long_grids())
    def test_long_runs(self, case):
        assert_same_result_or_error(*case)

    def test_toy_grid_fine(self):
        assert_matches_reference(TOY_DOC, [Fraction(i, 4) for i in range(0, 321)])

    @pytest.mark.parametrize("p0", [Fraction(0), Fraction(13), Fraction(1325, 100), Fraction(80)])
    def test_one_point_grid(self, p0):
        assert len(assert_matches_reference(TOY_DOC, [p0]).runs) == 1

    @pytest.mark.parametrize("hi, starts", [("13.25", [0]), ("13.26", [0, 1326])])
    def test_run_ends_at_the_last_point(self, hi, starts):
        # up to 13.25 the first run fills the grid; at 13.26 a second run
        # starts at the last point
        grid = p0_range(Fraction(0), Fraction(hi), Fraction(1, 100))
        sweep = assert_matches_reference(TOY_DOC, grid)
        assert [run.start for run in sweep.runs] == starts

    def test_every_point_its_own_run(self):
        grid = [Fraction(0), *TOY_CHANGE_POINTS]
        sweep = assert_matches_reference(TOY_DOC, grid)
        assert [run.start for run in sweep.runs] == list(range(len(grid)))


def count_orders(monkeypatch):
    """Count the merit orders `sweep_p0` computes from here on."""
    calls = []
    order_at = analysis._order_at

    def counted(*args):
        calls.append(args)
        return order_at(*args)

    monkeypatch.setattr(analysis, "_order_at", counted)
    return calls


class TestSortsPerRun:
    """The run search sorts at most 2⌈log₂ L⌉ + 1 times for a run of L
    points after the first point's sort, never once per point."""

    def test_fine_toy_grid(self, monkeypatch):
        calls = count_orders(monkeypatch)
        grid = p0_range(Fraction(0), Fraction(80), Fraction(1, 100))
        sweep = sweep_p0(TOY, grid)
        assert sweep.change_points == tuple(TOY_CHANGE_POINTS)
        bound = 1 + len(sweep.runs) * (2 * (len(grid) - 1).bit_length() + 1)
        assert bound == 190
        assert len(calls) <= bound

    def test_every_point_its_own_run(self, monkeypatch):
        calls = count_orders(monkeypatch)
        grid = [Fraction(0), *TOY_CHANGE_POINTS]
        sweep_p0(TOY, grid)
        assert len(calls) == len(grid)


@st.composite
def near_grids(draw):
    """Non-negative grids, half of them strictly ascending, with repeats,
    descending pairs and neighbours within 1/10**k of each other over
    distinct denominators."""
    grid = []
    for x in draw(st.lists(st.fractions(min_value=0, max_value=100,
                                        max_denominator=50), min_size=1, max_size=8)):
        grid.append(x)
        eps = Fraction(1, draw(st.integers(min_value=2, max_value=10**30)))
        grid.extend(draw(st.sampled_from([[], [x], [x + eps], [x + eps, x]])))
    if draw(st.booleans()):
        grid = sorted(set(grid))
    return grid



class TestGridCheck:
    @RUNS
    @given(near_grids())
    def test_raises_iff_not_strictly_ascending(self, grid):
        if any(a >= b for a, b in zip(grid, grid[1:])):
            with pytest.raises(ValueError, match="strictly ascending"):
                sweep_p0(TOY, grid)
        else:
            assert tuple(sweep_p0(TOY, grid).grid) == tuple(grid)
