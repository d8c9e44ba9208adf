"""The clearing path works per distinct value: a scenario of many plants that
share a few values builds as many Fractions as a small one, and the
per-document memos that make it so never mix up two literals or two loads."""

import itertools
import json
from fractions import Fraction

import pytest

from flexmarket.cli import main
from flexmarket.scenario import InvalidNumberError, load_scenario

# 18 (start-up, cost, capacity) combinations, as JSON literal text
POOL = list(itertools.product(['"inf"', "0.5", "2"], ["10", "20.5", "35"], ["5", "7.5"]))


def pooled_scenario(path, n):
    """n plants cycling through POOL; demand is about half the capacity."""
    rows = [f'{{"id": "p{i}", "start_up_time_h": {h}, '
            f'"marginal_cost_eur_per_mwh": {mc}, "capacity_mw": {cap}}}'
            for i, (h, mc, cap) in zip(range(n), itertools.cycle(POOL))]
    path.write_text('{"plants": [' + ",\n".join(rows) + '], "market": '
                    f'{{"p0_eur_per_mwh": 40, "demand_mw": {3 * n + 0.5}}}}}')
    return path


def fractions_built(monkeypatch, argv):
    """How many Fractions `main(argv)` constructs."""
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting))
        assert main(argv) == 0
    return built


@pytest.mark.parametrize("command", [["validate"], ["clear", "--format", "json"]])
def test_fractions_built_do_not_grow_with_the_plants(monkeypatch, tmp_path, capsys, command):
    counts = []
    for n in (200, 2000):
        path = pooled_scenario(tmp_path / f"pooled-{n}.json", n)
        out = ["--output", str(tmp_path / "out")] if command[0] == "clear" else []
        counts.append(fractions_built(monkeypatch, [command[0], str(path), *command[1:], *out]))
    capsys.readouterr()
    assert counts[0] == counts[1]


def distinct_scenario(path, n):
    """n plants, each with its own decimal cost and start-up time, a third of
    them eligible for the reserve; demand is about a fifth of the capacity."""
    rows = [f'{{"id": "p{i}", "start_up_time_h": {i % 3 * 1.5 + i / 10**4:.4f}, '
            f'"marginal_cost_eur_per_mwh": {i / 8:.3f}, "capacity_mw": {5 + i % 11}}}'
            for i in range(n)]
    path.write_text('{"plants": [' + ",\n".join(rows) + '], "market": '
                    f'{{"p0_eur_per_mwh": 40, "demand_mw": {2 * n + 0.5}}}}}')
    return path


def test_capacity_builds_no_fraction_per_plant(monkeypatch, tmp_path, capsys):
    # distinct values leave the memos nothing to share: the count stays flat
    # only if the clearing and the settlement run on int pairs
    counts = []
    for n in (200, 200, 2000):  # the first call also imports the modules it runs
        path = distinct_scenario(tmp_path / f"distinct-{n}.json", n)
        counts.append(fractions_built(monkeypatch, ["capacity", str(path), "--format", "json",
                                                    "--output", str(tmp_path / "out")]))
        assert json.loads((tmp_path / "out").read_text())["payments"]  # a reserve is paid
    capsys.readouterr()
    assert counts[1] == counts[2]


@pytest.mark.parametrize("field, number, flag", [
    (field, number, flag)
    for field in ("start_up_time_h", "marginal_cost_eur_per_mwh", "capacity_mw")
    for number, flag in ((1, True), (0, False)) if (field, number) != ("capacity_mw", 0)])
def test_a_json_boolean_is_no_number_after_its_equal_int(tmp_path, field, number, flag):
    # True == 1 and False == 0: a memo keyed on the raw value must not take the
    # boolean for the int parsed before it
    plants = [{"id": pid, "start_up_time_h": 2, "marginal_cost_eur_per_mwh": 3,
               "capacity_mw": 4} for pid in "ab"]
    plants[0][field], plants[1][field] = number, flag
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"plants": plants}))
    with pytest.raises(InvalidNumberError) as error:
        load_scenario(path)
    assert str(error.value) == f"plants[1].{field}: expected a number, got {flag}"


def test_equal_values_in_any_spelling_load_equal(tmp_path):
    spellings = ['"0.5"', "0.5", "0.50", '"1/2"']
    rows = [f'{{"id": "p{i}", "start_up_time_h": {s}, "marginal_cost_eur_per_mwh": {s}, '
            f'"capacity_mw": {s}}}' for i, s in enumerate(spellings)]
    path = tmp_path / "half.json"
    path.write_text('{"plants": [' + ", ".join(rows) + '], "market": {"demand_mw": 1}}')
    plants = load_scenario(path).plants
    half = Fraction(1, 2)
    assert all(p.start_up_time.hours == p.marginal_cost == p.capacity == half for p in plants)


def test_equal_start_up_times_share_one(tmp_path):
    plants = load_scenario(pooled_scenario(tmp_path / "pooled.json", 40)).plants
    assert len({id(p.start_up_time) for p in plants}) == 3


def test_loads_of_files_that_differ_only_in_values_are_independent(tmp_path):
    first, second = (pooled_scenario(tmp_path / f"{name}.json", 40)
                     for name in ("first", "second"))
    second.write_text(first.read_text().replace("20.5", "21.25").replace('"inf"', "0.75"))
    a, b, again = load_scenario(first), load_scenario(second), load_scenario(first)
    assert a == again
    costs = {p.marginal_cost for p in b.plants}
    assert costs == {10, Fraction(85, 4), 35}
    assert {p.start_up_time.hours for p in b.plants} == {Fraction(3, 4), Fraction(1, 2), 2}
    assert {p.marginal_cost for p in a.plants} == {10, Fraction(41, 2), 35}
    assert {p.start_up_time.hours for p in a.plants} == {None, Fraction(1, 2), 2}
