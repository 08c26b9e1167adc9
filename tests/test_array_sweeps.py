"""The battery's two whole sweeps as arrays, each against the loop it
replaced: the Burnside sum over the chain's element table against the
per-element sum, and the bitmask check of Jordan translate comparability
against the frozenset loop (both kept in ``oracles``)."""

from __future__ import annotations

import tracemalloc
from functools import cache

import pytest

from permlab import incidence
from permlab.config import DEFAULT_CAP
from permlab.errors import CapExceeded
from permlab.groups import GenGroup, cyclic_group, dihedral_group, order, symmetric_group
from permlab.incidence import _element_table, _fixed_subset_totals
from permlab.jordan import _jordan_translates
from permlab.suite import _corpus, _translate_comparability_problems
from permlab.wreath import wreath

import oracles

CORPUS = _corpus()
IDS = [name for name, _ in CORPUS]

# past the corpus: no point, one point, the identity alone, and degrees
# where a cycle type packed as (n + 1)**n would overflow int64 (n >= 16)
EXTRA = (
    ("degree_0", symmetric_group(0)),
    ("degree_1", symmetric_group(1)),
    ("trivial_5", GenGroup(5, ())),
    ("dihedral_16", dihedral_group(16)),
    ("cyclic_4_wr_cyclic_4", wreath(cyclic_group(4), cyclic_group(4))),
    ("dihedral_20", dihedral_group(20)),
)
GROUPS = dict(CORPUS + EXTRA)


@cache
def bfs_list(name: str):
    group = GROUPS[name]
    return oracles.bfs_elements(group.degree, group.generators, DEFAULT_CAP)


# the Burnside sum


@pytest.mark.parametrize("name", list(GROUPS))
def test_burnside_totals_equal_the_per_element_sum(name):
    group = GROUPS[name]
    kmax = group.degree
    expected = oracles.per_element_burnside_totals(bfs_list(name), kmax)
    assert _fixed_subset_totals(group, kmax) == expected


def test_extra_groups_reach_past_a_packed_key():
    assert {name: g.degree for name, g in EXTRA if (g.degree + 1) ** g.degree >= 2**63} == {
        "dihedral_16": 16,
        "cyclic_4_wr_cyclic_4": 16,
        "dihedral_20": 20,
    }


@pytest.mark.parametrize("name,group", EXTRA, ids=[name for name, _ in EXTRA])
def test_element_table_rows_are_the_bfs_elements_past_the_corpus(name, group):
    table = _element_table(group)
    assert table.dtype == "uint8" and table.shape == (order(group), group.degree)
    rows = [tuple(row) for row in table.tolist()]
    assert len(set(rows)) == len(rows)
    assert set(rows) == {g.images for g in bfs_list(name)}


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_cap_below_the_order_raises_before_any_table(name, group, monkeypatch):
    size = order(group)
    if size == 1:
        pytest.skip("no cap below the order")
    monkeypatch.setenv("PERMLAB_CAP", str(size - 1))
    with pytest.raises(CapExceeded) as expected:
        order(group)

    def unreachable(group):
        raise AssertionError("element table built past the cap")

    monkeypatch.setattr(incidence, "_element_table", unreachable)
    with pytest.raises(CapExceeded) as found:
        _fixed_subset_totals(group, group.degree)
    assert str(found.value) == str(expected.value)


def _no_table(group):
    raise AssertionError("element table built past the cell budget")


def test_a_table_past_the_cell_budget_is_refused_before_it_is_built(monkeypatch):
    # cap 100 admits |G| = 90, but not the 90 x 90 table: 8100 > 6400 cells
    group = cyclic_group(90)
    monkeypatch.setenv("PERMLAB_CAP", "100")
    monkeypatch.setattr(incidence, "_element_table", _no_table)
    with pytest.raises(CapExceeded, match=r"^8100 cells in a dense 90x90 matrix .* past cap 100;"):
        _fixed_subset_totals(group, 1)


@pytest.mark.parametrize("n", [235, 400, 800])
def test_power_steps_past_the_cell_budget_are_refused_before_any_table(n, monkeypatch):
    # the table fits the default budget; its n·n·(n - 1) power steps do not
    group = cyclic_group(n)
    steps = n * n * (n - 1)
    assert n * n <= DEFAULT_CAP * incidence.CELLS_PER_CAP < steps
    monkeypatch.setattr(incidence, "_element_table", _no_table)
    with pytest.raises(CapExceeded, match=rf"^{steps} power steps over a {n}x{n} element table"):
        _fixed_subset_totals(group, 1)


def test_power_steps_within_the_budget_still_count():
    group = cyclic_group(234)
    assert 234 * 234 * 233 <= DEFAULT_CAP * incidence.CELLS_PER_CAP
    assert incidence.orbit_count_inequality(group, 1) == (1, 1)


def test_burnside_sum_builds_no_wide_int64_array():
    group = dict(CORPUS)["symmetric_8"]
    rows = order(group)
    tracemalloc.start()
    try:
        _fixed_subset_totals(group, group.degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * group.degree * 8  # one |G| x n int64 array alone


# translate comparability


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_comparability_equals_the_frozenset_loop(name, group):
    catalog = [frozenset(a) for a in _jordan_translates(group, None)]
    found = _translate_comparability_problems(name, group, catalog)
    assert found == oracles.frozenset_translate_comparability(name, group, catalog)


@pytest.mark.parametrize(
    "name,injected",
    [("cyclic_2_wr_cyclic_3", {0, 2}), ("c2wrc2wrc2", {0, 2}), ("cyclic_3_wr_cyclic_3", {0, 3})],
)
def test_comparability_reports_an_injected_pair_like_the_loop(name, injected):
    group = dict(CORPUS)[name]
    catalog = [frozenset(a) for a in _jordan_translates(group, None)]
    middle = len(catalog) // 2
    doctored = catalog[:middle] + [frozenset(injected)] + catalog[middle:]
    expected = oracles.frozenset_translate_comparability(name, group, doctored)
    assert expected  # the injected set and the blocks it straddles
    assert _translate_comparability_problems(name, group, doctored) == expected
