"""The Jordan scan and the almost-regular decomposition read off the
pointwise-stabilizer lattice, against the support-table scan and the
element-list decomposition they replace (``tests/oracles.py``)."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import groups, jordan
from permlab.blocks import almost_regular_decomposition
from permlab.errors import CapExceeded
from permlab.fixtures import fixture
from permlab.groups import (
    GenGroup,
    _pointwise_stabilizer,
    clear_caches,
    enumerate_elements,
    is_transitive,
    symmetric_group,
)
from permlab.jordan import _jordan_scan, jordan_sets
from permlab.perms import Permutation, compose
from permlab.suite import _corpus

import oracles

CORPUS = list(_corpus())
IDS = [name for name, _ in CORPUS]
TRANSITIVE = [(name, g) for name, g in CORPUS if is_transitive(g)]
TRANSITIVE.append(("trivial_1", GenGroup(1, ())))


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_scan_equals_the_support_table_scan(name, group):
    n = group.degree
    expected = oracles.support_jordan_scan(n, group.generators)
    assert tuple(_jordan_scan(group, None, None)) == expected
    for m in range(2, n + 1):
        single = tuple(c for c in expected if len(c) == m)
        assert tuple(_jordan_scan(group, [m], None)) == single, m


@st.composite
def _groups_and_sizes(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    perms = st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    sizes = draw(st.none() | st.lists(st.integers(min_value=2, max_value=max(n, 2)), max_size=3))
    if sizes is not None and n < 2:
        sizes = []
    return GenGroup(n, tuple(gens)), sizes


@settings(deadline=None)
@given(_groups_and_sizes())
def test_scan_equals_the_support_table_scan_on_drawn_groups(case):
    group, sizes = case
    expected = oracles.support_jordan_scan(group.degree, group.generators, sizes)
    assert tuple(_jordan_scan(group, sizes, None)) == expected


def test_no_wanted_size_gives_no_jordan_set():
    s5 = symmetric_group(5)
    assert jordan_sets(s5, sizes=()) == ()
    assert jordan_sets(GenGroup(1, ()), sizes=None) == ()
    assert jordan_sets(symmetric_group(1)) == ()


@pytest.mark.parametrize("name", ["dihedral_6", "pg_2_2", "c2wrc2wrc2", "cyclic_2_wr_cyclic_6"])
def test_smallest_and_largest_size_together(name):
    group = dict(CORPUS)[name]
    n = group.degree
    expected = oracles.support_jordan_scan(n, group.generators, [2, n])
    assert tuple(w.points for w in jordan_sets(group, sizes=[2, n])) == expected


def test_the_cap_is_checked_before_the_walk():
    s12 = symmetric_group(12)
    for sizes in (None, ()):
        with pytest.raises(CapExceeded, match="order 479001600, past cap"):
            jordan_sets(s12, sizes=sizes)


def test_fixed_points_prune_the_walk(monkeypatch):
    tower = dict(CORPUS)["cyclic_2_wr_cyclic_6"]
    visited = []
    real = jordan._pointwise_stabilizer

    def counted(group, points):
        visited.append(points)
        return real(group, points)

    monkeypatch.setattr(jordan, "_pointwise_stabilizer", counted)
    list(_jordan_scan(tower, None, None))
    subsets = sum(math.comb(12, m) for m in range(2, 13))
    assert len(visited) == len(set(visited))
    # 187 of the 4083 complements; children that may pass a fixed point visit 301
    assert len(visited) < subsets // 16


@pytest.mark.parametrize("name,group", TRANSITIVE, ids=[name for name, _ in TRANSITIVE])
def test_decomposition_equals_the_element_list_decomposition(name, group):
    expected = oracles.support_almost_regular_decomposition(group)
    found = almost_regular_decomposition(group)
    assert found.m == expected.m
    assert found.phi == expected.phi
    assert found.m0 == expected.m0
    assert found.n_generators == expected.n_generators
    assert found.rho.key() == expected.rho.key()
    assert found.rho.blocks == expected.rho.blocks
    assert found.quotient_stab_order == expected.quotient_stab_order
    assert found.almost_regular == expected.almost_regular


def test_catalog_and_decomposition_never_enumerate_the_group(monkeypatch):
    walk = groups._item_walk

    def no_element_walk(start, act, generators, cap):
        if act is compose:
            raise AssertionError("the group's elements were enumerated")
        return walk(start, act, generators, cap)

    s8 = fixture("symmetric_8").group
    plane = fixture("pg_2_3").group
    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", no_element_walk)
    with pytest.raises(AssertionError):
        enumerate_elements(s8)
    catalog = jordan_sets(s8)
    assert len(catalog) == 2**8 - 1 - 8
    assert [w.proper for w in catalog].count(True) == 0
    assert len(jordan_sets(plane)) == 27
    dec = almost_regular_decomposition(s8)
    assert (dec.m, dec.phi, dec.n_generators) == (7, (0, 1, 2, 3, 4, 5, 6), ())
    assert dec.rho.is_discrete and dec.quotient_stab_order == 5040


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_fixed_parent_shortcut_equals_the_element_filter(name, group):
    """Every |S| <= 3 whose parent G_(S minus its last point) fixes that
    point is answered by the parent itself, with the filtered elements."""
    n = group.degree
    members = set(enumerate_elements(group))
    shortcuts = 0
    for points in (c for m in range(1, 4) for c in itertools.combinations(range(n), m)):
        if points[-1] == len(points) - 1:
            continue  # a base prefix, read off the group's own chain
        parent = _pointwise_stabilizer(group, points[:-1])[0]
        if any(g.images[points[-1]] != points[-1] for g in parent.generators):
            continue
        shortcuts += 1
        stab, size = _pointwise_stabilizer(group, points)
        expected = oracles.stabilizer_filter(members, points)
        assert stab is parent, points
        assert size == len(expected), points
        assert set(enumerate_elements(stab)) == expected, points
    if name.startswith("cyclic"):
        assert shortcuts
