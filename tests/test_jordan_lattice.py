"""The Jordan scan, the span table and the almost-regular decomposition
read off the pointwise-stabilizer lattice, against the support-table scan,
the sorted-complement walk, the row-by-row span table and the element-list
decomposition they replace (``tests/oracles.py``); and the battery's
witness verdicts, taken once per G-orbit, against each set's own."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import groups, jordan, suite
from permlab.blocks import almost_regular_decomposition, is_primitive
from permlab.errors import CapExceeded
from permlab.fixtures import fixture
from permlab.groups import (
    GenGroup,
    _pointwise_stabilizer,
    _stabilizer_in,
    clear_caches,
    cyclic_group,
    dihedral_group,
    enumerate_elements,
    homogeneity_degree,
    is_transitive,
    symmetric_group,
    transitivity_degree,
)
from permlab.jordan import _jordan_translates, is_jordan, jordan_sets, span_geometry
from permlab.perms import Permutation, compose
from permlab.suite import _corpus, _orbit_verdict

import oracles

CORPUS = list(_corpus())
IDS = [name for name, _ in CORPUS]
TRANSITIVE = [(name, g) for name, g in CORPUS if is_transitive(g)]
TRANSITIVE.append(("trivial_1", GenGroup(1, ())))


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_scan_equals_the_support_table_scan(name, group):
    n = group.degree
    expected = oracles.support_jordan_scan(n, group.generators)
    assert tuple(_jordan_translates(group, None, None)) == expected
    for m in range(2, n + 1):
        single = tuple(c for c in expected if len(c) == m)
        assert tuple(_jordan_translates(group, [m], None)) == single, m


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
    assert tuple(_jordan_translates(group, sizes, None)) == expected


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


def _relabeled(group: GenGroup, seed: int) -> GenGroup:
    """The group conjugated by a shuffle of its points."""
    n = group.degree
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    generators = []
    for g in group.generators:
        images = [0] * n
        for p in range(n):
            images[labels[p]] = labels[g.images[p]]
        generators.append(Permutation(tuple(images)))
    return GenGroup(n, tuple(generators))


RELABELED = [
    (f"{name}_seed{seed}", _relabeled(group, seed)) for name, group in CORPUS for seed in (1, 2, 3)
]


@pytest.mark.parametrize("name,group", RELABELED, ids=[name for name, _ in RELABELED])
def test_walk_equals_the_sorted_complement_scan(name, group):
    n = group.degree
    expected = oracles.sorted_complement_jordan_scan(group, None, None)
    assert tuple(_jordan_translates(group, None, None)) == expected
    for m in range(2, n + 1):
        single = tuple(c for c in expected if len(c) == m)
        assert tuple(_jordan_translates(group, [m], None)) == single, m


@st.composite
def _intransitive_groups_and_sizes(draw):
    """Groups that keep each of up to three drawn parts of the points and
    fix the rest, so they have several orbits and usually fixed points."""
    n = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = [[p for p in range(n) if labels[p] == part] for part in (1, 2, 3)]
    generators = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        images = list(range(n))
        for part in parts:
            for p, q in zip(part, draw(st.permutations(part))):
                images[p] = q
        generators.append(Permutation(tuple(images)))
    sizes = draw(st.none() | st.lists(st.integers(min_value=2, max_value=max(n, 2)), max_size=3))
    if sizes is not None and n < 2:
        sizes = []
    return GenGroup(n, tuple(generators)), sizes


@settings(deadline=None)
@given(_intransitive_groups_and_sizes())
def test_walk_equals_the_sorted_complement_scan_on_intransitive_groups(case):
    group, sizes = case
    expected = oracles.sorted_complement_jordan_scan(group, sizes, None)
    assert tuple(_jordan_translates(group, sizes, None)) == expected


def _walk_work(group, monkeypatch):
    """The closed complements the walk tests for one orbit and the ones it
    reaches, and the fresh chains it fills, from cold caches."""
    tested = []
    reached = []
    monkeypatch.undo()
    connected = jordan._connected_inside
    least_stabilizer = jordan._least_stabilizer

    def counted_test(inside, members):
        moved = tuple(p for p in range(group.degree) if any(g.images[p] != p for g in inside.generators))
        assert moved == members
        tested.append(members)
        return connected(inside, members)

    def counted_child(*args):
        child = least_stabilizer(*args)
        reached.append(frozenset(p for p in range(group.degree) if all(g.images[p] == p for g in child[0].generators)))
        return child

    monkeypatch.setattr(jordan, "_connected_inside", counted_test)
    monkeypatch.setattr(jordan, "_least_stabilizer", counted_child)
    clear_caches()
    tuple(_jordan_translates(group, None, None))
    return tested, set(reached), _stabilizer_in.cache_info().misses


def test_connected_inside_is_called_once_per_tested_closed_complement(monkeypatch):
    # the benchmark's tracer counts the scan's candidates through this global
    plane = fixture("pg_2_3").group
    tested, _, _ = _walk_work(plane, monkeypatch)
    assert len(tested) == len(set(tested)) == 8
    # the sorted-complement walk tested 456 of the 1378 complements it visited
    tower = dict(CORPUS)["cyclic_2_wr_cyclic_6"]
    tested, _, _ = _walk_work(tower, monkeypatch)
    assert len(tested) == len(set(tested)) == 28


def test_fixed_points_prune_the_walk(monkeypatch):
    # the nodes are the closed complements, one child per orbit of a node
    plane = fixture("pg_2_3").group
    _, reached, misses = _walk_work(plane, monkeypatch)
    # 1378 complements visited and 754 fresh chains in the sorted-complement walk
    assert (len(reached), misses) == (8, 16)
    tower = dict(CORPUS)["cyclic_2_wr_cyclic_6"]
    _, reached, misses = _walk_work(tower, monkeypatch)
    # 187 complements visited and 57 fresh chains in the sorted-complement walk
    assert (len(reached), misses) == (31, 71)
    _, _, misses = _walk_work(_relabeled(plane, 1), monkeypatch)
    assert misses <= 25


@pytest.mark.parametrize(
    "name,closed,levels",
    [("symmetric_8", (1, 2, 3, 4, 5, 6), 7), ("alternating_8", (1, 2, 3, 4, 5, 8), 6)],
)
def test_the_walk_reads_base_prefixes_off_the_chain(name, closed, levels, monkeypatch):
    # G -> G_0 -> G_(0,1) -> ...: each node has one orbit, through its
    # least moved point, so every child is read off the group's own chain
    # (A8's G_(0..5) is trivial and fixes everything)
    group = fixture(name).group
    tested, reached, misses = _walk_work(group, monkeypatch)
    assert misses == 0 and _stabilizer_in.cache_info().hits == 0
    assert reached == {frozenset(range(k)) for k in closed}
    assert tested == [tuple(range(k, 8)) for k in range(levels)]


@pytest.mark.parametrize("name,group", TRANSITIVE, ids=[name for name, _ in TRANSITIVE])
def test_decomposition_equals_the_element_list_decomposition(name, group):
    expected = oracles.support_almost_regular_decomposition(group)
    found = almost_regular_decomposition(group)
    assert found.m == expected.m
    assert found.phi == expected.phi
    assert found.m0 == expected.m0
    assert found.n_generators == expected.n_generators
    assert found.rho.blocks == expected.rho.blocks
    assert found.quotient_stab_order == expected.quotient_stab_order
    assert found.almost_regular == expected.almost_regular


def test_catalog_and_decomposition_never_enumerate_the_group(monkeypatch):
    walk = groups._item_walk

    def no_element_walk(start, act, generators, cap, words=None):
        if act is compose:
            raise AssertionError("the group's elements were enumerated")
        return walk(start, act, generators, cap, words)

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


# the span table, one span per G-orbit

# the battery's four closure audits, at their size caps
AUDITS = {"pg_2_3": 2, "ag_2_3": 2, "pg_2_2": 3, "ag_2_2": 3}
SPAN_CASES = CORPUS + [(f"{name}_seed1", _relabeled(group, 1)) for name, group in CORPUS]


@pytest.mark.parametrize("name,group", SPAN_CASES, ids=[name for name, _ in SPAN_CASES])
def test_span_table_equals_one_span_per_row(name, group):
    size_cap = AUDITS.get(name.removesuffix("_seed1"), 1)
    expected = oracles.rowwise_span_table(group, size_cap)
    assert span_geometry(group, size_cap).table == expected


@pytest.mark.parametrize(
    "name,rows,spans", [("pg_2_3", 378, 5), ("ag_2_3", 130, 5), ("pg_2_2", 99, 7), ("ag_2_2", 16, 5)]
)
def test_span_table_runs_one_span_per_orbit(name, rows, spans, monkeypatch):
    # row by row, the table ran one span per row
    calls = []
    span = jordan.span

    def counted_span(group, points, cap=None):
        calls.append(tuple(points))
        return span(group, points, cap)

    monkeypatch.setattr(jordan, "span", counted_span)
    geometry = span_geometry(fixture(name).group, AUDITS[name])
    assert len(geometry.table) == rows
    assert len(calls) == len(set(calls)) == spans


# the battery's witness verdicts, once per G-orbit


def _side_by_side(left: GenGroup, right: GenGroup) -> GenGroup:
    """left on the first points and right on the rest, independently."""
    n = left.degree + right.degree
    generators = [Permutation(g.images + tuple(range(left.degree, n))) for g in left.generators]
    generators += [
        Permutation(tuple(range(left.degree)) + tuple(left.degree + p for p in g.images))
        for g in right.generators
    ]
    return GenGroup(n, tuple(generators))


# no corpus group has two G-orbits of Jordan sets of one size; these do,
# and their witnesses differ in transitivity (S3, C3) or primitivity (S4, D4)
TWO_ORBITS = [
    ("s3_beside_c3", _side_by_side(symmetric_group(3), cyclic_group(3))),
    ("s4_beside_d4", _side_by_side(symmetric_group(4), dihedral_group(4))),
]
TWO_ORBITS += [(f"{name}_seed1", _relabeled(group, 1)) for name, group in TWO_ORBITS]
VERDICT_CASES = SPAN_CASES + TWO_ORBITS


@pytest.mark.parametrize("name,group", VERDICT_CASES, ids=[name for name, _ in VERDICT_CASES])
def test_orbit_verdicts_equal_each_sets_own_verdicts(name, group):
    found = jordan_sets(group)
    witnesses = {frozenset(w.points): w for w in found}
    memo: dict = {}
    for s, w in witnesses.items():
        own = w.witness_group
        assert is_transitive(own), w.points
        assert _orbit_verdict(memo, witnesses, is_primitive, s) == is_primitive(own), w.points
        for k in range(1, len(s) + 1):
            got = _orbit_verdict(memo, witnesses, transitivity_degree, s, k)
            assert got == transitivity_degree(own, k), (w.points, k)
        got = _orbit_verdict(memo, witnesses, homogeneity_degree, s, 2)
        assert got == homogeneity_degree(own, 2), w.points
    representatives = {w.representative for w in found}
    assert len(memo) == sum(2 + len(a) for a in representatives)


@pytest.mark.parametrize(
    "name,group", CORPUS + TWO_ORBITS, ids=IDS + [name for name, _ in TWO_ORBITS]
)
def test_each_witness_names_its_orbits_representative(name, group):
    found = jordan_sets(group)
    by_points = {w.points: w for w in found}
    orbits = oracles.orbits_on(list(group.generators), [frozenset(a) for a in by_points])
    orbit_of = {s: o for o in orbits for s in o}
    for w in found:
        a = w.representative
        assert by_points[a].representative == a, w.points
        assert frozenset(w.points) in orbit_of[frozenset(a)], w.points
        assert is_jordan(group, w.points).representative == w.points
        other = replace(w, representative=tuple(reversed(a)))
        assert other == w and hash(other) == hash(w)
        assert "representative" not in repr(w)
    assert len({w.representative for w in found}) == len(orbits)


def test_battery_tests_primitivity_once_per_representative(monkeypatch):
    catalogs = []
    catalog = suite.jordan_sets

    def kept_catalog(group, sizes=None, cap=None):
        catalogs.append(catalog(group, sizes, cap))
        return catalogs[-1]

    # the catalog and set whose own witness group this is, if a representative
    def representative_of(group):
        return next(
            (
                (i, w.points)
                for i, found in enumerate(catalogs)
                for w in found
                if w.witness_group is group and w.representative == w.points
            ),
            None,
        )

    tested = []
    primitive = suite.is_primitive

    def counted_is_primitive(group):
        tested.append(representative_of(group))
        return primitive(group)

    monkeypatch.setattr(suite, "jordan_sets", kept_catalog)
    monkeypatch.setattr(suite, "is_primitive", counted_is_primitive)
    (result,) = suite.run_battery(7, "jordan")
    assert result.passed
    assert None not in tested
    # one test per G-orbit that the sample and the unions reach
    assert len(tested) == len(set(tested)) == 112
