"""Pointwise, point and setwise stabilizers read off a stabilizer chain,
and the Jordan fixpoint built on them, against the element-list filter,
the Schreier-generator stabilizer and the support-table fixpoint they
replace (``tests/oracles.py``)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import groups
from permlab.blocks import congruences
from permlab.errors import CapExceeded, OutOfRange, PointOutOfRange
from permlab.fixtures import fixture
from permlab.groups import (
    GenGroup,
    _Chain,
    _pointwise_stabilizer,
    clear_caches,
    element_set,
    enumerate_elements,
    order,
    point_stabilizer,
    pointwise_stabilizer,
    setwise_stabilizer,
    symmetric_group,
)
from permlab.jordan import (
    _jordan_translates,
    is_jordan,
    maximal_jordan_avoiding,
    span,
    span_geometry,
)
from permlab.perms import Permutation, compose
from permlab.suite import _corpus

import oracles

CORPUS = list(_corpus())
IDS = [name for name, _ in CORPUS]


def _fixed_masks(elements) -> dict[Permutation, int]:
    return {g: sum(1 << p for p, q in enumerate(g.images) if p == q) for g in elements}


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_pointwise_stabilizer_equals_the_element_filter(name, group):
    n = group.degree
    fixed = _fixed_masks(enumerate_elements(group))
    small = [c for m in range(4) for c in itertools.combinations(range(n), m)]
    complements = [
        tuple(p for p in range(n) if p not in combo)
        for combo in tuple(_jordan_translates(group, None))
    ]
    for points in dict.fromkeys(small + complements):
        mask = sum(1 << p for p in points)
        expected = {g for g, m in fixed.items() if not mask & ~m}
        stab = pointwise_stabilizer(group, points)
        assert set(enumerate_elements(stab)) == expected, points
        assert _pointwise_stabilizer(group, points)[1] == len(expected), points


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_point_stabilizer_equals_the_schreier_generator_group(name, group):
    for alpha in range(group.degree):
        schreier = oracles.schreier_point_stabilizer(group.degree, group.generators, alpha)
        expected = element_set(GenGroup(group.degree, tuple(schreier)))
        assert element_set(point_stabilizer(group, alpha)) == expected, alpha


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_jordan_fixpoint_equals_the_support_table_fixpoint(name, group):
    n = group.degree
    edges = oracles.support_edges(enumerate_elements(group))
    for avoid in (c for m in range(3) for c in itertools.combinations(range(n), m)):
        expected = oracles.support_maximal_jordan_avoiding(edges, n, avoid)
        assert maximal_jordan_avoiding(group, avoid) == expected, avoid
        covered = set().union(*expected)
        assert span(group, avoid) == tuple(p for p in range(n) if p not in covered)
        for seed in range(n):
            if seed in avoid:
                continue
            assert maximal_jordan_avoiding(
                group, avoid, seed=seed
            ) == oracles.support_maximal_jordan_avoiding(edges, n, avoid, seed), (avoid, seed)


@st.composite
def _groups_and_points(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    perms = st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    points = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n, unique=True))
    return GenGroup(n, tuple(gens)), points


@settings(deadline=None)
@given(_groups_and_points())
def test_early_stop_gives_the_filtered_stabilizer(case):
    group, points = case
    members = oracles.closure(list(group.generators))
    # every prefix is the parent of the next stabilizer in the recursion
    ordered = tuple(sorted(points))
    for k in range(len(ordered) + 1):
        expected = oracles.stabilizer_filter(members, ordered[:k])
        stab, size = _pointwise_stabilizer(group, ordered[:k])
        assert size == len(expected)
        assert set(oracles.bfs_elements(group.degree, stab.generators, size)) == expected


def _schreier_checks(monkeypatch) -> list[int]:
    calls: list[int] = []
    check = _Chain._schreier_check

    def counted(self, level):
        calls.append(level)
        return check(self, level)

    monkeypatch.setattr(_Chain, "_schreier_check", counted)
    return calls


def test_a_known_order_stops_the_schreier_checks(monkeypatch):
    s7 = symmetric_group(7)
    calls = _schreier_checks(monkeypatch)
    base = (3, 0, 1, 2, 4, 5, 6)
    unbounded = _Chain(7, base)
    for g in s7.generators:
        unbounded.extend(g.images)
    full = len(calls)
    calls.clear()
    bounded = _Chain(7, base, 5040)
    for g in s7.generators:
        bounded.extend(g.images)
    assert bounded.order() == unbounded.order() == 5040
    assert len(calls) < full
    assert bounded.orbit_lengths() == unbounded.orbit_lengths()


def test_pointwise_stabilizer_keeps_the_cap(monkeypatch):
    s6 = symmetric_group(6)
    monkeypatch.setenv("PERMLAB_CAP", "720")
    assert order(pointwise_stabilizer(s6, [0])) == 120
    monkeypatch.setenv("PERMLAB_CAP", "719")
    with pytest.raises(CapExceeded, match="cap 719"):
        pointwise_stabilizer(s6, [0])
    with pytest.raises(CapExceeded, match="cap 719"):
        maximal_jordan_avoiding(s6, [0], seed=0)
    monkeypatch.setenv("PERMLAB_CAP", "720")
    with pytest.raises(OutOfRange):
        maximal_jordan_avoiding(s6, [0], seed=0)
    for function, arg in (
        (point_stabilizer, 6),
        (pointwise_stabilizer, [1, 6]),
        (point_stabilizer, -1),
        (setwise_stabilizer, [-1]),
        (setwise_stabilizer, [0, 6]),
    ):
        with pytest.raises(PointOutOfRange):
            function(s6, arg)


def test_spans_and_witnesses_never_enumerate_the_group(monkeypatch):
    walk = groups._item_walk

    def no_element_walk(start, act, generators, cap, words=None):
        if act is compose:
            raise AssertionError("the group's elements were enumerated")
        return walk(start, act, generators, cap, words)

    def never(*args):
        raise AssertionError("a subgroup was built from an element list")

    s8 = fixture("symmetric_8").group
    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", no_element_walk)
    monkeypatch.setattr(groups, "subgroup_from_elements", never)
    with pytest.raises(AssertionError):
        enumerate_elements(s8)
    assert order(setwise_stabilizer(s8, [0, 1, 2])) == 6 * 120
    assert order(setwise_stabilizer(s8, range(8))) == 40320
    assert span(s8, [0, 1]) == (0, 1)
    assert maximal_jordan_avoiding(s8, [0, 1]) == ((2, 3, 4, 5, 6, 7),)
    assert maximal_jordan_avoiding(s8, [0], seed=5) == (1, 2, 3, 4, 5, 6, 7)
    witness = is_jordan(s8, [2, 3, 4, 5, 6, 7])
    assert witness is not None and not witness.proper
    assert order(witness.witness_group) == 720
    assert order(pointwise_stabilizer(s8, [0, 1, 2])) == 120
    assert len(span_geometry(s8, size_cap=1).table) == 1 + 8 + 28


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_setwise_stabilizer_of_every_block_equals_the_element_filter(name, group):
    for rho in congruences(group):
        if rho.is_discrete or rho.is_universal:
            continue
        for block in rho.blocks:
            expected = element_set(oracles.filtered_setwise_stabilizer(group, block))
            assert element_set(setwise_stabilizer(group, block)) == expected, block


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_setwise_stabilizer_of_random_subsets_equals_the_element_filter(name, group):
    rng = random.Random(name)
    n = group.degree
    subsets = [(), tuple(range(n))]
    subsets += [tuple(rng.sample(range(n), rng.randrange(1, n))) for _ in range(6)]
    for points in subsets:
        expected = element_set(oracles.filtered_setwise_stabilizer(group, points))
        assert element_set(setwise_stabilizer(group, points)) == expected, points


def test_setwise_stabilizer_of_a_set_no_rotation_keeps():
    c7 = fixture("cyclic_7").group
    stab = setwise_stabilizer(c7, [0, 1, 3])
    assert stab.generators == ()
    assert element_set(stab) == element_set(oracles.filtered_setwise_stabilizer(c7, [0, 1, 3]))


def test_setwise_stabilizer_checks_the_order_against_the_cap(monkeypatch):
    s6 = symmetric_group(6)
    monkeypatch.setenv("PERMLAB_CAP", "720")
    assert order(setwise_stabilizer(s6, [0, 1])) == 48
    monkeypatch.setenv("PERMLAB_CAP", "719")
    with pytest.raises(CapExceeded) as info:
        setwise_stabilizer(s6, [0, 1])
    assert str(info.value) == (
        "group of degree 6 with 2 generators has order 720, past cap 719;"
        " PERMLAB_CAP=720 would suffice"
    )

