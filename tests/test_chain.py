"""The stabilizer chain against enumeration and brute-force references:
orders, membership, transitivity degrees, greedy generating sets, the cap
pre-check, and the bounded caches."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import groups
from permlab.blocks import suborbits
from permlab.config import DEFAULT_CAP
from permlab.errors import AxiomsFailed, CapExceeded
from permlab.fixtures import fixture
from permlab.groups import (
    GenGroup,
    _chain,
    _reduce_generators,
    clear_caches,
    contains,
    cyclic_group,
    enumerate_elements,
    order,
    symmetric_group,
    transitivity_degree,
)
from permlab.jordan import jordan_sets
from permlab.perms import Permutation, compose
from permlab.suite import _corpus
from permlab.wreath import wreath_tower

import oracles

CORPUS = list(_corpus())
TOWERS = [
    (f"tower_{'_'.join(str(g.degree) for g in chain)}", wreath_tower(chain))
    for length in (2, 3)
    for chain in itertools.product((cyclic_group(2), cyclic_group(3)), repeat=length)
    if math.prod(g.degree for g in chain) <= 12
]
ORDER_CASES = CORPUS + TOWERS


@pytest.mark.parametrize("name,group", ORDER_CASES, ids=[name for name, _ in ORDER_CASES])
def test_chain_order_equals_the_enumeration_length(name, group):
    assert _chain(group).order() == len(enumerate_elements(group))


@st.composite
def _groups_and_candidates(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    perms = st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))
    gens = draw(st.lists(perms, min_size=1, max_size=2))
    word = draw(st.lists(st.sampled_from(gens), max_size=6))
    member = Permutation(tuple(range(n)))
    for g in word:
        member = compose(member, g)
    return gens, [member] + draw(st.lists(perms, min_size=1, max_size=4))


@given(_groups_and_candidates())
def test_contains_agrees_with_the_closure_oracle(case):
    gens, candidates = case
    group = GenGroup(gens[0].degree, tuple(gens))
    closure = oracles.closure(gens)
    assert order(group) == len(closure)
    for f in candidates:
        assert contains(group, f) == (f in closure)


def _outcome(fn, *args):
    """A function's value, or the fact that it stopped at the cap."""
    try:
        return fn(*args)
    except (CapExceeded, OverflowError):
        return "cap"


@pytest.mark.parametrize("name,group", CORPUS, ids=[name for name, _ in CORPUS])
def test_transitivity_degree_matches_the_tuple_walk(name, group):
    n, gens = group.degree, group.generators
    for kmax in range(n + 1):
        assert transitivity_degree(group, kmax) == oracles.tuple_walk_transitivity_degree(
            n, gens, kmax, DEFAULT_CAP
        )
    # the tuple-orbit sizes the walk meets, each as the cap and one below it
    sizes = []
    for k in range(1, n + 1):
        sizes.append(len(oracles.tuple_orbit(gens, k)))
        if sizes[-1] != math.perm(n, k):
            break
    for cap in {c for size in sizes for c in (size, size - 1) if c > 0}:
        stop = next((k for k, size in enumerate(sizes, 1) if size > cap), None)
        kmaxes = {n} if stop is None else {stop - 1, stop, n}
        for kmax in kmaxes:
            assert _outcome(transitivity_degree, group, kmax, cap) == _outcome(
                oracles.tuple_walk_transitivity_degree, n, gens, kmax, cap
            ), (kmax, cap)
        if stop is not None:
            assert _outcome(transitivity_degree, group, stop, cap) == "cap"
            assert _outcome(transitivity_degree, group, stop - 1, cap) != "cap"


REDUCE_CASES = ["pg_2_2", "ag_2_3", "symmetric_5"]


@pytest.mark.parametrize("name", REDUCE_CASES)
def test_reduce_generators_matches_the_bfs_closure_scan(name):
    group = fixture(name).group
    n = group.degree
    elements = enumerate_elements(group)
    lists = [elements]
    for witness in jordan_sets(group):
        outside = [p for p in range(n) if p not in witness.points]
        lists.append(tuple(g for g in elements if all(g.images[p] == p for p in outside)))
    for keep in lists:
        assert _reduce_generators(keep, n) == oracles.bfs_reduce_generators(keep, n)


def test_reduce_generators_raises_when_the_closure_outgrows_the_list():
    c5 = cyclic_group(5)
    not_closed = enumerate_elements(c5)[:3]
    with pytest.raises(CapExceeded):
        _reduce_generators(not_closed, 5)
    with pytest.raises(OverflowError):
        oracles.bfs_reduce_generators(not_closed, 5)


def test_enumeration_past_the_cap_builds_no_element(monkeypatch):
    def never(*args):
        raise AssertionError("elements built before the cap check")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.setattr(groups, "_item_walk", never)
    with pytest.raises(CapExceeded) as caught:
        enumerate_elements(symmetric_group(12))
    assert str(caught.value) == (
        "group of degree 12 with 2 generators has order 479001600, past cap 200000;"
        " PERMLAB_CAP=479001600 would suffice"
    )


def test_order_and_contains_keep_the_cap():
    s6 = symmetric_group(6)
    assert order(s6, cap=720) == 720
    assert contains(s6, s6.generators[0], cap=720)
    for query in (order, lambda g, cap: contains(g, g.generators[0], cap)):
        with pytest.raises(CapExceeded, match="cap 719"):
            query(s6, cap=719)


def test_a_mismatched_enumeration_raises(monkeypatch):
    c7 = cyclic_group(7)
    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", lambda *args: iter([groups.identity(7)]))
    with pytest.raises(AxiomsFailed):
        groups._bfs_elements(c7, 100)


def test_permutation_constructor_still_validates():
    with pytest.raises(ValueError):
        Permutation((0, 0))


def test_cleared_caches_recompute_the_same_values():
    g = fixture("pg_2_3").group
    before = (order(g), enumerate_elements(g), suborbits(g, 0))
    assert _chain.cache_info().currsize > 0
    clear_caches()
    for cached in (_chain, groups._bfs_elements, suborbits):
        assert cached.cache_info().currsize == 0
    assert (order(g), enumerate_elements(g), suborbits(g, 0)) == before
