"""The lazy BFS prefix, the chain's element table and the wreath order from
the chain, each against the full-list code it replaced (kept in ``oracles``),
on the battery corpus, which holds the cyclic_c_wr_cyclic_d towers."""

from __future__ import annotations

import itertools
import random
from functools import cache

import pytest

from permlab import groups, incidence
from permlab.blocks import congruences
from permlab.config import DEFAULT_CAP
from permlab.errors import AxiomsFailed, CapExceeded, PointOutOfRange
from permlab.fixtures import fixture
from permlab.groups import (
    _bfs_prefix,
    clear_caches,
    cyclic_group,
    element_set,
    enumerate_elements,
    order,
    point_stabilizer,
    pointwise_stabilizer,
    separation_search,
)
from permlab.incidence import _element_table, _fixed_subset_totals
from permlab.perms import compose, conjugate
from permlab.suite import _corpus, run_battery
from permlab.wreath import imprimitive_embedding

import oracles

CORPUS = _corpus()
IDS = [name for name, _ in CORPUS]


@cache
def bfs_list(name: str):
    group = dict(CORPUS)[name]
    return oracles.bfs_elements(group.degree, group.generators, DEFAULT_CAP)


# the prefix


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_interleaved_prefixes_read_one_bfs_list(name, group):
    clear_caches()
    prefix = _bfs_prefix(group, DEFAULT_CAP)
    first = iter(prefix)
    second = iter(_bfs_prefix(group, DEFAULT_CAP))
    read_first, read_second = [], []
    for step in range(order(group)):
        read_first.append(next(first))
        if step % 3 == 0:
            read_second.append(next(second))
        assert len(prefix.elements) == step + 1  # the lagging reader builds nothing
    read_second.extend(second)
    assert next(first, None) is None
    assert tuple(read_first) == tuple(read_second) == bfs_list(name)


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_enumeration_finishes_a_partly_read_prefix(name, group):
    clear_caches()
    reader = iter(_bfs_prefix(group, DEFAULT_CAP))
    head = list(itertools.islice(reader, order(group) // 2))
    assert enumerate_elements(group) == bfs_list(name)
    assert tuple(head + list(reader)) == bfs_list(name)


@pytest.mark.parametrize("name", ["symmetric_5", "pg_2_2", "cyclic_2_wr_cyclic_4"])
def test_clearing_caches_mid_walk_starts_a_fresh_walk(name):
    group = dict(CORPUS)[name]
    clear_caches()
    prefix = _bfs_prefix(group, DEFAULT_CAP)
    reader = iter(prefix)
    head = list(itertools.islice(reader, 7))
    clear_caches()
    assert _bfs_prefix(group, DEFAULT_CAP) is not prefix
    assert enumerate_elements(group) == bfs_list(name)
    assert tuple(head + list(reader)) == bfs_list(name)


def test_a_walk_past_the_chain_order_raises(monkeypatch):
    c7 = cyclic_group(7)
    endless = lambda *args: itertools.cycle(oracles.bfs_elements(7, c7.generators, 100))
    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", endless)
    with pytest.raises(AxiomsFailed, match="passed the stabilizer chain's order 7"):
        groups._bfs_elements(c7, 100)
    clear_caches()
    with pytest.raises(AxiomsFailed, match="passed the stabilizer chain's order 7"):
        list(_bfs_prefix(c7, 100))


def test_a_prefix_checks_the_cap_before_the_walk(monkeypatch):
    def never(*args):
        raise AssertionError("elements built before the cap check")

    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", never)
    monkeypatch.setenv("PERMLAB_CAP", "100")
    with pytest.raises(CapExceeded, match="past cap 100"):
        _bfs_prefix(fixture("symmetric_5").group, 100)
    with pytest.raises(CapExceeded, match="past cap 100"):
        separation_search(fixture("symmetric_5").group, {0}, {1})


# BFS-least searches


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_separation_search_equals_the_full_list_scan(name, group):
    rng = random.Random(name)
    n = group.degree
    clear_caches()
    for _ in range(12):
        gamma = set(rng.sample(range(n), rng.randrange(0, n)))
        delta = set(rng.sample(range(n), rng.randrange(1, n)))
        expected = oracles.full_list_separation_search(bfs_list(name), gamma, delta)
        assert separation_search(group, gamma, delta) == expected, (gamma, delta)


SMALL = [(name, group) for name, group in CORPUS if order(group) <= 200]


@pytest.mark.parametrize("name,group", SMALL, ids=[name for name, _ in SMALL])
def test_every_element_of_the_full_list_conjugates_the_stabilizers(name, group):
    # x^-1 G_p x = G_(p)x, for one point and for two
    clear_caches()
    h = element_set(point_stabilizer(group, 0))
    hh = element_set(pointwise_stabilizer(group, [0, 1]))
    for x in bfs_list(name):
        p, q = x.images[0], x.images[1]
        assert {conjugate(s, x) for s in h} == element_set(point_stabilizer(group, p)), x
        expected = element_set(pointwise_stabilizer(group, [p, q]))
        assert {conjugate(s, x) for s in hh} == expected, x


def test_separation_witnesses_lists_no_symmetric_8_element(monkeypatch):
    s8 = fixture("symmetric_8").group
    built = []
    walk, full_list = groups._item_walk, groups._bfs_elements

    def counted_walk(start, act, generators, cap):
        for item in walk(start, act, generators, cap):
            if act is compose and generators == s8.generators:
                built.append(item)
            yield item

    def no_s8_list(group, cap):
        if group == s8:
            raise AssertionError("symmetric_8 was enumerated")
        return full_list(group, cap)

    clear_caches()
    monkeypatch.setattr(groups, "_item_walk", counted_walk)
    monkeypatch.setattr(groups, "_bfs_elements", no_s8_list)
    with pytest.raises(AssertionError):
        enumerate_elements(s8)
    assert len(built) == 0
    (result,) = run_battery(name_filter="separation-witnesses")
    assert result.passed
    assert 0 < len(built) < 100


# point checks


@pytest.mark.parametrize("point", [-1, 5])
def test_separation_search_rejects_points_outside_the_domain(point):
    c5 = cyclic_group(5)
    for gamma, delta in (({point}, {4}), ({0}, {point})):
        with pytest.raises(PointOutOfRange):
            separation_search(c5, gamma, delta)


# the chain's element table


@pytest.mark.parametrize("name,group", CORPUS, ids=IDS)
def test_element_table_rows_are_the_bfs_elements_once_each(name, group):
    products = [tuple(row) for row in _element_table(group).tolist()]
    assert len(products) == len(set(products)) == order(group)
    assert set(products) == {g.images for g in bfs_list(name)}


def test_element_table_is_built_after_the_cap_check(monkeypatch):
    s6 = fixture("symmetric_6").group
    assert order(s6) == 720  # the chain is built and cached
    monkeypatch.setattr(incidence, "_element_table", None)
    monkeypatch.setenv("PERMLAB_CAP", "719")
    with pytest.raises(CapExceeded, match="past cap 719"):
        _fixed_subset_totals(s6, 6)


# the embedding report


def _battery_embeddings():
    for name, group in CORPUS:
        for rho in congruences(group):
            if not rho.is_discrete and not rho.is_universal:
                yield name, group, rho


def test_battery_embedding_reports_equal_the_enumerated_ones():
    # phi and psi too, key for key in order: psi reads each fiber's product
    # points off a table built once, the oracle converts each afresh
    seen = 0
    for name, group, rho in _battery_embeddings():
        seen += 1
        phi, psi, report = imprimitive_embedding(group, rho)
        expected_phi, expected_psi, expected_report = oracles.enumerated_embedding(group, rho)
        assert report == expected_report, (name, rho.blocks)
        assert list(phi.items()) == list(expected_phi.items()), (name, rho.blocks)
        assert list(psi.items()) == list(expected_psi.items()), (name, rho.blocks)
    assert seen == 42


def test_embedding_cap_error_is_unchanged(monkeypatch):
    group = fixture("cyclic_6").group
    rho = next(r for _, g, r in _battery_embeddings() if g == group)
    wreath_order = oracles.enumerated_embedding_report(group, rho).wreath_order
    assert wreath_order > order(group)
    monkeypatch.setenv("PERMLAB_CAP", str(wreath_order - 1))
    with pytest.raises(CapExceeded) as expected:
        oracles.enumerated_embedding_report(group, rho)
    with pytest.raises(CapExceeded) as found:
        imprimitive_embedding(group, rho)
    assert str(found.value) == str(expected.value)
