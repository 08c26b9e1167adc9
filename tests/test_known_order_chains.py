"""Pointwise stabilizers from chains filled to a known order, and from
conjugates of a same-orbit sibling, against the deterministic
Schreier-Sims stabilizer they replace (``tests/oracles.py``), and Jordan
witnesses conjugated from their G-orbit's representative against the
witness ``is_jordan`` builds afresh.

Every check also runs on the corpus relabeled by a fixed shuffle of the
points, where a point is most often not the least of its orbit under
the parent stabilizer, so its stabilizer is a conjugate.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import permlab
from permlab import groups
from permlab.fixtures import fixture
from permlab.groups import (
    GenGroup,
    _Chain,
    _pointwise_stabilizer,
    _stabilizer_in,
    clear_caches,
    contains,
    element_set,
    group_from_cycles,
    orbit,
    order,
    symmetric_group,
)
from permlab import jordan, suite
from permlab.jordan import _jordan_translates, is_jordan, jordan_sets
from permlab.perms import Permutation
from permlab.suite import _corpus

import oracles

SRC = Path(permlab.__file__).parent.parent


def _relabeled(group: GenGroup) -> GenGroup:
    """The group conjugated by a shuffle of its points seeded by the degree."""
    n = group.degree
    labels = list(range(n))
    random.Random(n).shuffle(labels)
    generators = []
    for g in group.generators:
        images = [0] * n
        for p in range(n):
            images[labels[p]] = labels[g.images[p]]
        generators.append(Permutation(tuple(images)))
    return GenGroup(n, tuple(generators))


CORPUS = list(_corpus())
CASES = CORPUS + [(f"{name}_relabeled", _relabeled(group)) for name, group in CORPUS]
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("name,group", CASES, ids=IDS)
def test_stabilizers_equal_the_schreier_sims_stabilizers(name, group):
    # every S of at most two points and p outside it: the sorted S + p
    for points in (c for m in range(1, 4) for c in itertools.combinations(range(group.degree), m)):
        stab, size = _pointwise_stabilizer(group, points)
        expected, expected_size = oracles.schreier_sims_pointwise_stabilizer(group, points)
        assert size == expected_size == order(stab), points
        assert element_set(stab) == element_set(expected), points
        assert all(g.images[p] == p for g in stab.generators for p in points), points


@pytest.mark.parametrize("name,group", CASES[len(CORPUS) :], ids=IDS[len(CORPUS) :])
def test_scan_of_a_relabeled_group_equals_the_support_table_scan(name, group):
    expected = oracles.support_jordan_scan(group.degree, group.generators)
    assert tuple(_jordan_translates(group, None, None)) == expected


def test_a_fill_whose_elements_all_sift_ends_with_the_schreier_checks(monkeypatch):
    s7 = symmetric_group(7)
    base = (3, 0, 1, 2, 4, 5, 6)
    e = tuple(range(7))
    drawn = []
    checked = []

    def identities(generators):
        while True:
            drawn.append(e)
            yield e

    check = _Chain._schreier_check

    def counted(self, level):
        checked.append(level)
        return check(self, level)

    monkeypatch.setattr(_Chain, "_schreier_check", counted)
    chain = _Chain(7, base, 5040)
    chain.fill([g.images for g in s7.generators])
    # the seeded elements reach the known order with no Schreier generator checked
    assert chain.order() == 5040 and not checked
    monkeypatch.setattr(groups, "_random_elements", identities)
    chain = _Chain(7, base, 5040)
    chain.fill([g.images for g in s7.generators])
    assert len(drawn) == groups._FILL_MISSES
    assert checked
    assert chain.order() == 5040
    clear_caches()
    stab, size = _stabilizer_in(s7, 5040, 3)
    assert size == 720
    assert element_set(stab) == element_set(oracles.schreier_sims_pointwise_stabilizer(s7, (3,))[0])


_PRINT_GENERATORS = """
import itertools
from permlab.fixtures import fixture
from permlab.groups import _pointwise_stabilizer
for name in ("pg_2_3", "c2wrc2wrc2", "symmetric_6"):
    group = fixture(name).group
    for m in (1, 2):
        for points in itertools.combinations(range(group.degree), m):
            print(name, points, [g.images for g in _pointwise_stabilizer(group, points)[0].generators])
"""


def test_stabilizer_generators_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_GENERATORS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == (13 + 78) + (8 + 28) + (6 + 15)


def test_siblings_in_one_orbit_share_one_fresh_chain():
    # G_(1, q) for q = 2..7: every q lies in the orbit of 0 under G_(1), so
    # its stabilizer is a conjugate of G_(1, 0), from one chain of G_(1)
    s8 = fixture("symmetric_8").group
    clear_caches()
    for q in range(2, 8):
        assert _pointwise_stabilizer(s8, (1, q))[1] == 720
    assert _stabilizer_in.cache_info().misses == 1


def test_siblings_of_a_base_prefix_build_no_chain():
    # G_(0, q) for q = 1..7: G_(0, 1) is a base prefix, and every other q
    # lies in the orbit of 1 under G_(0), so its stabilizer is a conjugate
    # of G_(0, 1), read off the group's own chain
    s8 = fixture("symmetric_8").group
    clear_caches()
    for q in range(1, 8):
        assert _pointwise_stabilizer(s8, (0, q))[1] == 720
    assert _stabilizer_in.cache_info().misses == 0


def _at_most_two_points(group: GenGroup):
    return (c for m in range(3) for c in itertools.combinations(range(group.degree), m))


# Three sha256 digests over the corpus and its relabeling: (S, order,
# generator images) of every G_(S) with |S| <= 2; (points, proper, order)
# of every Jordan witness; and the generator images of every witness
# group.  A translate's witness is conjugated from its G-orbit's
# representative, so only the third depends on how the witness is built.
_STABILIZERS_SHA256 = "2e414ae480a92d1bd80ff25d64984d7b3937d1f44273e2eff5f56efa8dee5ed4"
_WITNESSES_SHA256 = "603c82530dfb4802dd8888e30b5736d6092b5cd515751b8dd750310c2ffcad42"
_WITNESS_GENERATORS_SHA256 = "ea9e7625a157632a347e6600e0d2a96b8390c63a0dbb4b70743e093df6825af1"


def _named_digests(rows):
    digest = hashlib.sha256()
    for name, group in CASES:
        digest.update(name.encode())
        for row in rows(group):
            digest.update(repr(row).encode())
    return digest.hexdigest()


def test_stabilizer_generators_are_pinned():
    def rows(group):
        for points in _at_most_two_points(group):
            stab, size = _pointwise_stabilizer(group, points)
            yield points, size, [g.images for g in stab.generators]

    assert _named_digests(rows) == _STABILIZERS_SHA256


def test_witness_sets_and_orders_are_pinned():
    def rows(group):
        for witness in jordan_sets(group):
            yield witness.points, witness.proper, order(witness.witness_group)

    assert _named_digests(rows) == _WITNESSES_SHA256


def test_witness_generators_are_pinned():
    def rows(group):
        for witness in jordan_sets(group):
            yield [g.images for g in witness.witness_group.generators]

    assert _named_digests(rows) == _WITNESS_GENERATORS_SHA256


# an intransitive group with fixed points, so its Jordan sets lie in
# several orbits of the group
INTRANSITIVE = ("intransitive_9", group_from_cycles(9, "(1 2 3 4)", "(1 2)", "(5 6 7)"))


@pytest.mark.parametrize("name,group", CASES + [INTRANSITIVE], ids=IDS + [INTRANSITIVE[0]])
def test_catalog_witnesses_equal_fresh_witnesses(name, group):
    for witness in jordan_sets(group):
        fresh = is_jordan(group, witness.points)
        assert fresh.points == witness.points
        assert fresh.proper == witness.proper
        mine, theirs = witness.witness_group, fresh.witness_group
        assert witness.witness_order == order(mine) == order(theirs), witness.points
        assert all(contains(theirs, g) for g in mine.generators), witness.points
        assert all(contains(mine, g) for g in theirs.generators), witness.points


# (group, G-orbits of Jordan sets, sets): one is_jordan call and one
# witness group's order per G-orbit
_CERTIFICATES = (
    ("symmetric_8", 7, 247),
    ("alternating_8", 6, 219),
    ("symmetric_7", 6, 120),
    ("pg_2_3", 3, 27),
    ("pg_2_2", 3, 15),
)


@pytest.mark.parametrize("name,orbits,sets", _CERTIFICATES)
def test_catalog_certifies_once_per_orbit(name, orbits, sets, monkeypatch):
    group = fixture(name).group
    certified = []
    witness_orders = []
    certify, size = jordan.is_jordan, jordan.order

    def counted_certify(*args):
        certified.append(args[1])
        return certify(*args)

    def counted_order(of, cap=None):
        if of is not group:
            witness_orders.append(of)
        return size(of, cap)

    monkeypatch.setattr(jordan, "is_jordan", counted_certify)
    monkeypatch.setattr(jordan, "order", counted_order)
    catalog = jordan_sets(group)
    assert len(catalog) == sets
    assert len(certified) == len(witness_orders) == orbits
    assert len(set(certified)) == orbits


def test_battery_jordan_property_certifies_once_per_orbit(monkeypatch):
    # every name bound to the counted functions, in jordan and in suite
    calls = {"is_jordan": 0, "geometry_audit": 0}
    for name in calls:
        func = getattr(jordan, name)

        def counted(*args, _name=name, _func=func, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        for module in (jordan, suite):
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counted)
    (result,) = suite.run_battery(7, name_filter="jordan-span")
    assert result.passed, result.detail
    # one call per G-orbit of each corpus group, and one audit per plane
    assert calls == {"is_jordan": 115, "geometry_audit": 4}
    assert not hasattr(suite, "is_jordan")


@pytest.mark.parametrize("name,group", CASES, ids=IDS)
def test_orbit_transversal_equals_the_walk_to_the_least_point(name, group):
    # every node H = G_(S) with |S| <= 2 and every point p that H moves
    for points in _at_most_two_points(group):
        stab = _pointwise_stabilizer(group, points)[0]
        moved = {p for g in stab.generators for p in range(group.degree) if g.images[p] != p}
        for p in sorted(moved):
            least, images = oracles.to_least(stab, p)
            walked = orbit(stab, p)
            assert walked.points[0] == least, (points, p)
            assert walked.transversal_element(least).images == images, (points, p)
