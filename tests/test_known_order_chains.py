"""Pointwise stabilizers from chains filled to a known order, and from
conjugates of a same-orbit sibling, against the deterministic
Schreier-Sims stabilizer they replace (``tests/oracles.py``), and Jordan
witnesses conjugated from their G-orbit's representative against the
witness ``is_jordan`` builds afresh.

The orbit words the shared item walk records are checked against the
queue loop ``orbit`` ran before.

Every check also runs on the corpus relabeled by a fixed shuffle of the
points, where a point is most often not the least of its orbit under
the parent stabilizer, so its stabilizer is a conjugate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import types
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
    assert tuple(_jordan_translates(group, None)) == expected


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

    def counted_order(of):
        if of is not group:
            witness_orders.append(of)
        return size(of)

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
    assert calls == {"is_jordan": 112, "geometry_audit": 4}
    assert not hasattr(suite, "is_jordan")


# sha256 of the JSON list of the Jordan sets (each a sorted list of
# 0-based points, in sampled order) that the jordan-span-geometry property
# samples from each corpus group's catalog under the default seed.  The
# property's detail line reports only counts, so a change in the catalog
# order or in the draws shows here and nowhere in the battery's output.
_SAMPLED_JORDAN_SETS_SHA256 = {
    "cyclic_3": "f3e49bcac468b5dff9d7d3154cf1a5bb18d41916d251ddfa652c84823c5c1382",
    "cyclic_4": "7e263c10475c0e8ad97859448f1ce66d7e1e5f111aba21f632e4dbc2c8cfd274",
    "cyclic_5": "49e06671a3ae9d1d8d8a7d26ef6d1dd2ac39258d3171767b1b8b20f8f9837bf8",
    "cyclic_6": "a2af1c20ee94b4588c74ed628f8d881fdefed9f8ac8efa1c1b61b51f11ed9276",
    "cyclic_7": "858731b270553efd2a978a5a5a140c3f7b65d3b0ad362f089401619ff3da5107",
    "cyclic_8": "776742eea07b6ffab0b478b959ae25b9be1546d94f3a1fa09111dca4d913daf6",
    "cyclic_9": "14ccc93f109377774343ca380cfc30fddd2966d19e26fd737553df598bbe1cd7",
    "cyclic_10": "829c4f1d39761a566e4482d797bf1f5209eb5a1d21dbec156aab6e0b8bf8c1db",
    "dihedral_3": "21e4d9a275b714114db3305560d69c89bb7596c0d360ef3e913aa87f712c1698",
    "dihedral_4": "428ca380ff2cf0ed764cad2f74652e72203290fe7a2cd4f0155f6ffe8b8046f9",
    "dihedral_5": "49e06671a3ae9d1d8d8a7d26ef6d1dd2ac39258d3171767b1b8b20f8f9837bf8",
    "dihedral_6": "a2af1c20ee94b4588c74ed628f8d881fdefed9f8ac8efa1c1b61b51f11ed9276",
    "dihedral_7": "858731b270553efd2a978a5a5a140c3f7b65d3b0ad362f089401619ff3da5107",
    "dihedral_8": "776742eea07b6ffab0b478b959ae25b9be1546d94f3a1fa09111dca4d913daf6",
    "dihedral_9": "14ccc93f109377774343ca380cfc30fddd2966d19e26fd737553df598bbe1cd7",
    "dihedral_10": "829c4f1d39761a566e4482d797bf1f5209eb5a1d21dbec156aab6e0b8bf8c1db",
    "symmetric_3": "21e4d9a275b714114db3305560d69c89bb7596c0d360ef3e913aa87f712c1698",
    "symmetric_4": "ca330a7ebededd817777dc4b59bb71b8bd062abd532ec36e176217452d4c9731",
    "symmetric_5": "2bd6d2d082027c0e9c95eb6181b09d35758379e884e95b5af5b7601ae4b8b5f7",
    "symmetric_6": "a90ca3391f6c18a4f01dd03314d9f77030a3de5e97c15c3ad0c8f2102a9b96e9",
    "symmetric_7": "ae9fcff559f7cde9cbbe0d11526115721c021ca67b7f0cdafa59228f7418bd8f",
    "symmetric_8": "21c7fdfbe8f4284cafea27e75e3c9e68b6d9c9afa70cff842ca47e50c17eabbc",
    "alternating_4": "7e846542747128c0eac5a72a9729ab8e63dbfa534ed961402706cd5a66a06bcd",
    "alternating_5": "160a229b02d7afa4a914cd684e3c0668e0012536b41ed275c3644f00ba387827",
    "alternating_6": "67b8512c9de8bd4b685e8a2112a7107000207acfbb8869fea374829618703ab9",
    "alternating_7": "539078608b4dfdb3e0bdbbf81bb7e97e81340cfe24d5cc4f972b7d429af2eb4d",
    "alternating_8": "a5c5f8a389fe4d2463346c65f994a480687a7afdecd4a0a12d760c5aca404637",
    "pg_2_2": "7d124e7e1e2a114004a40eb6aa138c703a5dcd559a06f41c555c637d0c23053a",
    "pg_2_3": "aa735f33483c8357971fa3c94dedc7607ada1a808e6ac86f89cbe52fea627138",
    "ag_2_2": "ca330a7ebededd817777dc4b59bb71b8bd062abd532ec36e176217452d4c9731",
    "ag_2_3": "2ee71d99723f337a5a3e9f73e6e9a6a79062c35e73e206b414430a663c0f55c5",
    "c2wrc2": "ac8958baad231abb25c3042f22a8efd9f3a2ca7401e41e2ba0bad29eb5875b04",
    "c2wrc3": "809904575cbedec75c8b4833991200294855e4d9396f3909ddbf496d05c1abbb",
    "c3wrc2": "0cdce99ed572e5bc66326ee6d9220e47c90ff506e426ee9c93c23d3ef82b8a6e",
    "c3wrc3": "697695e7fe30b06859cd5c583a479cc3813fc410a978d67ae9e0af3b0139875a",
    "c2wrc2wrc2": "17ba4d908b6917a05607068c6a9e7bcbf27925a811a4964a4df029f446461633",
    "cyclic_2_wr_cyclic_2": "ac8958baad231abb25c3042f22a8efd9f3a2ca7401e41e2ba0bad29eb5875b04",
    "cyclic_2_wr_cyclic_3": "809904575cbedec75c8b4833991200294855e4d9396f3909ddbf496d05c1abbb",
    "cyclic_2_wr_cyclic_4": "27d032e0f1e64bcf6b3df21c23ea5a3114e1f2b2002c7359bb1d77b97b6756a4",
    "cyclic_2_wr_cyclic_5": "e23c7ef9a1ca89759059d08061c99ca30f2769679ff322bbb2f93ad38df7aab5",
    "cyclic_2_wr_cyclic_6": "300f2531ac758bc7b87506bba82c7907f8f6a7aba129e58d2b202515c86b230c",
    "cyclic_3_wr_cyclic_2": "0cdce99ed572e5bc66326ee6d9220e47c90ff506e426ee9c93c23d3ef82b8a6e",
    "cyclic_3_wr_cyclic_3": "697695e7fe30b06859cd5c583a479cc3813fc410a978d67ae9e0af3b0139875a",
    "cyclic_3_wr_cyclic_4": "25b57ad519be1dcbacdef3c15689984add9420ee7b877cc2383d88ebd6f97a9b",
    "cyclic_4_wr_cyclic_2": "0a31d478c7651a10c1053f5012aee758e9369a0f25b6a175407e8041ebde01c1",
    "cyclic_4_wr_cyclic_3": "4cad9631c8629c27abf07455b55547f007a9e28f45ad71bebeffb2ac2823257c",
    "cyclic_5_wr_cyclic_2": "9e6834719f0767b0acd99461665bc474a4063c11def77e2f8a51ed0739cac0fd",
    "cyclic_6_wr_cyclic_2": "beb3c97c7bd2227299c989b42c75b8f55f66b8e749b5867ea3199359051e8a0f",
}


def test_battery_samples_the_pinned_jordan_sets(monkeypatch):
    catalogs = []
    draws = []
    translate = suite._translate_comparability_problems

    class Recording(random.Random):
        def sample(self, population, k):
            picked = super().sample(population, k)
            draws.append(picked)
            return picked

    def recorded(name, group, catalog):
        catalogs.append((name, catalog))
        return translate(name, group, catalog)

    # the property samples a catalog of more than 40 sets and takes a
    # smaller one whole
    monkeypatch.setattr(suite, "random", types.SimpleNamespace(Random=Recording))
    monkeypatch.setattr(suite, "_translate_comparability_problems", recorded)
    (result,) = suite.run_battery(suite.DEFAULT_SEED, name_filter="jordan-span")
    assert result.passed, result.detail
    draws = iter(draws)
    digests = {}
    for name, catalog in catalogs:
        sampled = catalog if len(catalog) <= 40 else next(draws)
        text = json.dumps([sorted(s) for s in sampled])
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert next(draws, None) is None
    assert digests == _SAMPLED_JORDAN_SETS_SHA256


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


@pytest.mark.parametrize("name,group", CASES, ids=IDS)
def test_orbit_words_equal_the_queue_loop(name, group):
    # the words and their order, for every point under G and every G_(S), |S| <= 2
    for points in _at_most_two_points(group):
        stab = _pointwise_stabilizer(group, points)[0]
        for p in range(group.degree):
            expected = oracles.queue_orbit_words(stab, p)
            assert list(orbit(stab, p).words.items()) == list(expected.items()), (points, p)

