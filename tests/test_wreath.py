from __future__ import annotations

import itertools

import pytest

from permlab.blocks import (
    congruences,
    discrete_partition,
    is_congruence,
    partition_from_blocks,
    universal_partition,
)
from permlab.errors import CapExceeded, NotACongruence, NotAMorphism
from permlab.groups import (
    GenGroup,
    cyclic_group,
    element_set,
    group_from_cycles,
    is_transitive,
    order,
    symmetric_group,
)
from permlab.perms import compose, identity
from permlab.suite import _corpus
from permlab.wreath import (
    PosetIndex,
    ProductDomain,
    antichain_poset,
    chain_poset,
    fiber_partition,
    generalized_wreath,
    imprimitive_embedding,
    wreath,
    wreath_tower,
    wreath_variation1,
)

import oracles


def trivial_group(degree: int = 1) -> GenGroup:
    return GenGroup(degree, ())


# product domain indexing


def test_product_domain_round_trip():
    domain = ProductDomain((2, 3, 2))
    assert domain.total == 12
    for point in domain.points():
        assert domain.to_point(domain.to_coords(point)) == point
    assert domain.to_point((1, 2, 1)) == 1 + 2 * 2 + 1 * 6


def test_two_factor_indexing_is_top_major():
    domain = ProductDomain((3, 2))
    assert domain.to_point((2, 1)) == 1 * 3 + 2


# ordinary wreath product


def test_wreath_c2_c2():
    w = wreath(cyclic_group(2), cyclic_group(2))
    assert w.degree == 4
    assert order(w) == 8
    # conjugate inside Sym(4) to the polygon symmetries with diagonal blocks
    d4 = element_set(group_from_cycles(4, "(1 2 3 4)", "(1 3)"))
    w_els = element_set(w)
    found = False
    for h in oracles.sym(4):
        if {oracles.conj(x, h) for x in w_els} == d4:
            found = True
            break
    assert found


def test_wreath_order_formula():
    pairs = [
        (cyclic_group(2), cyclic_group(3)),
        (cyclic_group(3), cyclic_group(2)),
        (symmetric_group(3), cyclic_group(2)),
        (cyclic_group(2), symmetric_group(3)),
    ]
    for a, b in pairs:
        w = wreath(a, b)
        assert order(w) == order(a) ** b.degree * order(b)


def test_wreath_trivial_bottom_is_relabeled_top():
    b = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    w = wreath(trivial_group(), b)
    assert w.degree == 4
    assert w.generators == b.generators


def test_wreath_c2_c3_fiber_congruence():
    w = wreath(cyclic_group(2), cyclic_group(3))
    assert order(w) == 24
    rho = fiber_partition(2, 3)
    assert rho.blocks == ((0, 1), (2, 3), (4, 5))
    assert is_congruence(rho, w)
    assert all(len(b) == 2 for b in rho.blocks)


def test_wreath_transitive_when_factors_are():
    assert is_transitive(wreath(cyclic_group(2), cyclic_group(3)))
    assert is_transitive(wreath(symmetric_group(3), cyclic_group(2)))
    # intransitive top keeps fibers apart
    top = group_from_cycles(3, "(1 2)")
    assert not is_transitive(wreath(cyclic_group(2), top))


def test_wreath_cap(monkeypatch):
    monkeypatch.setenv("PERMLAB_CAP", "500")
    with pytest.raises(CapExceeded):
        wreath(cyclic_group(100), cyclic_group(100))


# variation with a twisted top map


def test_variation_identity_pi_equals_wreath():
    a, b = cyclic_group(2), cyclic_group(3)
    plain = wreath(a, b)
    twisted = wreath_variation1(a, b, b, (0, 1, 2))
    assert twisted.generators == plain.generators


def test_variation_collapsed_top_is_direct_product():
    a, b = cyclic_group(2), cyclic_group(2)
    b_on_point = GenGroup(1, (identity(1),))
    w = wreath_variation1(a, b, b_on_point, (0, 0))
    assert w.degree == 4
    assert order(w) == order(a) * order(b)


def test_variation_example_orders():
    a = cyclic_group(2)
    b = cyclic_group(2)
    # swapped pi commutes with the swap action on both sides
    b_on_phi = cyclic_group(2)
    w = wreath_variation1(a, b, b_on_phi, (1, 0))
    assert order(w) == 8


def test_variation_rejects_non_morphism():
    a = cyclic_group(2)
    b = cyclic_group(3)
    b_on_phi = GenGroup(2, (identity(2),))
    with pytest.raises(NotAMorphism):
        wreath_variation1(a, b, b_on_phi, (0, 0, 1))
    with pytest.raises(NotAMorphism):
        wreath_variation1(a, b, b, (0, 1))


def test_variation_image_order_counts_reached_fibers():
    # top acting trivially on a 2-point Phi, pi hitting only one of them
    a = cyclic_group(2)
    b = GenGroup(2, (identity(2),))
    b_on_phi = GenGroup(2, (identity(2),))
    w = wreath_variation1(a, b, b_on_phi, (0, 0))
    # both fibers driven by the same base value: diagonal of A, order 2
    assert order(w) == 2


# generalized wreath over a poset


def test_poset_validation():
    with pytest.raises(ValueError):
        PosetIndex(2, ((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(ValueError):
        PosetIndex(2, ((False, False), (False, True)))  # not reflexive


def test_generalized_chain_matches_wreath():
    got = generalized_wreath(chain_poset(2), (cyclic_group(2), cyclic_group(2)))
    want = wreath(cyclic_group(2), cyclic_group(2))
    assert element_set(got) == element_set(want)


def test_generalized_antichain_is_direct_product():
    got = generalized_wreath(antichain_poset(2), (cyclic_group(2), cyclic_group(2)))
    assert order(got) == 4
    assert got.degree == 4


def test_generalized_singleton():
    got = generalized_wreath(chain_poset(1), (cyclic_group(3),))
    assert got.generators == cyclic_group(3).generators


def test_generalized_three_chain_is_tower():
    got = generalized_wreath(
        chain_poset(3), (cyclic_group(2), cyclic_group(2), cyclic_group(2))
    )
    want = wreath_tower((cyclic_group(2), cyclic_group(2), cyclic_group(2)))
    assert order(got) == 128
    assert element_set(got) == element_set(want)


def test_generalized_v_poset_order():
    # two incomparable points below a common... no: one bottom below two tops
    # poset: 0 < 1, 0 < 2, 1 and 2 incomparable
    leq = (
        (True, True, True),
        (False, True, False),
        (False, False, True),
    )
    poset = PosetIndex(3, leq)
    got = generalized_wreath(poset, (cyclic_group(2),) * 3)
    # bottom coordinate rewritten as a function of both tops: 2^(2*2) * 2 * 2
    assert order(got) == 2 ** 4 * 2 * 2


# towers


def test_tower_two_levels():
    t = wreath_tower((cyclic_group(2), cyclic_group(2)))
    assert order(t) == 8


def test_tower_single():
    g = cyclic_group(5)
    assert wreath_tower((g,)) is g


def test_tower_three_levels_sylow():
    t = wreath_tower((cyclic_group(2), cyclic_group(2), cyclic_group(2)))
    assert t.degree == 8
    assert order(t) == 128
    # largest power of 2 dividing 8! is 2^7
    assert 40320 % 128 == 0 and 40320 % 256 != 0


def test_tower_section_identity():
    chains = [
        (cyclic_group(2), cyclic_group(2), cyclic_group(2)),
        (cyclic_group(2), cyclic_group(3), cyclic_group(2)),
    ]
    for chain in chains:
        whole = element_set(wreath_tower(chain))
        for split in range(1, len(chain)):
            left = wreath_tower(chain[:split])
            right = wreath_tower(chain[split:])
            assert element_set(wreath(left, right)) == whole


def test_wreath_associativity_element_sets():
    a = b = c = cyclic_group(2)
    left = wreath(wreath(a, b), c)
    right = wreath(a, wreath(b, c))
    assert element_set(left) == element_set(right)


# embedding


def test_embedding_d4():
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    rho = partition_from_blocks(4, [[0, 2], [1, 3]])
    phi, psi, report = imprimitive_embedding(d4, rho)
    assert report.injective and report.compatible
    assert report.group_order == 8
    assert report.wreath_order == 8
    assert report.index == 1
    assert sorted(phi) == list(range(4))
    assert sorted(phi.values()) == list(range(4))


def test_embedding_is_homomorphism():
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    rho = partition_from_blocks(4, [[0, 2], [1, 3]])
    _, psi, _ = imprimitive_embedding(d4, rho)
    for g, h in itertools.product(element_set(d4), repeat=2):
        assert psi[compose(g, h)] == compose(psi[g], psi[h])


def test_embedding_wreath_is_fixed():
    w = wreath(cyclic_group(2), cyclic_group(3))
    rho = fiber_partition(2, 3)
    phi, psi, report = imprimitive_embedding(w, rho)
    assert phi == {p: p for p in range(6)}
    assert report.index == 1
    assert all(psi[g] == g for g in element_set(w))


def test_embedding_c6():
    c6 = cyclic_group(6)
    rho = partition_from_blocks(6, [[0, 3], [1, 4], [2, 5]])
    phi, psi, report = imprimitive_embedding(c6, rho)
    assert report.injective and report.compatible
    assert report.group_order == 6
    assert report.wreath_order == 24
    assert report.index == 4


def test_embedding_rejects_bad_partitions():
    c6 = cyclic_group(6)
    with pytest.raises(NotACongruence):
        imprimitive_embedding(c6, partition_from_blocks(6, [[0, 1], [2, 3], [4, 5]]))
    with pytest.raises(NotACongruence):
        imprimitive_embedding(c6, discrete_partition(c6))
    with pytest.raises(NotACongruence):
        imprimitive_embedding(c6, universal_partition(c6))
    with pytest.raises(NotACongruence):
        imprimitive_embedding(c6, partition_from_blocks(3, [[0, 1, 2]]))


def test_embedding_maps_equal_the_composed_ones_on_the_corpus():
    # psi reads each fiber through the transversal inverses computed once;
    # the oracle composes and inverts afresh for every element and block
    seen = 0
    for name, group in _corpus():
        for rho in congruences(group):
            if rho.is_discrete or rho.is_universal:
                continue
            seen += 1
            phi, psi, report = imprimitive_embedding(group, rho)
            assert (phi, psi, report) == oracles.enumerated_embedding(group, rho), name
    assert seen == 42


def test_embedding_compatibility_all_corpus_style_groups():
    cases = []
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    cases.append((d4, partition_from_blocks(4, [[0, 2], [1, 3]])))
    c4 = cyclic_group(4)
    cases.append((c4, partition_from_blocks(4, [[0, 2], [1, 3]])))
    w = wreath(cyclic_group(3), cyclic_group(2))
    cases.append((w, fiber_partition(3, 2)))
    for group, rho in cases:
        _, _, report = imprimitive_embedding(group, rho)
        assert report.compatible and report.injective
