from __future__ import annotations

import math

import pytest

from permlab.errors import CapExceeded, NotSubgroup, NotTransitive, OutOfRange
from permlab.groups import (
    CosetCoverInstance,
    GenGroup,
    alternating_group,
    coset_cover_audit,
    coset_spaces_isomorphic,
    cyclic_group,
    dihedral_group,
    element_set,
    enumerate_elements,
    group_from_cycles,
    gspace_automorphisms,
    homogeneity_degree,
    induced_action,
    is_transitive,
    orbit,
    orbits,
    order,
    point_stabilizer,
    pointwise_stabilizer,
    separation_search,
    setwise_stabilizer,
    symmetric_group,
    transitivity_degree,
)
from permlab.perms import Permutation, compose, format_cycles, identity, parse_cycles

import oracles
from fractions import Fraction


def sample_groups() -> list[GenGroup]:
    return [
        cyclic_group(5),
        dihedral_group(4),
        symmetric_group(4),
        alternating_group(4),
        group_from_cycles(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"),
        group_from_cycles(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"),
    ]


# orbits


def test_orbit_examples():
    g = group_from_cycles(5, "(1 2 3)")
    assert orbit(g, 0).points == (0, 1, 2)
    assert orbit(g, 3).points == (3,)
    assert orbit(symmetric_group(4), 0).points == (0, 1, 2, 3)


def test_orbit_words_are_transversals():
    for g in sample_groups():
        table = orbit(g, 0)
        for beta in table.points:
            t = table.transversal_element(beta)
            assert t.images[0] == beta
        assert table.word(0) == ()


def test_orbit_matches_oracle():
    for g in sample_groups():
        for alpha in range(g.degree):
            assert set(orbit(g, alpha).points) == oracles.orbit_set(
                list(g.generators), alpha
            )


def test_orbit_words_bfs_minimal():
    g = cyclic_group(5)
    table = orbit(g, 0)
    # one generator: word length to reach point k is k
    assert [len(table.word(p)) for p in range(5)] == [0, 1, 2, 3, 4]


def test_orbits_partition():
    g = group_from_cycles(5, "(1 2 3)")
    assert orbits(g) == ((0, 1, 2), (3,), (4,))
    assert not is_transitive(g)
    assert is_transitive(cyclic_group(5))


# enumeration


def test_enumerate_tiny():
    g = group_from_cycles(3, "(1 2)")
    els = enumerate_elements(g)
    assert els == (identity(3), parse_cycles("(1 2)", 3))


def test_enumerate_d4_order():
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    assert order(d4) == 8
    assert element_set(d4) == oracles.closure(list(d4.generators))


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_elements(symmetric_group(8), cap=10000)


def test_enumerate_bfs_order_frozen():
    g = group_from_cycles(3, "(1 2)", "(1 3)")
    names = [format_cycles(f) for f in enumerate_elements(g)]
    assert names == ["()", "(1 2)", "(1 3)", "(1 2 3)", "(1 3 2)", "(2 3)"]


def test_enumerate_matches_oracle_closure():
    for g in sample_groups():
        assert element_set(g) == oracles.closure(list(g.generators))


def test_fixture_orders():
    assert order(cyclic_group(7)) == 7
    assert order(dihedral_group(7)) == 14
    assert order(symmetric_group(5)) == 120
    assert order(alternating_group(5)) == 60
    assert order(alternating_group(6)) == 360


# stabilizers


def test_a_group_hashes_its_degree_and_generators_once():
    for g in sample_groups():
        twin = GenGroup(g.degree, tuple(Permutation(f.images) for f in g.generators))
        assert twin == g and twin is not g
        assert hash(twin) == hash(g) == hash((g.degree, g.generators))
        assert {g: 1}[twin] == 1
    assert GenGroup(3, ()) != GenGroup(4, ())
    assert symmetric_group(4) != GenGroup(4, symmetric_group(4).generators[::-1])


def test_point_stabilizer_example():
    s3 = symmetric_group(3)
    stab = point_stabilizer(s3, 0)
    assert element_set(stab) == {identity(3), parse_cycles("(2 3)", 3)}


def test_pointwise_stabilizer_empty_is_whole_group():
    for g in sample_groups():
        assert element_set(pointwise_stabilizer(g, [])) == element_set(g)


def test_setwise_stabilizer_example():
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    assert order(setwise_stabilizer(d4, [0, 2])) == 4


def test_schreier_stabilizer_matches_filter():
    for g in sample_groups():
        for alpha in range(min(3, g.degree)):
            fast = element_set(point_stabilizer(g, alpha))
            slow = oracles.stabilizer_filter(set(element_set(g)), alpha)
            assert fast == slow


def test_pointwise_setwise_match_filter():
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    pw = element_set(pointwise_stabilizer(d4, [0, 2]))
    by_hand = {
        g
        for g in element_set(d4)
        if g.images[0] == 0 and g.images[2] == 2
    }
    assert pw == by_hand
    sw = element_set(setwise_stabilizer(d4, [0, 2]))
    by_hand = {
        g for g in element_set(d4) if {g.images[0], g.images[2]} == {0, 2}
    }
    assert sw == by_hand


def test_orbit_stabilizer_theorem():
    for g in sample_groups():
        for alpha in range(g.degree):
            assert len(orbit(g, alpha).points) * order(
                point_stabilizer(g, alpha)
            ) == order(g)


# induced actions


def test_induced_subsets_c3():
    act = induced_action(cyclic_group(3), "subsets", 2)
    assert act.group.degree == 3
    assert is_transitive(act.group)


def test_induced_one_subsets_is_same_action():
    g = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    act = induced_action(g, "subsets", 1)
    assert act.items == ((0,), (1,), (2,), (3,))
    assert act.group.generators == g.generators


def test_induced_tuples_s4():
    act = induced_action(symmetric_group(4), "tuples", 2)
    assert act.group.degree == 12
    assert is_transitive(act.group)


def test_induced_degrees():
    g = symmetric_group(5)
    assert induced_action(g, "tuples", 3).group.degree == math.perm(5, 3)
    assert induced_action(g, "subsets", 3).group.degree == math.comb(5, 3)


def test_induced_action_cap():
    with pytest.raises(CapExceeded):
        induced_action(symmetric_group(10), "tuples", 10, cap=1000)


# transitivity and homogeneity


def test_degree_examples():
    assert transitivity_degree(symmetric_group(4), 4) == 4
    assert homogeneity_degree(symmetric_group(4), 4) == 4
    assert transitivity_degree(cyclic_group(5), 5) == 1
    assert homogeneity_degree(cyclic_group(5), 5) == 1
    assert transitivity_degree(alternating_group(4), 4) == 2


def test_degree_of_intransitive_group_is_zero():
    g = group_from_cycles(5, "(1 2 3)")
    assert transitivity_degree(g, 5) == 0
    assert homogeneity_degree(g, 5) == 0


def test_homogeneity_at_least_transitivity():
    for g in sample_groups():
        kmax = min(g.degree, 4)
        assert homogeneity_degree(g, kmax) >= transitivity_degree(g, kmax)


def test_two_orbits_on_pairs_for_c5():
    act = induced_action(cyclic_group(5), "subsets", 2)
    assert len(orbits(act.group)) == 2


def test_degree_walks_stop_at_the_cap():
    # Sym(6) has one orbit of 120 ordered and 20 unordered triples
    assert transitivity_degree(symmetric_group(6), 3, cap=120) == 3
    with pytest.raises(CapExceeded):
        transitivity_degree(symmetric_group(6), 3, cap=119)
    assert homogeneity_degree(symmetric_group(6), 3, cap=20) == 3
    with pytest.raises(CapExceeded):
        homogeneity_degree(symmetric_group(6), 3, cap=19)


def test_degree_kmax_out_of_range():
    with pytest.raises(OutOfRange):
        transitivity_degree(cyclic_group(3), 4)


# separation


def test_separation_disjoint_already():
    # the BFS-least witness for already-disjoint sets is the identity
    g = cyclic_group(5)
    witness = separation_search(g, {0, 1}, {2, 3})
    assert witness == identity(5)
    # the long rotation also works, it is just not least
    sigma4 = parse_cycles("(1 5 4 3 2)", 5)
    assert not {sigma4.images[0], sigma4.images[1]} & {2, 3}


def test_separation_needs_motion():
    g = cyclic_group(5)
    witness = separation_search(g, {0, 1}, {0, 3})
    assert witness is not None
    assert witness != identity(5)
    assert not {witness.images[0], witness.images[1]} & {0, 3}


def test_separation_sharp_klein_example():
    klein = group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")
    # points are group elements e,a,b,ab; {e,a} and {e,b} cannot be separated
    assert separation_search(klein, {0, 1}, {0, 2}) is None


def test_separation_empty_gamma():
    assert separation_search(symmetric_group(4), set(), {0, 1}) == identity(4)


def test_separation_guarantee_when_orbits_large(rng):
    # every orbit bigger than |gamma| * |delta| forces a witness
    for _ in range(30):
        n = rng.randrange(6, 9)
        g = symmetric_group(n)
        gamma = set(rng.sample(range(n), 2))
        delta = set(rng.sample(range(n), 2))
        if n > len(gamma) * len(delta):
            witness = separation_search(g, gamma, delta)
            assert witness is not None
            assert not {witness.images[p] for p in gamma} & delta


# coset covers


def klein_four() -> GenGroup:
    return group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")


def test_coset_cover_klein():
    x = klein_four()
    e = identity(4)
    parts = tuple(
        (group_from_cycles(4, text), e)
        for text in ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]
    )
    report = coset_cover_audit(CosetCoverInstance(x, parts))
    assert report.covers and report.irredundant
    assert report.indices == (2, 2, 2)
    assert report.index_sum == Fraction(3, 2)


def test_coset_cover_s3_by_a3_cosets():
    s3 = symmetric_group(3)
    a3 = group_from_cycles(3, "(1 2 3)")
    parts = ((a3, identity(3)), (a3, parse_cycles("(1 2)", 3)))
    report = coset_cover_audit(CosetCoverInstance(s3, parts))
    assert report.covers and report.irredundant
    assert report.index_sum == 1


def test_coset_cover_whole_group():
    g = symmetric_group(3)
    report = coset_cover_audit(CosetCoverInstance(g, ((g, identity(3)),)))
    assert report.covers and report.irredundant
    assert report.index_sum == 1


def test_coset_cover_redundant_part_detected():
    s3 = symmetric_group(3)
    a3 = group_from_cycles(3, "(1 2 3)")
    parts = (
        (a3, identity(3)),
        (a3, parse_cycles("(1 2)", 3)),
        (group_from_cycles(3, "(1 2)"), identity(3)),
    )
    report = coset_cover_audit(CosetCoverInstance(s3, parts))
    assert report.covers
    assert not report.irredundant


def test_coset_cover_rejects_foreign_subgroup():
    s3 = symmetric_group(3)
    foreign = group_from_cycles(4, "(1 4)")
    with pytest.raises((NotSubgroup, Exception)):
        coset_cover_audit(CosetCoverInstance(s3, ((foreign, identity(3)),)))


# automorphisms of the action


def test_gspace_automorphisms_regular_cyclic():
    aut = gspace_automorphisms(cyclic_group(5), 0)
    assert order(aut) == 5


def test_gspace_automorphisms_s4_trivial():
    aut = gspace_automorphisms(symmetric_group(4), 0)
    assert order(aut) == 1


def test_gspace_automorphisms_degree_one():
    aut = gspace_automorphisms(GenGroup(1, ()), 0)
    assert order(aut) == 1


def test_gspace_automorphisms_commute():
    for g in [cyclic_group(6), klein_four(), dihedral_group(5)]:
        aut = gspace_automorphisms(g, 0)
        for f in element_set(aut):
            for s in g.generators:
                assert compose(f, s) == compose(s, f)


def test_gspace_automorphisms_equal_centralizer_filter():
    for g in [cyclic_group(4), klein_four(), symmetric_group(3), dihedral_group(3)]:
        aut = element_set(gspace_automorphisms(g, 0))
        sym_all = oracles.sym(g.degree)
        central = {
            f
            for f in sym_all
            if all(oracles.mul(f, s) == oracles.mul(s, f) for s in g.generators)
        }
        assert aut == central


def test_gspace_automorphisms_requires_transitive():
    with pytest.raises(NotTransitive):
        gspace_automorphisms(group_from_cycles(5, "(1 2 3)"), 0)


# coset space isomorphism


def test_coset_spaces_isomorphic_examples():
    s3 = symmetric_group(3)
    h = group_from_cycles(3, "(1 2)")
    k = group_from_cycles(3, "(2 3)")
    x = coset_spaces_isomorphic(s3, h, k)
    assert x is not None
    members = element_set(k)
    for s in h.generators:
        assert oracles.conj(s, x) in members

    a3 = group_from_cycles(3, "(1 2 3)")
    assert coset_spaces_isomorphic(s3, h, a3) is None
    assert coset_spaces_isomorphic(s3, h, h) == identity(3)


def test_coset_spaces_isomorphic_rejects_non_subgroup():
    s3 = symmetric_group(3)
    with pytest.raises(NotSubgroup):
        coset_spaces_isomorphic(s3, symmetric_group(4), symmetric_group(4))
