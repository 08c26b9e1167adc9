from __future__ import annotations

import itertools

import pytest

from permlab import blocks
from permlab.blocks import (
    AlmostRegularDecomposition,
    Orbital,
    almost_regular_decomposition,
    congruence_subgroup_correspondence,
    congruences,
    discrete_partition,
    is_congruence,
    is_primitive,
    is_strongly_primitive,
    minimal_congruence_identifying,
    normal_subgroup_audit,
    orbital_graph,
    orbitals,
    partition_from_blocks,
    partition_join,
    semiblocks,
    subdegree_check,
    suborbits,
)
from permlab.errors import (
    CapExceeded,
    DiagonalOrbital,
    NotTransitive,
    OutOfRange,
    PointOutOfRange,
    TooSmall,
)
from permlab.groups import (
    GenGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    element_set,
    enumerate_elements,
    group_from_cycles,
    order,
    point_stabilizer,
    pointwise_stabilizer,
    symmetric_group,
)
from permlab.perms import identity, parse_cycles

import oracles


def d4() -> GenGroup:
    return group_from_cycles(4, "(1 2 3 4)", "(1 3)")


def c2wrc3() -> GenGroup:
    return group_from_cycles(6, "(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)")


def transitive_samples() -> list[GenGroup]:
    return [
        cyclic_group(4),
        cyclic_group(5),
        cyclic_group(6),
        d4(),
        dihedral_group(5),
        symmetric_group(4),
        alternating_group(4),
        c2wrc3(),
    ]


# minimal congruences


def test_minimal_congruence_c4():
    rho = minimal_congruence_identifying(cyclic_group(4), 0, 2)
    assert rho.blocks == ((0, 2), (1, 3))
    assert is_congruence(rho, cyclic_group(4))


def test_minimal_congruence_primitive_is_universal():
    rho = minimal_congruence_identifying(symmetric_group(4), 0, 1)
    assert rho.is_universal


def test_minimal_congruence_same_point_is_discrete():
    rho = minimal_congruence_identifying(cyclic_group(4), 1, 1)
    assert rho.is_discrete


def test_minimal_congruence_requires_transitive():
    with pytest.raises(NotTransitive):
        minimal_congruence_identifying(group_from_cycles(5, "(1 2 3)"), 0, 1)


def test_minimal_congruence_is_finest():
    # every congruence identifying the pair must be refined by the minimal one
    for g in transitive_samples():
        for beta in range(1, g.degree):
            rho = minimal_congruence_identifying(g, 0, beta)
            assert is_congruence(rho, g)
            assert rho.same(0, beta)


def test_partition_join():
    g = cyclic_group(6)
    a = minimal_congruence_identifying(g, 0, 2)
    b = minimal_congruence_identifying(g, 0, 3)
    assert partition_join(a, b).is_universal
    assert partition_join(a, discrete_partition(g)) == a


def test_congruence_lattice_of_c6():
    rhos = congruences(cyclic_group(6))
    shapes = sorted(tuple(len(b) for b in rho.blocks) for rho in rhos)
    assert shapes == [(1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 3), (6,)]


def test_partition_indexes_its_classes():
    rho = partition_from_blocks(6, [[4, 1], [], [5, 2, 3], [0]])
    assert rho.blocks == ((0,), (1, 4), (2, 3, 5))
    assert rho.index == (0, 1, 2, 2, 1, 2)
    assert [rho.block_of(p) for p in range(6)] == list(rho.index)
    assert rho.class_of(4) == (1, 4) and rho.same(2, 5) and not rho.same(0, 1)
    with pytest.raises(PointOutOfRange, match="point -1 outside 0..5"):
        rho.block_of(-1)


@pytest.mark.parametrize(
    "classes,error,message",
    [
        ([[0, 1], [2, 4]], PointOutOfRange, "point 4 outside 0..3"),
        ([[-1, 0, 1], [2, 3]], PointOutOfRange, "point -1 outside 0..3"),
        ([[0, 1], [1, 2]], OutOfRange, "point 1 lies in two classes"),
        ([[0, 1, 1], [2, 3]], OutOfRange, "point 1 lies in two classes"),
        ([[0, 1], [2]], OutOfRange, "point 3 lies in no class"),
    ],
    ids=["above", "negative", "overlap", "repeat-in-class", "uncovered"],
)
def test_partition_refuses_what_is_not_a_partition(classes, error, message):
    with pytest.raises(error, match=message):
        partition_from_blocks(4, classes)


def test_a_partition_of_other_points_is_no_congruence():
    assert not is_congruence(partition_from_blocks(2, [[0, 1]]), cyclic_group(4))


# primitivity


def test_primitivity_examples():
    assert is_primitive(cyclic_group(5))
    assert not is_primitive(cyclic_group(4))
    assert is_primitive(symmetric_group(4))
    assert is_primitive(symmetric_group(6))
    assert not is_primitive(d4())
    assert not is_primitive(c2wrc3())


def test_primitivity_guards():
    with pytest.raises(NotTransitive):
        is_primitive(group_from_cycles(4, "(1 2)"))
    with pytest.raises(TooSmall):
        is_primitive(GenGroup(1, ()))


def test_prime_cyclic_always_primitive():
    for p in (2, 3, 5, 7):
        assert is_primitive(cyclic_group(p))
    for n in (4, 6, 8, 9):
        assert not is_primitive(cyclic_group(n))


# suborbits


def test_suborbits_c3_pairing():
    table = suborbits(cyclic_group(3), 0)
    assert table.sets == ((0,), (1,), (2,))
    assert table.pairing == (0, 2, 1)


def test_suborbits_d4():
    table = suborbits(d4(), 0)
    assert sorted(table.subdegrees) == [1, 1, 2]


def test_suborbits_s4():
    table = suborbits(symmetric_group(4), 0)
    assert table.sets == ((0,), (1, 2, 3))
    assert table.pairing == (0, 1)


def test_suborbit_sets_match_stabilizer_orbit_oracle():
    for g in transitive_samples():
        stab = oracles.stabilizer_filter(set(element_set(g)), 0)
        expected = {
            frozenset(o) for o in oracles.orbits_on(list(stab), list(range(g.degree)))
        }
        table = suborbits(g, 0)
        assert {frozenset(s) for s in table.sets} == expected


def test_pairing_matches_reversed_pair_orbit_oracle():
    for g in transitive_samples():
        table = suborbits(g, 0)
        orbs = orbitals(g, 0)
        for i, orb in enumerate(orbs):
            reversed_at_base = {a for a, b in orb.pairs if b == 0}
            assert reversed_at_base == set(table.sets[table.pairing[i]])


def test_pairing_witness_choice_does_not_matter():
    # any element sending any representative back to the base point lands
    # in the same paired suborbit
    for g in transitive_samples():
        table = suborbits(g, 0)
        for i, suborbit in enumerate(table.sets):
            for gamma in suborbit:
                for w in element_set(g):
                    if w.images[gamma] == 0:
                        assert w.images[0] in table.sets[table.pairing[i]]
                        break


def test_trivial_suborbit_first_and_self_paired():
    for g in transitive_samples():
        table = suborbits(g, 0)
        assert table.sets[0] == (0,)
        assert table.pairing[0] == 0


def test_subdegree_check_examples():
    assert subdegree_check(d4()).subdegrees == (1, 1, 2)
    assert subdegree_check(cyclic_group(5)).subdegrees == (1, 1, 1, 1, 1)
    assert subdegree_check(symmetric_group(4)).subdegrees == (1, 3)
    for g in transitive_samples():
        report = subdegree_check(g)
        assert report.paired_sizes_equal
        assert report.index_identity_holds


# orbital graphs


def test_orbital_graph_c5_cycle():
    g = cyclic_group(5)
    orb = [o for o in orbitals(g, 0) if o.representative == (0, 1)][0]
    report = orbital_graph(g, orb)
    assert report.weakly_connected
    assert len(orb.pairs) == 5
    assert report.sphere_sizes == (1, 2, 2)
    assert report.valency == 2


def test_orbital_graph_d4_matching():
    g = d4()
    orb = [o for o in orbitals(g, 0) if o.representative == (0, 2)][0]
    report = orbital_graph(g, orb)
    assert not report.weakly_connected
    assert orb.pairs == frozenset({(0, 2), (2, 0), (1, 3), (3, 1)})
    assert report.valency == 1
    assert report.sphere_sizes == (1, 1)


def test_orbital_graph_s4_complete():
    g = symmetric_group(4)
    orb = [o for o in orbitals(g, 0) if not o.is_diagonal][0]
    report = orbital_graph(g, orb)
    assert report.weakly_connected
    assert len(orb.pairs) == 12


def test_orbital_graph_rejects_diagonal():
    g = cyclic_group(4)
    diagonal = orbitals(g, 0)[0]
    with pytest.raises(DiagonalOrbital):
        orbital_graph(g, diagonal)


def test_orbital_graph_dot_frozen():
    g = cyclic_group(3)
    orb = [o for o in orbitals(g, 0) if o.representative == (0, 1)][0]
    report = orbital_graph(g, orb)
    assert report.dot == "\n".join(
        [
            "digraph orbital {",
            "  1;",
            "  2;",
            "  3;",
            "  1 -> 2;",
            "  2 -> 3;",
            "  3 -> 1;",
            "}",
        ]
    )


def test_sphere_sizes_bounded():
    for g in transitive_samples():
        for orb in orbitals(g, 0):
            if orb.is_diagonal:
                continue
            report = orbital_graph(g, orb)
            v = report.valency
            for d, size in enumerate(report.sphere_sizes):
                if d == 0:
                    continue
                if v >= 2:
                    assert size <= v * (v - 1) ** d
                else:
                    assert size <= 1


# semiblocks


def brute_force_semiblocks(g: GenGroup, alpha: int) -> set[tuple[int, ...]]:
    elements = enumerate_elements(g)
    out = set()
    for r in range(1, g.degree + 1):
        for candidate in itertools.combinations(range(g.degree), r):
            if alpha not in candidate:
                continue
            members = set(candidate)
            ok = True
            for w in elements:
                if w.images[alpha] in members:
                    if any(w.images[p] not in members for p in members):
                        ok = False
                        break
            if ok:
                out.add(candidate)
    return out


def test_semiblocks_c4():
    assert semiblocks(cyclic_group(4), 0) == ((0,), (0, 2), (0, 1, 2, 3))


def test_semiblocks_s4():
    assert semiblocks(symmetric_group(4), 0) == ((0,), (0, 1, 2, 3))


def test_semiblocks_match_full_subset_scan():
    for g in [cyclic_group(4), cyclic_group(6), d4(), symmetric_group(4)]:
        assert set(semiblocks(g, 0)) == brute_force_semiblocks(g, 0)


def test_semiblocks_cap_counts_unions_times_elements():
    # C6 has 6 suborbits, so 2**5 unions hold 0, each checked against 6 elements
    with pytest.raises(CapExceeded) as info:
        semiblocks(cyclic_group(6), 0, cap=191)
    assert str(info.value) == (
        "the semiblock scan on 6 points visits 192 candidates, past cap 191;"
        " PERMLAB_CAP=192 would suffice"
    )
    assert semiblocks(cyclic_group(6), 0, cap=192) == ((0,), (0, 3), (0, 2, 4), tuple(range(6)))


def test_semiblocks_past_the_cap_list_no_element(monkeypatch):
    # C22: 2**21 unions times 22 elements, where the scan used to run unbounded
    def never(*args):
        raise AssertionError("elements listed past the cap")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.setattr(blocks, "enumerate_elements", never)
    with pytest.raises(CapExceeded, match="PERMLAB_CAP=46137344 would suffice"):
        is_strongly_primitive(cyclic_group(22))


def test_semiblocks_closed_under_intersection():
    for g in transitive_samples():
        found = semiblocks(g, 0)
        as_sets = [set(s) for s in found]
        for a, b in itertools.product(as_sets, repeat=2):
            assert tuple(sorted(a & b)) in found


def test_strong_primitivity_matches_primitivity_on_finite_groups():
    for g in transitive_samples():
        assert is_strongly_primitive(g) == is_primitive(g)


# congruence / overgroup correspondence


def test_correspondence_c4():
    report = congruence_subgroup_correspondence(cyclic_group(4), 0)
    assert report.congruence_count == report.overgroup_count == 3
    assert report.mutually_inverse and report.order_preserving


def test_correspondence_c6():
    report = congruence_subgroup_correspondence(cyclic_group(6), 0)
    assert report.congruence_count == report.overgroup_count == 4
    assert report.mutually_inverse and report.order_preserving


def test_correspondence_primitive_two_on_each_side():
    report = congruence_subgroup_correspondence(symmetric_group(4), 0)
    assert report.congruence_count == report.overgroup_count == 2
    assert report.mutually_inverse and report.order_preserving


def test_correspondence_d4():
    report = congruence_subgroup_correspondence(d4(), 0)
    assert report.mutually_inverse and report.order_preserving
    assert report.congruence_count == report.overgroup_count


# almost-regular decomposition


def test_decomposition_d4():
    dec = almost_regular_decomposition(d4())
    assert dec.m == 2
    assert dec.m0 == 1
    assert dec.phi == (0, 1)
    assert dec.rho.is_discrete
    assert dec.n_generators == ()
    assert dec.quotient_stab_order == 2
    assert dec.quotient_stab_order <= dec.m ** (len(dec.phi) - 1)
    assert dec.almost_regular


def test_decomposition_regular_groups():
    for g in [cyclic_group(5), cyclic_group(6), group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")]:
        dec = almost_regular_decomposition(g)
        assert dec.m0 == 1
        assert dec.phi == (0,)
        assert dec.n_generators == ()
        assert dec.rho.is_discrete


def test_decomposition_wreath_properties():
    g = c2wrc3()
    dec = almost_regular_decomposition(g)
    members = element_set(GenGroup(g.degree, dec.n_generators))
    for w in element_set(g):
        for x in members:
            assert oracles.conj(x, w) in members
    assert max(len(b) for b in dec.rho.blocks) <= dec.m
    assert dec.quotient_stab_order <= dec.m ** (len(dec.phi) - 1)


def test_decomposition_phi_is_minimum_hitting_set():
    # no smaller point set kills the pointwise stabilizer
    for g in [d4(), c2wrc3(), symmetric_group(4)]:
        dec = almost_regular_decomposition(g)
        assert order(pointwise_stabilizer(g, dec.phi)) == 1
        for smaller in itertools.combinations(range(g.degree), len(dec.phi) - 1):
            if smaller:
                assert order(pointwise_stabilizer(g, smaller)) > 1


# normal subgroup audit


def test_normal_audit_s4():
    audit = normal_subgroup_audit(symmetric_group(4))
    assert audit.primitive
    assert 12 in audit.normal_orders
    assert 4 in audit.normal_orders
    assert audit.nontrivial_all_transitive
    assert audit.abelian_all_regular


def test_normal_audit_d4_dichotomy():
    audit = normal_subgroup_audit(d4())
    assert audit.small_subdegree_dichotomy


def test_normal_audit_simple_primitive():
    audit = normal_subgroup_audit(alternating_group(5))
    assert set(audit.normal_orders) == {1, 60}
    assert audit.nontrivial_all_transitive


# structure laws tying suborbits to primitivity


def test_primitive_with_extra_short_suborbit_is_prime_cyclic():
    for g in transitive_samples():
        if g.degree < 2 or not is_primitive(g):
            continue
        table = suborbits(g, 0)
        if any(len(s) == 1 for s in table.sets[1:]):
            n = g.degree
            assert all(n % k for k in range(2, n)), "degree must be prime"
            assert order(g) == n


def test_fixed_point_relation_is_congruence():
    # points fixed by a point stabilizer form a block; the relation
    # "beta is fixed by the stabilizer of alpha" is a congruence
    for g in transitive_samples():
        classes = {}
        for alpha in range(g.degree):
            stab = point_stabilizer(g, alpha)
            fixed = frozenset(
                p
                for p in range(g.degree)
                if all(w.images[p] == p for w in stab.generators)
            )
            classes[alpha] = fixed
        for alpha in range(g.degree):
            assert alpha in classes[alpha]
            for beta in classes[alpha]:
                assert classes[beta] == classes[alpha]
        blocks = {classes[alpha] for alpha in range(g.degree)}
        for w in element_set(g):
            for block in blocks:
                assert frozenset(w.images[p] for p in block) in blocks
