from __future__ import annotations

import itertools

import pytest

from permlab import blocks
from permlab.blocks import (
    almost_regular_decomposition,
    congruences,
    discrete_partition,
    is_congruence,
    is_primitive,
    is_strongly_primitive,
    minimal_congruence_identifying,
    orbital_graph,
    orbitals,
    partition_from_blocks,
    partition_join,
    semiblocks,
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
    is_transitive,
    order,
    point_stabilizer,
    pointwise_stabilizer,
    subgroup_from_elements,
    symmetric_group,
)
from permlab.perms import compose

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


def test_subdegrees_pair_up_and_count_two_point_stabilizer_cosets():
    assert sorted(suborbits(d4(), 0).subdegrees) == [1, 1, 2]
    assert sorted(suborbits(cyclic_group(5), 0).subdegrees) == [1, 1, 1, 1, 1]
    assert sorted(suborbits(symmetric_group(4), 0).subdegrees) == [1, 3]
    for g in transitive_samples():
        table = suborbits(g, 0)
        stab = point_stabilizer(g, 0)
        for i, suborbit in enumerate(table.sets):
            assert len(suborbit) == len(table.sets[table.pairing[i]])
            assert len(suborbit) * order(point_stabilizer(stab, suborbit[0])) == order(stab)


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


def test_semiblocks_cap_counts_unions_times_elements(monkeypatch):
    # C6 has 6 suborbits, so 2**5 unions hold 0, each checked against 6 elements
    monkeypatch.setenv("PERMLAB_CAP", "191")
    with pytest.raises(CapExceeded) as info:
        semiblocks(cyclic_group(6), 0)
    assert str(info.value) == (
        "the semiblock scan on 6 points visits 192 candidates, past cap 191;"
        " PERMLAB_CAP=192 would suffice"
    )
    monkeypatch.setenv("PERMLAB_CAP", "192")
    assert semiblocks(cyclic_group(6), 0) == ((0,), (0, 3), (0, 2, 4), tuple(range(6)))


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


# congruences against the overgroups of the point stabilizer


def assert_congruences_match_overgroups(g: GenGroup) -> int:
    """Each congruence's class of 0 has as setwise stabilizer an overgroup
    K >= G_0 whose orbit of 0 is that class; the map is a bijection onto the
    overgroups and keeps the order both ways.  Returns the count."""
    elements = set(element_set(g))
    expected = oracles.overgroups(elements, set(element_set(point_stabilizer(g, 0))))
    found = {}
    for rho in congruences(g):
        block = set(rho.class_of(0))
        k = frozenset(x for x in elements if {x.images[p] for p in block} == block)
        assert oracles.orbit_set(list(k), 0) == block
        found[rho] = k
    assert set(found.values()) == expected
    assert len(found) == len(expected)
    for rho, sigma in itertools.product(found, repeat=2):
        finer = all(sigma.same(block[0], p) for block in rho.blocks for p in block)
        assert finer == (found[rho] <= found[sigma])
    return len(found)


def test_congruences_match_overgroups_c4():
    assert assert_congruences_match_overgroups(cyclic_group(4)) == 3


def test_congruences_match_overgroups_c6():
    assert assert_congruences_match_overgroups(cyclic_group(6)) == 4


def test_congruences_match_overgroups_primitive_two_on_each_side():
    assert assert_congruences_match_overgroups(symmetric_group(4)) == 2


def test_congruences_match_overgroups_d4():
    assert assert_congruences_match_overgroups(d4()) == 3


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


# normal subgroups of primitive groups


def normal_subgroup_groups(g: GenGroup) -> list[GenGroup]:
    members = oracles.normal_subgroups(set(element_set(g)))
    return [subgroup_from_elements(tuple(sorted(m)), g.degree) for m in members]


def test_normal_subgroups_of_s4_are_transitive_and_abelian_ones_regular():
    g = symmetric_group(4)
    assert is_primitive(g)
    normal = normal_subgroup_groups(g)
    assert sorted(order(n) for n in normal) == [1, 4, 12, 24]
    for n in normal:
        if order(n) > 1:
            assert is_transitive(n)
        if all(compose(a, b) == compose(b, a) for a in n.generators for b in n.generators):
            assert order(n) in (1, g.degree)


def test_d4_small_subdegree_dichotomy():
    # all subdegrees at most 2: |G_0| <= 2 or a congruence has classes of size 2
    g = d4()
    assert max(suborbits(g, 0).subdegrees) <= 2
    small_stabilizer = order(point_stabilizer(g, 0)) <= 2
    small_classes = any(
        not rho.is_discrete and max(len(b) for b in rho.blocks) <= 2 for rho in congruences(g)
    )
    assert small_stabilizer or small_classes


def test_simple_primitive_group_has_only_trivial_normal_subgroups():
    g = alternating_group(5)
    assert is_primitive(g)
    normal = normal_subgroup_groups(g)
    assert sorted(order(n) for n in normal) == [1, 60]
    assert all(is_transitive(n) for n in normal if order(n) > 1)


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
