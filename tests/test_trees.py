"""Tree-like structures: semilinear orders, C/B/D axiom checkers with
least witnesses, chain and word models, the pair-set quotient, and
cross-derivations between the structure kinds."""

import itertools
from fractions import Fraction

import pytest

from permlab.blocks import partition_from_blocks
from permlab.errors import (
    ArityMismatch,
    AxiomsFailed,
    CapExceeded,
    NotAChain,
    NotAscending,
    OutOfRange,
    PointOutOfRange,
)
from permlab.groups import cyclic_group, symmetric_group
from permlab.orders import derive_relation, linear_order_relation
from permlab.relations import relabel_relation, relation
from permlab.trees import (
    FinitePoset,
    b_from_poset,
    b_from_family,
    c_from_chains,
    c_from_d,
    c_from_equivalence_chain,
    c_from_family,
    check_axioms,
    classify_subset,
    d_from_family,
    finite_c_model,
    finite_poset,
    has_positive_type,
    hasse_edges,
    incomparable,
    lambda_word_model,
    maximal_chains,
    poset_dot,
    poset_relation,
    preorder_from_family,
    r_alpha_classes,
    r_class_order,
    ramification_indices,
    ramification_order_of_pair,
    s_alpha_classes,
    semilinear_from_c,
    set_translates,
    sup_index,
    word_label,
)

F = Fraction

V_ORDER = relation(2, 3, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)])


def four_point_chain():
    return [
        partition_from_blocks(4, [[0], [1], [2], [3]]),
        partition_from_blocks(4, [[0, 1], [2, 3]]),
        partition_from_blocks(4, [range(4)]),
    ]


# -------------------------------------------------------------------- posets


def test_poset_validates_axioms():
    with pytest.raises(AxiomsFailed):
        finite_poset("abc", [(0, 1), (1, 2)])  # transitive closure not taken
    with pytest.raises(AxiomsFailed):
        finite_poset("ab", [(0, 1), (1, 0)])
    with pytest.raises(AxiomsFailed):
        FinitePoset(("a",), ((False,),))


def test_poset_rejects_bad_shape():
    with pytest.raises(OutOfRange):
        FinitePoset(("a", "b"), ((True,),))


def test_sup_and_incomparability():
    v = finite_poset("abc", [(0, 2), (1, 2)])
    assert incomparable(v, 0, 1)
    assert not incomparable(v, 0, 2)
    assert sup_index(v, 0, 1) == 2
    assert sup_index(v, 0, 2) == 2
    antichain = finite_poset("ab", [])
    assert sup_index(antichain, 0, 1) is None
    assert has_positive_type(v)
    assert not has_positive_type(antichain)


def test_hasse_edges_drop_transitive_pairs():
    chain = finite_poset("abc", [(0, 1), (1, 2), (0, 2)])
    assert hasse_edges(chain) == ((0, 1), (1, 2))


def test_poset_dot_output():
    v = finite_poset("abc", [(0, 2), (1, 2)])
    text = poset_dot(v)
    assert "rankdir=BT" in text
    assert 'n0 [label="a"];' in text
    assert "n0 -> n2;" in text
    assert "n1 -> n2;" in text
    assert "n0 -> n1" not in text


def test_maximal_chains_of_diamond():
    diamond = finite_poset("abcd", [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    assert maximal_chains(diamond) == ((0, 1, 3), (0, 2, 3))


# ------------------------------------------------------------- axiom checker


def test_checker_validates_input():
    binary = relation(2, 3, [(0, 1)])
    with pytest.raises(ArityMismatch):
        check_axioms(binary, "C")
    with pytest.raises(OutOfRange):
        check_axioms(binary, "chain")


def test_the_audit_cap_counts_its_widest_loop(monkeypatch):
    # the battery's largest chain model: 27 points and 4914 tuples, so the
    # C3 and C7 loops visit 4914 * 27 = 132678 candidates, more than 27**3
    rel = finite_c_model(3, 3).relation
    monkeypatch.setenv("PERMLAB_CAP", "132677")
    with pytest.raises(CapExceeded, match="PERMLAB_CAP=132678 would suffice"):
        check_axioms(rel, "C")
    monkeypatch.setenv("PERMLAB_CAP", "132678")
    assert check_axioms(rel, "C").passed == ("C1", "C2", "C3", "C4")


def test_betweenness_cap_counts_the_b_audit(monkeypatch):
    # 7 words: betweenness and the B axioms B4 to B6 visit 7**4 = 2401 candidates
    poset = lambda_word_model([0, 1, 2], 2)
    monkeypatch.setenv("PERMLAB_CAP", "2400")
    with pytest.raises(CapExceeded, match="PERMLAB_CAP=2401 would suffice"):
        b_from_poset(poset)
    monkeypatch.setenv("PERMLAB_CAP", "2401")
    assert b_from_poset(poset).report.ok


def test_pair_quotient_cap_counts_its_transitivity_loop(monkeypatch):
    # 4 points: C(4, 2) = 6 pairs, and the transitivity check visits 6**3
    rel = finite_c_model(2, 2).relation
    monkeypatch.setenv("PERMLAB_CAP", "215")
    with pytest.raises(CapExceeded) as info:
        semilinear_from_c(rel)
    assert str(info.value) == (
        "the pair quotient of a C-relation on 4 points visits 216 candidates,"
        " past cap 215; PERMLAB_CAP=216 would suffice"
    )
    monkeypatch.setenv("PERMLAB_CAP", "216")
    assert semilinear_from_c(rel).report.ok


def test_pair_quotient_of_the_battery_chain_model_is_refused_at_once(monkeypatch):
    # 27 points: 351**3 steps, where the loop used to run for seconds
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    with pytest.raises(CapExceeded, match="PERMLAB_CAP=43243551 would suffice"):
        semilinear_from_c(finite_c_model(3, 3).relation)


def test_chains_c_relation_counts_its_triples(monkeypatch):
    # the word model on [0, 1] has 2 maximal chains, so 2**3 triples
    poset = lambda_word_model([0, 1], 2)
    monkeypatch.setenv("PERMLAB_CAP", "7")
    with pytest.raises(CapExceeded) as info:
        c_from_chains(poset)
    assert str(info.value) == (
        "a C-relation on 2 chains visits 8 candidates, past cap 7; PERMLAB_CAP=8 would suffice"
    )
    monkeypatch.setenv("PERMLAB_CAP", "8")
    assert len(c_from_chains(poset).detail) == 2


def test_semilinear_checks_on_tree_order():
    report = check_axioms(V_ORDER, "semilinear")
    assert report.ok
    assert report.passed == (
        "reflexive",
        "antisymmetric",
        "transitive",
        "upper-linear",
        "upper-directed",
    )
    # no strict middle point exists between 0 and its upper bound 2
    dense = report.check("dense")
    assert not dense.holds and dense.witness == (0, 2)


def test_semilinear_rejects_branching_upward():
    lam = relation(2, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
    report = check_axioms(lam, "semilinear")
    assert not report.ok
    assert report.check("upper-linear").witness == (0, 1, 2)
    assert report.check("upper-directed").witness == (1, 2)


def test_semilinear_least_witnesses():
    missing_loop = relation(2, 2, [(1, 1), (0, 1)])
    assert check_axioms(missing_loop, "semilinear").check("reflexive").witness == (0,)
    cycle = relation(2, 2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert check_axioms(cycle, "semilinear").check("antisymmetric").witness == (0, 1)


# -------------------------------------------------------------- chain models


def test_chain_relation_on_four_points():
    rel = c_from_equivalence_chain(four_point_chain())
    assert (2, 0, 1) in rel
    assert (0, 2, 3) in rel
    assert (0, 1, 2) not in rel
    assert len(rel.tuples) == 20
    report = check_axioms(rel, "C")
    assert all(report.check(n).holds for n in ("C1", "C2", "C3", "C4"))


def test_chain_relation_on_two_points():
    rel = c_from_equivalence_chain(
        [
            partition_from_blocks(2, [[0], [1]]),
            partition_from_blocks(2, [[0, 1]]),
        ]
    )
    assert rel.tuples == frozenset({(0, 1, 1), (1, 0, 0)})


def test_chain_validation():
    eq, mid, _ = four_point_chain()
    with pytest.raises(NotAChain):
        c_from_equivalence_chain([mid, eq])  # refines instead of coarsening
    with pytest.raises(NotAChain):
        c_from_equivalence_chain([eq, partition_from_blocks(3, [[0, 1, 2]])])
    with pytest.raises(NotAChain):
        c_from_equivalence_chain([])


def test_function_model_domain():
    model = finite_c_model(2, 2)
    assert model.functions == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(model.chain) == 3
    assert model.chain[0].is_discrete
    assert model.chain[-1].is_universal


def test_function_model_axiom_report():
    report = check_axioms(finite_c_model(2, 2).relation, "C")
    assert all(report.check(n).holds for n in ("C1", "C2", "C3", "C4"))
    # the outward-extension axioms need room a four-element domain lacks
    assert report.check("C5").witness == (0, 1)
    assert report.check("C6").witness == (0, 2)
    assert not report.ok
    c7 = report.check("C7")
    assert not c7.holds and c7.witness == (0, 1, 3)


def test_function_model_matches_direct_definition():
    model = finite_c_model(2, 3)
    fs = model.functions

    def separated(a, b, c):
        # some agreement level joins b to c while leaving a out
        return any(
            fs[b][lev:] == fs[c][lev:] != fs[a][lev:] for lev in range(3)
        )

    expected = {
        (a, b, c)
        for a, b, c in itertools.product(range(9), repeat=3)
        if separated(a, b, c)
    }
    assert model.relation.tuples == frozenset(expected)


def test_function_model_agrees_with_chain_builder():
    model = finite_c_model(2, 2)
    assert c_from_equivalence_chain(model.chain).tuples == model.relation.tuples


def test_function_model_validation(monkeypatch):
    with pytest.raises(OutOfRange):
        finite_c_model(0, 2)
    with pytest.raises(OutOfRange):
        finite_c_model(2, 1)
    monkeypatch.setenv("PERMLAB_CAP", "1000")
    with pytest.raises(CapExceeded):
        finite_c_model(9, 4)


# -------------------------------------------------------------- focus classes


def test_focus_classes_of_function_model():
    rel = finite_c_model(2, 3).relation
    coarse = r_alpha_classes(rel, 0)
    assert sorted(sorted(c) for c in coarse) == [[1, 2, 4, 5, 7, 8], [3, 6]]
    fine = s_alpha_classes(rel, 0)
    assert sorted(sorted(c) for c in fine) == [[1, 4, 7], [2, 5, 8], [3], [6]]
    # every fine class sits inside one coarse class
    for f in fine:
        assert any(f <= c for c in coarse)


def test_focus_class_order():
    rel = finite_c_model(2, 3).relation
    ordered = r_class_order(rel, 0)
    assert [sorted(c) for c in ordered] == [[1, 2, 4, 5, 7, 8], [3, 6]]


def test_ramification_order_matches_alphabet():
    rel = finite_c_model(2, 3).relation
    assert all(
        ramification_order_of_pair(rel, a, b) == 3
        for a, b in itertools.permutations(range(9), 2)
    )
    with pytest.raises(OutOfRange):
        ramification_order_of_pair(rel, 4, 4)


# -------------------------------------------------------------- pair quotient


def test_pair_quotient_shape():
    q = semilinear_from_c(finite_c_model(2, 2).relation)
    assert q.classes == (
        frozenset({(0, 1), (0, 3), (1, 2), (2, 3)}),
        frozenset({(0, 2)}),
        frozenset({(1, 3)}),
    )
    assert q.poset.leq == (
        (True, False, False),
        (True, True, False),
        (True, False, True),
    )
    assert q.report.ok


def test_pair_quotient_node_map():
    q = semilinear_from_c(finite_c_model(2, 2).relation)
    assert q.node_map == (
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
    )
    # the two points of a sibling pair climb the same chain of classes
    assert not q.node_map_injective


def test_pair_quotient_matches_class_containment():
    model = finite_c_model(2, 2)
    q = semilinear_from_c(model.relation)
    fat = sorted(
        {
            frozenset(block)
            for part in model.chain
            for block in part.blocks
            if len(block) >= 2
        },
        key=sorted,
    )
    containment = FinitePoset(
        tuple(fat),
        tuple(tuple(a <= b for b in fat) for a in fat),
    )
    n = len(q.poset)
    assert n == len(containment)
    found = any(
        all(
            q.poset.leq[a][b] == containment.leq[img[a]][img[b]]
            for a in range(n)
            for b in range(n)
        )
        for img in itertools.permutations(range(n))
    )
    assert found


def test_pair_quotient_of_two_points():
    rel = relation(3, 2, [(0, 1, 1), (1, 0, 0)])
    q = semilinear_from_c(rel)
    assert len(q.poset) == 1
    assert q.node_map == (frozenset({0}), frozenset({0}))


def test_pair_quotient_needs_core_axioms():
    d = derive_relation(linear_order_relation(4), "separation")
    with pytest.raises(AxiomsFailed):
        semilinear_from_c(c_from_d(d, 3).relation)


# ---------------------------------------------------------------- word models


def test_word_model_three_nodes():
    poset = lambda_word_model([0, 1], 2)
    assert poset.elements == ((F(0),), (F(1),), (F(1), 0, F(0)))
    assert [word_label(w) for w in poset.elements] == ["0", "1", "1u0"]
    assert poset.leq == (
        (True, True, False),
        (False, True, False),
        (False, True, True),
    )
    assert incomparable(poset, 0, 2)


def test_word_model_single_rational():
    assert len(lambda_word_model([7], 3)) == 1


def test_word_model_positive_type():
    poset = lambda_word_model([0, 1, 2], 2)
    assert len(poset) == 7
    assert has_positive_type(poset)
    assert check_axioms(poset_relation(poset), "semilinear").ok
    assert ramification_indices(poset) == {1: 2, 2: 2, 5: 2}
    assert maximal_chains(poset) == ((0, 1, 2), (1, 2, 3), (2, 4, 5), (2, 5, 6))


def test_word_model_validation():
    with pytest.raises(NotAscending):
        lambda_word_model([1, 0], 2)
    with pytest.raises(OutOfRange):
        lambda_word_model([], 2)
    with pytest.raises(OutOfRange):
        lambda_word_model([0, 1], 1)
    with pytest.raises(CapExceeded):
        lambda_word_model(range(20), 2)


# ----------------------------------------------------------- cross-derivation


def test_betweenness_from_tree_order():
    derived = b_from_poset(lambda_word_model([0, 1], 2))
    assert (1, 0, 2) in derived.relation  # the join of the two leaves
    assert derived.relation.sorted_tuples() == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0),
        (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 0), (1, 2, 1), (2, 0, 2), (2, 1, 2), (2, 2, 0),
        (2, 2, 1), (2, 2, 2),
    ]
    assert derived.report.ok
    assert derived.report.check("B6").holds


def test_betweenness_from_bigger_tree():
    derived = b_from_poset(lambda_word_model([0, 1, 2], 2))
    assert derived.report.ok
    assert derived.report.check("B6").holds


def test_point_deletion_of_separation():
    d = derive_relation(linear_order_relation(4), "separation")
    derived = c_from_d(d, 3)
    assert derived.detail == (0, 1, 2)
    assert (0, 1, 2) not in derived.relation
    assert derived.relation.tuples == frozenset({(1, 0, 2), (1, 2, 0)})
    # too sparse for the degenerate-pair axiom
    assert not derived.report.check("C4").holds


def test_point_deletion_validation():
    with pytest.raises(ArityMismatch):
        c_from_d(relation(3, 4, []), 0)
    d = derive_relation(linear_order_relation(4), "separation")
    with pytest.raises(PointOutOfRange):
        c_from_d(d, 9)


def test_chain_set_relation():
    derived = c_from_chains(lambda_word_model([0, 1], 2))
    assert derived.detail == ((0, 1), (1, 2))
    assert derived.relation.tuples == frozenset({(0, 1, 1), (1, 0, 0)})


def test_chain_set_relation_of_bigger_tree():
    derived = c_from_chains(lambda_word_model([0, 1, 2], 2))
    assert len(derived.relation.tuples) == 20
    report = derived.report
    assert all(report.check(n).holds for n in ("C1", "C2", "C3", "C4"))


# ---------------------------------------------------- honest axiom outcomes


def test_separation_is_not_a_tree_end_relation():
    # the strict separation of a linear order has no degenerate tuples,
    # so the extension axiom fails as soon as the new slot repeats a point
    d = derive_relation(linear_order_relation(4), "separation")
    report = check_axioms(d, "D")
    assert report.check("D1").holds
    assert report.check("D2").holds
    assert report.check("D3").witness == (0, 2, 1, 3, 0)
    assert report.check("D4").witness == (0, 1, 2)


def test_block_family_carries_tree_end_relation():
    derived = d_from_family(cyclic_group(4), [0, 2])
    report = derived.report
    assert report.check("D1").holds
    assert report.check("D2").holds
    assert report.check("D3").holds
    # no third block to branch into
    assert report.check("D4").witness == (0, 1, 2)
    assert len(derived.relation.tuples) == 32
    assert (0, 0, 1, 1) in derived.relation


# ----------------------------------------------------------- set families


def test_d_from_family_counts_ordered_pairs_of_translates(monkeypatch):
    # S5 moves {0, 1} onto 10 translates: 10**2 * 2**4 = 1600 candidates
    group = symmetric_group(5)
    monkeypatch.setenv("PERMLAB_CAP", "1599")
    with pytest.raises(CapExceeded) as info:
        d_from_family(group, [0, 1])
    assert str(info.value) == (
        "a D-relation from 10 translates of 2 points visits 1600 candidates,"
        " past cap 1599; PERMLAB_CAP=1600 would suffice"
    )
    monkeypatch.setenv("PERMLAB_CAP", "1600")
    assert d_from_family(group, [0, 1]).relation.arity == 4


def test_d_from_family_is_refused_before_any_tuple(monkeypatch):
    # 364 translates of 3 points, where the loop used to run for a second
    def never(*args):
        raise AssertionError("tuples built before the cap check")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.setattr(itertools, "permutations", never)
    with pytest.raises(CapExceeded) as info:
        d_from_family(symmetric_group(14), range(3))
    assert str(info.value) == (
        "a D-relation from 364 translates of 3 points visits 10732176 candidates,"
        " past cap 200000; PERMLAB_CAP=10732176 would suffice"
    )


def test_block_translates():
    assert set_translates(cyclic_group(4), [0, 2]) == (
        frozenset({0, 2}),
        frozenset({1, 3}),
    )
    with pytest.raises(PointOutOfRange):
        set_translates(cyclic_group(4), [0, 7])


def test_set_translates_walk_under_the_element_cap(monkeypatch):
    # the 3-subsets of 6 points are one orbit of S6, of C(6, 3) = 20 sets
    monkeypatch.setenv("PERMLAB_CAP", "19")
    with pytest.raises(CapExceeded, match="passed cap 19"):
        set_translates(symmetric_group(6), range(3))
    monkeypatch.setenv("PERMLAB_CAP", "20")
    assert len(set_translates(symmetric_group(6), range(3))) == 20


@pytest.mark.parametrize(
    "build,kind,count",
    [
        # S5 moves {0, 1} onto its 10 translates; n**2 or n**3 points each
        (preorder_from_family, "preorder", 250),
        (c_from_family, "C-relation", 1250),
        (b_from_family, "B-relation", 1250),
    ],
    ids=["preorder", "C", "B"],
)
def test_family_builders_count_points_times_translates(monkeypatch, build, kind, count):
    group = symmetric_group(5)
    monkeypatch.setenv("PERMLAB_CAP", str(count - 1))
    with pytest.raises(CapExceeded) as info:
        build(group, [0, 1])
    assert str(info.value) == (
        f"a {kind} from 10 translates on 5 points visits {count} candidates,"
        f" past cap {count - 1}; PERMLAB_CAP={count} would suffice"
    )
    monkeypatch.setenv("PERMLAB_CAP", str(count))
    build(group, [0, 1])


def test_block_family_preorder_is_block_equivalence():
    pre = preorder_from_family(cyclic_group(4), [0, 2])
    assert pre.tuples == frozenset(
        {(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (1, 3), (3, 1), (3, 3)}
    )


def test_rich_family_preorder_is_trivial():
    pre = preorder_from_family(symmetric_group(4), [0, 1])
    assert pre.tuples == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})


def test_family_relations_complement():
    group = cyclic_group(4)
    inside = c_from_family(group, [0, 2]).relation
    outside = b_from_family(group, [0, 2]).relation
    assert len(inside.tuples) == 16
    assert (0, 1, 1) in inside and (0, 1, 3) in inside
    everything = set(itertools.product(range(4), repeat=3))
    assert outside.tuples == frozenset(everything - inside.tuples)


def test_classify_block():
    profile = classify_subset(cyclic_group(4), [0, 2])
    assert profile.highly_atypical
    assert not profile.stable
    assert not profile.semistable
    assert not profile.separates_pairs
    assert not profile.idealistic
    assert not profile.degenerate


def test_classify_full_domain_and_rich_pair():
    whole = classify_subset(cyclic_group(4), range(4))
    assert whole.degenerate
    assert whole.stable and whole.semistable
    assert not whole.highly_atypical

    pair = classify_subset(symmetric_group(4), [0, 1])
    assert pair.separates_pairs
    assert pair.separates_ordered_pairs
    assert not pair.idealistic
    assert not pair.highly_atypical


# ------------------------------------------------------------- invariants


def test_checker_flags_survive_relabeling(rng):
    m = finite_c_model(2, 2).relation
    d = derive_relation(linear_order_relation(4), "separation")
    for _ in range(10):
        images = list(range(4))
        rng.shuffle(images)
        for rel, family in ((m, "C"), (d, "D")):
            before = check_axioms(rel, family)
            after = check_axioms(relabel_relation(rel, images), family)
            assert [c.holds for c in before.checks] == [
                c.holds for c in after.checks
            ]
            assert [c.holds for c in before.reported] == [
                c.holds for c in after.reported
            ]


def test_builder_commutes_with_relabeling(rng):
    chain = four_point_chain()
    base = c_from_equivalence_chain(chain)
    for _ in range(10):
        images = list(range(4))
        rng.shuffle(images)
        moved = [
            partition_from_blocks(4, [[images[p] for p in block] for block in part.blocks])
            for part in chain
        ]
        assert c_from_equivalence_chain(moved).tuples == relabel_relation(
            base, images
        ).tuples


def every_mutation_breaks_an_axiom(rel, family):
    baseline = check_axioms(rel, family)
    held = [c.name for c in baseline.checks if c.holds]
    for t in itertools.product(range(rel.size), repeat=rel.arity):
        if t in rel.tuples:
            mutated = relation(rel.arity, rel.size, rel.tuples - {t})
        else:
            mutated = relation(rel.arity, rel.size, rel.tuples | {t})
        report = check_axioms(mutated, family)
        if all(report.check(n).holds for n in held):
            return False
    return True


def test_single_mutations_always_caught():
    assert every_mutation_breaks_an_axiom(finite_c_model(2, 2).relation, "C")
    assert every_mutation_breaks_an_axiom(
        b_from_poset(lambda_word_model([0, 1], 2)).relation, "B"
    )
    assert every_mutation_breaks_an_axiom(
        d_from_family(cyclic_group(4), [0, 2]).relation, "D"
    )


def test_order_mutations_can_land_on_another_order():
    # partial orders are not single-mutation rigid: adding 1 <= 0 to the
    # tree 0 < 2 > 1 yields the chain 1 < 0 < 2, which is again valid
    chain = relation(2, 3, V_ORDER.tuples | {(1, 0)})
    assert check_axioms(chain, "semilinear").ok
    # but the checker still rejects genuinely broken mutations
    assert not check_axioms(
        relation(2, 3, V_ORDER.tuples - {(0, 0)}), "semilinear"
    ).ok
    assert not check_axioms(
        relation(2, 3, V_ORDER.tuples | {(2, 0)}), "semilinear"
    ).ok
