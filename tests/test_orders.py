"""Dense-order toolkit: back-and-forth maps, piecewise-linear
automorphisms, derived ternary/quaternary relations, local checks."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab.errors import (
    ArityMismatch,
    LengthMismatch,
    NotAscending,
    NotLinearOrder,
    OutOfRange,
    RepeatedPoint,
)
from permlab.orders import (
    cantor_forth,
    derive_relation,
    evaluate,
    is_strict_linear_order,
    linear_order_relation,
    local_characterization_check,
    pl_automorphism,
    rational_enumeration,
    standard_rationals,
)
from permlab.perms import Permutation
from permlab.relations import (
    is_invariant,
    json_document,
    relabel_relation,
    relation,
    relation_from_object,
    relation_to_object,
)

import oracles

F = Fraction


def dyadics(count):
    # 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ... breadth-first by denominator
    out = []
    k = 1
    while len(out) < count:
        for num in range(1, 2 ** k, 2):
            out.append(F(num, 2 ** k))
            if len(out) == count:
                break
        k += 1
    return tuple(out)


# ---------------------------------------------------------------- enumerations


def test_standard_rationals_prefix():
    assert standard_rationals(12) == (
        F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2),
        F(1, 3), F(-1, 3), F(3, 2), F(-3, 2), F(2, 3),
    )


def test_standard_rationals_distinct():
    values = standard_rationals(500)
    assert len(set(values)) == 500


def test_enumeration_rejects_repeats():
    with pytest.raises(RepeatedPoint):
        rational_enumeration([1, 2, 1])


# ------------------------------------------------------------- back-and-forth


def test_forth_identical_prefixes_give_identity():
    values = standard_rationals(100)
    res = cantor_forth(values, values)
    assert res.exhausted is None
    assert res.mapping == tuple((v, v) for v in values)


def test_forth_single_item():
    res = cantor_forth([F(5)], [F(7), F(1)])
    assert res.mapping == ((F(5), F(7)),)
    assert res.exhausted is None


def test_forth_first_step_unconditional():
    res = cantor_forth([F(3), F(1)], [F(0), F(-4), F(9)])
    assert res.steps[0].lower is None and res.steps[0].upper is None
    assert res.steps[0].target == F(0) and res.steps[0].target_index == 0


def test_forth_dyadics_into_standard():
    res = cantor_forth(dyadics(50), standard_rationals(50))
    # the 50-term target prefix runs dry after 31 placements
    assert len(res.mapping) == 31
    assert res.exhausted == F(1, 64)
    pairs = sorted(res.mapping)
    assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))
    hit = {t for _, t in res.mapping}
    assert all(t in hit for t in standard_rationals(5))


def test_forth_trace_prefix():
    res = cantor_forth(dyadics(50), standard_rationals(50))
    seen = [(s.source, s.target, s.lower, s.upper) for s in res.steps[:7]]
    assert seen == [
        (F(1, 2), F(0), None, None),
        (F(1, 4), F(-1), None, F(0)),
        (F(3, 4), F(1), F(0), None),
        (F(1, 8), F(-2), None, F(-1)),
        (F(3, 8), F(-1, 2), F(-1), F(0)),
        (F(5, 8), F(1, 2), F(0), F(1)),
        (F(7, 8), F(2), F(1), None),
    ]


def test_forth_targets_stay_inside_intervals():
    res = cantor_forth(dyadics(40), standard_rationals(60))
    for step in res.steps:
        if step.lower is not None:
            assert step.lower < step.target
        if step.upper is not None:
            assert step.target < step.upper


def test_forth_exhaustion_is_reported_not_raised():
    res = cantor_forth([F(0), F(1), F(2)], [F(10), F(5)])
    assert res.mapping == ((F(0), F(10)),)
    assert res.exhausted == F(1)


def test_forth_random_prefixes_order_preserving(rng):
    for _ in range(30):
        n = rng.randrange(2, 25)
        source = rng.sample(range(-60, 60), n)
        den = rng.randrange(1, 5)
        target = [F(v, den) for v in rng.sample(range(-300, 300), 40)]
        res = cantor_forth([F(v) for v in source], target)
        pairs = sorted(res.mapping)
        assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))
        assert len({t for _, t in res.mapping}) == len(res.mapping)


# few distinct values, so targets run out often; either list may be empty
_SMALL_RATIONALS = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), unique=True, max_size=10
)


@given(_SMALL_RATIONALS, _SMALL_RATIONALS)
def test_forth_equals_the_loop_with_a_first_value_branch(source, target):
    assert cantor_forth(source, target) == oracles.first_value_cantor_forth(source, target)


def test_forth_first_value_with_no_target_is_exhausted():
    res = cantor_forth([F(3), F(1)], [])
    assert res == oracles.first_value_cantor_forth([F(3), F(1)], [])
    assert (res.mapping, res.steps, res.exhausted) == ((), (), F(3))


# ----------------------------------------------------------- piecewise linear


def test_pl_single_breakpoint_identity():
    m = pl_automorphism([0], [0])
    for omega in (F(-5), F(0), F(7, 3)):
        assert evaluate(m, omega) == omega


def test_pl_two_breakpoints_stretch():
    m = pl_automorphism([0, 1], [0, 2])
    assert evaluate(m, F(1, 2)) == F(1)
    assert evaluate(m, F(-3)) == F(-3)
    assert evaluate(m, F(2)) == F(3)


def test_pl_breakpoints_map_exactly(rng):
    for _ in range(50):
        k = rng.randrange(1, 7)
        alphas = sorted(rng.sample(range(-40, 40), k))
        betas = sorted(rng.sample(range(-40, 40), k))
        m = pl_automorphism(alphas, betas)
        for a, b in zip(alphas, betas):
            assert evaluate(m, a) == F(b)


def test_pl_strictly_monotone(rng):
    for _ in range(30):
        k = rng.randrange(1, 6)
        m = pl_automorphism(
            sorted(rng.sample(range(-30, 30), k)),
            sorted(rng.sample(range(-30, 30), k)),
        )
        points = sorted(F(rng.randrange(-500, 500), rng.randrange(1, 9)) for _ in range(12))
        images = [evaluate(m, p) for p in points]
        for (p, fp), (q, fq) in zip(zip(points, images), list(zip(points, images))[1:]):
            if p < q:
                assert fp < fq


def test_pl_exact_fractions():
    m = pl_automorphism([F(1, 3), F(1, 2)], [F(0), F(5)])
    omega = F(5, 12)
    # midway through the middle segment
    assert evaluate(m, omega) == F(0) + (omega - F(1, 3)) / F(1, 6) * F(5)
    assert isinstance(evaluate(m, omega), F)


def test_pl_validation():
    with pytest.raises(LengthMismatch):
        pl_automorphism([0, 1], [0])
    with pytest.raises(NotAscending):
        pl_automorphism([0, 0], [1, 2])
    with pytest.raises(NotAscending):
        pl_automorphism([0, 1], [2, 1])
    with pytest.raises(OutOfRange):
        pl_automorphism([], [])


# ---------------------------------------------------------- derived relations


def test_betweenness_three_points():
    order = linear_order_relation(3)
    rel = derive_relation(order, "betweenness")
    assert rel.tuples == {(1, 0, 2), (1, 2, 0)}


def test_betweenness_two_points_empty():
    rel = derive_relation(linear_order_relation(2), "betweenness")
    assert rel.tuples == frozenset()


def test_cyclic_three_points():
    rel = derive_relation(linear_order_relation(3), "cyclic")
    assert rel.tuples == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_separation_four_points():
    rel = derive_relation(linear_order_relation(4), "separation")
    assert (0, 2, 1, 3) in rel
    # only the crossing split {0,2} | {1,3} separates, in all orderings
    expected = {
        (a, b, c, d)
        for a, b in ((0, 2), (2, 0))
        for c, d in ((1, 3), (3, 1))
    }
    expected |= {(c, d, a, b) for a, b, c, d in expected}
    assert rel.tuples == expected
    assert len(rel.tuples) == 8


def test_derived_counts(rng):
    for n in (5, 6, 7):
        seq = list(range(n))
        rng.shuffle(seq)
        order = linear_order_relation(n, seq)
        b = derive_relation(order, "betweenness")
        c = derive_relation(order, "cyclic")
        s = derive_relation(order, "separation")
        choose3 = n * (n - 1) * (n - 2) // 6
        choose4 = choose3 * (n - 3) // 4
        assert len(b.tuples) == 2 * choose3
        assert len(c.tuples) == 3 * choose3
        assert len(s.tuples) == 8 * choose4


def test_derive_rejects_non_orders():
    partial = relation(2, 3, [(0, 1)])
    with pytest.raises(NotLinearOrder):
        derive_relation(partial, "betweenness")
    assert not is_strict_linear_order(partial)
    assert is_strict_linear_order(linear_order_relation(6))


def test_derive_commutes_with_relabeling(rng):
    for _ in range(20):
        n = rng.randrange(3, 8)
        seq = list(range(n))
        rng.shuffle(seq)
        images = list(range(n))
        rng.shuffle(images)
        kind = rng.choice(["betweenness", "cyclic", "separation"])
        direct = derive_relation(
            linear_order_relation(n, [images[p] for p in seq]), kind
        )
        transported = relabel_relation(
            derive_relation(linear_order_relation(n, seq), kind), images
        )
        assert direct.tuples == transported.tuples


def test_cyclic_invariance_under_rotation():
    n = 6
    rel = derive_relation(linear_order_relation(n), "cyclic")
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    swap = Permutation((1, 0, 2, 3, 4, 5))
    assert is_invariant(rel, rotation)
    assert not is_invariant(rel, swap)


def test_separation_invariance_under_dihedral():
    n = 6
    rel = derive_relation(linear_order_relation(n), "separation")
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    reflection = Permutation(tuple(n - 1 - i for i in range(n)))
    assert is_invariant(rel, rotation)
    assert is_invariant(rel, reflection)


def test_betweenness_invariance_under_reversal():
    n = 7
    rel = derive_relation(linear_order_relation(n), "betweenness")
    reversal = Permutation(tuple(n - 1 - i for i in range(n)))
    assert is_invariant(rel, reversal)


# ------------------------------------------------------------- local checks


def test_local_check_all_small_orders_exhaustive():
    for n in range(2, 6):
        for seq in itertools.permutations(range(n)):
            order = linear_order_relation(n, seq)
            assert local_characterization_check(order, "linear").ok
            for kind in ("betweenness", "cyclic", "separation"):
                rel = derive_relation(order, kind)
                assert local_characterization_check(rel, kind).ok


def test_local_check_seeded_larger_orders(rng):
    for n in (6, 7):
        for _ in range(40):
            seq = list(range(n))
            rng.shuffle(seq)
            order = linear_order_relation(n, seq)
            assert local_characterization_check(order, "linear").ok
            for kind in ("betweenness", "cyclic", "separation"):
                rel = derive_relation(order, kind)
                assert local_characterization_check(rel, kind).ok


def test_local_check_deleted_cyclic_tuple():
    rel = derive_relation(linear_order_relation(5), "cyclic")
    dropped = min(rel.tuples)
    broken = relation(3, 5, rel.tuples - {dropped})
    check = local_characterization_check(broken, "cyclic")
    assert not check.ok
    assert check.witness == (0, 1, 2, 3)
    assert len(check.witness) == 4


def test_local_check_vacuous_below_window():
    empty = relation(3, 2, [])
    assert local_characterization_check(empty, "betweenness").ok


def test_local_check_empty_relation_fails_at_window_size():
    empty = relation(3, 4, [])
    assert not local_characterization_check(empty, "betweenness").ok


def test_local_check_arity_guard():
    rel = derive_relation(linear_order_relation(5), "cyclic")
    with pytest.raises(ArityMismatch):
        local_characterization_check(rel, "separation")
    with pytest.raises(OutOfRange):
        local_characterization_check(rel, "circular")


def test_local_check_linear_mutations():
    order = linear_order_relation(5)
    missing = relation(2, 5, order.tuples - {(0, 1)})
    assert not local_characterization_check(missing, "linear").ok
    extra = relation(2, 5, order.tuples | {(1, 0)})
    assert not local_characterization_check(extra, "linear").ok


def test_local_check_mutation_sensitivity(rng):
    kinds = ("linear", "betweenness", "cyclic", "separation")
    for kind in kinds:
        for _ in range(12):
            n = rng.randrange(5, 8)
            seq = list(range(n))
            rng.shuffle(seq)
            order = linear_order_relation(n, seq)
            rel = order if kind == "linear" else derive_relation(order, kind)
            if rng.random() < 0.5:
                victim = rng.choice(sorted(rel.tuples))
                mutated = relation(rel.arity, n, rel.tuples - {victim})
            else:
                universe = set(itertools.product(range(n), repeat=rel.arity))
                extra = rng.choice(sorted(universe - rel.tuples))
                mutated = relation(rel.arity, n, rel.tuples | {extra})
            assert not local_characterization_check(mutated, kind).ok


# ------------------------------------------------------------- serialization


def test_relation_json_round_trip():
    rel = derive_relation(linear_order_relation(4), "separation")
    again = relation_from_object(json_document(json.dumps(relation_to_object(rel))))
    assert again == rel


def test_relation_object_round_trip_matches_the_json_text():
    rel = derive_relation(linear_order_relation(4), "separation")
    data = relation_to_object(rel)
    assert json.dumps(data) == json.dumps(relation_to_object(rel))
    assert relation_from_object(data) == rel
    assert relation_from_object(json.loads(json.dumps(relation_to_object(rel)))) == rel


def test_relation_json_is_one_based():
    rel = relation(2, 3, [(0, 1)])
    assert '"tuples": [[1, 2]]' in json.dumps(relation_to_object(rel))


def test_relation_refuses_a_negative_size():
    with pytest.raises(OutOfRange, match="relation size -1 is negative"):
        relation(2, -1, [])
