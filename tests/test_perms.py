from __future__ import annotations

import doctest
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permlab.perms as perms
from permlab.errors import (
    DegreeMismatch,
    MalformedSyntax,
    PointOutOfRange,
    RepeatedPoint,
)
from permlab.perms import (
    Permutation,
    compose,
    conjugate,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    identity,
    inverse,
    involution_factorization,
    parse_cycles,
    support_fix_degree,
)

import oracles


def perm_strategy(max_degree: int = 10):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))
    )


def test_doctests():
    results = doctest.testmod(perms)
    assert results.failed == 0


# parsing


def test_parse_basic():
    f = parse_cycles("(1 2 3)(4 5)", 5)
    assert f.images == (1, 2, 0, 4, 3)


def test_parse_identity_forms():
    assert parse_cycles("()", 4) == identity(4)
    assert parse_cycles("", 4) == identity(4)
    assert parse_cycles("  ", 4) == identity(4)


def test_parse_singleton_cycle_is_fixed_point():
    assert parse_cycles("(3)", 4) == identity(4)


def test_parse_repeated_point():
    with pytest.raises(RepeatedPoint):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(RepeatedPoint):
        parse_cycles("(1 1)", 2)


def test_parse_out_of_range():
    with pytest.raises(PointOutOfRange):
        parse_cycles("(1 5)", 4)
    with pytest.raises(PointOutOfRange):
        parse_cycles("(0 1)", 4)
    with pytest.raises(PointOutOfRange):
        parse_cycles("(-2 1)", 4)


def test_parse_malformed():
    for bad in ["(1 2", "1 2)", "(1 a)", "[1 2]", "(1,2)"]:
        with pytest.raises(MalformedSyntax):
            parse_cycles(bad, 4)


@given(perm_strategy())
def test_parse_format_round_trip(f):
    assert parse_cycles(format_cycles(f), f.degree) == f


def test_format_canonical():
    assert format_cycles(parse_cycles("(5 4)(3 1 2)", 5)) == "(1 2 3)(4 5)"
    assert format_cycles(identity(6)) == "()"


# composition


def test_compose_frozen_example():
    f = parse_cycles("(1 2)", 3)
    g = parse_cycles("(2 3)", 3)
    assert format_cycles(compose(f, g)) == "(1 3 2)"
    assert compose(f, g) == oracles.mul(f, g)


@given(perm_strategy())
def test_compose_identity_and_inverse(f):
    e = identity(f.degree)
    assert compose(e, f) == f
    assert compose(f, e) == f
    assert compose(f, inverse(f)) == e
    assert inverse(f) == oracles.inv(f)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


@given(perm_strategy(6), perm_strategy(6))
def test_compose_matches_oracle(f, g):
    if f.degree != g.degree:
        return
    assert compose(f, g) == oracles.mul(f, g)


# support and cycle structure


def test_support_fix_degree_examples():
    support, fix, deg = support_fix_degree(identity(5))
    assert (support, fix, deg) == (frozenset(), frozenset(range(5)), 0)
    support, fix, deg = support_fix_degree(parse_cycles("(1 2 3)", 5))
    assert support == frozenset({0, 1, 2})
    assert fix == frozenset({3, 4})
    assert deg == 3


@given(perm_strategy(8), perm_strategy(8))
def test_conjugate_support_translates(f, g):
    if f.degree != g.degree:
        return
    support_f, _, _ = support_fix_degree(f)
    support_c, _, _ = support_fix_degree(conjugate(f, g))
    assert support_c == frozenset(g.images[p] for p in support_f)


@given(perm_strategy(10), perm_strategy(10))
def test_support_of_product_contained_in_union(f, g):
    if f.degree != g.degree:
        return
    sf, _, _ = support_fix_degree(f)
    sg, _, _ = support_fix_degree(g)
    sfg, _, _ = support_fix_degree(compose(f, g))
    assert sfg <= sf | sg


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == {1: 4}
    assert cycle_type(parse_cycles("(1 2 3)(4 5)", 6)) == {1: 1, 2: 1, 3: 1}


@given(perm_strategy(8), perm_strategy(8))
def test_cycle_type_conjugation_invariant(f, g):
    if f.degree != g.degree:
        return
    assert cycle_type(f) == cycle_type(conjugate(f, g))


@given(perm_strategy(9))
def test_cycle_type_sums_to_degree(f):
    assert sum(r * a for r, a in cycle_type(f).items()) == f.degree


def test_cycle_decomposition_canonical():
    f = parse_cycles("(2 5)(1 4 3)", 5)
    assert cycle_decomposition(f) == ((0, 3, 2), (1, 4))


# conjugacy


def test_conjugate_frozen_examples():
    f = parse_cycles("(1 2)", 4)
    h = parse_cycles("(1 3)(2 4)", 4)
    assert conjugate(f, h) == parse_cycles("(3 4)", 4)
    assert conjugate(f, identity(4)) == f
    assert cycle_type(parse_cycles("(1 2)", 3)) != cycle_type(parse_cycles("(1 2 3)", 3))


def test_conjugate_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        conjugate(identity(3), identity(4))


def test_cycle_type_decides_conjugacy_small():
    for n in range(1, 5):
        group = oracles.sym(n)
        for f, g in itertools.product(group, repeat=2):
            brute = oracles.brute_conjugator(f, g)
            assert (cycle_type(f) == cycle_type(g)) == (brute is not None)
            if brute is not None:
                assert conjugate(f, brute) == g


def test_cycle_type_decides_conjugacy_sampled(rng):
    for n in (5, 6):
        group = oracles.sym(n)
        for _ in range(40):
            f = rng.choice(group)
            g = rng.choice(group)
            brute = oracles.brute_conjugator(f, g)
            assert (cycle_type(f) == cycle_type(g)) == (brute is not None)
            if brute is not None:
                assert conjugate(f, brute) == g


# involution factorization


def test_involution_factorization_frozen_examples():
    t1, t2 = involution_factorization(parse_cycles("(1 2 3)", 3))
    assert format_cycles(t1) == "(2 3)"
    assert format_cycles(t2) == "(1 2)"

    t1, t2 = involution_factorization(parse_cycles("(1 2 3 4)", 4))
    assert format_cycles(t1) == "(2 4)"
    assert format_cycles(t2) == "(1 2)(3 4)"

    t1, t2 = involution_factorization(identity(5))
    assert t1 == t2 == identity(5)


def check_involution_split(f):
    t1, t2 = involution_factorization(f)
    e = identity(f.degree)
    assert compose(t1, t1) == e
    assert compose(t2, t2) == e
    assert compose(t1, t2) == f
    sf, _, _ = support_fix_degree(f)
    s1, _, _ = support_fix_degree(t1)
    s2, _, _ = support_fix_degree(t2)
    assert s1 <= sf and s2 <= sf


def test_involution_factorization_exhaustive_small():
    for n in range(1, 7):
        for f in oracles.sym(n):
            check_involution_split(f)


def test_involution_factorization_degree_nine_sample(rng):
    points = list(range(9))
    for _ in range(200):
        rng.shuffle(points)
        check_involution_split(Permutation(tuple(points)))
