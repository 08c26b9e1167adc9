from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import incidence
from permlab.errors import AxiomsFailed, CapExceeded, OutOfRange
from permlab.fixtures import fixture
from permlab.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    enumerate_elements,
    homogeneity_degree,
    symmetric_group,
)
from permlab.incidence import (
    ExactMatrix,
    build_r_matrix,
    build_theta_matrix,
    orbit_count_inequality,
    rank_mod_p,
    subset_permutation_matrix,
    theta_exploration,
)

import oracles


# inclusion matrices


def test_r_matrix_five_two():
    m = build_r_matrix(5, 2)
    assert m.shape == (10, 5)
    assert all(sum(row) == 2 for row in m.entries)
    assert rank_mod_p(m) == 5
    assert m.entry((0, 1), (1,)) == 1
    assert m.entry((0, 1), (2,)) == 0


def test_r_matrix_small_ranks():
    assert rank_mod_p(build_r_matrix(3, 2)) == 3
    m = build_r_matrix(6, 1)
    assert m.shape == (6, 1)
    assert rank_mod_p(m) == 1


def test_r_matrix_validation():
    with pytest.raises(OutOfRange):
        build_r_matrix(5, 0)
    with pytest.raises(OutOfRange):
        build_r_matrix(5, 6)


def test_square_case_has_full_rank():
    for k in range(1, 6):
        m = build_r_matrix(2 * k - 1, k)
        expected = math.comb(2 * k - 1, k - 1)
        assert m.shape == (expected, expected)
        assert rank_mod_p(m) == expected


def test_zero_matrix_rank():
    labels = ((0,), (1,))
    zero = ExactMatrix(labels, labels, ((0,) * 2,) * 2)
    assert rank_mod_p(zero) == 0


def test_matmul_label_mismatch():
    m = build_r_matrix(4, 2)
    with pytest.raises(ValueError):
        m.matmul(m)


def test_mod_p_rank_agrees_with_exact():
    for n, k in ((5, 2), (6, 3), (7, 3), (8, 4)):
        m = build_r_matrix(n, k)
        assert rank_mod_p(m) == oracles.dense_bareiss_rank(m)
    theta = build_theta_matrix(5, 2, 3)
    assert rank_mod_p(theta) == oracles.dense_bareiss_rank(theta)


def test_mod_p_rejects_a_prime_that_overflows_int64():
    # one column takes a single unreduced update below p^2; two overflow
    assert rank_mod_p(build_r_matrix(6, 1), p=2_147_483_647) == 1
    with pytest.raises(OutOfRange):
        rank_mod_p(build_r_matrix(6, 2), p=2_147_483_647)


def test_mod_p_certifies_injectivity_at_ten():
    m = build_r_matrix(10, 5)
    assert rank_mod_p(m) == len(m.cols) == 210


def test_csv_export():
    m = build_r_matrix(3, 2)
    assert m.to_csv() == "1,1,0\n1,0,1\n0,1,1"
    signed = ExactMatrix(((0,), (1,)), ((0,), (1,)), ((-3, 0), (2**70, 1)))
    assert signed.to_csv() == f"-3,0\n{2**70},1"


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
))
def test_row_and_column_sums(nk):
    n, k = nk
    m = build_r_matrix(n, k)
    assert all(sum(row) == k for row in m.entries)
    for j in range(len(m.cols)):
        assert sum(row[j] for row in m.entries) == n - k + 1


# module morphism


def test_inclusion_commutes_with_group_action():
    cases = ((fixture("pg_2_2").group, 3), (dihedral_group(5), 2))
    for group, k in cases:
        r = build_r_matrix(group.degree, k)
        for g in group.generators:
            left = subset_permutation_matrix(g, k).matmul(r)
            right = r.matmul(subset_permutation_matrix(g, k - 1))
            assert left.entries == right.entries


# orbit counts


def test_orbit_counts_on_subsets():
    assert orbit_count_inequality(cyclic_group(5), 2) == (1, 1, 2)
    assert orbit_count_inequality(dihedral_group(5), 2) == (1, 1, 2)
    assert orbit_count_inequality(symmetric_group(6), 3) == (1, 1, 1, 1)
    assert orbit_count_inequality(alternating_group(5), 2) == (1, 1, 1)
    with pytest.raises(OutOfRange):
        orbit_count_inequality(cyclic_group(5), 6)


def test_wrong_fixed_counts_fail_the_burnside_check(monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    monkeypatch.setattr(
        incidence, "_fixed_subset_counts", lambda g, kmax: [0] * (kmax + 1)
    )
    with pytest.raises(AxiomsFailed):
        orbit_count_inequality(cyclic_group(5), 2)


def test_orbit_counts_match_burnside_oracle():
    group = dihedral_group(6)
    counts = orbit_count_inequality(group, 3)
    elements = set(enumerate_elements(group))
    for k in range(1, 4):
        items = [frozenset(c) for c in itertools.combinations(range(6), k)]
        assert counts[k] == oracles.burnside_orbit_count(elements, items)


def test_single_orbit_propagates_down():
    # a single orbit on k-subsets forces one on every smaller level
    # while the domain stays at least twice the level
    for group in (
        symmetric_group(7),
        alternating_group(6),
        fixture("pg_2_2").group,
        dihedral_group(6),
    ):
        n = group.degree
        counts = orbit_count_inequality(group, n // 2)
        for k in range(1, n // 2 + 1):
            if counts[k] == 1 and n >= 2 * k:
                assert all(counts[m] == 1 for m in range(k + 1))
                assert homogeneity_degree(group, k) == k


# sign-map exploration


def test_theta_exploration_examples():
    rep = theta_exploration(4, 1, 2, 3)
    assert not rep.proportional
    assert rep.scalar is None
    assert (rep.rank_rs, rep.rank_st, rep.rank_rt) == (3, 3, 4)

    rep0 = theta_exploration(4, 0, 1, 2)
    assert rep0.proportional
    assert rep0.scalar == 0
    assert rep0.rank_rs == 1

    rep_square = theta_exploration(4, 2, 2, 3)
    assert rep_square.rank_rs == 3
    assert rep_square.proportional
    assert rep_square.scalar == 0


def test_theta_validation():
    with pytest.raises(OutOfRange):
        theta_exploration(4, 2, 1, 3)
    with pytest.raises(OutOfRange):
        theta_exploration(4, 1, 2, 5)
    with pytest.raises(CapExceeded):
        theta_exploration(30, 10, 15, 20, cap=1000)


def test_theta_matrix_shape_and_symmetry():
    theta = build_theta_matrix(5, 2, 2)
    assert theta.rows == theta.cols
    for i in range(len(theta.rows)):
        for j in range(len(theta.cols)):
            assert theta.entries[i][j] == theta.entries[j][i]
    assert set().union(*[set(r) for r in theta.entries]) == {1, -1}


# exact arithmetic against the rational oracle


def _labeled(entries) -> ExactMatrix:
    return ExactMatrix(
        tuple((i,) for i in range(len(entries))),
        tuple((j,) for j in range(len(entries[0]))),
        tuple(tuple(row) for row in entries),
    )


# every entry not of type int exactly, with the row it sits in
NON_INT_ENTRIES = [
    ("float", 1.0, "float"),
    ("str", "1", "str"),
    ("fraction", Fraction(1, 2), "Fraction"),
    ("bool", True, "bool"),
    ("numpy-int64", numpy.int64(1), "int64"),
]


@pytest.mark.parametrize(
    "entry,name", [c[1:] for c in NON_INT_ENTRIES], ids=[c[0] for c in NON_INT_ENTRIES]
)
def test_non_int_entries_are_refused_naming_the_row(entry, name):
    labels = ((0,), (1,), (2,))
    with pytest.raises(ValueError) as info:
        ExactMatrix(labels, labels[:2], ((1, 2), (3, entry), (entry, 4)))
    assert str(info.value) == f"entries row 1 holds an entry of type {name}, not int"


def test_builders_store_int_entries():
    matrices = [build_r_matrix(6, 3), build_theta_matrix(5, 2, 3)]
    matrices.append(subset_permutation_matrix(dihedral_group(5).generators[0], 2))
    matrices.append(matrices[0].matmul(build_r_matrix(6, 2)))
    for m in matrices:
        assert all(type(x) is int for row in m.entries for x in row)


def test_theta_scalar_is_a_fraction_or_none():
    for n in range(6):
        for r, s, t in itertools.combinations_with_replacement(range(n + 1), 3):
            rep = theta_exploration(n, r, s, t)
            assert rep.scalar is None or type(rep.scalar) is Fraction
    assert str(theta_exploration(4, 0, 1, 2).scalar) == "0"


def test_ranks_match_oracle_on_inclusion_matrices():
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = build_r_matrix(n, k)
            want = oracles.rational_rank(m.entries)
            assert rank_mod_p(m) == want, (n, k)


def test_ranks_match_oracle_on_theta_matrices():
    for n in range(7):
        for r in range(n + 1):
            for s in range(n + 1):
                m = build_theta_matrix(n, r, s)
                want = oracles.rational_rank(m.entries)
                assert incidence._theta_rank(n, r, s) == rank_mod_p(m) == want, (n, r, s)


@st.composite
def _low_rank_matrices(draw):
    """Integer product of a rows x inner and an inner x cols matrix: rank <= inner."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    inner = draw(st.integers(min_value=0, max_value=min(n_rows, n_cols)))
    small = st.integers(min_value=-3, max_value=3)
    left = [[draw(small) for _ in range(inner)] for _ in range(n_rows)]
    right = [[draw(small) for _ in range(n_cols)] for _ in range(inner)]
    return [
        [sum(left[i][m] * right[m][j] for m in range(inner)) for j in range(n_cols)]
        for i in range(n_rows)
    ]


@given(_low_rank_matrices())
def test_ranks_match_oracle_on_integer_matrices(entries):
    m = _labeled(entries)
    assert rank_mod_p(m) == oracles.rational_rank(entries)


@given(_low_rank_matrices(), st.booleans(), st.data())
def test_fraction_matrices_are_refused_and_rank_once_scaled(entries, per_entry, data):
    # one denominator per row keeps the product's low rank; one per entry
    # gives a matrix of unrelated rank.  Fractions are refused, even
    # integral ones; each row scaled to ints keeps the rational rank.
    denominators = st.integers(min_value=1, max_value=5)
    fractions = []
    for row in entries:
        d = data.draw(denominators)
        fractions.append(
            [Fraction(x, data.draw(denominators) if per_entry else d) for x in row]
        )
    with pytest.raises(ValueError, match="^entries row 0 holds an entry of type Fraction, not int$"):
        _labeled(fractions)
    m = _labeled(oracles._integer_rows(SimpleNamespace(entries=fractions)))
    assert rank_mod_p(m) == oracles.rational_rank(fractions)
