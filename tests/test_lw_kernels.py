"""The `lw` kernels against the code they replace, kept in ``tests/oracles.py``.

rank_mod_p and rank load a sparse 0/1 matrix bottom-up, so that in colex
order each column of an inclusion matrix meets a unit row first; the
modular kernel also finds its live rows from the pivot column's hits.
The sign matrices are int64 arrays: intersection sizes from one product
of point-membership rows, and theta_exploration composes them with one
array product.  Subset orbits are counted from the generators' image
ranks, with no induced group.  Every answer must be what the old code
gives, and every array of the theta route is held to the cell budget.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import incidence
from permlab.errors import CapExceeded
from permlab.fixtures import FIXTURE_NAMES, fixture
from permlab.groups import induced_action, orbits
from permlab.incidence import (
    EXACT_RANK_LIMIT,
    ExactMatrix,
    build_r_matrix,
    build_theta_matrix,
    orbit_count_inequality,
    rank,
    rank_mod_p,
    theta_exploration,
)

import oracles

PRIMES = (2, 3, 5, 7, 1_000_003)
ALL_LEVELS = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]


def _dense(m: ExactMatrix) -> ExactMatrix:
    """The same matrix, given by its entries."""
    return ExactMatrix(m.rows, m.cols, m.entries)


@pytest.mark.parametrize("n,k", ALL_LEVELS, ids=[f"n{n}-k{k}" for n, k in ALL_LEVELS])
def test_mod_p_rank_of_an_inclusion_matrix_equals_the_oracle(n, k):
    sparse = build_r_matrix(n, k)
    dense = _dense(sparse)
    for p in PRIMES:
        want = oracles.column_support_rank_mod_p(sparse, p)
        assert rank_mod_p(sparse, p) == want, p
        assert rank_mod_p(dense, p) == want, p


EXACT_LEVELS = [
    (n, k)
    for n, k in ALL_LEVELS
    if max(math.comb(n, k), math.comb(n, k - 1)) <= EXACT_RANK_LIMIT
]


@pytest.mark.parametrize("n,k", EXACT_LEVELS, ids=[f"n{n}-k{k}" for n, k in EXACT_LEVELS])
def test_exact_rank_of_an_inclusion_matrix_equals_the_oracle(n, k):
    sparse = build_r_matrix(n, k)
    got = rank(sparse)
    assert sparse._entries is None  # read from the stored columns
    assert got == rank(_dense(sparse)) == oracles.dense_bareiss_rank(sparse)


def test_the_rank_does_not_depend_on_the_row_order():
    for n, k in [(9, 4), (9, 5), (12, 6), (12, 5)]:
        m = build_r_matrix(n, k)
        flipped = ExactMatrix(m.rows[::-1], m.cols, ones=m.ones[::-1])
        for p in (2, 3, 1_000_003):
            want = oracles.wilson_rank_mod_p(n, k, p)
            assert rank_mod_p(flipped, p) == rank_mod_p(m, p) == want
        if max(m.shape) <= EXACT_RANK_LIMIT:
            assert rank(flipped) == rank(m)


@st.composite
def _ones_matrices(draw):
    """A 0/1 matrix stored sparse, with as many ones in every row."""
    n_rows = draw(st.integers(1, 9))
    n_cols = draw(st.integers(1, 9))
    per_row = draw(st.integers(0, n_cols))
    row = st.sets(st.integers(0, n_cols - 1), min_size=per_row, max_size=per_row)
    ones = tuple(tuple(sorted(draw(row))) for _ in range(n_rows))
    labels = tuple((i,) for i in range(n_rows)), tuple((j,) for j in range(n_cols))
    return ExactMatrix(*labels, ones=ones)


@given(_ones_matrices(), st.sampled_from(PRIMES))
def test_sparse_kernels_equal_the_oracles_on_any_ones_matrix(m, p):
    dense = _dense(m)
    assert rank_mod_p(m, p) == oracles.column_support_rank_mod_p(dense, p)
    assert rank(m) == oracles.dense_bareiss_rank(dense) == oracles.rational_rank(dense.entries)


# the sign matrices


THETA_LEVELS = [(n, r, s) for n in range(9) for r in range(n + 1) for s in range(n + 1)]


def test_theta_matrices_equal_the_tuple_builder():
    for n, r, s in THETA_LEVELS:
        got = build_theta_matrix(n, r, s)
        want = oracles.tuple_theta_matrix(n, r, s)
        assert (got.rows, got.cols) == (want.rows, want.cols), (n, r, s)
        assert got.entries == want.entries, (n, r, s)
        assert all(type(x) is int for row in got.entries for x in row), (n, r, s)


TRIPLES = [
    (n, r, s, t)
    for n in range(8)
    for r, s, t in itertools.combinations_with_replacement(range(n + 1), 3)
]


def test_theta_exploration_equals_the_oracle_field_by_field():
    for triple in TRIPLES:
        got = theta_exploration(*triple)
        want = oracles.uncached_theta_exploration(*triple)
        assert got == want, triple
        assert type(got.proportional) is bool, triple


def _no_arrays(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an array was allocated past the cell budget")

    monkeypatch.setattr(incidence.numpy, "zeros", never)


def test_theta_cell_budget_names_the_cap_that_admits_every_array(monkeypatch):
    # on 8 points the 4 -> 4 sign array is 70 x 70 = 4900 cells, and
    # 64 * 77 is the first budget past it
    with monkeypatch.context() as patched:
        _no_arrays(patched)
        with pytest.raises(CapExceeded, match=r"70x70 matrix.*PERMLAB_CAP=77 would"):
            theta_exploration(8, 0, 4, 4, cap=76)
    assert theta_exploration(8, 0, 4, 4, cap=77) == oracles.uncached_theta_exploration(8, 0, 4, 4)


def test_theta_cell_budget_counts_the_membership_arrays(monkeypatch):
    # every sign array here has at most 300 cells, but the membership
    # array of the 300 single points is 300 x 300
    _no_arrays(monkeypatch)
    with pytest.raises(CapExceeded, match=r"90000 cells in a dense 300x300 matrix"):
        theta_exploration(300, 0, 0, 1, cap=1406)


def test_theta_matrix_builder_checks_the_cell_budget(monkeypatch):
    monkeypatch.setenv("PERMLAB_CAP", "76")
    _no_arrays(monkeypatch)
    with pytest.raises(CapExceeded, match="PERMLAB_CAP=77 would suffice"):
        build_theta_matrix(8, 4, 4)


# subset orbits


CORPUS_LEVELS = [
    (name, k)
    for name in FIXTURE_NAMES
    for k in range(1, fixture(name).group.degree // 2 + 1)
]


@pytest.mark.parametrize(
    "name,k", CORPUS_LEVELS, ids=[f"{name}-k{k}" for name, k in CORPUS_LEVELS]
)
def test_subset_orbit_count_equals_the_induced_action(name, k):
    group = fixture(name).group
    want = len(orbits(induced_action(group, "subsets", k).group))
    assert incidence._subset_orbit_count(group, k) == want


def test_orbit_counts_equal_the_induced_action_on_every_corpus_group():
    for name in FIXTURE_NAMES:
        group = fixture(name).group
        kmax = group.degree // 2
        want = [1] + [
            len(orbits(induced_action(group, "subsets", k).group)) for k in range(1, kmax + 1)
        ]
        assert orbit_count_inequality(group, kmax) == tuple(want), name


def test_subset_orbit_count_checks_the_level_against_the_cap(monkeypatch):
    def never(*args):
        raise AssertionError("subsets listed past the cap")

    # |C8| = 8 passes the cap, and so do the levels below C(8, 4) = 70
    too_wide = "derived domain of size 70, past cap 69; PERMLAB_CAP=70 would suffice"
    group = fixture("cyclic_8").group
    assert orbit_count_inequality(group, 3, cap=69) == (1, 1, 4, 7)
    with pytest.raises(CapExceeded, match=too_wide):
        orbit_count_inequality(group, 4, cap=69)
    monkeypatch.setattr(incidence, "_subsets_colex", never)
    with pytest.raises(CapExceeded, match=too_wide):
        incidence._subset_orbit_count(group, 4, cap=69)
