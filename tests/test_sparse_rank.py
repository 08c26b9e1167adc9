"""The modular rank against the dense elimination it replaces, kept in
``tests/oracles.py``.

rank_mod_p updates only the columns where the pivot row is nonzero.  The
arithmetic is the same as the dense code's, so the ranks must be the same
on every matrix:
the inclusion and sign matrices the library ranks, and sparse random
matrices with dependent rows, zero rows and zero columns between pivots.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from permlab.incidence import (
    ExactMatrix,
    build_r_matrix,
    build_theta_matrix,
    rank_mod_p,
)

import oracles


def _labeled(entries) -> ExactMatrix:
    return ExactMatrix(
        tuple((i,) for i in range(len(entries))),
        tuple((j,) for j in range(len(entries[0]))),
        tuple(tuple(row) for row in entries),
    )


# the matrices the library ranks


INCLUSION = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]


@pytest.mark.parametrize("n,k", INCLUSION, ids=[f"n{n}-k{k}" for n, k in INCLUSION])
def test_inclusion_matrices_match_the_dense_kernels(n, k):
    m = build_r_matrix(n, k)
    assert rank_mod_p(m) == oracles.converting_rank_mod_p(m)


def test_theta_matrices_match_the_dense_kernels():
    for n in range(8):
        for r, s in itertools.product(range(n + 1), repeat=2):
            m = build_theta_matrix(n, r, s)
            assert rank_mod_p(m) == oracles.converting_rank_mod_p(m), (n, r, s)


# sparse matrices up to 30 x 30


PRIMES = st.sampled_from((2, 3, 5, 7, 1_000_003))

# every generated example runs, but a failing one is reported as drawn:
# shrinking examples of up to 900 cells through a broken kernel takes
# longer than the rest of the suite
NO_SHRINK = settings(phases=[phase for phase in Phase if phase is not Phase.shrink])


@st.composite
def _sparse_matrices(draw, bound: int):
    """About 80% zeros, then made rank-deficient: some rows repeated, some
    set to the sum of two others (entries cancel), some zeroed, and zero
    columns put in between the others."""
    n_rows = draw(st.integers(min_value=1, max_value=30))
    n_cols = draw(st.integers(min_value=1, max_value=30))
    value = st.integers(min_value=-bound, max_value=bound).filter(bool)
    rows = [
        [draw(value) if draw(st.integers(0, 4)) == 0 else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    index = st.integers(min_value=0, max_value=n_rows - 1)
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(index)] = list(rows[draw(index)])
    for _ in range(draw(st.integers(0, 3))):
        a, b = rows[draw(index)], rows[draw(index)]
        rows[draw(index)] = [x + y for x, y in zip(a, b)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(index)] = [0] * n_cols
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(min_value=0, max_value=len(rows[0])))
        for row in rows:
            row.insert(at, 0)
    return rows


@NO_SHRINK
@given(_sparse_matrices(3), PRIMES)
def test_sparse_int_matrices_match_the_dense_kernels(entries, p):
    m = _labeled(entries)
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p)


@NO_SHRINK
@given(_sparse_matrices(2**70), PRIMES)
def test_sparse_wide_int_matrices_match_the_dense_kernels(entries, p):
    m = _labeled(entries)
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p)


@NO_SHRINK
@given(_sparse_matrices(6), st.data(), PRIMES)
def test_sparse_fraction_matrices_are_refused_and_match_the_dense_kernels_once_scaled(
    entries, data, p
):
    denominators = st.integers(min_value=1, max_value=5)
    fractions = [[Fraction(x, data.draw(denominators)) for x in row] for row in entries]
    with pytest.raises(ValueError, match="^entries row 0 holds an entry of type Fraction, not int$"):
        _labeled(fractions)
    unlabeled = SimpleNamespace(entries=fractions, shape=(len(fractions), len(fractions[0])))
    m = _labeled(oracles._integer_rows(unlabeled))
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(unlabeled, p)


# hand-made deficiencies, each with its rank written out


DEFICIENT = [
    # a zero column between the two pivots, and a repeated row
    ("zero-column", [[1, 0, 2], [1, 0, 2], [0, 0, 3]], 2),
    # the third row is the sum of the first two: everything cancels
    ("row-sum", [[1, 2, 0, 0], [0, 1, 3, 0], [1, 3, 3, 0], [0, 0, 0, 5]], 3),
    # a zero row above a pivot, rows that need a swap
    ("zero-row", [[0, 0, 0], [0, 4, 0], [2, 0, 6], [1, 0, 3]], 2),
    # fill-in: the pivot row brings entries into a row that had none there
    ("fill-in", [[1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4),
    # two rows with factor 0 at the first pivot: left unscaled, they make
    # a later division by that pivot inexact and lose a rank
    ("factor-zero", [[0, 1, 2, 0], [3, 0, 0, -1], [0, 1, 0, 0], [2, 2, 0, 0]], 4),
]


@pytest.mark.parametrize(
    "entries,want", [c[1:] for c in DEFICIENT], ids=[c[0] for c in DEFICIENT]
)
def test_deficient_matrices_have_their_rank(entries, want):
    m = _labeled(entries)
    assert oracles.dense_bareiss_rank(m) == oracles.rational_rank(entries) == want
    for p in (2, 3, 5, 7, 1_000_003):
        assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p), p
