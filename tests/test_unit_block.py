"""The modular rank's one-step elimination of an inclusion matrix's unit
block, against the bottom-up elimination it replaces, kept in
``tests/oracles.py``.

In colex order the inclusion matrix is [[A, 0], [I, B]], with I of size
m = C(n-1, k-1).  rank_mod_p recognises that form in the stored columns
and ranks only A * B, adding m; any other sparse matrix goes to the plain
kernel whole.  Every rank must be what the old path gives, on the form,
on near misses that must fall through, and on every prime.  The stored
columns are checked when the matrix is made, since the recognizer reads
them as sorted rows of one length.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import incidence
from permlab.incidence import ExactMatrix, build_r_matrix, rank_mod_p

import oracles

PRIMES = (2, 3, 5, 7, 1_000_003)


def _unit_block(matrix: ExactMatrix) -> int:
    return incidence._unit_block(incidence.numpy.array(matrix.ones, dtype=incidence.numpy.intp))


@st.composite
def _block_forms(draw):
    """(m, B's column count, stored rows) of an equal-weight 0/1 matrix
    [[A, 0], [I, B]]: A's rows hold `weight` ones left of m, and the unit
    row i holds column i and weight - 1 columns of B's."""
    weight = draw(st.integers(1, 4))
    m = draw(st.integers(weight, 6))
    b_cols = draw(st.integers(weight - 1, 5))
    a_rows = draw(st.integers(0, 6))
    left, right = st.permutations(range(m)), st.permutations(range(m, m + b_cols))
    above = [tuple(sorted(draw(left)[:weight])) for _ in range(a_rows)]
    unit = [(i, *sorted(draw(right)[: weight - 1])) for i in range(m)]
    return m, b_cols, above + unit


def _matrix(m: int, b_cols: int, ones) -> ExactMatrix:
    return ExactMatrix(
        tuple((i,) for i in range(len(ones))),
        tuple((j,) for j in range(m + b_cols)),
        ones=tuple(ones),
    )


def _assert_block_product(matrix: ExactMatrix, m: int) -> None:
    ones = incidence.numpy.array(matrix.ones, dtype=incidence.numpy.intp)
    product = incidence._block_product(ones, m, len(matrix.cols))
    want = oracles.gathered_block_product(ones, m, len(matrix.cols))
    assert product.dtype == want.dtype and incidence.numpy.array_equal(product, want)


def _assert_oracle_ranks(matrix: ExactMatrix) -> None:
    for p in PRIMES:
        assert rank_mod_p(matrix, p) == oracles.bottom_up_rank_mod_p(matrix, p), p


@given(_block_forms())
def test_block_form_ranks_equal_the_bottom_up_kernel(form):
    m, b_cols, ones = form
    matrix = _matrix(m, b_cols, ones)
    assert _unit_block(matrix) == m
    _assert_block_product(matrix, m)
    _assert_oracle_ranks(matrix)


EDGE_FORMS = {
    "no A rows": (2, 3, [(0, 2, 4), (1, 3, 4)]),
    "B without columns": (3, 0, [(0,), (2,), (1,), (0,), (1,), (2,)]),
    "weight 1": (3, 2, [(2,), (0,), (0,), (1,), (2,)]),
    "a single row": (1, 0, [(0,)]),
    "a single row with B": (1, 3, [(0, 1, 3)]),
    "A rows that repeat": (2, 2, [(0, 1), (0, 1), (0, 1), (0, 2), (1, 3)]),
}


@pytest.mark.parametrize("form", EDGE_FORMS.values(), ids=EDGE_FORMS.keys())
def test_edge_block_forms_equal_the_bottom_up_kernel(form):
    m, b_cols, ones = form
    matrix = _matrix(m, b_cols, ones)
    assert _unit_block(matrix) == m
    _assert_block_product(matrix, m)
    _assert_oracle_ranks(matrix)


@given(_block_forms(), st.data())
def test_an_a_row_reaching_column_m_falls_through(form, data):
    m, b_cols, ones = form
    a_rows = len(ones) - m
    if a_rows == 0 or b_cols == 0:
        return
    i = data.draw(st.integers(0, a_rows - 1))
    ones[i] = (*ones[i][:-1], m)
    matrix = _matrix(m, b_cols, ones)
    assert _unit_block(matrix) == 0
    _assert_oracle_ranks(matrix)


@given(_block_forms(), st.data())
def test_two_swapped_unit_rows_fall_through(form, data):
    m, b_cols, ones = form
    if m < 2:
        return
    top = len(ones) - m
    i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    ones[top + i], ones[top + j] = ones[top + j], ones[top + i]
    matrix = _matrix(m, b_cols, ones)
    assert _unit_block(matrix) == 0
    _assert_oracle_ranks(matrix)


ALL_LEVELS = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]


def test_every_inclusion_matrix_has_the_unit_block_of_its_last_point():
    for n, k in ALL_LEVELS:
        assert _unit_block(build_r_matrix(n, k)) == math.comb(n - 1, k - 1), (n, k)


def test_flipped_inclusion_matrices_are_not_recognised():
    for n, k in [(9, 4), (9, 5), (12, 6), (12, 5)]:
        m = build_r_matrix(n, k)
        flipped = ExactMatrix(m.rows[::-1], m.cols, ones=m.ones[::-1])
        assert _unit_block(flipped) == 0, (n, k)


def test_the_kernel_visits_only_the_columns_of_a_times_b(monkeypatch):
    # at most two nonzero searches per visited column: 792 columns in
    # full, 330 in A * B
    calls = []
    real = incidence.numpy.flatnonzero

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    matrix = build_r_matrix(12, 6)
    monkeypatch.setattr(incidence.numpy, "flatnonzero", counted)
    assert rank_mod_p(matrix) == 792
    assert 0 < len(calls) < 792


# the stored columns are checked when the matrix is made

LABELS = ((0,), (1,))

MALFORMED = {
    "a column past the last": (((0,), (5,)), "ones row 1 is not strictly increasing ints in 0..1"),
    "a negative column": (((0,), (-1,)), "ones row 1 is not strictly increasing ints in 0..1"),
    "ragged rows": (((0,), (0, 1)), "ones row 1 holds 2 ones, row 0 1"),
    "a short row": (((0, 1), (0,)), "ones row 1 holds 1 ones, row 0 2"),
    "a decreasing row": (((1, 0), (0, 1)), "ones row 0 is not strictly increasing ints in 0..1"),
    "a repeated column": (((0, 1), (1, 1)), "ones row 1 is not strictly increasing ints in 0..1"),
    "a float column": (((0,), (1.0,)), "ones row 1 is not strictly increasing ints in 0..1"),
    "a bool column": (((False,), (1,)), "ones row 0 is not strictly increasing ints in 0..1"),
}


@pytest.mark.parametrize("ones,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_stored_columns_are_refused_naming_the_row(ones, message):
    with pytest.raises(ValueError) as caught:
        ExactMatrix(LABELS, LABELS, ones=ones)
    assert str(caught.value) == message


def test_well_formed_stored_columns_are_kept():
    for ones in [((), ()), ((0,), (0,)), ((0, 1), (0, 1)), ((1,), (0,))]:
        matrix = ExactMatrix(LABELS, LABELS, ones=ones)
        assert matrix.ones == ones
        want = oracles.dense_bareiss_rank(matrix)
        assert rank_mod_p(matrix) == oracles.bottom_up_rank_mod_p(matrix) == want
