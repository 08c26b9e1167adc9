"""The array passes of the inclusion matrix against the loops they replace,
kept in ``tests/oracles.py``.

build_r_matrix ranks every row's facets at once from the level's points
and one table of binomials, _colex_table, which holds only the entries a
point can reach; rank_mod_p counts A * B of the block form [[A, 0],
[I, B]] in one bincount.  The labels, the stored columns, the products
and the ranks must be what the loops give, and the table must stay small
and inside int64 where a full n x k table of binomials would not.  The
points both levels list, and the cells of a subset permutation matrix,
are measured before any subset is listed.
"""

from __future__ import annotations

import math
import types

import numpy
import pytest

from permlab import incidence, suite
from permlab.cli import main
from permlab.errors import CapExceeded
from permlab.groups import clear_caches, cyclic_group
from permlab.incidence import ExactMatrix, build_r_matrix, rank_mod_p, subset_permutation_matrix

import oracles

PRIMES = (2, 3, 5, 7, 1_000_003)
ALL_LEVELS = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]


def test_the_colex_table_holds_the_reachable_binomials_only():
    for n in range(13):
        for k in range(n + 1):
            table = incidence._colex_table(n, k)
            assert table.shape == (n - k + 1, k) and table.dtype == numpy.int64, (n, k)
            for i in range(k):
                want = [math.comb(x, i + 1) for x in range(i, n - k + i + 1)]
                assert table[:, i].tolist() == want, (n, k, i)
            places = numpy.arange(k)
            ranks = table[incidence._level(n, k).points - places, places].sum(axis=1)
            assert ranks.tolist() == list(range(math.comb(n, k))), (n, k)


def test_every_inclusion_matrix_equals_the_facet_loop():
    for n, k in ALL_LEVELS:
        matrix, want = build_r_matrix(n, k), oracles.facet_loop_r_matrix(n, k)
        assert (matrix.rows, matrix.cols) == (want.rows, want.cols), (n, k)
        assert matrix.ones == want.ones, (n, k)
        assert {type(j) for row in matrix.ones for j in row} <= {int}, (n, k)


@pytest.mark.parametrize("n,k", [(70, 69), (70, 70), (100, 99)])
def test_levels_whose_full_binomial_table_overflows_int64(n, k):
    assert math.comb(n - 1, (n - 1) // 2) >= 2**63  # a full n x k table would wrap
    matrix, want = build_r_matrix(n, k), oracles.facet_loop_r_matrix(n, k)
    assert (matrix.rows, matrix.cols, matrix.ones) == (want.rows, want.cols, want.ones)


def _count_comb_calls(monkeypatch) -> list:
    """Patch incidence's math so that each comb call is appended to the
    list returned."""
    calls = []

    def comb(n, k):
        calls.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(incidence, "math", types.SimpleNamespace(**{**vars(math), "comb": comb}))
    return calls


def test_the_table_computes_only_the_reachable_binomials(capsys, monkeypatch):
    calls = _count_comb_calls(monkeypatch)
    n = k = 2000  # levels of 1 and 2000 subsets; a full table is 4 M binomials
    matrix = build_r_matrix(n, k)
    assert len(calls) <= k * (n - k + 2)
    assert matrix.ones == (tuple(range(n)),)
    assert main(["lw", "--n", "2000", "--k", "2000", "--format", "json"]) == 0
    assert '"rank": 1' in capsys.readouterr().out
    calls.clear()
    assert incidence._subset_orbit_count(cyclic_group(12), 6) == 80
    assert len(calls) <= 1 + 6 * (12 - 6 + 1)


def test_every_block_product_equals_the_gathered_rows():
    for n, k in ALL_LEVELS:
        matrix = build_r_matrix(n, k)
        ones = numpy.array(matrix.ones, dtype=numpy.intp)
        m = incidence._unit_block(ones)
        product = incidence._block_product(ones, m, len(matrix.cols))
        want = oracles.gathered_block_product(ones, m, len(matrix.cols))
        assert product.dtype == want.dtype and numpy.array_equal(product, want), (n, k)


@pytest.mark.parametrize("n,k", ALL_LEVELS, ids=[f"n{n}-k{k}" for n, k in ALL_LEVELS])
def test_rank_mod_p_equals_the_rank_of_the_gathered_product(n, k):
    matrix = build_r_matrix(n, k)
    ones = numpy.array(matrix.ones, dtype=numpy.intp)
    m = incidence._unit_block(ones)
    # the same rows bottom-up, with no unit block: the full-array route
    flipped = ExactMatrix(matrix.rows[::-1], matrix.cols, ones=matrix.ones[::-1])
    for p in PRIMES:
        product = oracles.gathered_block_product(ones, m, len(matrix.cols)) % p
        want = m + incidence._eliminate_mod_p(product, p)
        assert rank_mod_p(matrix, p) == rank_mod_p(flipped, p) == want, p


def test_subset_orbit_counts_on_the_shared_table_equal_the_inline_table():
    for name, group in suite._corpus():
        n = group.degree
        for k in range(n + 1):
            if math.comb(n, k) > 20_000:
                continue
            want = oracles.inline_table_subset_orbit_count(group, k)
            assert incidence._subset_orbit_count(group, k) == want, (name, k)


# what is measured before a subset is listed


def _never(*args):
    raise AssertionError("subsets listed before the check")


def test_the_points_both_levels_list_are_measured_first(capsys, monkeypatch):
    # each level holds at most 200000 subsets, but the 1999-subsets of the
    # wider one list 200000 * 199999 points
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()  # no kept level stands in for a listing
    monkeypatch.setattr(incidence, "_subsets_colex", _never)
    points = 200_000 + 200_000 * 199_999
    assert main(["lw", "--n", "200000", "--k", "200000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {points} points listed on levels 200000 and 199999 of 200000 points"
        f" at 64 per unit of cap, past cap 200000;"
        f" PERMLAB_CAP={-(-points // 64)} would suffice\n"
    )


def test_a_refused_dense_matrix_still_names_its_cells(capsys, monkeypatch):
    # 300 x 44850 cells and 13455000 listed points are both past the budget
    # of 12.8 M: the dense cells, checked first before, are still named
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()
    monkeypatch.setattr(incidence, "_subsets_colex", _never)
    assert main(["lw", "--n", "300", "--k", "299"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 13455000 cells in a dense 300x44850 matrix")
    with pytest.raises(CapExceeded, match="^13455000 points listed on levels 299 and 298"):
        build_r_matrix(300, 299)


def test_the_listing_bound_admits_what_fits_the_budget(monkeypatch):
    # both levels fit a cap of 2415, but C(70, 69) * 69 + C(70, 68) * 68 =
    # 169050 points take 2642 units of 64 cells
    monkeypatch.setenv("PERMLAB_CAP", "2641")
    clear_caches()
    monkeypatch.setattr(incidence, "_subsets_colex", _never)
    with pytest.raises(CapExceeded, match="^169050 points listed.*PERMLAB_CAP=2642 would suffice"):
        build_r_matrix(70, 69)
    monkeypatch.undo()
    monkeypatch.setenv("PERMLAB_CAP", "2642")
    assert build_r_matrix(70, 69).ones == oracles.facet_loop_r_matrix(70, 69).ones


def test_a_subset_permutation_matrix_is_measured_before_any_listing(monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()
    monkeypatch.setattr(incidence, "_subsets_colex", _never)
    g = cyclic_group(26).generators[0]
    # 14950 subsets fit the cap; 14950 x 14950 cells do not fit the budget
    with pytest.raises(CapExceeded, match="^223502500 cells in a dense 14950x14950 matrix"):
        subset_permutation_matrix(g, 4)
    with pytest.raises(CapExceeded, match="^657800 subsets on one level of 26 points"):
        subset_permutation_matrix(g, 7)

