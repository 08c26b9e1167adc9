"""The sparse inclusion matrix against the dense builder it replaces, kept
in ``tests/oracles.py``, and its p-ranks against a closed form.

build_r_matrix stores each row as the colex ranks of its k facets, and
both rank kernels read those columns directly; the dense entries are
derived only when read.  The labels, the entries and both ranks must be
what the dense builder gives.  The modular kernel is also checked against
Wilson's p-rank formula, whose small primes give ranks short of full, and
the battery's equivariance check against the dense loop it replaces.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from permlab import suite
from permlab.groups import _subsets_colex
from permlab.incidence import EXACT_RANK_LIMIT, build_r_matrix, rank, rank_mod_p
from permlab.perms import Permutation

import oracles


def test_colex_listing_matches_the_sorted_one():
    for n in range(13):
        for k in range(n + 1):
            assert _subsets_colex(n, k) == oracles.colex_subsets(n, k), (n, k)


ALL_LEVELS = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]


@pytest.mark.parametrize("n,k", ALL_LEVELS, ids=[f"n{n}-k{k}" for n, k in ALL_LEVELS])
def test_inclusion_matrix_equals_the_dense_builder(n, k):
    sparse = build_r_matrix(n, k)
    dense = oracles.dense_r_matrix(n, k)
    assert all(len(row) == k and list(row) == sorted(set(row)) for row in sparse.ones)
    assert rank_mod_p(sparse) == rank_mod_p(dense)
    if max(sparse.shape) <= EXACT_RANK_LIMIT:
        assert rank(sparse) == rank(dense)
    assert sparse._entries is None  # neither kernel derived the dense entries
    assert (sparse.rows, sparse.cols, sparse.shape) == (dense.rows, dense.cols, dense.shape)
    assert sparse.entries == dense.entries


INJECTIVE = [(n, k) for n in range(1, 13) for k in range(1, n + 1) if n >= 2 * k - 1]
PRIMES = (2, 3, 5, 7, 1_000_003)


@pytest.mark.parametrize("n,k", INJECTIVE, ids=[f"n{n}-k{k}" for n, k in INJECTIVE])
def test_mod_p_rank_equals_wilsons_formula(n, k):
    m = build_r_matrix(n, k)
    for p in PRIMES:
        assert rank_mod_p(m, p) == oracles.wilson_rank_mod_p(n, k, p), p


def test_small_primes_give_ranks_short_of_full():
    # a kernel that reported full rank would pass at p = 1 000 003 alone
    m = build_r_matrix(12, 6)
    assert len(m.cols) == 792
    assert rank_mod_p(m, 2) == oracles.wilson_rank_mod_p(12, 6, 2) == 462
    assert rank_mod_p(m, 3) == oracles.wilson_rank_mod_p(12, 6, 3) < 792
    assert rank_mod_p(m) == 792


# the battery's equivariance check


def _doctored(s: Permutation, i: int, j: int) -> Permutation:
    """s with the images of the 2-subsets i and j exchanged."""
    images = list(s.images)
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def test_equivariance_check_agrees_with_the_dense_loop():
    rng = random.Random(11)
    for name, group in suite._corpus():
        degree = group.degree
        ones = build_r_matrix(degree, 2).ones
        entries = oracles.dense_r_matrix(degree, 2).entries
        lifted = suite.induced_action(group, "subsets", 2).group.generators
        for s, g in zip(lifted, group.generators):
            assert suite._commutes_with_lift(ones, s, g), name
            assert oracles.dense_commutes_with_lift(entries, s, g, degree), name
            for _ in range(3):
                i, j = rng.sample(range(len(ones)), 2)
                bad = _doctored(s, i, j)
                assert not suite._commutes_with_lift(ones, bad, g), name
                assert not oracles.dense_commutes_with_lift(entries, bad, g, degree), name


def test_a_doctored_lift_is_reported_like_the_dense_loop_does(monkeypatch, rng):
    real = suite.induced_action
    target = dict(suite._corpus())["pg_2_2"]

    def doctored_action(group, kind, k, *args):
        action = real(group, kind, k, *args)
        if group is not target or (kind, k) != ("subsets", 2):
            return action
        first, *rest = action.group.generators
        generators = (_doctored(first, 0, 1), *rest)
        return SimpleNamespace(group=SimpleNamespace(generators=generators))

    monkeypatch.setattr(suite, "induced_action", doctored_action)
    want = []
    for name, group in suite._corpus():
        entries = oracles.dense_r_matrix(group.degree, 2).entries
        lifted = suite.induced_action(group, "subsets", 2).group.generators
        for s, g in zip(lifted, group.generators):
            if not oracles.dense_commutes_with_lift(entries, s, g, group.degree):
                want.append(("equivariance", name))
    assert want == [("equivariance", "pg_2_2")]
    passed, detail = suite._check_subset_incidence(rng)
    assert not passed
    assert detail.endswith(f"problems: {want[:2]}")
