"""Exact ranks from the S_n-module decomposition against the Bareiss
elimination they replace, kept in ``tests/oracles.py``.

incidence._module_rank sums dim V_j = C(n, j) - C(n, j - 1) over the j
whose test vector v_j = (a_0 - a_1)(a_2 - a_3)... the map does not kill.
It must equal the dense Bareiss rank on every sign matrix and every
inclusion matrix on at most 9 points, and on every inclusion matrix that
`lw --k` ranks by this route.  Mutants of its own source, with a factor
of v_j dropped or with dim V_j taken as C(n, j), must fail that
comparison, so it would catch either fault.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import textwrap

import numpy
import pytest

from permlab import incidence
from permlab.cli import main
from permlab.groups import clear_caches
from permlab.incidence import (
    EXACT_RANK_LIMIT,
    build_r_matrix,
    build_theta_matrix,
    rank_mod_p,
)

import oracles

SIGN_LEVELS = [(n, r, s) for n in range(10) for r, s in itertools.product(range(n + 1), repeat=2)]
INCLUSION_LEVELS = [
    (n, k)
    for n in range(1, 13)
    for k in range(1, n + 1)
    if n <= 9 or max(math.comb(n, k), math.comb(n, k - 1)) <= EXACT_RANK_LIMIT
]


@functools.cache
def _sign_oracle(n: int, r: int, s: int) -> int:
    return oracles.dense_bareiss_rank(build_theta_matrix(n, r, s))


@functools.cache
def _inclusion_oracle(n: int, k: int) -> int:
    return oracles.dense_bareiss_rank(build_r_matrix(n, k))


def _sign_rank(module_rank, n: int, r: int, s: int) -> int:
    signs = numpy.array(build_theta_matrix(n, r, s).entries, dtype=numpy.int64)
    return module_rank(n, r, s, signs.__matmul__)


def _inclusion_rank(module_rank, n: int, k: int) -> int:
    ones = numpy.array(build_r_matrix(n, k).ones)
    return module_rank(n, k - 1, k, lambda v: v[ones].sum(axis=1))


def _disagreements(module_rank) -> list[tuple]:
    """Every level whose rank differs from the Bareiss oracle's."""
    wrong = [
        ("sign", *levels)
        for levels in SIGN_LEVELS
        if _sign_rank(module_rank, *levels) != _sign_oracle(*levels)
    ]
    wrong += [
        ("inclusion", *levels)
        for levels in INCLUSION_LEVELS
        if _inclusion_rank(module_rank, *levels) != _inclusion_oracle(*levels)
    ]
    return wrong


def _mutant(old: str, new: str):
    """_module_rank recompiled from its source with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(incidence._module_rank))
    assert source.count(old) == 1, old
    namespace = dict(vars(incidence))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["_module_rank"]


def test_module_rank_equals_the_bareiss_oracle_on_every_level():
    assert len(SIGN_LEVELS) == 385
    assert _disagreements(incidence._module_rank) == []


def test_theta_ranks_come_from_the_module_route():
    clear_caches()
    for n, r, s in SIGN_LEVELS:
        assert incidence._theta_rank(n, r, s) == _sign_oracle(n, r, s), (n, r, s)


MUTANTS = {
    # every v_j with j > 0 loses its first factor, a_0 - a_1
    "a factor of v_j dropped": (
        "members[:, 0 : 2 * top : 2] - members[:, 1 : 2 * top : 2]",
        "numpy.where(numpy.arange(top) > 0, members[:, 0 : 2 * top : 2]"
        " - members[:, 1 : 2 * top : 2], 1)",
    ),
    "dim V_j taken as C(n, j)": (
        "math.comb(n, j) - math.comb(n, j - 1)",
        "math.comb(n, j)",
    ),
}


@pytest.mark.parametrize("old,new", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_mutant_of_the_module_rank_fails_the_oracle_comparison(old, new):
    assert _disagreements(_mutant(old, new))
    assert not _disagreements(_mutant(old, old))


# `lw --theta` past the size the Bareiss route could answer in seconds


def test_lw_theta_on_eleven_points_answers_through_the_module_route(capsys, monkeypatch):
    clear_caches()
    ranked = []
    real = incidence._module_rank

    def spy(n, r, s, image):
        ranked.append((n, r, s))
        return real(n, r, s, image)

    monkeypatch.setattr(incidence, "_module_rank", spy)
    assert main(["lw", "--n", "11", "--theta", "4,5,5", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["rank_rs"], report["rank_st"], report["rank_rt"]) == (330, 462, 330)
    assert ranked == [(11, 4, 5), (11, 5, 5)]  # (4, 5) twice, ranked once
    for r, s, want in ((4, 5, 330), (5, 5, 462)):
        assert rank_mod_p(build_theta_matrix(11, r, s)) == want
