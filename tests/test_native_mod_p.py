"""The int64 route of rank_mod_p and the memoised theta ranks against the
code they replace, kept in ``tests/oracles.py``.

rank_mod_p reduces each int entry mod p and reads the residues into one
int64 array; a matrix of any other entries is refused when it is made.
theta_exploration takes its ranks from a cache keyed on (n, r, s).  Both
must give exactly what the old code gave.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import incidence
from permlab.errors import CapExceeded, OutOfRange
from permlab.cli import main
from permlab.groups import clear_caches, cyclic_group
from permlab.incidence import (
    ExactMatrix,
    build_r_matrix,
    build_theta_matrix,
    orbit_count_inequality,
    rank_mod_p,
    theta_exploration,
)

import oracles


def _labeled(entries) -> ExactMatrix:
    return ExactMatrix(
        tuple((i,) for i in range(len(entries))),
        tuple((j,) for j in range(len(entries[0]))),
        tuple(tuple(row) for row in entries),
    )


# the int64 route against the converting one


INCLUSION = [(n, k) for n in range(1, 13) for k in range(1, n + 1) if n >= 2 * k - 1]


@pytest.mark.parametrize("n,k", INCLUSION, ids=[f"n{n}-k{k}" for n, k in INCLUSION])
def test_inclusion_matrices_equal_the_converting_route(n, k):
    m = build_r_matrix(n, k)
    assert numpy.array(m.entries).dtype == numpy.int64
    assert rank_mod_p(m) == oracles.converting_rank_mod_p(m) == len(m.cols)


def test_theta_matrices_equal_the_converting_route():
    for n in range(8):
        for r, s in itertools.product(range(n + 1), repeat=2):
            m = build_theta_matrix(n, r, s)
            assert rank_mod_p(m) == oracles.converting_rank_mod_p(m) == oracles.dense_bareiss_rank(m), (n, r, s)


@st.composite
def _int_matrices(draw, bound: int):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-bound, max_value=bound)
    return [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]


PRIMES = st.sampled_from((2, 3, 5, 7, 1_000_003))


@given(_int_matrices(3), PRIMES)
def test_small_int_matrices_equal_the_converting_route(entries, p):
    m = _labeled(entries)
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p)
    assert rank_mod_p(m) == oracles.rational_rank(entries)


@given(_int_matrices(2**70), PRIMES)
def test_wide_int_matrices_equal_the_converting_route(entries, p):
    m = _labeled(entries)
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p)


@given(_int_matrices(6), st.data(), PRIMES)
def test_fraction_matrices_are_refused_and_equal_the_converting_route_once_scaled(
    entries, data, p
):
    fractions = [
        [Fraction(x, data.draw(st.integers(min_value=1, max_value=5))) for x in row]
        for row in entries
    ]
    with pytest.raises(ValueError, match="^entries row 0 holds an entry of type Fraction, not int$"):
        _labeled(fractions)
    unlabeled = SimpleNamespace(entries=fractions, shape=(len(fractions), len(fractions[0])))
    scaled = _labeled(oracles._integer_rows(unlabeled))
    assert rank_mod_p(scaled, p) == oracles.converting_rank_mod_p(unlabeled, p)


# the dtype numpy infers for each: ints on both sides of int64's range
EDGE_MATRICES = [
    ("two-to-the-63", [[1, 2**63], [3, 4]], numpy.float64),
    ("two-to-the-64", [[2**64, 1], [1, 1]], numpy.object_),
    ("minus-two-to-the-63", [[-(2**63), 1], [1, 1]], numpy.int64),
    ("minus-one", [[-1, 1], [1, -1]], numpy.int64),
]


@pytest.mark.parametrize(
    "entries,dtype", [c[1:] for c in EDGE_MATRICES], ids=[c[0] for c in EDGE_MATRICES]
)
def test_edge_entries_equal_the_converting_route(entries, dtype):
    assert numpy.array(entries).dtype == dtype
    m = _labeled(entries)
    for p in (2, 3, 1_000_003):
        assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p), p
    assert rank_mod_p(m) == oracles.rational_rank(entries)


# the arrays rank_mod_p builds: one int64 array of the residues, whatever
# the size of the ints
ARRAYS_BUILT = [
    ("ints", [[1, 2], [3, 4]], [numpy.int64]),
    ("two-to-the-63", [[2**63, 1], [1, 1]], [numpy.int64]),
    ("two-to-the-64", [[2**64, 1], [1, 1]], [numpy.int64]),
]


@pytest.mark.parametrize(
    "entries,dtypes", [c[1:] for c in ARRAYS_BUILT], ids=[c[0] for c in ARRAYS_BUILT]
)
def test_only_all_int_entries_are_tried_as_an_array(monkeypatch, entries, dtypes):
    real = numpy.array
    built = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(out.dtype)
        return out

    m = _labeled(entries)
    want = oracles.converting_rank_mod_p(m)
    monkeypatch.setattr(incidence.numpy, "array", spy)
    assert rank_mod_p(m) == want
    assert built == [numpy.dtype(d) for d in dtypes]


# matrices with entries that are not ints, and the row of the first one
REFUSED_EDGES = [
    ("bools", [[True, False], [True, True], [False, True]], 0, "bool"),
    ("one-fraction", [[2, 1], [1, Fraction(1, 2)]], 1, "Fraction"),
    ("all-fractions", [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]], 0, "Fraction"),
]


@pytest.mark.parametrize(
    "entries,row,name", [c[1:] for c in REFUSED_EDGES], ids=[c[0] for c in REFUSED_EDGES]
)
def test_edge_entries_that_are_not_ints_are_refused(entries, row, name):
    with pytest.raises(ValueError) as info:
        _labeled(entries)
    assert str(info.value) == f"entries row {row} holds an entry of type {name}, not int"


def test_int64_entries_are_reduced_before_any_update():
    # unreduced, -2^63 - y would wrap around int64; reduced, it is 0 mod p
    p = 1_000_003
    y = -(2**63) % p
    m = _labeled([[1, y], [1, -(2**63)]])
    assert numpy.array(m.entries).dtype == numpy.int64
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p) == 1
    assert oracles.rational_rank(m.entries) == 2


# the modulus


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -7, 1_000_001])
def test_mod_p_rejects_a_modulus_that_is_not_prime(p):
    with pytest.raises(OutOfRange, match="not a prime"):
        rank_mod_p(build_r_matrix(6, 2), p=p)
    with pytest.raises(OutOfRange, match="not a prime"):
        rank_mod_p(ExactMatrix((), (), ()), p=p)


def test_primality_is_checked_before_the_overflow_guard():
    with pytest.raises(OutOfRange, match="not a prime"):
        rank_mod_p(build_r_matrix(6, 2), p=2**32 - 1)
    with pytest.raises(OutOfRange, match="overflows"):
        rank_mod_p(build_r_matrix(6, 2), p=2**31 - 1)


def test_a_modulus_past_two_to_the_32_is_refused_without_trial_division():
    # 2^61 - 1 is prime, but it overflows int64 on a 1x1 matrix, and trial
    # division up to its square root would take minutes
    with pytest.raises(OutOfRange, match="below 2\\*\\*32"):
        rank_mod_p(_labeled([[1]]), p=2**61 - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1_000_003, 2**31 - 1])
def test_mod_p_accepts_primes(p):
    m = build_r_matrix(6, 1)
    assert rank_mod_p(m, p) == oracles.converting_rank_mod_p(m, p) == 1


# memoised theta ranks


TRIPLES = [
    (n, r, s, t)
    for n in range(8)
    for r, s, t in itertools.combinations_with_replacement(range(n + 1), 3)
]


def test_theta_exploration_equals_the_uncached_oracle_cold_and_warm():
    clear_caches()
    cold = [theta_exploration(*triple) for triple in TRIPLES]
    assert incidence._theta_rank.cache_info().hits > 0
    warm = [theta_exploration(*triple) for triple in TRIPLES]
    want = [oracles.uncached_theta_exploration(*triple) for triple in TRIPLES]
    assert cold == want
    assert warm == want


def test_theta_rank_cache_keeps_ints_and_clear_caches_empties_it():
    clear_caches()
    theta_exploration(5, 1, 2, 4)
    assert incidence._theta_rank.cache_info().currsize == 3
    assert type(incidence._theta_rank(5, 1, 2)) is int
    clear_caches()
    assert incidence._theta_rank.cache_info().currsize == 0


def test_a_cold_rank_reads_the_sign_array_the_report_built(monkeypatch):
    # three sign arrays per report, cold or warm: no rank builds its own
    calls = []
    real = incidence._signs

    def counted(rows, cols):
        calls.append((len(rows), len(cols)))
        return real(rows, cols)

    monkeypatch.setattr(incidence, "_signs", counted)
    clear_caches()
    # 0 -> 1 is a column of ones, 1 -> 1 is J - 2I, and their product is 998 ones
    want = incidence.ThetaReport(1000, 0, 1, 1, True, Fraction(998), 1, 1000, 1)
    for _ in range(2):
        calls.clear()
        assert theta_exploration(1000, 0, 1, 1) == want
        assert len(calls) == 3
    clear_caches()
    for _ in range(2):
        calls.clear()
        assert theta_exploration(7, 0, 1, 1) == oracles.uncached_theta_exploration(7, 0, 1, 1)
        assert len(calls) == 3


def _refused(call):
    """A check that runs call and gives its CapExceeded message, else None."""

    def refusal(capsys):
        try:
            call()
        except CapExceeded as exc:
            return str(exc)
        return None

    return refusal


def _refused_lw(*argv):
    """A check that runs permlab lw and gives its exit-3 message, else None."""

    def refusal(capsys):
        rc = main(["lw", *argv])
        err = capsys.readouterr().err
        assert rc in (0, 3), err
        return err if rc == 3 else None

    return refusal


# each needs a level of C(10, 3) = 120 or C(10, 4) = 210 subsets
REFUSED_PAST_CAP_100 = {
    "theta_exploration": _refused(lambda: theta_exploration(10, 2, 3, 4)),
    "orbit_count_inequality": _refused(lambda: orbit_count_inequality(cyclic_group(10), 4)),
    "lw --k": _refused_lw("--n", "10", "--k", "4"),
    "lw --theta": _refused_lw("--n", "10", "--theta", "2,3,4"),
}


@pytest.mark.parametrize("name", list(REFUSED_PAST_CAP_100))
def test_a_lower_cap_after_a_warm_call_still_raises(monkeypatch, capsys, name):
    # kept levels and ranks change no refusal: warm, it reads as it did cold
    refusal = REFUSED_PAST_CAP_100[name]
    clear_caches()
    monkeypatch.setenv("PERMLAB_CAP", "100")
    cold = refusal(capsys)
    assert cold is not None and "PERMLAB_CAP=" in cold
    monkeypatch.delenv("PERMLAB_CAP")
    assert refusal(capsys) is None
    assert incidence._level.cache_info().currsize > 0
    if "theta" in name:
        assert incidence._theta_rank.cache_info().currsize > 0
    monkeypatch.setenv("PERMLAB_CAP", "100")
    assert refusal(capsys) == cold
