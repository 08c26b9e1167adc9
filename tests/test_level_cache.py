"""incidence._level, the one kept copy of each subset level, against the
code it replaces, kept in ``tests/oracles.py``.

Each (n, k) is listed once: the colex labels, the points of each subset
and the membership rows, both read-only arrays.  A reader that its cap or
cell-budget check refuses lists no level.  Every ``lw`` answer must be the
same whether its levels were just built or kept from earlier requests, in
any order.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy
import pytest

from permlab import incidence
from permlab.cli import main
from permlab.errors import CapExceeded
from permlab.groups import _subsets_colex, clear_caches, cyclic_group

import oracles

LEVELS = [(n, k) for n in range(13) for k in range(n + 1)]


def test_the_colex_listing_equals_its_oracle_for_every_n_up_to_12():
    for n, k in LEVELS:
        assert _subsets_colex(n, k) == oracles.colex_subsets(n, k), (n, k)


def test_listing_a_level_peaks_near_what_it_keeps():
    # 700 subsets of 699 points: about 4 MB kept, in one orientation only
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        level = _subsets_colex(700, 699)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(level) == 700
    assert kept - base > 3_000_000
    assert peak - base <= 1.3 * (kept - base)


def test_each_level_equals_the_colex_oracle_and_the_uncached_members():
    clear_caches()
    for n, k in LEVELS:
        level = incidence._level(n, k)
        subsets = oracles.colex_subsets(n, k)
        assert level.labels == subsets, (n, k)
        assert level.points.shape == (len(subsets), k), (n, k)
        assert level.points.tolist() == [list(s) for s in subsets], (n, k)
        want = oracles.uncached_members(n, subsets)
        assert level.members.dtype == want.dtype, (n, k)
        assert numpy.array_equal(level.members, want), (n, k)
        assert incidence._level(n, k) is level, (n, k)
    assert incidence._level.cache_info().currsize == len(LEVELS)
    clear_caches()
    assert incidence._level.cache_info().currsize == 0


def test_a_kept_level_refuses_to_be_written():
    level = incidence._level(6, 3)
    for array in (level.points, level.members):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert incidence._level(6, 3).members.tolist() == oracles.uncached_members(
        6, oracles.colex_subsets(6, 3)
    ).tolist()


# each refused at PERMLAB_CAP=100: by a level of C(10, 4) = 210 subsets,
# or, for the sign matrix, by its 210 x 210 cells
REFUSED_READERS = {
    "build_r_matrix": lambda: incidence.build_r_matrix(10, 4),
    "build_theta_matrix": lambda: incidence.build_theta_matrix(10, 4, 4),
    "theta_exploration": lambda: incidence.theta_exploration(10, 2, 3, 4),
    "_subset_orbit_count": lambda: incidence._subset_orbit_count(cyclic_group(10), 4),
}


@pytest.mark.parametrize("name", list(REFUSED_READERS))
def test_a_refused_reader_lists_no_level(monkeypatch, name):
    def never(*args):
        raise AssertionError("a level listed before its reader's check")

    clear_caches()
    monkeypatch.setenv("PERMLAB_CAP", "100")
    monkeypatch.setattr(incidence, "_subsets_colex", never)
    with pytest.raises(CapExceeded, match="PERMLAB_CAP="):
        REFUSED_READERS[name]()
    assert incidence._level.cache_info().currsize == 0


REQUESTS = (
    [["lw", "--n", str(n), "--k", str(k)] for n in range(1, 10) for k in range(1, n + 1)]
    + [["lw", "--n", "6", "--k", "3", "--csv"], ["lw", "--n", "12", "--k", "6"]]
    + [
        ["lw", "--n", str(n), "--theta", f"{r},{s},{t}"]
        for n in range(6, 8)
        for r in range(n + 1)
        for s in range(r, n + 1)
        for t in range(s, n + 1)
        if (r + s + t) % 3 == n % 3
    ]
)


def _answer(capsys, argv) -> str:
    assert main([*argv, "--format", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 2])
def test_lw_answers_are_equal_cold_and_warm_in_shuffled_order(capsys, seed):
    cold = []
    for argv in REQUESTS:
        clear_caches()
        cold.append(_answer(capsys, argv))
    clear_caches()
    for _ in range(2):
        order = random.Random(seed).sample(range(len(REQUESTS)), len(REQUESTS))
        warm = {i: _answer(capsys, REQUESTS[i]) for i in order}
        assert [warm[i] for i in range(len(REQUESTS))] == cold
        seed += 10
    assert incidence._level.cache_info().hits > 0
