"""check_axioms against the per-family checkers it replaced.

``oracles.PER_FAMILY_CHECKS`` keeps those four checkers as they were
written, one hand-made loop per axiom.  Every relation below is audited
by both, and the full (name, holds, witness) lists of the core and the
reported axioms must agree.  A sha256 of check_axioms' lists, pinned
before the axiom table replaced the checkers, holds the same results
without the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

import oracles
from permlab.config import AXIOM_FAMILIES
from permlab.fixtures import fixture
from permlab.orders import derive_relation, linear_order_relation
from permlab.relations import relation
from permlab.trees import (
    _AXIOMS,
    b_from_family,
    b_from_poset,
    c_from_chains,
    c_from_d,
    c_from_family,
    check_axioms,
    d_from_family,
    finite_c_model,
    lambda_word_model,
    poset_relation,
    preorder_from_family,
    semilinear_from_c,
)

ARITY = {"semilinear": 2, "C": 3, "B": 3, "D": 4}
# sha256 of the repr of check_axioms' (name, holds, witness) lists over
# _cases(family), pinned on the per-family checkers
PINNED = {
    "semilinear": "a3c11f09951a8ddf71baf26ee18704e46d726f4ce586381f7521601853b5cd53",
    "C": "003b0fa59e6b0c51c920c29b561be5351912a7eff6e2d7daf975bd5864544ed7",
    "B": "4c7aaade1f372af614196cd3f75cf63363c352aec6c572cf8f55c643adb79f8f",
    "D": "af549a01f3789fdd7844dbf00f6e841f20fbfbed139246303273343cb134bd17",
}
# corpus groups whose family derivations are audited, and their seed sets
CORPUS = (
    "cyclic_6",
    "dihedral_5",
    "symmetric_4",
    "alternating_5",
    "pg_2_2",
    "ag_2_3",
    "c2wrc3",
    "c2wrc2wrc2",
)
SIGMAS = ((0, 1), (0, 1, 2))


def _random(family, rng):
    arity = ARITY[family]
    for n in range(6):
        for _ in range(200):
            density = rng.random()
            tuples = [
                t for t in itertools.product(range(n), repeat=arity) if rng.random() < density
            ]
            yield relation(arity, n, tuples)


def _flips(rel, rng, count=3):
    """The relation with one tuple added or removed, count times at random."""
    domain = list(itertools.product(range(rel.size), repeat=rel.arity))
    for _ in range(count if domain else 0):
        t = domain[rng.randrange(len(domain))]
        yield relation(rel.arity, rel.size, rel.tuples ^ {t})


def _structured(family):
    words = [lambda_word_model(q, s) for q, s in (([0, 1], 2), ([0, 1, 2], 2), ([0, 1, 2], 3))]
    groups = [fixture(name).group for name in CORPUS]
    if family == "semilinear":
        yield from (poset_relation(poset) for poset in words)
        yield poset_relation(semilinear_from_c(finite_c_model(2, 2).relation).poset)
        yield from (linear_order_relation(n) for n in range(1, 6))
        yield from (preorder_from_family(g, sigma) for g in groups for sigma in SIGMAS)
    elif family == "C":
        yield from (finite_c_model(k, s).relation for k in (1, 2, 3) for s in (2, 3))
        for n in (4, 5, 6):
            d = derive_relation(linear_order_relation(n), "separation")
            yield from (c_from_d(d, alpha).relation for alpha in (0, n - 1))
        yield from (derive_relation(linear_order_relation(n), "cyclic") for n in (3, 4, 5))
        yield from (c_from_chains(poset).relation for poset in words)
        yield from (c_from_family(g, sigma).relation for g in groups for sigma in SIGMAS)
    elif family == "B":
        yield from (b_from_poset(poset).relation for poset in words)
        yield from (derive_relation(linear_order_relation(n), "betweenness") for n in (3, 4, 5))
        yield from (b_from_family(g, sigma).relation for g in groups for sigma in SIGMAS)
    else:
        yield from (derive_relation(linear_order_relation(n), "separation") for n in (4, 5, 6))
        yield from (d_from_family(g, sigma).relation for g in groups for sigma in SIGMAS)


def _cases(family):
    rng = random.Random(f"axiom-table-{family}")
    structured = list(_structured(family))
    yield from structured
    for rel in structured:
        if rel.size <= 8:
            yield from _flips(rel, rng)
    yield from _random(family, rng)


def _lists(checks, reported):
    return (
        [(c.name, c.holds, c.witness) for c in checks],
        [(c.name, c.holds, c.witness) for c in reported],
    )


@pytest.mark.parametrize("family", AXIOM_FAMILIES)
def test_check_axioms_matches_its_pinned_digest(family):
    digest = hashlib.sha256()
    for rel in _cases(family):
        report = check_axioms(rel, family)
        digest.update(repr(_lists(report.checks, report.reported)).encode())
    assert digest.hexdigest() == PINNED[family]


@pytest.mark.parametrize("family", AXIOM_FAMILIES)
def test_check_axioms_matches_the_per_family_checkers(family):
    count = 0
    for rel in _cases(family):
        report = check_axioms(rel, family)
        core, reported = oracles.PER_FAMILY_CHECKS[family](rel)
        assert _lists(report.checks, report.reported) == _lists(core, reported), rel
        count += 1
    assert count > 1200


def test_the_axiom_table_names_the_configured_families():
    assert tuple(_AXIOMS) == AXIOM_FAMILIES
    assert {family: arity for family, (arity, *_) in _AXIOMS.items()} == ARITY
