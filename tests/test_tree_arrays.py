"""The boolean-array passes of trees and orders against the loops they
replaced.

``check_axioms`` evaluates each axiom as a mask over a membership array;
``oracles.GENERATOR_AXIOMS`` keeps the generator table it replaced and
``oracles.PER_FAMILY_CHECKS`` the hand-made checkers before that.  The
full (name, holds, witness) lists are compared by repr, so a witness
holding a numpy integer in place of a Python int fails.  The equivalence
chain builder and the local catalog are compared with their loops too.
The cap is checked before any array is built, and the pinned digests of
``test_axiom_table.py`` hold under ``python -O``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import permlab
from permlab import trees
from permlab.blocks import partition_from_blocks
from permlab.config import AXIOM_FAMILIES
from permlab.errors import CapExceeded
from permlab.orders import LOCAL_KINDS, _local_catalog, derive_relation, linear_order_relation
from permlab.relations import relation
from permlab.trees import c_from_equivalence_chain, check_axioms, finite_c_model

ARITY = {"semilinear": 2, "C": 3, "B": 3, "D": 4}
TESTS = Path(__file__).parent


def _lists(checks, reported):
    return repr(
        (
            [(c.name, c.holds, c.witness) for c in checks],
            [(c.name, c.holds, c.witness) for c in reported],
        )
    )


def _relations(family):
    """Empty, full and seeded random relations of the family's arity on
    0 to 6 points, at densities from sparse to nearly full."""
    arity = ARITY[family]
    rng = random.Random(f"tree-arrays-{family}")
    for n in range(7):
        domain = list(itertools.product(range(n), repeat=arity))
        yield relation(arity, n, [])
        yield relation(arity, n, domain)
        for density in (0.05, 0.2, 0.5, 0.8, 0.95):
            for _ in range(4):
                yield relation(arity, n, [t for t in domain if rng.random() < density])


@pytest.mark.parametrize("family", AXIOM_FAMILIES)
def test_check_axioms_matches_the_generator_table_and_the_per_family_checkers(family):
    count = 0
    for rel in _relations(family):
        report = check_axioms(rel, family)
        got = _lists(report.checks, report.reported)
        assert got == _lists(*oracles.generator_checks(rel, family)), rel
        assert got == _lists(*oracles.PER_FAMILY_CHECKS[family](rel)), rel
        count += 1
    assert count == 7 * 22


def _models():
    for k in range(1, 7):
        for s in range(2, 82):
            if s**k > 81:
                break
            yield k, s


@pytest.mark.parametrize("k", range(1, 7))
def test_equivalence_chain_builder_matches_its_loop_on_every_small_model(k, monkeypatch):
    # 81 points make 531441 triples, past the default cap
    monkeypatch.setenv("PERMLAB_CAP", str(81**3))
    sizes = [s for kk, s in _models() if kk == k]
    assert sizes
    for s in sizes:
        model = finite_c_model(k, s)
        looped = oracles.looped_c_from_equivalence_chain(model.chain)
        assert c_from_equivalence_chain(model.chain).tuples == looped, (k, s)
        assert model.relation.tuples == looped


def _random_chain(rng, degree, levels):
    """A seeded refinement chain: random classes, then random merges."""
    labels = [rng.randrange(max(1, degree)) for _ in range(degree)]
    chain = []
    for _ in range(levels):
        blocks = {}
        for p, label in enumerate(labels):
            blocks.setdefault(label, []).append(p)
        chain.append(partition_from_blocks(degree, blocks.values()))
        merge = {label: rng.choice(sorted(set(labels))) for label in set(labels)}
        labels = [merge[label] for label in labels]
    return chain


def test_equivalence_chain_builder_matches_its_loop_on_random_chains():
    rng = random.Random("tree-arrays-chains")
    for _ in range(300):
        chain = _random_chain(rng, rng.randrange(13), rng.randrange(1, 5))
        built = c_from_equivalence_chain(chain)
        assert built.tuples == oracles.looped_c_from_equivalence_chain(chain)
        assert all(type(p) is int for t in built.tuples for p in t)


@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_local_catalog_matches_the_derivation_from_every_order(kind):
    for d in range(LOCAL_KINDS[kind][1] + 2):
        assert _local_catalog(kind, d) == oracles.permuted_local_catalog(kind, d), d


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the cap check")


def test_the_audit_cap_is_checked_before_any_array(monkeypatch):
    rel = derive_relation(linear_order_relation(6), "separation")
    count = max(len(rel.tuples) * 6, 6**4)
    monkeypatch.setenv("PERMLAB_CAP", str(count))
    report = check_axioms(rel, "D")
    assert _lists(report.checks, report.reported) == _lists(*oracles.generator_checks(rel, "D"))
    monkeypatch.setenv("PERMLAB_CAP", str(count - 1))
    monkeypatch.setattr(trees, "numpy", _NoArrays())
    with pytest.raises(CapExceeded) as caught:
        check_axioms(rel, "D")
    assert str(caught.value) == (
        f"the D axiom audit on 6 points visits {count} candidates, "
        f"past cap {count - 1}; PERMLAB_CAP={count} would suffice"
    )


_DIGESTS = """
import hashlib, json, sys
import test_axiom_table as table
out = {}
for family in table.AXIOM_FAMILIES:
    digest = hashlib.sha256()
    for rel in table._cases(family):
        report = table.check_axioms(rel, family)
        digest.update(repr(table._lists(report.checks, report.reported)).encode())
    out[family] = digest.hexdigest()
print(json.dumps({"optimize": sys.flags.optimize, "digests": out}))
"""


def test_the_pinned_axiom_digests_hold_under_python_O():
    import test_axiom_table

    env = {k: v for k, v in os.environ.items() if k != "PERMLAB_CAP"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(permlab.__file__).parent.parent), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-O", "-c", _DIGESTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"optimize": 1, "digests": test_axiom_table.PINNED}
