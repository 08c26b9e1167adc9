"""The shared private walks and tables against brute-force references,
the cap they honour, and library checks that must survive ``python -O``."""

from __future__ import annotations

import ast
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permlab
from permlab import groups
from permlab.blocks import _pair_image, partition_from_blocks, semiblocks
from permlab.config import DEFAULT_CAP, check_cap
from permlab.errors import CapExceeded
from permlab.fixtures import fixture
from permlab.groups import (
    _item_walk,
    _subset_image,
    _tuple_image,
    clear_caches,
    cyclic_group,
    dihedral_group,
    enumerate_elements,
    homogeneity_degree,
    induced_action,
    order,
    symmetric_group,
)
from permlab.incidence import orbit_count_inequality, theta_exploration
from permlab.jordan import jordan_sets, span
from permlab.perms import conjugate
from permlab.suite import _corpus
from permlab.trees import (
    b_from_family,
    c_from_family,
    check_axioms,
    d_from_family,
    finite_c_model,
    preorder_from_family,
)
from permlab.wreath import imprimitive_embedding, wreath

import oracles

SRC = Path(permlab.__file__).parent
SMALL = [(name, g) for name, g in _corpus() if g.degree <= 7]


def _assert_orbits_match(group, items, act, cap, key=lambda x: x):
    """Each oracle orbit equals the shared walk's orbit from its least item."""
    gens = list(group.generators)
    for expected in oracles.orbits_on(gens, items):
        start = min(expected, key=lambda x: sorted(x) if isinstance(x, frozenset) else x)
        walked = list(_item_walk(key(start), act, gens, cap))
        assert walked[0] == key(start)
        assert len(walked) == len(set(walked)) == len(expected)
        assert set(walked) == {key(x) for x in expected}


@pytest.mark.parametrize("name,group", SMALL, ids=[name for name, _ in SMALL])
def test_item_orbit_matches_oracle_orbits(name, group):
    n = group.degree
    pairs = list(itertools.product(range(n), repeat=2))
    _assert_orbits_match(group, pairs, _pair_image, n * n)
    triples = list(itertools.permutations(range(n), 3))
    _assert_orbits_match(group, triples, _tuple_image, len(triples))
    subsets = [frozenset(c) for c in itertools.combinations(range(n), 3)]
    _assert_orbits_match(
        group, subsets, _subset_image, len(subsets), key=lambda s: tuple(sorted(s))
    )
    elements = list(enumerate_elements(group))
    _assert_orbits_match(group, elements, conjugate, len(elements))


def test_item_orbit_allows_exactly_cap_items():
    c5 = cyclic_group(5)
    assert len(list(_item_walk((0, 1), _tuple_image, c5.generators, 5))) == 5
    with pytest.raises(CapExceeded, match="passed cap 4"):
        list(_item_walk((0, 1), _tuple_image, c5.generators, 4))


@pytest.mark.parametrize("name,group", _corpus(), ids=[name for name, _ in _corpus()])
def test_enumeration_order_matches_the_word_bfs_loop(name, group):
    expected = oracles.bfs_elements(group.degree, group.generators, DEFAULT_CAP)
    assert enumerate_elements(group) == expected


def test_wreath_generators_match_the_standard_constructor():
    pool = [cyclic_group(k) for k in range(2, 7)]
    pool += [dihedral_group(3), dihedral_group(4), symmetric_group(3)]
    for a, b in itertools.product(pool, repeat=2):
        if a.degree * b.degree <= 12:
            expected = oracles.wreath_generators(a.degree, a.generators, b.degree, b.generators)
            assert wreath(a, b).generators == expected


def test_span_honours_a_cap_lowered_after_a_warm_call(monkeypatch):
    plane = fixture("pg_2_2").group
    assert span(plane, [0, 1]) == (0, 1, 2)
    monkeypatch.setenv("PERMLAB_CAP", "10")
    with pytest.raises(CapExceeded):
        span(plane, [0, 1])


def test_induced_action_checks_the_cap_before_building_items(monkeypatch):
    def never(*args):
        raise AssertionError("items built before the cap check")

    monkeypatch.setattr(groups.itertools, "permutations", never)
    monkeypatch.setenv("PERMLAB_CAP", "1000")
    with pytest.raises(CapExceeded):
        induced_action(symmetric_group(12), "tuples", 12)


def test_library_has_no_assert_statements():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts at lines {lines}"


def _call_sites(tree, name):
    """(function, line) for each call in a module to a function, class or
    method of that name."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            sites.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return sites


def test_cap_errors_are_built_only_by_check_cap_and_the_walk():
    # a count known before its loop goes through config.check_cap, so every
    # such refusal has one form; only the walk that stops in flight, and
    # the subset-orbit walk that adds its C(n, k) bound to it, build their own
    allowed = {
        ("config", "check_cap"),
        ("groups", "_item_walk"),
        ("groups", "_subset_orbit"),
    }
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for where, line in _call_sites(tree, "CapExceeded"):
            found.setdefault((path.stem, where), []).append(line)
    stray = {site: lines for site, lines in found.items() if site not in allowed}
    assert not stray, f"CapExceeded built outside check_cap: {stray}"
    assert set(found) == allowed


def test_the_item_walk_is_the_only_orbit_walk():
    # every orbit walk goes through groups._item_walk; the two other
    # queues merge point pairs and measure graph distances
    allowed = {
        "groups._item_walk",
        "blocks.minimal_congruence_identifying",
        "blocks.orbital_graph",
    }
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{where}" for where, _ in _call_sites(tree, "popleft"))
    assert not found - allowed, f"popleft outside the allowed walks: {sorted(found - allowed)}"
    assert found == allowed


def _public_functions(tree):
    """(name, def) for each public top-level function and each public
    method of a public class, __init__ included."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    not item.name.startswith("_") or item.name == "__init__"
                ):
                    yield f"{node.name}.{item.name}", item


def _parameters(node) -> list[str]:
    args = node.args
    named = args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg]
    return [a.arg for a in named if a is not None]


def test_no_public_function_takes_a_cap():
    # PERMLAB_CAP is the one cap: no call passes a bound of its own, and the
    # two readers of the setting take none
    taking = []
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _public_functions(tree):
            if "cap" in _parameters(node):
                taking.append(f"{path.stem}.{name}")
            if path.stem == "config":
                readers[name] = _parameters(node)
    assert not taking, f"public functions that take cap: {taking}"
    assert readers["element_cap"] == []
    assert readers["check_cap"] == ["count", "what"]


def test_check_cap_names_the_cap_that_would_suffice(monkeypatch):
    monkeypatch.setenv("PERMLAB_CAP", "9")
    assert check_cap(9, "nine things") == 9
    with pytest.raises(CapExceeded) as info:
        check_cap(10, "ten things")
    assert str(info.value) == "ten things, past cap 9; PERMLAB_CAP=10 would suffice"


# public calls that refuse at PERMLAB_CAP=1 and name a count each time
LADDER = {
    "order": lambda: order(symmetric_group(6)),
    "semiblocks": lambda: semiblocks(cyclic_group(6), 0),
    "jordan_sets": lambda: jordan_sets(fixture("pg_2_2").group),
    "span": lambda: span(fixture("pg_2_2").group, [0, 1]),
    "orbit_count_inequality": lambda: orbit_count_inequality(cyclic_group(8), 4),
    "theta_exploration": lambda: theta_exploration(7, 1, 2, 3),
    "finite_c_model": lambda: finite_c_model(2, 3),
    "check_axioms": lambda: check_axioms(finite_c_model(2, 3).relation, "C"),
    "homogeneity_degree": lambda: homogeneity_degree(symmetric_group(6), 3),
    "imprimitive_embedding": lambda: imprimitive_embedding(
        cyclic_group(6), partition_from_blocks(6, [[0, 2, 4], [1, 3, 5]])
    ),
    # each refused first by the translates' walk, which names C(n, |sigma|)
    "preorder_from_family": lambda: preorder_from_family(cyclic_group(10), {0}),
    "c_from_family": lambda: c_from_family(cyclic_group(6), {0, 1}),
    "b_from_family": lambda: b_from_family(cyclic_group(6), {0, 1}),
    "d_from_family": lambda: d_from_family(cyclic_group(6), {0, 3}),
}


@pytest.mark.parametrize("name", list(LADDER))
def test_each_refusal_names_a_cap_that_gets_further(name, monkeypatch):
    # from PERMLAB_CAP=1, raise the cap to the count each refusal names: every
    # count is larger than the cap it refused at, and within four refusals
    # the call gives its answer at the default cap
    call = LADDER[name]
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    expected = call()
    clear_caches()
    cap, refusals = 1, []
    while True:
        monkeypatch.setenv("PERMLAB_CAP", str(cap))
        try:
            found = call()
            break
        except CapExceeded as exc:
            refusals.append(str(exc))
        named = re.search(r"PERMLAB_CAP=(\d+) would suffice$", refusals[-1])
        assert named, f"refused without naming a count: {refusals[-1]}"
        assert int(named[1]) > cap, refusals
        assert len(refusals) <= 4, refusals
        cap = int(named[1])
    assert found == expected


def test_poset_shape_check_survives_optimize():
    code = (
        "from permlab.wreath import PosetIndex\n"
        "try:\n"
        "    PosetIndex(1, ((True, False),))\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=SRC.parent,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
