"""Every name a permlab module lists in ``__all__`` resolves in that module
and is listed once, so a removed function cannot stay advertised; and every
public function or class that nothing in ``src/`` calls is kept for a
stated reason."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import permlab

MODULES = ["permlab"] + [
    f"permlab.{info.name}" for info in pkgutil.iter_modules(permlab.__path__)
]
SRC = Path(permlab.__file__).parent

TRACED = "a matrix constructor the benchmark tracer reads by name"
TEST_FACING = "a helper the tests build their inputs or references with"
ITEM_5 = "a tree-relation builder or helper that ROADMAP item 5 puts into the battery"
UNCALLED = {
    "incidence.build_theta_matrix": TRACED,
    "incidence.subset_permutation_matrix": TRACED,
    "trees.b_from_family": ITEM_5,
    "trees.c_from_chains": ITEM_5,
    "trees.c_from_d": ITEM_5,
    "trees.c_from_family": ITEM_5,
    "trees.classify_subset": ITEM_5,
    "trees.d_from_family": ITEM_5,
    "trees.finite_poset": ITEM_5,
    "trees.has_positive_type": ITEM_5,
    "trees.poset_dot": ITEM_5,
    "trees.preorder_from_family": ITEM_5,
    "trees.r_class_order": ITEM_5,
    "trees.ramification_indices": ITEM_5,
    "trees.ramification_order_of_pair": ITEM_5,
    "trees.semilinear_from_c": ITEM_5,
    "trees.word_label": ITEM_5,
    "blocks.is_strongly_primitive": "the only caller of semiblocks, which the README names",
    "blocks.universal_partition": TEST_FACING,
    "wreath.chain_poset": TEST_FACING,
    "orders.is_strict_linear_order": TEST_FACING,
    "relations.is_invariant": TEST_FACING,
    "perms.cycle_type": "the per-layer metric perms.cycle_type.calls names it",
    "perms.conjugate": "a core permutation operation beside compose and inverse",
    "groups.contains": "membership, which the README reads off the stabilizer chain",
    "groups.pointwise_stabilizer": "one of the three stabilizer functions the README names",
    "groups.clear_caches": "empties the bounded caches, as the groups docstring says",
    "groups.subgroup_from_elements": (
        "oracles build the filtered setwise stabilizer with it, and test_pointwise"
        " patches it to show the stabilizer code never calls it"
    ),
    "fixtures.fixture_names": "the unknown-fixture error tells the user to call it",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves_once(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert [n for n, count in Counter(listed).items() if count > 1] == []
    assert [n for n in listed if not hasattr(module, n)] == []


def test_the_walk_reaches_the_modules_that_list_names():
    listing = {n for n in MODULES if hasattr(importlib.import_module(n), "__all__")}
    assert {"permlab", "permlab.incidence", "permlab.jordan", "permlab.trees"} <= listing


def uncalled_public_names(src: Path) -> set[str]:
    """Top-level public functions and classes of the modules in ``src`` that
    no loaded name refers to outside their own definition.  A name refers to
    a definition in its own module or in the module it was imported from, so
    a local variable that shares a public name is no reference."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referenced = set()
    for module, tree in trees.items():
        source = {name: module for owner, name in public if owner == module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                source.update((alias.asname or alias.name, node.module) for alias in node.names)
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found = (source.get(node.id), node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    found = (node.value.id, node.attr)  # module.name
                else:
                    continue
                if found != (module, own):
                    referenced.add(found)
    return {f"{module}.{name}" for module, name in public - referenced}


def test_every_public_name_nothing_calls_has_a_reason():
    # a new public function with no caller in src/ needs a reason here
    assert uncalled_public_names(SRC) == set(UNCALLED)
