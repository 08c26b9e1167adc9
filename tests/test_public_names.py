"""Every name a permlab module lists in ``__all__`` resolves in that module
and is listed once, so a removed function cannot stay advertised."""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter

import pytest

import permlab

MODULES = ["permlab"] + [
    f"permlab.{info.name}" for info in pkgutil.iter_modules(permlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves_once(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert [n for n, count in Counter(listed).items() if count > 1] == []
    assert [n for n in listed if not hasattr(module, n)] == []


def test_the_walk_reaches_the_modules_that_list_names():
    listing = {n for n in MODULES if hasattr(importlib.import_module(n), "__all__")}
    assert {"permlab", "permlab.incidence", "permlab.jordan", "permlab.trees"} <= listing
