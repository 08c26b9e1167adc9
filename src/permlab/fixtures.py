"""Named example groups: cyclic/dihedral/symmetric/alternating families,
wreath stacks, and the shipped plane geometries with their subspace tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import UnknownFixture
from .groups import (
    GenGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from .perms import parse_cycles
from .wreath import wreath_tower


@dataclass(frozen=True)
class Fixture:
    name: str
    group: GenGroup
    notes: str
    points: tuple = ()  # point labels (geometry fixtures only)
    lines: tuple = ()  # lines as sorted point-index tuples (geometry only)


def _geometry_data():
    path = resources.files("permlab").joinpath("data/geometries.json")
    with path.open() as fh:
        return json.load(fh)


def _geometry_fixture(name, notes):
    entry = _geometry_data()[name]
    generators = tuple(
        parse_cycles(text, entry["degree"]) for text in entry["generators"]
    )
    return Fixture(
        name,
        GenGroup(entry["degree"], generators),
        notes,
        points=tuple(entry["points"]),
        lines=tuple(tuple(line) for line in entry["lines"]),
    )


def _wreath_fixture(name, degrees):
    group = wreath_tower(tuple(cyclic_group(d) for d in degrees))
    blocks = " in ".join(str(d) for d in degrees)
    return Fixture(name, group, f"iterated wreath of cyclic groups ({blocks})")


_GEOMETRY_NOTES = {
    "pg_2_2": "collineations of the projective plane over F_2 (7 points, 7 lines)",
    "pg_2_3": "collineations of the projective plane over F_3 (13 points, 13 lines)",
    "ag_2_2": "affine transformations of the plane over F_2 (4 points, 6 lines)",
    "ag_2_3": "affine transformations of the plane over F_3 (9 points, 12 lines)",
}


def _build(name):
    family, _, tail = name.partition("_")
    if family == "cyclic" and tail.isdigit() and 3 <= int(tail) <= 10:
        n = int(tail)
        return Fixture(name, cyclic_group(n), f"regular rotation action on {n} points")
    if family == "dihedral" and tail.isdigit() and 3 <= int(tail) <= 10:
        n = int(tail)
        return Fixture(name, dihedral_group(n), f"symmetries of the {n}-gon")
    if family == "symmetric" and tail.isdigit() and 3 <= int(tail) <= 8:
        n = int(tail)
        return Fixture(name, symmetric_group(n), f"all permutations of {n} points")
    if family == "alternating" and tail.isdigit() and 4 <= int(tail) <= 8:
        n = int(tail)
        return Fixture(name, alternating_group(n), f"even permutations of {n} points")
    if name in _GEOMETRY_NOTES:
        return _geometry_fixture(name, _GEOMETRY_NOTES[name])
    if name.startswith("c") and "wrc" in name:
        parts = name[1:].split("wrc")
        if all(p.isdigit() for p in parts):
            return _wreath_fixture(name, tuple(int(p) for p in parts))
    raise UnknownFixture(f"no fixture named {name!r}; see fixture_names()")


FIXTURE_NAMES = (
    tuple(f"cyclic_{n}" for n in range(3, 11))
    + tuple(f"dihedral_{n}" for n in range(3, 11))
    + tuple(f"symmetric_{n}" for n in range(3, 9))
    + tuple(f"alternating_{n}" for n in range(4, 9))
    + ("pg_2_2", "pg_2_3", "ag_2_2", "ag_2_3")
    + ("c2wrc2", "c2wrc3", "c3wrc2", "c3wrc3", "c2wrc2wrc2")
)


def fixture_names():
    return FIXTURE_NAMES


def fixture(name):
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"no fixture named {name!r}; see fixture_names()")
    return _build(name)


__all__ = ["Fixture", "FIXTURE_NAMES", "fixture", "fixture_names"]
