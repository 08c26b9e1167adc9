"""Finite k-ary relations on a point domain {0..n-1}.

Shared value type for the order, tree and geometry modules.  Tuples are
plain int tuples; the JSON form is a sorted array of 1-based arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ArityMismatch, MalformedSyntax, OutOfRange, PointOutOfRange


@dataclass(frozen=True)
class Relation:
    """A set of ``arity``-tuples over the domain {0..size-1}."""

    arity: int
    size: int
    tuples: frozenset

    def __post_init__(self):
        if self.size < 0:
            raise OutOfRange(f"relation size {self.size} is negative")
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArityMismatch(
                    f"tuple {t} has length {len(t)}, expected {self.arity}"
                )
            for p in t:
                if not 0 <= p < self.size:
                    raise PointOutOfRange(f"point {p + 1} outside domain")

    def __contains__(self, item):
        return tuple(item) in self.tuples

    def sorted_tuples(self):
        return sorted(self.tuples)


def relation(arity, size, tuples):
    return Relation(arity, size, frozenset(tuple(t) for t in tuples))


def relation_to_object(rel):
    """The relation as a JSON-ready object: arity, size and the sorted
    tuples as lists of 1-based points."""
    rows = [[p + 1 for p in t] for t in rel.sorted_tuples()]
    return {"arity": rel.arity, "size": rel.size, "tuples": rows}


def relation_from_object(data):
    """The relation in a decoded JSON object with an int arity >= 1, an int
    size >= 0 and tuples, a list of lists of 1-based int points.  A value
    of any other shape raises MalformedSyntax naming the field."""
    if not isinstance(data, dict):
        raise MalformedSyntax("a relation must be a JSON object")
    for field in ("arity", "size", "tuples"):
        if field not in data:
            raise MalformedSyntax(f"relation has no {field} field")
    for field, least in (("arity", 1), ("size", 0)):
        value = data[field]
        # type() and not isinstance(): JSON true and false are no sizes
        if type(value) is not int or value < least:
            raise MalformedSyntax(
                f"relation {field} must be an integer >= {least}, got {json.dumps(value)}"
            )
    rows = data["tuples"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(p) is int for p in row) for row in rows
    ):
        raise MalformedSyntax("relation tuples must be a list of lists of integers")
    tuples = [tuple(p - 1 for p in row) for row in rows]
    return relation(data["arity"], data["size"], tuples)


def json_document(raw):
    """The value of a JSON document given as text or as UTF-8 bytes; bytes
    that are not UTF-8 and text that is not JSON raise MalformedSyntax."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise MalformedSyntax(
            f"relation input is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except json.JSONDecodeError as exc:
        raise MalformedSyntax(
            f"relation input is not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None


def relabel_relation(rel, images):
    """Apply the point map ``images`` (a degree-matching sequence) to every tuple."""
    if len(images) != rel.size:
        raise PointOutOfRange("relabeling map has the wrong degree")
    return Relation(
        rel.arity, rel.size, frozenset(tuple(images[p] for p in t) for t in rel.tuples)
    )


def is_invariant(rel, perm):
    """True when the permutation maps the tuple set onto itself."""
    if perm.degree != rel.size:
        raise PointOutOfRange("permutation degree differs from relation domain")
    return relabel_relation(rel, perm.images).tuples == rel.tuples


__all__ = [
    "Relation",
    "relation",
    "relation_to_object",
    "relation_from_object",
    "json_document",
    "relabel_relation",
    "is_invariant",
]
