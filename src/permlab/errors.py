"""Exception taxonomy. Every error permlab raises derives from PermlabError."""

from __future__ import annotations


class PermlabError(Exception):
    """Base class for all permlab errors."""


class MalformedSyntax(PermlabError):
    """Input text (cycle notation, relation JSON, a number list) does not match its grammar."""


class RepeatedPoint(PermlabError):
    """A point occurs more than once across the cycles."""


class PointOutOfRange(PermlabError):
    """A point lies outside 1..degree."""


class DegreeMismatch(PermlabError):
    """Two permutations of different degrees were combined."""


class BadSetting(PermlabError):
    """An environment setting does not hold a valid value."""


class CapExceeded(PermlabError):
    """An enumeration grew past the configured element cap."""


class NotTransitive(PermlabError):
    """The operation requires a transitive action."""


class NotSubgroup(PermlabError):
    """A claimed subgroup is not closed inside its parent."""


class NotACongruence(PermlabError):
    """A partition is not invariant under the group."""


class NotAMorphism(PermlabError):
    """A map between groups fails the homomorphism law on generators."""


class NotAChain(PermlabError):
    """Equivalence relations are not totally ordered by refinement."""


class NotLinearOrder(PermlabError):
    """A relation is not a strict linear order."""


class ArityMismatch(PermlabError):
    """A relation's tuples have the wrong length for the requested check."""


class DiagonalOrbital(PermlabError):
    """The diagonal pair-orbit cannot be drawn as a graph."""


class NotAscending(PermlabError):
    """Breakpoint sequences must be strictly increasing."""


class LengthMismatch(PermlabError):
    """Paired sequences must have equal lengths."""


class AxiomsFailed(PermlabError):
    """A derived structure violates the axioms it must satisfy."""


class TooSmall(PermlabError):
    """The input set is below the minimum size for the operation."""


class OutOfRange(PermlabError):
    """A numeric parameter lies outside its documented range."""


class UnknownFixture(PermlabError):
    """No built-in fixture has the requested name."""
