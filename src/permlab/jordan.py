"""Jordan sets and the closure geometry they induce.

A Jordan set of a permutation group is a set of at least two points on
which the pointwise stabilizer of the complement still acts transitively.
Such a set is improper when the group is (k+1)-transitive for k the size
of the complement, so that transitivity inside costs nothing; the proper
ones are the geometrically interesting witnesses.

Nothing here lists the group.  The elements available inside a candidate
set are those fixing its complement, the pointwise stabilizer that
``groups`` reads off a stabilizer chain.  A set A = Omega - S of at least
two points is a Jordan set exactly when it is one orbit of G_(S)
(P. M. Neumann, Proc. LMS 1985).  Such an S is closed, S = fix(G_(S)),
and g in G maps Jordan sets onto Jordan sets, so the catalog walks the
closed complements up to translates: from G, each node H = G_(S) gets
one child per H-orbit, the stabilizer of the orbit's least point, and
the sets found are expanded into their G-orbits, each translate B with
an element g mapping the orbit's representative A onto it.  The catalog
is certified once per G-orbit: ``is_jordan`` certifies A by a second
route, and B's witness is A's conjugated by g, since G_(Omega - A)^g =
G_(Omega - B).  A decreasing fixpoint over the same stabilizers finds
the unique maximal Jordan set avoiding a prescribed set of points, and
spans and the closure-operator audit reduce to it.  The span table is
G-invariant as well, span(A^g) = span(A)^g, so it runs one span per
G-orbit of subsets and carries it to each translate through the element
that the orbit walk's first word to the translate names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .config import check_cap
from .errors import AxiomsFailed, OutOfRange, TooSmall
from .groups import (
    GenGroup,
    _item_walk,
    _least_stabilizer,
    _point_in_range,
    _pointwise_stabilizer,
    _subset_image,
    _tuple_image,
    _word_images,
    orbit,
    order,
    transitivity_degree,
)
from .perms import Permutation, _trusted

__all__ = [
    "JordanWitness",
    "is_jordan",
    "jordan_sets",
    "maximal_jordan_avoiding",
    "span",
    "SpanGeometry",
    "span_geometry",
    "GeometryAudit",
    "geometry_audit",
]


@dataclass(frozen=True)
class JordanWitness:
    """Certificate for one Jordan set.

    points is the set itself, sorted.  witness_group acts on 0..len-1 in
    the order of points and is the complement's pointwise stabilizer
    restricted to the set; it is transitive by construction.  proper is
    False when the set is forced by (k+1)-transitivity alone.
    witness_order is the witness group's order, read off the stabilizer
    chain that gave the complement's pointwise stabilizer: that
    stabilizer fixes every point off the set, so restricting it to the
    set loses nothing.  representative names the set A whose witness
    this one is: the set's own points when ``is_jordan`` certified it,
    else its G-orbit's representative, whose witness group relabeled
    onto the set gives this one, with the same primitivity and
    transitivity.  It is bookkeeping: equality, hashing and repr leave
    it out, and no output carries it.
    """

    points: tuple[int, ...]
    witness_group: GenGroup
    proper: bool
    witness_order: int
    representative: tuple[int, ...] = field(compare=False, repr=False)


def _point_set(group: GenGroup, points) -> set[int]:
    return {_point_in_range(group, p) for p in points}


def _component(group: GenGroup, allowed: frozenset[int], seed: int) -> tuple[int, ...]:
    """Largest set containing seed, inside allowed, on which the elements
    supported inside the set act with a single orbit through seed, sorted.

    Decreasing fixpoint: start from the whole allowed set, take the orbit
    of seed under the pointwise stabilizer of its complement (the
    elements whose support fits), and repeat on the orbit.  Any candidate
    set through seed inside allowed survives every round, which makes the
    fixpoint the unique maximal one.
    """
    current = allowed
    while True:
        outside = tuple(p for p in range(group.degree) if p not in current)
        reached = orbit(_pointwise_stabilizer(group, outside)[0], seed).points
        if len(reached) == len(current):
            return reached
        current = frozenset(reached)


def is_jordan(group: GenGroup, gamma) -> JordanWitness | None:
    """Test one candidate set, returning a witness or None.

    Checks that the pointwise stabilizer of the complement has a single
    orbit on the candidate.  The witness group is that stabilizer
    restricted to the set's points in sorted order, and its order is the
    stabilizer's, from the same chain.  Sets of fewer than two points are
    refused: transitivity on them is empty.  CapExceeded when |G| passes
    the cap.
    """
    wanted = _point_set(group, gamma)
    if len(wanted) < 2:
        raise TooSmall("a Jordan set needs at least two points")
    points = tuple(sorted(wanted))
    complement = tuple(p for p in range(group.degree) if p not in wanted)
    order(group)  # the cap check, as pointwise_stabilizer makes it
    inside, size = _pointwise_stabilizer(group, complement)
    if set(orbit(inside, points[0]).points) != wanted:
        return None
    index = {p: i for i, p in enumerate(points)}
    restricted = tuple(
        Permutation(tuple(index[g.images[p]] for p in points))
        for g in inside.generators
    )
    k = len(complement)
    proper = transitivity_degree(group, k + 1) < k + 1
    return JordanWitness(points, GenGroup(len(points), restricted), proper, size, points)


def _jordan_translates(
    group: GenGroup, sizes
) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each subset that is one orbit of the pointwise stabilizer of its
    complement, mapped to (A, g): A the representative of its G-orbit,
    and g the image tuple of an element with A^g = the subset.  The
    subsets come by ascending size, then lexicographically.

    Such a complement S is closed: S = fix(G_(S)).  Every closed set has
    a translate on a path from fix(G) through fix(G_r1), fix(G_(r1,r2)),
    ..., each r_i the least point of its orbit under the stabilizer
    before it, since a closed set through a moved point can be moved, by
    that stabilizer, onto the least point of the point's orbit while
    keeping the fixed points so far.  So the walk goes over the nodes
    H = G_(S) with one child per H-orbit, the stabilizer of its least
    point, and leaves out a node whose moved points were already seen or
    are fewer than the smallest wanted size.  The stack holds (H, |H|)
    pairs, and each child and its order come from
    ``groups._least_stabilizer``.  A node whose moved points are a
    wanted number and one H-orbit is a hit, and its set is the
    representative A of its G-orbit, walked by ``groups._item_walk``,
    since g maps Jordan sets onto Jordan sets; each translate's g is the
    product along the first word that reaches it.
    """
    n = group.degree
    if sizes is None:
        wanted_sizes = tuple(range(2, n + 1))
    else:
        wanted_sizes = tuple(sorted(set(sizes)))
        for m in wanted_sizes:
            if not 2 <= m <= n:
                raise OutOfRange(f"size {m} outside 2..{n}")
    count = sum(math.comb(n, m) for m in wanted_sizes)
    limit = check_cap(count, f"{count} candidate subsets")
    size = order(group)
    if not wanted_sizes:
        return {}
    smallest = wanted_sizes[0]
    found: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    seen: set[tuple[int, ...]] = set()
    stack: list[tuple[GenGroup, int]] = [(group, size)]
    while stack:
        inside, size = stack.pop()
        moved = tuple(p for p in range(n) if any(g.images[p] != p for g in inside.generators))
        if len(moved) < smallest or moved in seen:
            continue
        seen.add(moved)
        if (
            len(moved) in wanted_sizes
            and moved not in found
            and _connected_inside(inside, moved)
        ):
            words: dict[tuple[int, ...], tuple[int, ...]] = {}
            for translate in _item_walk(moved, _subset_image, group.generators, limit, words):
                found[translate] = (moved, _word_images(group, words[translate]))
        if len(moved) == smallest:
            continue
        covered: set[int] = set()
        for r in moved:
            if r not in covered:
                covered.update(orbit(inside, r).points)
                stack.append(_least_stabilizer(group, inside, size, r))
    return {a: found[a] for a in sorted(found, key=lambda a: (len(a), a))}


def jordan_sets(group: GenGroup, sizes=None) -> tuple[JordanWitness, ...]:
    """All Jordan sets of the group, optionally restricted to given sizes,
    by ascending size then lexicographically.

    Walks the closed complements, one child per stabilizer orbit, and
    expands the hits into their translates (see ``_jordan_translates``).
    Each G-orbit's representative A gets its witness from ``is_jordan``,
    a second route through the complement's own pointwise stabilizer,
    and that witness's order is checked against a chain of its own
    group; a set it refuses, or an order that differs, raises
    AxiomsFailed.  Every other set B = A^g gets A's witness relabeled
    through g (``_translated_witness``).  The subset count and the group
    order are compared against the element cap before anything runs.
    """
    certified: dict[tuple[int, ...], JordanWitness] = {}
    found: list[JordanWitness] = []
    for points, (representative, g) in _jordan_translates(group, sizes).items():
        if representative not in certified:
            witness = is_jordan(group, representative)
            if witness is None:
                raise AxiomsFailed(f"scanned set {representative} has no Jordan witness")
            size = order(witness.witness_group)
            if size != witness.witness_order:
                raise AxiomsFailed(
                    f"witness of {representative} has order {size},"
                    f" its complement's stabilizer {witness.witness_order}"
                )
            certified[representative] = witness
        found.append(_translated_witness(certified[representative], points, g))
    return tuple(found)


def _translated_witness(
    witness: JordanWitness, points: tuple[int, ...], g: tuple[int, ...]
) -> JordanWitness:
    """The witness of points = witness.points^g, with no stabilizer built.

    If h fixes every point off A = witness.points, then g^-1 h g ("apply
    g^-1, then h, then g") fixes every point off A^g and maps a^g to
    (a^h)^g.  In sorted positions, position i of A goes to the position
    of its image under g, so each witness generator is relabeled through
    that map; the order, properness and representative carry over.  The
    relabeled group must still have one orbit on the set, else
    AxiomsFailed.
    """
    if points == witness.points:
        return witness
    position = {p: i for i, p in enumerate(points)}
    relabel = [position[g[p]] for p in witness.points]
    generators = []
    for h in witness.witness_group.generators:
        images = [0] * len(points)
        for i, j in enumerate(relabel):
            images[j] = relabel[h.images[i]]
        generators.append(_trusted(tuple(images)))
    conjugate = GenGroup(len(points), tuple(generators))
    if len(orbit(conjugate, 0).points) != len(points):
        raise AxiomsFailed(f"translate {points} of {witness.points} is not one orbit of its witness")
    return JordanWitness(
        points, conjugate, witness.proper, witness.witness_order, witness.representative
    )


def _connected_inside(inside: GenGroup, members: tuple[int, ...]) -> bool:
    """Single orbit on members under a group that fixes every other point."""
    return len(orbit(inside, members[0]).points) == len(members)


def maximal_jordan_avoiding(group: GenGroup, avoid, seed: int | None = None):
    """Maximal Jordan sets disjoint from a prescribed point set.

    With a seed point, returns the unique maximal Jordan set through the
    seed avoiding the set, as a sorted tuple, or () when only the seed's
    singleton survives.  Without a seed, returns the tuple of all distinct
    maximal Jordan sets avoiding the set; these are pairwise disjoint,
    since two through a common point would both equal the fixpoint there.
    """
    banned = _point_set(group, avoid)
    allowed = frozenset(range(group.degree)) - banned
    order(group)  # the cap check, before the seed is validated
    if seed is not None:
        _point_in_range(group, seed)
        if seed in banned:
            raise OutOfRange(f"seed {seed} lies in the avoided set")
        part = _component(group, allowed, seed)
        return part if len(part) >= 2 else ()
    remaining = set(allowed)
    out: list[tuple[int, ...]] = []
    while remaining:
        part = _component(group, allowed, min(remaining))
        remaining.difference_update(part)
        if len(part) >= 2:
            out.append(part)
    return tuple(out)


def span(group: GenGroup, points) -> tuple[int, ...]:
    """Points in no Jordan set avoiding the given ones.

    The complement of the union of the maximal Jordan sets avoiding the
    input.  This is a closure operator whenever the group is transitive;
    for a 2-transitive group with line-like proper Jordan complements it
    recovers the lines, and for a symmetric group it is the identity on
    small sets.
    """
    covered = set().union(*maximal_jordan_avoiding(group, points))
    return tuple(p for p in range(group.degree) if p not in covered)


@dataclass(frozen=True)
class SpanGeometry:
    """Span table over all point sets up to one past the size cap."""

    group: GenGroup
    size_cap: int
    table: "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]"

    def span_of(self, points) -> tuple[int, ...]:
        key = tuple(sorted(set(points)))
        for entry, value in self.table:
            if entry == key:
                return value
        raise OutOfRange(f"span table only covers sets of at most {self.size_cap + 1}")


def span_geometry(group: GenGroup, size_cap: int = 2) -> SpanGeometry:
    """Tabulate spans of every subset of size at most size_cap + 1.

    Rows come by size, then lexicographically.  Since g maps Jordan sets
    onto Jordan sets, span(A^g) = span(A)^g: the first subset of a size
    not yet tabulated represents its G-orbit and gets one ``span``, and
    ``groups._item_walk`` walks that orbit, giving each translate B the
    representative's span mapped through the product of the first word
    reaching B (``groups._word_images``).  The row count is compared
    against the element cap before any span runs.
    """
    n = group.degree
    if size_cap < 0:
        raise OutOfRange("size_cap must be nonnegative")
    count = sum(math.comb(n, m) for m in range(min(size_cap + 1, n) + 1))
    check_cap(count, f"{count} table rows")
    rows = []
    for m in range(min(size_cap + 1, n) + 1):
        spans: dict[tuple[int, ...], tuple[int, ...]] = {}
        for combo in itertools.combinations(range(n), m):
            if combo not in spans:
                closed = span(group, combo)
                words: dict[tuple[int, ...], tuple[int, ...]] = {}
                for translate in _item_walk(
                    combo, _subset_image, group.generators, math.comb(n, m), words
                ):
                    g = _word_images(group, words[translate])
                    spans[translate] = tuple(sorted(g[p] for p in closed))
            rows.append((combo, spans[combo]))
    return SpanGeometry(group, size_cap, tuple(rows))


@dataclass(frozen=True)
class GeometryAudit:
    """Closure-operator report for a span table.

    extensive/monotone/idempotent are the closure laws on the tabulated
    sets; exchange is the matroid-style law (a point entering a span when
    another is added can be swapped for it), with the first failing triple
    as witness.  singleton_spans_fixed is None unless the group is
    2-transitive, where singletons must span themselves.  Each row of
    independent_counts is (k, number of independent ordered k-tuples,
    orbits on them); a geometry behaving like the classical examples is
    transitive on each nonempty level.
    """

    geometry: SpanGeometry
    extensive: bool
    monotone: bool
    idempotent: bool
    exchange: bool
    exchange_witness: "tuple[tuple[int, ...], int, int] | None"
    empty_span: tuple[int, ...]
    singleton_spans_fixed: bool | None
    independent_counts: tuple[tuple[int, int, int], ...]
    transitive_on_independent: bool

    @property
    def ok(self) -> bool:
        return (
            self.extensive
            and self.monotone
            and self.idempotent
            and self.exchange
            and self.empty_span == ()
            and self.singleton_spans_fixed is not False
            and self.transitive_on_independent
        )


def _tuple_orbits(group: GenGroup, tuples: tuple[tuple[int, ...], ...]) -> int:
    """Orbits on a G-invariant set of tuples, counted by removing whole orbits."""
    items = set(tuples)
    orbits = 0
    while items:
        orbits += 1
        items.difference_update(
            _item_walk(min(items), _tuple_image, group.generators, len(items))
        )
    return orbits


def geometry_audit(group: GenGroup, size_cap: int = 2) -> GeometryAudit:
    """Build the span table and audit it as a combinatorial geometry."""
    geometry = span_geometry(group, size_cap)
    table = {frozenset(k): frozenset(v) for k, v in geometry.table}
    n = group.degree

    extensive = all(k <= v for k, v in table.items())
    monotone = all(
        table[a] <= table[b]
        for a in table
        for b in table
        if a < b
    )
    idempotent = all(
        tuple(sorted(v)) == span(group, v) for v in set(table.values())
    )

    exchange = True
    exchange_witness = None
    small = sorted(
        (k for k in table if len(k) <= size_cap), key=lambda k: (len(k), sorted(k))
    )
    for base in small:
        closed = table[base]
        for gamma in range(n):
            if gamma in closed:
                continue
            bigger = table[base | {gamma}]
            for beta in sorted(bigger - closed - {gamma}):
                if gamma not in table[base | {beta}]:
                    exchange = False
                    exchange_witness = (tuple(sorted(base)), gamma, beta)
                    break
            if not exchange:
                break
        if not exchange:
            break

    empty_span = tuple(sorted(table[frozenset()]))
    if transitivity_degree(group, min(2, n)) >= 2:
        singleton_spans_fixed = all(
            table[frozenset([p])] == frozenset([p]) for p in range(n)
        )
    else:
        singleton_spans_fixed = None

    counts = []
    transitive_on_independent = True
    level: list[tuple[int, ...]] = [()]
    for k in range(1, size_cap + 2):
        nxt = []
        for t in level:
            closed = table[frozenset(t)]
            for p in range(n):
                if p not in closed:
                    nxt.append(t + (p,))
        orbits = _tuple_orbits(group, tuple(nxt)) if nxt else 0
        counts.append((k, len(nxt), orbits))
        if orbits > 1:
            transitive_on_independent = False
        level = nxt

    return GeometryAudit(
        geometry,
        extensive,
        monotone,
        idempotent,
        exchange,
        exchange_witness,
        empty_span,
        singleton_spans_fixed,
        tuple(counts),
        transitive_on_independent,
    )
