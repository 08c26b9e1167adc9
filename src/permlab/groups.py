"""Finitely generated permutation group machinery.

A group is held by its generators; everything else (orbits, element
enumeration, stabilizers, induced actions, witnesses) is derived on demand
by deterministic breadth-first walks.  Enumeration order is reproducible:
words are explored shortest-first, ties broken by generator list position,
so "the BFS-least witness" is a well-defined value everywhere below.
That list is grown lazily, one shared and memoized prefix per group and
cap, so a search for a BFS-least witness builds elements only up to its
first hit, and a full enumeration finishes the same list.

Questions whose answers do not depend on that order (the order, membership,
the element-cap check, the transitivity degree, and the closure test of
the greedy generating-set scan) are answered by a stabilizer chain built
by deterministic Schreier-Sims on the base 0, 1, ..., n-1.  Point and
pointwise stabilizers (``point_stabilizer``, ``pointwise_stabilizer``)
are read off that chain's lower levels, or off further chains whose base
starts at a stabilized point; none of them lists an element.  A
stabilizer H that fixes 0..k-1 and whose order is the product of the
chain's orbit lengths from level k is G_(0..k-1) itself, however it was
reached, so its own stabilizers are read off the chain too, and no
caller tracks which nodes are base prefixes.  Any other chain is of a
stabilizer whose order is already known, so it is filled to that order
from seeded random elements (a chain's order is exact, so reaching it
proves the chain complete), and a point that is not the least of its
orbit gets the conjugate of its least sibling's stabilizer, by the
orbit's BFS transversal element, instead of a chain.  The setwise
stabilizer is read off a chain filled with the Schreier generators of
the set's orbit.  Orbits on points, pairs, tuples, subsets, point sets
and elements are walked by the one generator ``_item_walk``, which can
record the first word reaching each item, the ``Orbit``'s transversal.
The chain is cross-checked against enumeration whenever both exist: an
enumerated group must have exactly as many elements as the chain's
order.  Sums that ignore order (the Burnside count of fixed subsets in
``incidence``) read the products of the chain's transversal elements
instead, built there as one array with no visited set.  Caches keyed on
a group are bounded LRUs; ``clear_caches`` empties them, and with them
any partly walked prefix.

>>> g = group_from_cycles(5, "(1 2 3 4 5)")
>>> order(g)
5
>>> orbit(g, 0).points
(0, 1, 2, 3, 4)
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .config import CACHE_ENTRIES, check_cap, element_cap
from .errors import (
    AxiomsFailed,
    CapExceeded,
    NotSubgroup,
    NotTransitive,
    OutOfRange,
    PointOutOfRange,
)
from .perms import (
    Permutation,
    _inverse_images,
    _trusted,
    compose,
    conjugate,
    identity,
    parse_cycles,
)


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of Sym({0..degree-1}) given by a generator list."""

    degree: int
    generators: tuple[Permutation, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")
        # every cache keyed on a group hashes it, so hash the generators once
        object.__setattr__(self, "_hash", hash((self.degree, self.generators)))

    def __hash__(self) -> int:
        return self._hash


def group_from_cycles(degree: int, *cycle_texts: str) -> GenGroup:
    return GenGroup(degree, tuple(parse_cycles(t, degree) for t in cycle_texts))


def symmetric_group(degree: int) -> GenGroup:
    if degree <= 1:
        return GenGroup(degree, ())
    if degree == 2:
        return group_from_cycles(2, "(1 2)")
    cycle = "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"
    return group_from_cycles(degree, cycle, "(1 2)")


def cyclic_group(degree: int) -> GenGroup:
    if degree <= 1:
        return GenGroup(degree, ())
    cycle = "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"
    return group_from_cycles(degree, cycle)


def dihedral_group(sides: int) -> GenGroup:
    """Symmetries of a regular polygon, acting on its vertices."""
    if sides < 3:
        raise OutOfRange("need at least 3 vertices")
    rotation = "(" + " ".join(str(i) for i in range(1, sides + 1)) + ")"
    flip_pairs = [
        (i, sides + 2 - i) for i in range(2, sides // 2 + 2) if i < sides + 2 - i
    ]
    flip = "".join(f"({a} {b})" for a, b in flip_pairs)
    return group_from_cycles(sides, rotation, flip if flip else "()")


def alternating_group(degree: int) -> GenGroup:
    if degree <= 2:
        return GenGroup(degree, ())
    if degree == 3:
        return group_from_cycles(3, "(1 2 3)")
    threecycle = "(1 2 3)"
    if degree % 2 == 1:
        long = "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"
    else:
        long = "(" + " ".join(str(i) for i in range(2, degree + 1)) + ")"
    return group_from_cycles(degree, threecycle, long)


# element enumeration


def _item_walk(start, act, generators, cap: int, words: dict | None = None) -> Iterator:
    """Orbit of start under item -> act(item, g), yielded in BFS order.

    Generators are tried in list order for each item, so items come
    shortest word first, ties broken by generator position.  Raises
    CapExceeded once the orbit would pass cap items.  Each item is yielded
    as soon as it is found, so a caller that stops early walks no further.
    A dict passed as words is filled, in the order items are found, with
    the first word reaching each: the generator positions whose product
    (``_word_images``) takes start there.  This is the one walk that
    stops in flight; a count known before a loop goes to check_cap.
    """
    seen = {} if words is None else words
    seen[start] = ()
    queue = deque([start])
    yield start
    while queue:
        item = queue.popleft()
        for position, g in enumerate(generators):
            moved = act(item, g)
            if moved not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"orbit of {start!r} passed cap {cap}")
                seen[moved] = () if words is None else seen[item] + (position,)
                queue.append(moved)
                yield moved


_CACHES: list = []


def _bounded_cache(fn):
    """An LRU cache of CACHE_ENTRIES entries that clear_caches() empties."""
    cached = lru_cache(maxsize=CACHE_ENTRIES)(fn)
    _CACHES.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every cache made by _bounded_cache: those keyed on a group here
    and in blocks, and incidence's theta ranks and primality answers."""
    for cached in _CACHES:
        cached.cache_clear()


# stabilizer chain


def _images_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of "apply a, then b"."""
    return tuple(map(b.__getitem__, a))


def _word_images(group: GenGroup, word: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the product of the generators a word names, in order."""
    images = tuple(range(group.degree))
    for index in word:
        images = _images_product(images, group.generators[index].images)
    return images


# The product-replacement walk starts from this seed in every chain, so a
# chain, and the generators read off it, never depend on the run.
_FILL_SEED = 0
# Sifts in a row that reach the identity before a fill stops drawing
# elements and checks Schreier generators instead.
_FILL_MISSES = 40


def _random_elements(generators: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Elements of the group the generators make, by product replacement.

    The rattle variant (Leedham-Green and Murray; Seress, Permutation
    Group Algorithms, 2003, ch. 2): each step multiplies one slot by
    another and the accumulator by the new slot, and yields the
    accumulator.  The slots start as the generators, repeated to at least
    ten, and the first steps are discarded.
    """
    rng = random.Random(_FILL_SEED)
    slots = generators * -(-10 // len(generators))
    accumulator = tuple(range(len(generators[0])))
    for step in itertools.count(-len(slots)):
        i = int(rng.random() * len(slots))
        j = int(rng.random() * (len(slots) - 1))
        j += j >= i
        slots[i] = _images_product(slots[i], slots[j])
        accumulator = _images_product(accumulator, slots[i])
        if step >= 0:
            yield accumulator


class _Chain:
    """Base and strong generating set for the base 0, 1, ..., n-1, or for
    another ordering of the points.

    Level i holds the strong generators that fix the first i base points
    and the orbit of base point i under them; each orbit point beta maps
    to a transversal element (sending the base point to beta) and its
    inverse.  Elements are raw image tuples.  The chain is complete when
    every Schreier generator of every level sifts to the identity through
    the levels below it (deterministic Schreier-Sims: Sims 1970; Seress,
    Permutation Group Algorithms, 2003, ch. 4).  Then |G| is the product
    of the orbit lengths, and the first k of them multiply to the size of
    the orbit of the first k base points.  The transversal products are
    distinct members of G at every stage, so a product equal to a known
    `target` order proves the chain complete, and extend stops there.

    A chain whose target is known can instead be filled (known-order
    Schreier-Sims; Seress 2003, ch. 4-5): the generators, then seeded
    product-replacement elements, are sifted and their residues
    installed with no Schreier generator checked, until the orbit lengths
    multiply to the target.  That product is exact, not a probability.
    Should many elements in a row sift to the identity first, the fill
    ends with the deterministic checks, which always terminate.
    """

    def __init__(
        self, degree: int, base: tuple[int, ...] | None = None, target: int = 0
    ) -> None:
        e = tuple(range(degree))
        self.degree = degree
        self.base = e if base is None else base
        self.target = target
        self.strong: list[list[tuple[int, ...]]] = [[] for _ in range(degree)]
        self.transversal = [{b: (e, e)} for b in self.base]
        # (orbit point, generator position) pairs whose Schreier generator sifted
        self.sifted: list[set[tuple[int, int]]] = [set() for _ in range(degree)]

    def orbit_lengths(self) -> list[int]:
        return [len(table) for table in self.transversal]

    def order(self) -> int:
        return math.prod(self.orbit_lengths())

    def sift(self, g: tuple[int, ...], level: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip g through the levels from `level` on.

        Returns the residue and the level where it dropped out; a level of
        `degree` means the residue is the identity, so g was a member.
        """
        for i in range(level, self.degree):
            b = self.base[i]
            beta = g[b]
            if beta != b:
                pair = self.transversal[i].get(beta)
                if pair is None:
                    return g, i
                g = _images_product(g, pair[1])
        return g, self.degree

    def extend(self, g: tuple[int, ...]) -> bool:
        """Grow the chain to the group generated by it and g.

        Returns False, changing nothing, when g is already a member.
        """
        level = self._add(g)
        if level is None:
            return False
        self._complete(level)
        return True

    def fill(self, generators: list[tuple[int, ...]]) -> None:
        """Grow an empty chain to the group the generators make, whose
        order must be the target."""
        for g in generators:
            self._add(g)
        elements = _random_elements(generators)
        misses = 0
        while self.order() != self.target and misses < _FILL_MISSES:
            misses = 0 if self._add(next(elements)) is not None else misses + 1
        self._complete(self.degree - 1)

    def _add(self, g: tuple[int, ...]) -> int | None:
        """Install the residue of g at the levels down to where it dropped
        out, and return that level; None when g was already a member."""
        residue, level = self.sift(g)
        if level == self.degree:
            return None
        self._install(residue, 0, level)
        return level

    def _complete(self, level: int) -> None:
        """Check the Schreier generators from `level` up to level 0,
        going back down to where each new residue dropped out, until
        every one sifts or the target order is reached."""
        while level >= 0 and self.order() != self.target:
            dropped = self._schreier_check(level)
            level = level - 1 if dropped is None else dropped

    def _install(self, g: tuple[int, ...], low: int, high: int) -> None:
        """Add g as a strong generator of the levels low..high."""
        for i in range(low, high + 1):
            self.strong[i].append(g)
            table = self.transversal[i]
            frontier = list(table)
            for beta in frontier:
                u = table[beta][0]
                for s in self.strong[i]:
                    image = s[beta]
                    if image not in table:
                        v = _images_product(u, s)
                        table[image] = (v, _inverse_images(v))
                        frontier.append(image)

    def _schreier_check(self, i: int) -> int | None:
        """Sift the unchecked Schreier generators of level i.

        On the first that does not sift, installs its residue and returns
        the level it dropped out at; returns None when all of them sift.
        """
        table = self.transversal[i]
        sifted = self.sifted[i]
        for beta, (u, _) in list(table.items()):
            for position, s in enumerate(self.strong[i]):
                if (beta, position) in sifted:
                    continue
                h = _images_product(_images_product(u, s), table[s[beta]][1])
                residue, level = self.sift(h, i + 1)
                if level < self.degree:
                    self._install(residue, i + 1, level)
                    return level
                sifted.add((beta, position))
        return None


@_bounded_cache
def _chain(group: GenGroup) -> _Chain:
    chain = _Chain(group.degree)
    for g in group.generators:
        chain.extend(g.images)
    return chain


def _check_order(degree: int, generators: int, size: int, cap: int | None) -> None:
    """check_cap on the order of a group of this degree and generator count."""
    plural = "" if generators == 1 else "s"
    what = f"group of degree {degree} with {generators} generator{plural} has order {size}"
    check_cap(size, what, cap)


def _capped_order(group: GenGroup, cap: int | None = None) -> int:
    """|G| from the stabilizer chain; CapExceeded when it passes the cap."""
    size = _chain(group).order()
    _check_order(group.degree, len(group.generators), size, cap)
    return size


class _BfsPrefix:
    """A group's BFS element list, grown on demand by one shared walk.

    Iterating reads the elements found so far and advances the walk only
    past their end, so searches for a BFS-least element stop at their
    first hit, and every iterator, interleaved or not, sees one list in
    one order.  The chain's order is checked against the cap before the
    walk starts; the walk must stop at exactly that many elements, and
    AxiomsFailed is raised when it would end short or run past it.
    """

    def __init__(self, group: GenGroup, cap: int) -> None:
        self.size = _capped_order(group, cap)
        self.elements: list[Permutation] = []
        self._walk = _item_walk(identity(group.degree), compose, group.generators, cap)

    def __iter__(self) -> Iterator[Permutation]:
        elements = self.elements
        index = 0
        while index < len(elements) or self._grow():
            yield elements[index]
            index += 1

    def finish(self) -> list[Permutation]:
        """The whole list, with the rest of the walk taken in one pass."""
        missing = self.size - len(self.elements)
        self.elements.extend(itertools.islice(self._walk, missing))
        self._grow()  # raises unless the walk ends at exactly self.size elements
        return self.elements

    def _grow(self) -> bool:
        """Append the walk's next element; False once the walk has ended."""
        found = len(self.elements)
        g = next(self._walk, None)
        if g is None:
            if found != self.size:
                raise AxiomsFailed(
                    f"enumeration found {found} elements, the stabilizer chain {self.size}"
                )
            return False
        if found == self.size:
            raise AxiomsFailed(
                f"enumeration passed the stabilizer chain's order {self.size}"
            )
        self.elements.append(g)
        return True


@_bounded_cache
def _bfs_prefix(group: GenGroup, cap: int) -> _BfsPrefix:
    return _BfsPrefix(group, cap)


@_bounded_cache
def _bfs_elements(group: GenGroup, cap: int) -> tuple[Permutation, ...]:
    return tuple(_bfs_prefix(group, cap).finish())


def enumerate_elements(group: GenGroup, cap: int | None = None) -> tuple[Permutation, ...]:
    """All elements in deterministic BFS word order (identity first).

    Raises CapExceeded when the group has more than `cap` elements; the
    stabilizer chain's order is compared with the cap before any element
    is built, and the finished list must have exactly that many elements.
    The list is the one every BFS-least search reads a prefix of.
    """
    return _bfs_elements(group, element_cap(cap))


@_bounded_cache
def _element_set(group: GenGroup, cap: int) -> frozenset[Permutation]:
    return frozenset(_bfs_elements(group, cap))


def element_set(group: GenGroup, cap: int | None = None) -> frozenset[Permutation]:
    return _element_set(group, element_cap(cap))


def order(group: GenGroup, cap: int | None = None) -> int:
    """|G| from the stabilizer chain; CapExceeded when it passes the cap."""
    return _capped_order(group, cap)


def contains(group: GenGroup, f: Permutation, cap: int | None = None) -> bool:
    """Membership by sifting; CapExceeded when |G| passes the cap."""
    _capped_order(group, cap)
    return f.degree == group.degree and _chain(group).sift(f.images)[1] == group.degree


def _mask(points) -> int:
    """Bitmask with bit p set for each point p."""
    out = 0
    for p in points:
        out |= 1 << p
    return out


def _reduce_generators(
    elements: tuple[Permutation, ...], degree: int
) -> tuple[Permutation, ...]:
    """Greedy small generating set for a subgroup given by its element list.

    Scans in the given order, keeping any element outside the running
    closure, which is tested by sifting through a stabilizer chain of the
    kept elements.  Each kept element at least doubles the closure, so at
    most log2(n) generators survive.  Raises CapExceeded if the closure
    outgrows the list.
    """
    chain = _Chain(degree)
    generators: list[Permutation] = []
    target = len(elements)
    for candidate in elements:
        if not chain.extend(candidate.images):
            continue
        generators.append(candidate)
        size = chain.order()
        _check_order(degree, len(generators), size, target)
        if size == target:
            break
    return tuple(generators)


def subgroup_from_elements(
    elements: tuple[Permutation, ...], degree: int
) -> GenGroup:
    return GenGroup(degree, _reduce_generators(elements, degree))


# orbits


@dataclass(frozen=True)
class Orbit:
    """Orbit of a point with BFS-minimal transversal words.

    points is the orbit, sorted.  words is the BFS dict itself, in the
    order the walk reached the points: words[beta] is a tuple of
    generator indices; applying those generators left-to-right to the
    base point lands on beta.
    """

    group: GenGroup
    base: int
    points: tuple[int, ...]
    words: dict[int, tuple[int, ...]] = field(compare=False)

    def word(self, point: int) -> tuple[int, ...]:
        return self.words[point]

    def transversal_element(self, point: int) -> Permutation:
        return _trusted(_word_images(self.group, self.words[point]))


def _point_in_range(group: GenGroup, point: int) -> int:
    if not 0 <= point < group.degree:
        raise PointOutOfRange(f"point {point} outside 0..{group.degree - 1}")
    return point


def _point_image(point: int, g: Permutation) -> int:
    return g.images[point]


@_bounded_cache
def orbit(group: GenGroup, alpha: int) -> Orbit:
    """BFS orbit of alpha, with the first word reaching each point."""
    words: dict[int, tuple[int, ...]] = {}
    start = _point_in_range(group, alpha)
    walk = _item_walk(start, _point_image, group.generators, group.degree, words)
    return Orbit(group, alpha, tuple(sorted(walk)), words)


def orbits(group: GenGroup) -> tuple[tuple[int, ...], ...]:
    """All orbits, each sorted, ordered by least point."""
    seen: set[int] = set()
    out = []
    for alpha in range(group.degree):
        if alpha in seen:
            continue
        pts = orbit(group, alpha).points
        seen.update(pts)
        out.append(pts)
    return tuple(out)


def is_transitive(group: GenGroup) -> bool:
    return group.degree > 0 and len(orbit(group, 0).points) == group.degree


# stabilizers


def point_stabilizer(group: GenGroup, point: int) -> GenGroup:
    """G_point, read off a stabilizer chain without enumerating anything;
    it never checks the element cap."""
    return _pointwise_stabilizer(group, (_point_in_range(group, point),))[0]


def pointwise_stabilizer(group: GenGroup, points, cap: int | None = None) -> GenGroup:
    """G_(points), read off a stabilizer chain; CapExceeded when |G| passes
    the cap."""
    _capped_order(group, cap)
    wanted = tuple(sorted({_point_in_range(group, p) for p in points}))
    return _pointwise_stabilizer(group, wanted)[0]


def setwise_stabilizer(group: GenGroup, points, cap: int | None = None) -> GenGroup:
    """G_{points}, read off a chain; CapExceeded when |G| passes the cap.

    Each translate C of the set gets u_C from its first word.  The
    Schreier generators u_C g u_{C^g}^-1 (Seress 2003, 4.1) fill a chain
    up to |G| / |orbit|, and the group below its level 0 is returned.
    """
    size = _capped_order(group, cap)
    wanted = tuple(sorted({_point_in_range(group, p) for p in points}))
    words: dict[tuple[int, ...], tuple[int, ...]] = {}
    walk = _item_walk(wanted, _subset_image, group.generators, size, words)
    transversal = {item: _word_images(group, words[item]) for item in walk}
    chain = _Chain(group.degree, target=size // len(words))
    for item, u in transversal.items():
        for g in group.generators:
            back = _inverse_images(transversal[_subset_image(item, g)])
            chain.extend(_images_product(_images_product(u, g.images), back))
    return _below(chain, 0)[0]


def _below(chain: _Chain, level: int) -> tuple[GenGroup, int]:
    """The subgroup fixing the chain's first `level` base points, generated
    by the strong generators of the levels from there on, and its order."""
    strong = dict.fromkeys(g for below in chain.strong[level:] for g in below)
    generators = tuple(_trusted(images) for images in strong)
    return GenGroup(chain.degree, generators), math.prod(chain.orbit_lengths()[level:])


@_bounded_cache
def _stabilizer_in(group: GenGroup, size: int, point: int) -> tuple[GenGroup, int]:
    """G_point and its order, for G of the known order `size`: read below
    level 1 of a chain of G, with the point as its first base point,
    filled to that order."""
    base = (point,) + tuple(p for p in range(group.degree) if p != point)
    chain = _Chain(group.degree, base, size)
    chain.fill([g.images for g in group.generators])
    return _below(chain, 1)


def _least_stabilizer(
    group: GenGroup, parent: GenGroup, size: int, least: int
) -> tuple[GenGroup, int]:
    """H_least and its order, for H = parent a subgroup of group of the
    known order `size`.  When H fixes 0..least-1 and |H| is the product
    of the orbit lengths of the group's own chain from level least, H is
    all of G_(0..least-1), so H_least is read below level least + 1 of
    that chain; otherwise it comes from a chain of H filled to that
    order (_stabilizer_in)."""
    chain = _chain(group)
    if size == math.prod(chain.orbit_lengths()[least:]) and all(
        g.images[p] == p for g in parent.generators for p in range(least)
    ):
        return _below(chain, least + 1)
    return _stabilizer_in(parent, size, least)


@_bounded_cache
def _pointwise_stabilizer(group: GenGroup, points: tuple[int, ...]) -> tuple[GenGroup, int]:
    """G_(points) and its order, for a sorted tuple of distinct points.

    G_(p1..pk) is the stabilizer of p = pk in the memoized
    H = G_(p1..pk-1): H itself when its generators already fix p (a
    trivial H among them).  Else let r be the least point of p's orbit
    under H; H_r comes from ``_least_stabilizer``, off the group's own
    chain when H is G_(0..r-1), and otherwise from a chain of H with r
    as its first base point, filled to the known order |H| and memoized
    per (H, r), so every p in one orbit of H shares one chain.  For
    p != r, v in H with (p)v = r is the transversal element of r in
    ``orbit(H, p)`` (its BFS over H's generators, in queue order and
    then generator order), and H_p is generated by the conjugates
    v h v^-1 ("apply v, then h, then v^-1") of H_r's generators h, with
    the same order.  Walks over the subsets of the points (the Jordan
    scan, the search for a minimum base) get every node from its
    memoized prefix this way.
    """
    if not points:
        return group, _chain(group).order()
    parent, parent_order = _pointwise_stabilizer(group, points[:-1])
    last = points[-1]
    if all(g.images[last] == last for g in parent.generators):
        return parent, parent_order
    walked = orbit(parent, last)
    least = walked.points[0]
    stab, size = _least_stabilizer(group, parent, parent_order, least)
    if least == last:
        return stab, size
    v = walked.transversal_element(least).images
    v_inverse = _inverse_images(v)
    generators = tuple(
        _trusted(_images_product(_images_product(v, h.images), v_inverse))
        for h in stab.generators
    )
    return GenGroup(group.degree, generators), size


# induced actions on tuples and subsets


def _subsets_colex(degree: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All sorted k-subsets in colexicographic order.

    Colex order is lex order on each subset read from its largest point
    down.  The combinations of the reversed domain list exactly those
    readings, in the opposite order, so the list and each combination are
    reversed.
    """
    subsets = list(itertools.combinations(range(degree - 1, -1, -1), k))
    subsets.reverse()
    return tuple(s[::-1] for s in subsets)


def _tuple_image(item: tuple[int, ...], g: Permutation) -> tuple[int, ...]:
    return tuple(map(g.images.__getitem__, item))


def _subset_image(item: tuple[int, ...], g: Permutation) -> tuple[int, ...]:
    return tuple(sorted(map(g.images.__getitem__, item)))


# kind -> (domain size for n points and k, action of a generator on an item)
_INDUCED = {"tuples": (math.perm, _tuple_image), "subsets": (math.comb, _subset_image)}


@dataclass(frozen=True)
class InducedAction:
    """A group action moved to k-tuples or k-subsets of the original points."""

    group: GenGroup
    items: tuple[tuple[int, ...], ...]
    kind: str


def induced_action(
    group: GenGroup, kind: str, k: int, cap: int | None = None
) -> InducedAction:
    """Action on injective k-tuples ("tuples") or k-subsets ("subsets").

    Derived degree is n!/(n-k)! for tuples and C(n, k) for subsets; subsets
    are listed in colexicographic order, tuples lexicographically.  The
    derived degree is checked against the cap before any item is built.
    """
    if not 0 < k <= group.degree:
        raise OutOfRange(f"k={k} outside 1..{group.degree}")
    if kind not in _INDUCED:
        raise ValueError(f"unknown induced action kind {kind!r}")
    count, act = _INDUCED[kind]
    size = count(group.degree, k)
    check_cap(size, f"derived domain of size {size}", cap)
    if kind == "tuples":
        items = tuple(itertools.permutations(range(group.degree), k))
    else:
        items = _subsets_colex(group.degree, k)
    index = {item: i for i, item in enumerate(items)}
    lifted = tuple(
        Permutation(tuple(index[act(item, g)] for item in items))
        for g in group.generators
    )
    return InducedAction(GenGroup(len(items), lifted), items, kind)


def transitivity_degree(group: GenGroup, kmax: int, cap: int | None = None) -> int:
    """Largest k <= kmax with a single orbit on injective j-tuples for all j <= k.

    The orbit of (0, ..., k-1) has as many tuples as the first k orbit
    lengths of the stabilizer chain multiply to; G is k-transitive when
    that is n!/(n-k)!.  Raises CapExceeded at the first k whose tuple
    orbit is larger than the cap.
    """
    if kmax > group.degree:
        raise OutOfRange(f"kmax={kmax} above degree {group.degree}")
    lengths = _chain(group).orbit_lengths()
    best = 0
    size = 1
    for k in range(1, kmax + 1):
        size *= lengths[k - 1]
        check_cap(size, f"orbit of {tuple(range(k))} has {size} tuples", cap)
        if size != math.perm(group.degree, k):
            break
        best = k
    return best


def homogeneity_degree(group: GenGroup, kmax: int, cap: int | None = None) -> int:
    """Largest k <= kmax with a single orbit on j-subsets for all j <= k.

    Walks the orbit of {0, ..., k-1}, which stops with CapExceeded once it
    passes the element cap; the error names the orbit's bound C(n, k) as
    a cap that would suffice.
    """
    if kmax > group.degree:
        raise OutOfRange(f"kmax={kmax} above degree {group.degree}")
    cap = element_cap(cap)
    best = 0
    for k in range(1, kmax + 1):
        try:
            walked = list(_item_walk(tuple(range(k)), _subset_image, group.generators, cap))
        except CapExceeded as exc:
            bound = math.comb(group.degree, k)
            raise CapExceeded(
                f"{exc}; a {k}-subset orbit has at most C({group.degree}, {k}) = {bound}"
                f" subsets, PERMLAB_CAP={bound} would suffice"
            ) from None
        if len(walked) != math.comb(group.degree, k):
            break
        best = k
    return best


# separation


def separation_search(
    group: GenGroup,
    gamma: frozenset[int] | set[int],
    delta: frozenset[int] | set[int],
    cap: int | None = None,
) -> Permutation | None:
    """BFS-least g with (gamma)g disjoint from delta, or None.

    When every orbit is larger than |gamma| * |delta|, a witness always
    exists, so None is only possible for crowded orbits.  The search reads
    the BFS element list only up to its first hit.  Raises PointOutOfRange
    for a point outside the domain.
    """
    elements = _bfs_prefix(group, element_cap(cap))
    gamma = frozenset(_point_in_range(group, p) for p in gamma)
    delta = frozenset(_point_in_range(group, p) for p in delta)
    for g in elements:
        if not frozenset(g.images[p] for p in gamma) & delta:
            return g
    return None


# coset covers


@dataclass(frozen=True)
class CosetCoverInstance:
    group: GenGroup
    parts: tuple[tuple[GenGroup, Permutation], ...]


@dataclass(frozen=True)
class CosetCoverReport:
    covers: bool
    irredundant: bool
    indices: tuple[int, ...]
    index_sum: Fraction


def coset_cover_audit(
    instance: CosetCoverInstance, cap: int | None = None
) -> CosetCoverReport:
    """Audit a finite union of cosets Y_i x_i against the whole group.

    Exact index arithmetic; when the cover is exhaustive and irredundant the
    reciprocal index sum is at least 1, and this audit raises AxiomsFailed
    otherwise.
    """
    whole = element_set(instance.group, cap)
    cosets: list[frozenset[Permutation]] = []
    indices: list[int] = []
    for subgroup, representative in instance.parts:
        members = element_set(subgroup, cap)
        if not members <= whole or representative not in whole:
            raise NotSubgroup("cover part does not live inside the group")
        cosets.append(frozenset(compose(y, representative) for y in members))
        indices.append(len(whole) // len(members))
    union: set[Permutation] = set()
    for coset in cosets:
        union |= coset
    covers = union == whole
    irredundant = True
    for skip in range(len(cosets)):
        rest: set[Permutation] = set()
        for j, coset in enumerate(cosets):
            if j != skip:
                rest |= coset
        if rest == union:
            irredundant = False
            break
    index_sum = sum((Fraction(1, i) for i in indices), Fraction(0))
    if covers and irredundant and index_sum < 1:
        raise AxiomsFailed("irredundant exhaustive cover with reciprocal sum < 1")
    return CosetCoverReport(covers, irredundant, tuple(indices), index_sum)


# automorphisms of the action and coset spaces


def _normalizer_of_subgroup(
    group: GenGroup, sub: GenGroup, cap: int | None = None
) -> tuple[Permutation, ...]:
    members = element_set(sub, cap)
    out = []
    for g in enumerate_elements(group, cap):
        if all(conjugate(s, g) in members for s in sub.generators):
            out.append(g)
    return tuple(out)


def gspace_automorphisms(
    group: GenGroup, alpha: int, cap: int | None = None
) -> GenGroup:
    """All permutations of the domain commuting with the whole action.

    Requires transitivity.  Each normalizer element g of the point
    stabilizer yields the commuting map (alpha)x -> (alpha)gx; distinct
    stabilizer cosets give distinct maps, so the output order is
    |N(G_alpha)| / |G_alpha|.
    """
    if not is_transitive(group):
        raise NotTransitive("the action has more than one orbit")
    stab = point_stabilizer(group, alpha)
    normalizer = _normalizer_of_subgroup(group, stab, cap)
    table = orbit(group, alpha)
    transversal = {
        beta: table.transversal_element(beta) for beta in table.points
    }
    maps = []
    for g in normalizer:
        images = [0] * group.degree
        for beta in range(group.degree):
            images[beta] = compose(g, transversal[beta]).images[alpha]
        maps.append(Permutation(tuple(images)))
    unique = tuple(dict.fromkeys(maps))
    return subgroup_from_elements(unique, group.degree)


def _is_subgroup_of(
    group: GenGroup, sub: GenGroup, cap: int | None = None
) -> bool:
    order(sub, cap)
    order(group, cap)
    return sub.degree == group.degree and all(
        contains(group, s, cap) for s in sub.generators
    )


def coset_spaces_isomorphic(
    group: GenGroup, h: GenGroup, k: GenGroup, cap: int | None = None
) -> Permutation | None:
    """BFS-least x with x^-1 H x = K, or None when H, K are not conjugate.

    The search reads the BFS element list only up to its first hit.
    """
    if not _is_subgroup_of(group, h, cap) or not _is_subgroup_of(group, k, cap):
        raise NotSubgroup("both coset spaces need subgroups of the ambient group")
    h_members = element_set(h, cap)
    k_members = element_set(k, cap)
    if len(h_members) != len(k_members):
        return None
    for x in _bfs_prefix(group, element_cap(cap)):
        if all(conjugate(s, x) in k_members for s in h.generators):
            return x
    return None
