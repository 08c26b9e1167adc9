"""Exact permutation arithmetic on a finite point set.

Points are 0-indexed internally and 1-indexed in every textual surface
(cycle notation in and out).  Composition is left-to-right throughout:
``compose(f, g)`` is "apply f, then g", so the action law reads
(omega f)g = omega (fg).

>>> f = parse_cycles("(1 2 3)(4 5)", 5)
>>> format_cycles(f)
'(1 2 3)(4 5)'
>>> format_cycles(compose(f, f))
'(1 3 2)'
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeMismatch,
    MalformedSyntax,
    PointOutOfRange,
    RepeatedPoint,
)

CycleType = dict[int, int]


@dataclass(frozen=True, order=True)
class Permutation:
    """Immutable bijection of {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images must be a bijection of 0..n-1")

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"Permutation.parse({format_cycles(self)!r}, {self.degree})"

    @staticmethod
    def parse(text: str, degree: int) -> "Permutation":
        return parse_cycles(text, degree)


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation from images already known to be a bijection.

    Skips the validating ``__post_init__``; only products, inverses and
    conjugates of valid permutations are built this way.
    """
    f = object.__new__(Permutation)
    object.__setattr__(f, "images", images)
    return f


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-separated parenthesized cycles of 1-based points.

    "()" and the empty string both denote the identity.

    >>> parse_cycles("(1 2)", 3).images
    (1, 0, 2)
    >>> parse_cycles("()", 2) == identity(2)
    True
    """
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise MalformedSyntax(f"expected '(' at offset {pos}")
        close = text.find(")", pos)
        if close < 0:
            raise MalformedSyntax(f"unclosed cycle at offset {pos}")
        body = text[pos + 1 : close]
        pos = close + 1
        fields = body.split()
        if not fields:
            continue  # "()" names the identity
        cycle: list[int] = []
        for field in fields:
            try:
                point = int(field)
            except ValueError:
                raise MalformedSyntax(f"not an integer: {field!r}") from None
            if not 1 <= point <= degree:
                raise PointOutOfRange(f"point {point} outside 1..{degree}")
            if point - 1 in seen:
                raise RepeatedPoint(f"point {point} repeated")
            seen.add(point - 1)
            cycle.append(point - 1)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(tuple(images))


def cycle_decomposition(f: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of length >= 2 in canonical form (0-indexed).

    Each cycle starts at its least point; cycles are sorted by least point.
    Fixed points are implicit.
    """
    return tuple(c for c in _cycles_including_fixed(f.images) if len(c) >= 2)


def _cycles_including_fixed(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All cycles of an image tuple, 1-cycles included, in canonical order."""
    seen = [False] * len(images)
    cycles: list[tuple[int, ...]] = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = True
            point = images[point]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def format_cycles(f: Permutation) -> str:
    """Canonical 1-indexed cycle notation; the identity prints as "()".

    >>> format_cycles(parse_cycles("(4 5)(2 1 3)", 5))
    '(1 3 2)(4 5)'
    """
    cycles = cycle_decomposition(f)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)


def compose(f: Permutation, g: Permutation) -> Permutation:
    """Apply f, then g.

    >>> format_cycles(compose(parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)))
    '(1 3 2)'
    """
    if len(f.images) != len(g.images):
        raise DegreeMismatch(f"{f.degree} != {g.degree}")
    return _trusted(tuple(map(g.images.__getitem__, f.images)))


def _inverse_images(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for point, image in enumerate(images):
        out[image] = point
    return tuple(out)


def inverse(f: Permutation) -> Permutation:
    return _trusted(_inverse_images(f.images))


def conjugate(f: Permutation, g: Permutation) -> Permutation:
    """g^-1 f g, the conjugate of f by g: it sends (p)g to (p)fg."""
    if f.degree != g.degree:
        raise DegreeMismatch(f"{f.degree} != {g.degree}")
    out = [0] * f.degree
    for point, image in zip(g.images, map(g.images.__getitem__, f.images)):
        out[point] = image
    return _trusted(tuple(out))


def support_fix_degree(f: Permutation) -> tuple[frozenset[int], frozenset[int], int]:
    """(moved points, fixed points, count of moved points), 0-indexed."""
    support = frozenset(p for p, q in enumerate(f.images) if p != q)
    fix = frozenset(range(f.degree)) - support
    return support, fix, len(support)


def cycle_type(f: Permutation) -> CycleType:
    """Multiset of cycle lengths, fixed points counted as 1-cycles.

    >>> cycle_type(parse_cycles("(1 2 3)(4 5)", 6)) == {1: 1, 2: 1, 3: 1}
    True
    """
    counts: CycleType = {}
    for cycle in _cycles_including_fixed(f.images):
        counts[len(cycle)] = counts.get(len(cycle), 0) + 1
    return counts


def involution_factorization(f: Permutation) -> tuple[Permutation, Permutation]:
    """Split f into two involutions t1, t2 with compose(t1, t2) = f.

    Per cycle (a_0 .. a_{r-1}): t1 sends a_i to a_{-i mod r} and t2 sends
    a_i to a_{1-i mod r}; both square to the identity and move only points
    of the cycle, so supp(t1), supp(t2) lie inside supp(f).

    >>> t1, t2 = involution_factorization(parse_cycles("(1 2 3)", 3))
    >>> format_cycles(t1), format_cycles(t2)
    ('(2 3)', '(1 2)')
    """
    t1 = list(range(f.degree))
    t2 = list(range(f.degree))
    for cycle in cycle_decomposition(f):
        r = len(cycle)
        for i in range(r):
            t1[cycle[i]] = cycle[-i % r]
            t2[cycle[i]] = cycle[(1 - i) % r]
    return Permutation(tuple(t1)), Permutation(tuple(t2))
