"""Countable dense linear orders at desk scale.

Finite prefixes of rational enumerations, the back-and-forth partial
isomorphism builder, exact piecewise-linear order automorphisms, and the
ternary/quaternary relations a linear order induces (betweenness, cyclic
order, separation) together with their local characterizations.

All arithmetic is exact (fractions.Fraction); nothing here touches floats.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ArityMismatch,
    LengthMismatch,
    NotAscending,
    NotLinearOrder,
    OutOfRange,
    RepeatedPoint,
)
from .relations import Relation, relation


def standard_rationals(count):
    """A fixed enumeration of the rationals: 0, then +/- pairs of the
    Calkin-Wilf sequence (1, 1/2, 2, 1/3, 3/2, ...).  Distinct by construction."""
    if count < 0:
        raise OutOfRange("count must be nonnegative")
    out = []
    if count:
        out.append(Fraction(0))
    q = Fraction(1)
    while len(out) < count:
        out.append(q)
        if len(out) < count:
            out.append(-q)
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)
    return tuple(out)


@dataclass(frozen=True)
class RationalEnumeration:
    """Distinct rationals listed in enumeration order (not value order)."""

    values: tuple

    def __post_init__(self):
        if len(set(self.values)) != len(self.values):
            raise RepeatedPoint("enumeration values must be distinct")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def rational_enumeration(values):
    return RationalEnumeration(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class ForthStep:
    source: Fraction
    lower: object  # Fraction or None for -infinity
    upper: object  # Fraction or None for +infinity
    target: Fraction
    target_index: int


@dataclass(frozen=True)
class ForthResult:
    mapping: tuple  # (source, target) pairs in processing order
    steps: tuple
    exhausted: object  # first unplaceable source value, or None


def cantor_forth(source, target):
    """Extend the partial map source -> target one enumeration step at a time.

    Each value lands in the open interval its already-mapped neighbours
    carve out, taking the least-index unused target strictly inside the
    image interval; the first value meets no bound, so it takes the first
    target.  Running out of targets for an interval halts the
    construction with that source value reported, not raised.
    """
    source = rational_enumeration(source)
    target = rational_enumeration(target)
    mapping = []
    steps = []
    mapped = []  # sorted source values
    images = []  # their targets, sorted in parallel
    used = set()
    exhausted = None
    for lam in source:
        r = bisect_left(mapped, lam)
        lo = images[r - 1] if r > 0 else None
        hi = images[r] if r < len(images) else None
        chosen = None
        for idx, q in enumerate(target.values):
            if q in used:
                continue
            if lo is not None and not lo < q:
                continue
            if hi is not None and not q < hi:
                continue
            chosen = (idx, q)
            break
        if chosen is None:
            exhausted = lam
            break
        idx, q = chosen
        mapping.append((lam, q))
        steps.append(ForthStep(lam, lo, hi, q, idx))
        mapped.insert(r, lam)
        images.insert(r, q)
        used.add(q)
    return ForthResult(tuple(mapping), tuple(steps), exhausted)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Order automorphism of the rationals: translation below the first
    breakpoint, affine interpolation between consecutive breakpoints,
    translation above the last."""

    breakpoints: tuple
    targets: tuple


def pl_automorphism(alphas, betas):
    alphas = tuple(Fraction(a) for a in alphas)
    betas = tuple(Fraction(b) for b in betas)
    if len(alphas) != len(betas):
        raise LengthMismatch(
            f"{len(alphas)} breakpoints against {len(betas)} targets"
        )
    if not alphas:
        raise OutOfRange("need at least one breakpoint")
    for seq in (alphas, betas):
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise NotAscending("breakpoints and targets must strictly ascend")
    return PiecewiseLinearMap(alphas, betas)


def evaluate(pl_map, omega):
    omega = Fraction(omega)
    alphas = pl_map.breakpoints
    betas = pl_map.targets
    if omega <= alphas[0]:
        return omega + betas[0] - alphas[0]
    if omega >= alphas[-1]:
        return omega + betas[-1] - alphas[-1]
    i = bisect_left(alphas, omega)
    if alphas[i] == omega:
        return betas[i]
    a0, a1 = alphas[i - 1], alphas[i]
    b0, b1 = betas[i - 1], betas[i]
    return b0 + (omega - a0) * (b1 - b0) / (a1 - a0)


def linear_order_relation(size, sequence=None):
    """The strict order relation whose ascending point sequence is given
    (identity order by default)."""
    if sequence is None:
        sequence = range(size)
    sequence = tuple(sequence)
    if sorted(sequence) != list(range(size)):
        raise NotLinearOrder("sequence must list every point exactly once")
    pairs = [
        (sequence[i], sequence[j])
        for i in range(size)
        for j in range(i + 1, size)
    ]
    return relation(2, size, pairs)


def order_ranks(rel):
    """Position of each point in the ascending order, or None if the
    relation is not a strict linear order."""
    n = rel.size
    if len(rel.tuples) != n * (n - 1) // 2:
        return None
    above = [0] * n
    for a, b in rel.tuples:
        if a == b:
            return None
        above[a] += 1
    ranks = [n - 1 - c for c in above]
    if sorted(ranks) != list(range(n)):
        return None
    for a, b in rel.tuples:
        if not ranks[a] < ranks[b]:
            return None
    return ranks


def is_strict_linear_order(rel):
    if rel.arity != 2:
        raise ArityMismatch("linear orders are binary relations")
    return order_ranks(rel) is not None


DERIVED_KINDS = ("betweenness", "cyclic", "separation")


def derive_relation(order_rel, kind):
    """Betweenness, cyclic order or separation induced by a strict linear order."""
    ranks = order_ranks(order_rel)
    if ranks is None:
        raise NotLinearOrder("input is not a strict linear order")
    return _derive_from_ranks(ranks, order_rel.size, kind)


def _derive_from_ranks(ranks, size, kind):
    if kind == "betweenness":
        tuples = [
            (a, b, c)
            for a, b, c in itertools.permutations(range(size), 3)
            if ranks[b] < ranks[a] < ranks[c] or ranks[c] < ranks[a] < ranks[b]
        ]
        return relation(3, size, tuples)
    if kind == "cyclic":
        tuples = [
            (a, b, c)
            for a, b, c in itertools.permutations(range(size), 3)
            if ranks[a] < ranks[b] < ranks[c]
            or ranks[b] < ranks[c] < ranks[a]
            or ranks[c] < ranks[a] < ranks[b]
        ]
        return relation(3, size, tuples)
    if kind == "separation":

        def half(a, b, c, d):
            return (
                ranks[a] < ranks[c] < ranks[b] < ranks[d]
                or ranks[b] < ranks[c] < ranks[a] < ranks[d]
            )

        def swapped(a, b, c, d):
            return half(a, b, c, d) or half(a, b, d, c)

        tuples = [
            (a, b, c, d)
            for a, b, c, d in itertools.permutations(range(size), 4)
            if swapped(a, b, c, d) or swapped(c, d, a, b)
        ]
        return relation(4, size, tuples)
    raise OutOfRange(f"unknown derived relation kind {kind!r}")


LOCAL_KINDS = {
    "linear": (2, 3),
    "betweenness": (3, 4),
    "cyclic": (3, 4),
    "separation": (4, 5),
}


@lru_cache(maxsize=None)
def _local_catalog(kind, d):
    """Tuple-sets a valid relation may induce on any d-point subset,
    generated from all d! linear orders on the subset."""
    out = set()
    for seq in itertools.permutations(range(d)):
        ranks = [0] * d
        for pos, p in enumerate(seq):
            ranks[p] = pos
        if kind == "linear":
            rel = relation(
                2, d, [(a, b) for a in range(d) for b in range(d) if ranks[a] < ranks[b]]
            )
        else:
            rel = _derive_from_ranks(ranks, d, kind)
        out.add(rel.tuples)
    return frozenset(out)


@dataclass(frozen=True)
class LocalCheck:
    kind: str
    ok: bool
    witness: object  # offending point subset, or None


def local_characterization_check(rel, kind):
    """Test whether every small subset induces a relation some linear
    order produces: 3-subsets for linear orders, 4-subsets for
    betweenness and cyclic orders, 5-subsets for separation.  Returns
    the least offending subset when the check fails."""
    if kind not in LOCAL_KINDS:
        raise OutOfRange(f"unknown local characterization kind {kind!r}")
    arity, d = LOCAL_KINDS[kind]
    if rel.arity != arity:
        raise ArityMismatch(f"{kind} relations have arity {arity}, got {rel.arity}")
    catalog = _local_catalog(kind, d)
    by_support = {}
    for t in rel.tuples:
        by_support.setdefault(frozenset(t), []).append(t)
    supports = list(by_support.items())
    for subset in itertools.combinations(range(rel.size), d):
        members = set(subset)
        index = {p: i for i, p in enumerate(subset)}
        local = []
        for support, ts in supports:
            if support <= members:
                local.extend(tuple(index[p] for p in t) for t in ts)
        if frozenset(local) not in catalog:
            return LocalCheck(kind, False, subset)
    return LocalCheck(kind, True, None)


__all__ = [
    "standard_rationals",
    "RationalEnumeration",
    "rational_enumeration",
    "ForthStep",
    "ForthResult",
    "cantor_forth",
    "PiecewiseLinearMap",
    "pl_automorphism",
    "evaluate",
    "linear_order_relation",
    "order_ranks",
    "is_strict_linear_order",
    "DERIVED_KINDS",
    "derive_relation",
    "LOCAL_KINDS",
    "local_characterization_check",
    "LocalCheck",
    "Relation",
]
