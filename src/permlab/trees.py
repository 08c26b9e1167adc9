"""Tree-like relational structures at desk scale.

Semilinear partial orders, C-, B- and D-relations: exhaustive axiom
checkers with least witnesses, builders (equivalence-chain models, the
s^k function model, word models over a rational list), the pair-set
quotient turning a C-relation into a semilinear order, cross-derivations
between the structure kinds, and invariant-subset classification for a
group action.

Each family's axioms are data: an axiom is a name and the counterexamples
it yields, least first, and one evaluator keeps the first as the witness.
Existential axioms that can only hold on infinite domains (denseness
and its relatives) are evaluated and reported alongside the core list,
never mixed into the pass/fail verdict.

The element cap bounds the loops here as it bounds group enumeration:
the audit, the equivalence-chain builder, the word model's order matrix,
betweenness, the pair quotient and the builders from a set's translates
measure how many candidates their widest loop visits before it starts,
and config.check_cap raises CapExceeded naming a PERMLAB_CAP that would
suffice.  The translates themselves are walked under the element cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import AXIOM_FAMILIES, check_cap, element_cap
from .errors import (
    ArityMismatch,
    AxiomsFailed,
    NotAChain,
    NotAscending,
    OutOfRange,
    PointOutOfRange,
)
from .blocks import _UnionFind, partition_from_blocks
from .groups import _item_walk, _subset_image
from .relations import Relation, relation


# ------------------------------------------------------------------ posets


@dataclass(frozen=True)
class FinitePoset:
    """Labeled partial order; leq[i][j] means element i lies below element j."""

    elements: tuple
    leq: tuple

    def __post_init__(self):
        n = len(self.elements)
        m = self.leq
        if len(m) != n or any(len(row) != n for row in m):
            raise OutOfRange("order matrix shape does not match the elements")
        for i in range(n):
            if not m[i][i]:
                raise AxiomsFailed(f"order not reflexive at element {i}")
            for j in range(n):
                if i != j and m[i][j] and m[j][i]:
                    raise AxiomsFailed(f"order not antisymmetric at ({i}, {j})")
                if m[i][j]:
                    for k in range(n):
                        if m[j][k] and not m[i][k]:
                            raise AxiomsFailed(
                                f"order not transitive at ({i}, {j}, {k})"
                            )

    def __len__(self):
        return len(self.elements)

    def index(self, element):
        return self.elements.index(element)


def finite_poset(elements, pairs):
    """Poset from its strict-or-not comparability pairs (indices); the
    reflexive closure is taken, transitivity is required, not completed."""
    n = len(elements)
    m = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        m[i][j] = True
    return FinitePoset(tuple(elements), tuple(tuple(row) for row in m))


def poset_relation(poset):
    n = len(poset)
    pairs = [(i, j) for i in range(n) for j in range(n) if poset.leq[i][j]]
    return relation(2, n, pairs)


def incomparable(poset, i, j):
    return not poset.leq[i][j] and not poset.leq[j][i]


def sup_index(poset, i, j):
    """Least upper bound index, or None when it does not exist."""
    n = len(poset)
    uppers = [k for k in range(n) if poset.leq[i][k] and poset.leq[j][k]]
    for k in uppers:
        if all(poset.leq[k][u] for u in uppers):
            return k
    return None


def has_positive_type(poset):
    """Every pair of elements has a least upper bound."""
    n = len(poset)
    return all(
        sup_index(poset, i, j) is not None
        for i in range(n)
        for j in range(i, n)
    )


def hasse_edges(poset):
    n = len(poset)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not poset.leq[i][j]:
                continue
            if any(
                k != i and k != j and poset.leq[i][k] and poset.leq[k][j]
                for k in range(n)
            ):
                continue
            edges.append((i, j))
    return tuple(edges)


def poset_dot(poset, label=str):
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, e in enumerate(poset.elements):
        lines.append(f'  n{i} [label="{label(e)}"];')
    for i, j in hasse_edges(poset):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ramification_indices(poset):
    """For each element whose strict downset splits into two or more cones
    (components under sharing a strict upper bound inside the downset),
    the number of cones."""
    n = len(poset)
    out = {}
    for e in range(n):
        below = [i for i in range(n) if i != e and poset.leq[i][e]]
        if len(below) < 2:
            continue
        uf = _UnionFind(n)
        for i, j in itertools.combinations(below, 2):
            if any(poset.leq[i][z] and poset.leq[j][z] for z in below):
                uf.union(i, j)
        cones = len({uf.find(i) for i in below})
        if cones >= 2:
            out[e] = cones
    return out


# ------------------------------------------------------------ axiom checks


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    holds: bool
    witness: object


@dataclass(frozen=True)
class AxiomReport:
    family: str
    checks: tuple
    reported: tuple  # infinite-scale axioms, shown but not gating

    @property
    def ok(self):
        return all(c.holds for c in self.checks)

    @property
    def passed(self):
        return tuple(c.name for c in self.checks if c.holds)

    @property
    def failed(self):
        return tuple((c.name, c.witness) for c in self.checks if not c.holds)

    def check(self, name):
        for c in self.checks + self.reported:
            if c.name == name:
                return c
        raise KeyError(name)


def _tuples(n, k):
    return itertools.product(range(n), repeat=k)


def _last_two_swapped(n, has, m):
    return ((a, b, c) for a, b, c in m if not has((a, c, b)))


def _dense(n, has, m):
    def strictly(a, b):
        return a != b and has((a, b))

    return itertools.chain(
        ((a, b) for a, b in _tuples(n, 2)
         if strictly(a, b) and not any(strictly(a, c) and strictly(c, b) for c in range(n))),
        ((a,) for a in range(n) if not any(strictly(a, c) for c in range(n))),
    )


# family: (arity, k, core axioms, reported-only axioms).  An axiom is its
# name and a function of (n, has, m), the domain size, membership and the
# sorted tuples, that yields its counterexamples least first; no loop
# visits more than max(len(m) * n, n**k) candidates.
_AXIOMS = {
    "semilinear": (2, 3, (
        ("reflexive", lambda n, has, m: ((a,) for a in range(n) if not has((a, a)))),
        ("antisymmetric", lambda n, has, m: (
            (a, b) for a, b in _tuples(n, 2) if a != b and has((a, b)) and has((b, a)))),
        ("transitive", lambda n, has, m: (
            (a, b, c) for a, b, c in _tuples(n, 3)
            if has((a, b)) and has((b, c)) and not has((a, c)))),
        ("upper-linear", lambda n, has, m: (
            (a, b, c) for a, b, c in _tuples(n, 3)
            if has((a, b)) and has((a, c)) and not (has((b, c)) or has((c, b))))),
        ("upper-directed", lambda n, has, m: (
            (a, b) for a, b in _tuples(n, 2)
            if not any(has((a, c)) and has((b, c)) for c in range(n)))),
    ), (
        ("dense", _dense),
    )),
    "C": (3, 3, (
        ("C1", _last_two_swapped),
        ("C2", lambda n, has, m: ((a, b, c) for a, b, c in m if has((b, a, c)))),
        ("C3", lambda n, has, m: (
            (a, b, c, d) for a, b, c in m for d in range(n)
            if not (has((a, c, d)) or has((d, b, c))))),
        ("C4", lambda n, has, m: (
            (a, b) for a, b in _tuples(n, 2) if a != b and not has((a, b, b)))),
        ("C5", lambda n, has, m: (
            (b, c) for b, c in _tuples(n, 2) if not any(has((a, b, c)) for a in range(n)))),
        ("C6", lambda n, has, m: (
            (a, b) for a, b in _tuples(n, 2)
            if a != b and not any(d != b and has((a, b, d)) for d in range(n)))),
    ), (
        ("C7", lambda n, has, m: (
            (a, b, c) for a, b, c in m
            if not any(has((a, b, d)) and has((d, b, c)) for d in range(n)))),
    )),
    "B": (3, 4, (
        ("B1", _last_two_swapped),
        ("B2", lambda n, has, m: (
            (a, b, c) for a, b, c in _tuples(n, 3)
            if (has((a, b, c)) and has((b, a, c))) != (a == b))),
        ("B3", lambda n, has, m: (
            (a, b, c, d) for a, b, c in m for d in range(n)
            if not (has((a, b, d)) or has((a, c, d))))),
        ("B4", lambda n, has, m: (
            (a, b, c, d) for a, b, c, d in _tuples(n, 4)
            if has((a, c, d)) and has((b, a, c)) and not has((b, c, d)))),
        ("B5", lambda n, has, m: (
            (a, b, c, d) for a, b, c, d in _tuples(n, 4)
            if has((a, c, d)) and has((b, c, d)) and not (has((a, b, c)) or has((b, a, c))))),
    ), (
        ("B6", lambda n, has, m: (
            (a, b, c) for a, b, c in _tuples(n, 3)
            if not has((a, b, c))
            and not any(d != a and has((d, a, b)) and has((d, a, c)) for d in range(n)))),
    )),
    "D": (4, 4, (
        ("D1", lambda n, has, m: (
            (a, b, c, d) for a, b, c, d in m
            if not (has((b, a, c, d)) and has((a, b, d, c)) and has((c, d, a, b))))),
        ("D2", lambda n, has, m: ((a, b, c, d) for a, b, c, d in m if has((a, c, b, d)))),
        ("D3", lambda n, has, m: (
            (a, b, c, d, e) for a, b, c, d in m for e in range(n)
            if not (has((a, e, c, d)) or has((a, b, c, e))))),
        ("D4", lambda n, has, m: (
            (a, b, c) for a, b, c in _tuples(n, 3)
            if len({a, b, c}) == 3 and not any(e != c and has((a, b, c, e)) for e in range(n)))),
    ), ()),
}


def check_axioms(rel, family):
    """Exhaustively evaluate the axiom list of the given family, returning
    every core axiom with its least counterexample and the infinite-scale
    axioms as a separate reported list.  Raises CapExceeded before any
    axiom runs when the widest loop would pass the element cap."""
    if family not in _AXIOMS:
        raise OutOfRange(f"unknown axiom family {family!r}")
    arity, k, core, reported = _AXIOMS[family]
    if rel.arity != arity:
        raise ArityMismatch(f"family {family} expects arity {arity}, got {rel.arity}")
    n = rel.size
    count = max(len(rel.tuples) * n, n**k)
    check_cap(count, f"the {family} axiom audit on {n} points visits {count} candidates")
    has = rel.tuples.__contains__
    members = sorted(rel.tuples)

    def audit(axioms):
        checks = []
        for name, counterexamples in axioms:
            witness = next(counterexamples(n, has, members), None)
            checks.append(AxiomCheck(name, witness is None, witness))
        return tuple(checks)

    return AxiomReport(family, audit(core), audit(reported))


# ---------------------------------------------------------------- builders


def c_from_equivalence_chain(chain):
    """The ternary relation of a refinement chain of equivalence relations:
    the focus point falls outside some class that contains the other two.
    Raises CapExceeded before the loop when the degree**3 triples it
    visits pass the element cap."""
    chain = tuple(chain)
    if not chain:
        raise NotAChain("empty chain")
    degree = chain[0].degree
    if any(p.degree != degree for p in chain):
        raise NotAChain("partitions have mixed degrees")
    ids = [p.index for p in chain]
    for lower, upper in zip(ids, ids[1:]):
        coarser = {}
        for p in range(degree):
            key = lower[p]
            if key in coarser:
                if coarser[key] != upper[p]:
                    raise NotAChain("later partitions must coarsen earlier ones")
            else:
                coarser[key] = upper[p]
    check_cap(degree**3, f"a C-relation on {degree} points visits {degree**3} candidates")
    tuples = []
    for a, b, c in itertools.product(range(degree), repeat=3):
        if any(row[b] == row[c] != row[a] for row in ids):
            tuples.append((a, b, c))
    return relation(3, degree, tuples)


@dataclass(frozen=True)
class FiniteCModel:
    functions: tuple
    chain: tuple
    relation: Relation


def finite_c_model(k, s, cap=None):
    """All functions {1..k} -> alphabet of size s, chained by agreement on
    ever-shorter tails, with the induced ternary relation."""
    if k < 1 or s < 2:
        raise OutOfRange("need k >= 1 positions and an alphabet of size s >= 2")
    count = s ** k
    check_cap(count, f"{count} functions", cap)
    functions = tuple(itertools.product(range(s), repeat=k))
    chain = []
    for level in range(k + 1):
        groups = {}
        for index, f in enumerate(functions):
            groups.setdefault(f[level:], []).append(index)
        chain.append(partition_from_blocks(count, groups.values()))
    rel = c_from_equivalence_chain(chain)
    return FiniteCModel(functions, tuple(chain), rel)


def lambda_word_model(rationals, s, cap=None):
    """Poset of words q1 u1 q2 u2 ... qt with strictly descending rationals
    and letters from an alphabet of size s - 1; a word sits below another
    when the shorter one is a block-prefix with a dominating final rational."""
    rationals = tuple(Fraction(q) for q in rationals)
    if any(a >= b for a, b in zip(rationals, rationals[1:])):
        raise NotAscending("rationals must be listed in strictly ascending order")
    if not rationals:
        raise OutOfRange("need at least one rational")
    if s < 2:
        raise OutOfRange("alphabet parameter s must be at least 2")
    m = len(rationals)
    count = 0
    for t in range(1, m + 1):
        count += math.comb(m, t) * (s - 1) ** (t - 1)
    check_cap(count**2, f"the order matrix of {count} words visits {count**2} candidates", cap)
    words = []
    for t in range(1, m + 1):
        for qs in itertools.combinations(sorted(rationals, reverse=True), t):
            for letters in itertools.product(range(s - 1), repeat=t - 1):
                word = [qs[0]]
                for u, q in zip(letters, qs[1:]):
                    word.append(u)
                    word.append(q)
                words.append(tuple(word))
    words.sort(key=lambda w: (len(w), w))
    n = len(words)
    matrix = tuple(
        tuple(_word_leq(words[i], words[j]) for j in range(n)) for i in range(n)
    )
    return FinitePoset(tuple(words), matrix)


def _word_leq(w, v):
    # v is above w when v is no longer, agrees block for block before its
    # last rational, and its last rational dominates the one w has there
    tv = (len(v) + 1) // 2
    tw = (len(w) + 1) // 2
    if tv > tw:
        return False
    head = 2 * (tv - 1)
    return w[:head] == v[:head] and w[head] <= v[head]


def word_label(word):
    letters = "uvwxyz"
    parts = []
    for position, item in enumerate(word):
        if position % 2 == 0:
            parts.append(str(item))
        else:
            parts.append(letters[item % len(letters)])
    return "".join(parts)


# ----------------------------------------------- classes around a focus point


def _equivalence_classes(domain, related, what):
    for a in domain:
        if not related(a, a):
            raise AxiomsFailed(f"{what} not reflexive at {a}")
    for a, b in itertools.combinations(domain, 2):
        if related(a, b) != related(b, a):
            raise AxiomsFailed(f"{what} not symmetric at ({a}, {b})")
    for a, b, c in itertools.product(domain, repeat=3):
        if related(a, b) and related(b, c) and not related(a, c):
            raise AxiomsFailed(f"{what} not transitive at ({a}, {b}, {c})")
    classes = []
    seen = set()
    for a in domain:
        if a in seen:
            continue
        cls = frozenset(b for b in domain if related(a, b))
        seen |= cls
        classes.append(cls)
    return tuple(classes)


def r_alpha_classes(rel, alpha):
    """Classes of the coarse relation around alpha: two points are related
    when neither separates the other from alpha."""
    has = rel.tuples.__contains__
    domain = [p for p in range(rel.size) if p != alpha]

    def related(b, c):
        return not has((b, c, alpha)) and not has((c, b, alpha))

    return _equivalence_classes(domain, related, "coarse focus relation")


def s_alpha_classes(rel, alpha):
    """Classes of the fine relation around alpha: the cone relation."""
    has = rel.tuples.__contains__
    domain = [p for p in range(rel.size) if p != alpha]

    def related(b, c):
        return has((alpha, b, c))

    return _equivalence_classes(domain, related, "fine focus relation")


def r_class_order(rel, alpha):
    """The coarse classes around alpha, sorted ascending by the separation
    order; raises if that order is not linear."""
    has = rel.tuples.__contains__
    classes = list(r_alpha_classes(rel, alpha))

    def leq(x, y):
        return not has((min(x), min(y), alpha))

    for x, y in itertools.combinations(classes, 2):
        if leq(x, y) == leq(y, x):
            raise AxiomsFailed("focus classes are not linearly ordered")
    classes.sort(key=lambda x: sum(1 for y in classes if leq(y, x)))
    return tuple(classes)


def ramification_order_of_pair(rel, alpha, beta):
    """One plus the number of fine classes inside the coarse class of beta."""
    if alpha == beta:
        raise OutOfRange("ramification order needs two distinct points")
    r_class = next(c for c in r_alpha_classes(rel, alpha) if beta in c)
    fine = [c for c in s_alpha_classes(rel, alpha) if c <= r_class]
    return 1 + len(fine)


# ------------------------------------------------------------ pair quotient


@dataclass(frozen=True)
class PairQuotient:
    relation: Relation
    pairs: tuple
    classes: tuple
    poset: FinitePoset
    node_map: tuple
    node_map_injective: bool
    report: object


def semilinear_from_c(rel):
    """Quotient the 2-subsets of a C-relation by mutual domination; the
    result is a semilinear order whose nodes collect the pairs no point
    of the pair separates.

    Requires C1-C4; the fine classes are checked to refine the coarse
    ones around every point, and the node map is computed with an
    injectivity flag (not asserted: on small models sibling points can
    share their chain of pair classes).  Raises CapExceeded before any
    loop when the C(n, 2)**3 steps of the domination's transitivity
    check pass the element cap."""
    n = rel.size
    count = math.comb(n, 2) ** 3
    check_cap(count, f"the pair quotient of a C-relation on {n} points visits {count} candidates")
    base = check_axioms(rel, "C")
    bad = [name for name, _ in base.failed if name in ("C1", "C2", "C3", "C4")]
    if bad:
        raise AxiomsFailed(f"pair quotient needs C1-C4; failing: {', '.join(bad)}")
    has = rel.tuples.__contains__
    for alpha in range(n):
        r_classes = r_alpha_classes(rel, alpha)
        for fine in s_alpha_classes(rel, alpha):
            if not any(fine <= coarse for coarse in r_classes):
                raise AxiomsFailed(
                    f"fine class {sorted(fine)} not inside a coarse class at {alpha}"
                )
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def dominated(p, q):
        (a, b), (c, d) = p, q
        return not has((a, c, d)) and not has((b, c, d))

    prec = [[dominated(p, q) for q in pairs] for p in pairs]
    for i, row in enumerate(prec):
        if not row[i]:
            raise AxiomsFailed("pair domination is not reflexive")
    count = len(pairs)
    for i in range(count):
        for j in range(count):
            if prec[i][j]:
                for k in range(count):
                    if prec[j][k] and not prec[i][k]:
                        raise AxiomsFailed("pair domination is not transitive")
    classes = []
    taken = set()
    for i in range(count):
        if i in taken:
            continue
        mates = [j for j in range(count) if prec[i][j] and prec[j][i]]
        taken.update(mates)
        classes.append(frozenset(pairs[j] for j in mates))
    classes = tuple(sorted(classes, key=min))
    where = [0] * count
    for c, cls in enumerate(classes):
        for p in cls:
            where[index[p]] = c
    matrix = [[False] * len(classes) for _ in classes]
    for i in range(count):
        for j in range(count):
            if prec[i][j]:
                matrix[where[i]][where[j]] = True
    poset = FinitePoset(classes, tuple(tuple(row) for row in matrix))
    report = check_axioms(poset_relation(poset), "semilinear")
    if not report.ok:
        raise AxiomsFailed(
            "pair quotient is not semilinear: "
            + ", ".join(name for name, _ in report.failed)
        )
    node_map = tuple(
        frozenset(where[index[tuple(sorted((alpha, beta)))]] for beta in range(n) if beta != alpha)
        for alpha in range(n)
    )
    injective = len(set(node_map)) == n
    return PairQuotient(
        rel, tuple(pairs), classes, poset, node_map, injective, report
    )


# -------------------------------------------------------- cross-derivations


@dataclass(frozen=True)
class DerivedStructure:
    relation: Relation
    report: object
    detail: tuple = ()


def b_from_poset(poset):
    """Betweenness of a semilinear order: on a path, at the join, or at a
    comparable point hanging beside an incomparable one.  Raises
    CapExceeded before the loop when its n**4 steps, which the B audit
    repeats, pass the element cap."""
    n = len(poset)
    check_cap(n**4, f"betweenness on a {n}-point order visits {n**4} candidates")
    m = poset.leq
    tuples = []
    for a, b, c in itertools.product(range(n), repeat=3):
        if (m[b][a] and m[a][c]) or (m[c][a] and m[a][b]):
            tuples.append((a, b, c))
        elif sup_index(poset, b, c) == a:
            tuples.append((a, b, c))
        elif (m[b][a] and incomparable(poset, a, c)) or (
            m[c][a] and incomparable(poset, a, b)
        ):
            tuples.append((a, b, c))
    rel = relation(3, n, tuples)
    return DerivedStructure(rel, check_axioms(rel, "B"))


def c_from_d(rel, alpha):
    """Fix one slot of a D-relation; the remaining points, relabeled in
    ascending order, carry the induced ternary relation."""
    if rel.arity != 4:
        raise ArityMismatch("expected a quaternary relation")
    if not 0 <= alpha < rel.size:
        raise PointOutOfRange(f"point {alpha + 1} outside domain")
    points = tuple(p for p in range(rel.size) if p != alpha)
    index = {p: i for i, p in enumerate(points)}
    tuples = [
        (index[b], index[c], index[d])
        for b in points
        for c in points
        for d in points
        if (alpha, b, c, d) in rel.tuples
    ]
    out = relation(3, len(points), tuples)
    return DerivedStructure(out, check_axioms(out, "C"), points)


def maximal_chains(poset):
    """All maximal totally ordered subsets, as sorted index tuples."""
    n = len(poset)
    minimal = [
        i for i in range(n) if not any(j != i and poset.leq[j][i] for j in range(n))
    ]
    covers = {}
    for i, j in hasse_edges(poset):
        covers.setdefault(i, []).append(j)
    chains = []

    def grow(path):
        nexts = covers.get(path[-1], [])
        if not nexts:
            chains.append(tuple(sorted(path)))
            return
        for j in nexts:
            grow(path + [j])

    for start in minimal:
        grow([start])
    return tuple(sorted(set(chains)))


def c_from_chains(poset):
    """Points are the maximal chains; the focus point branches away from
    the other two strictly earlier than they part from each other.  Raises
    CapExceeded before the loop when its n**3 triples of chains pass the
    element cap, as the C audit that follows would."""
    chains = maximal_chains(poset)
    sets = [frozenset(c) for c in chains]
    n = len(chains)
    check_cap(n**3, f"a C-relation on {n} chains visits {n**3} candidates")
    tuples = []
    for a, b, c in itertools.product(range(n), repeat=3):
        meet_ab = sets[a] & sets[b]
        meet_ac = sets[a] & sets[c]
        if meet_ab == meet_ac != sets[b] & sets[c]:
            tuples.append((a, b, c))
    out = relation(3, n, tuples)
    return DerivedStructure(out, check_axioms(out, "C"), chains)


# ------------------------------------------------- set families from a group


def _validate_subset(group, sigma):
    sigma = frozenset(sigma)
    for p in sigma:
        if not 0 <= p < group.degree:
            raise PointOutOfRange(f"point {p + 1} outside degree {group.degree}")
    return sigma


def set_translates(group, sigma):
    """Orbit of a point set under the group, as a sorted tuple of frozensets.
    The walk raises CapExceeded once it passes the element cap."""
    sigma = _validate_subset(group, sigma)
    walk = _item_walk(tuple(sorted(sigma)), _subset_image, group.generators, element_cap())
    return tuple(sorted(map(frozenset, walk), key=sorted))


def _family_translates(group, sigma, kind, k):
    """The translates of sigma for a builder whose loop visits n**k
    points times the translates; CapExceeded before that loop when its
    count passes the element cap."""
    translates = set_translates(group, sigma)
    n = group.degree
    count = n**k * len(translates)
    what = f"a {kind} from {len(translates)} translates on {n} points visits {count} candidates"
    check_cap(count, what)
    return translates


def preorder_from_family(group, sigma):
    """alpha lies below beta when every translate holding beta holds alpha."""
    translates = _family_translates(group, sigma, "preorder", 2)
    n = group.degree
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if all(a in t for t in translates if b in t)
    ]
    return relation(2, n, pairs)


def c_from_family(group, sigma):
    translates = _family_translates(group, sigma, "C-relation", 3)
    n = group.degree
    tuples = [
        (a, b, c)
        for a, b, c in itertools.product(range(n), repeat=3)
        if any(b in t and c in t and a not in t for t in translates)
    ]
    out = relation(3, n, tuples)
    return DerivedStructure(out, check_axioms(out, "C"), translates)


def b_from_family(group, sigma):
    translates = _family_translates(group, sigma, "B-relation", 3)
    n = group.degree
    tuples = [
        (a, b, c)
        for a, b, c in itertools.product(range(n), repeat=3)
        if all(a in t for t in translates if b in t and c in t)
    ]
    out = relation(3, n, tuples)
    return DerivedStructure(out, check_axioms(out, "B"), translates)


def d_from_family(group, sigma):
    translates = set_translates(group, sigma)
    size = len(translates[0])
    count = len(translates) ** 2 * size**4
    what = f"a D-relation from {len(translates)} translates of {size} points"
    check_cap(count, f"{what} visits {count} candidates")
    n = group.degree
    tuples = set()
    for t1, t2 in itertools.permutations(translates, 2):
        if t1 & t2:
            continue
        for a, b in itertools.product(t1, repeat=2):
            for c, d in itertools.product(t2, repeat=2):
                tuples.add((a, b, c, d))
    out = relation(4, n, tuples)
    return DerivedStructure(out, check_axioms(out, "D"), translates)


# ------------------------------------------------------ subset classification


@dataclass(frozen=True)
class SubsetProfile:
    stable: bool
    semistable: bool
    highly_atypical: bool
    separates_pairs: bool
    separates_ordered_pairs: bool
    idealistic: bool
    degenerate: bool


def classify_subset(group, sigma):
    """Translate-based flags of an invariant-subset candidate: chain
    behaviour, overlap behaviour, nesting, and pair separation."""
    sigma = _validate_subset(group, sigma)
    translates = set_translates(group, sigma)
    n = group.degree
    stable = all(sigma <= t or t <= sigma for t in translates)
    semistable = all(sigma & t for t in translates)
    highly_atypical = (
        1 < len(sigma) < n
        and all(not (t & sigma) or t <= sigma or sigma <= t for t in translates)
    )
    separates_pairs = all(
        any(len(t & {a, b}) == 1 for t in translates)
        for a, b in itertools.combinations(range(n), 2)
    )
    separates_ordered = all(
        any(a in t and b not in t for t in translates)
        for a, b in itertools.permutations(range(n), 2)
    )
    return SubsetProfile(
        stable,
        semistable,
        highly_atypical,
        separates_pairs,
        separates_ordered,
        separates_pairs and not separates_ordered,
        len(sigma) in (0, n),
    )


__all__ = [
    "FinitePoset",
    "finite_poset",
    "poset_relation",
    "incomparable",
    "sup_index",
    "has_positive_type",
    "hasse_edges",
    "poset_dot",
    "ramification_indices",
    "AxiomCheck",
    "AxiomReport",
    "AXIOM_FAMILIES",
    "check_axioms",
    "c_from_equivalence_chain",
    "FiniteCModel",
    "finite_c_model",
    "lambda_word_model",
    "word_label",
    "r_alpha_classes",
    "s_alpha_classes",
    "r_class_order",
    "ramification_order_of_pair",
    "PairQuotient",
    "semilinear_from_c",
    "DerivedStructure",
    "b_from_poset",
    "c_from_d",
    "maximal_chains",
    "c_from_chains",
    "set_translates",
    "preorder_from_family",
    "c_from_family",
    "b_from_family",
    "d_from_family",
    "SubsetProfile",
    "classify_subset",
]
