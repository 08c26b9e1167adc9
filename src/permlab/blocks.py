"""Blocks, congruences, primitivity, suborbits, orbital graphs.

Primitivity is decided by two independent algorithms that are always run
together and must agree: route A looks for a proper minimal congruence,
route B checks weak connectivity of every non-diagonal orbital graph.
The almost-regular decomposition at the bottom splits a transitive group
along the orbit partition of a canonically chosen normal subgroup; that
subgroup is trivial for every finite group, so only the suborbits and the
first minimum base are computed, and the rest follows by identity.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .config import check_cap
from .errors import (
    AxiomsFailed,
    DiagonalOrbital,
    NotTransitive,
    OutOfRange,
    PermlabError,
    PointOutOfRange,
    TooSmall,
)
from .groups import (
    GenGroup,
    _bounded_cache,
    _item_walk,
    _pointwise_stabilizer,
    element_set,
    enumerate_elements,
    is_transitive,
    orbit,
    orbits,
    order,
    point_stabilizer,
    subgroup_from_elements,
)
from .perms import Permutation, compose, conjugate, identity, inverse


@dataclass(frozen=True)
class Partition:
    """Partition of {0..degree-1}; blocks sorted by least point.

    index[p] is the position in blocks of the class holding p, built once
    when the partition is made; a point outside 0..degree-1 raises
    PointOutOfRange, and a point in two classes or in none OutOfRange.
    """

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = [-1] * self.degree
        for position, block in enumerate(self.blocks):
            for p in block:
                if not 0 <= p < self.degree:
                    raise PointOutOfRange(f"point {p} outside 0..{self.degree - 1}")
                if index[p] != -1:
                    raise OutOfRange(f"point {p} lies in two classes")
                index[p] = position
        if -1 in index:
            raise OutOfRange(f"point {index.index(-1)} lies in no class")
        object.__setattr__(self, "index", tuple(index))

    def block_of(self, point: int) -> int:
        if not 0 <= point < self.degree:
            raise PointOutOfRange(f"point {point} outside 0..{self.degree - 1}")
        return self.index[point]

    def class_of(self, point: int) -> tuple[int, ...]:
        return self.blocks[self.block_of(point)]

    def same(self, a: int, b: int) -> bool:
        return self.block_of(a) == self.block_of(b)

    @property
    def is_discrete(self) -> bool:
        return len(self.blocks) == self.degree

    @property
    def is_universal(self) -> bool:
        return len(self.blocks) == 1


def _partition_from_parents(degree: int, find) -> Partition:
    classes: dict[int, list[int]] = {}
    for point in range(degree):
        classes.setdefault(find(point), []).append(point)
    return partition_from_blocks(degree, classes.values())


def partition_from_blocks(degree: int, classes) -> Partition:
    """Public constructor: canonicalize arbitrary class iterables (an
    empty class is dropped)."""
    blocks = sorted((tuple(sorted(c)) for c in classes if c), key=lambda b: b[0])
    return Partition(degree, tuple(blocks))


def discrete_partition(group: GenGroup) -> Partition:
    return partition_from_blocks(group.degree, ([p] for p in range(group.degree)))


def universal_partition(group: GenGroup) -> Partition:
    return partition_from_blocks(group.degree, [range(group.degree)])


def is_congruence(partition: Partition, group: GenGroup) -> bool:
    """True when the partition is of the group's points and every
    generator maps every block onto a block."""
    index = partition.index
    return partition.degree == group.degree and all(
        len({index[g.images[p]] for p in block}) == 1
        for g in group.generators
        for block in partition.blocks
    )


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[max(rx, ry)] = min(rx, ry)
        return True


@_bounded_cache
def minimal_congruence_identifying(
    group: GenGroup, alpha: int, beta: int
) -> Partition:
    """Finest congruence putting alpha and beta in one class.

    Union-find refinement: merging two points forces the merge of their
    images under every generator; the queue propagates until stable.
    """
    if not is_transitive(group):
        raise NotTransitive("congruences are tracked for transitive actions only")
    uf = _UnionFind(group.degree)
    pending = deque()
    if uf.union(alpha, beta):
        pending.append((alpha, beta))
    while pending:
        x, y = pending.popleft()
        for g in group.generators:
            xg, yg = g.images[x], g.images[y]
            if uf.union(xg, yg):
                pending.append((xg, yg))
    return _partition_from_parents(group.degree, uf.find)


def partition_join(a: Partition, b: Partition) -> Partition:
    """Finest partition coarser than both."""
    uf = _UnionFind(a.degree)
    for block in a.blocks + b.blocks:
        for point in block[1:]:
            uf.union(block[0], point)
    return _partition_from_parents(a.degree, uf.find)


def congruences(group: GenGroup) -> tuple[Partition, ...]:
    """Every congruence of a transitive group.

    A congruence is determined by the class of the base point, and that
    class is reached by joining minimal congruences, so closing the
    minimal ones (plus the discrete partition) under pairwise join is
    exhaustive.
    """
    if not is_transitive(group):
        raise NotTransitive("congruences are tracked for transitive actions only")
    found: dict[tuple, Partition] = {}
    start = [discrete_partition(group)] + [
        minimal_congruence_identifying(group, 0, beta)
        for beta in range(1, group.degree)
    ]
    for partition in start:
        found[partition.blocks] = partition
    fresh = list(found.values())
    while fresh:
        additions = []
        for a in fresh:
            for b in list(found.values()):
                joined = partition_join(a, b)
                if joined.blocks not in found:
                    found[joined.blocks] = joined
                    additions.append(joined)
        fresh = additions
    return tuple(
        sorted(found.values(), key=lambda p: (len(p.blocks), p.blocks))
    )


# primitivity, two ways


def _primitive_route_blocks(group: GenGroup) -> bool:
    return all(
        minimal_congruence_identifying(group, 0, beta).is_universal
        for beta in range(1, group.degree)
    )


def _primitive_route_orbital_graphs(group: GenGroup) -> bool:
    for orb in orbitals(group, 0):
        if orb.representative[0] == orb.representative[1]:
            continue
        if not _weakly_connected(group.degree, orb.pairs):
            return False
    return True


def is_primitive(group: GenGroup) -> bool:
    """Primitivity via blocks and via orbital-graph connectivity, cross-checked."""
    if group.degree < 2:
        raise TooSmall("primitivity needs at least 2 points")
    if not is_transitive(group):
        raise NotTransitive("primitivity is defined for transitive actions")
    route_a = _primitive_route_blocks(group)
    route_b = _primitive_route_orbital_graphs(group)
    if route_a != route_b:
        raise PermlabError(
            f"primitivity routes disagree: blocks={route_a} graphs={route_b}"
        )
    return route_a


# suborbits and orbitals


@dataclass(frozen=True)
class Orbital:
    """A group orbit on ordered pairs of points."""

    group: GenGroup
    representative: tuple[int, int]
    pairs: frozenset[tuple[int, int]]

    @property
    def is_diagonal(self) -> bool:
        return self.representative[0] == self.representative[1]


def _pair_image(pair: tuple[int, int], g: Permutation) -> tuple[int, int]:
    return g.images[pair[0]], g.images[pair[1]]


def _pair_orbit(group: GenGroup, pair: tuple[int, int]) -> frozenset[tuple[int, int]]:
    return frozenset(_item_walk(pair, _pair_image, group.generators, group.degree**2))


@dataclass(frozen=True)
class Suborbits:
    """Orbits of a point stabilizer, the trivial one first, with pairing.

    pairing[i] = j means the orbital over suborbit i reverses onto the
    orbital over suborbit j (computed through a transversal witness: any g
    carrying the representative back to the base point sends the base
    point into the paired suborbit).
    """

    group: GenGroup
    base: int
    sets: tuple[tuple[int, ...], ...]
    pairing: tuple[int, ...]

    @property
    def subdegrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)


@_bounded_cache
def suborbits(group: GenGroup, alpha: int) -> Suborbits:
    if not is_transitive(group):
        raise NotTransitive("suborbits are tracked for transitive actions")
    stab = point_stabilizer(group, alpha)
    sets = list(orbits(stab))
    sets.sort(key=lambda s: (alpha not in s, s[0]))
    index_of_point = {}
    for index, suborbit in enumerate(sets):
        for point in suborbit:
            index_of_point[point] = index
    table = orbit(group, alpha)
    pairing = []
    for suborbit in sets:
        gamma = suborbit[0]
        # any g with (gamma)g = alpha sends alpha into the paired suborbit
        g = inverse(table.transversal_element(gamma))
        pairing.append(index_of_point[g.images[alpha]])
    return Suborbits(group, alpha, tuple(sets), tuple(pairing))


def orbitals(group: GenGroup, alpha: int) -> tuple[Orbital, ...]:
    """One orbital per suborbit, the diagonal one first."""
    table = suborbits(group, alpha)
    out = []
    for suborbit in table.sets:
        pair = (alpha, suborbit[0])
        out.append(Orbital(group, pair, _pair_orbit(group, pair)))
    return tuple(out)


@dataclass(frozen=True)
class SubdegreeReport:
    subdegrees: tuple[int, ...]
    paired_sizes_equal: bool
    index_identity_holds: bool


def subdegree_check(group: GenGroup) -> SubdegreeReport:
    """Sorted subdegrees; each suborbit as large as its pair and as large
    as the index of the two-point stabilizer in the one-point stabilizer."""
    table = suborbits(group, 0)
    paired_ok = all(
        len(table.sets[i]) == len(table.sets[j]) for i, j in enumerate(table.pairing)
    )
    stab = point_stabilizer(group, 0)
    stab_order = order(stab)
    index_ok = True
    for suborbit in table.sets:
        beta = suborbit[0]
        two_point = order(point_stabilizer(stab, beta))
        if len(suborbit) != stab_order // two_point:
            index_ok = False
    return SubdegreeReport(tuple(sorted(table.subdegrees)), paired_ok, index_ok)


# orbital graphs


def _weakly_connected(degree: int, pairs: frozenset[tuple[int, int]]) -> bool:
    uf = _UnionFind(degree)
    for a, b in pairs:
        uf.union(a, b)
    return len({uf.find(p) for p in range(degree)}) == 1


@dataclass(frozen=True)
class OrbitalGraphReport:
    orbital: Orbital
    dot: str
    weakly_connected: bool
    valency: int
    sphere_sizes: tuple[int, ...]


def orbital_graph(group: GenGroup, orb: Orbital) -> OrbitalGraphReport:
    """DOT export, weak connectivity, and sphere sizes from the base point.

    Sphere d collects points at undirected distance d.  With v the number
    of undirected neighbors of the base point, |sphere d| <= v(v-1)^d
    whenever v >= 2; a matching (v = 1) has one-point spheres instead.
    """
    if orb.is_diagonal:
        raise DiagonalOrbital("the diagonal orbital has no graph")
    lines = ["digraph orbital {"]
    for point in range(group.degree):
        lines.append(f"  {point + 1};")
    for a, b in sorted(orb.pairs):
        lines.append(f"  {a + 1} -> {b + 1};")
    lines.append("}")
    adjacency: dict[int, set[int]] = {p: set() for p in range(group.degree)}
    for a, b in orb.pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    alpha = orb.representative[0]
    valency = len(adjacency[alpha])
    distances = {alpha: 0}
    queue = deque([alpha])
    while queue:
        current = queue.popleft()
        for nxt in adjacency[current]:
            if nxt not in distances:
                distances[nxt] = distances[current] + 1
                queue.append(nxt)
    sizes: list[int] = []
    for point, d in distances.items():
        while len(sizes) <= d:
            sizes.append(0)
        sizes[d] += 1
    for d, size in enumerate(sizes):
        if d == 0:
            continue
        bound = valency * (valency - 1) ** d if valency >= 2 else 1
        if size > bound:
            raise AxiomsFailed(f"sphere {d} has {size} points, above the bound {bound}")
    return OrbitalGraphReport(
        orb, "\n".join(lines), _weakly_connected(group.degree, orb.pairs),
        valency, tuple(sizes),
    )


# semiblocks


def semiblocks(
    group: GenGroup, alpha: int, cap: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All semiblocks at alpha: sets containing alpha where any translate
    that meets alpha at all lands inside the set.

    Such a set is invariant under the point stabilizer, hence a union of
    suborbits containing the trivial one; the scan runs over exactly those
    unions, each against every element, and raises CapExceeded before it
    starts when that count passes the element cap.
    """
    if not is_transitive(group):
        raise NotTransitive("semiblocks are tracked for transitive actions")
    table = suborbits(group, alpha)
    others = [s for s in table.sets if alpha not in s]
    count = (1 << len(others)) * order(group, cap)
    check_cap(count, f"the semiblock scan on {group.degree} points visits {count} candidates", cap)
    elements = enumerate_elements(group, cap)
    found = []
    for take in range(1 << len(others)):
        candidate = {alpha}
        for bit, suborbit in enumerate(others):
            if take >> bit & 1:
                candidate.update(suborbit)
        good = True
        for g in elements:
            if g.images[alpha] in candidate:
                if any(g.images[p] not in candidate for p in candidate):
                    good = False
                    break
        if good:
            found.append(tuple(sorted(candidate)))
    found.sort(key=lambda s: (len(s), s))
    return tuple(found)


def is_strongly_primitive(group: GenGroup, cap: int | None = None) -> bool:
    """Only the singleton and the whole domain are semiblocks at the base."""
    if group.degree < 2:
        raise TooSmall("strong primitivity needs at least 2 points")
    found = semiblocks(group, 0, cap)
    return all(len(s) in (1, group.degree) for s in found)


# congruence / overgroup correspondence


def _overgroups_of_point_stabilizer(
    group: GenGroup, alpha: int, cap: int | None = None
) -> tuple[frozenset[Permutation], ...]:
    """Every subgroup between the point stabilizer and the whole group.

    Breadth-first growth: adjoin one outside element at a time and close;
    every intermediate subgroup is reached this way.
    """
    whole = enumerate_elements(group, cap)
    base = point_stabilizer(group, alpha)
    base_members = frozenset(element_set(base, cap))
    found: dict[frozenset[Permutation], tuple[Permutation, ...]] = {
        base_members: base.generators
    }
    queue = deque([(base_members, base.generators)])
    while queue:
        members, generators = queue.popleft()
        if len(members) == len(whole):
            continue
        for g in whole:
            if g in members:
                continue
            grown_generators = generators + (g,)
            grown = frozenset(
                element_set(GenGroup(group.degree, grown_generators), cap)
            )
            if grown not in found:
                found[grown] = grown_generators
                queue.append((grown, grown_generators))
    return tuple(sorted(found, key=lambda s: (len(s), sorted(f.images for f in s))))


@dataclass(frozen=True)
class CorrespondenceReport:
    congruence_count: int
    overgroup_count: int
    mutually_inverse: bool
    order_preserving: bool


def congruence_subgroup_correspondence(
    group: GenGroup, alpha: int, cap: int | None = None
) -> CorrespondenceReport:
    """Audit the lattice bijection between congruences and overgroups.

    One direction sends a congruence to the stabilizer of the base class;
    the other sends an overgroup H to the partition into orbits of the
    translates of (alpha)H.  Both lattices are enumerated independently,
    then the maps are checked to be mutually inverse and order-preserving.
    """
    if not is_transitive(group):
        raise NotTransitive("the correspondence needs a transitive action")
    rhos = congruences(group)
    overgroups = _overgroups_of_point_stabilizer(group, alpha, cap)
    elements = enumerate_elements(group, cap)

    def h_of(rho: Partition) -> frozenset[Permutation]:
        wanted = set(rho.class_of(alpha))
        return frozenset(g for g in elements if g.images[alpha] in wanted)

    def gamma_of(members: frozenset[Permutation]) -> frozenset[int]:
        return frozenset(g.images[alpha] for g in members)

    overgroup_set = set(overgroups)
    inverse_ok = len(rhos) == len(overgroups)
    for rho in rhos:
        h = h_of(rho)
        if h not in overgroup_set:
            inverse_ok = False
            break
        if gamma_of(h) != set(rho.class_of(alpha)):
            inverse_ok = False
            break
    if inverse_ok:
        class_to_rho = {frozenset(r.class_of(alpha)): r for r in rhos}
        for members in overgroups:
            rho = class_to_rho.get(gamma_of(members))
            if rho is None or h_of(rho) != members:
                inverse_ok = False
                break
    order_ok = True
    if inverse_ok:
        for r1, r2 in itertools.product(rhos, repeat=2):
            refines = all(
                r2.same(block[0], point) for block in r1.blocks for point in block
            )
            if refines != (h_of(r1) <= h_of(r2)):
                order_ok = False
    return CorrespondenceReport(len(rhos), len(overgroups), inverse_ok, order_ok)


# almost-regular decomposition


@dataclass(frozen=True)
class AlmostRegularDecomposition:
    m: int
    phi: tuple[int, ...]
    m0: int
    n_generators: tuple[Permutation, ...]
    rho: Partition
    quotient_stab_order: int
    almost_regular: bool


def _first_base(group: GenGroup) -> tuple[int, ...]:
    """The first non-empty Phi, by size then lex order, with trivial G_(Phi).

    A minimum base holds no point that the stabilizer of its earlier
    points already fixes (dropping that point leaves a smaller base), so
    the search skips such points after a non-empty prefix.  Each point
    added divides the stabilizer's order by at most its longest orbit L,
    so a prefix whose stabilizer's order passes L^r, with r points still
    to add, is cut.
    """
    n = group.degree

    def search(prefix: tuple[int, ...], size: int) -> tuple[int, ...] | None:
        stab, stab_order = _pointwise_stabilizer(group, prefix)
        left = size - len(prefix)
        if stab_order > max(map(len, orbits(stab))) ** left:
            return None
        if not left:
            return prefix
        for p in range(prefix[-1] + 1 if prefix else 0, n - size + len(prefix) + 1):
            if prefix and all(g.images[p] == p for g in stab.generators):
                continue
            found = search(prefix + (p,), size)
            if found:
                return found
        return None

    # some size reaches a minimum base, which holds no skipped point
    return next(filter(None, (search((), size) for size in range(1, n + 1))))


def almost_regular_decomposition(
    group: GenGroup, cap: int | None = None
) -> AlmostRegularDecomposition:
    """Split a transitive group along a canonical normal subgroup N.

    m is the largest subdegree.  Over non-empty point sets Phi, m(Phi) is
    the largest orbit length of the pointwise stabilizer G_(Phi); the
    minimum m0 is 1, reached exactly by the bases, and phi is the first
    base by size then lex order.  N is G_(U) for U the points in the
    orbits of length m0 of G_(phi); rho is the orbit partition of N, and
    quotient_stab_order is the order of G's action on the classes of rho
    over their number.

    The decomposition is degenerate for every finite group: phi is a
    base, so G_(phi) is trivial, U is every point, N is trivial, rho is
    discrete and quotient_stab_order is |G| / n = |G_0|.  Those fields
    are returned by these identities; the suborbits, m, the order under
    the cap and the base search (from stabilizer chains, with no element
    listed) are what is computed.
    """
    if not is_transitive(group):
        raise NotTransitive("the decomposition needs a transitive action")
    table = suborbits(group, 0)
    m = max(table.subdegrees)
    size = order(group, cap)
    return AlmostRegularDecomposition(
        m=m,
        phi=_first_base(group),
        m0=1,
        n_generators=(),
        rho=discrete_partition(group),
        quotient_stab_order=size // group.degree,
        almost_regular=True,
    )


# normal subgroup audit


def _conjugacy_classes(group: GenGroup, cap: int | None) -> tuple[tuple[Permutation, ...], ...]:
    elements = enumerate_elements(group, cap)
    seen: set[Permutation] = set()
    classes = []
    for x in sorted(elements, key=lambda f: f.images):
        if x in seen:
            continue
        cls = list(_item_walk(x, conjugate, group.generators, len(elements)))
        seen.update(cls)
        classes.append(tuple(sorted(cls, key=lambda f: f.images)))
    return tuple(classes)


def _normal_closure(
    group: GenGroup, seeds: tuple[Permutation, ...], cap: int | None
) -> frozenset[Permutation]:
    generators = list(seeds)
    while True:
        sub = subgroup_from_elements(
            tuple(enumerate_elements(GenGroup(group.degree, tuple(generators)), cap)),
            group.degree,
        )
        members = element_set(sub, cap)
        grown = False
        for g in group.generators:
            for s in sub.generators:
                moved = conjugate(s, g)
                if moved not in members:
                    generators.append(moved)
                    grown = True
        if not grown:
            return frozenset(members)


@dataclass(frozen=True)
class NormalAudit:
    normal_orders: tuple[int, ...]
    primitive: bool
    nontrivial_all_transitive: bool | None
    abelian_all_regular: bool | None
    small_subdegree_dichotomy: bool | None


def normal_subgroup_audit(group: GenGroup, cap: int | None = None) -> NormalAudit:
    """Sample the normal subgroup lattice and check the structure laws.

    Normal subgroups are produced as normal closures of up to 3 conjugacy
    class representatives.  For a primitive group every nontrivial one
    must be transitive and every abelian one regular; when all subdegrees
    are at most 2, either the point stabilizer has order at most 2 or
    some congruence has classes of size at most 2.
    """
    if not is_transitive(group):
        raise NotTransitive("the audit needs a transitive action")
    classes = _conjugacy_classes(group, cap)
    reps = [cls[0] for cls in classes if cls[0] != identity(group.degree)]
    found: set[frozenset[Permutation]] = {frozenset([identity(group.degree)])}
    for count in range(1, min(3, len(reps)) + 1):
        for combo in itertools.combinations(reps, count):
            found.add(_normal_closure(group, combo, cap))
    subgroups = sorted(found, key=len)
    primitive = group.degree >= 2 and is_primitive(group)
    nontrivial_transitive = None
    abelian_regular = None
    if primitive:
        nontrivial_transitive = True
        abelian_regular = True
        for members in subgroups:
            if len(members) == 1:
                continue
            sub = subgroup_from_elements(tuple(sorted(members, key=lambda f: f.images)), group.degree)
            if not is_transitive(sub):
                nontrivial_transitive = False
            abelian = all(
                compose(a, b) == compose(b, a)
                for a in sub.generators
                for b in sub.generators
            )
            if abelian and len(members) != group.degree:
                abelian_regular = False
    dichotomy = None
    table = suborbits(group, 0)
    if max(table.subdegrees) <= 2:
        stab_small = order(point_stabilizer(group, 0)) <= 2
        rho_small = any(
            not rho.is_discrete and max(len(b) for b in rho.blocks) <= 2
            for rho in congruences(group)
        )
        dichotomy = stab_small or rho_small
    return NormalAudit(
        tuple(len(s) for s in subgroups),
        primitive,
        nontrivial_transitive,
        abelian_regular,
        dichotomy,
    )
