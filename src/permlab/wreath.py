"""Wreath products: standard imprimitive form, the morphism-twisted
variation, the generalized product over a finite poset, iterated towers,
and the block-system embedding.

Product domains are linearized little-endian: with components listed
C_0, C_1, ..., a point of the product is sum(gamma_i * radix_i) where
radix_i multiplies the sizes of all earlier components.  The last listed
component is the most significant, so for the two-factor product on
Gamma x Delta the point index is delta*|Gamma| + gamma.  The one export,
``wreath --format json``, records this in its ``indexing`` field so
outside tools can reproduce it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .blocks import Partition, is_congruence, partition_from_blocks
from .config import check_cap
from .errors import NotACongruence, NotAMorphism
from .groups import (
    GenGroup,
    enumerate_elements,
    is_transitive,
    order,
    setwise_stabilizer,
)
from .perms import Permutation, inverse


@dataclass(frozen=True)
class ProductDomain:
    """Mixed-radix indexing of a product of finite domains."""

    sizes: tuple[int, ...]

    @property
    def total(self) -> int:
        product = 1
        for size in self.sizes:
            product *= size
        return product

    def to_point(self, coords: tuple[int, ...]) -> int:
        point = 0
        radix = 1
        for coord, size in zip(coords, self.sizes):
            point += coord * radix
            radix *= size
        return point

    def to_coords(self, point: int) -> tuple[int, ...]:
        coords = []
        for size in self.sizes:
            coords.append(point % size)
            point //= size
        return tuple(coords)

    def points(self):
        return range(self.total)


def fiber_partition(a_degree: int, b_degree: int) -> Partition:
    """Blocks of the two-factor product domain sharing the top coordinate."""
    domain = ProductDomain((a_degree, b_degree))
    classes = [
        [domain.to_point((gamma, delta)) for gamma in range(a_degree)]
        for delta in range(b_degree)
    ]
    return partition_from_blocks(domain.total, classes)


def wreath(a: GenGroup, b: GenGroup) -> GenGroup:
    """Imprimitive wreath product acting on the product of the two domains.

    Generators: one copy of each bottom generator per top point (moving one
    fiber), then the top generators permuting fibers wholesale.  A point
    (gamma, delta) moves to (gamma f(delta), delta b).  This is
    wreath_variation1 with both top actions b and the identity for pi.
    """
    return wreath_variation1(a, b, b, tuple(range(b.degree)))


def wreath_variation1(
    a: GenGroup, b_on_delta: GenGroup, b_on_phi: GenGroup, pi: tuple[int, ...]
) -> GenGroup:
    """Wreath action twisted through an equivariant map of top domains.

    The base functions live on the second top domain Phi; a point
    (gamma, delta) moves to (gamma f(pi(delta)), delta b).  The two top
    actions share a generator list and pi must commute with it, generator
    by generator.
    """
    if len(b_on_delta.generators) != len(b_on_phi.generators):
        raise NotAMorphism("the two top actions need parallel generator lists")
    if len(pi) != b_on_delta.degree:
        raise NotAMorphism("pi must be defined on every top point")
    for t_delta, t_phi in zip(b_on_delta.generators, b_on_phi.generators):
        for delta in range(b_on_delta.degree):
            if pi[t_delta.images[delta]] != t_phi.images[pi[delta]]:
                raise NotAMorphism("pi does not commute with the top action")
    domain = ProductDomain((a.degree, b_on_delta.degree))
    check_cap(domain.total, f"product domain of size {domain.total}")
    generators: list[Permutation] = []
    for phi in range(b_on_phi.degree):
        for s in a.generators:
            images = list(range(domain.total))
            for delta in range(b_on_delta.degree):
                if pi[delta] != phi:
                    continue
                for gamma in range(a.degree):
                    images[domain.to_point((gamma, delta))] = domain.to_point(
                        (s.images[gamma], delta)
                    )
            generators.append(Permutation(tuple(images)))
    for t in b_on_delta.generators:
        images = list(range(domain.total))
        for delta in range(b_on_delta.degree):
            for gamma in range(a.degree):
                images[domain.to_point((gamma, delta))] = domain.to_point(
                    (gamma, t.images[delta])
                )
        generators.append(Permutation(tuple(images)))
    return GenGroup(domain.total, tuple(generators))


@dataclass(frozen=True)
class PosetIndex:
    """A finite partial order on elements 0..size-1, as a leq matrix."""

    size: int
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        r = self.size
        if len(self.leq) != r or any(len(row) != r for row in self.leq):
            raise ValueError("leq must be a size x size matrix")
        for i in range(r):
            if not self.leq[i][i]:
                raise ValueError("leq must be reflexive")
            for j in range(r):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ValueError("leq must be antisymmetric")
                for k in range(r):
                    if self.leq[i][j] and self.leq[j][k] and not self.leq[i][k]:
                        raise ValueError("leq must be transitive")

    def strictly_above(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.size) if j != i and self.leq[i][j])


def chain_poset(size: int) -> PosetIndex:
    return PosetIndex(
        size, tuple(tuple(i <= j for j in range(size)) for i in range(size))
    )


def antichain_poset(size: int) -> PosetIndex:
    return PosetIndex(
        size, tuple(tuple(i == j for j in range(size)) for i in range(size))
    )


def generalized_wreath(poset: PosetIndex, components: tuple[GenGroup, ...]) -> GenGroup:
    """Wreath product over a finite poset.

    Coordinate i is rewritten by a component element chosen as a function
    of the coordinates strictly above i in the poset.  Generators: for
    each component i, each of its generators, and each assignment of the
    coordinates above i, the permutation applying that generator exactly
    where the assignment matches.  A chain gives the iterated wreath
    product, an antichain the direct product.

    Base points (point 0 of each component) are recorded for export; with
    full finite supports they do not constrain the group.
    """
    if len(components) != poset.size:
        raise ValueError("one component per poset element")
    domain = ProductDomain(tuple(c.degree for c in components))
    check_cap(domain.total, f"product domain of size {domain.total}")
    generators: list[Permutation] = []
    for i, component in enumerate(components):
        above = poset.strictly_above(i)
        above_sizes = [components[j].degree for j in above]
        for s in component.generators:
            for assignment in itertools.product(*(range(k) for k in above_sizes)):
                images = list(range(domain.total))
                for point in domain.points():
                    coords = domain.to_coords(point)
                    if all(
                        coords[j] == value for j, value in zip(above, assignment)
                    ):
                        moved = list(coords)
                        moved[i] = s.images[coords[i]]
                        images[point] = domain.to_point(tuple(moved))
                generators.append(Permutation(tuple(images)))
    return GenGroup(domain.total, tuple(generators))


def wreath_tower(chain: tuple[GenGroup, ...]) -> GenGroup:
    """Left-nested iterated wreath product of a chain of groups."""
    if not chain:
        raise ValueError("need at least one group")
    tower = chain[0]
    for top in chain[1:]:
        tower = wreath(tower, top)
    return tower


# embedding a group with a congruence into a wreath product


@dataclass(frozen=True)
class EmbeddingReport:
    group_order: int
    wreath_order: int
    index: int
    injective: bool
    compatible: bool
    block_size: int
    block_count: int


def imprimitive_embedding(
    group: GenGroup, rho: Partition
) -> tuple[dict[int, int], dict[Permutation, Permutation], EmbeddingReport]:
    """Embed a transitive group with a proper congruence into a wreath product.

    Returns (phi, psi, report): phi maps each original point to its product
    index, psi maps each group element to the corresponding wreath element,
    and the report carries the order bookkeeping.  phi uses the BFS-least
    transversal; compatibility ((omega g) phi = (omega phi)(g psi)) is
    verified for every point/generator pair, and psi for injectivity on the
    full enumeration.  The wreath product's order is read off its
    stabilizer chain, so the product itself is never enumerated; it still
    raises CapExceeded when that order passes the cap.
    """
    if not is_congruence(rho, group):
        raise NotACongruence("rho is not preserved by the group")
    if rho.is_discrete or rho.is_universal:
        raise NotACongruence("the embedding needs a proper nontrivial congruence")
    if not is_transitive(group):
        raise NotACongruence("the embedding needs a transitive group")
    blocks = rho.blocks
    block_of = rho.index
    base_block = blocks[0]
    position_in_base = {point: i for i, point in enumerate(base_block)}

    # BFS-least transversal: first enumerated element carrying the base
    # block onto each block
    elements = enumerate_elements(group)
    transversal: dict[int, Permutation] = {}
    for g in elements:
        target = block_of[g.images[base_block[0]]]
        if target not in transversal:
            transversal[target] = g
        if len(transversal) == len(blocks):
            break

    # bottom group: setwise stabilizer of the base block, restricted
    setwise = setwise_stabilizer(group, base_block)
    bottom_generators = tuple(
        Permutation(
            tuple(position_in_base[s.images[point]] for point in base_block)
        )
        for s in setwise.generators
    )
    bottom = GenGroup(len(base_block), bottom_generators)

    # top group: induced action on the blocks
    top_generators = tuple(
        Permutation(tuple(block_of[g.images[block[0]]] for block in blocks))
        for g in group.generators
    )
    top = GenGroup(len(blocks), top_generators)

    w = wreath(bottom, top)
    domain = ProductDomain((bottom.degree, top.degree))

    # images of each transversal element's inverse and the product point
    # fiber[delta][gamma] of (gamma, delta), computed once
    back = {delta: inverse(t).images for delta, t in transversal.items()}
    fiber = [
        [domain.to_point((gamma, delta)) for gamma in range(bottom.degree)]
        for delta in range(top.degree)
    ]

    phi = {}
    for point in range(group.degree):
        delta = block_of[point]
        phi[point] = fiber[delta][position_in_base[back[delta][point]]]

    def psi_of(g: Permutation) -> Permutation:
        # the fiber over delta is transversal[delta], then g, then the
        # inverse of the transversal element of the block g moves delta to
        images = list(range(domain.total))
        for delta in range(top.degree):
            delta_moved = block_of[g.images[blocks[delta][0]]]
            forth, pulled = transversal[delta].images, back[delta_moved]
            source, target = fiber[delta], fiber[delta_moved]
            for gamma, point in enumerate(base_block):
                images[source[gamma]] = target[
                    position_in_base[pulled[g.images[forth[point]]]]
                ]
        return Permutation(tuple(images))

    psi = {g: psi_of(g) for g in elements}
    injective = len(set(psi.values())) == len(elements)
    compatible = all(
        phi[g.images[point]] == psi[g].images[phi[point]]
        for g in group.generators
        for point in range(group.degree)
    )
    wreath_order = order(w)
    report = EmbeddingReport(
        group_order=len(elements),
        wreath_order=wreath_order,
        index=wreath_order // len(elements) if injective else 0,
        injective=injective,
        compatible=compatible,
        block_size=len(base_block),
        block_count=len(blocks),
    )
    return phi, psi, report
