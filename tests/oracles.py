"""Brute-force reference implementations, independent of the library code.

Everything here favors the dumbest correct algorithm: fixpoint loops over
sets, scans over the whole symmetric group, itertools catalogs.  Tests
freeze values produced by these oracles and cross-check library outputs
against them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from fractions import Fraction

from permlab.perms import Permutation
from permlab.trees import AxiomCheck


def sym(n: int) -> list[Permutation]:
    """Every element of Sym(n), lexicographic by image tuple."""
    return [Permutation(images) for images in itertools.permutations(range(n))]


def apply_word(point: int, word: list[Permutation]) -> int:
    for f in word:
        point = f.images[point]
    return point


def mul(f: Permutation, g: Permutation) -> Permutation:
    """Pointwise left-to-right product, built through a dict on purpose."""
    table = {p: g.images[f.images[p]] for p in range(f.degree)}
    return Permutation(tuple(table[p] for p in range(f.degree)))


def inv(f: Permutation) -> Permutation:
    return Permutation(tuple(sorted(range(f.degree), key=lambda p: f.images[p])))


def conj(f: Permutation, h: Permutation) -> Permutation:
    """h^-1 f h via the oracle's own mul/inv."""
    return mul(mul(inv(h), f), h)


def brute_conjugator(f: Permutation, g: Permutation) -> Permutation | None:
    """Scan all of Sym(n) for h with h^-1 f h = g."""
    for h in sym(f.degree):
        if conj(f, h) == g:
            return h
    return None


def centralizer(generators: list[Permutation], degree: int) -> set[Permutation]:
    """Every element of Sym(degree) commuting with each generator."""
    return {
        f for f in sym(degree) if all(mul(f, s) == mul(s, f) for s in generators)
    }


def normal_subgroups(elements: set[Permutation]) -> set[frozenset[Permutation]]:
    """All normal subgroups: the normal closures of single elements, then
    their products until no new one appears."""
    found = {frozenset(closure(sorted({conj(f, x) for x in elements}))) for f in elements}
    while True:
        fresh = {frozenset(closure(sorted(a | b))) for a in found for b in found}
        if fresh <= found:
            return found
        found |= fresh


def overgroups(
    elements: set[Permutation], h_members: set[Permutation]
) -> set[frozenset[Permutation]]:
    """Every subgroup K with H <= K <= G, grown from H one element at a time."""
    start = frozenset(h_members)
    found = {start}
    frontier = [start]
    while frontier:
        k = frontier.pop()
        for x in elements - k:
            bigger = frozenset(closure(sorted(k | {x})))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return found


def closure(generators: list[Permutation]) -> set[Permutation]:
    """Subgroup closure by a product fixpoint loop (not a word BFS)."""
    if not generators:
        raise ValueError("need at least one generator to know the degree")
    elements = {Permutation(tuple(range(generators[0].degree)))}
    elements.update(generators)
    while True:
        fresh = {mul(a, b) for a in elements for b in generators} - elements
        if not fresh:
            return elements
        elements |= fresh


def orbit_set(generators: list[Permutation], point: int) -> set[int]:
    """Orbit of a point by set fixpoint, no word tracking."""
    orbit = {point}
    while True:
        fresh = {g.images[p] for p in orbit for g in generators} - orbit
        if not fresh:
            return orbit
        orbit |= fresh


def orbits_on(generators: list[Permutation], points: list) -> list[frozenset]:
    """Orbits on arbitrary hashable items under item -> act(item, g).

    Items are acted on through ``act`` below if tuples/frozensets of points,
    or directly if plain points.
    """
    remaining = set(points)
    out: list[frozenset] = []
    while remaining:
        seed = remaining.pop()
        orb = {seed}
        frontier = [seed]
        while frontier:
            item = frontier.pop()
            for g in generators:
                moved = act(item, g)
                if moved not in orb:
                    orb.add(moved)
                    frontier.append(moved)
        remaining -= orb
        out.append(frozenset(orb))
    return out


def act(item, g: Permutation):
    """Act on a point, a tuple of points, or a frozenset of points, or
    conjugate a permutation."""
    if isinstance(item, Permutation):
        return conj(item, g)
    if isinstance(item, int):
        return g.images[item]
    if isinstance(item, tuple):
        return tuple(g.images[p] for p in item)
    if isinstance(item, frozenset):
        return frozenset(g.images[p] for p in item)
    raise TypeError(f"cannot act on {type(item)}")


def burnside_orbit_count(elements: set[Permutation], items: list) -> Fraction:
    """Average fixed-point count over the whole group."""
    total = 0
    for g in elements:
        total += sum(1 for item in items if act(item, g) == item)
    return Fraction(total, len(elements))


def rational_rank(entries) -> int:
    """Rank by Gaussian elimination over the rationals, on Fraction rows."""
    work = [[Fraction(x) for x in row] for row in entries]
    n_cols = len(work[0]) if work else 0
    found = 0
    for col in range(n_cols):
        pivot = next((i for i in range(found, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        top = [x / work[found][col] for x in work[found]]
        for i in range(found + 1, len(work)):
            factor = work[i][col]
            if factor:
                work[i] = [a - factor * b for a, b in zip(work[i], top)]
        found += 1
    return found


def stabilizer_filter(elements: set[Permutation], item) -> set[Permutation]:
    """Stabilizer by filtering a full enumeration."""
    return {g for g in elements if act(item, g) == item}


def is_transitive_on(generators: list[Permutation], points: list) -> bool:
    return len(orbits_on(generators, points)) <= 1


def brute_jordan(elements: set[Permutation], candidate: set[int]) -> bool:
    """Definition check: the elements fixing the complement pointwise
    must reach every candidate point from the first one."""
    degree = next(iter(elements)).degree
    outside = [p for p in range(degree) if p not in candidate]
    fixing = [g for g in elements if all(g.images[p] == p for p in outside)]
    reached = orbit_set(fixing, min(candidate))
    return reached == set(candidate)


def bfs_elements(degree: int, generators, cap: int) -> tuple[Permutation, ...]:
    """Word-order element enumeration: the library's loop before its
    element walk became an orbit of the identity."""
    start = Permutation(tuple(range(degree)))
    seen = {start}
    out = [start]
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for g in generators:
            node = mul(current, g)
            if node not in seen:
                if len(seen) >= cap:
                    raise OverflowError(f"enumeration passed cap {cap}")
                seen.add(node)
                out.append(node)
                queue.append(node)
    return tuple(out)


def wreath_generators(a_degree: int, a_gens, b_degree: int, b_gens) -> tuple[Permutation, ...]:
    """Standard wreath generators, point (gamma, delta) = delta * a_degree + gamma:
    each bottom generator once per fiber, then the top generators."""
    total = a_degree * b_degree
    generators = []
    for delta in range(b_degree):
        for s in a_gens:
            images = list(range(total))
            for gamma in range(a_degree):
                images[delta * a_degree + gamma] = delta * a_degree + s.images[gamma]
            generators.append(Permutation(tuple(images)))
    for t in b_gens:
        images = list(range(total))
        for delta in range(b_degree):
            for gamma in range(a_degree):
                images[delta * a_degree + gamma] = t.images[delta] * a_degree + gamma
        generators.append(Permutation(tuple(images)))
    return tuple(generators)


def tuple_orbit(generators, k: int, cap: float = math.inf) -> set[tuple[int, ...]]:
    """Orbit of (0, ..., k-1) by a queue walk; OverflowError past cap items."""
    start = tuple(range(k))
    seen = {start}
    queue = deque([start])
    while queue:
        item = queue.popleft()
        for g in generators:
            moved = tuple(g.images[p] for p in item)
            if moved not in seen:
                if len(seen) >= cap:
                    raise OverflowError(f"orbit of {start} passed cap {cap}")
                seen.add(moved)
                queue.append(moved)
    return seen


def tuple_walk_transitivity_degree(degree: int, generators, kmax: int, cap: int) -> int:
    """Transitivity degree by one k-tuple orbit walk per k: the library's
    loop before it read orbit lengths off a stabilizer chain.  Raises
    OverflowError at the first k whose tuple orbit has more than cap items."""
    best = 0
    for k in range(1, kmax + 1):
        if len(tuple_orbit(generators, k, cap)) != math.perm(degree, k):
            break
        best = k
    return best


def bfs_reduce_generators(elements, degree: int) -> tuple[Permutation, ...]:
    """Greedy generating set, testing "already in the closure" against a
    fresh word-BFS closure of the kept generators: the library's scan
    before it sifted through a stabilizer chain."""
    generators: list[Permutation] = []
    closed = {Permutation(tuple(range(degree)))}
    target = len(elements)
    for candidate in elements:
        if candidate in closed:
            continue
        generators.append(candidate)
        closed = set(bfs_elements(degree, generators, target))
        if len(closed) == target:
            break
    return tuple(generators)


def schreier_point_stabilizer(degree: int, generators, alpha: int) -> list[Permutation]:
    """Every distinct Schreier generator t_beta s t_(beta s)^-1 over the orbit
    of alpha, with BFS transversal words: the library's point stabilizer
    before it was read off a stabilizer chain."""
    e = Permutation(tuple(range(degree)))
    transversal = {alpha: e}
    queue = deque([alpha])
    while queue:
        beta = queue.popleft()
        for s in generators:
            image = s.images[beta]
            if image not in transversal:
                transversal[image] = mul(transversal[beta], s)
                queue.append(image)
    out: list[Permutation] = []
    for beta, t in sorted(transversal.items()):
        for s in generators:
            schreier = mul(mul(t, s), inv(transversal[s.images[beta]]))
            if schreier != e and schreier not in out:
                out.append(schreier)
    return out


def queue_orbit_words(group, alpha: int) -> dict[int, tuple[int, ...]]:
    """The library's ``orbit`` loop before it ran on the shared item walk:
    each point of the orbit mapped to its first word of generator
    positions, in the order the queue reached it."""
    words = {alpha: ()}
    queue = deque([alpha])
    while queue:
        current = queue.popleft()
        for index, g in enumerate(group.generators):
            moved = g.images[current]
            if moved not in words:
                words[moved] = words[current] + (index,)
                queue.append(moved)
    return words


def filtered_setwise_stabilizer(group, points):
    """The library's setwise stabilizer before it was read off a chain:
    the elements mapping the set onto itself, filtered from the element
    list, and the greedy generating set of what is kept."""
    from permlab.groups import enumerate_elements, subgroup_from_elements

    wanted = frozenset(points)
    keep = tuple(
        g
        for g in enumerate_elements(group)
        if frozenset(g.images[p] for p in wanted) == wanted
    )
    return subgroup_from_elements(keep, group.degree)


def support_edges(elements) -> list[tuple[int, set[tuple[int, int]]]]:
    """(support mask, movement pairs) per distinct support of a non-identity
    element."""
    buckets: dict[int, set[tuple[int, int]]] = {}
    for g in elements:
        moved = [p for p, q in enumerate(g.images) if p != q]
        if moved:
            mask = sum(1 << p for p in moved)
            buckets.setdefault(mask, set()).update((p, g.images[p]) for p in moved)
    return sorted(buckets.items())


def support_component(edges, allowed: set[int], seed: int) -> frozenset[int]:
    """Decreasing fixpoint over a support table: the library's maximal
    Jordan set through seed before it read pointwise stabilizers off a
    chain.  Each round keeps the points reachable from seed through the
    movement pairs of elements supported inside the current set."""
    current = frozenset(allowed)
    while True:
        mask = sum(1 << p for p in current)
        pairs = [pair for emask, found in edges if not emask & ~mask for pair in found]
        reached = {seed}
        while True:
            fresh = {b for a, b in pairs if a in reached} | {a for a, b in pairs if b in reached}
            if fresh <= reached:
                break
            reached |= fresh
        if reached == current:
            return current
        current = frozenset(reached)


def support_maximal_jordan_avoiding(edges, degree: int, avoid, seed=None):
    """maximal_jordan_avoiding on the support-table fixpoint, given the
    table ``support_edges`` built."""
    allowed = {p for p in range(degree) if p not in set(avoid)}
    if seed is not None:
        part = support_component(edges, allowed, seed)
        return tuple(sorted(part)) if len(part) >= 2 else ()
    out = []
    remaining = set(allowed)
    while remaining:
        s = min(remaining)
        part = support_component(edges, allowed, s)
        if len(part) >= 2:
            out.append(tuple(sorted(part)))
            remaining -= part
        else:
            remaining.discard(s)
    return tuple(out)


def _support_connected_inside(edges, mask: int, members: tuple[int, ...]) -> bool:
    """Single orbit on members under elements supported inside mask."""
    parent = list(range(mask.bit_length()))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = len(members) - 1
    for emask, pairs in edges:
        if emask & ~mask:
            continue
        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                merged -= 1
                if not merged:
                    return True
    return merged == 0


def support_jordan_scan(degree: int, generators, sizes=None, cap: int = 200_000):
    """The library's Jordan scan before the pointwise-stabilizer walk:
    every subset of the wanted sizes, by size then lexicographically,
    tested against the support table of the whole element list."""
    if sizes is None:
        wanted_sizes = tuple(range(2, degree + 1))
    else:
        wanted_sizes = tuple(sorted(set(sizes)))
    edges = support_edges(bfs_elements(degree, generators, cap))
    out = []
    for m in wanted_sizes:
        for combo in itertools.combinations(range(degree), m):
            if _support_connected_inside(edges, sum(1 << p for p in combo), combo):
                out.append(combo)
    return tuple(out)


def support_almost_regular_decomposition(group):
    """The library's almost-regular decomposition before it read the
    minimum base, N and the quotient off stabilizer chains: the base
    search meets every inclusion-minimal support, N filters the element
    list and the quotient stabilizer counts distinct block images.  The
    suborbit, orbit, pointwise-stabilizer and partition helpers are the
    library's own."""
    from permlab.blocks import (
        AlmostRegularDecomposition,
        partition_from_blocks,
        suborbits,
    )
    from permlab.errors import AxiomsFailed, NotTransitive
    from permlab.groups import (
        enumerate_elements,
        is_transitive,
        orbits,
        pointwise_stabilizer,
        subgroup_from_elements,
    )
    from permlab.perms import conjugate

    if not is_transitive(group):
        raise NotTransitive("the decomposition needs a transitive action")
    table = suborbits(group, 0)
    m = max(table.subdegrees)
    all_masks = [mask for mask, _ in support_edges(enumerate_elements(group))]
    masks = tuple(
        mk for mk in all_masks if not any(other != mk and other & mk == other for other in all_masks)
    )
    witnesses: list[tuple[int, ...]] = []
    for size in range(1, group.degree + 1):
        witnesses = [
            combo
            for combo in itertools.combinations(range(group.degree), size)
            if all(any(mask >> p & 1 for p in combo) for mask in masks)
        ]
        if witnesses:
            break
    first_witness = witnesses[0]
    m0 = 1
    elements = enumerate_elements(group)
    candidates = set(elements)
    for phi in witnesses:
        stab = pointwise_stabilizer(group, phi)
        short_orbits = [set(o) for o in orbits(stab) if len(o) == m0]
        candidates = {
            g
            for g in candidates
            if all({g.images[p] for p in o} == o for o in short_orbits)
        }
        if len(candidates) == 1:
            break
    n_members = tuple(sorted(candidates, key=lambda f: f.images))
    if any(conjugate(x, g) not in candidates for g in group.generators for x in n_members):
        raise AxiomsFailed("N not normal")
    n_group = subgroup_from_elements(n_members, group.degree)
    rho = partition_from_blocks(group.degree, orbits(n_group))
    if any(len(block) > m for block in rho.blocks):
        raise AxiomsFailed("rho class above m")
    block_index = {}
    for index, block in enumerate(rho.blocks):
        for point in block:
            block_index[point] = index
    quotient_images = {
        tuple(block_index[g.images[block[0]]] for block in rho.blocks)
        for g in elements
    }
    base_block = block_index[0]
    quotient_stab_order = sum(
        1 for images in quotient_images if images[base_block] == base_block
    )
    return AlmostRegularDecomposition(
        m=m,
        phi=tuple(first_witness),
        m0=m0,
        n_generators=n_group.generators,
        rho=rho,
        quotient_stab_order=quotient_stab_order,
        almost_regular=m0 == 1,
    )


def full_list_separation_search(elements, gamma, delta) -> Permutation | None:
    """separation_search before it stopped at its first hit: every g of the
    whole BFS list is tested, and the first that moves gamma off delta wins."""
    hits = [g for g in elements if not {g.images[p] for p in gamma} & set(delta)]
    return hits[0] if hits else None


def cycle_lengths(g: Permutation) -> list[int]:
    """Cycle lengths of g, 1-cycles included, by a walk from each unseen point."""
    seen: set[int] = set()
    out = []
    for start in range(g.degree):
        if start in seen:
            continue
        cycle = [start]
        while g.images[cycle[-1]] != start:
            cycle.append(g.images[cycle[-1]])
        seen.update(cycle)
        out.append(len(cycle))
    return out


def per_element_burnside_totals(elements, kmax: int) -> list[int]:
    """Fixed k-subsets for k = 0..kmax, summed element by element over the
    whole list: the library's Burnside sum before it counted chain
    products per cycle type.  A fixed subset is a union of whole cycles."""
    totals = [0] * (kmax + 1)
    for g in elements:
        ways = [1] + [0] * kmax
        for length in cycle_lengths(g):
            ways = [ways[j] + (ways[j - length] if j >= length else 0) for j in range(kmax + 1)]
        totals = [t + w for t, w in zip(totals, ways)]
    return totals


def enumerated_embedding_report(group, rho):
    """imprimitive_embedding's report before the wreath order came off a
    stabilizer chain: psi is built on the whole element list and the
    wreath product is enumerated for its order.  The group and wreath
    helpers are the library's own, and the setwise stabilizer is
    ``filtered_setwise_stabilizer``."""
    return enumerated_embedding(group, rho)[2]


def enumerated_embedding(group, rho):
    """(phi, psi, report) as enumerated_embedding_report builds them: each
    fiber of psi is the composite transversal[delta], g, and the inverse
    of the transversal element of the block g moves delta to, inverted
    afresh for every element and block."""
    from permlab.groups import GenGroup, enumerate_elements
    from permlab.perms import compose, inverse
    from permlab.wreath import EmbeddingReport, ProductDomain, wreath

    blocks = rho.blocks
    block_of = {point: index for index, block in enumerate(blocks) for point in block}
    base_block = blocks[0]
    position_in_base = {point: i for i, point in enumerate(base_block)}
    transversal: dict[int, Permutation] = {}
    for g in enumerate_elements(group):
        transversal.setdefault(block_of[g.images[base_block[0]]], g)
    setwise = filtered_setwise_stabilizer(group, base_block)
    bottom = GenGroup(
        len(base_block),
        tuple(
            Permutation(tuple(position_in_base[s.images[p]] for p in base_block))
            for s in setwise.generators
        ),
    )
    top = GenGroup(
        len(blocks),
        tuple(
            Permutation(tuple(block_of[g.images[block[0]]] for block in blocks))
            for g in group.generators
        ),
    )
    w = wreath(bottom, top)
    domain = ProductDomain((bottom.degree, top.degree))
    phi = {}
    for point in range(group.degree):
        delta = block_of[point]
        pulled = inverse(transversal[delta]).images[point]
        phi[point] = domain.to_point((position_in_base[pulled], delta))

    def psi_of(g: Permutation) -> Permutation:
        images = list(range(domain.total))
        for delta in range(top.degree):
            moved = block_of[g.images[blocks[delta][0]]]
            fiber = compose(compose(transversal[delta], g), inverse(transversal[moved]))
            for gamma, point in enumerate(base_block):
                images[domain.to_point((gamma, delta))] = domain.to_point(
                    (position_in_base[fiber.images[point]], moved)
                )
        return Permutation(tuple(images))

    elements = enumerate_elements(group)
    psi = {g: psi_of(g) for g in elements}
    injective = len(set(psi.values())) == len(elements)
    compatible = all(
        phi[g.images[point]] == psi[g].images[phi[point]]
        for g in group.generators
        for point in range(group.degree)
    )
    wreath_order = len(enumerate_elements(w))
    return phi, psi, EmbeddingReport(
        group_order=len(elements),
        wreath_order=wreath_order,
        index=wreath_order // len(elements) if injective else 0,
        injective=injective,
        compatible=compatible,
        block_size=len(base_block),
        block_count=len(blocks),
    )


def _integer_rows(matrix) -> list[list[int]]:
    """Rows scaled by the lcm of their denominators; the rank is unchanged."""
    rows = []
    for row in matrix.entries:
        scale = math.lcm(*(x.denominator for x in row))
        if scale == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


def converting_rank_mod_p(matrix, p: int = 1_000_003) -> int:
    """incidence.rank_mod_p before int entries went straight to int64: every
    row is scaled by the lcm of its denominators and every entry reduced
    with a Python ``x % p`` before numpy sees it.  The rest is the
    library's lazy elimination as it was then, with the dense trailing
    update: every row below the pivot with a nonzero factor is rewritten
    from the pivot column on, zeros included.  p is not checked for
    primality."""
    import numpy

    from permlab.errors import OutOfRange

    n_rows, n_cols = matrix.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    if min(n_rows, n_cols) * (p - 1) ** 2 + p >= 2**63:
        raise OutOfRange(
            f"p={p} overflows int64 elimination on a {n_rows}x{n_cols} matrix"
        )
    a = numpy.array(
        [[x % p for x in row] for row in _integer_rows(matrix)], dtype=numpy.int64
    )
    found = 0
    for col in range(n_cols):
        column = a[found:, col]
        column %= p
        hits = numpy.nonzero(column)[0]
        if hits.size == 0:
            continue
        pivot = int(hits[0]) + found
        a[[found, pivot], col:] = a[[pivot, found], col:]
        top = a[found, col:] % p * pow(int(a[found, col]), -1, p) % p
        below = a[found + 1 :, col]
        live = numpy.nonzero(below)[0]
        if live.size:
            block = a[found + 1 :, col:]
            block[live] -= numpy.outer(below[live], top)
        found += 1
        if found == n_rows:
            break
    return found


def dense_bareiss_rank(matrix) -> int:
    """incidence.rank before its rows went sparse: every row below the pivot
    is rewritten in full, zeros included, as (lead * a - factor * b) //
    previous from the pivot column on."""
    work = _integer_rows(matrix)
    n_rows, n_cols = matrix.shape
    found = 0
    previous = 1
    for col in range(n_cols):
        pivot = next((i for i in range(found, n_rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        tail = work[found][col:]
        lead = tail[0]
        for i in range(found + 1, n_rows):
            row = work[i]
            factor = row[col]
            row[col:] = [
                (lead * a - factor * b) // previous for a, b in zip(row[col:], tail)
            ]
        previous = lead
        found += 1
        if found == n_rows:
            break
    return found


def column_support_rank_mod_p(matrix, p: int = 1_000_003) -> int:
    """incidence.rank_mod_p before its sparse rows were loaded bottom-up: a
    sparse 0/1 matrix fills the int64 array in its stored row order, and
    each pivot swaps rows by fancy index and updates the rows below it
    through ``ix_`` and ``outer``, only in the columns where the normalised
    pivot row is nonzero.  Int entries within int64's range go into the
    array as they are; anything else is scaled and reduced row by row
    first.  The primality check and the cell budget are left out."""
    import numpy

    from permlab.errors import OutOfRange

    n_rows, n_cols = matrix.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    if min(n_rows, n_cols) * (p - 1) ** 2 + p >= 2**63:
        raise OutOfRange(
            f"p={p} overflows int64 elimination on a {n_rows}x{n_cols} matrix"
        )
    if matrix.ones is not None:
        a = numpy.zeros((n_rows, n_cols), dtype=numpy.int64)
        a[numpy.arange(n_rows)[:, None], matrix.ones] = 1
    elif all(
        set(map(type, row)) <= {int} and -(2**63) <= min(row) and max(row) < 2**63
        for row in matrix.entries
    ):
        a = numpy.array(matrix.entries, dtype=numpy.int64)
        a %= p
    else:
        a = numpy.array(
            [[x % p for x in row] for row in _integer_rows(matrix)], dtype=numpy.int64
        )
    found = 0
    for col in range(n_cols):
        column = a[found:, col]
        column %= p
        hits = numpy.nonzero(column)[0]
        if hits.size == 0:
            continue
        pivot = int(hits[0]) + found
        a[[found, pivot], col:] = a[[pivot, found], col:]
        top = a[found, col:] % p * pow(int(a[found, col]), -1, p) % p
        below = a[found + 1 :, col]
        live = numpy.nonzero(below)[0]
        if live.size:
            support = numpy.flatnonzero(top)
            a[numpy.ix_(live + found + 1, support + col)] -= numpy.outer(
                below[live], top[support]
            )
        found += 1
        if found == n_rows:
            break
    return found


def bottom_up_rank_mod_p(matrix, p: int = 1_000_003) -> int:
    """incidence.rank_mod_p on a sparse 0/1 matrix before it eliminated the
    unit block of [[A, 0], [I, B]] in one step: the stored columns fill the
    whole int64 array, rows in reverse order, and every column is searched
    for a pivot.  The primality check and the cell budget are left out."""
    import numpy

    from permlab.errors import OutOfRange

    n_rows, n_cols = matrix.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    if min(n_rows, n_cols) * (p - 1) ** 2 + p >= 2**63:
        raise OutOfRange(
            f"p={p} overflows int64 elimination on a {n_rows}x{n_cols} matrix"
        )
    a = numpy.zeros((n_rows, n_cols), dtype=numpy.int64)
    a[numpy.arange(n_rows - 1, -1, -1)[:, None], matrix.ones] = 1
    found = 0
    for col in range(n_cols):
        column = a[found:, col]
        column %= p
        hits = numpy.flatnonzero(column)
        if hits.size == 0:
            continue
        pivot = found + int(hits[0])
        if pivot != found:
            # the row moved out of found is zero in this column
            held = a[found, col:].copy()
            a[found, col:] = a[pivot, col:]
            a[pivot, col:] = held
        top = a[found, col:] % p * pow(int(column[0]), -1, p) % p
        live = hits[1:] + found
        if live.size:
            support = numpy.flatnonzero(top)
            a[live[:, None], support + col] -= column[hits[1:], None] * top[support]
        found += 1
        if found == n_rows:
            break
    return found


def tuple_theta_matrix(n: int, r: int, s: int):
    """incidence.build_theta_matrix before it was built as an array: entry
    (S, R) is -1 when the bitmasks of the colex s-subset S and r-subset R
    share an odd number of points, else 1, one Python int at a time."""
    from permlab.errors import OutOfRange
    from permlab.incidence import ExactMatrix

    if not 0 <= r <= n or not 0 <= s <= n:
        raise OutOfRange(f"levels ({r},{s}) outside 0..{n}")
    rows = colex_subsets(n, s)
    cols = colex_subsets(n, r)
    col_masks = [sum(1 << x for x in gamma) for gamma in cols]
    entries = tuple(
        tuple(
            -1 if (row_mask & col_mask).bit_count() % 2 else 1
            for col_mask in col_masks
        )
        for row_mask in (sum(1 << x for x in delta) for delta in rows)
    )
    return ExactMatrix(rows, cols, entries)


def uncached_theta_exploration(n: int, r: int, s: int, t: int):
    """incidence.theta_exploration before its ranks were memoised and its
    sign matrices became arrays: all three are built as tuples by
    tuple_theta_matrix, composed by the pure-Python ExactMatrix.matmul, and
    ranked afresh by the dense Bareiss oracle above."""
    from permlab.incidence import ThetaReport

    rank = dense_bareiss_rank

    theta_rs = tuple_theta_matrix(n, r, s)
    theta_st = tuple_theta_matrix(n, s, t)
    theta_rt = tuple_theta_matrix(n, r, t)
    composite = theta_st.matmul(theta_rs)
    c0, d0 = composite.entries[0][0], theta_rt.entries[0][0]
    proportional = all(
        c * d0 == c0 * d
        for crow, drow in zip(composite.entries, theta_rt.entries)
        for c, d in zip(crow, drow)
    )
    return ThetaReport(
        n,
        r,
        s,
        t,
        proportional,
        Fraction(c0, d0) if proportional else None,
        rank(theta_rs),
        rank(theta_st),
        rank(theta_rt),
    )


def frozenset_translate_comparability(name, group, catalog) -> list[tuple]:
    """The battery's translate-comparability loop before it became an
    array check: every catalog pair (a, b), in catalog order, tested on
    frozensets, one translate of a at a time."""
    from permlab.trees import set_translates

    orbit_memo = {}
    for a in catalog:
        if a not in orbit_memo:
            orbit_memo[a] = set_translates(group, a)
    problems = []
    for a in catalog:
        translates = orbit_memo[a]
        for b in catalog:
            if not any(t <= b or b <= t for t in translates):
                problems.append(("translate comparability", name, tuple(sorted(a)), tuple(sorted(b))))
    return problems


def colex_subsets(degree: int, k: int) -> tuple[tuple[int, ...], ...]:
    """groups._subsets_colex before it reversed the combinations of the
    reversed domain: every combination, sorted on its reversal."""
    return tuple(
        sorted(itertools.combinations(range(degree), k), key=lambda s: tuple(reversed(s)))
    )


def uncached_members(n: int, subsets: tuple[tuple[int, ...], ...]):
    """incidence._members before incidence._level kept each level: 0/1
    int64 rows, one per subset, with a 1 in the column of each point."""
    import numpy

    members = numpy.zeros((len(subsets), n), dtype=numpy.int64)
    members[numpy.arange(len(subsets))[:, None], numpy.array(subsets, dtype=numpy.intp)] = 1
    return members


def dense_r_matrix(n: int, k: int):
    """incidence.build_r_matrix before its rows went sparse: each row a
    dense 0/1 tuple, its facets found through a dict from column label to
    index.  The cap check is left out."""
    from permlab.incidence import ExactMatrix

    rows = colex_subsets(n, k)
    cols = colex_subsets(n, k - 1)
    col_index = {c: j for j, c in enumerate(cols)}
    entries = []
    for s in rows:
        row = [0] * len(cols)
        for drop in range(k):
            facet = s[:drop] + s[drop + 1 :]
            row[col_index[facet]] = 1
        entries.append(tuple(row))
    return ExactMatrix(rows, cols, tuple(entries))


def facet_loop_r_matrix(n: int, k: int):
    """incidence.build_r_matrix before its facet ranks became array passes:
    an n x (k+1) table of every C(x, i) as Python ints, and each row's
    facet ranks from a running head and tail in a Python loop.  The cap
    and listing checks are left out."""
    from permlab.incidence import ExactMatrix

    rows = colex_subsets(n, k)
    cols = colex_subsets(n, k - 1)
    comb = [[math.comb(x, i) for i in range(k + 1)] for x in range(n)]
    ones = []
    for s in rows:
        kept = [comb[x][i + 1] for i, x in enumerate(s)]
        head = sum(kept) - kept[-1]  # dropping the last point: the smallest rank
        tail = 0
        facets = [head]
        for d in range(k - 1, 0, -1):
            head -= kept[d - 1]
            tail += comb[s[d]][d]
            facets.append(head + tail)
        ones.append(tuple(facets))
    return ExactMatrix(rows, cols, ones=tuple(ones))


def gathered_block_product(ones, m: int, n_cols: int):
    """incidence._block_product before it was one bincount: B as a dense
    m x (n_cols - m) 0/1 array, and A * B summed from B's rows one stored
    column of A at a time, A's rows bottom-up."""
    import numpy

    n_rows = len(ones)
    b = numpy.zeros((m, n_cols - m), dtype=numpy.int64)
    b[numpy.arange(m)[:, None], ones[n_rows - m :, 1:] - m] = 1
    a = numpy.zeros((n_rows - m, n_cols - m), dtype=numpy.int64)
    for facet in ones[: n_rows - m][::-1].T:
        a += b[facet]
    return a


def inline_table_subset_orbit_count(group, k: int) -> int:
    """incidence._subset_orbit_count before it read the shared colex table:
    C(x, i + 1) computed for every point x and place i, 0 where x cannot
    sit at place i, and the labels lowered in the same sweeps.  The cap
    check is left out."""
    import numpy

    n = group.degree
    size = math.comb(n, k)
    subsets = numpy.array(colex_subsets(n, k), dtype=numpy.intp).reshape(size, k)
    comb = numpy.array(
        [[math.comb(x, i + 1) if x <= n - k + i else 0 for i in range(k)] for x in range(n)],
        dtype=numpy.int64,
    ).reshape(n, k)
    places = numpy.arange(k)
    images = []
    for g in group.generators:
        moved = numpy.array(g.images, dtype=numpy.intp)[subsets]
        moved.sort(axis=1)
        images.append(comb[moved, places].sum(axis=1))
    labels = numpy.arange(size)
    while True:
        lowered = labels
        for image in images:
            lowered = numpy.minimum(lowered, lowered[image])
        lowered = lowered[lowered]
        if numpy.array_equal(lowered, labels):
            return int(numpy.count_nonzero(labels == numpy.arange(size)))
        labels = lowered


def dense_commutes_with_lift(entries, s: Permutation, g: Permutation, degree: int) -> bool:
    """The battery's equivariance loop before it read the stored columns:
    every cell (i, j) of the dense inclusion matrix from points to
    2-subsets against the cell (s i, g j)."""
    return not any(
        entries[s.images[i]][g.images[j]] != row[j]
        for i, row in enumerate(entries)
        for j in range(degree)
    )


def wilson_rank_mod_p(n: int, k: int, p: int) -> int:
    """p-rank of the inclusion matrix from (k-1)-subsets to k-subsets of n
    points, for n >= 2k-1, by R. M. Wilson's diagonal form (European J.
    Combin. 11, 1990): the sum of C(n, i) - C(n, i-1) over the i < k for
    which p does not divide C(k-i, k-1-i) = k-i."""
    return sum(
        math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
        for i in range(k)
        if (k - i) % p
    )


def schreier_sims_pointwise_stabilizer(group, points: tuple[int, ...]):
    """The library's G_(points) and its order before the known-order fill
    and the conjugation of same-orbit siblings: a base prefix 0..k-1 is
    read off the group's own chain; otherwise G_(p1..pk) is the parent
    G_(p1..pk-1) itself when the parent fixes pk, else what a chain of the
    parent with pk as its first base point holds below level 1, built by
    deterministic Schreier-Sims and stopped at the parent's order."""
    from permlab.groups import GenGroup, _chain, _Chain
    from permlab.perms import _trusted

    if not points:
        return group, _chain(group).order()
    if points[-1] == len(points) - 1:
        chain, level = _chain(group), len(points)
    else:
        parent, parent_order = schreier_sims_pointwise_stabilizer(group, points[:-1])
        last = points[-1]
        if all(g.images[last] == last for g in parent.generators):
            return parent, parent_order
        base = (last,) + tuple(p for p in range(group.degree) if p != last)
        chain, level = _Chain(group.degree, base, parent_order), 1
        for g in parent.generators:
            chain.extend(g.images)
            if chain.order() == parent_order:
                break
    strong = dict.fromkeys(g for below in chain.strong[level:] for g in below)
    generators = tuple(_trusted(images) for images in strong)
    return GenGroup(group.degree, generators), math.prod(chain.orbit_lengths()[level:])


def sorted_complement_jordan_scan(group, sizes):
    """The library's Jordan scan before the walk over closed complements:
    a depth-first walk over the sorted complements S, each stabilizer taken
    from its memoized prefix's, whose children add no point past the least
    point outside S that G_(S) fixes; every S whose stabilizer fixes
    nothing outside it is tested for a single orbit on the rest."""
    from permlab.config import element_cap
    from permlab.errors import CapExceeded, OutOfRange
    from permlab.groups import _pointwise_stabilizer, orbit, order

    n = group.degree
    if sizes is None:
        wanted_sizes = tuple(range(2, n + 1))
    else:
        wanted_sizes = tuple(sorted(set(sizes)))
        for m in wanted_sizes:
            if not 2 <= m <= n:
                raise OutOfRange(f"size {m} outside 2..{n}")
    count = sum(math.comb(n, m) for m in wanted_sizes)
    if count > element_cap():
        raise CapExceeded(f"{count} candidate subsets passes the cap")
    order(group)
    depths = {n - m for m in wanted_sizes}
    deepest = max(depths, default=-1)
    hits = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        s = stack.pop()
        inside = _pointwise_stabilizer(group, s)[0]
        moved = {p for g in inside.generators for p in range(n) if g.images[p] != p}
        fixed = [x for x in range(n) if x not in moved and x not in s]
        if not fixed and len(s) in depths:
            members = tuple(p for p in range(n) if p not in s)
            if len(orbit(inside, members[0]).points) == len(members):
                hits.append(members)
        if len(s) + max(len(fixed), 1) <= deepest:
            top = fixed[0] if fixed else n - 1
            stack.extend(s + (p,) for p in range(s[-1] + 1 if s else 0, top + 1))
    return tuple(sorted(hits, key=lambda a: (len(a), a)))


def rowwise_span_table(group, size_cap: int):
    """span_geometry's table before it ran one span per G-orbit: ``span``
    on every subset of size at most size_cap + 1, by size, then
    lexicographically."""
    from permlab.jordan import span

    n = group.degree
    return tuple(
        (combo, span(group, combo))
        for m in range(min(size_cap + 1, n) + 1)
        for combo in itertools.combinations(range(n), m)
    )


def to_least(group, point: int) -> tuple[int, tuple[int, ...]]:
    """The library's walk to the least point of an orbit before it read
    the transversal off ``orbit``: the least point r of the point's orbit,
    and the images of an element of the group sending the point to r,
    from one walk over the generators."""
    reached = {point: tuple(range(group.degree))}
    queue = [point]
    for current in queue:
        u = reached[current]
        for g in group.generators:
            image = g.images[current]
            if image not in reached:
                reached[image] = tuple(g.images[p] for p in u)
                queue.append(image)
    least = min(reached)
    return least, reached[least]


# The per-family axiom checkers that trees.check_axioms replaced with its
# axiom table, kept as written: one hand-made loop per axiom, returning
# the core and the reported AxiomCheck lists.


def semilinear_checks(rel):
    n = rel.size
    has = rel.tuples.__contains__
    core = []

    witness = next(((a,) for a in range(n) if not has((a, a))), None)
    core.append(AxiomCheck("reflexive", witness is None, witness))

    witness = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and has((a, b)) and has((b, a))
        ),
        None,
    )
    core.append(AxiomCheck("antisymmetric", witness is None, witness))

    witness = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if has((a, b)) and has((b, c)) and not has((a, c))
        ),
        None,
    )
    core.append(AxiomCheck("transitive", witness is None, witness))

    witness = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if has((a, b)) and has((a, c)) and not (has((b, c)) or has((c, b)))
        ),
        None,
    )
    core.append(AxiomCheck("upper-linear", witness is None, witness))

    witness = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if not any(has((a, c)) and has((b, c)) for c in range(n))
        ),
        None,
    )
    core.append(AxiomCheck("upper-directed", witness is None, witness))

    def strictly(a, b):
        return a != b and has((a, b))

    witness = None
    for a, b in itertools.product(range(n), repeat=2):
        if strictly(a, b) and not any(
            strictly(a, c) and strictly(c, b) for c in range(n)
        ):
            witness = (a, b)
            break
    if witness is None:
        witness = next(
            ((a,) for a in range(n) if not any(strictly(a, c) for c in range(n))),
            None,
        )
    reported = [AxiomCheck("dense", witness is None, witness)]
    return core, reported


def c_checks(rel):
    n = rel.size
    has = rel.tuples.__contains__
    members = sorted(rel.tuples)
    core = []

    witness = next(((a, b, c) for a, b, c in members if not has((a, c, b))), None)
    core.append(AxiomCheck("C1", witness is None, witness))

    witness = next(((a, b, c) for a, b, c in members if has((b, a, c))), None)
    core.append(AxiomCheck("C2", witness is None, witness))

    witness = None
    for a, b, c in members:
        for d in range(n):
            if not (has((a, c, d)) or has((d, b, c))):
                witness = (a, b, c, d)
                break
        if witness:
            break
    core.append(AxiomCheck("C3", witness is None, witness))

    witness = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and not has((a, b, b))
        ),
        None,
    )
    core.append(AxiomCheck("C4", witness is None, witness))

    witness = next(
        (
            (b, c)
            for b in range(n)
            for c in range(n)
            if not any(has((a, b, c)) for a in range(n))
        ),
        None,
    )
    core.append(AxiomCheck("C5", witness is None, witness))

    witness = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and not any(d != b and has((a, b, d)) for d in range(n))
        ),
        None,
    )
    core.append(AxiomCheck("C6", witness is None, witness))

    witness = None
    for a, b, c in members:
        if not any(has((a, b, d)) and has((d, b, c)) for d in range(n)):
            witness = (a, b, c)
            break
    reported = [AxiomCheck("C7", witness is None, witness)]
    return core, reported


def b_checks(rel):
    n = rel.size
    has = rel.tuples.__contains__
    members = sorted(rel.tuples)
    core = []

    witness = next(((a, b, c) for a, b, c in members if not has((a, c, b))), None)
    core.append(AxiomCheck("B1", witness is None, witness))

    witness = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if (has((a, b, c)) and has((b, a, c))) != (a == b)
        ),
        None,
    )
    core.append(AxiomCheck("B2", witness is None, witness))

    witness = None
    for a, b, c in members:
        for d in range(n):
            if not (has((a, b, d)) or has((a, c, d))):
                witness = (a, b, c, d)
                break
        if witness:
            break
    core.append(AxiomCheck("B3", witness is None, witness))

    witness = next(
        (
            (a, b, c, d)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            for d in range(n)
            if has((a, c, d)) and has((b, a, c)) and not has((b, c, d))
        ),
        None,
    )
    core.append(AxiomCheck("B4", witness is None, witness))

    witness = next(
        (
            (a, b, c, d)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            for d in range(n)
            if has((a, c, d))
            and has((b, c, d))
            and not (has((a, b, c)) or has((b, a, c)))
        ),
        None,
    )
    core.append(AxiomCheck("B5", witness is None, witness))

    witness = None
    for a, b, c in itertools.product(range(n), repeat=3):
        if has((a, b, c)):
            continue
        if not any(
            d != a and has((d, a, b)) and has((d, a, c)) for d in range(n)
        ):
            witness = (a, b, c)
            break
    reported = [AxiomCheck("B6", witness is None, witness)]
    return core, reported


def d_checks(rel):
    n = rel.size
    has = rel.tuples.__contains__
    members = sorted(rel.tuples)
    core = []

    witness = next(
        (
            (a, b, c, d)
            for a, b, c, d in members
            if not (has((b, a, c, d)) and has((a, b, d, c)) and has((c, d, a, b)))
        ),
        None,
    )
    core.append(AxiomCheck("D1", witness is None, witness))

    witness = next(((a, b, c, d) for a, b, c, d in members if has((a, c, b, d))), None)
    core.append(AxiomCheck("D2", witness is None, witness))

    witness = None
    for a, b, c, d in members:
        for e in range(n):
            if not (has((a, e, c, d)) or has((a, b, c, e))):
                witness = (a, b, c, d, e)
                break
        if witness:
            break
    core.append(AxiomCheck("D3", witness is None, witness))

    witness = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if len({a, b, c}) == 3
            and not any(e != c and has((a, b, c, e)) for e in range(n))
        ),
        None,
    )
    core.append(AxiomCheck("D4", witness is None, witness))
    return core, []


PER_FAMILY_CHECKS = {
    "semilinear": semilinear_checks,
    "C": c_checks,
    "B": b_checks,
    "D": d_checks,
}


# The generator table that trees.check_axioms replaced with boolean masks,
# kept as written: an axiom is its name and a function of (n, has, m), the
# domain size, membership and the sorted tuples, that yields its
# counterexamples least first, one frozenset lookup at a time.


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


GENERATOR_AXIOMS = {
    "semilinear": (
        (
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
        ),
        (("dense", _dense),),
    ),
    "C": (
        (
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
        ),
        (
            ("C7", lambda n, has, m: (
                (a, b, c) for a, b, c in m
                if not any(has((a, b, d)) and has((d, b, c)) for d in range(n)))),
        ),
    ),
    "B": (
        (
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
        ),
        (
            ("B6", lambda n, has, m: (
                (a, b, c) for a, b, c in _tuples(n, 3)
                if not has((a, b, c))
                and not any(d != a and has((d, a, b)) and has((d, a, c)) for d in range(n)))),
        ),
    ),
    "D": (
        (
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
        ),
        (),
    ),
}


def generator_checks(rel, family):
    """check_axioms as the generator table evaluated it: the core and the
    reported AxiomCheck lists, each witness the first counterexample."""
    core, reported = GENERATOR_AXIOMS[family]
    n = rel.size
    has = rel.tuples.__contains__
    members = sorted(rel.tuples)

    def audit(axioms):
        checks = []
        for name, counterexamples in axioms:
            witness = next(counterexamples(n, has, members), None)
            checks.append(AxiomCheck(name, witness is None, witness))
        return checks

    return audit(core), audit(reported)


def looped_c_from_equivalence_chain(chain):
    """The tuple set of trees.c_from_equivalence_chain as its triple loop
    built it: (a, b, c) when some level puts b and c in one class and a
    outside it."""
    ids = [p.index for p in chain]
    degree = chain[0].degree
    return frozenset(
        (a, b, c)
        for a, b, c in itertools.product(range(degree), repeat=3)
        if any(row[b] == row[c] != row[a] for row in ids)
    )


def permuted_local_catalog(kind, d):
    """orders._local_catalog as its loop derived it: the relation of each
    of the d! linear orders on d points, derived from that order's ranks."""
    from permlab.orders import _derive_from_ranks
    from permlab.relations import relation

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


def first_value_cantor_forth(source, target):
    """orders.cantor_forth before its first value took the general step: the
    first source value went to the first target value, or was reported
    exhausted when there was none, in a branch of its own."""
    from bisect import bisect_left

    from permlab.orders import ForthResult, ForthStep, rational_enumeration

    source = rational_enumeration(source)
    target = rational_enumeration(target)
    mapping = []
    steps = []
    mapped = []
    images = []
    used = set()
    exhausted = None
    for lam in source:
        if not mapping:
            if not len(target):
                exhausted = lam
                break
            q = target.values[0]
            mapping.append((lam, q))
            steps.append(ForthStep(lam, None, None, q, 0))
            mapped.append(lam)
            images.append(q)
            used.add(q)
            continue
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


def json_envelope(payload) -> str:
    """cli._envelope before it wrote its text in one pass: the payload
    under the report envelope, through json.dumps."""
    from permlab import __version__
    from permlab.cli import SCHEMA
    from permlab.config import element_cap

    doc = {
        "schema": SCHEMA,
        "tool": {"name": "permlab", "version": __version__},
        "cap": element_cap(),
        "report": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
