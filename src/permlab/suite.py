"""Seeded property battery over the built-in group corpus.

Each property replays one of the package's global laws over the fixture
catalog plus every cyclic wreath product of degree at most 12.  A fresh
deterministic generator is derived per property from the battery seed, so
a name filter never changes which instances a property samples.  Failures
are verdicts, not errors: every property returns a PropertyResult whose
detail line summarizes the evidence either way.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

import numpy

from .blocks import (
    _primitive_route_blocks,
    _primitive_route_orbital_graphs,
    almost_regular_decomposition,
    congruences,
    is_primitive,
)
from .config import DEFAULT_SEED
from .fixtures import FIXTURE_NAMES, fixture
from .groups import (
    CosetCoverInstance,
    GenGroup,
    _mask,
    coset_cover_audit,
    cyclic_group,
    dihedral_group,
    element_set,
    enumerate_elements,
    homogeneity_degree,
    induced_action,
    is_transitive,
    order,
    separation_search,
    symmetric_group,
    transitivity_degree,
)
from .incidence import _inclusion_rank, build_r_matrix, orbit_count_inequality, rank_mod_p
from .jordan import geometry_audit, jordan_sets, span
from .orders import (
    LOCAL_KINDS,
    cantor_forth,
    derive_relation,
    evaluate,
    linear_order_relation,
    local_characterization_check,
    pl_automorphism,
    standard_rationals,
)
from .perms import Permutation, compose, identity, involution_factorization, support_fix_degree
from .relations import relation
from .trees import check_axioms, finite_c_model, set_translates
from .wreath import antichain_poset, generalized_wreath, imprimitive_embedding, wreath


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@cache
def _corpus() -> tuple[tuple[str, GenGroup], ...]:
    rows = [(name, fixture(name).group) for name in FIXTURE_NAMES]
    for c in range(2, 7):
        for d in range(2, 7):
            if c * d <= 12:
                name = f"cyclic_{c}_wr_cyclic_{d}"
                rows.append((name, wreath(cyclic_group(c), cyclic_group(d))))
    return tuple(rows)


# ------------------------------------------------------------ properties


def _check_primitivity_routes(rng: random.Random) -> tuple[bool, str]:
    disagreements = []
    for name, group in _corpus():
        if _primitive_route_blocks(group) != _primitive_route_orbital_graphs(group):
            disagreements.append(name)
    detail = f"{len(_corpus())} groups, two routes compared; disagreements: {disagreements or 'none'}"
    return not disagreements, detail


def _check_separation_witnesses(rng: random.Random) -> tuple[bool, str]:
    pool = _corpus()
    failures = []
    for _ in range(200):
        name, group = pool[rng.randrange(len(pool))]
        n = group.degree
        while True:
            a = rng.randrange(1, n)
            b = rng.randrange(1, n)
            if a * b < n:
                break
        gamma = set(rng.sample(range(n), a))
        delta = set(rng.sample(range(n), b))
        witness = separation_search(group, gamma, delta)
        if witness is None or {witness.images[p] for p in gamma} & delta:
            failures.append((name, sorted(gamma), sorted(delta)))
    sharp_failures = []
    for c in (2, 3):
        for d in (2, 3):
            # the direct product of two cycles on c*d points, point = x + c*y
            group = generalized_wreath(antichain_poset(2), (cyclic_group(c), cyclic_group(d)))
            row = set(range(c))
            column = {c * y for y in range(d)}
            if separation_search(group, row, column) is not None:
                sharp_failures.append((c, d))
    passed = not failures and not sharp_failures
    detail = (
        f"200 random instances with |gamma||delta| below the degree, "
        f"failures: {failures[:2] or 'none'}; 4 sharp product instances "
        f"correctly inseparable: {not sharp_failures}"
    )
    return passed, detail


def _check_coset_covers(rng: random.Random) -> tuple[bool, str]:
    pool = [(n, g) for n, g in _corpus() if order(g) <= 24]
    violations = []
    sums = []
    for _ in range(100):
        name, group = pool[rng.randrange(len(pool))]
        elements = enumerate_elements(group)
        whole = set(elements)
        parts = []
        cosets = []
        for _ in range(rng.randrange(2, 5)):
            gens = tuple(rng.choice(elements) for _ in range(rng.randrange(1, 3)))
            sub = GenGroup(group.degree, gens)
            rep = rng.choice(elements)
            parts.append((sub, rep))
            cosets.append(frozenset(compose(y, rep) for y in element_set(sub)))
        covered = set().union(*cosets)
        for g in elements:
            if g not in covered:
                parts.append((GenGroup(group.degree, ()), g))
                cosets.append(frozenset((g,)))
                covered.add(g)
        keep = list(range(len(parts)))
        pruned = True
        while pruned:
            pruned = False
            for i in rng.sample(keep, len(keep)):
                rest = set().union(*(cosets[j] for j in keep if j != i)) if len(keep) > 1 else set()
                if rest == whole:
                    keep.remove(i)
                    pruned = True
                    break
        instance = CosetCoverInstance(group, tuple(parts[i] for i in keep))
        report = coset_cover_audit(instance)
        sums.append(report.index_sum)
        if not (report.covers and report.irredundant and report.index_sum >= 1):
            violations.append((name, report.indices, str(report.index_sum)))
    detail = (
        f"100 irredundant exhaustive covers over groups of order <= 24; "
        f"reciprocal index sums all >= 1: {not violations} "
        f"(min {min(sums)}); violations: {violations[:2] or 'none'}"
    )
    return not violations, detail


def _check_involution_factorization(rng: random.Random) -> tuple[bool, str]:
    def ok(f: Permutation) -> bool:
        t1, t2 = involution_factorization(f)
        e = identity(f.degree)
        if compose(t1, t1) != e or compose(t2, t2) != e:
            return False
        if compose(t1, t2) != f:
            return False
        support = support_fix_degree(f)[0]
        return support_fix_degree(t1)[0] <= support and support_fix_degree(t2)[0] <= support

    bad = []
    total = 0
    for degree in range(1, 7):
        for images in itertools.permutations(range(degree)):
            total += 1
            f = Permutation(images)
            if not ok(f):
                bad.append(f)
    for _ in range(500):
        degree = rng.randrange(2, 13)
        images = list(range(degree))
        rng.shuffle(images)
        total += 1
        f = Permutation(tuple(images))
        if not ok(f):
            bad.append(f)
    detail = (
        f"{total} permutations (exhaustive through degree 6 plus 500 random "
        f"through degree 12); bad factorizations: {len(bad)}"
    )
    return not bad, detail


def _check_almost_regular(rng: random.Random) -> tuple[bool, str]:
    problems = []
    regulars = 0
    for name, group in _corpus():
        if not is_transitive(group):
            continue
        d = almost_regular_decomposition(group)
        if any(len(block) > d.m for block in d.rho.blocks):
            problems.append((name, "class size exceeds m"))
        bound = d.m ** max(len(d.phi) - 1, 0)
        if d.quotient_stab_order > bound:
            problems.append((name, f"quotient stabilizer {d.quotient_stab_order} > {bound}"))
        if order(group) == group.degree:
            regulars += 1
            if d.m0 != 1 or d.n_generators:
                problems.append((name, "regular group did not degenerate"))
    detail = (
        f"{len(_corpus())} transitive groups decomposed; class-size and "
        f"quotient-stabilizer bounds hold: {not problems}; "
        f"{regulars} regular groups degenerate to trivial N; "
        f"problems: {problems[:2] or 'none'}"
    )
    return not problems, detail


def _check_wreath_algebra(rng: random.Random) -> tuple[bool, str]:
    problems = []
    pool = [cyclic_group(k) for k in range(2, 7)]
    pool += [dihedral_group(3), dihedral_group(4), symmetric_group(3)]
    pairs = 0
    for a in pool:
        for b in pool:
            if a.degree * b.degree > 12:
                continue
            pairs += 1
            w = wreath(a, b)
            expected = order(a) ** b.degree * order(b)
            if order(w) != expected:
                problems.append(("order formula", a.degree, b.degree))
    c2 = cyclic_group(2)
    left = element_set(wreath(wreath(c2, c2), c2))
    right = element_set(wreath(c2, wreath(c2, c2)))
    if left != right:
        problems.append(("associativity",))
    embeddings = 0
    for name, group in _corpus():
        proper = [
            rho
            for rho in congruences(group)
            if not rho.is_discrete and not rho.is_universal
        ]
        for rho in proper:
            embeddings += 1
            report = imprimitive_embedding(group, rho)[2]
            if not (report.compatible and report.injective):
                problems.append((name, "embedding", report))
    detail = (
        f"order formula on {pairs} pairs, triple product associativity, and "
        f"{embeddings} block-respecting embeddings all checked; "
        f"problems: {problems[:2] or 'none'}"
    )
    return not problems, detail


def _commutes_with_lift(
    ones: tuple[tuple[int, ...], ...], s: Permutation, g: Permutation
) -> bool:
    """P2 R == R P1 for the inclusion matrix R from points to 2-subsets,
    given as the columns of its ones, g acting on the points and s its
    lift to the 2-subsets.

    The rows of R and the items of the lift are both the colex 2-subsets,
    and its columns are the single points, so the entry at (s i, g j) must
    equal the one at (i, j): g must send the ones of row i onto those of
    row s i.
    """
    images = g.images
    return all(
        set(map(images.__getitem__, row)) == set(ones[s.images[i]])
        for i, row in enumerate(ones)
    )


def _check_subset_incidence(rng: random.Random) -> tuple[bool, str]:
    problems = []
    injective_cases = 0
    for n in range(2, 13):
        for k in range(1, n + 1):
            if n < 2 * k - 1:
                continue
            injective_cases += 1
            matrix = build_r_matrix(n, k)
            cols = len(matrix.cols)
            if rank_mod_p(matrix) != cols:
                problems.append(("mod-p rank", n, k))
            if _inclusion_rank(n, k, matrix.ones) != cols:
                problems.append(("exact rank", n, k))
    checked_gens = 0
    for name, group in _corpus():
        ones = build_r_matrix(group.degree, 2).ones
        lifted = induced_action(group, "subsets", 2).group.generators
        for s, g in zip(lifted, group.generators):
            checked_gens += 1
            if not _commutes_with_lift(ones, s, g):
                problems.append(("equivariance", name))
    for name, group in _corpus():
        counts = orbit_count_inequality(group, group.degree // 2)
        for k in range(1, group.degree // 2 + 1):
            if group.degree >= 2 * k and counts[k] < counts[k - 1]:
                problems.append(("orbit growth", name, k))
    detail = (
        f"inclusion matrix injective in {injective_cases} cases (n <= 12, "
        f"n >= 2k-1), equivariant for {checked_gens} generators, subset orbit "
        f"counts nondecreasing while n >= 2k; problems: {problems[:2] or 'none'}"
    )
    return not problems, detail


def _check_dense_order_maps(rng: random.Random) -> tuple[bool, str]:
    problems = []
    prefix = standard_rationals(100)
    result = cantor_forth(prefix, prefix)
    identity_map = (
        result.exhausted is None
        and len(result.mapping) == 100
        and all(a == b for a, b in result.mapping)
    )
    if not identity_map:
        problems.append("matching prefixes did not map identically")
    grid = sorted({Fraction(num, den) for den in range(1, 7) for num in range(-36, 37)})
    misses = 0
    for _ in range(100):
        k = rng.randrange(1, 7)
        alphas = sorted(rng.sample(grid, k))
        betas = sorted(rng.sample(grid, k))
        pl = pl_automorphism(alphas, betas)
        for alpha, beta in zip(alphas, betas):
            if evaluate(pl, alpha) != beta:
                misses += 1
    if misses:
        problems.append(f"{misses} breakpoint misses")
    detail = (
        f"identical 100-term enumerations map by the identity: {identity_map}; "
        f"100 piecewise-linear instances hit every breakpoint exactly: {misses == 0}"
    )
    return not problems, detail


def _check_tree_relation_axioms(rng: random.Random) -> tuple[bool, str]:
    axiom_failures = []
    for k in (1, 2, 3):
        for s in (2, 3):
            model = finite_c_model(k, s)
            report = check_axioms(model.relation, "C")
            for c in report.checks:
                if not c.holds:
                    axiom_failures.append((k, s, c.name))
    problems = []
    for n in range(3, 8):
        for kind in ("betweenness", "cyclic", "separation"):
            if n < LOCAL_KINDS[kind][1]:
                continue
            rel = derive_relation(linear_order_relation(n), kind)
            if not local_characterization_check(rel, kind).ok:
                problems.append(("local check", kind, n))
    for kind in ("betweenness", "cyclic", "separation"):
        base = derive_relation(linear_order_relation(6), kind)
        domain = sorted(itertools.product(range(6), repeat=base.arity))
        survivors = 0
        for _ in range(50):
            t = domain[rng.randrange(len(domain))]
            tuples = set(base.tuples)
            if t in tuples:
                tuples.discard(t)
            else:
                tuples.add(t)
            mutated = relation(base.arity, 6, tuples)
            if local_characterization_check(mutated, kind).ok:
                survivors += 1
        if survivors:
            problems.append(("mutation survived", kind, survivors))
    passed = not axiom_failures and not problems
    failed_names = sorted({name for _, _, name in axiom_failures})
    detail = (
        f"function-family chain models satisfy every core axiom: "
        f"{not axiom_failures}"
        + (
            f" ({failed_names} fail on all 6 (k, s) models)"
            if axiom_failures
            else ""
        )
        + f"; derived betweenness/cyclic/separation pass local checks through "
        f"7 points and 150 single-tuple mutations all fail: {not problems}"
    )
    return passed, detail


def _translate_comparability_problems(
    name: str, group: GenGroup, catalog: list[frozenset[int]]
) -> list[tuple]:
    """A problem for each catalog pair (a, b), in catalog order, such that
    no translate of a is comparable with b under inclusion.

    Sets are int64 bitmasks, which hold degrees up to 63, so t <= b is
    t & ~b == 0.  Each set's translates are tested against the whole
    catalog as one array; a translate of a set has the same translates,
    so the resulting row is shared by all of them.
    """
    masks = numpy.array([_mask(b) for b in catalog], dtype=numpy.int64)
    comparable: dict[frozenset[int], numpy.ndarray] = {}
    problems = []
    for a in catalog:
        if a not in comparable:
            translates = set_translates(group, a)
            t = numpy.array([_mask(x) for x in translates], dtype=numpy.int64)[:, None]
            row = (((t & ~masks) == 0) | ((masks & ~t) == 0)).any(axis=0)
            comparable.update(dict.fromkeys(translates, row))
        for j in numpy.flatnonzero(~comparable[a]).tolist():
            problems.append(
                ("translate comparability", name, tuple(sorted(a)), tuple(sorted(catalog[j])))
            )
    return problems


def _orbit_verdict(memo: dict, witnesses: dict, test, s: frozenset[int], *args):
    """test(witness group of s, *args), computed once per G-orbit.

    witnesses maps each catalog set to its JordanWitness.  A translate's
    witness group is its representative's relabeled, which changes
    neither primitivity nor the transitivity or homogeneity degree, so
    the test runs on the representative's own group and memo keeps the
    verdict under (test, representative, args).
    """
    representative = witnesses[s].representative
    key = (test, representative, args)
    if key not in memo:
        memo[key] = test(witnesses[frozenset(representative)].witness_group, *args)
    return memo[key]


def _check_jordan_span_geometry(rng: random.Random) -> tuple[bool, str]:
    problems = []
    fix = fixture("pg_2_2")
    g7 = fix.group
    omega = frozenset(range(7))
    catalog7 = jordan_sets(g7)
    expected = {omega} | {omega - {p} for p in range(7)}
    expected |= {omega - frozenset(line) for line in fix.lines}
    if {frozenset(w.points) for w in catalog7} != expected:
        problems.append("plane catalog differs from subspace complements")
    problems.extend(("properness", w.points) for w in catalog7 if w.proper != (len(w.points) == 4))
    for a, b in itertools.combinations(range(7), 2):
        line = next(set(l) for l in fix.lines if {a, b} <= set(l))
        if set(span(g7, [a, b])) != line:
            problems.append(("span", a, b))
    audits = {
        name: geometry_audit(fixture(name).group, size_cap=size_cap)
        for name, size_cap in (("pg_2_2", 3), ("pg_2_3", 2), ("ag_2_2", 3), ("ag_2_3", 2))
    }
    problems.extend(("audit", name) for name, audit in audits.items() if not audit.ok)
    if audits["pg_2_2"].independent_counts != ((1, 7, 1), (2, 42, 1), (3, 168, 1), (4, 0, 0)):
        problems.append("plane independent-tuple counts changed")

    comparability_pairs = 0
    families = 0
    pairs_46 = 0
    for name, group in _corpus():
        # the plane is a corpus group: its catalog is the one checked above
        found = catalog7 if group == g7 else jordan_sets(group)
        witnesses = {frozenset(w.points): w for w in found}
        # primitivity, transitivity and homogeneity once per G-orbit
        verdict = partial(_orbit_verdict, {}, witnesses)
        catalog = list(witnesses)
        comparability_pairs += len(catalog) ** 2
        problems.extend(_translate_comparability_problems(name, group, catalog))
        sample = catalog if len(catalog) <= 40 else rng.sample(catalog, 40)
        prim = [s for s in sample if verdict(is_primitive, s)]
        if prim:
            for _ in range(10):
                family = [prim[rng.randrange(len(prim))]]
                covered = set(family[0])
                for _ in range(rng.randrange(1, 4)):
                    joined = [s for s in prim if covered & s]
                    pick = joined[rng.randrange(len(joined))]
                    family.append(pick)
                    covered |= pick
                families += 1
                union = frozenset(covered)
                if union not in witnesses:
                    problems.append(("family union not in catalog", name, tuple(sorted(union))))
                    continue
                if not verdict(is_primitive, union):
                    problems.append(("family union imprimitive", name, tuple(sorted(union))))
                k_family = min(verdict(transitivity_degree, s, len(s)) for s in set(family))
                k = min(k_family, len(union))
                if verdict(transitivity_degree, union, k) != k:
                    problems.append(("family transitivity", name, tuple(sorted(union)), k))
        incomparable = ((a, b) for a in prim for b in prim if a & b and not (a <= b or b <= a))
        for a, b in itertools.islice(incomparable, 10):
            pairs_46 += 1
            union = a | b
            if union not in witnesses:
                problems.append(("pair union not in catalog", name, tuple(sorted(union))))
                continue
            if verdict(homogeneity_degree, union, 2) != 2:
                problems.append(("pair union not 2-homogeneous", name, tuple(sorted(union))))
    detail = (
        f"plane catalog, pair spans and 4 closure audits verified; translate "
        f"comparability over {comparability_pairs} catalog pairs, {families} "
        f"overlap-connected primitive families and {pairs_46} incomparable "
        f"primitive pairs; problems: {problems[:2] or 'none'}"
    )
    return not problems, detail


_CHECKS = (
    ("primitivity-two-routes", _check_primitivity_routes),
    ("separation-witnesses", _check_separation_witnesses),
    ("coset-covers", _check_coset_covers),
    ("involution-factorization", _check_involution_factorization),
    ("almost-regular-decomposition", _check_almost_regular),
    ("wreath-algebra", _check_wreath_algebra),
    ("subset-incidence", _check_subset_incidence),
    ("dense-order-maps", _check_dense_order_maps),
    ("tree-relation-axioms", _check_tree_relation_axioms),
    ("jordan-span-geometry", _check_jordan_span_geometry),
)

PROPERTY_NAMES = tuple(name for name, _ in _CHECKS)


def run_battery(seed: int = DEFAULT_SEED, name_filter: str = "") -> tuple[PropertyResult, ...]:
    """Run every property whose name contains the filter substring.

    The seed only steers instance sampling; with the default corpus all
    verdicts are stable across seeds.
    """
    results = []
    for name, func in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        passed, detail = func(rng)
        results.append(PropertyResult(name, passed, detail, time.perf_counter() - start))
    return tuple(results)
