from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab.blocks import is_primitive
from permlab.errors import CapExceeded, OutOfRange, PointOutOfRange, TooSmall
from permlab.fixtures import fixture
from permlab.groups import (
    cyclic_group,
    dihedral_group,
    enumerate_elements,
    homogeneity_degree,
    orbit,
    order,
    setwise_stabilizer,
    symmetric_group,
    transitivity_degree,
)
from permlab.jordan import (
    geometry_audit,
    is_jordan,
    jordan_sets,
    maximal_jordan_avoiding,
    span,
    span_geometry,
)
from permlab.wreath import wreath

import oracles


def fano():
    return fixture("pg_2_2")


def catalog_sets(group, **kw):
    return {frozenset(w.points) for w in jordan_sets(group, **kw)}


# is_jordan


def test_symmetric_triple_is_improper_jordan():
    w = is_jordan(symmetric_group(4), [0, 1, 2])
    assert w is not None
    assert w.points == (0, 1, 2)
    assert not w.proper
    assert order(w.witness_group) == 6


def test_regular_cyclic_pair_is_not_jordan():
    assert is_jordan(cyclic_group(4), [0, 1]) is None


def test_candidate_below_two_points_is_refused():
    with pytest.raises(TooSmall):
        is_jordan(symmetric_group(4), [2])
    with pytest.raises(TooSmall):
        is_jordan(symmetric_group(4), [])


def test_candidate_points_must_be_in_range():
    with pytest.raises(PointOutOfRange):
        is_jordan(symmetric_group(4), [0, 9])


def test_line_complement_is_proper_jordan():
    fix = fano()
    line = fix.lines[0]
    complement = [p for p in range(7) if p not in line]
    w = is_jordan(fix.group, complement)
    assert w is not None
    assert w.proper
    # the witness acts regularly on the four remaining points
    assert order(w.witness_group) == 4
    assert orbit(w.witness_group, 0).points == (0, 1, 2, 3)


def test_point_complement_is_improper_jordan():
    fix = fano()
    w = is_jordan(fix.group, [p for p in range(7) if p != 6])
    assert w is not None
    assert not w.proper
    assert order(w.witness_group) == 24


def test_is_jordan_agrees_with_filter_oracle():
    group = symmetric_group(4)
    els = set(enumerate_elements(group))
    for m in (2, 3, 4):
        for combo in itertools.combinations(range(4), m):
            expected = oracles.brute_jordan(els, set(combo))
            assert (is_jordan(group, combo) is not None) == expected
    w22 = wreath(cyclic_group(2), cyclic_group(2))
    els = set(enumerate_elements(w22))
    for m in (2, 3, 4):
        for combo in itertools.combinations(range(4), m):
            expected = oracles.brute_jordan(els, set(combo))
            assert (is_jordan(w22, combo) is not None) == expected


# jordan_sets


def test_symmetric_catalog_is_every_subset():
    cat = jordan_sets(symmetric_group(4))
    assert len(cat) == 11
    expected = {
        frozenset(c)
        for m in (2, 3, 4)
        for c in itertools.combinations(range(4), m)
    }
    assert {frozenset(w.points) for w in cat} == expected
    assert all(not w.proper for w in cat)


def test_fano_catalog_is_subspace_complements():
    fix = fano()
    cat = jordan_sets(fix.group)
    assert len(cat) == 15
    line_complements = {
        frozenset(range(7)) - frozenset(line) for line in fix.lines
    }
    point_complements = {frozenset(range(7)) - {p} for p in range(7)}
    by_size = {}
    for w in cat:
        by_size.setdefault(len(w.points), set()).add(frozenset(w.points))
    assert by_size[4] == line_complements
    assert by_size[6] == point_complements
    assert by_size[7] == {frozenset(range(7))}
    for w in cat:
        assert w.proper == (len(w.points) == 4)


def test_catalog_closed_under_translation():
    fix = fano()
    sets = catalog_sets(fix.group)
    for s in sets:
        for g in fix.group.generators:
            assert frozenset(g.images[p] for p in s) in sets


def test_witness_groups_are_transitive_restrictions():
    fix = fano()
    for w in jordan_sets(fix.group):
        assert w.witness_group.degree == len(w.points)
        reached = orbit(w.witness_group, 0).points
        assert reached == tuple(range(len(w.points)))
        k = fix.group.degree - len(w.points)
        assert w.proper == (transitivity_degree(fix.group, k + 1) < k + 1)


def test_catalog_size_filter_and_validation():
    s4 = symmetric_group(4)
    pairs = jordan_sets(s4, sizes=[2])
    assert len(pairs) == 6
    with pytest.raises(OutOfRange):
        jordan_sets(s4, sizes=[1])
    with pytest.raises(CapExceeded):
        jordan_sets(symmetric_group(18))


def test_regular_and_dihedral_catalogs_are_trivial():
    cat = jordan_sets(dihedral_group(5))
    assert [(w.points, w.proper) for w in cat] == [((0, 1, 2, 3, 4), False)]
    assert [w.points for w in jordan_sets(cyclic_group(4))] == [(0, 1, 2, 3)]


def test_block_wreath_catalog():
    w22 = wreath(cyclic_group(2), cyclic_group(2))
    cat = jordan_sets(w22)
    assert [(w.points, w.proper) for w in cat] == [
        ((0, 1), True),
        ((2, 3), True),
        ((0, 1, 2, 3), False),
    ]


# unions, nesting, translates


def test_overlapping_unions_stay_in_catalog():
    for group in (fano().group, symmetric_group(5)):
        sets = catalog_sets(group)
        for a in sets:
            for b in sets:
                if a & b and a != b:
                    assert a | b in sets


def test_nested_maximal_side_is_a_block():
    # for each Jordan set directly below another, one side of the split
    # is a block for the setwise stabilizer of the bigger set
    fix = fano()
    sets = sorted(catalog_sets(fix.group), key=sorted)
    nested = [
        (small, big)
        for small in sets
        for big in sets
        if small < big and not any(small < mid < big for mid in sets)
    ]
    assert len(nested) == 28

    def is_block(h_elements, part):
        part = frozenset(part)
        for e in h_elements:
            image = frozenset(e.images[p] for p in part)
            if image != part and image & part:
                return False
        return True

    for small, big in nested:
        h = enumerate_elements(setwise_stabilizer(fix.group, big))
        assert is_block(h, small) or is_block(h, big - small)


def test_translate_of_one_compares_with_the_other():
    fix = fano()
    sets = catalog_sets(fix.group)
    els = enumerate_elements(fix.group)
    for a in sets:
        for b in sets:
            assert any(
                (ga := {e.images[p] for p in a}) <= b or b <= ga for e in els
            )


def test_every_pair_lands_in_some_translate():
    fix = fano()
    els = enumerate_elements(fix.group)
    for s in catalog_sets(fix.group):
        for a, b in itertools.combinations(range(7), 2):
            assert any({a, b} <= {e.images[p] for p in s} for e in els)


def test_connected_primitive_families_union_primitive(rng):
    # assemble random overlap-connected families with primitive witnesses
    # and check the union keeps primitivity and the family's transitivity
    group = symmetric_group(6)
    cat = [w for w in jordan_sets(group) if is_primitive(w.witness_group)]
    assert len(cat) == 57
    for _ in range(40):
        family = [rng.choice(cat)]
        covered = set(family[0].points)
        for _ in range(rng.randrange(1, 4)):
            joined = [w for w in cat if covered & set(w.points)]
            pick = rng.choice(joined)
            family.append(pick)
            covered |= set(pick.points)
        union = is_jordan(group, covered)
        assert union is not None
        assert is_primitive(union.witness_group)
        k_family = min(
            transitivity_degree(w.witness_group, len(w.points)) for w in family
        )
        k = min(k_family, len(covered))
        assert transitivity_degree(union.witness_group, k) == k


def test_fano_primitive_witness_filter_is_whole_domain():
    # both complement families carry block structure, so only the full
    # point set survives a primitivity filter on witnesses
    prim = [
        w.points
        for w in jordan_sets(fano().group)
        if is_primitive(w.witness_group)
    ]
    assert prim == [tuple(range(7))]


def test_overlapping_incomparable_pairs_union_two_homogeneous():
    group = symmetric_group(5)
    cat = jordan_sets(group)
    checked = 0
    for a in cat:
        for b in cat:
            sa, sb = set(a.points), set(b.points)
            if not (sa & sb) or sa <= sb or sb <= sa:
                continue
            if not (is_primitive(a.witness_group) and is_primitive(b.witness_group)):
                continue
            union = is_jordan(group, sa | sb)
            assert union is not None
            assert homogeneity_degree(union.witness_group, 2) == 2
            checked += 1
    assert checked > 0


# maximal_jordan_avoiding


def test_maximal_avoiding_a_line_is_its_complement():
    fix = fano()
    line = fix.lines[0]
    complement = tuple(p for p in range(7) if p not in line)
    assert maximal_jordan_avoiding(fix.group, line) == (complement,)
    assert maximal_jordan_avoiding(fix.group, line, seed=complement[0]) == complement


def test_maximal_avoiding_trivial_cases():
    s4 = symmetric_group(4)
    assert maximal_jordan_avoiding(s4, [0]) == ((1, 2, 3),)
    assert maximal_jordan_avoiding(s4, []) == ((0, 1, 2, 3),)
    c4 = cyclic_group(4)
    assert maximal_jordan_avoiding(c4, [0]) == ()
    assert maximal_jordan_avoiding(c4, [0], seed=1) == ()


def test_maximal_avoiding_seed_validation():
    s4 = symmetric_group(4)
    with pytest.raises(OutOfRange):
        maximal_jordan_avoiding(s4, [0], seed=0)
    with pytest.raises(PointOutOfRange):
        maximal_jordan_avoiding(s4, [0], seed=7)


def test_maximal_avoiding_components_are_maximal_jordan():
    # every returned component is Jordan, avoids the set, and no catalog
    # member avoiding the set strictly contains it
    fix = fano()
    avoid = {0, 3}
    parts = maximal_jordan_avoiding(fix.group, avoid)
    sets = catalog_sets(fix.group)
    for part in parts:
        assert is_jordan(fix.group, part) is not None
        assert not (set(part) & avoid)
        for s in sets:
            if s & avoid:
                continue
            assert not (set(part) < s)


# span


def test_span_of_two_points_is_their_line():
    for name in ("pg_2_2", "pg_2_3", "ag_2_3"):
        fix = fixture(name)
        got = span(fix.group, [0, 1])
        matching = [l for l in fix.lines if {0, 1} <= set(l)]
        assert matching == [got]


def test_span_trivial_inputs():
    fix = fano()
    assert span(fix.group, []) == ()
    assert span(fix.group, [3]) == (3,)
    assert span(symmetric_group(5), [1, 3]) == (1, 3)


def test_span_of_blocked_singleton_grows():
    w22 = wreath(cyclic_group(2), cyclic_group(2))
    assert span(w22, [0]) == (0, 1)


def test_span_geometry_table():
    fix = fano()
    geo = span_geometry(fix.group, size_cap=1)
    assert len(geo.table) == 1 + 7 + 21
    assert geo.span_of([1, 0]) == (0, 1, 2)
    assert geo.span_of([]) == ()
    for key, value in geo.table:
        assert set(key) <= set(value)
    with pytest.raises(OutOfRange):
        geo.span_of([0, 1, 2])


# geometry audit


def test_fano_geometry_audit():
    audit = geometry_audit(fano().group, size_cap=3)
    assert audit.ok
    assert audit.extensive and audit.monotone and audit.idempotent
    assert audit.exchange and audit.exchange_witness is None
    assert audit.empty_span == ()
    assert audit.singleton_spans_fixed is True
    assert audit.independent_counts == ((1, 7, 1), (2, 42, 1), (3, 168, 1), (4, 0, 0))
    assert audit.transitive_on_independent


def test_plane_geometry_audits_pass():
    expected = {
        "pg_2_3": ((1, 13, 1), (2, 156, 1), (3, 1404, 1)),
        "ag_2_2": ((1, 4, 1), (2, 12, 1), (3, 24, 1)),
        "ag_2_3": ((1, 9, 1), (2, 72, 1), (3, 432, 1)),
    }
    for name, counts in expected.items():
        audit = geometry_audit(fixture(name).group)
        assert audit.ok, name
        assert audit.independent_counts == counts, name


def test_symmetric_geometry_is_degenerate():
    audit = geometry_audit(symmetric_group(5))
    assert audit.ok
    assert audit.independent_counts == ((1, 5, 1), (2, 20, 1), (3, 60, 1))
    for key, value in audit.geometry.table:
        assert key == value


def test_blocked_wreath_audit_flags():
    w22 = wreath(cyclic_group(2), cyclic_group(2))
    audit = geometry_audit(w22)
    assert audit.singleton_spans_fixed is None
    assert audit.extensive and audit.monotone and audit.idempotent


# property checks


@given(st.sets(st.integers(min_value=0, max_value=4), min_size=2))
def test_symmetric_groups_accept_every_candidate(points):
    assert is_jordan(symmetric_group(5), points) is not None


@given(st.data())
def test_translates_agree_on_jordan_verdict(data):
    fix = fano()
    points = data.draw(st.sets(st.integers(min_value=0, max_value=6), min_size=2))
    g = data.draw(st.sampled_from(enumerate_elements(fix.group)))
    image = {g.images[p] for p in points}
    w1 = is_jordan(fix.group, points)
    w2 = is_jordan(fix.group, image)
    assert (w1 is None) == (w2 is None)
    if w1 is not None:
        assert w1.proper == w2.proper
        assert order(w1.witness_group) == order(w2.witness_group)


@given(st.sets(st.integers(min_value=0, max_value=6), max_size=4))
def test_span_is_extensive_and_idempotent(points):
    group = fano().group
    first = span(group, points)
    assert set(points) <= set(first)
    assert span(group, first) == first
