"""Command line front end: deterministic reports over groups and orders.

JSON reports share a fixed envelope (schema tag, tool version, active
element cap) and sorted keys, so repeated runs are byte-identical; the
text format is a compact human view of the same data, and DOT is offered
where a pass has a natural graph form.  Points, cycles and lines are
1-based in all input and output.

Exit codes: 0 for success (verdict failures included), 2 for invalid
input or a file that cannot be read, 3 when the work would exceed the
element cap (raise it with the PERMLAB_CAP environment variable).  Any
other exception is permlab's own fault and ends in a traceback.

Every call runs in a fresh process, so import time is part of each answer.
At module level this imports only what ``analyze --gens`` and ``lw`` run:
groups, blocks, jordan, incidence, perms, config and errors.  The other
verbs import their modules when they run: fixtures for ``analyze
--fixture`` and ``corpus``; fixtures and wreath for ``wreath``; suite for
``suite``; trees and relations for ``relations``; orders for ``cantor``.
incidence, and numpy with it, stays eager: ``lw`` needs it, and a
deferred import would move numpy's load, about half of what is left of
the import, into the verb's first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .blocks import congruences, is_primitive, orbital_graph, orbitals, suborbits
from .config import AXIOM_FAMILIES, DEFAULT_SEED, element_cap
from .errors import CapExceeded, MalformedSyntax, OutOfRange, PermlabError, PointOutOfRange
from .groups import (
    GenGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    homogeneity_degree,
    is_transitive,
    orbits,
    order,
    symmetric_group,
    transitivity_degree,
)
from .incidence import (
    EXACT_RANK_LIMIT,
    _check_cells,
    _inclusion_rank,
    _inclusion_shape,
    build_r_matrix,
    rank_mod_p,
    theta_exploration,
)
from .jordan import jordan_sets, span
from .perms import format_cycles, parse_cycles

SCHEMA = "permlab-report/1"


def _points_out(points) -> list[int]:
    return [p + 1 for p in sorted(points)]


def _point_in(flag: str, point: int, degree: int) -> int:
    """The 0-based point for a 1-based point given to flag, in 1..degree."""
    if not 1 <= point <= degree:
        raise PointOutOfRange(f"{flag} {point} outside 1..{degree}")
    return point - 1


def _numbers_in(flag: str, text: str, kind: type) -> list:
    """Each comma-separated item given to flag as an int or a Fraction
    (kind), naming the flag and the item that does not parse."""
    numbers = []
    for item in text.split(","):
        try:
            numbers.append(kind(item.strip()))
        except ValueError:
            noun = "an integer" if kind is int else "a rational"
            raise MalformedSyntax(f"{flag} item {item!r} is not {noun}") from None
        except ZeroDivisionError:
            raise MalformedSyntax(f"{flag} item {item!r} has a zero denominator") from None
    return numbers


def _envelope(payload) -> str:
    doc = {
        "schema": SCHEMA,
        "tool": {"name": "permlab", "version": __version__},
        "cap": element_cap(None),
        "report": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(args, payload, text_lines) -> int:
    if getattr(args, "format", "text") == "json":
        print(_envelope(payload))
    else:
        for line in text_lines:
            print(line)
    return 0


# ----------------------------------------------------------------- analyze


def _resolve_group(args) -> tuple[str, GenGroup, object]:
    if args.fixture:
        from .fixtures import fixture

        fix = fixture(args.fixture)
        return args.fixture, fix.group, fix
    if args.degree is None:
        raise OutOfRange("--gens needs --degree")
    if args.degree < 0:
        raise OutOfRange(f"--degree {args.degree} is negative")
    gens = tuple(
        parse_cycles(part.strip(), args.degree) for part in args.gens.split(",")
    )
    return "custom", GenGroup(args.degree, gens), None


def _pass_orbits(label, group, fix, args):
    rows = sorted(sorted(o) for o in orbits(group))
    payload = {"orbits": [[p + 1 for p in row] for row in rows]}
    lines = [f"orbits: {len(rows)}"]
    lines += ["  " + " ".join(str(p + 1) for p in row) for row in rows]
    return payload, lines, None


def _pass_primitivity(label, group, fix, args):
    transitive = is_transitive(group)
    primitive = is_primitive(group) if transitive else None
    payload = {"transitive": transitive, "primitive": primitive}
    lines = [f"transitive: {transitive}", f"primitive: {primitive}"]
    return payload, lines, None


def _pass_suborbits(label, group, fix, args):
    base = _point_in("--base", args.base, group.degree)
    sub = suborbits(group, base)
    payload = {
        "base": base + 1,
        "subdegrees": list(sub.subdegrees),
        "pairing": list(sub.pairing),
    }
    lines = [
        f"suborbits of point {base + 1}: {len(sub.sets)}",
        f"subdegrees: {' '.join(str(d) for d in sub.subdegrees)}",
        f"pairing: {' '.join(str(i) for i in sub.pairing)}",
    ]
    return payload, lines, lambda: "\n".join(
        orbital_graph(group, orb).dot for orb in orbitals(group, base) if not orb.is_diagonal
    )


def _pass_congruences(label, group, fix, args):
    parts = congruences(group)
    payload = {
        "count": len(parts),
        "congruences": [
            {
                "blocks": [[p + 1 for p in sorted(b)] for b in sorted(map(sorted, rho.blocks))],
                "discrete": rho.is_discrete,
                "universal": rho.is_universal,
            }
            for rho in parts
        ],
    }
    lines = [f"congruences: {len(parts)}"]
    for rho in parts:
        blocks = " | ".join(
            " ".join(str(p + 1) for p in sorted(b)) for b in sorted(map(sorted, rho.blocks))
        )
        lines.append("  " + blocks)
    return payload, lines, None


def _pass_transitivity(label, group, fix, args):
    k = transitivity_degree(group, group.degree)
    return {"transitivity_degree": k}, [f"transitivity degree: {k}"], None


def _pass_homogeneity(label, group, fix, args):
    k = homogeneity_degree(group, group.degree)
    return {"homogeneity_degree": k}, [f"homogeneity degree: {k}"], None


def _inclusion_dot(sets) -> str:
    """Hasse diagram of a family of point sets under inclusion."""
    distinct = sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s))))
    names = {s: "s" + "_".join(str(p + 1) for p in sorted(s)) for s in distinct}
    out = ["digraph inclusion {"]
    for s in distinct:
        label = "{" + " ".join(str(p + 1) for p in sorted(s)) + "}"
        out.append(f'  {names[s]} [label="{label}"];')
    for a in distinct:
        for b in distinct:
            if not a < b:
                continue
            if any(a < c < b for c in distinct):
                continue
            out.append(f"  {names[a]} -> {names[b]};")
    out.append("}")
    return "\n".join(out)


def _pass_jordan(label, group, fix, args):
    catalog = jordan_sets(group)
    payload = {
        "count": len(catalog),
        "sets": [
            {
                "points": _points_out(w.points),
                "proper": w.proper,
                "witness_order": w.witness_order,
            }
            for w in catalog
        ],
    }
    lines = [f"jordan sets: {len(catalog)}"]
    for w in catalog:
        tag = "proper" if w.proper else "improper"
        lines.append(
            f"  {{{' '.join(str(p) for p in _points_out(w.points))}}}"
            f" {tag}, witness order {w.witness_order}"
        )
    return payload, lines, lambda: _inclusion_dot([frozenset(w.points) for w in catalog])


def _pass_span(label, group, fix, args):
    if not args.points:
        raise OutOfRange("the span pass needs --points")
    numbers = _numbers_in("--points", args.points, int)
    pts = [_point_in("--points", p, group.degree) for p in numbers]
    result = span(group, pts)
    payload = {"points": [p + 1 for p in pts], "span": _points_out(result)}
    lines = [
        f"span of {{{' '.join(str(p + 1) for p in pts)}}}:"
        f" {{{' '.join(str(p) for p in _points_out(result))}}}"
    ]
    return payload, lines, lambda: _inclusion_dot([frozenset(pts), frozenset(result)])


# name -> (pass, help); a pass returns its JSON payload, its text lines and
# a DOT renderer or None, which _cmd_analyze calls only for --format dot
_PASSES = {
    "orbits": (_pass_orbits, "orbit partition of the point set"),
    "primitivity": (_pass_primitivity, "transitivity and primitivity verdicts"),
    "suborbits": (_pass_suborbits, "suborbits of a base point with pairing"),
    "congruences": (_pass_congruences, "every congruence of a transitive action"),
    "transitivity": (_pass_transitivity, "largest k with one orbit on k-tuples"),
    "homogeneity": (_pass_homogeneity, "largest k with one orbit on k-sets"),
    "jordan": (_pass_jordan, "catalog of Jordan sets with witness groups"),
    "span": (_pass_span, "closure of a point list under Jordan components"),
}


def _cmd_analyze(args) -> int:
    label, group, fix = _resolve_group(args)
    if group.degree < 2:
        note = f"degree {group.degree} action: every pass is trivial; nothing to report"
        return _emit(args, {"group": label, "note": note}, [f"note: {note}"])
    names = [p.strip() for p in args.passes.split(",") if p.strip()]
    for name in names:
        if name not in _PASSES:
            raise OutOfRange(f"unknown pass {name!r} (try: {', '.join(_PASSES)})")
    payload = {"group": label, "degree": group.degree, "passes": {}}
    lines = [f"group {label}, degree {group.degree}"]
    dots = []
    for name in names:
        pass_payload, pass_lines, dot = _PASSES[name][0](label, group, fix, args)
        payload["passes"][name] = pass_payload
        lines.append(f"[{name}]")
        lines += ["  " + ln for ln in pass_lines]
        if args.format == "dot":
            dots.append((dot and dot()) or f"// pass {name}: no graph form")
    if args.format == "dot":
        print("\n".join(dots))
        return 0
    return _emit(args, payload, lines)


# ------------------------------------------------------------------ corpus


def _cmd_corpus_list(args) -> int:
    from .fixtures import FIXTURE_NAMES, fixture

    rows = []
    lines = []
    for name in FIXTURE_NAMES:
        fix = fixture(name)
        rows.append({"name": name, "degree": fix.group.degree, "notes": fix.notes})
        lines.append(f"{name} (degree {fix.group.degree}): {fix.notes}")
    return _emit(args, {"count": len(rows), "fixtures": rows}, lines)


def _cmd_corpus_describe(args) -> int:
    from .fixtures import fixture

    fix = fixture(args.name)
    group = fix.group
    payload = {
        "name": args.name,
        "degree": group.degree,
        "order": order(group),
        "generators": [format_cycles(g) for g in group.generators],
        "notes": fix.notes,
    }
    lines = [
        f"{args.name}: degree {group.degree}, order {order(group)}",
        f"notes: {fix.notes}",
        "generators: " + ", ".join(format_cycles(g) for g in group.generators),
    ]
    if fix.lines:
        payload["lines"] = [[p + 1 for p in line] for line in fix.lines]
        lines.append("lines:")
        lines += [
            "  " + " ".join(str(p + 1) for p in line) for line in fix.lines
        ]
    return _emit(args, payload, lines)


# ------------------------------------------------------------------- suite


def _cmd_suite(args) -> int:
    from .suite import run_battery

    results = run_battery(seed=args.seed, name_filter=args.filter)
    if not results:
        print(
            f"warning: no properties match filter {args.filter!r}", file=sys.stderr
        )
    payload = {
        "seed": args.seed,
        "properties": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s)")
        lines.append(f"  {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} properties passed")
    return _emit(args, payload, lines)


# ------------------------------------------------------------------ wreath


_FAMILIES = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
    "alternating": alternating_group,
}


def _named_group(name: str) -> GenGroup:
    from .fixtures import FIXTURE_NAMES, fixture

    if name in FIXTURE_NAMES:
        return fixture(name).group
    family, _, tail = name.rpartition("_")
    if family in _FAMILIES and tail.isdigit():
        return _FAMILIES[family](int(tail))
    raise OutOfRange(
        f"unknown group {name!r}: use a fixture name or family_N "
        f"with family in {sorted(_FAMILIES)}"
    )


def _cmd_wreath(args) -> int:
    from .wreath import fiber_partition, wreath

    bottom = _named_group(args.bottom)
    top = _named_group(args.top)
    product = wreath(bottom, top)
    fibers = [
        [p + 1 for p in block]
        for block in fiber_partition(bottom.degree, top.degree).blocks
    ]
    payload = {
        "bottom": {"name": args.bottom, "degree": bottom.degree},
        "top": {"name": args.top, "degree": top.degree},
        "degree": product.degree,
        "order": order(product),
        "generators": [format_cycles(g) for g in product.generators],
        "fibers": fibers,
        "indexing": "point = (fiber - 1) * bottom degree + position, 1-based",
    }
    lines = [
        f"wreath product of {args.bottom} (bottom) and {args.top} (top)",
        f"degree {product.degree}, order {order(product)}",
        "fibers: " + " | ".join(" ".join(str(p) for p in f) for f in fibers),
        "generators:",
    ]
    lines += ["  " + format_cycles(g) for g in product.generators]
    if args.out:
        Path(args.out).write_text(_envelope(payload) + "\n")
        lines.append(f"wrote {args.out}")
    return _emit(args, payload, lines)


# --------------------------------------------------------------- relations


def _witness_out(witness):
    if witness is None:
        return None
    if isinstance(witness, tuple) and all(isinstance(p, int) for p in witness):
        return [p + 1 for p in witness]
    return str(witness)


def _cmd_relations_build(args) -> int:
    from .relations import relation_to_object
    from .trees import b_from_poset, finite_c_model, lambda_word_model

    if args.model == "chain":
        if args.k is None or args.s is None:
            raise OutOfRange("the chain model needs --k and --s")
        model = finite_c_model(args.k, args.s)
        rel = model.relation
        meta = {"model": "chain", "k": args.k, "s": args.s, "family": "C"}
    else:
        if not args.values or args.s is None:
            raise OutOfRange("the word model needs --values and --s")
        values = _numbers_in("--values", args.values, Fraction)
        poset = lambda_word_model(values, args.s)
        rel = b_from_poset(poset).relation
        meta = {"model": "words", "s": args.s, "family": "B"}
    payload = dict(meta)
    payload["size"] = rel.size
    payload["relation"] = relation_to_object(rel)
    lines = [
        f"{meta['model']} model: {rel.size} points, arity {rel.arity},"
        f" {len(rel.tuples)} tuples (family {meta['family']})"
    ]
    return _emit(args, payload, lines)


def _cmd_relations_check(args) -> int:
    from .relations import json_document, relation_from_object
    from .trees import check_axioms

    if args.input == "-":
        # the bytes of a real stdin; a text stream has no buffer
        raw = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        raw = Path(args.input).read_bytes()
    data = json_document(raw)
    if isinstance(data, dict) and "report" in data:
        data = data["report"]
    if isinstance(data, dict) and "relation" in data:
        data = data["relation"]
    rel = relation_from_object(data)
    report = check_axioms(rel, args.family)
    payload = {
        "family": args.family,
        "ok": report.ok,
        "checks": [
            {"name": c.name, "holds": c.holds, "witness": _witness_out(c.witness)}
            for c in report.checks
        ],
        "reported": [
            {"name": c.name, "holds": c.holds, "witness": _witness_out(c.witness)}
            for c in report.reported
        ],
    }
    lines = [f"family {args.family}: {'ok' if report.ok else 'axiom failures'}"]
    for c in report.checks:
        mark = "pass" if c.holds else f"FAIL witness {_witness_out(c.witness)}"
        lines.append(f"  {c.name}: {mark}")
    for c in report.reported:
        mark = "holds" if c.holds else f"fails at {_witness_out(c.witness)}"
        lines.append(f"  {c.name} (reported only): {mark}")
    return _emit(args, payload, lines)


# ------------------------------------------------------------------ cantor


def _cmd_cantor(args) -> int:
    from .orders import cantor_forth

    source = _numbers_in("--source", args.source, Fraction)
    target = _numbers_in("--target", args.target, Fraction)
    result = cantor_forth(source, target)

    def edge(value, side):
        return side + "inf" if value is None else str(value)

    payload = {
        "mapping": [[str(a), str(b)] for a, b in result.mapping],
        "steps": [
            {
                "source": str(s.source),
                "interval": [edge(s.lower, "-"), edge(s.upper, "+")],
                "target": str(s.target),
                "target_index": s.target_index,
            }
            for s in result.steps
        ],
        "exhausted": None if result.exhausted is None else str(result.exhausted),
    }
    lines = [
        f"{s.source} in ({edge(s.lower, '-')}, {edge(s.upper, '+')})"
        f" -> {s.target} (target #{s.target_index + 1})"
        for s in result.steps
    ]
    lines.append(
        f"placed {len(result.mapping)}, exhausted: "
        + ("none" if result.exhausted is None else str(result.exhausted))
    )
    return _emit(args, payload, lines)


# ---------------------------------------------------------------------- lw


def _cmd_lw(args) -> int:
    if args.n < 0:
        raise OutOfRange(f"--n {args.n} is negative")
    if args.theta:
        parts = _numbers_in("--theta", args.theta, int)
        if len(parts) != 3:
            raise OutOfRange("--theta expects three integers r,s,t")
        r, s, t = parts
        rep = theta_exploration(args.n, r, s, t)
        payload = {
            "n": rep.n,
            "r": rep.r,
            "s": rep.s,
            "t": rep.t,
            "proportional": rep.proportional,
            "scalar": None if rep.scalar is None else str(rep.scalar),
            "rank_rs": rep.rank_rs,
            "rank_st": rep.rank_st,
            "rank_rt": rep.rank_rt,
        }
        lines = [
            f"theta composition on {rep.n} points, steps {rep.r}<={rep.s}<={rep.t}",
            f"proportional to the direct map: {rep.proportional}"
            + (f" (scalar {rep.scalar})" if rep.scalar is not None else ""),
            f"ranks: {rep.rank_rs} ({rep.r}->{rep.s}), {rep.rank_st} "
            f"({rep.s}->{rep.t}), {rep.rank_rt} ({rep.r}->{rep.t})",
        ]
        return _emit(args, payload, lines)
    if args.k is None:
        raise OutOfRange("need --k (inclusion matrix) or --theta r,s,t")
    n_rows, n_cols = _inclusion_shape(args.n, args.k)
    small = max(n_rows, n_cols) <= EXACT_RANK_LIMIT
    if args.csv or not small:
        # CSV rows and the modular route's array are both dense: refuse
        # them before a subset is listed
        _check_cells(n_rows, n_cols)
    matrix = build_r_matrix(args.n, args.k)
    if args.csv:
        sys.stdout.write(matrix.to_csv())
        return 0
    rank_value = _inclusion_rank(args.n, args.k, matrix.ones) if small else rank_mod_p(matrix)
    payload = {
        "n": args.n,
        "k": args.k,
        "rows": n_rows,
        "cols": n_cols,
        "rank": rank_value,
        "injective": rank_value == n_cols,
        "method": "exact" if small else "modular",
    }
    lines = [
        f"inclusion matrix from {args.k}-sets to {args.k - 1}-sets of"
        f" {args.n} points: {n_rows} x {n_cols}",
        f"rank {rank_value} ({payload['method']}), injective: {rank_value == n_cols}",
    ]
    return _emit(args, payload, lines)


# ------------------------------------------------------------------ parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="reports over finite permutation groups, orders and tree relations",
    )
    parser.add_argument("--version", action="version", version=f"permlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pass_help = "; ".join(f"{name}: {desc}" for name, (_, desc) in _PASSES.items())
    p_analyze = sub.add_parser("analyze", help="run report passes over one group")
    source = p_analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="corpus fixture name")
    source.add_argument("--gens", help="comma-separated generators in cycle notation")
    p_analyze.add_argument("--degree", type=int, help="degree for --gens")
    p_analyze.add_argument(
        "--pass",
        dest="passes",
        default="orbits,primitivity",
        help=f"comma-separated passes ({pass_help})",
    )
    p_analyze.add_argument("--base", type=int, default=1, help="base point for suborbits")
    p_analyze.add_argument("--points", help="comma-separated points for span")
    p_analyze.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_corpus = sub.add_parser("corpus", help="list or describe the built-in fixtures")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_list = corpus_sub.add_parser("list", help="every fixture with degree and notes")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_corpus_list)
    p_describe = corpus_sub.add_parser("describe", help="one fixture in full")
    p_describe.add_argument("name")
    p_describe.add_argument("--format", choices=("text", "json"), default="text")
    p_describe.set_defaults(func=_cmd_corpus_describe)

    p_suite = sub.add_parser("suite", help="run the seeded property battery")
    p_suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_suite.add_argument("--filter", default="", help="substring filter on property names")
    p_suite.add_argument("--format", choices=("text", "json"), default="text")
    p_suite.set_defaults(func=_cmd_suite)

    p_wreath = sub.add_parser("wreath", help="build an imprimitive wreath product")
    p_wreath.add_argument("--bottom", required=True, help="fixture name or family_N")
    p_wreath.add_argument("--top", required=True, help="fixture name or family_N")
    p_wreath.add_argument("--out", help="also write the JSON report to this path")
    p_wreath.add_argument("--format", choices=("text", "json"), default="text")
    p_wreath.set_defaults(func=_cmd_wreath)

    p_relations = sub.add_parser("relations", help="build and audit tree-like relations")
    rel_sub = p_relations.add_subparsers(dest="relations_command", required=True)
    p_build = rel_sub.add_parser("build", help="emit a relation from a finite model")
    p_build.add_argument("--model", choices=("chain", "words"), required=True)
    p_build.add_argument("--k", type=int, help="chain model: function positions")
    p_build.add_argument("--s", type=int, help="alphabet size")
    p_build.add_argument("--values", help="word model: ascending rationals, comma-separated")
    p_build.add_argument("--format", choices=("text", "json"), default="json")
    p_build.set_defaults(func=_cmd_relations_build)
    p_check = rel_sub.add_parser("check", help="audit a relation against an axiom family")
    p_check.add_argument("--family", choices=AXIOM_FAMILIES, required=True)
    p_check.add_argument("--input", required=True, help="relation JSON path, or - for stdin")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_relations_check)

    p_cantor = sub.add_parser(
        "cantor", help="back-and-forth matching between two finite orders"
    )
    p_cantor.add_argument("--source", required=True, help="comma-separated rationals")
    p_cantor.add_argument("--target", required=True, help="comma-separated rationals")
    p_cantor.add_argument("--format", choices=("text", "json"), default="text")
    p_cantor.set_defaults(func=_cmd_cantor)

    p_lw = sub.add_parser(
        "lw", help="subset inclusion matrices and their compositions"
    )
    p_lw.add_argument("--n", type=int, required=True, help="number of points")
    p_lw.add_argument("--k", type=int, help="inclusion matrix from k-sets to (k-1)-sets")
    p_lw.add_argument("--csv", action="store_true", help="print the matrix as CSV")
    p_lw.add_argument("--theta", help="three steps r,s,t for the composition report")
    p_lw.add_argument("--format", choices=("text", "json"), default="text")
    p_lw.set_defaults(func=_cmd_lw)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PermlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
