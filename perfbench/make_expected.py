"""Regenerate perfbench/expected.json, the answers the benchmark checks.

Run from the repository root:

    PYTHONPATH=src:tests python3 perfbench/make_expected.py

Answers come from the CLI itself on the original fixture labels, then are
cross-checked once: against the brute-force oracles in tests/oracles.py
for every group of degree at most 7, and against known formulas (group
orders; Sym(n) is n-transitive, Alt(n) is (n-2)-transitive).  Any
disagreement stops the script before the file is written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from itertools import combinations, permutations

import oracles
from permlab.fixtures import FIXTURE_NAMES, fixture
from permlab.groups import order, symmetric_group
from permlab.perms import format_cycles
from permlab.suite import DEFAULT_SEED, run_battery

import workloads

ORDERS = {
    "pg_2_2": 168,
    "pg_2_3": 5616,
    "ag_2_2": 24,
    "ag_2_3": 432,
    "c2wrc2": 8,
    "c2wrc3": 24,
    "c3wrc2": 18,
    "c3wrc3": 81,
    "c2wrc2wrc2": 128,
}
BATTERY_FAILS = {"tree-relation-axioms"}  # the documented strict xfail


def formula_order(name: str, n: int) -> int:
    family = name.rpartition("_")[0]
    return {
        "cyclic": n,
        "dihedral": 2 * n,
        "symmetric": math.factorial(n),
        "alternating": math.factorial(n) // 2,
    }.get(family) or ORDERS[name]


def analyze(gens: str, n: int, pass_name: str, *extra: str) -> dict:
    argv = ["analyze", "--gens", gens, "--degree", str(n), "--pass", pass_name]
    code, text = workloads.call_cli(argv + ["--format", "json", *extra])
    if code != 0:
        raise SystemExit(f"analyze {pass_name} on {gens} exited {code}")
    return json.loads(text)["report"]["passes"][pass_name]


def group_answers(name: str, group) -> dict:
    n = group.degree
    gens = ",".join(format_cycles(g) for g in group.generators)
    ident = list(range(n))
    answers = {"degree": n, "generators": [format_cycles(g) for g in group.generators]}
    answers["orbits"] = workloads._partition(analyze(gens, n, "orbits")["orbits"], ident)
    prim = analyze(gens, n, "primitivity")
    answers["primitivity"] = [prim["transitive"], prim["primitive"]]
    answers["suborbits"] = {
        str(b): sorted(analyze(gens, n, "suborbits", "--base", str(b))["subdegrees"])
        for b in range(1, n + 1)
    }
    answers["congruences"] = sorted(
        workloads._partition(c["blocks"], ident)
        for c in analyze(gens, n, "congruences")["congruences"]
    )
    passes = workloads.BEYOND_CAP_PASSES if name == workloads.BEYOND_CAP else workloads.PASSES
    for pass_name in ("transitivity", "homogeneity"):
        if pass_name in passes:
            answers[pass_name] = analyze(gens, n, pass_name)[f"{pass_name}_degree"]
    pairs = list(combinations(range(1, n + 1), 2))
    if name == workloads.BEYOND_CAP:
        answers["jordan"] = None  # formula in workloads.symmetric_jordan_sets
        answers["span"] = {f"{a},{b}": [a, b] for a, b in pairs}
        return answers
    if (name, "jordan") in workloads.SKIPPED:
        answers["jordan"] = None
    else:
        answers["jordan"] = sorted(
            [s["points"], s["proper"], s["witness_order"]]
            for s in analyze(gens, n, "jordan")["sets"]
        )
    answers["span"] = {
        f"{a},{b}": analyze(gens, n, "span", "--points", f"{a},{b}")["span"]
        for a, b in pairs
    }
    return answers


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def oracle_check(name: str, group, answers: dict) -> None:
    n = group.degree
    gens = list(group.generators)
    elements = oracles.closure(gens)

    def one_based(blocks):
        return sorted(sorted(p + 1 for p in b) for b in blocks)

    def degree_of(items_for):
        best = 0
        for k in range(1, n + 1):
            if not oracles.is_transitive_on(gens, items_for(k)):
                break
            best = k
        return best

    transitive = oracles.is_transitive_on(gens, list(range(n)))
    congruences = []
    for part in set_partitions(list(range(n))):
        block_of = {p: frozenset(b) for b in part for p in b}
        if all(
            frozenset(g.images[p] for p in block_of[q]) == block_of[g.images[q]]
            for g in gens
            for q in range(n)
        ):
            congruences.append(one_based(part))
    tdeg = degree_of(lambda k: list(permutations(range(n), k)))
    jordan = []
    for m in range(2, n + 1):
        for combo in combinations(range(n), m):
            if oracles.brute_jordan(elements, set(combo)):
                outside = [p for p in range(n) if p not in combo]
                fixing = sum(1 for g in elements if all(g.images[p] == p for p in outside))
                proper = tdeg < len(outside) + 1
                jordan.append([[p + 1 for p in combo], proper, fixing])
    oracle = {
        "orbits": one_based(oracles.orbits_on(gens, list(range(n)))),
        "primitivity": [transitive, len(congruences) == 2 if transitive else None],
        "suborbits": {
            str(b + 1): sorted(
                len(o)
                for o in oracles.orbits_on(
                    list(oracles.stabilizer_filter(elements, b)), list(range(n))
                )
            )
            for b in range(n)
        },
        "congruences": sorted(congruences),
        "transitivity": tdeg,
        "homogeneity": degree_of(
            lambda k: [frozenset(c) for c in combinations(range(n), k)]
        ),
        "jordan": sorted(jordan),
    }
    oracle["span"] = {}
    for key in answers["span"]:
        given = {int(p) for p in key.split(",")}
        covered = {p for s, _, _ in jordan if not given & set(s) for p in s}
        oracle["span"][key] = [p for p in range(1, n + 1) if p not in covered]
    for key, value in oracle.items():
        if answers[key] != value:
            raise SystemExit(f"{name}: {key} disagrees with tests/oracles.py")


def formula_check(name: str, group, answers: dict) -> None:
    n = group.degree
    if order(group) != formula_order(name, n):
        raise SystemExit(f"{name}: order {order(group)} is not {formula_order(name, n)}")
    if answers["jordan"] is not None:
        whole = [s for s in answers["jordan"] if len(s[0]) == n]
        if whole and whole[0][2] != formula_order(name, n):
            raise SystemExit(f"{name}: whole-set witness order is not the group order")
    family = name.rpartition("_")[0]
    want = {"symmetric": n, "alternating": n - 2}.get(family)
    if want is not None and answers["transitivity"] != want:
        raise SystemExit(f"{name}: transitivity degree {answers['transitivity']} is not {want}")


def inclusion_csv_ok(n: int, k: int, text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    big = _colex(n, k)
    small = _colex(n, k - 1)
    return rows == [
        ["1" if set(f) <= set(s) else "0" for f in small] for s in big
    ]


def _colex(n: int, k: int):
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def main() -> None:
    groups = {}
    named = [(name, fixture(name).group) for name in FIXTURE_NAMES]
    named.append((workloads.BEYOND_CAP, symmetric_group(12)))
    for name, group in named:
        answers = group_answers(name, group)
        if name != workloads.BEYOND_CAP:
            formula_check(name, group, answers)
            if group.degree <= 7:
                oracle_check(name, group, answers)
        groups[name] = answers
        print(f"{name}: ok", file=sys.stderr)
    theta = {}
    for n in workloads.THETA_POINTS:
        for r in range(n + 1):
            for s in range(r, n + 1):
                for t in range(s, n + 1):
                    argv = ["lw", "--n", str(n), "--theta", f"{r},{s},{t}", "--format", "json"]
                    code, text = workloads.call_cli(argv)
                    theta[f"{n}:{r},{s},{t}"] = json.loads(text)["report"]
    digests = {}
    for n in workloads.CSV_POINTS:
        for k in range(1, (n + 1) // 2 + 1):
            code, text = workloads.call_cli(["lw", "--n", str(n), "--k", str(k), "--csv"])
            if code != 0 or not inclusion_csv_ok(n, k, text):
                raise SystemExit(f"lw --n {n} --k {k} --csv is not the inclusion matrix")
            digests[f"{n}:{k}"] = hashlib.sha256(text.encode()).hexdigest()
    battery = {r.name: r.passed for r in run_battery(DEFAULT_SEED)}
    if {name for name, passed in battery.items() if not passed} != BATTERY_FAILS:
        raise SystemExit(f"battery verdicts changed: {battery}")
    doc = {"groups": groups, "theta": theta, "csv_sha256": digests, "battery": battery}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
