"""Request sets and answer checks for the benchmark workloads.

Every request is built from the seed, the round's index and the committed
expected answers alone (each round of a run draws its own inputs; battery
has one input per seed), without calling permlab, so building the request
list does no work that a request could later find cached.  A request's
check returns None for a correct answer and a one-line reason otherwise.

analyze    in-process ``permlab analyze`` calls: every corpus fixture,
           relabeled by a seeded point permutation so each seed gives new
           GenGroup cache keys, under all eight passes, plus every pass but
           ``transitivity`` on a relabeled symmetric_12, where ``jordan``
           and ``span`` may exit 3 at the element cap and the other passes
           must answer; that slice runs last.  The corpus groups' requests
           interleave in a seeded order, each group's passes in the CLI's
           order: the first pass that enumerates a group pays for it and
           later passes reuse the caches, so a fixed pass order keeps the
           same requests in the latency tail from seed to seed.
           symmetric_8 and alternating_8 skip ``jordan``: those two requests alone cost several times the
           rest of the corpus, so with them a run would time one
           mechanism.  symmetric_12 ``transitivity`` is left out because
           it never finishes (the unbounded ``_item_orbit_is_everything``
           walk), and a workload must not hold a request that fails.
incidence  in-process ``permlab lw`` calls: every ``--n N --k K`` with
           4 <= N <= 12 and N >= 2K-1 (exact and mod-p rank routes), every
           ``--theta r,s,t`` on 7 points, one seeded member of every mirror
           pair (r,s,t) ~ (n-t,n-s,n-r) on 5 and 6 points, and one seeded
           ``--csv`` matrix on each of 6, 7, 8 points.  Mirror pairs have the
           same matrix shapes, so the draw changes the inputs but hardly the
           work; drawing on 7 points too would move which requests make up
           the latency tail from seed to seed.
battery    one ``run_battery(seed)`` call, the package's verification gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

PASSES = (
    "orbits",
    "primitivity",
    "suborbits",
    "congruences",
    "transitivity",
    "homogeneity",
    "jordan",
    "span",
)
SKIPPED = {("symmetric_8", "jordan"), ("alternating_8", "jordan")}
BEYOND_CAP = "symmetric_12"
BEYOND_CAP_PASSES = tuple(p for p in PASSES if p != "transitivity")
# The beyond-cap passes that exit 3 at the element cap today; either that
# exit or the expected answer is correct for them, and only for them.
CAP_PASSES = ("jordan", "span")
CAP_EXIT = 3

THETA_POINTS = (5, 6, 7)
THETA_DRAWN = (5, 6)
CSV_POINTS = (6, 7, 8)

# The slowest request that completes on the seed commit takes about 2.5 s
# (analyze, incidence) and 30 s (battery); each limit is at least twice that.
TIME_LIMIT_S = {"analyze": 10.0, "incidence": 10.0, "battery": 90.0}

@dataclass
class Request:
    rid: int
    group: str
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request: (exit code, stdout)."""
    from permlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _report(code: int, text: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text)["report"], None
    except (ValueError, KeyError) as exc:
        return None, f"unreadable report: {exc}"


# ----------------------------------------------------------------- analyze


def relabel_cycles(text: str, labels: list[int]) -> str:
    """Cycle notation of the conjugate by a point relabeling (1-based out)."""
    return re.sub(r"\d+", lambda m: str(labels[int(m.group()) - 1] + 1), text)


def _partition(blocks, back) -> list[list[int]]:
    return sorted(sorted(back[p - 1] + 1 for p in block) for block in blocks)


def _analyze_check(pass_name, expected, back, arg, allow_cap_exit):
    def check(result) -> str | None:
        code, text = result
        if allow_cap_exit and code == CAP_EXIT:
            return None
        report, problem = _report(code, text)
        if problem:
            return problem
        got = report["passes"][pass_name]
        want = expected[pass_name]
        if pass_name == "orbits":
            value = _partition(got["orbits"], back)
        elif pass_name == "primitivity":
            value = [got["transitive"], got["primitive"]]
        elif pass_name == "suborbits":
            value = sorted(got["subdegrees"])
            want = want[str(arg)]
        elif pass_name == "congruences":
            value = sorted(_partition(c["blocks"], back) for c in got["congruences"])
            if got["count"] != len(value):
                return "congruence count disagrees with the list"
        elif pass_name in ("transitivity", "homogeneity"):
            value = got[f"{pass_name}_degree"]
        elif pass_name == "jordan":
            value = sorted(
                [sorted(back[p - 1] + 1 for p in s["points"]), s["proper"], s["witness_order"]]
                for s in got["sets"]
            )
            if got["count"] != len(value):
                return "jordan count disagrees with the list"
            if want is None:
                want = symmetric_jordan_sets(len(back))
        else:
            value = sorted(back[p - 1] + 1 for p in got["span"])
            want = want[f"{arg[0]},{arg[1]}"]
        if value != want:
            return f"{pass_name} answer differs from the expected one"
        return None

    return check


def symmetric_jordan_sets(n: int) -> list:
    """Jordan catalog of Sym(n): every set of 2+ points, all improper,
    witnessed by the full symmetric group on the set."""
    return sorted(
        [list(c), False, math.factorial(m)]
        for m in range(2, n + 1)
        for c in combinations(range(1, n + 1), m)
    )


def analyze_requests(seed: int, round_index: int, expected: dict) -> list[Request]:
    rng = random.Random(f"analyze:{seed}:{round_index}")
    streams = []
    for name, entry in expected["groups"].items():
        passes = BEYOND_CAP_PASSES if name == BEYOND_CAP else PASSES
        n = entry["degree"]
        labels = list(range(n))
        rng.shuffle(labels)
        back = [0] * n
        for original, new in enumerate(labels):
            back[new] = original
        gens = ",".join(relabel_cycles(g, labels) for g in entry["generators"])
        plan = []
        for pass_name in passes:
            if (name, pass_name) in SKIPPED:
                continue
            argv = ["analyze", "--gens", gens, "--degree", str(n), "--pass", pass_name]
            argv += ["--format", "json"]
            arg = None
            if pass_name == "suborbits":
                arg = rng.randrange(n) + 1
                argv += ["--base", str(labels[arg - 1] + 1)]
            elif pass_name == "span":
                arg = sorted(rng.sample(range(1, n + 1), 2))
                argv += ["--points", ",".join(str(labels[p - 1] + 1) for p in arg)]
            allow_cap_exit = name == BEYOND_CAP and pass_name in CAP_PASSES
            check = _analyze_check(pass_name, entry, back, arg, allow_cap_exit)
            plan.append((name, pass_name, argv, check))
        if name == BEYOND_CAP:
            beyond_cap = plan
        else:
            streams.append(plan)
    # A seeded interleaving of the corpus groups' streams, each kept in pass
    # order, then the beyond-cap slice, whose cap-sized enumerations sit on
    # top of every cache the corpus left, so peak RSS does not vary by seed.
    turns = [turn for plan in streams for turn in [iter(plan)] * len(plan)]
    rng.shuffle(turns)
    order = [next(turn) for turn in turns] + beyond_cap
    return [
        Request(i, name, pass_name, lambda argv=argv: call_cli(argv), check)
        for i, (name, pass_name, argv, check) in enumerate(order)
    ]


# --------------------------------------------------------------- incidence


def _rank_check(n: int, k: int):
    def check(result) -> str | None:
        report, problem = _report(*result)
        if problem:
            return problem
        want = (math.comb(n, k), math.comb(n, k - 1), math.comb(n, k - 1), True)
        got = (report["rows"], report["cols"], report["rank"], report["injective"])
        return None if got == want else f"rank report {got} differs from {want}"

    return check


def _theta_check(want: dict):
    def check(result) -> str | None:
        report, problem = _report(*result)
        if problem:
            return problem
        return None if report == want else "theta report differs from the expected one"

    return check


def _csv_check(digest: str):
    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        got = hashlib.sha256(text.encode()).hexdigest()
        return None if got == digest else "CSV digest differs from the expected one"

    return check


def incidence_requests(seed: int, round_index: int, expected: dict) -> list[Request]:
    rng = random.Random(f"incidence:{seed}:{round_index}")
    plan = []
    for n in range(4, 13):
        for k in range(1, (n + 1) // 2 + 1):
            argv = ["lw", "--n", str(n), "--k", str(k), "--format", "json"]
            plan.append(("rank", f"n={n} k={k}", argv, _rank_check(n, k)))
    thetas = expected["theta"]
    for n in THETA_POINTS:
        for r in range(n + 1):
            for s in range(r, n + 1):
                for t in range(s, n + 1):
                    triple = (r, s, t)
                    if n in THETA_DRAWN:
                        mirror = (n - t, n - s, n - r)
                        if mirror < triple:
                            continue
                        triple = rng.choice(sorted({triple, mirror}))
                    theta = ",".join(map(str, triple))
                    key = f"{n}:{theta}"
                    argv = ["lw", "--n", str(n), "--theta", theta, "--format", "json"]
                    plan.append(("theta", key, argv, _theta_check(thetas[key])))
    for n in CSV_POINTS:
        k = rng.randrange(1, (n + 1) // 2 + 1)
        key = f"{n}:{k}"
        argv = ["lw", "--n", str(n), "--k", str(k), "--csv"]
        plan.append(("csv", key, argv, _csv_check(expected["csv_sha256"][key])))
    rng.shuffle(plan)
    return [
        Request(i, kind, label, lambda argv=argv: call_cli(argv), check)
        for i, (kind, label, argv, check) in enumerate(plan)
    ]


# ----------------------------------------------------------------- battery


def battery_requests(seed: int, round_index: int, expected: dict) -> list[Request]:
    want = expected["battery"]

    def run():
        from permlab import suite

        return suite.run_battery(seed)

    def check(results) -> str | None:
        got = {r.name: r.passed for r in results}
        if got != want:
            wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return f"unexpected verdicts: {', '.join(wrong)}"
        return None

    return [Request(0, "battery", f"seed {seed}", run, check)]


REQUESTS = {
    "analyze": analyze_requests,
    "incidence": incidence_requests,
    "battery": battery_requests,
}
