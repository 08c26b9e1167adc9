#!/usr/bin/env python3
"""Write tests/data/golden_cli.json: the CLI's stdout digests and exit codes.

Each case is one in-process ``permlab`` call under the default element
cap: ``analyze --format json`` for every corpus fixture and pass (span
with ``--points 1,2``), ``corpus describe --format json`` for every
fixture, ``analyze --format text`` and ``--format dot`` for the jordan,
suborbits and span passes on a few fixtures, ``analyze --gens`` with the
jordan and span passes in JSON and text for two relabeled fixtures (the
jordan pass alone for four more, among them the catalogs with the most
translates), the jordan pass for an intransitive group with fixed points,
samples of ``lw`` (rank, CSV and theta reports), ``wreath``,
``relations build`` and ``cantor`` in both formats, and ``relations
check`` in both formats on the relation files in ``tests/data/relations``
(two per axiom family, one of each failing several axioms, so the
witnesses are printed).  Paths are relative to the repository root,
where every case runs.  A change that must keep the CLI's bytes runs
``tests/test_golden.py``, which replays every case.

    PYTHONPATH=src python3 scripts/golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from permlab import cli
from permlab.fixtures import FIXTURE_NAMES, fixture
from permlab.perms import Permutation, format_cycles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "golden_cli.json"
PASSES = tuple(cli._PASSES)
SAMPLES = (
    "lw --n 5 --k 2 --format json",
    "lw --n 6 --k 3",
    "lw --n 12 --k 6 --format json",
    "lw --n 7 --k 3 --csv",
    "lw --n 4 --theta 1,2,3 --format json",
    "lw --n 7 --theta 1,3,5",
    "lw --n 10 --theta 2,3,4 --format json",
    "lw --n 6 --theta 3,2,1",
    "lw --n 11 --k 6 --format json",
    "lw --n 12 --k 5",
    "lw --n 9 --k 5 --format json",
    "lw --n 7 --theta 0,3,7",
    "lw --n 5 --theta 2,2,4 --format json",
    "lw --n 10 --k 3 --format json",
    "lw --n 8 --k 4",
    "lw --n 10 --k 5 --format json",
    "lw --n 11 --k 4",
    "lw --n 9 --k 4 --csv",
    "lw --n 12 --k 1 --format json",
    "lw --n 5 --k 5",
    "lw --n 7 --theta 2,3,4 --format json",
    "lw --n 7 --theta 0,0,7",
    "lw --n 12 --k 5 --format json",
    "lw --n 10 --k 4",
    "wreath --bottom cyclic_2 --top cyclic_3 --format json",
    "wreath --bottom symmetric_3 --top cyclic_4",
    "wreath --bottom cyclic_3 --top symmetric_3 --format json",
    "cantor --source 0,1,1/2 --target 5,7,6 --format json",
    "cantor --source 0,1,1/2 --target 5,7",
    "cantor --source 0,1/3,1/2,1 --target 0,2,7,9 --format json",
    "relations build --model chain --k 2 --s 2 --format json",
    "relations build --model chain --k 2 --s 2 --format text",
    "relations build --model words --values 1,3/2,2 --s 2 --format json",
    "relations build --model words --values 1,3/2,2 --s 2 --format text",
    # the = form, as argparse reads a bare -1/2 as an option
    "cantor --source=-1/2,0,1 --target 3,1/3,2",
)
# the passes and fixtures whose text and DOT renderings are pinned too
RENDERED_PASSES = ("jordan", "suborbits", "span")
RENDERED_FIXTURES = ("pg_2_2", "pg_2_3", "symmetric_5", "alternating_7", "c2wrc2wrc2", "dihedral_6")
# fixtures given by --gens under the relabeling p -> 5p + 2 (mod degree, a
# bijection as no degree is a multiple of 5), so their points no longer
# come in the order the fixture's orbits list them, with the passes pinned
RELABELED_FIXTURES = {
    "pg_2_3": ("jordan", "span"),
    "c2wrc2wrc2": ("jordan", "span"),
    "ag_2_3": ("jordan",),
    "symmetric_8": ("jordan",),
    "alternating_8": ("jordan",),
    "dihedral_4": ("jordan",),
}
# groups given by --gens and --degree whose jordan pass is pinned: every
# fixture is transitive, and these have several orbits and fixed points
GENERATED_GROUPS = (("(1 2 3 4),(1 2),(5 6 7)", 9),)
# relation files under tests/data/relations audited by relations check
CHECKED_RELATIONS = (
    ("semilinear_words", "semilinear"),
    ("semilinear_broken", "semilinear"),
    ("c_chain_k2_s3", "C"),
    ("c_separation_cut", "C"),
    ("b_words", "B"),
    ("b_broken", "B"),
    ("d_blocks", "D"),
    ("d_separation", "D"),
)


def _analyze(name: str, pass_name: str, fmt: str) -> list[str]:
    argv = ["analyze", "--fixture", name, "--pass", pass_name, "--format", fmt]
    if pass_name == "span":
        argv += ["--points", "1,2"]
    return argv


def _relabeled(name: str, pass_name: str, fmt: str) -> list[str]:
    group = fixture(name).group
    n = group.degree
    labels = [(5 * p + 2) % n for p in range(n)]
    gens = []
    for g in group.generators:
        images = [0] * n
        for p in range(n):
            images[labels[p]] = labels[g.images[p]]
        gens.append(format_cycles(Permutation(tuple(images))))
    argv = ["analyze", "--gens", ",".join(gens), "--degree", str(n), "--pass", pass_name]
    argv += ["--format", fmt]
    if pass_name == "span":
        argv += ["--points", "1,2"]
    return argv


def cases() -> list[list[str]]:
    out = []
    for name in FIXTURE_NAMES:
        out += [_analyze(name, pass_name, "json") for pass_name in PASSES]
        out.append(["corpus", "describe", name, "--format", "json"])
    out += [sample.split() for sample in SAMPLES]
    for name in RENDERED_FIXTURES:
        for pass_name in RENDERED_PASSES:
            out += [_analyze(name, pass_name, fmt) for fmt in ("text", "dot")]
    for name, passes in RELABELED_FIXTURES.items():
        for pass_name in passes:
            out += [_relabeled(name, pass_name, fmt) for fmt in ("json", "text")]
    for gens, degree in GENERATED_GROUPS:
        argv = ["analyze", "--gens", gens, "--degree", str(degree), "--pass", "jordan"]
        out += [argv + ["--format", fmt] for fmt in ("json", "text")]
    for name, family in CHECKED_RELATIONS:
        path = f"tests/data/relations/{name}.json"
        argv = ["relations", "check", "--family", family, "--input", path]
        out += [argv + ["--format", fmt] for fmt in ("json", "text")]
    return out


def run(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": digest}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args()
    os.environ.pop("PERMLAB_CAP", None)
    os.chdir(ROOT)
    rows = [json.dumps(run(argv), sort_keys=True) for argv in cases()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text('{"cases": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"wrote {len(rows)} cases to {args.out}")


if __name__ == "__main__":
    main()
