#!/usr/bin/env python3
"""Write tests/data/golden_cli.json: the CLI's stdout digests and exit codes.

Each case is one in-process ``permlab`` call under the default element
cap: ``analyze --format json`` for every corpus fixture and pass (span
with ``--points 1,2``), and ``corpus describe --format json`` for every
fixture.  The ``jordan`` pass on symmetric_8 and alternating_8 is left
out: each takes about half a minute.  A change that must keep the CLI's
bytes runs ``tests/test_golden.py``, which replays every case.

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
from permlab.fixtures import FIXTURE_NAMES

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_cli.json"
PASSES = tuple(cli._PASSES)
SKIPPED = {("symmetric_8", "jordan"), ("alternating_8", "jordan")}


def cases() -> list[list[str]]:
    out = []
    for name in FIXTURE_NAMES:
        for pass_name in PASSES:
            if (name, pass_name) in SKIPPED:
                continue
            argv = ["analyze", "--fixture", name, "--pass", pass_name, "--format", "json"]
            if pass_name == "span":
                argv += ["--points", "1,2"]
            out.append(argv)
        out.append(["corpus", "describe", name, "--format", "json"])
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
    rows = [json.dumps(run(argv), sort_keys=True) for argv in cases()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text('{"cases": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"wrote {len(rows)} cases to {args.out}")


if __name__ == "__main__":
    main()
