"""The CLI's bytes against a committed snapshot, the whole battery's JSON
against its pinned sha256, and a battery slice under ``python -O``
against the normal run.

``tests/data/golden_cli.json`` holds the sha256 of stdout and the exit
code of every case ``scripts/golden.py`` lists; regenerate it with that
script only when an output is meant to change.  Every case runs in the
repository root, as the relation files it names are relative to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permlab
from permlab.cli import main
from permlab.suite import run_battery

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())["cases"]
SRC = Path(permlab.__file__).parent.parent
ROOT = Path(__file__).resolve().parent.parent
# sha256 of the stdout of ``permlab suite --format json`` (default seed and cap)
SUITE_JSON_SHA256 = "f10669936c2c7ac9bae9bdf31877f691669c247319746d40b27582d790a06df0"


def _case_id(case) -> str:
    """The first five words; an analyze case in text or DOT adds its format.
    An analyze case given by --gens names its degree, pass and format."""
    argv = case["argv"]
    if argv[:2] == ["analyze", "--gens"]:
        return " ".join(["analyze", "--gens", *argv[3:9]])
    label = " ".join(argv[:5])
    if argv[0] == "analyze" and argv[6] != "json":
        label += f" {argv[6]}"
    return label


def _case_ids(cases) -> list[str]:
    """Each case's _case_id; a case whose id an earlier case already took
    adds its remaining words."""
    ids = []
    for case in cases:
        label = _case_id(case)
        if label in ids:
            label = " ".join(case["argv"])
        ids.append(label)
    return ids


@pytest.mark.parametrize("case", GOLDEN, ids=_case_ids(GOLDEN))
def test_cli_output_matches_the_golden_snapshot(case, monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.chdir(ROOT)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == case["stdout_sha256"]


@pytest.mark.parametrize(
    "name",
    [
        "separation-witnesses",
        "coset-covers",
        "involution-factorization",
        "wreath-algebra",
        "subset-incidence",
        "jordan-span-geometry",
    ],
)
def test_battery_verdicts_survive_optimize(name):
    done = subprocess.run(
        [sys.executable, "-O", "-m", "permlab.cli", "suite", "--filter", name, "--format", "json"],
        cwd=SRC,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    optimized = json.loads(done.stdout)["report"]["properties"]
    normal = [
        {"name": r.name, "passed": r.passed, "detail": r.detail}
        for r in run_battery(name_filter=name)
    ]
    assert optimized == normal
    assert all(p["passed"] for p in normal)


def test_suite_json_matches_its_pinned_sha256(monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["suite", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == SUITE_JSON_SHA256
    env = {k: v for k, v in os.environ.items() if k != "PERMLAB_CAP"}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "permlab.cli", "suite", "--format", "json"],
        cwd=SRC,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == SUITE_JSON_SHA256
