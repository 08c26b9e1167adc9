"""The CLI in fresh processes: ``analyze --gens`` and ``lw`` load none of
the modules that only other verbs use, and each of those verbs still
answers with the bytes it gives in process when it runs cold.

Every CLI call runs in a new process, so ``permlab.cli`` defers the
imports of fixtures, wreath, suite, trees, relations and orders to the
verbs that run them; a module-level import added back to ``cli`` shows
in the first test, and a deferred import missing from a verb in the
second.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import permlab
from permlab.cli import _PASSES, main
from permlab.relations import relation_to_object
from permlab.trees import finite_c_model

SRC = Path(permlab.__file__).parent.parent
GOLDEN = {
    tuple(case["argv"]): case
    for case in json.loads(
        (Path(__file__).parent / "data" / "golden_cli.json").read_text()
    )["cases"]
}
DEFERRED = ("fixtures", "wreath", "suite", "trees", "relations", "orders")
EAGER = ("groups", "blocks", "jordan", "incidence", "perms", "config", "errors")

_RUN_AND_LIST_MODULES = """
import contextlib, io, json, sys
from permlab import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("permlab."))))
"""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PERMLAB_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return env


def test_analyze_and_lw_load_no_deferred_module():
    every_pass = ",".join(_PASSES)
    gens = ["analyze", "--gens", "(1 2 3 4 5),(1 2)", "--degree", "5"]
    argvs = [
        gens + ["--pass", every_pass, "--points", "1,2", "--format", fmt]
        for fmt in ("text", "json", "dot")
    ]
    argvs += [
        ["lw", "--n", "7", "--k", "3", "--format", "json"],
        ["lw", "--n", "12", "--k", "6"],
        ["lw", "--n", "6", "--k", "3", "--csv"],
        ["lw", "--n", "7", "--theta", "1,3,5", "--format", "json"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, json.dumps(argvs)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = {name.removeprefix("permlab.") for name in json.loads(done.stdout)}
    assert not loaded & set(DEFERRED)
    assert set(EAGER) <= loaded


def _relation_text() -> str:
    return json.dumps(relation_to_object(finite_c_model(2, 2).relation))


# one call of each verb that imports a deferred module, with its stdin
COLD_CASES = [
    (("suite", "--filter", "dense-order-maps", "--format", "json"), ""),
    (("relations", "build", "--model", "chain", "--k", "2", "--s", "2", "--format", "json"), ""),
    (("relations", "check", "--family", "C", "--input", "-", "--format", "json"), _relation_text()),
    (("cantor", "--source", "0,1,1/2", "--target", "5,7,6", "--format", "json"), ""),
    (("wreath", "--bottom", "cyclic_2", "--top", "cyclic_3", "--format", "json"), ""),
    (("corpus", "describe", "c2wrc2", "--format", "json"), ""),
    (("analyze", "--fixture", "c2wrc2wrc2", "--pass", "jordan", "--format", "json"), ""),
]


def _in_process_sha256(argv, stdin: str, monkeypatch) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def cold_runs() -> dict:
    """Each cold case's finished process, two at a time (the tier-1 run
    is serial, so a second process has a core of its own)."""

    def run(case):
        argv, stdin = case
        return subprocess.run(
            [sys.executable, "-m", "permlab.cli", *argv],
            cwd=SRC,
            env=_env(),
            input=stdin.encode(),
            capture_output=True,
            timeout=120,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip((argv for argv, _ in COLD_CASES), pool.map(run, COLD_CASES)))


@pytest.mark.parametrize("argv,stdin", COLD_CASES, ids=[" ".join(a[:2]) for a, _ in COLD_CASES])
def test_a_deferred_verb_answers_cold_with_its_in_process_bytes(
    argv, stdin, cold_runs, monkeypatch
):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    done = cold_runs[argv]
    assert done.returncode == 0, done.stderr.decode()
    golden = GOLDEN.get(argv)
    if golden is not None:
        expected = golden["stdout_sha256"]
    else:
        expected = _in_process_sha256(argv, stdin, monkeypatch)
    assert hashlib.sha256(done.stdout).hexdigest() == expected
