"""The CLI front end against the routes it replaced: the verb route of
cli._parse against the top parser's parse_args, and the one-pass JSON
envelope against json.dumps (``oracles.json_envelope``).

The verb route must give the same stdout, stderr and exit code as
parse_args on every argv, and the same namespace apart from ``command``
wherever both parse.  Both routes run on the interpreter at hand, so the
comparison holds on every Python the package admits.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import cli
from permlab.fixtures import FIXTURE_NAMES, fixture
from permlab.groups import symmetric_group
from permlab.perms import format_cycles

import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_cli.json").read_text())["cases"]

# argv past the golden cases: leftovers, top-level options after a verb,
# "--", "=" forms, abbreviations, repeats, help and no words at all
EDGE_ARGV = [
    ["lw", "--n", "5", "--k", "2", "extra"],
    ["lw", "--n", "5", "--bogus"],
    ["analyze", "--fixture", "cyclic_4", "--bogus", "x", "y"],
    ["lw", "--n", "5", "--version"],
    ["lw", "--n", "5", "--ver"],
    ["lw", "--n", "5", "-v"],
    ["lw", "--", "--n", "5"],
    ["lw", "--n", "5", "--k", "2", "--"],
    ["lw", "--n=5", "--k=2", "--format=json"],
    ["analyze", "--fixture=cyclic_4", "--pass=orbits"],
    ["analyze", "--f", "cyclic_4"],
    ["analyze", "--fix", "cyclic_4", "--form", "json"],
    ["lw", "--n", "5", "--n", "6", "--k", "2"],
    ["analyze", "--fixture", "cyclic_4", "--fixture", "cyclic_5"],
    ["analyze", "--fixture", "cyclic_4", "--gens", "(1 2)"],
    ["lw", "-h"],
    ["lw", "--he"],
    ["lw", "--n", "5", "-h", "--bogus"],
    ["lw", "-hx"],
    [],
    ["corpus", "list", "--bad"],
    ["--version"],
    ["--ver"],
    ["-h"],
    ["nosuchverb"],
    ["ana", "--fixture", "cyclic_4"],
    ["lw"],
    ["lw", "--n", "five"],
    ["lw", "--n", "-1", "--k", "1"],
    ["lw", "--n", "5", "--=x"],
    ["lw", "--=", "--n", "5"],
    ["lw", "--n", "5", "--", "--=x"],
    ["analyze", "--format", "xml", "--fixture", "cyclic_4"],
    ["cantor", "--source", "-1/2,0", "--target", "1,2"],
    ["cantor", "--source=-1/2,0", "--target", "1,2"],
    ["suite", "--seed", "3", "--filter", "x", "--seed", "4"],
    ["wreath", "--bottom", "cyclic_2"],
]
# verbs with subcommands: a bad one, none, and leftovers after a good one
SUBCOMMAND_ARGV = [
    ["corpus"],
    ["corpus", "bogus"],
    ["corpus", "describe"],
    ["corpus", "describe", "cyclic_4", "extra"],
    ["corpus", "--format", "json"],
    ["relations"],
    ["relations", "bogus"],
    ["relations", "build"],
    ["relations", "build", "--model", "chain", "extra"],
    ["relations", "build", "--model", "trees"],
    ["relations", "check"],
    ["relations", "check", "--family", "Z", "--input", "x"],
    ["relations", "check", "--family", "C"],
]
HELP_ARGV = [[verb, "--help"] for verb in cli._verb_parsers()] + [
    ["corpus", "list", "--help"],
    ["corpus", "describe", "-h"],
    ["relations", "build", "--help"],
    ["relations", "check", "-h"],
]
CORPUS = [case["argv"] for case in GOLDEN] + EDGE_ARGV + SUBCOMMAND_ARGV + HELP_ARGV


def _parsed(parse, argv):
    """(stdout, stderr, exit code, namespace) of one parse; the exit code
    is None when it returns and the namespace None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, args


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(a)[:60] for a in CORPUS])
def test_the_verb_route_parses_as_the_top_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    want = _parsed(cli._build_parser().parse_args, argv)
    got = _parsed(cli._parse, argv)
    assert got[:3] == want[:3]
    if want[3] is None:
        assert got[3] is None
    else:
        assert want[3].pop("command") == argv[0]
        assert got[3] == want[3]


def test_the_corpus_reaches_every_outcome():
    outcomes = {_parsed(cli._parse, argv)[2] for argv in CORPUS}
    assert outcomes == {None, 0, 2}


@pytest.mark.parametrize("case", GOLDEN[::40], ids=lambda case: " ".join(case["argv"])[:60])
def test_main_parses_a_verb_argv_without_the_top_parser(case, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the top parser parsed a verb's argv")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli._build_parser(), "parse_args", unreachable)
    monkeypatch.setattr(cli._build_parser(), "parse_known_args", unreachable)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(case["argv"]) == case["exit"]


# ----------------------------------------------------------- the envelope


def _payloads(argvs, monkeypatch) -> list:
    """The payload of every JSON report main writes for these argv."""
    payloads = []
    envelope = cli._envelope

    def record(payload):
        payloads.append(payload)
        return envelope(payload)

    with (
        monkeypatch.context() as patch,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        patch.setattr(cli, "_envelope", record)
        for argv in argvs:
            cli.main(argv)
    return payloads


def test_the_envelope_equals_json_dumps_on_every_golden_report(monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.chdir(ROOT)
    argvs = [case["argv"] for case in GOLDEN if "json" in case["argv"]]
    payloads = _payloads(argvs, monkeypatch)
    assert len(payloads) == len(argvs)
    for payload in payloads:
        assert cli._envelope(payload) == oracles.json_envelope(payload)


def _relabeled(group, rng) -> tuple[str, list[int]]:
    n = group.degree
    labels = list(range(n))
    rng.shuffle(labels)
    gens = ",".join(
        re.sub(r"\d+", lambda m: str(labels[int(m.group()) - 1] + 1), format_cycles(g))
        for g in group.generators
    )
    return gens, labels


def _analyze_round(seed: int) -> list[list[str]]:
    """One round's analyze requests: every corpus fixture under a seeded
    relabeling and every pass, then symmetric_12 past the cap."""
    rng = random.Random(seed)
    groups = [(name, fixture(name).group) for name in FIXTURE_NAMES]
    groups.append(("symmetric_12", symmetric_group(12)))
    out = []
    for name, group in groups:
        n = group.degree
        gens, labels = _relabeled(group, rng)
        for pass_name in cli._PASSES:
            if (name, pass_name) in {("symmetric_8", "jordan"), ("alternating_8", "jordan")}:
                continue
            if (name, pass_name) == ("symmetric_12", "transitivity"):
                continue
            argv = ["analyze", "--gens", gens, "--degree", str(n), "--pass", pass_name]
            argv += ["--format", "json"]
            if pass_name == "suborbits":
                argv += ["--base", str(labels[rng.randrange(n)] + 1)]
            elif pass_name == "span":
                argv += ["--points", ",".join(str(labels[p] + 1) for p in rng.sample(range(n), 2))]
            out.append(argv)
    return out


def _incidence_round() -> list[list[str]]:
    """One round's lw JSON requests: ranks for 4 <= n <= 12 and every theta
    triple on 5, 6 and 7 points."""
    out = []
    for n in range(4, 13):
        for k in range(1, (n + 1) // 2 + 1):
            out.append(["lw", "--n", str(n), "--k", str(k), "--format", "json"])
    for n in (5, 6, 7):
        for r in range(n + 1):
            for s in range(r, n + 1):
                for t in range(s, n + 1):
                    argv = ["lw", "--n", str(n), "--theta", f"{r},{s},{t}", "--format", "json"]
                    out.append(argv)
    return out


def test_the_envelope_equals_json_dumps_on_a_benchmark_round(monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    analyze = _payloads(_analyze_round(2601), monkeypatch)
    incidence = _payloads(_incidence_round(), monkeypatch)
    # every analyze request but symmetric_12's jordan and span (exit 3)
    assert len(analyze) == len(FIXTURE_NAMES) * 8 - 2 + 5
    assert len(incidence) == 38 + 56 + 84 + 120
    for payload in analyze + incidence:
        assert cli._envelope(payload) == oracles.json_envelope(payload)


# ------------------------------------------------- generated payloads

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.floats(),
)
_KEYS = st.one_of(st.text(max_size=5), st.integers(-3, 3))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3),
    ),
    max_leaves=20,
)


def _written(value) -> str:
    out: list[str] = []
    cli._write_json(value, "", out)
    return "".join(out)


def _outcome(write, value):
    """The text written, or the type and message of what was raised."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(_VALUES)
def test_the_writer_equals_json_dumps_on_generated_values(value):
    assert _outcome(_written, value) == _outcome(_dumped, value)
    assert _outcome(cli._envelope, value) == _outcome(oracles.json_envelope, value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": {}, "b": [[]], "c": ({},)},
        [1, True, 2],
        [True, False],
        [-(2**70), 0, 2**70],
        ["é", "\x00\x1f\n\t\"\\", " ", "\U0001f600"],
        {"é": 1, "a\nb": [None]},
        {1: "one", 0: "zero"},
        {"x": 1.5, "y": [0.1, -0.0, 1e300]},
        (1, (2, (3,))),
    ],
)
def test_the_writer_equals_json_dumps_on_edge_values(value):
    assert _written(value) == _dumped(value)
    assert cli._envelope(value) == oracles.json_envelope(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), [1, Fraction(1, 2)], {"a": {Fraction(1): 2}}])
def test_a_value_json_cannot_hold_raises_json_dumps_type_error(value):
    with pytest.raises(TypeError) as want:
        oracles.json_envelope(value)
    with pytest.raises(TypeError) as got:
        cli._envelope(value)
    assert str(got.value) == str(want.value)
