"""End-to-end command line checks, driven through main() in process."""

import io
import json
import sys

import pytest

from permlab import cli, incidence
from permlab.cli import main
from permlab.groups import GenGroup, clear_caches, cyclic_group, order, symmetric_group
from permlab.perms import parse_cycles
from permlab.wreath import wreath


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_of(out):
    doc = json.loads(out)
    assert doc["schema"] == "permlab-report/1"
    assert doc["tool"]["name"] == "permlab"
    assert isinstance(doc["cap"], int)
    return doc["report"]


# analyze


def test_analyze_cycle_json(capsys):
    rc, out, _ = run_cli(
        capsys,
        "analyze",
        "--gens",
        "(1 2 3 4 5)",
        "--degree",
        "5",
        "--pass",
        "primitivity,suborbits",
        "--format",
        "json",
    )
    assert rc == 0
    report = report_of(out)
    assert report["degree"] == 5
    assert report["passes"]["primitivity"] == {"transitive": True, "primitive": True}
    assert report["passes"]["suborbits"]["subdegrees"] == [1, 1, 1, 1, 1]


def test_analyze_text_default_passes(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--fixture", "cyclic_4")
    assert rc == 0
    assert "transitive: True" in out
    assert "primitive: False" in out
    assert "1 2 3 4" in out


def test_analyze_two_generators(capsys):
    rc, out, _ = run_cli(
        capsys,
        "analyze",
        "--gens",
        "(1 2)(3 4),(1 3)(2 4)",
        "--degree",
        "4",
        "--pass",
        "transitivity",
        "--format",
        "json",
    )
    assert rc == 0
    report = report_of(out)
    assert report["passes"]["transitivity"]["transitivity_degree"] == 1


def test_analyze_degree_one_note(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--gens", "()", "--degree", "1")
    assert rc == 0
    assert "degree 1" in out


@pytest.mark.parametrize("degree", [0, 1])
def test_analyze_below_degree_two_names_the_degree(capsys, degree):
    note = f"degree {degree} action: every pass is trivial; nothing to report"
    rc, out, _ = run_cli(capsys, "analyze", "--gens", "()", "--degree", str(degree))
    assert (rc, out) == (0, f"note: {note}\n")
    rc, out, _ = run_cli(
        capsys, "analyze", "--gens", "()", "--degree", str(degree), "--format", "json"
    )
    assert rc == 0
    assert report_of(out) == {"group": "custom", "note": note}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_negative_degree_exits_2_naming_the_flag(capsys, fmt):
    rc, out, err = run_cli(
        capsys, "analyze", "--gens", "()", "--degree", "-1", "--format", fmt
    )
    assert rc == 2
    assert out == ""
    assert "--degree -1 is negative" in err


def test_analyze_unknown_pass_exits_2(capsys):
    rc, _, err = run_cli(capsys, "analyze", "--fixture", "cyclic_4", "--pass", "nope")
    assert rc == 2
    assert "unknown pass" in err


def test_analyze_gens_without_degree_exits_2(capsys):
    rc, _, err = run_cli(capsys, "analyze", "--gens", "(1 2)")
    assert rc == 2
    assert "--degree" in err


def test_analyze_jordan_dot(capsys):
    rc, out, _ = run_cli(
        capsys, "analyze", "--fixture", "pg_2_2", "--pass", "jordan", "--format", "dot"
    )
    assert rc == 0
    assert out.startswith("digraph inclusion {")
    assert "->" in out
    # the full point set sits above everything else
    assert 's1_2_3_4_5_6_7 [label="{1 2 3 4 5 6 7}"]' in out


def test_analyze_pass_without_graph_form_comments(capsys):
    rc, out, _ = run_cli(
        capsys, "analyze", "--fixture", "cyclic_4", "--pass", "orbits", "--format", "dot"
    )
    assert rc == 0
    assert out.strip() == "// pass orbits: no graph form"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_renders_dot_only_for_the_dot_format(capsys, monkeypatch, fmt):
    from permlab import cli

    def never(*args):
        raise AssertionError("DOT rendered for another format")

    monkeypatch.setattr(cli, "_inclusion_dot", never)
    monkeypatch.setattr(cli, "orbital_graph", never)
    rc, _, _ = run_cli(
        capsys, "analyze", "--fixture", "pg_2_2", "--pass", "suborbits,jordan,span",
        "--points", "1,2", "--format", fmt,
    )
    assert rc == 0


def test_analyze_span_requires_points(capsys):
    rc, _, err = run_cli(capsys, "analyze", "--fixture", "pg_2_2", "--pass", "span")
    assert rc == 2
    assert "--points" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--pass", "suborbits", "--base", "0"), "--base 0 outside 1..7"),
        (("--pass", "suborbits", "--base", "8"), "--base 8 outside 1..7"),
        (("--pass", "span", "--points", "0,1"), "--points 0 outside 1..7"),
        (("--pass", "span", "--points", "8"), "--points 8 outside 1..7"),
        (("--pass", "span", "--points", "1,,2"), "--points item '' is not an integer"),
        (("--pass", "span", "--points", "1,x"), "--points item 'x' is not an integer"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_point_flags_name_the_flag_and_the_one_based_range(
    capsys, flags, message, fmt
):
    rc, out, err = run_cli(capsys, "analyze", "--fixture", "pg_2_2", *flags, "--format", fmt)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_jordan_reads_the_witness_orders(capsys, monkeypatch, fmt):
    from permlab import cli

    def never(*args):
        raise AssertionError("order computed for a Jordan witness")

    monkeypatch.setattr(cli, "order", never)
    rc, out, _ = run_cli(
        capsys, "analyze", "--fixture", "pg_2_2", "--pass", "jordan", "--format", fmt
    )
    assert rc == 0
    assert "witness" in out


def test_analyze_span_of_two_plane_points_is_a_line(capsys):
    rc, out, _ = run_cli(
        capsys,
        "analyze",
        "--fixture",
        "pg_2_2",
        "--pass",
        "span",
        "--points",
        "1,2",
        "--format",
        "json",
    )
    assert rc == 0
    report = report_of(out)
    assert len(report["passes"]["span"]["span"]) == 3


# corpus


def test_corpus_list_has_at_least_twenty(capsys):
    rc, out, _ = run_cli(capsys, "corpus", "list", "--format", "json")
    assert rc == 0
    report = report_of(out)
    names = [row["name"] for row in report["fixtures"]]
    assert report["count"] >= 20
    assert len(names) == len(set(names))
    assert "pg_2_2" in names and "cyclic_3" in names


def test_corpus_describe_plane(capsys):
    rc, out, _ = run_cli(capsys, "corpus", "describe", "pg_2_2", "--format", "json")
    assert rc == 0
    report = report_of(out)
    assert report["degree"] == 7
    assert report["order"] == 168
    assert len(report["lines"]) == 7
    assert all(len(line) == 3 for line in report["lines"])


def test_corpus_describe_unknown_exits_2(capsys):
    rc, _, err = run_cli(capsys, "corpus", "describe", "pg_9_9")
    assert rc == 2
    assert "fixture" in err


# suite


def test_suite_single_property_json(capsys):
    rc, out, _ = run_cli(capsys, "suite", "--filter", "dense", "--format", "json")
    assert rc == 0
    report = report_of(out)
    assert [p["name"] for p in report["properties"]] == ["dense-order-maps"]
    assert report["properties"][0]["passed"] is True


def test_suite_empty_filter_warns_and_exits_zero(capsys):
    rc, out, err = run_cli(capsys, "suite", "--filter", "zzz")
    assert rc == 0
    assert "no properties match" in err
    assert "0/0" in out


def test_suite_json_is_byte_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "suite", "--filter", "involution", "--format", "json")
    rc2, out2, _ = run_cli(capsys, "suite", "--filter", "involution", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_suite_seed_changes_sampling_not_verdicts(capsys):
    verdicts = {}
    for seed in ("7", "20260818"):
        rc, out, _ = run_cli(
            capsys, "suite", "--seed", seed, "--filter", "coset", "--format", "json"
        )
        assert rc == 0
        (prop,) = report_of(out)["properties"]
        verdicts[seed] = prop["passed"]
    assert verdicts == {"7": True, "20260818": True}


def test_suite_text_reports_failures_as_verdicts(capsys):
    rc, out, _ = run_cli(capsys, "suite", "--filter", "tree-relation")
    assert rc == 0
    assert out.startswith("FAIL tree-relation-axioms")
    assert "0/1 properties passed" in out


# exit codes


def test_cap_exhaustion_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("PERMLAB_CAP", "10")
    rc, _, err = run_cli(capsys, "analyze", "--fixture", "pg_2_2", "--pass", "jordan")
    assert rc == 3
    assert "cap" in err


@pytest.mark.parametrize("pass_name", ["transitivity", "homogeneity"])
def test_item_orbit_walk_exits_3_at_the_cap(capsys, monkeypatch, pass_name):
    # Sym(12) is far past any cap; its orbit on pairs alone has 66+ items
    monkeypatch.setenv("PERMLAB_CAP", "50")
    rc, _, err = run_cli(
        capsys,
        "analyze",
        "--gens",
        "(1 2 3 4 5 6 7 8 9 10 11 12),(1 2)",
        "--degree",
        "12",
        "--pass",
        pass_name,
    )
    assert rc == 3
    assert "cap 50" in err
    if pass_name == "homogeneity":
        assert "passed cap 50; a 2-subset orbit has at most C(12, 2) = 66 subsets" in err
        assert "PERMLAB_CAP=66 would suffice" in err


@pytest.mark.parametrize(
    "argv,degree",
    [
        (["analyze", "--gens", "(1 2)", "--degree", "30000000"], 30000000),
        (["wreath", "--bottom", "cyclic_30000000", "--top", "cyclic_2"], 30000000),
        (["wreath", "--bottom", "cyclic_0", "--top", "symmetric_3000000"], 3000000),
    ],
)
def test_a_huge_degree_exits_3_before_any_permutation(capsys, monkeypatch, argv, degree):
    def never(*args):
        raise AssertionError("a permutation was built before the cap check")

    def no_points_only(n):
        if n:
            raise AssertionError(f"a group on {n} points was built before the cap check")
        return GenGroup(0)

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    monkeypatch.setattr(cli, "parse_cycles", never)
    for family in cli._FAMILIES:
        monkeypatch.setitem(cli._FAMILIES, family, no_points_only)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert err == (
        f"error: a group on {degree} points, past cap 200000;"
        f" PERMLAB_CAP={degree} would suffice\n"
    )


# wreath


def test_wreath_report(capsys):
    rc, out, _ = run_cli(
        capsys, "wreath", "--bottom", "cyclic_2", "--top", "cyclic_3", "--format", "json"
    )
    assert rc == 0
    report = report_of(out)
    assert report["degree"] == 6
    assert report["order"] == 24
    assert report["fibers"] == [[1, 2], [3, 4], [5, 6]]


def test_wreath_json_export_rebuilds_the_product(capsys):
    # the generators, read back at the reported degree, are the product's
    # own, and the fibers follow the stated indexing rule
    rc, out, _ = run_cli(
        capsys, "wreath", "--bottom", "cyclic_3", "--top", "symmetric_3", "--format", "json"
    )
    assert rc == 0
    report = report_of(out)
    generators = tuple(parse_cycles(text, report["degree"]) for text in report["generators"])
    assert generators == wreath(cyclic_group(3), symmetric_group(3)).generators
    assert order(GenGroup(report["degree"], generators)) == report["order"]
    b = report["bottom"]["degree"]
    fibers = [[(f - 1) * b + pos for pos in range(1, b + 1)] for f in (1, 2, 3)]
    assert report["fibers"] == fibers
    as_sets = [{p - 1 for p in fiber} for fiber in fibers]
    for g in generators:
        for fiber in as_sets:
            assert {g.images[p] for p in fiber} in as_sets


def test_wreath_with_an_empty_bottom_lists_no_fibers(capsys):
    # the fibers are the fiber partition's classes, and no point leaves none
    rc, out, _ = run_cli(capsys, "wreath", "--bottom", "symmetric_0", "--top", "cyclic_3")
    assert rc == 0
    assert "degree 0, order 1\nfibers: \n" in out


def test_wreath_accepts_fixture_names(capsys):
    rc, out, _ = run_cli(
        capsys, "wreath", "--bottom", "cyclic_3", "--top", "symmetric_3", "--format", "json"
    )
    assert rc == 0
    assert report_of(out)["order"] == 3**3 * 6


def test_wreath_out_file(capsys, tmp_path):
    path = tmp_path / "product.json"
    rc, _, _ = run_cli(
        capsys, "wreath", "--bottom", "cyclic_2", "--top", "cyclic_2", "--out", str(path)
    )
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["report"]["order"] == 8


def test_wreath_unknown_name_exits_2(capsys):
    rc, _, err = run_cli(capsys, "wreath", "--bottom", "mystery_9", "--top", "cyclic_2")
    assert rc == 2
    assert "unknown group" in err


# degree tails that are not ASCII digits, or longer than int() reads
BAD_TAILS = {"superscript-two": "\u00b2", "arabic-indic-three": "\u0663", "5000-digits": "9" * 5000}


@pytest.mark.parametrize("tail", BAD_TAILS.values(), ids=BAD_TAILS.keys())
@pytest.mark.parametrize("family", sorted(cli._FAMILIES))
def test_a_bad_degree_tail_exits_2_for_every_family(capsys, family, tail):
    for bottom, top in ((f"{family}_{tail}", "cyclic_2"), ("cyclic_2", f"{family}_{tail}")):
        rc, out, err = run_cli(capsys, "wreath", "--bottom", bottom, "--top", top)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


def test_the_longest_degree_tail_reaches_the_cap_check(capsys):
    tail = "9" * cli._DEGREE_DIGITS
    rc, out, err = run_cli(capsys, "wreath", "--bottom", f"cyclic_{tail}", "--top", "cyclic_2")
    assert (rc, out) == (3, "")
    assert err.endswith(f"PERMLAB_CAP={tail} would suffice\n")


# relations


def test_relations_chain_roundtrip(capsys, tmp_path):
    path = tmp_path / "chain.json"
    rc, out, _ = run_cli(
        capsys, "relations", "build", "--model", "chain", "--k", "2", "--s", "2"
    )
    assert rc == 0
    path.write_text(out)
    rc, out, _ = run_cli(
        capsys, "relations", "check", "--family", "C", "--input", str(path), "--format", "json"
    )
    assert rc == 0
    report = report_of(out)
    verdicts = {c["name"]: c["holds"] for c in report["checks"]}
    assert report["ok"] is False
    assert verdicts["C1"] and verdicts["C2"] and verdicts["C3"] and verdicts["C4"]
    assert not verdicts["C5"] and not verdicts["C6"]


def test_relations_words_roundtrip(capsys, tmp_path):
    path = tmp_path / "words.json"
    rc, out, _ = run_cli(
        capsys, "relations", "build", "--model", "words", "--values", "1,2", "--s", "2"
    )
    assert rc == 0
    path.write_text(out)
    rc, out, _ = run_cli(
        capsys, "relations", "check", "--family", "B", "--input", str(path), "--format", "json"
    )
    assert rc == 0
    assert report_of(out)["ok"] is True


def test_relations_check_reads_stdin(capsys, monkeypatch):
    from permlab.relations import relation_to_object
    from permlab.trees import finite_c_model

    text = json.dumps(relation_to_object(finite_c_model(1, 2).relation))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, _ = run_cli(capsys, "relations", "check", "--family", "C", "--input", "-")
    assert rc == 0
    assert "C1: pass" in out


def test_relations_build_missing_parameters_exit_2(capsys):
    rc, _, err = run_cli(capsys, "relations", "build", "--model", "chain", "--k", "2")
    assert rc == 2
    assert "--s" in err


@pytest.mark.parametrize(
    "document,message",
    [
        ('{"arity": 3}', "relation has no size field"),
        ("[1, 2]", "a relation must be a JSON object"),
        ('{"arity": "3", "size": 2, "tuples": []}', 'relation arity must be an integer >= 1, got "3"'),
        ('{"arity": 0, "size": 2, "tuples": []}', "relation arity must be an integer >= 1, got 0"),
        ('{"arity": 3, "size": 2.5, "tuples": []}', "relation size must be an integer >= 0, got 2.5"),
        ('{"arity": 3, "size": true, "tuples": []}', "relation size must be an integer >= 0, got true"),
        ('{"arity": 3, "size": -1, "tuples": []}', "relation size must be an integer >= 0, got -1"),
        ('{"arity": 3, "size": 2, "tuples": 5}', "relation tuples must be a list of lists of integers"),
        ('{"arity": 3, "size": 2, "tuples": [["a", 1, 1]]}', "relation tuples must be a list of lists of integers"),
    ],
)
def test_relations_check_refuses_a_malformed_relation_naming_the_field(
    capsys, monkeypatch, document, message
):
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    rc, out, err = run_cli(capsys, "relations", "check", "--family", "C", "--input", "-")
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize(
    "raw,message",
    [
        (
            b'{"arity": 3, "size": 2,',
            "relation input is not JSON:"
            " Expecting property name enclosed in double quotes at line 1 column 24",
        ),
        (b"chain model", "relation input is not JSON: Expecting value at line 1 column 1"),
        (
            b'{"arity": 3, "size": 2, "tuples": []}\xff',
            "relation input is not UTF-8 text: invalid start byte at byte 37",
        ),
        (b"\xfe\xff", "relation input is not UTF-8 text: invalid start byte at byte 0"),
    ],
    ids=["cut-short", "not-json", "stray-byte", "not-utf8"],
)
def test_relations_check_refuses_undecodable_input(
    capsys, monkeypatch, tmp_path, via, raw, message
):
    if via == "file":
        path = tmp_path / "relation.json"
        path.write_bytes(raw)
        source = str(path)
    else:
        # a real stdin hands over bytes through its buffer
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        source = "-"
    rc, out, err = run_cli(capsys, "relations", "check", "--family", "C", "--input", source)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_relations_check_of_a_missing_file_exits_2(capsys, tmp_path):
    path = tmp_path / "absent.json"
    rc, out, err = run_cli(capsys, "relations", "check", "--family", "C", "--input", str(path))
    assert rc == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_an_internal_value_error_is_not_an_exit_2(monkeypatch):
    from permlab import trees

    def broken(rel, family):
        raise ValueError("a bug inside permlab")

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"arity": 3, "size": 1, "tuples": []}'))
    monkeypatch.setattr(trees, "check_axioms", broken)
    with pytest.raises(ValueError, match="a bug inside permlab"):
        main(["relations", "check", "--family", "C", "--input", "-"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cantor", "--source", "1/0", "--target", "1"), "--source item '1/0' has a zero denominator"),
        (("cantor", "--source", "1", "--target", "1,x"), "--target item 'x' is not a rational"),
        (("cantor", "--source", "1,,2", "--target", "1"), "--source item '' is not a rational"),
        (
            ("relations", "build", "--model", "words", "--values", "1/0", "--s", "2"),
            "--values item '1/0' has a zero denominator",
        ),
        (
            ("relations", "build", "--model", "words", "--values", "x", "--s", "2"),
            "--values item 'x' is not a rational",
        ),
        (("lw", "--n", "5", "--theta", "1,x,3"), "--theta item 'x' is not an integer"),
        (("lw", "--n", "5", "--theta", "1,1/2,3"), "--theta item '1/2' is not an integer"),
        (("lw", "--n", "-1", "--k", "1"), "--n -1 is negative"),
        (("lw", "--n", "-1", "--theta", "0,0,0"), "--n -1 is negative"),
    ],
)
def test_numeric_list_flags_name_the_flag_and_the_item(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


# cantor


def test_cantor_places_values_in_carved_intervals(capsys):
    rc, out, _ = run_cli(capsys, "cantor", "--source", "0,1,1/2", "--target", "5,7,6")
    assert rc == 0
    assert "1/2 in (5, 7) -> 6" in out
    assert "exhausted: none" in out


def test_cantor_reports_exhaustion(capsys):
    rc, out, _ = run_cli(
        capsys, "cantor", "--source", "0,1,2", "--target", "5", "--format", "json"
    )
    assert rc == 0
    report = report_of(out)
    assert report["exhausted"] == "1"
    assert report["mapping"] == [["0", "5"]]


# lw


def test_lw_matrix_report(capsys):
    rc, out, _ = run_cli(capsys, "lw", "--n", "5", "--k", "2", "--format", "json")
    assert rc == 0
    report = report_of(out)
    assert report["rows"] == 10 and report["cols"] == 5
    assert report["rank"] == 5
    assert report["injective"] is True
    assert report["method"] == "exact"


def test_lw_csv_bytes(capsys):
    rc, out, _ = run_cli(capsys, "lw", "--n", "3", "--k", "2", "--csv")
    assert rc == 0
    assert out == "1,1,0\n1,0,1\n0,1,1"


def test_lw_theta_report(capsys):
    rc, out, _ = run_cli(capsys, "lw", "--n", "4", "--theta", "1,2,3", "--format", "json")
    assert rc == 0
    report = report_of(out)
    assert report["proportional"] is False
    assert report["scalar"] is None
    assert (report["rank_rs"], report["rank_st"], report["rank_rt"]) == (3, 3, 4)


def test_lw_needs_k_or_theta(capsys):
    rc, _, err = run_cli(capsys, "lw", "--n", "5")
    assert rc == 2
    assert "--theta" in err


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format", "text"], ["--csv"]])
def test_lw_past_the_cap_exits_3_before_listing_subsets(capsys, monkeypatch, fmt):
    def never(*args):
        raise AssertionError("subsets listed before the cap check")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()  # no kept level stands in for a listing
    monkeypatch.setattr(incidence, "_subsets_colex", never)
    rc, out, err = run_cli(capsys, "lw", "--n", "40", "--k", "20", *fmt)
    assert rc == 3
    assert out == ""
    assert err == (
        "error: 137846528820 subsets on one level of 40 points, past cap 200000;"
        " PERMLAB_CAP=137846528820 would suffice\n"
    )


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format", "text"], ["--csv"]])
def test_lw_past_the_cell_budget_exits_3_before_allocating(capsys, monkeypatch, fmt):
    # both levels fit the default cap, but the dense matrix would hold
    # 184756 x 167960 cells: as an int64 array for the rank, as rows for CSV
    def never(*args, **kwargs):
        raise AssertionError("dense matrix allocated past the cell budget")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()  # no kept level stands in for a listing
    monkeypatch.setattr(incidence.numpy, "zeros", never)
    monkeypatch.setattr(incidence, "_dense_rows", never)
    # nor is a subset listed: the refusal comes before the sparse rows
    monkeypatch.setattr(incidence, "_subsets_colex", never)
    rc, out, err = run_cli(capsys, "lw", "--n", "20", "--k", "10", *fmt)
    assert rc == 3
    assert out == ""
    assert err == (
        "error: 31031617760 cells in a dense 184756x167960 matrix at 64 per unit of cap,"
        " past cap 200000; PERMLAB_CAP=484869028 would suffice\n"
    )


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format", "text"]])
def test_lw_theta_past_the_cell_budget_exits_3_before_allocating(capsys, monkeypatch, fmt):
    # every level fits the default cap, but the membership array of the
    # 5000 points and the 1 -> 1 sign array would hold 5000 x 5000 cells
    def never(*args, **kwargs):
        raise AssertionError("array allocated past the cell budget")

    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    clear_caches()  # no kept level stands in for a listing
    monkeypatch.setattr(incidence.numpy, "zeros", never)
    monkeypatch.setattr(incidence, "_subsets_colex", never)
    rc, out, err = run_cli(capsys, "lw", "--n", "5000", "--theta", "0,1,1", *fmt)
    assert rc == 3
    assert out == ""
    assert err == (
        "error: 25000000 cells in a dense 5000x5000 matrix at 64 per unit of cap,"
        " past cap 200000; PERMLAB_CAP=390625 would suffice\n"
    )


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--csv"]])
def test_lw_cell_budget_is_64_cells_per_unit_of_the_cap(capsys, monkeypatch, fmt):
    # 924 x 792 = 731808 cells, and 64 * 11435 is the first budget past it
    monkeypatch.setenv("PERMLAB_CAP", "11434")
    rc, out, err = run_cli(capsys, "lw", "--n", "12", "--k", "6", *fmt)
    assert (rc, out) == (3, "")
    assert "PERMLAB_CAP=11435 would suffice" in err
    monkeypatch.setenv("PERMLAB_CAP", "11435")
    rc, out, _ = run_cli(capsys, "lw", "--n", "12", "--k", "6", *fmt)
    assert rc == 0
    if fmt == ["--csv"]:
        assert out.count("\n") == 923
    else:
        assert report_of(out)["rank"] == 792


def test_lw_cap_counts_the_wider_of_the_two_levels(capsys, monkeypatch):
    # C(6, 3) = 20 rows and C(6, 2) = 15 columns, then 15 rows and 20 columns
    monkeypatch.setenv("PERMLAB_CAP", "19")
    for k in ("3", "4"):
        rc, _, err = run_cli(capsys, "lw", "--n", "6", "--k", k)
        assert rc == 3
        assert "PERMLAB_CAP=20 would suffice" in err
    monkeypatch.setenv("PERMLAB_CAP", "20")
    rc, out, _ = run_cli(capsys, "lw", "--n", "6", "--k", "3", "--format", "json")
    assert rc == 0
    assert report_of(out)["rank"] == 15


@pytest.mark.parametrize("k", ["0", "-1", "41"])
def test_lw_k_out_of_range_exits_2_before_the_cap(capsys, monkeypatch, k):
    monkeypatch.setenv("PERMLAB_CAP", "1")
    rc, out, err = run_cli(capsys, "lw", "--n", "40", "--k", k)
    assert rc == 2
    assert out == ""
    assert err == f"error: k={k} outside 1..40\n"


def test_chain_model_past_the_cap_exits_3_before_its_triple_loop(capsys, monkeypatch):
    # 2**8 = 256 functions fit the cap, but the C-relation visits 256**3 triples
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    rc, out, err = run_cli(capsys, "relations", "build", "--model", "chain", "--k", "8", "--s", "2")
    assert (rc, out) == (3, "")
    assert err == (
        "error: a C-relation on 256 points visits 16777216 candidates, past cap 200000;"
        " PERMLAB_CAP=16777216 would suffice\n"
    )


@pytest.mark.parametrize(
    "values,message",
    [
        # 121 words: the order matrix fits, betweenness and its B audit take 121**4 steps
        (
            "1,2,3,4,5",
            "betweenness on a 121-point order visits 214358881 candidates, past cap 200000;"
            " PERMLAB_CAP=214358881 would suffice",
        ),
        # 9841 words fit the cap, but their order matrix has 9841**2 cells
        (
            "1,2,3,4,5,6,7,8,9",
            "the order matrix of 9841 words visits 96845281 candidates, past cap 200000;"
            " PERMLAB_CAP=96845281 would suffice",
        ),
    ],
    ids=["betweenness", "order-matrix"],
)
def test_word_model_past_the_cap_exits_3_before_its_loops(capsys, monkeypatch, values, message):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    argv = ("relations", "build", "--model", "words", "--values", values, "--s", "3")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err == f"error: {message}\n"


def test_axiom_audit_past_the_cap_exits_3_before_any_axiom(capsys, monkeypatch, tmp_path):
    # the identity on 3000 points: the transitive axiom scans 3000**3 triples
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    path = tmp_path / "identity.json"
    rows = [[p, p] for p in range(1, 3001)]
    path.write_text(json.dumps({"arity": 2, "size": 3000, "tuples": rows}))
    argv = ("relations", "check", "--family", "semilinear", "--input", str(path))
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err == (
        "error: the semilinear axiom audit on 3000 points visits 27000000000 candidates,"
        " past cap 200000; PERMLAB_CAP=27000000000 would suffice\n"
    )


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
def test_bad_cap_setting_exits_2_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("PERMLAB_CAP", value)
    rc, out, err = run_cli(capsys, "corpus", "describe", "cyclic_3")
    assert rc == 2
    assert out == ""
    assert err == f"error: PERMLAB_CAP must be an integer of at least 1, got {value!r}\n"


def test_beyond_cap_jordan_names_a_sufficient_cap(capsys, monkeypatch):
    monkeypatch.delenv("PERMLAB_CAP", raising=False)
    rc, _, err = run_cli(
        capsys,
        "analyze",
        "--gens",
        "(1 2 3 4 5 6 7 8 9 10 11 12),(1 2)",
        "--degree",
        "12",
        "--pass",
        "jordan",
    )
    assert rc == 3
    assert err == (
        "error: group of degree 12 with 2 generators has order 479001600,"
        " past cap 200000; PERMLAB_CAP=479001600 would suffice\n"
    )
