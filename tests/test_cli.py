"""End-to-end tests of the command-line front end.

Commands run in-process through main(); frozen outputs pin the JSON
serialization byte for byte.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omflow import cocycles
from omflow.cli import build_parser, main, parse_at
from omflow.coflows import a_poly, clear_caches
from omflow.fixtures import U24_ROWS, get_fixture, pom_fixture_names

U24_TUTTE_JSON = {
    "terms": [
        {"den": "1", "exp": [0, 1], "num": "2"},
        {"den": "1", "exp": [0, 2], "num": "1"},
        {"den": "1", "exp": [1, 0], "num": "2"},
        {"den": "1", "exp": [2, 0], "num": "1"},
    ],
    "vars": ["x", "y"],
}

FIG_A_AT_3_JSON = {
    "terms": [
        {"den": "1", "exp": [0, 0], "num": "1"},
        {"den": "1", "exp": [1, 1], "num": "2"},
        {"den": "1", "exp": [1, 2], "num": "2"},
        {"den": "1", "exp": [1, 3], "num": "1"},
        {"den": "1", "exp": [2, 1], "num": "2"},
        {"den": "1", "exp": [3, 1], "num": "1"},
    ],
    "vars": ["y", "z"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_compute_a_at_3_golden(capsys):
    code, out = run_cli(capsys, "compute", "a", "--input", "fig-exp-Apoly", "--at", "q=3")
    assert code == 0
    assert json.loads(out) == FIG_A_AT_3_JSON


def test_compute_a_full_matches_library(capsys):
    code, out = run_cli(capsys, "compute", "a", "--input", "fig-exp-Apoly")
    om, _ = get_fixture("fig-exp-Apoly")
    assert code == 0
    assert json.loads(out) == a_poly(om).to_json_obj()


def test_compute_tutte_u24(capsys):
    code, out = run_cli(capsys, "compute", "tutte", "--input", "U24")
    assert code == 0
    assert json.loads(out) == U24_TUTTE_JSON


def test_compute_a_empty_input(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text('{"vertices": 0, "arcs": []}')
    code, out = run_cli(capsys, "compute", "a", "--input", str(f))
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"den": "1", "exp": [0, 0, 0], "num": "1"}],
        "vars": ["q", "y", "z"],
    }


def test_compute_output_is_byte_identical(capsys):
    _, first = run_cli(capsys, "compute", "a", "--input", "fig-exp-Apoly")
    _, second = run_cli(capsys, "compute", "a", "--input", "fig-exp-Apoly")
    assert first == second


def test_at_parsing():
    from fractions import Fraction

    assert parse_at("q=3,y=1/2") == {"q": Fraction(3), "y": Fraction(1, 2)}
    assert parse_at(None) == {}


def test_at_full_evaluation_is_constant(capsys):
    code, out = run_cli(
        capsys, "compute", "tutte", "--input", "fig-exp-Apoly", "--at", "x=1,y=2"
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"den": "1", "exp": [], "num": "10"}],
        "vars": [],
    }


def test_exit_codes(tmp_path, capsys):
    assert run_cli(capsys, "compute", "a", "--input", "no-such-file.json")[0] == 2
    assert run_cli(
        capsys, "compute", "a", "--input", "fig-exp-Apoly", "--at", "q=x"
    )[0] == 2
    assert run_cli(
        capsys, "compute", "a", "--input", "fig-exp-Apoly", "--at", "w=1"
    )[0] == 2
    clear_caches()  # a memo hit enumerates nothing, so it trips no budget
    assert run_cli(
        capsys, "compute", "a", "--input", "R10", "--budget", "1000"
    )[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "compute", "a", "--input", str(bad))[0] == 2
    # partial-Tutte assembly needs the unimodular divisibility; U24 lacks it
    code, _ = run_cli(capsys, "compute", "t1", "--input", "U24")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nope", "--input", "U24"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "a", "--input", "R10", "--jobs", "0"],
        ["compute", "a", "--input", "R10", "--jobs", "-3"],
        ["compute", "a", "--input", "R10", "--budget", "-1"],
        ["verify", "--input", "fig-exp-Apoly", "--jobs", "0"],
        ["classes", "--input", "fig-exp-Apoly", "--budget", "-5"],
    ],
    ids=["jobs-zero", "jobs-negative", "budget-negative", "verify-jobs-zero",
         "classes-budget-negative"],
)
def test_out_of_range_jobs_and_budget_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    flag = argv[-2]
    assert f"error: argument {flag}: must be at least" in captured.err


def test_verify_u24_negative_control(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tutte", "--input", "U24")
    reports = json.loads(out)
    assert code == 0
    assert [r["check"] for r in reports] == ["negative-control-q3", "negative-control-q5"]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_fully_oriented_instance_all_suites(capsys):
    code, out = run_cli(capsys, "verify", "--input", "fig-exp-Apoly")
    reports = json.loads(out)
    assert code == 0
    assert all(r["status"] != "fail" for r in reports)
    assert {r["suite"] for r in reports} == {
        "basic", "tutte", "expansions", "reciprocity", "duality", "recurrences",
        "pom", "classes",
    }


def test_verify_small_corpus(capsys):
    code, out = run_cli(
        capsys, "verify",
        "--corpus-max-vertices", "2", "--corpus-max-arcs", "2",
        "--corpus-doubled-vertices", "2", "--corpus-doubled-edges", "2",
        "--corpus-pom-vertices", "2", "--corpus-pom-edges", "2",
        "--corpus-no-named",
    )
    reports = json.loads(out)
    assert code == 0
    assert len(reports) > 100
    assert all(r["status"] != "fail" for r in reports)


FIVE_CYCLE = {"vertices": 5, "arcs": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}


@pytest.mark.parametrize(
    "suite,instance,budget",
    [("classes", "five-cycle", "1000"), ("pom", "P2", "10")],
)
def test_verify_reports_a_budget_trip_as_one_skip(tmp_path, capsys, suite, instance, budget):
    if instance == "five-cycle":
        instance = tmp_path / "five-cycle.json"
        instance.write_text(json.dumps(FIVE_CYCLE))
    clear_caches()  # a memo hit enumerates nothing, so it trips no budget
    code, out = run_cli(
        capsys, "verify", "--suite", suite, "--input", str(instance), "--budget", budget
    )
    assert code == 0
    [report] = json.loads(out)
    assert (report["suite"], report["check"], report["status"]) == (suite, "all", "skip")
    assert report["detail"].startswith("enumeration needs about")


def test_verify_budget_trip_keeps_the_other_suites(tmp_path, capsys):
    f = tmp_path / "five-cycle.json"
    f.write_text(json.dumps(FIVE_CYCLE))
    clear_caches()
    code, out = run_cli(capsys, "verify", "--input", str(f), "--budget", "1000")
    reports = json.loads(out)
    assert code == 0
    assert all(r["status"] != "fail" for r in reports)
    assert {r["suite"] for r in reports} == {
        "basic", "tutte", "expansions", "reciprocity", "duality", "recurrences",
        "pom", "classes",
    }


def test_verify_corpus_no_named_leaves_out_named_poms(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "pom",
        "--corpus-pom-vertices", "2", "--corpus-pom-edges", "1", "--corpus-no-named",
    )
    names = {r["instance"] for r in json.loads(out)}
    assert code == 0
    assert names and not names & set(pom_fixture_names())


def test_verify_identity_suite_rejects_pom_input(capsys):
    assert run_cli(capsys, "verify", "--suite", "basic", "--input", "P2")[0] == 2


def test_classes_figure(capsys):
    code, out = run_cli(capsys, "classes", "--input", "fig-cocycle-classes")
    got = json.loads(out)
    assert code == 0
    assert got["count"] == 3 and got["acyclic_count"] == 1
    assert sorted((c["size"], c["acyclic"]) for c in got["classes"]) == [
        (2, False), (2, False), (4, True),
    ]
    code, out = run_cli(
        capsys, "classes", "--input", "fig-cocycle-classes", "--universe", "all"
    )
    got = json.loads(out)
    assert code == 0
    assert got["count"] == 14 and got["acyclic_count"] == 4


def test_pairs_input_unoriented_digon(tmp_path, capsys):
    f = tmp_path / "digon.json"
    f.write_text(json.dumps({
        "vertices": 2,
        "arcs": [[0, 1], [1, 0]],
        "labels": ["a", "a'"],
        "pairs": [["a", "a'"]],
    }))
    code, out = run_cli(capsys, "compute", "t1", "--input", str(f))
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"den": "1", "exp": [1, 0], "num": "1"}],
        "vars": ["x", "y"],
    }
    # an unoriented pair is not a valid input for the fully oriented invariants
    assert run_cli(capsys, "compute", "potts", "--input", str(f))[0] == 2


def test_mixed_graph_shorthand(tmp_path, capsys):
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps({
        "vertices": 3,
        "edges": [[0, 1, "directed"], [1, 2, "undirected"], [0, 2, "undirected"]],
    }))
    code, out = run_cli(capsys, "compute", "t2", "--input", str(f))
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"den": "2", "exp": [0, 1], "num": "1"},
            {"den": "2", "exp": [1, 0], "num": "1"},
            {"den": "2", "exp": [2, 0], "num": "1"},
        ],
        "vars": ["x", "y"],
    }
    all_directed = tmp_path / "alldir.json"
    all_directed.write_text(json.dumps({
        "vertices": 2,
        "edges": [[0, 1, "directed"]],
    }))
    code, out = run_cli(capsys, "compute", "tutte", "--input", str(all_directed))
    assert code == 0
    assert json.loads(out)["terms"] == [{"den": "1", "exp": [1, 0], "num": "1"}]


def test_corpus_export_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "corp"
    code, out = run_cli(
        capsys, "corpus", "--out", str(out_dir),
        "--corpus-max-vertices", "2", "--corpus-max-arcs", "2",
        "--corpus-doubled-vertices", "2", "--corpus-doubled-edges", "2",
    )
    assert code == 0
    index = json.loads((out_dir / "index.json").read_text())
    assert json.loads(out)["written"] == len(index["instances"])
    for name in ("U24", "R10", "fig-exp-Apoly", "fig-cocycle-classes"):
        assert name in index["instances"]
        assert (out_dir / f"{name}.json").exists()
    # the exported U24 file carries its own assume flag and reads back
    code, out = run_cli(capsys, "compute", "tutte", "--input", str(out_dir / "U24.json"))
    assert code == 0
    assert json.loads(out) == U24_TUTTE_JSON
    # doubled instances read back through the mixed-graph shorthand
    doubled = [n for n in index["instances"] if n.startswith("doubled-")]
    assert doubled
    code, _ = run_cli(
        capsys, "compute", "t1", "--input", str(out_dir / f"{doubled[-1]}.json")
    )
    assert code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "omflow.cli", "compute", "tutte", "--input", "U24"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == U24_TUTTE_JSON


R10_FILE = (
    '{"labels":["e0","e1","e2","e3","e4","e5","e6","e7","e8","e9"],'
    '"rows":[["1","0","0","0","0","-1","1","0","0","1"],'
    '["0","1","0","0","0","1","-1","1","0","0"],'
    '["0","0","1","0","0","0","1","-1","1","0"],'
    '["0","0","0","1","0","0","0","1","-1","1"],'
    '["0","0","0","0","1","1","0","0","1","-1"]]}\n'
)
U24_FILE = (
    '{"assume_tu":true,"labels":["a","b","c","d"],'
    '"rows":[["1","0","1","1"],["0","1","1","-1"]]}\n'
)


def test_corpus_export_named_matrix_files_are_frozen(tmp_path, capsys):
    out_dir = tmp_path / "corp"
    code, _ = run_cli(
        capsys, "corpus", "--out", str(out_dir),
        "--corpus-max-vertices", "1", "--corpus-max-arcs", "1",
        "--corpus-doubled-vertices", "1", "--corpus-doubled-edges", "1",
    )
    assert code == 0
    assert (out_dir / "R10.json").read_text() == R10_FILE
    assert (out_dir / "U24.json").read_text() == U24_FILE


@pytest.mark.parametrize(
    "payload",
    [
        {"arcs": [[0, 1]]},
        {"vertices": -1, "arcs": []},
        {"rows": [[1, 0], [0]]},
        {"vertices": 2, "arcs": 5},
        {"vertices": [1], "arcs": []},
        {"rows": 3},
        {"vertices": 2, "edges": [5]},
        {"vertices": 2, "arcs": [[0, 1]], "labels": 7},
        {"rows": [["1/0"]]},
        {"vertices": 2.5, "arcs": []},
        {"vertices": True, "arcs": []},
        {"rows": [[True, 0], [0, 1]]},
        {"vertices": 2, "arcs": [[0.5, 1]]},
        {"vertices": 2, "arcs": [[0, 1], [1, 0]], "labels": "ab"},
        {"vertices": 2, "arcs": [[0, 1], [1, 0]], "labels": ["a", "a"]},
        {"rows": [[1, 0, 1, 1], [0, 1, 1, -1]], "assume_tu": "no"},
    ],
    ids=[
        "arcs-without-vertices", "negative-vertices", "ragged-rows",
        "arcs-not-a-list", "vertices-not-an-int", "rows-not-a-list",
        "edge-not-a-list", "labels-not-a-list", "zero-denominator",
        "fractional-vertices", "boolean-vertices", "boolean-entry",
        "fractional-endpoint", "labels-a-string", "repeated-label",
        "assume-tu-a-string",
    ],
)
def test_malformed_instance_exits_2_with_one_line(tmp_path, capsys, payload):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code = main(["compute", "a", "--input", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": ["12"]},
        {"vertices": 2, "arcs": [[0, 1], [1, 0]], "labels": ["a", "b"], "pairs": ["ab"]},
    ],
    ids=["row", "pair"],
)
def test_a_string_is_not_read_as_a_list(tmp_path, capsys, payload):
    # a string iterates as its characters: "12" would be the row [1, 2]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code = main(["compute", "t1", "--input", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be a list" in captured.err
    assert captured.err.count("\n") == 1


def test_non_regular_matrix_exits_2_with_one_line(tmp_path, capsys):
    f = tmp_path / "u24.json"
    f.write_text(json.dumps({"rows": U24_ROWS}))
    code = main(["compute", "a", "--input", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: matrix does not represent a regular")
    assert captured.err.count("\n") == 1


def test_assume_tu_keeps_a_certified_matrix_regular(tmp_path, capsys):
    # two coloops with an entry outside {0, +-1}: the classes suite runs on it
    # whether or not the input is assumed regular
    f = tmp_path / "coloops.json"
    f.write_text(json.dumps({"rows": [[1, "1/2"], [0, -1]]}))
    for flags in ([], ["--assume-tu"]):
        code, out = run_cli(
            capsys, "verify", "--suite", "classes", "--input", str(f), *flags
        )
        assert code == 0
        reports = json.loads(out)
        assert reports and {r["status"] for r in reports} == {"pass"}


def test_invariant_violation_exits_1(monkeypatch, capsys):
    # an odd signed intersection breaks the parity invariant of alpha_signature
    monkeypatch.setattr(cocycles, "signed_intersection", lambda c, s: 1)
    code = main(["verify", "--suite", "classes", "--input", "fig-cocycle-classes"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_mixed_graph_all_directed_keeps_digraph(tmp_path, capsys):
    # an all-directed mixed graph is a digraph input: the b-polynomial needs it
    f = tmp_path / "alldir.json"
    f.write_text(json.dumps({
        "vertices": 2,
        "edges": [[0, 1, "directed"]],
        "labels": ["x"],
    }))
    code, out = run_cli(capsys, "compute", "b", "--input", str(f))
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"den": "1", "exp": [1, 0, 0], "num": "1"},
            {"den": "2", "exp": [1, 0, 1], "num": "-1"},
            {"den": "2", "exp": [1, 1, 0], "num": "-1"},
            {"den": "2", "exp": [2, 0, 1], "num": "1"},
            {"den": "2", "exp": [2, 1, 0], "num": "1"},
        ],
        "vars": ["q", "y", "z"],
    }


def _compute_choices():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (what,) = (a for a in sub.choices["compute"]._actions if a.dest == "what")
    return what.choices


@pytest.mark.parametrize("what", _compute_choices())
def test_compute_respects_budget(capsys, what):
    clear_caches()
    code = main(["compute", what, "--input", "fig-exp-Apoly", "--budget", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# JSON values of the wrong kind for any field: bools, floats, strings, null,
# ragged and nested lists, objects
_junk = st.one_of(
    st.booleans(), st.none(), st.floats(-3, 3, allow_nan=False),
    st.sampled_from(["", "x", "1/2", "1/0", "ab", "directed"]),
    st.lists(st.one_of(st.integers(-1, 3), st.booleans()), max_size=3),
    st.dictionaries(st.sampled_from(["a", "rows"]), st.integers(0, 2), max_size=1),
)


def _field(good):
    """`good` four times in five, else a value of the wrong kind."""
    return st.integers(0, 4).flatmap(lambda i: good if i else _junk)


_index = _field(st.integers(-1, 3))
_label = _field(st.sampled_from(["a", "b", "c", "e1", "zz"]))


def _instances():
    """Digraph, matrix and mixed-graph objects, each field either of a
    plausible shape or of a wrong one: ragged lists, bools, floats, unknown
    labels, bad `pairs` and `assume_tu`."""
    arc = st.lists(_index, min_size=1, max_size=3)
    optional = {
        "labels": _field(st.lists(_label, max_size=5, unique_by=json.dumps)),
        "pairs": _field(st.lists(_field(st.lists(_label, max_size=3)), max_size=2)),
    }
    digraph = st.fixed_dictionaries(
        {"vertices": _index, "arcs": _field(st.lists(_field(arc), max_size=4))},
        optional=optional,
    )
    entry = _field(st.one_of(st.integers(-1, 1), st.sampled_from(["1", "-1", "1/2", "2"])))
    matrix = st.fixed_dictionaries(
        {"rows": _field(st.lists(_field(st.lists(entry, max_size=4)), max_size=3))},
        optional={**optional, "assume_tu": _field(st.booleans())},
    )
    edge = st.tuples(_index, _index, _field(st.sampled_from(["directed", "undirected"])))
    mixed = st.fixed_dictionaries(
        {"vertices": _index,
         "edges": _field(st.lists(_field(edge.map(list)), max_size=4))},
        optional={"labels": optional["labels"]},
    )
    return st.one_of(digraph, matrix, mixed)


_COMMANDS = [["compute", what] for what in _compute_choices()] + [["verify"], ["classes"]]


@given(_instances(), st.sampled_from(_COMMANDS))
@settings(max_examples=200, deadline=None)
def test_malformed_json_input_never_raises(payload, command):
    # every input gives a result, a budget trip, or one line on stderr with
    # exit 2; an exception escaping main() fails here
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "input.json"
        f.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(f), "--budget", "20000"])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
