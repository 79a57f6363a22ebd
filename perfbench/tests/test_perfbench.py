"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SMALL = {"kind": "compute", "name": "fig-exp-Apoly", "target": "a", "input": None, "rank": 2}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("coflows.a_poly", 0, 100, -1, 0),
        ("algebra.interpolate", 10, 40, 0, 0),
        ("algebra.Poly.__mul__", 15, 25, 1, 0),
        ("coflows.coflow_histogram", 50, 90, 0, 0),
        ("coflows.a_poly", 200, 205, -1, 1),  # served by a memo
    ]
    assert tracer.self_times(spans) == [30, 20, 10, 40, 5]
    agg = tracer.aggregate(spans, dict.fromkeys(tracer.COUNT_KEYS, 0))
    assert agg["self_ns"]["coflows.a_poly"] == 35
    assert agg["incl_ns"]["coflows.a_poly"] == 105
    assert agg["enum_free"]["coflows.a_poly"] == 1
    twice = tracer.layer_metrics(tracer.merge([agg, agg]))
    assert twice["coflows.assemble_self_s"] == pytest.approx(70e-9)
    assert twice["algebra.interpolate_self_s"] == pytest.approx(40e-9)
    assert twice["algebra.poly_mul_calls"] == 2
    assert twice["coflows.enum_free_ratio"] == 0.5


def test_rank_used_for_the_assignment_count():
    assert tracer.rank_of_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert tracer.rank_of_rows([[0, 0], [0, 0]]) == 0
    assert tracer.rank_of_rows([]) == 0


def test_spans_round_trip_through_the_file(tmp_path):
    t = tracer.Tracer()
    nid = t._nid("cli.main")
    outer = t._begin(nid)
    t._finish(t._begin(nid))
    t._finish(outer)
    t.write(tmp_path / "x.spans")
    back = tracer.read_spans(tmp_path / "x.spans")
    assert back == t.spans()
    assert [s[3] for s in back] == [-1, 0]


def test_a_missing_name_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(run.ROOT / "src"))
    import omflow.cli  # noqa: F401

    monkeypatch.setitem(tracer.FUNCTIONS, "omflow.coflows",
                        tracer.FUNCTIONS["omflow.coflows"] + ("a_poly_eval_q_removed",))
    t = tracer.Tracer().install()
    t.uninstall()
    assert t.absent == ["coflows.a_poly_eval_q_removed"]
    agg = tracer.aggregate([], dict.fromkeys(tracer.COUNT_KEYS, 0))
    metrics = tracer.layer_metrics(agg, absent=["coflows.char_pair"])
    assert metrics["coflows.box_self_s"] is None
    assert metrics["coflows.hist_self_s"] == 0


def test_a_wrong_reference_digest_fails_the_item(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "plan", lambda workload, seed: [SMALL])
    good = run.run_workload("apoly-large", 7, 0, 0, {})
    assert good["failed"] == 0 and good["attempted"] == run.MIN_PASSES
    digest = good["digests"]["fig-exp-Apoly:a"]
    same = run.run_workload("apoly-large", 7, 0, 0, {"apoly-large": {"7": {"fig-exp-Apoly:a": digest}}})
    assert same["failed"] == 0
    wrong = run.run_workload("apoly-large", 7, 0, 0, {"apoly-large": {"7": {"fig-exp-Apoly:a": "0" * 64}}})
    assert wrong["failed"] / wrong["attempted"] > 0
    assert "digest differs from reference.json" in wrong["failures"][0]


@pytest.mark.parametrize("target", ["a", "a-even", "char", "b"])
def test_the_tracer_leaves_cli_output_bytes_unchanged(tmp_path, target):
    spec = dict(SMALL, target=target)
    plain = run.run_child(spec, 0, None, tmp_path, 60)
    traced = run.run_child(spec, 1, str(tmp_path / "s.spans"), tmp_path, 60)
    assert plain["items"][0]["problems"] == []
    assert plain["items"][0]["digest"] == traced["items"][0]["digest"]
    assert traced["layers"]["calls"]["cli.main"] == 1
    assert tracer.read_spans(tmp_path / "s.spans")


VERIFY_SNIPPET = """
import hashlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import omflow.cli
if sys.argv[3] == "1":
    import tracer
    t = tracer.Tracer().install()
from omflow.fixtures import default_corpus, corpus_poms
from omflow.identities import run_suites
from omflow.pom import verify_pom
reports = []
for name, om, d in list(default_corpus())[100:104]:
    reports += run_suites(om, name, digraph=d)
for name, p in list(corpus_poms())[:2]:
    reports += verify_pom(p, name)
text = json.dumps([r.to_json_obj() for r in reports], sort_keys=True)
extra = t.counts["checks"] if sys.argv[3] == "1" else None
print(json.dumps([hashlib.sha256(text.encode()).hexdigest(), extra]))
"""


def test_the_tracer_leaves_suite_reports_unchanged():
    """run_suites picks suites from the SUITES dict and tests `fn is
    verify_duality`; the tracer must rebind the dict too."""
    out = {}
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_SNIPPET, str(run.ROOT / "src"), str(run.HERE), trace],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out[trace] = json.loads(proc.stdout)
    assert out["0"][0] == out["1"][0]
    assert out["1"][1] > 0


def test_worker_pool_does_not_change_output(tmp_path):
    """Above 262,144 assignments per node coflow_histogram splits the work
    over a process pool; the printed polynomial must not depend on it."""
    rng = workloads.rng_for("jobs-test", 0)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(workloads.digraph_obj(6, workloads.connected_multigraph(6, 10, rng))))
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "omflow.cli", "compute", "a", "--input", str(path), "--jobs", jobs],
            capture_output=True, timeout=120, check=True, env=env,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert outs[0] == outs[1] and outs[0]


def test_the_sample_is_stratified_and_seeded():
    keys = [(5, 3)] * 300 + [(4, 2)] * 100 + [(8, 2)] * 4
    cost = list(range(len(keys)))

    def draw(seed):
        return workloads.stratified_sample(keys, 40, workloads.rng_for("x", seed), cost)

    a, b, c = draw(1), draw(1), draw(2)
    assert a == b != c and a == sorted(a) and len(a) == 40
    counts = [sum(keys[i] == k for i in a) for k in ((5, 3), (4, 2), (8, 2))]
    assert counts == [30, 10, 0]
    # evenly spaced through each stratum's cost order
    assert [i // 10 for i in a[:30]] == list(range(30))
