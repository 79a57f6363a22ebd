"""One benchmark process: set up, run the timed items, report one JSON line.

Usage, from the root of a checkout:  python3 perfbench/worker.py SPEC_JSON

SPEC_JSON is one child spec of workloads.plan() plus "spawn_ns" (the
parent's CLOCK_MONOTONIC reading just before it started this process),
"trace" (0 or 1), "spans" (where a traced process writes its spans, or
null) and "workdir" (where instance files go).  Set-up covers interpreter
start, importing omflow and numpy, building the inputs and, when traced,
installing the tracer.  Every item's output is digested as canonical JSON
(or as the CLI's stdout bytes) and checked against identities that need no
second call into omflow.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer, aggregate


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# polynomials as printed by Poly.to_json_obj, evaluated without omflow
# ---------------------------------------------------------------------------


def poly_terms(obj) -> tuple:
    vars_ = tuple(obj["vars"])
    terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in obj["terms"]}
    return vars_, terms


def collapse(obj, keep: str) -> dict:
    """Sum out every variable but `keep` at 1: {exponent of keep: coeff}."""
    vars_, terms = poly_terms(obj)
    k = vars_.index(keep)
    out: dict = {}
    for e, c in terms.items():
        out[e[k]] = out.get(e[k], 0) + c
    return {e: c for e, c in out.items() if c}


def evaluate(obj, point: dict) -> Fraction:
    vars_, terms = poly_terms(obj)
    total = Fraction(0)
    for e, c in terms.items():
        term = c
        for v, x in zip(vars_, e):
            term *= Fraction(point[v]) ** x
        total += term
    return total


def swapped_equal(obj, a: str, b: str) -> bool:
    vars_, terms = poly_terms(obj)
    i, j = vars_.index(a), vars_.index(b)

    def sw(e):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    return {sw(e): c for e, c in terms.items()} == terms


def modules(*names) -> list:
    # importlib, because `import omflow.tutte as t` binds the function that
    # omflow/__init__.py re-exports under the submodule's name
    return [importlib.import_module(f"omflow.{n}") for n in names]


def expect(cond: bool, what: str, problems: list) -> None:
    if not cond:
        problems.append(what)


# ---------------------------------------------------------------------------
# per-kind set-up and items
# ---------------------------------------------------------------------------


def setup_verify(spec):
    algebra, cocycles, fixtures, identities, pom = modules(
        "algebra", "cocycles", "fixtures", "identities", "pom")

    rng = workloads.rng_for("verify-sample", spec["seed"])
    corpus = [c for c in fixtures.default_corpus() if c[0] != "R10"]
    oms = [om for _, om, _ in corpus]
    keys = [(om.n, algebra.mat_rank(om.rows)) for om in oms]
    picks = workloads.stratified_sample(keys, workloads.CORPUS_SAMPLE, rng, [len(om.circuits) for om in oms])
    chosen = [corpus[i] for i in picks]
    poms = list(fixtures.corpus_poms())
    oms = [p.om for _, p in poms]
    keys = [(om.n, algebra.mat_rank(om.rows)) for om in oms]
    picks = workloads.stratified_sample(keys, workloads.POM_SAMPLE, rng, [len(om.circuits) for om in oms])
    chosen_poms = [poms[i] for i in picks]

    def instance(name, om, d):
        def run():
            # the calls `omflow verify` makes per corpus instance
            return (identities.run_suites(om, name, digraph=d)
                    + cocycles.verify_class_counts(om, name))
        return name, run

    def pom_suite():
        return [r for name, p in chosen_poms for r in pom.verify_pom(p, name)]

    # the pom sample is one item: its instances take 20-100 ms each, and
    # as separate items they would set the median item instead of the corpus
    items = [instance(*c) for c in chosen] + [("pom-sample", pom_suite)]

    def grade(out):
        text = canonical([r.to_json_obj() for r in out])
        failing = [f"{r.suite}:{r.check}" for r in out if r.status == "fail"]
        return text, [f"failing check {f}" for f in failing[:3]]

    return [(name, run, grade) for name, run in items]


def setup_compute(spec):
    (cli,) = modules("cli")

    if spec["input"] is None:
        source = spec["name"]  # a built-in fixture
    else:
        path = Path(spec["workdir"]) / f"{spec['name']}.json"
        path.write_text(canonical(spec["input"]) + "\n")
        source = str(path)
    target, rank = spec["target"], spec["rank"]
    argv = ["compute", target, "--input", source]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def grade(out):
        rc, text = out
        problems: list = []
        if rc != 0:
            return text, [f"exit code {rc}"]
        obj = json.loads(text)
        q_power = {rank: 1}
        if target == "a":
            expect(collapse(obj, "q") == q_power, "A(q,1,1) != q^rank", problems)
            expect(swapped_equal(obj, "y", "z"), "A not symmetric in y, z", problems)
        elif target == "a-even":
            for part in ("odd", "even"):
                expect(collapse(obj[part], "q") == q_power, f"{part} part at 1 != q^rank", problems)
                expect(swapped_equal(obj[part], "y", "z"), f"{part} part not symmetric", problems)
        elif target == "char":
            expect(evaluate(obj["weak"], {"q": 1}) == 1, "weak(1) != 1", problems)
            expect(evaluate(obj["strict"], {"q": 1}) == 0, "strict(1) != 0", problems)
            for q in (3, 5, 7):
                s, w = evaluate(obj["strict"], {"q": q}), evaluate(obj["weak"], {"q": q})
                expect(0 <= s <= w <= q**rank, f"counts out of order at q={q}", problems)
        elif target == "b":
            if spec["input"] is not None:
                nv = spec["input"]["vertices"]
                expect(collapse(obj, "q") == {nv: 1}, "B(q,1,1) != q^vertices", problems)
            expect(swapped_equal(obj, "y", "z"), "B not symmetric in y, z", problems)
        return text, problems

    return [(f"{spec['name']}:{target}", run, grade)]


def setup_subsets(spec):
    cocycles, fixtures, matroid, tutte = modules("cocycles", "fixtures", "matroid", "tutte")

    inst = spec["input"]
    nv = inst["vertices"]
    if "edges" in inst:
        edges = [tuple(e) for e in inst["edges"]]
        n = 2 * len(edges)

        def build():
            return fixtures.doubled_matroid(nv, edges)
    else:
        arcs = [tuple(a) for a in inst["arcs"]]
        n = len(arcs)

        def build():
            return matroid.OrientedMatroid.from_digraph(matroid.Digraph.make(nv, arcs))

    rank = spec["rank"]
    fns = {
        "tutte": lambda om: tutte.tutte(om).to_json_obj(),
        "potts": lambda om: tutte.potts(om).to_json_obj(),
        "characteristic": lambda om: tutte.characteristic(om).to_json_obj(),
        "classes": lambda om: classes_obj(cocycles.reorientation_classes(om, universe="all")),
    }
    # a freshly built instance per call: cold rank cache, as on the CLI
    calls = {call: (build(), fns[call]) for call in spec["calls"]}
    seen: dict = {}

    def item(call):
        om, fn = calls[call]

        def grade(obj):
            seen[call] = obj
            problems: list = []
            if call == "tutte":
                expect(evaluate(obj, {"x": 2, "y": 2}) == 2**n, "T(2,2) != 2^n", problems)
            elif call == "potts":
                # at y = 1 only the empty subset survives: q^rank
                expect(collapse(obj, "q") == {rank: 1}, "Z(q, y=1) != q^rank", problems)
            elif call == "characteristic" and "tutte" in seen:
                for q in range(rank + 2):
                    lhs = evaluate(obj, {"q": q})
                    rhs = (-1) ** rank * evaluate(seen["tutte"], {"x": 1 - q, "y": 0})
                    expect(lhs == rhs, f"chi({q}) != (-1)^r T(1-q, 0)", problems)
            elif call == "classes":
                expect(sum(obj["sizes"]) == 2**n, "class sizes do not cover 2^n", problems)
                if "tutte" in seen:
                    t = seen["tutte"]
                    expect(obj["count"] == evaluate(t, {"x": 1, "y": 2}), "classes != T(1,2)", problems)
                    expect(obj["acyclic_count"] == evaluate(t, {"x": 1, "y": 0}),
                           "acyclic classes != T(1,0)", problems)
            return canonical(obj), problems

        return f"{spec['name']}:{call}", (lambda: fn(om)), grade

    return [item(call) for call in calls]


def classes_obj(rc) -> dict:
    """The fields `omflow classes` prints."""
    return {
        "universe": rc.universe,
        "count": rc.count,
        "acyclic_count": rc.acyclic_count,
        "sizes": [len(c) for c in rc.classes],
        "acyclic": list(rc.acyclic_flags),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import omflow
    except ImportError as e:
        print(f"error: cannot import omflow from {src}: {e}", file=sys.stderr)
        return 2
    if Path(omflow.__file__).resolve().parent.parent != src.resolve():
        print(f"error: omflow was imported from {omflow.__file__}, not {src}", file=sys.stderr)
        return 2
    import omflow.cli  # noqa: F401  (loads every module, so the tracer sees them all)

    tracer = Tracer().install() if spec["trace"] else None
    setup = {"verify": setup_verify, "compute": setup_compute, "subsets": setup_subsets}
    items = setup[spec["kind"]](spec)
    ready_ns = time.monotonic_ns()

    results = []
    first = last = None
    for k, (item_id, run, grade) in enumerate(items):
        if tracer:
            tracer.current_item = k
        t0 = time.perf_counter_ns()
        try:
            out = run()
            error = None
        except Exception as e:  # an item that raises fails; the run goes on
            out, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter_ns()
        first = t0 if first is None else first
        last = t1
        text, problems = None, [error]
        if error is None:
            try:
                text, problems = grade(out)
            except Exception as e:  # malformed output fails the item
                problems = [f"checking the output raised {type(e).__name__}: {e}"]
        results.append({"id": item_id, "ns": t1 - t0, "problems": problems,
                        "digest": None if text is None else digest(text)})

    record = {
        "setup_ns": ready_ns - spec["spawn_ns"],
        "timed_ns": last - first,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": results,
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = aggregate(tracer.spans(), tracer.counts)
        record["absent"] = tracer.absent
        if spec["spans"]:
            tracer.write(spec["spans"])
    print(canonical(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
