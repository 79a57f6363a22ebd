"""Acceptance gate: ten build criteria, one test per criterion.

Everything is exact rational arithmetic, so every comparison here is
equality with zero tolerance.  Criteria with a runtime limit time the work
they cover with a monotonic clock; the limits are generous on purpose — the
point is to catch accidental exponential blowups, not to benchmark.
"""

import time
from fractions import Fraction

from omflow.algebra import Poly
from omflow.cocycles import omega_counts, verify_class_counts
from omflow.coflows import (
    a_eval,
    a_poly,
    a_even_poly,
    b_poly,
    clear_caches,
    coflow_histogram,
    digraph_a_eval,
)
from omflow.fixtures import (
    corpus_doubled,
    corpus_poms,
    default_corpus,
    doubled_pom,
    get_fixture,
    get_pom_fixture,
)
from omflow.identities import run_suites, verify_tutte_relations
from omflow.matroid import Digraph, OrientedMatroid
from omflow.pom import t1, t2, verify_pom
from omflow.tutte import potts, tutte

QYZ = ("q", "y", "z")
_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = list(default_corpus())
    return _CORPUS


def test_criterion_01_golden_sign_statistics_polynomial():
    clear_caches()
    t0 = time.perf_counter()
    om, _ = get_fixture("fig-exp-Apoly")
    p = a_poly(om)
    q, y, z = (Poly.variable(QYZ, v) for v in QYZ)
    half = Fraction(1, 2)
    expected = y * z * (1 + (q - 1) * half * (y + z)) ** 2 + (1 - y * z) * (
        1 + (q - 1) * y * z
    )
    assert p == expected
    at3 = {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 1): 2, (1, 3): 1, (3, 1): 1}
    assert p.subs_scalar("q", 3) == Poly(
        ("y", "z"), {e: Fraction(c) for e, c in at3.items()}
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_reciprocity_goldens():
    clear_caches()
    t0 = time.perf_counter()
    om, _ = get_fixture("fig-exp-Apoly")
    sign = Fraction(-1) ** om.rank
    pm1 = a_poly(om).subs_scalar("q", -1)

    yv = Poly.variable(("y",), "y")
    one = Poly.const(("y",), 1)
    counted = sign * pm1.compose(("y",), {"y": yv + 1, "z": one})
    assert counted == Poly(
        ("y",), {(3,): Fraction(1), (2,): Fraction(5), (1,): Fraction(4), (0,): Fraction(1)}
    )

    yb, zb = (Poly.variable(("y", "z"), v) for v in ("y", "z"))
    graded = pm1.compose(("y", "z"), {"y": yb, "z": yb * zb})
    top = Poly(
        ("z",), {(j,): c for (i, j), c in graded.numerators().items() if i == om.n},
        graded.den,
    )
    assert sign * top == Poly(
        ("z",), {(1,): Fraction(1), (2,): Fraction(4), (3,): Fraction(1)}
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_negative_control_u24():
    t0 = time.perf_counter()
    om, _ = get_fixture("U24")
    x, yx = (Poly.variable(("x", "y"), v) for v in ("x", "y"))
    assert tutte(om) == x**2 + 2 * x + 2 * yx + yx**2
    q, yp = (Poly.variable(("q", "y"), v) for v in ("q", "y"))
    assert potts(om) == (
        q**2 * yp**4 - 4 * q * yp**4 + 4 * q * yp**3 + 3 * yp**4 - 4 * yp**3 + 1
    )
    hist = coflow_histogram(om, 3)
    by_support = {}
    for (g, l, h), c in hist.counts:
        k = g + l + h
        by_support[(k,)] = by_support.get((k,), 0) + c
    coflow_sum = Poly(("y",), {e: Fraction(c) for e, c in by_support.items()})
    assert coflow_sum == Poly.const(("y",), 1)
    assert coflow_sum != potts(om).subs_scalar("q", 3)
    # the suite itself must assert the inequality, not skip it
    reports = verify_tutte_relations(om, "U24")
    assert [(r.check, r.status) for r in reports] == [
        ("negative-control-q3", "pass"),
        ("negative-control-q5", "pass"),
    ]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_identity_suites_full_default_corpus():
    t0 = time.perf_counter()
    reports = []
    for name, om, d in _corpus():
        reports.extend(run_suites(om, name, digraph=d))
    failures = [r.line() for r in reports if r.status == "fail"]
    assert not failures, failures[:10]
    assert sum(r.status == "pass" for r in reports) > 30000
    seen = {r.instance for r in reports}
    assert {"U24", "R10", "fig-exp-Apoly", "fig-cocycle-classes"} <= seen
    assert time.perf_counter() - t0 < 600.0


def test_criterion_05_partial_orientation_suite():
    xy = ("x", "y")
    # doubling every edge and leaving all pairs unoriented recovers the
    # Tutte polynomial of the underlying multigraph, for both conventions
    for name, (nv, edges), _om in corpus_doubled():
        p = doubled_pom(nv, edges)
        base = tutte(OrientedMatroid.from_digraph(Digraph.make(nv, edges)))
        assert t1(p) == base, name
        assert t2(p) == base, name

    # the three-block example: T = (x+y+1) T0 + (x+1) T1
    p0, p1, p2 = (get_pom_fixture(n) for n in ("P0", "P1", "P2"))
    x, y = (Poly.variable(xy, v) for v in xy)
    for fn in (t1, t2):
        assert fn(p2) == (x + y + 1) * fn(p0) + (x + 1) * fn(p1)

    # orientation-count evaluations and pairwise algorithm agreement with
    # two shuffled elimination orders per instance
    reports = []
    for name, p in corpus_poms():
        reports.extend(verify_pom(p, name))
    failures = [r.line() for r in reports if r.status == "fail"]
    assert not failures, failures[:10]
    checks = {r.check for r in reports}
    assert {
        "t1-subset-expansion", "t2-subset-expansion",
        "t1-recurrence-order1", "t1-recurrence-order2",
        "t2-recurrence-order1", "t2-recurrence-order2",
        "t1-activities-order1", "t2-activities-order2",
        "t1-corank-nullity", "t2-corank-nullity",
        "acyclic-count-t1", "acyclic-count-t2", "totally-cyclic-count-t2",
        "t1-matches-tutte", "t2-matches-tutte",
    } <= checks


def test_criterion_06_cocycle_class_suite():
    om_fig, _ = get_fixture("fig-cocycle-classes")
    assert omega_counts(om_fig) == (3, 1)
    reports = []
    for name, om, _d in _corpus():
        reports.extend(verify_class_counts(om, name))
    failures = [r.line() for r in reports if r.status == "fail"]
    assert not failures, failures[:10]
    checks = {r.check for r in reports}
    assert {
        "all-classes-tutte-1-2",
        "acyclic-classes-tutte-1-0",
        "cocycle-classes-weak-even-0",
        "acyclic-cocycle-classes-strict-even-0",
    } <= checks


def test_criterion_07_potential_vs_coflow_statistics():
    for name, om, d in _corpus():
        if d is None:
            continue
        for q in (1, 3, 5):
            assert digraph_a_eval(d, q) == a_eval(om, q), (name, q)


def test_criterion_08_b_polynomial_bridge():
    for name, om, d in _corpus():
        if d is None:
            continue
        lhs = a_poly(om).subs_scalar("q", -1)
        rhs = Fraction(-1) ** d.components() * b_poly(d).subs_scalar("q", -1)
        assert lhs == rhs, name


def test_criterion_09_r10_performance():
    om, _ = get_fixture("R10")
    assert (om.n, om.rank, om.tu_status) == (10, 5, "true")

    clear_caches()
    t0 = time.perf_counter()
    single = a_poly(om, jobs=1)
    assert time.perf_counter() - t0 < 300.0

    clear_caches()
    t0 = time.perf_counter()
    quad = a_poly(om, jobs=4)
    assert time.perf_counter() - t0 < 120.0
    assert single == quad

    for q in (1, 3, 5, 7, 9, 11, 13):
        hist = coflow_histogram(om, q)
        assert sum(c for _e, c in hist.counts) == q**5, q


def test_criterion_10_degree_safety_corpus_wide():
    # every assembly re-evaluates itself at a spare interpolation node and
    # raises DegreeSafetyCheckFailed on mismatch; building the whole corpus
    # is the check
    for name, om, d in _corpus():
        p = a_poly(om)
        ev = a_even_poly(om)
        assert ev.odd == p, name
        if d is not None:
            b_poly(d)
