"""The identity suites on a spread of small instances, plus frozen values
for the two reciprocity specializations on the three-vertex example."""

import itertools
from fractions import Fraction

import pytest

from omflow import identities
from omflow.algebra import Poly
from omflow.coflows import a_poly
from omflow.fixtures import default_corpus, doubled_matroid, get_fixture
from omflow.identities import (
    EXPANSION_SIZE_CAP,
    CheckReport,
    _cmp,
    _expect,
    run_suites,
    verify_duality,
    verify_tutte_relations,
)
from omflow.matroid import Digraph, OrientedMatroid, reindex_mask


def _failures(reports):
    return [r.line() for r in reports if r.status == "fail"]


def _om(vertices, arcs):
    return OrientedMatroid.from_digraph(Digraph.make(vertices, arcs))


SMALL_INSTANCES = [
    ("empty", _om(0, [])),
    ("single-arc", _om(2, [(0, 1)])),
    ("self-loop", _om(1, [(0, 0)])),
    ("digon", _om(2, [(0, 1), (1, 0)])),
    ("parallel", _om(2, [(0, 1), (0, 1)])),
    ("triangle", _om(3, [(0, 1), (1, 2), (0, 2)])),
    ("doubled-path", doubled_matroid(3, [(0, 1), (1, 2)])),
    ("doubled-loop+edge", doubled_matroid(2, [(0, 0), (0, 1)])),
]


@pytest.mark.parametrize("name,om", SMALL_INSTANCES, ids=[n for n, _ in SMALL_INSTANCES])
def test_suites_pass_on_small_instances(name, om):
    reports = run_suites(om, name)
    assert not _failures(reports), "\n".join(_failures(reports))


@pytest.mark.parametrize("fixture", ["fig-exp-Apoly", "fig-cocycle-classes"])
def test_suites_pass_on_named_digraphs(fixture):
    om, d = get_fixture(fixture)
    reports = run_suites(om, fixture, digraph=d)
    assert not _failures(reports)
    assert all(r.status == "pass" for r in reports), [
        r.line() for r in reports if r.status != "pass"
    ]


def test_u24_skips_regular_suites_and_fails_potts_match():
    om, _ = get_fixture("U24")
    reports = run_suites(om, "U24")
    assert not _failures(reports)
    controls = [r for r in reports if r.check.startswith("negative-control")]
    assert len(controls) == 2 and all(r.status == "pass" for r in controls)
    skips = {r.suite for r in reports if r.status == "skip"}
    assert skips == {"basic", "expansions", "reciprocity", "duality", "recurrences"}


def test_cmp_reports_mismatch():
    one = Poly.const(("y",), 1)
    two = Poly.const(("y",), 2)
    r = _cmp("s", "c", "i", one, two)
    assert r.status == "fail" and not r.ok and "lhs=" in r.detail
    assert isinstance(r, CheckReport) and _cmp("s", "c", "i", one, one).ok


def test_expect_reports_got_and_want():
    # the pom, classes and indicator checks report a mismatch in this form
    bad = _expect("s", "c", "i", Fraction(1, 2), 1)
    assert (bad.status, bad.detail) == ("fail", "got 1/2, want 1")
    good = _expect("s", "c", "i", 3, 3)
    assert (good.status, good.detail) == ("pass", "")


@pytest.mark.parametrize("fixture", ["fig-exp-Apoly", "fig-cocycle-classes"])
def test_dual_at_three_fails_on_one_perturbed_dual_coefficient(fixture, monkeypatch):
    om, _ = get_fixture(fixture)
    dual = om.dual()
    real_a_eval = identities.a_eval

    def perturbed(m, q, **kw):
        stats = real_a_eval(m, q, **kw)
        if m is dual and q == 3:
            stats = stats + Poly.monomial(stats.vars, min(stats.numerators()), 1)
        return stats

    reports = {r.check: r for r in verify_duality(om, fixture)}
    assert reports["dual-at-three"].status == "pass"
    monkeypatch.setattr(identities, "a_eval", perturbed)
    reports = {r.check: r for r in verify_duality(om, fixture)}
    assert reports["dual-at-three"].status == "fail"
    assert reports["dual-at-three"].detail.startswith("mismatch at points")
    assert reports["dual-at-minus-one"].status == "pass"


def test_minor_reoriented_commutes_with_reorient_first():
    om, _ = get_fixture("fig-cocycle-classes")
    # flipping elements {0, 3} then deleting {1} must equal deleting first
    # and flipping the reindexed survivors
    direct = om.reorient(0b01001).minor(delete=0b00010)
    kept = [i for i in range(om.n) if i != 1]
    minor_first = om.minor(delete=0b00010).reorient(reindex_mask(0b01001, kept))
    assert direct.circuits == minor_first.circuits


# -- frozen reciprocity specializations on the three-vertex example --------


def test_acyclic_deletion_counts_match_frozen_polynomial():
    om, _ = get_fixture("fig-exp-Apoly")
    lhs = Poly(("y",), {})
    for r_mask in range(1 << om.n):
        if om.delete(r_mask).classify().is_acyclic:
            lhs = lhs + Poly.monomial(("y",), (om.n - r_mask.bit_count(),), 1)
    assert lhs == Poly(
        ("y",), {(3,): Fraction(1), (2,): Fraction(5), (1,): Fraction(4), (0,): Fraction(1)}
    )
    p = a_poly(om)
    rhs = p.compose(("y",), {"q": Poly.const(("y",), -1),
                             "y": 1 + Poly.variable(("y",), "y"),
                             "z": Poly.const(("y",), 1)})
    assert lhs == Fraction(-1) ** om.rank * rhs


def test_acyclic_reorientation_counts_match_frozen_polynomial():
    om, _ = get_fixture("fig-exp-Apoly")
    lhs = Poly(("z",), {})
    for t_mask in range(1 << om.n):
        if om.reorient(t_mask).classify().is_acyclic:
            lhs = lhs + Poly.monomial(("z",), (t_mask.bit_count(),), 1)
    assert lhs == Poly(("z",), {(1,): Fraction(1), (2,): Fraction(4), (3,): Fraction(1)})
    p = a_poly(om)
    rhs = Poly(("z",), {})
    for (k, i, j), c in p.numerators().items():
        if i + j == om.n:
            rhs = rhs + Poly.monomial(("z",), (j,), Fraction(c, p.den) * (-1) ** k)
    assert lhs == Fraction(-1) ** om.rank * rhs


def test_r10_tutte_suite_negative_free():
    om, _ = get_fixture("R10")
    # only the cheap diagonal check: doubling exceeds the circuit cap and the
    # full reorientation average is exercised by the corpus run
    reports = [
        r for r in verify_tutte_relations(om, "R10") if r.check == "diagonal-potts"
    ]
    assert reports and all(r.status == "pass" for r in reports)


def test_reoriented_keys_from_masks():
    # verify_expansions counts partitions by each reoriented minor's memo key,
    # read off the circuit masks; it must list the circuits flipped one by
    # one, signed canonically, in the stored order.  Every distinct oriented
    # matroid of the corpus within the suite's size cap is walked.
    small = {}
    for name, om, _ in default_corpus():
        if om.n <= EXPANSION_SIZE_CAP:
            small.setdefault(om.canonical_key(), (name, om))
    for name, om in small.values():
        for R in range(1 << om.n):
            mdel, mcon = om.delete(R), om.contract(R)
            for t, m in itertools.product(range(mdel.full_mask + 1), (mdel, mcon)):
                flipped = sorted((c.reorient(t).canonical() for c in m.circuits),
                                 key=lambda c: (c.support, c.pos))
                want = (m.n, tuple((c.pos, c.neg) for c in flipped))
                assert m.reoriented_key(t) == m.reorient(t).canonical_key() == want, name


def test_pair_cocircuit_rule_matches_the_cocircuits():
    # verify_recurrences calls an opposite pair a cocircuit when deleting it
    # drops the rank; the dual's circuits must say the same on every pair
    pairs = 0
    for name, om, _ in default_corpus():
        opposite = om.opposite_pairs()
        if not opposite:
            continue
        cocircuits = {d.support for d in om.cocircuits()}
        for i, j in opposite:
            em = 1 << i | 1 << j
            by_rank = om.rank_of(om.full_mask & ~em) < om.rank
            assert by_rank == (em in cocircuits), (name, i, j)
            pairs += 1
    assert pairs > 500
