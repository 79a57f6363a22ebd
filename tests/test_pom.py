"""Partially oriented invariants: frozen values for the three reference
instances, the linear relation between them, activity bookkeeping, and
agreement of all four algorithms over a slice of the corpus."""

import random
from fractions import Fraction

import pom_oracle
import pytest

from omflow.algebra import Poly
from omflow.errors import BudgetExceeded, InvalidPartition
from omflow.fixtures import (
    corpus_poms,
    doubled_pom,
    get_pom_fixture,
    half_oriented_pom,
    pom_fixture_names,
    pom_graph,
)
from omflow.matroid import Digraph, OrientedMatroid
from omflow.pom import (
    _pair_kind,
    activities,
    complete_orientations,
    make_pom,
    pom_evaluations,
    pom_minor,
    potential_bases,
    t1,
    t1_by_subsets,
    t2,
    t2_by_subsets,
    t_by_activities,
    t_by_recurrence,
    tutte_subgraph,
    verify_pom,
)
from omflow.tutte import tutte

XY = ("x", "y")
X = Poly.variable(XY, "x")
Y = Poly.variable(XY, "y")


def _failures(reports):
    return [r.line() for r in reports if r.status == "fail"]


# -- frozen reference values (hand-computed from the defining substitutions) --


def test_single_oriented_loop_values():
    p0 = get_pom_fixture("P0")
    assert t1(p0) == Y
    assert t2(p0) == Y * Fraction(1, 2)


def test_single_oriented_arc_values():
    p1 = get_pom_fixture("P1")
    assert t1(p1) == (X * Y + X - Y) * Fraction(1, 2)
    assert t2(p1) == X * Fraction(1, 2)


def test_triangle_with_parallel_arc_satisfies_linear_relation():
    p0, p1, p2 = (get_pom_fixture(k) for k in ("P0", "P1", "P2"))
    for fn in (t1, t2):
        assert fn(p2) == (X + Y + 1) * fn(p0) + (X + 1) * fn(p1)


def test_triangle_with_parallel_arc_frozen_values():
    p2 = get_pom_fixture("P2")
    half = Fraction(1, 2)
    assert t1(p2) == Poly(
        XY,
        {(0, 1): half, (0, 2): 1, (1, 0): half, (1, 1): 1, (2, 0): half, (2, 1): half},
    )
    assert t2(p2) == Poly(
        XY, {(0, 1): half, (0, 2): half, (1, 0): half, (1, 1): half, (2, 0): half}
    )


# -- potential bases and activities on the triangle-with-parallel-arc --------

# block positions in the P2 fixture: 0 = the oriented arc d, then the
# unoriented sides a=1, b=2, c=3, ordered a < b < c


def test_potential_bases_of_triangle_with_parallel_arc():
    p2 = get_pom_fixture("P2")
    assert sorted(potential_bases(p2)) == [(1, 2), (1, 3), (2,), (2, 3), (3,)]


def test_activities_match_worked_example():
    p2 = get_pom_fixture("P2")
    order = [1, 2, 3]
    assert activities(p2, (1, 2), order) == ((2,), ())
    assert activities(p2, (2, 3), order) == ((), (1,))
    # the expansion collects x^2, x, xy, y, 1 across the five bases
    tally = {}
    for basis in potential_bases(p2):
        i, e = activities(p2, basis, order)
        key = (len(i), len(e))
        tally[key] = tally.get(key, 0) + 1
    assert tally == {(1, 0): 2, (0, 0): 2, (0, 1): 1}


# -- rank questions against the cocircuit-based oracle -------------------------


def _orders(p):
    """The default elimination order and four seeded shuffles of it."""
    yield list(p.pairs)
    for seed in range(4):
        order = list(p.pairs)
        random.Random(seed).shuffle(order)
        yield order


def test_activities_match_cocircuit_oracle():
    cases = 0
    for name, p in corpus_poms():
        for basis in potential_bases(p):
            for order in _orders(p):
                want = pom_oracle.activities(p, basis, order)
                assert activities(p, basis, order) == want, (name, basis, order)
                cases += 1
    assert cases >= 400


def _recurrence_minors(p):
    """p and every minor that t_by_recurrence reaches from it, in any
    elimination order."""
    yield p
    for j in p.pairs:
        kind = pom_oracle._pair_kind(p, j)
        if kind != "coloop":
            yield from _recurrence_minors(pom_minor(p, delete=[j]))
        if kind != "loop":
            yield from _recurrence_minors(pom_minor(p, contract=[j]))


def test_pair_kinds_match_cocircuit_oracle():
    kinds = {}
    for name, p in corpus_poms():
        for minor in _recurrence_minors(p):
            for j in minor.pairs:
                want = pom_oracle._pair_kind(minor, j)
                assert _pair_kind(minor, j) == want, (name, minor, j)
                kinds[want] = kinds.get(want, 0) + 1
    assert sum(kinds.values()) >= 400
    assert set(kinds) == {"loop", "coloop", "generic"}


# -- structural validation ----------------------------------------------------


def _om(vertices, arcs, labels=None):
    return OrientedMatroid.from_digraph(Digraph.make(vertices, arcs, labels))


def test_make_pom_rejects_bad_partitions():
    om = _om(2, [(0, 1), (1, 0), (0, 1)])
    with pytest.raises(InvalidPartition):
        make_pom(om, [(0, 1)])  # misses element 2
    with pytest.raises(InvalidPartition):
        make_pom(om, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(InvalidPartition):
        make_pom(om, [(0, 2), (1,)])  # parallel, not opposite
    with pytest.raises(InvalidPartition):
        make_pom(om, [(0, 1, 2)])  # triple
    with pytest.raises(InvalidPartition):
        make_pom(om, [(0, 1), (2,), (3,)])  # out of range
    make_pom(om, [(0, 1), (2,)])  # the valid pairing


def test_two_loops_may_form_a_doubleton():
    # a doubled graph loop: both copies are matroid loops and one block
    p = doubled_pom(1, [(0, 0)])
    assert t1(p) == Y
    assert t2(p) == Y


def test_unoriented_digon_is_a_coloop_block():
    p = doubled_pom(2, [(0, 1)])
    assert len(complete_orientations(p)) == 2
    assert t1(p) == X
    assert t2(p) == X
    assert t_by_recurrence(p, 1) == X


def test_complete_orientations_budget():
    p = doubled_pom(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(BudgetExceeded):
        complete_orientations(p, budget=10)


def test_zero_budget_reaches_complete_orientations():
    # the budget is passed on as given, zero included, even on memo hits
    p2 = get_pom_fixture("P2")
    t2(p2)
    with pytest.raises(BudgetExceeded):
        t2(p2, budget=0)
    with pytest.raises(BudgetExceeded):
        t2_by_subsets(p2, budget=0)
    with pytest.raises(BudgetExceeded):
        pom_evaluations(p2, "P2", t1(p2), t2(p2), budget=0)


def test_pom_minor_reindexes_blocks():
    p2 = get_pom_fixture("P2")
    contracted = pom_minor(p2, contract=[1])  # contract the side parallel to d
    # both elements of the pair vanish; d becomes a loop on the merged vertex
    assert contracted.num_blocks == 3
    assert contracted.blocks[0] == (0,)
    assert {contracted.blocks[j] for j in contracted.pairs} == {(1, 2), (3, 4)}


# -- algorithm agreement -------------------------------------------------------


@pytest.mark.parametrize("fixture", pom_fixture_names())
def test_all_algorithms_agree_on_named_fixtures(fixture):
    p = get_pom_fixture(fixture)
    reports = verify_pom(p, fixture)
    assert not _failures(reports), "\n".join(_failures(reports))
    assert all(r.status == "pass" for r in reports)


def test_subset_and_recurrence_match_on_mixed_instance():
    p = half_oriented_pom(3, ((0, 1), (1, 2), (0, 2)))
    want = t1(p)
    assert t1_by_subsets(p) == want
    assert t_by_recurrence(p, 1) == want
    assert t_by_activities(p, 1) == want
    assert tutte_subgraph(p, 1) == want
    want2 = t2(p)
    assert t2_by_subsets(p) == want2
    assert t_by_recurrence(p, 2) == want2
    assert t_by_activities(p, 2) == want2
    assert tutte_subgraph(p, 2) == want2


def test_doubled_instances_recover_tutte_polynomial():
    cases = {
        (3, ((0, 1), (1, 2), (0, 2))): Poly(XY, {(2, 0): 1, (1, 0): 1, (0, 1): 1}),
        (2, ((0, 1), (0, 1))): Poly(XY, {(1, 0): 1, (0, 1): 1}),
    }
    for (nv, edges), want in cases.items():
        p = doubled_pom(nv, edges)
        assert t1(p) == want
        assert t2(p) == want
        assert tutte(p.om.delete(sum(1 << p.blocks[j][1] for j in p.pairs))) == want


def test_acyclic_orientation_count_of_doubled_triangle():
    p = doubled_pom(3, [(0, 1), (1, 2), (0, 2)])
    v = t1(p)
    assert v.eval_frac({"x": 2, "y": 0}) == 6
    assert t2(p).eval_frac({"x": 0, "y": 2}) == 2


def test_fully_oriented_pom_counts_itself():
    # an acyclic fully oriented instance has one complete orientation
    p = pom_graph(3, [(0, 1), (1, 2), (0, 2)], [])
    v1, v2 = t1(p), t2(p)
    assert v1.eval_frac({"x": 2, "y": 0}) == 1
    assert v2.eval_frac({"x": 2, "y": 0}) == 1
    assert v2.eval_frac({"x": 0, "y": 2}) == 0


def test_evaluations_pass_on_mixed_figure():
    p = get_pom_fixture("fig-partially-oriented")
    reports = pom_evaluations(p, "fig-partially-oriented", t1(p), t2(p))
    assert reports and all(r.status == "pass" for r in reports)


def test_corpus_slice_passes_verification():
    seen = 0
    for name, p in corpus_poms(max_vertices=3, max_edges=2):
        reports = verify_pom(p, name)
        assert not _failures(reports), (name, _failures(reports))
        seen += 1
    assert seen >= 10
