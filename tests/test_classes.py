"""Cocycle space, positive cocycles, and reorientation class counts."""

import itertools

import pytest

from omflow import cocycles
from omflow.algebra import f2_enumerate
from omflow.cocycles import (
    alpha_signature,
    cocycle_space,
    is_cocycle,
    is_positive_cocycle,
    omega_counts,
    reorientation_classes,
    verify_class_counts,
)
from omflow.errors import BudgetExceeded, InvariantViolated
from omflow.fixtures import doubled_matroid, get_fixture
from omflow.matroid import Digraph, OrientedMatroid
from omflow.tutte import tutte


def _om(vertices, arcs):
    return OrientedMatroid.from_digraph(Digraph.make(vertices, arcs))


TRIANGLE = _om(3, [(0, 1), (1, 2), (0, 2)])
PATH = _om(4, [(0, 1), (1, 2), (2, 3)])  # three coloops
LOOP = _om(1, [(0, 0)])


def test_cocycle_space_of_coloops_is_full_power_set():
    assert len(f2_enumerate(cocycle_space(PATH))) == 8


def test_cocycle_space_of_a_loop_is_trivial():
    assert f2_enumerate(cocycle_space(LOOP)) == [0]


def test_cocycle_space_matches_parity_criterion_exhaustively():
    for om in (TRIANGLE, PATH, LOOP, doubled_matroid(3, [(0, 1), (1, 2)])):
        space = cocycle_space(om)
        for s in range(1 << om.n):
            assert space.contains(s) == is_cocycle(om, s)


def test_empty_set_is_a_positive_cocycle():
    assert is_positive_cocycle(TRIANGLE, 0)


def test_positive_and_mixed_cocircuits():
    # vertex 1 of the triangle has one arc in and one arc out: mixed
    mixed = [d for d in TRIANGLE.cocircuits() if d.pos and d.neg]
    positive = [d for d in TRIANGLE.cocircuits() if not d.neg]
    assert mixed and positive
    for d in positive:
        assert is_positive_cocycle(TRIANGLE, d.support)
    for d in mixed:
        assert not is_positive_cocycle(TRIANGLE, d.support)


def _decomposable(s, supports):
    """Is `s` a disjoint union of the given supports?"""
    if s == 0:
        return True
    low = s & -s
    return any(
        _decomposable(s & ~d, supports)
        for d in supports
        if d & s == d and d & low
    )


@pytest.mark.parametrize(
    "om",
    [TRIANGLE, PATH, LOOP, _om(2, [(0, 1), (1, 0)]), doubled_matroid(2, [(0, 1), (0, 1)])],
    ids=["triangle", "path", "loop", "digon", "doubled-parallel"],
)
def test_positive_cocycles_are_disjoint_unions_of_positive_cocircuits(om):
    supports = [d.support for d in om.cocircuits() if not d.neg]
    for s in range(1 << om.n):
        assert is_positive_cocycle(om, s) == _decomposable(s, supports)


def test_alpha_signature_is_integral_on_cocycles():
    space = cocycle_space(TRIANGLE)
    for s in f2_enumerate(space):
        sig = alpha_signature(TRIANGLE, s)
        assert all(isinstance(v, int) for v in sig)


def test_figure_counts():
    om, _ = get_fixture("fig-cocycle-classes")
    assert omega_counts(om) == (3, 1)
    rc = reorientation_classes(om, "all")
    assert (rc.count, rc.acyclic_count) == (14, 4)
    t = tutte(om)
    assert t.eval_frac({"x": 1, "y": 2}) == 14
    assert t.eval_frac({"x": 1, "y": 0}) == 4


def test_coloops_collapse_to_one_class():
    rc = reorientation_classes(PATH, "cocycles")
    assert rc.count == 1
    assert rc.acyclic_flags == (True,)


def test_loop_blocks_acyclicity_everywhere():
    rc = reorientation_classes(LOOP, "all")
    assert rc.count == 2
    assert rc.acyclic_count == 0


def test_empty_matroid_counts():
    empty = _om(0, [])
    assert omega_counts(empty) == (1, 1)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        reorientation_classes(TRIANGLE, "all", budget=3)


def test_unknown_universe_rejected():
    with pytest.raises(ValueError):
        reorientation_classes(TRIANGLE, "everything")


@pytest.mark.parametrize(
    "name,om",
    [
        ("triangle", TRIANGLE),
        ("path", PATH),
        ("loop", LOOP),
        ("doubled-path", doubled_matroid(3, [(0, 1), (1, 2)])),
        ("doubled-loop+edge", doubled_matroid(2, [(0, 0), (0, 1)])),
    ],
)
def test_class_count_checks_pass(name, om):
    reports = verify_class_counts(om, name)
    assert reports and all(r.status == "pass" for r in reports), [
        r.line() for r in reports if r.status != "pass"
    ]


def test_class_counts_skip_on_irregular_input():
    om, _ = get_fixture("U24")
    reports = verify_class_counts(om, "U24")
    assert [r.status for r in reports] == ["skip"]


# Invariants are checked by exceptions, so `python -O` keeps them.  Each
# test breaks one invariant by substituting a wrong helper.


def test_mixed_acyclicity_in_a_class_raises(monkeypatch):
    unions = itertools.cycle([0, 0b1])
    monkeypatch.setattr(cocycles, "positive_union", lambda cs, s: next(unions))
    # flipping a coloop's positive cocircuit joins both reorientations
    with pytest.raises(InvariantViolated, match="mixed acyclicity"):
        reorientation_classes(_om(2, [(0, 1)]), "all")


def test_odd_signed_intersection_raises(monkeypatch):
    monkeypatch.setattr(cocycles, "signed_intersection", lambda c, s: 1)
    with pytest.raises(InvariantViolated, match="must be even"):
        alpha_signature(TRIANGLE, 0)


def test_signature_partition_disagreement_raises(monkeypatch):
    monkeypatch.setattr(cocycles, "alpha_signature", lambda om, s: s)
    with pytest.raises(InvariantViolated, match="signature grouping"):
        omega_counts(get_fixture("fig-cocycle-classes")[0])
