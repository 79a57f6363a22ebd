"""Cocycle reversing classes and their enumerative cross-checks.

A cocycle of the underlying matroid is a disjoint union of cocircuit
supports, equivalently a member of the GF(2) span of those supports,
equivalently a set meeting every circuit support evenly.  A positive
cocycle additionally has zero *signed* intersection with every circuit.

Reorienting positive cocircuits one at a time generates an equivalence
relation on reorientations (indexed by the subset of flipped elements).
The number of classes over the cocycle universe and over all subsets is
tied to evaluations of the even characteristic polynomials and of the
Tutte polynomial respectively; `verify_class_counts` checks all four
counts on one instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import F2Space, f2_enumerate, f2_span
from .coflows import DEFAULT_BUDGET, even_char_pair
from .errors import BudgetExceeded, InvariantViolated
from .identities import _expect, _skip, _skips_over_budget
from .matroid import OrientedMatroid, positive_union
from .tutte import tutte


def cocycle_space(om: OrientedMatroid) -> F2Space:
    """GF(2) span of the cocircuit supports."""
    return f2_span(d.support for d in om.cocircuits())


def is_cocycle(om: OrientedMatroid, s: int) -> bool:
    """Parity criterion: every circuit support meets `s` evenly."""
    return all((c.support & s).bit_count() % 2 == 0 for c in om.circuits)


def signed_intersection(circuit, s: int) -> int:
    """|C+ ∩ S| - |C- ∩ S| for a signed subset and a bitmask."""
    return (circuit.pos & s).bit_count() - (circuit.neg & s).bit_count()


def is_positive_cocycle(om: OrientedMatroid, s: int, space: F2Space = None) -> bool:
    """Zero signed intersection with every circuit, inside the cocycle space.

    The orthogonality already forces membership in the span; testing both
    keeps the two characterizations cross-validating each other.
    """
    if space is None:
        space = cocycle_space(om)
    return space.contains(s) and all(
        signed_intersection(c, s) == 0 for c in om.circuits
    )


@dataclass(frozen=True)
class ReorientationClasses:
    universe: str  # "cocycles" or "all"
    members: tuple  # sorted bitmasks
    classes: tuple  # tuples of member bitmasks, each sorted, sorted by head
    acyclic_flags: tuple  # one bool per class

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def acyclic_count(self) -> int:
        return sum(self.acyclic_flags)


def reorientation_classes(
    om: OrientedMatroid, universe: str = "cocycles", budget: int = DEFAULT_BUDGET
) -> ReorientationClasses:
    """Union-find over reorientations: flipping the support of a positive
    cocircuit of the current reorientation stays within a class."""
    if universe == "cocycles":
        members = f2_enumerate(cocycle_space(om))
    elif universe == "all":
        members = list(range(1 << om.n))
    else:
        raise ValueError(f"unknown universe {universe!r}")
    work = len(members) * max(1, len(om.circuits) + om.n)
    if work > budget:
        raise BudgetExceeded(work, budget)

    cocircs = om.cocircuits()
    parent = {s: s for s in members}

    def find(s):
        root = s
        while parent[root] != root:
            root = parent[root]
        while parent[s] != root:
            parent[s], s = root, parent[s]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for s in members:
        for d in cocircs:
            pos_up = (d.neg & ~s) == 0 and (d.pos & s) == 0
            neg_up = (d.pos & ~s) == 0 and (d.neg & s) == 0
            if pos_up or neg_up:
                union(s, s ^ d.support)

    groups: dict = {}
    for s in members:
        groups.setdefault(find(s), []).append(s)
    classes = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    flags = []
    for cls in classes:
        per_member = {not positive_union(om.circuits, s) for s in cls}
        # acyclicity is invariant under positive-cocycle reversal
        if len(per_member) != 1:
            raise InvariantViolated(f"mixed acyclicity in class {cls}")
        flags.append(per_member.pop())
    return ReorientationClasses(universe, tuple(members), classes, tuple(flags))


def alpha_signature(om: OrientedMatroid, s: int) -> tuple:
    """Half the signed intersection of `s` with every stored circuit.

    For a cocycle the parity criterion makes every entry an integer; one
    representative per {C, -C} pins the class of the corresponding
    reorientation (the signature is linear in the circuit vector).
    """
    out = []
    for c in om.circuits:
        d = signed_intersection(c, s)
        if d % 2:
            raise InvariantViolated("signed intersection of a cocycle must be even")
        out.append(d // 2)
    return tuple(out)


def omega_counts(
    om: OrientedMatroid, budget: int = DEFAULT_BUDGET
) -> tuple:
    """(#classes, #acyclic classes) over the cocycle universe.

    Computed twice: by union-find and by grouping cocycles on their
    signature; the two partitions must agree.
    """
    rc = reorientation_classes(om, "cocycles", budget)
    by_sig: dict = {}
    for s in rc.members:
        by_sig.setdefault(alpha_signature(om, s), []).append(s)
    sig_partition = sorted(tuple(sorted(g)) for g in by_sig.values())
    if sig_partition != sorted(rc.classes):
        raise InvariantViolated(
            "signature grouping disagrees with positive-cocircuit transport"
        )
    return rc.count, rc.acyclic_count


@_skips_over_budget("classes")
def verify_class_counts(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET
) -> list:
    """Check the four class counts against their polynomial evaluations."""
    suite = "classes"
    if om.tu_status != "true":
        return [_skip(suite, "all", name, "input is not totally unimodular")]
    geq, gt = omega_counts(om, budget)
    rc_all = reorientation_classes(om, "all", budget)
    t = tutte(om, budget)
    even = even_char_pair(om, budget=budget)
    out = [
        _expect(suite, "all-classes-tutte-1-2", name, rc_all.count,
                t.eval_frac({"x": 1, "y": 2})),
        _expect(suite, "acyclic-classes-tutte-1-0", name, rc_all.acyclic_count,
                t.eval_frac({"x": 1, "y": 0})),
        _expect(suite, "cocycle-classes-weak-even-0", name, geq,
                even.weak.eval_frac({"q": 0})),
        _expect(suite, "acyclic-cocycle-classes-strict-even-0", name, gt,
                (-1) ** om.rank * even.strict.eval_frac({"q": 0})),
    ]
    # span membership and the parity criterion cut out the same sets
    space = cocycle_space(om)
    if om.n <= 12:
        ok = all(space.contains(s) == is_cocycle(om, s) for s in range(1 << om.n))
        out.append(_expect(suite, "cocycle-space-vs-parity", name, ok, True))
    # positive cocycles are closed under transport: if s is a positive
    # cocycle and s' is one of the reorientation by s, so is s ^ s'
    members = f2_enumerate(space)
    positives = [s for s in members if is_positive_cocycle(om, s, space)]
    ok = True
    for s in positives:
        flipped = om.reorient(s)
        for s2 in members:
            if is_positive_cocycle(flipped, s2, space):
                ok = ok and is_positive_cocycle(om, s ^ s2, space)
    out.append(_expect(suite, "positive-cocycle-transport", name, ok, True))
    return out
