"""Tutte, Potts, and characteristic polynomials by subset expansion.

These depend only on the rank function of the underlying matroid, never on
signs, and serve as the independent reference side for the coflow-based
identities.  The rank function is read from the circuit list
(`OrientedMatroid.rank_of`).  One walk over the 2^n element subsets counts
them by (corank, nullity); `tutte` and `potts` read that table as a
polynomial and change its variables (`Poly.compose`).
"""

from __future__ import annotations

from .algebra import Poly
from .coflows import DEFAULT_BUDGET
from .errors import BudgetExceeded
from .matroid import OrientedMatroid

XY = ("x", "y")
QY = ("q", "y")


def _corank_nullity(om: OrientedMatroid, budget: int) -> dict:
    """{(corank, nullity): number of element subsets with those values}."""
    if 1 << om.n > budget:
        raise BudgetExceeded(1 << om.n, budget)
    r = om.rank
    counts: dict = {}
    for s in range(1 << om.n):
        rs = om.rank_of(s)
        key = (r - rs, s.bit_count() - rs)
        counts[key] = counts.get(key, 0) + 1
    return counts


def tutte(om: OrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Corank-nullity expansion: sum_S (x-1)^(r-r(S)) (y-1)^(|S|-r(S))."""
    table = Poly(("corank", "nullity"), _corank_nullity(om, budget))
    x, y = (Poly.variable(XY, v) for v in XY)
    return table.compose(XY, {"corank": x - 1, "nullity": y - 1})


def potts(om: OrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Partition-function form: sum_S y^(|E|-|S|) (1-y)^|S| q^(rank(E)-rank(S))."""
    r = om.rank
    terms = {}
    for (a, b), c in _corank_nullity(om, budget).items():
        k = r - a + b  # |S|
        terms[(a, om.n - k, k)] = c
    table = Poly(("corank", "outside", "inside"), terms)
    q, y = (Poly.variable(QY, v) for v in QY)
    return table.compose(QY, {"corank": q, "outside": y, "inside": 1 - y})


def characteristic(om: OrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """(-1)^rank * T(1-q, 0), as a univariate polynomial in q."""
    t = tutte(om, budget)
    qv = ("q",)
    one_minus_q = Poly.const(qv, 1) - Poly.variable(qv, "q")
    out = t.compose(qv, {"x": one_minus_q, "y": 0})
    return out * (-1) ** om.rank
