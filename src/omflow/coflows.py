"""Enumeration of mod-q coflows and the polynomials built from their counts.

A mod-q coflow assigns a residue to every element so that, around every
circuit, the sum over the positive side equals the sum over the negative
side.  Fixing a basis, every coflow is determined by its basis values via the
fundamental-circuit relations, so enumeration walks the q^rank basis
assignments in mixed-radix order (lowest-index basis element varying
fastest) and extends each one with an integer matrix product — numpy does the
heavy lifting, all in int64.

For inputs whose representation failed the unimodularity guard, the
fundamental-circuit extension is still a sound superset generator (the
relations are necessary conditions), and the enumeration post-filters the
extensions against every circuit condition.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Poly, interpolate_columns
from .errors import BudgetExceeded, DegreeSafetyCheckFailed
from .matroid import Digraph, OrientedMatroid, bits_of

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 16

QYZ = ("q", "y", "z")
QYZW = ("q", "y", "z", "w")


# ---------------------------------------------------------------------------
# extension machinery
# ---------------------------------------------------------------------------


def extension_matrix(om: OrientedMatroid):
    """(basis columns, n x rank int64 extension matrix, circuit filter or None).

    Row a of the matrix expresses f(a) as a signed sum of basis values, read
    off the signs of the fundamental circuit of a.  The filter is a matrix of
    signed circuit indicator rows, present only when the representation is not
    known to be unimodular.
    """
    basis_mask = om.lex_basis_mask()
    bcols = sorted(bits_of(basis_mask))
    r, n = len(bcols), om.n
    ext = np.zeros((n, r), dtype=np.int64)
    for j, b in enumerate(bcols):
        ext[b, j] = 1
    if r:
        fund = om.fundamental_circuits(basis_mask)
        for a, c in fund.items():
            # circuit has a on the positive side: f(a) = sum(neg) - sum(pos\{a})
            for j, b in enumerate(bcols):
                if c.neg >> b & 1:
                    ext[a, j] = 1
                elif c.pos >> b & 1:
                    ext[a, j] = -1
    filt = None
    if om.tu_status == "not-tu":
        rows = []
        for c in om.circuits:
            row = np.zeros(n, dtype=np.int64)
            for i in bits_of(c.pos):
                row[i] = 1
            for i in bits_of(c.neg):
                row[i] = -1
            rows.append(row)
        filt = np.array(rows, dtype=np.int64) if rows else None
    return bcols, ext, filt


def _digit_block(start: int, stop: int, q: int, r: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    if r == 0:
        return np.zeros((stop - start, 0), dtype=np.int64)
    cols = [(idx // q**j) % q for j in range(r)]
    return np.stack(cols, axis=1)


def _hist_range(ext, filt, q: int, start: int, stop: int, n: int) -> np.ndarray:
    """Histogram of (pos-count, neg-count, mid-count) over an index range."""
    size = n + 1
    acc = np.zeros(size * size * size, dtype=np.int64)
    r = ext.shape[1]
    half = q // 2
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        X = _digit_block(lo, hi, q, r)
        V = (X @ ext.T) % q
        if filt is not None and filt.size:
            ok = np.all((V @ filt.T) % q == 0, axis=1)
            V = V[ok]
        if q % 2:
            g = ((V >= 1) & (V <= half)).sum(axis=1)
            l = (V > half).sum(axis=1)
            h = np.zeros_like(g)
        else:
            g = ((V >= 1) & (V < half)).sum(axis=1)
            h = (V == half).sum(axis=1)
            l = (V > half).sum(axis=1)
        code = (g * size + l) * size + h
        acc += np.bincount(code, minlength=size * size * size)
    return acc


def _box_count(ext, filt, q, lo_val, hi_val, budget: int) -> int:
    """Count assignments whose every extended value lies in [lo_val, hi_val]."""
    if lo_val > hi_val:
        # only the empty coflow of an empty ground set lies in an empty box
        return int(ext.shape[0] == 0)
    r = ext.shape[1]
    total = 0
    width = hi_val - lo_val + 1
    stop = width**r
    _check_budget(stop, budget)
    for lo in range(0, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        if r == 0:
            X = np.zeros((hi - lo, 0), dtype=np.int64)
        else:
            cols = [((idx // width**j) % width) + lo_val for j in range(r)]
            X = np.stack(cols, axis=1)
        V = (X @ ext.T) % q
        ok = np.all((V >= lo_val) & (V <= hi_val), axis=1)
        if filt is not None and filt.size:
            ok &= np.all((V @ filt.T) % q == 0, axis=1)
        total += int(ok.sum())
    return total


def _check_budget(amount: int, budget: int) -> None:
    if amount > budget:
        raise BudgetExceeded(amount, budget)


# ---------------------------------------------------------------------------
# interpolation in q and the memo
# ---------------------------------------------------------------------------


def _interpolated(vars, nodes, count_at, spares: dict, what: str) -> Poly:
    """The polynomial over `vars` (q first) through counts at integer nodes.

    `count_at(q)` maps monomials in the remaining variables to counts; each
    monomial's coefficient is interpolated in q over `nodes`.  `spares` maps
    spare nodes to counts found independently, which the result must
    reproduce exactly, or the degree assumption was wrong.  Callers count the
    spares first: they are the most expensive enumerations, so a budget trip
    costs nothing instead of all the cheaper nodes.
    """
    evals = [count_at(q) for q in nodes]
    monos = sorted({e for ev in evals for e in ev})
    cols = interpolate_columns(nodes, [[ev.get(e, 0) for ev in evals] for e in monos])
    poly = Poly(
        vars, {(k, *e): c for e, col in zip(monos, cols) for k, c in col.items()}
    )
    for q, counts in spares.items():
        if poly.subs_scalar("q", q) != Poly(vars[1:], counts):
            raise DegreeSafetyCheckFailed(f"{what} at q={q}")
    return poly


_MEMO: dict = {}


def _memoized(fn):
    """Remember fn(om, ...) per (fn, om.canonical_key()).

    The result depends only on the signed circuits, so `budget` and `jobs`
    are not part of the key: a hit enumerates nothing and trips no budget.
    """

    @functools.wraps(fn)
    def cached(om: OrientedMatroid, *args, **kwargs):
        key = (fn, om.canonical_key())
        hit = _MEMO.get(key)
        if hit is None:
            hit = _MEMO[key] = fn(om, *args, **kwargs)
        return hit

    return cached


def clear_caches() -> None:
    """Forget every memoized result."""
    _MEMO.clear()


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoflowHistogram:
    q: int
    n: int
    counts: tuple  # sorted ((g, l, h), count) pairs
    total: int

    def as_dict(self) -> dict:
        return dict(self.counts)

    def to_json_obj(self) -> dict:
        if self.q % 2:
            rows = [[g, l, c] for (g, l, h), c in self.counts]
        else:
            rows = [[g, l, h, c] for (g, l, h), c in self.counts]
        return {"q": self.q, "counts": rows}


def coflow_histogram(
    om: OrientedMatroid, q: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> CoflowHistogram:
    if q < 1:
        raise ValueError("q must be a positive integer")
    bcols, ext, filt = extension_matrix(om)
    r = len(bcols)
    total = q**r
    _check_budget(total, budget)
    size = om.n + 1
    if jobs > 1 and total > 4 * _CHUNK:
        bounds = [total * k // jobs for k in range(jobs + 1)]
        payloads = [
            (ext, filt, q, bounds[k], bounds[k + 1], om.n) for k in range(jobs)
        ]
        acc = np.zeros(size**3, dtype=np.int64)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_hist_worker, payloads):
                acc += part
    else:
        acc = _hist_range(ext, filt, q, 0, total, om.n)
    counts = []
    for code in np.nonzero(acc)[0]:
        code = int(code)
        h = code % size
        l = (code // size) % size
        g = code // (size * size)
        counts.append(((g, l, h), int(acc[code])))
    counts.sort()
    found = int(acc.sum())
    return CoflowHistogram(q=q, n=om.n, counts=tuple(counts), total=found)


def _hist_worker(payload):
    return _hist_range(*payload)


# ---------------------------------------------------------------------------
# the trivariate flow polynomial and friends
# ---------------------------------------------------------------------------


def a_eval(
    om: OrientedMatroid, q: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """The (y, z) generating polynomial of coflow sign-statistics at odd q."""
    if q % 2 == 0:
        raise ValueError("a_eval is defined at odd q")
    hist = coflow_histogram(om, q, budget=budget, jobs=jobs)
    terms: dict = {}
    for (g, l, h), c in hist.counts:
        assert h == 0
        terms[(g, l)] = terms.get((g, l), 0) + c
    return Poly(("y", "z"), {e: Fraction(c) for e, c in terms.items()})


@_memoized
def a_poly(
    om: OrientedMatroid, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """Interpolate the trivariate polynomial from odd-q coflow statistics.

    Nodes q = 1, 3, ..., 2*rank+1 pin the q-degree; a spare evaluation at
    2*rank+3 must then match exactly, or the degree assumption was wrong.
    """
    r = om.rank

    def stats(q):
        return a_eval(om, q, budget=budget, jobs=jobs).terms

    return _interpolated(
        QYZ, [2 * k + 1 for k in range(r + 1)], stats, {2 * r + 3: stats(2 * r + 3)},
        "interpolated polynomial disagrees",
    )


@dataclass(frozen=True)
class CharPair:
    strict: Poly  # univariate in q
    weak: Poly


@_memoized
def char_pair(om: OrientedMatroid, budget: int = DEFAULT_BUDGET) -> CharPair:
    """Strict and weak one-sided coflow counting polynomials (odd q).

    Strict counts coflows with every value in {1..(q-1)/2}; weak allows 0.
    Interpolated at q = 1, 3, ..., 2*rank+1 and cross-checked at one extra
    odd node against the statistics route through a_eval.
    """
    bcols, ext, filt = extension_matrix(om)
    r = len(bcols)
    nodes = [2 * k + 1 for k in range(r + 1)]
    spare = 2 * r + 3
    stats = a_eval(om, spare, budget=budget)
    # strict coflows have every value on the positive side; weak ones have
    # none there (then flip sign), so both counts hide in the statistics
    strict_direct = stats.terms.get((om.n, 0), 0)
    weak_direct = sum(c for (g, l), c in stats.terms.items() if g == 0)

    def strict_at(q):
        return {(): _box_count(ext, filt, q, 1, (q - 1) // 2, budget)}

    def weak_at(q):
        return {(): _box_count(ext, filt, q, 0, (q - 1) // 2, budget)}

    return CharPair(
        strict=_interpolated(
            ("q",), nodes, strict_at, {spare: {(): strict_direct}},
            "strict count disagrees",
        ),
        weak=_interpolated(
            ("q",), nodes, weak_at, {spare: {(): weak_direct}},
            "weak count disagrees",
        ),
    )


def lattice_count(
    om: OrientedMatroid,
    q: int,
    open_box: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Brute-force count of integer points in the coflow box.

    Counts x in Z^E with 0 <= x_a <= q/2 for every element (both
    inequalities strict when open_box) whose signed sum around every
    circuit is divisible by q.  Unlike char_pair / even_char_pair this
    enumerates the whole (floor(q/2)+1)^n box and tests each point against
    the full circuit list, so it shares no machinery with the
    basis-parametrized counters and serves as an oracle for them: at odd q
    the closed count equals the weak one-sided value, and at even q it
    equals the weak even-box interpolation node.
    """
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    if om.n == 0:
        return 1
    lo = 1 if open_box else 0
    hi = (q - 1) // 2 if open_box else q // 2
    if hi < lo:
        return 0
    width = hi - lo + 1
    _check_budget(width**om.n, budget)
    rows = np.zeros((max(len(om.circuits), 1), om.n), dtype=np.int64)
    for i, c in enumerate(om.circuits):
        for a in bits_of(c.pos):
            rows[i, a] = 1
        for a in bits_of(c.neg):
            rows[i, a] = -1
    total = 0
    for start in range(0, width**om.n, _CHUNK):
        stop = min(start + _CHUNK, width**om.n)
        X = _digit_block(start, stop, width, om.n) + lo
        ok = np.all((X @ rows.T) % q == 0, axis=1)
        total += int(ok.sum())
    return total


@_memoized
def even_char_pair(om: OrientedMatroid, budget: int = DEFAULT_BUDGET) -> CharPair:
    """Even-q analogues: closed box {0..q/2} (weak) and open box {1..q/2-1}.

    Interpolated at q = 2, 4, ..., 2*rank+2, with a spare-node safety check
    at 2*rank+4.
    """
    bcols, ext, filt = extension_matrix(om)
    r = len(bcols)
    nodes = [2 * k + 2 for k in range(r + 1)]
    spare = 2 * r + 4

    def open_count(q):
        return {(): _box_count(ext, filt, q, 1, q // 2 - 1, budget)}

    def closed_count(q):
        return {(): _box_count(ext, filt, q, 0, q // 2, budget)}

    return CharPair(
        strict=_interpolated(
            ("q",), nodes, open_count, {spare: open_count(spare)},
            "open box count disagrees",
        ),
        weak=_interpolated(
            ("q",), nodes, closed_count, {spare: closed_count(spare)},
            "closed box count disagrees",
        ),
    )


# ---------------------------------------------------------------------------
# odd/even constituent pair for all positive q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvenAPoly:
    """Period-2 pair of constituents for the sign-statistics polynomial.

    `odd` is the trivariate polynomial matching all odd q.  `even` is a
    four-variable polynomial in (q, y, z, w) matching the statistics at every
    even q, where w tracks values equal to q/2 (their own negatives, hence
    neither strictly positive nor strictly negative).  No single polynomial
    does both jobs: a coloop contributes (q-1)/2 one-sided values at odd q but
    (q-2)/2 at even q, and those disagree on every even integer.
    """

    odd: Poly
    even: Poly

    def to_json_obj(self) -> dict:
        return {"odd": self.odd.to_json_obj(), "even": self.even.to_json_obj()}


@_memoized
def a_even_poly(
    om: OrientedMatroid, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> EvenAPoly:
    odd = a_poly(om, budget=budget, jobs=jobs)
    r = om.rank

    def hist(q):
        return coflow_histogram(om, q, budget=budget, jobs=jobs).as_dict()

    even = _interpolated(
        QYZW, [2 * k + 2 for k in range(r + 1)], hist, {2 * r + 4: hist(2 * r + 4)},
        "even statistics disagree",
    )
    return EvenAPoly(odd=odd, even=even)


# ---------------------------------------------------------------------------
# digraph routes
# ---------------------------------------------------------------------------


def digraph_a_eval(
    d: Digraph, q: int, budget: int = DEFAULT_BUDGET
) -> Poly:
    """Coflow statistics of a digraph via potential differences at odd q.

    Enumerates all q^(vertices) potentials, takes the statistics of the arc
    difference vectors, and divides by q^(components); the division must be
    exact.
    """
    if q % 2 == 0:
        raise ValueError("defined at odd q")
    nv, arcs = d.vertices, d.arcs
    total = q**nv
    _check_budget(total, budget)
    n = len(arcs)
    half = q // 2
    size = n + 1
    acc = np.zeros(size * size, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        F = _digit_block(lo, hi, q, nv)
        if n:
            diffs = np.stack(
                [(F[:, v] - F[:, u]) % q for (u, v) in arcs], axis=1
            )
            g = ((diffs >= 1) & (diffs <= half)).sum(axis=1)
            l = (diffs > half).sum(axis=1)
        else:
            g = np.zeros(hi - lo, dtype=np.int64)
            l = g
        acc += np.bincount(g * size + l, minlength=size * size)
    denom = q ** d.components()
    terms = {}
    for code in np.nonzero(acc)[0]:
        code = int(code)
        c = int(acc[code])
        if c % denom:
            raise ArithmeticError("potential count not divisible by q^components")
        terms[(code // size, code % size)] = Fraction(c // denom)
    return Poly(("y", "z"), terms)


def b_poly(d: Digraph, budget: int = DEFAULT_BUDGET) -> Poly:
    """Order-comparison statistics of vertex colorings, interpolated in q.

    At each q, sums y^(#arcs with f(tail) > f(head)) z^(#arcs reversed) over
    all q^(vertices) colorings.  Nodes q = 1..vertices+1 pin the degree; two
    spare nodes are re-evaluated as a safety check.
    """
    nv, arcs = d.vertices, d.arcs
    n = len(arcs)
    size = n + 1

    def stats_at(q):
        total = q**nv
        _check_budget(total, budget)
        acc = np.zeros(size * size, dtype=np.int64)
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            F = _digit_block(lo, hi, q, nv)
            if n:
                g = np.zeros(hi - lo, dtype=np.int64)
                l = np.zeros(hi - lo, dtype=np.int64)
                for (u, v) in arcs:
                    g += F[:, u] > F[:, v]
                    l += F[:, u] < F[:, v]
            else:
                g = np.zeros(hi - lo, dtype=np.int64)
                l = g
            acc += np.bincount(g * size + l, minlength=size * size)
        return {
            (int(c) // size, int(c) % size): int(acc[c]) for c in np.nonzero(acc)[0]
        }

    return _interpolated(
        QYZ, list(range(1, nv + 2)), stats_at,
        {q: stats_at(q) for q in (nv + 2, nv + 3)},
        "coloring statistics disagree",
    )
