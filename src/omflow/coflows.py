"""Enumeration of mod-q coflows and the polynomials built from their counts.

A mod-q coflow assigns a residue to every element so that, around every
circuit, the sum over the positive side equals the sum over the negative
side.  Fixing a basis, every coflow is determined by its basis values via the
fundamental-circuit relations, so enumeration walks the q^rank basis
assignments and maps each through the integer extension matrix.  One kernel,
`_products`, walks this grid, the boxes of basis values and the vertex
potentials of digraphs alike: it multiplies the lowest coordinates once, as a
block of rows, and yields each chunk as that block plus the fixed product of
the higher coordinates, one broadcast add.  numpy does the heavy lifting, all
in int64.

Each statistic tuple is encoded as one integer, the sum over a row of
per-value weights looked up in a table, so a chunk is classified by one
gather and one row sum and tallied by one bincount.

On a regular input (every circuit's kernel vector rescales to {-1, 0, 1})
every circuit is the sign-coefficient combination of the fundamental
circuits, so the extension yields exactly the coflows.  For an input kept
under tu_mode="assume" that fails this certificate, the fundamental-circuit
extension is still a sound superset generator (the relations are necessary
conditions), and the enumeration post-filters the extensions against every
circuit condition.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Poly, interpolate_columns
from .errors import BudgetExceeded, DegreeSafetyCheckFailed, InvariantViolated
from .matroid import Digraph, OrientedMatroid, bits_of

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 16

QYZ = ("q", "y", "z")
QYZW = ("q", "y", "z", "w")


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------


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
# extension machinery and the enumeration kernel
# ---------------------------------------------------------------------------


@_memoized
def extension_matrix(om: OrientedMatroid):
    """(basis columns, n x rank int64 extension matrix, circuit filter or None).

    Row a of the matrix expresses f(a) as a signed sum of basis values, read
    off the signs of the fundamental circuit of a.  The filter is a matrix of
    signed circuit indicator rows, present only when the representation is not
    certified regular; it only removes non-coflows, so the memo may hand
    it to another representation of the same signed circuits.  The memo shares
    the arrays, so they are read-only.
    """
    basis_mask = om.lex_basis_mask()
    bcols = sorted(bits_of(basis_mask))
    r, n = len(bcols), om.n
    ext = np.zeros((n, r), dtype=np.int64)
    ext[bcols, range(r)] = 1
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
    if om.tu_status == "not-tu" and om.circuits:
        filt = np.zeros((len(om.circuits), n), dtype=np.int64)
        for i, c in enumerate(om.circuits):
            filt[i, list(bits_of(c.pos))] = 1
            filt[i, list(bits_of(c.neg))] = -1
        filt.flags.writeable = False
    ext.flags.writeable = False
    return bcols, ext, filt


def _check_budget(amount: int, budget: int) -> None:
    if amount > budget:
        raise BudgetExceeded(amount, budget)


def _products(M, width: int, budget: int, lo: int = 0, start: int = 0, stop=None):
    """Yield x @ M, in chunks of rows, for every x in {lo, ..., lo+width-1}^r.

    `M` has r rows.  The points are indexed in mixed-radix order, lowest
    coordinate fastest, and only indices in [start, stop) are produced; the
    budget covers the whole grid.  The products of the lowest k coordinates
    form one block of width^k <= _CHUNK rows; each chunk adds to it the
    product of the higher coordinates, which is fixed within the block.
    """
    r, m = M.shape
    total = width**r
    _check_budget(total, budget)
    stop = total if stop is None else stop
    if start >= stop:
        return
    values = np.arange(lo, lo + width, dtype=np.int64)
    block = np.zeros((1, m), dtype=np.int64)
    k = 0
    while k < r and len(block) * width <= _CHUNK:
        # row x_0 + width*x_1 + ... + width^k*x_k of the grown block
        block = (values[:, None, None] * M[k] + block).reshape(width * len(block), m)
        k += 1
    size = len(block)
    for b in range(start // size, (stop - 1) // size + 1):
        high = np.array([b // width**j % width + lo for j in range(r - k)], np.int64)
        yield block[max(start - b * size, 0) : stop - b * size] + high @ M[k:]


def _tally(codes, shape: tuple) -> np.ndarray:
    """How often each tuple of statistics occurs, as an array of `shape`;
    `codes` yields, chunk by chunk, the raveled index of each row's tuple."""
    acc = np.zeros(int(np.prod(shape)), dtype=np.int64)
    for c in codes:
        acc += np.bincount(c, minlength=acc.size)
    return acc.reshape(shape)


def _decode(acc: np.ndarray) -> dict:
    """{statistic tuple: count} over the nonzero cells of a tally, in order."""
    nz = np.nonzero(acc)
    return {tuple(map(int, key)): int(c) for *key, c in zip(*nz, acc[nz])}


def _hist_range(ext, filt, q: int, n: int, budget: int, start: int = 0, stop=None):
    """Tally of (pos-count, neg-count, mid-count) over a range of basis
    assignments; the mid-count, of values equal to q/2, is 0 at odd q."""

    # a value's weight in the raveled (g, l, h) index
    w = np.zeros(q, dtype=np.int64)
    w[1 : (q - 1) // 2 + 1] = (n + 1) ** 2
    w[q // 2 + 1 :] = n + 1
    if q % 2 == 0:
        w[q // 2] = 1

    def codes():
        for P in _products(ext.T, q, budget, start=start, stop=stop):
            V = P % q
            if filt is not None:
                V = V[np.all((V @ filt.T) % q == 0, axis=1)]
            yield w[V].sum(axis=1)

    return _tally(codes(), (n + 1,) * 3)


def _box_count(ext, filt, q, lo_val, hi_val, budget: int) -> int:
    """Count assignments whose every extended value lies in [lo_val, hi_val]."""
    total = 0
    for P in _products(ext.T, hi_val - lo_val + 1, budget, lo=lo_val):
        V = P % q
        ok = np.all((V >= lo_val) & (V <= hi_val), axis=1)
        if filt is not None:
            ok &= np.all((V @ filt.T) % q == 0, axis=1)
        total += int(ok.sum())
    return total


def _incidence(d: Digraph) -> np.ndarray:
    """vertices x arcs: f @ M is f(head) - f(tail) per arc, 0 on a loop."""
    return np.array(d.incidence_rows(), np.int64).reshape(d.vertices, len(d.arcs))


# ---------------------------------------------------------------------------
# interpolation in q
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
    total = q ** len(bcols)
    _check_budget(total, budget)
    # the pool forks all its workers at once, so never more than the CPUs
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and total > 4 * _CHUNK:
        bounds = [total * k // jobs for k in range(jobs + 1)]
        part = functools.partial(_hist_range, ext, filt, q, om.n, budget)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            acc = sum(pool.map(part, bounds[:-1], bounds[1:]))
    else:
        acc = _hist_range(ext, filt, q, om.n, budget)
    counts = tuple(_decode(acc).items())
    return CoflowHistogram(q=q, n=om.n, counts=counts, total=int(acc.sum()))


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
    terms = {}
    for (g, l, h), c in hist.counts:
        if h:
            raise InvariantViolated(f"a value equals q/2 at odd q={q}")
        terms[(g, l)] = Fraction(c)
    return Poly(("y", "z"), terms)


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
        idx = np.arange(start, min(start + _CHUNK, width**om.n), dtype=np.int64)
        X = np.stack([idx // width**j % width for j in range(om.n)], axis=1) + lo
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

    n = len(d.arcs)
    # a value's weight in the raveled (g, l) index
    w = np.zeros(q, dtype=np.int64)
    w[1 : q // 2 + 1] = n + 1
    w[q // 2 + 1 :] = 1
    codes = (w[P % q].sum(axis=1) for P in _products(_incidence(d), q, budget))
    denom = q ** d.components()
    terms = {}
    for e, c in _decode(_tally(codes, (n + 1,) * 2)).items():
        if c % denom:
            raise ArithmeticError("potential count not divisible by q^components")
        terms[e] = Fraction(c // denom)
    return Poly(("y", "z"), terms)


def b_poly(d: Digraph, budget: int = DEFAULT_BUDGET) -> Poly:
    """Order-comparison statistics of vertex colorings, interpolated in q.

    At each q, sums y^(#arcs with f(tail) > f(head)) z^(#arcs reversed) over
    all q^(vertices) colorings.  Nodes q = 1..vertices+1 pin the degree; two
    spare nodes are re-evaluated as a safety check.
    """
    nv, inc, n = d.vertices, _incidence(d), len(d.arcs)

    def stats_at(q):
        # a coloring times the incidence matrix is f(head) - f(tail) per arc;
        # a difference P weighs w[P + q - 1] in the raveled (descents, ascents)
        w = np.zeros(2 * q - 1, dtype=np.int64)
        w[: q - 1] = n + 1
        w[q:] = 1
        codes = (w[P + q - 1].sum(axis=1) for P in _products(inc, q, budget))
        return _decode(_tally(codes, (n + 1,) * 2))

    return _interpolated(
        QYZ, list(range(1, nv + 2)), stats_at,
        {q: stats_at(q) for q in (nv + 2, nv + 3)},
        "coloring statistics disagree",
    )
