"""Enumeration of mod-q coflows and the polynomials built from their counts.

A mod-q coflow assigns a residue to every element so that, around every
circuit, the sum over the positive side equals the sum over the negative
side.  Fixing a basis, every coflow is determined by its basis values via the
fundamental-circuit relations, so enumeration walks the q^rank basis
assignments and maps each through the integer extension matrix.

Every statistic counted here is separable: a point x of the grid gets the
code sum_e T[(x @ M)_e], one integer that ravels the statistic tuple, where
T is a table over the finite range of product values.  The table absorbs
the arithmetic: the residue mod q, the sign-class weights of the histograms
and of the digraph potentials, the sign of a coloring difference, and the
box membership of the one-sided counts (1 outside the box; code 0 counts).
One kernel, `_codes`, walks this grid, the boxes of basis values and the
vertex potentials of digraphs alike.  The lowest coordinates form one block
of rows and the higher ones are fixed within each chunk, so each column of M
falls in one of three classes, decided once per call: a column with no
entry in the high rows is summed once into a base code for the block; one
with no entry in the low rows adds one scalar per chunk; only a mixed column
costs work per chunk, one `take` of its block index column from the table
sliced at that chunk's offset.  Each chunk is tallied by one bincount.
numpy does the heavy lifting, all in int64.

On a regular input (every circuit's kernel vector rescales to {-1, 0, 1})
every circuit is the sign-coefficient combination of the fundamental
circuits, so the extension yields exactly the coflows.  For an input kept
under tu_mode="assume" that fails this certificate, the fundamental-circuit
extension is still a sound superset generator (the relations are necessary
conditions), and the enumeration filters the extensions against every
circuit condition.  The filter is more columns of M: the circuit sums of the
extended values, whose table sends any nonzero residue to a sentinel code
that the tally drops.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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


# entries kept; the sweep of `run_suites`, the classes suite and the pom
# suite over the default corpora holds 7,632, so it never evicts
MEMO_SIZE = 32768
_MEMO: dict = {}


def _memoized(fn):
    """Remember fn(om, ...) per (fn, om.canonical_key()).

    The result depends only on the signed circuits, so `budget` and `jobs`
    are not part of the key: a hit enumerates nothing and trips no budget.
    Once the memo holds `MEMO_SIZE` entries, each new one evicts the oldest.
    """

    @functools.wraps(fn)
    def cached(om: OrientedMatroid, *args, **kwargs):
        key = (fn, om.canonical_key())
        hit = _MEMO.get(key)
        if hit is None:
            hit = fn(om, *args, **kwargs)
            if len(_MEMO) >= MEMO_SIZE:
                del _MEMO[next(iter(_MEMO))]
            _MEMO[key] = hit
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

    The extension matrix is the transpose of the standard representation
    [I | A] (`OrientedMatroid.standard_representation`): row a expresses
    f(a) as a signed sum of basis values, read off the signs of the
    fundamental circuit of a.  The filter is a matrix of signed circuit
    indicator rows, present only when the representation is not certified
    regular; it only removes non-coflows, so the memo may hand it to another
    representation of the same signed circuits.  The memo shares the arrays,
    so they are read-only.
    """
    bcols, rows = om.standard_representation()
    n = om.n
    ext = np.array(rows, dtype=np.int64).reshape(len(bcols), n).T
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


def _codes(parts, width: int, size: int, budget: int, lo=0, start=0, stop=None):
    """Yield, chunk by chunk, the code of every x in {lo, ..., lo+width-1}^r.

    `parts` is a list of (M, f): M has r rows, and f maps an array of
    integers to their codes; it must accept every integer up to the largest
    product in absolute value.  The code of x is the sum, over the columns e
    of every part, of f((x @ M)_e), clipped at `size`: that sentinel bin is
    the one `_tally` drops.  The points are indexed in mixed-radix order,
    lowest coordinate fastest, and only indices in [start, stop) are coded;
    the budget covers the whole grid.  The lowest k coordinates form one
    block of width^k <= _CHUNK rows, and each chunk of the grid fixes the
    higher ones; the module docstring has the three classes of columns.
    """
    M = np.concatenate([Mp for Mp, _ in parts], axis=1)
    r, m = M.shape
    total = width**r
    _check_budget(total, budget)
    stop = total if stop is None else stop
    if start >= stop:
        return
    # every product lies in [-bound, bound]; the parts' tables over that range
    # lie end to end, so off[e] + p indexes the code of product p in column e
    reach = max(abs(lo), abs(lo + width - 1))
    bound = reach * int(np.abs(M).sum(axis=0).max(initial=0))
    products = np.arange(-bound, bound + 1)
    table = np.concatenate([f(products) for _, f in parts])
    off = [bound + i * len(products) for i, (Mp, _) in enumerate(parts) for _ in Mp.T]
    # only a code that can reach the sentinel needs clipping
    clip = int(table.max(initial=0)) * m >= size

    k = 0
    while k < r and width ** (k + 1) <= _CHUNK:
        k += 1
    values = np.arange(lo, lo + width, dtype=np.int64)
    # row x_0 + width*x_1 + ... + width^(k-1)*x_(k-1): off plus the products
    # of the lowest k coordinates
    block = np.array([off], dtype=np.int64)
    for row in M[:k]:
        block = (values[:, None, None] * row + block).reshape(width * len(block), m)
    if k == r:
        # the whole grid is one block
        code = table[block[start:stop]].sum(axis=1)
        yield np.minimum(code, size, out=code) if clip else code
        return
    low_only = ~M[k:].any(axis=0)
    mixed = ~low_only & M[:k].any(axis=0)
    high_only = ~low_only & ~mixed
    base = table[block[:, low_only]].sum(axis=1)
    lowest = block[:, mixed].min(axis=0)
    index = np.ascontiguousarray((block[:, mixed] - lowest).T)

    span = len(block)
    chunks = np.arange(start // span, (stop - 1) // span + 1)
    fixed = (chunks[:, None] // width ** np.arange(r - k) % width + lo) @ M[k:]
    shifts = table[fixed[:, high_only] + block[0, high_only]].sum(axis=1).tolist()
    offsets = (fixed[:, mixed] + lowest).tolist()
    for b, shift, offs in zip(chunks.tolist(), shifts, offsets):
        rows = slice(max(start - b * span, 0), stop - b * span)
        code = base[rows] + shift
        for o, col in zip(offs, index):
            code += table[o:].take(col[rows])
        yield np.minimum(code, size, out=code) if clip else code


def _tally(codes, shape: tuple) -> np.ndarray:
    """How often each tuple of statistics occurs, as an array of `shape`;
    `codes` yields, chunk by chunk, the raveled index of each row's tuple,
    or the tally's size for a row that is not counted."""
    acc = np.zeros(math.prod(shape), dtype=np.int64)
    for c in codes:
        acc += np.bincount(c, minlength=acc.size + 1)[:-1]
    return acc.reshape(shape)


def _decode(acc: np.ndarray) -> dict:
    """{statistic tuple: count} over the nonzero cells of a tally, in order."""
    nz = np.nonzero(acc)
    return {tuple(map(int, key)): int(c) for *key, c in zip(*nz, acc[nz])}


def _coflow_parts(ext, filt, q: int, weights, size: int) -> list:
    """`_codes` parts for a grid of basis values: an extended value P weighs
    weights[P % q], and on an input with a circuit filter, each circuit sum
    that is nonzero mod q sends the code to the sentinel `size`."""
    parts = [(ext.T, lambda P: weights[P % q])]
    if filt is not None:
        parts.append((ext.T @ filt.T, lambda P: np.where(P % q, size, 0)))
    return parts


def _hist_range(ext, filt, q: int, n: int, budget: int, start: int = 0, stop=None):
    """Tally of (pos-count, neg-count, mid-count) over a range of basis
    assignments; the mid-count, of values equal to q/2, is 0 at odd q."""
    # a value's weight in the raveled (g, l, h) index
    w = np.zeros(q, dtype=np.int64)
    w[1 : (q - 1) // 2 + 1] = (n + 1) ** 2
    w[q // 2 + 1 :] = n + 1
    if q % 2 == 0:
        w[q // 2] = 1
    size = (n + 1) ** 3
    parts = _coflow_parts(ext, filt, q, w, size)
    return _tally(_codes(parts, q, size, budget, start=start, stop=stop), (n + 1,) * 3)


def _box_count(ext, filt, q, lo_val, hi_val, budget: int) -> int:
    """Count assignments whose every extended value lies in [lo_val, hi_val]
    mod q: a value outside weighs 1, and only code 0 counts."""
    outside = np.ones(q, dtype=np.int64)
    outside[lo_val : hi_val + 1] = 0
    parts = _coflow_parts(ext, filt, q, outside, 1)
    codes = _codes(parts, hi_val - lo_val + 1, 1, budget, lo=lo_val)
    return int(_tally(codes, (1,))[0])


def _incidence(d: Digraph) -> np.ndarray:
    """vertices x arcs: f @ M is f(head) - f(tail) per arc, 0 on a loop."""
    return np.array(d.incidence_rows(), np.int64).reshape(d.vertices, len(d.arcs))


# ---------------------------------------------------------------------------
# interpolation in q
# ---------------------------------------------------------------------------


def _interpolated(vars, nodes, count_at, spares: dict, what: str) -> Poly:
    """The polynomial over `vars` (q first) through counts at the nodes, a
    `range` of integers.

    `count_at(q)` maps monomials in the remaining variables to counts; each
    monomial's coefficient is interpolated in q over `nodes`.  `spares` maps
    spare nodes, each the next point of the progression, to counts found
    independently, which the result must reproduce exactly, or the degree
    assumption was wrong.  Callers count the spares first: they are the most
    expensive enumerations, so a budget trip costs nothing instead of all
    the cheaper nodes.
    """
    evals = [count_at(q) for q in nodes]
    monos = sorted({e for ev in evals for e in ev})
    cols, den = interpolate_columns(nodes, [[ev.get(e, 0) for ev in evals] for e in monos])
    poly = Poly(
        vars, {(k, *e): c for e, col in zip(monos, cols) for k, c in col.items()}, den
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
    if jobs > 1:
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
        terms[(g, l)] = c
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
        return a_eval(om, q, budget=budget, jobs=jobs).numerators()

    return _interpolated(
        QYZ, range(1, 2 * r + 2, 2), stats, {2 * r + 3: stats(2 * r + 3)},
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
    nodes = range(1, 2 * r + 2, 2)
    spare = 2 * r + 3
    stats = a_eval(om, spare, budget=budget)
    # strict coflows have every value on the positive side; weak ones have
    # none there (then flip sign), so both counts hide in the statistics
    counts = stats.numerators()  # integer counts: stats.den is 1
    strict_direct = counts.get((om.n, 0), 0)
    weak_direct = sum(c for (g, l), c in counts.items() if g == 0)

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
    nodes = range(2, 2 * r + 3, 2)
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
        QYZW, range(2, 2 * r + 3, 2), hist, {2 * r + 4: hist(2 * r + 4)},
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
    size = (n + 1) ** 2
    codes = _codes([(_incidence(d), lambda P: w[P % q])], q, size, budget)
    denom = q ** d.components()
    terms = {}
    for e, c in _decode(_tally(codes, (n + 1,) * 2)).items():
        if c % denom:
            raise InvariantViolated(
                f"potential count {c} of {e} not divisible by q^components = {denom}"
            )
        terms[e] = c // denom
    return Poly(("y", "z"), terms)


def b_poly(d: Digraph, budget: int = DEFAULT_BUDGET) -> Poly:
    """Order-comparison statistics of vertex colorings, interpolated in q.

    At each q, sums y^(#arcs with f(tail) > f(head)) z^(#arcs reversed) over
    all q^(vertices) colorings.  Nodes q = 1..vertices+1 pin the degree; two
    spare nodes are re-evaluated as a safety check.
    """
    nv, inc, n = d.vertices, _incidence(d), len(d.arcs)

    def weigh(P):
        # a coloring times the incidence matrix is f(head) - f(tail) per arc;
        # a difference weighs its sign's place in the raveled (descents, ascents)
        return (n + 1) * (P < 0) + (P > 0)

    def stats_at(q):
        codes = _codes([(inc, weigh)], q, (n + 1) ** 2, budget)
        return _decode(_tally(codes, (n + 1,) * 2))

    return _interpolated(
        QYZ, range(1, nv + 2), stats_at,
        {q: stats_at(q) for q in (nv + 2, nv + 3)},
        "coloring statistics disagree",
    )
