"""Partially oriented matroids and their two Tutte-style invariants.

A partially oriented matroid is an oriented matroid together with a
partition of its ground set into singletons (oriented elements) and
doubletons of opposite elements (unoriented elements).  Two bivariate
invariants t1 and t2 generalize the Tutte polynomial: on a fully
unoriented (doubled) instance both coincide with the Tutte polynomial of
the underlying unsigned matroid.

Three independent algorithms are provided for each invariant — the
defining substitution into the trivariate coflow polynomial, a
deletion/contraction recurrence over unoriented elements, and an
activity expansion over potential bases — plus a subset-expansion
oracle.  They must agree exactly; the test-suite treats any mismatch as
a hard failure.

Every matroid question the recurrence and the activities ask is a rank
read from the stored circuit list (`OrientedMatroid.rank_of`), over the
underlying matroid whose elements are the blocks: a pair is a coloop
block when deleting it drops the rank, and the cocircuit and the circuit
that decide an activity are read off a closure and independent sets.
No dual is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, poly_div_linear_power, poly_sum
from .coflows import DEFAULT_BUDGET, QYZ, _memoized, a_poly, char_pair
from .errors import BudgetExceeded, InvalidPartition, NonPolynomialResult
from .identities import _expect, _skip, _skips_over_budget
from .matroid import OrientedMatroid, bits_of, mask_of
from .tutte import tutte

XY = ("x", "y")
POM_PAIR_CAP = 6

# The invariants below repeatedly need the same fully oriented minors
# (complete orientations recur across t2, the recurrence and the activity
# expansion).  a_poly, char_pair and `_oriented_t` remember their results
# per signed circuit set, so every repeat after the first is a memo hit.


@dataclass(frozen=True)
class PartialOrientedMatroid:
    om: OrientedMatroid
    blocks: tuple  # tuple of sorted index tuples; singletons then order kept

    @property
    def pairs(self) -> tuple:
        """Positions in `blocks` of the unoriented doubletons."""
        return tuple(j for j, b in enumerate(self.blocks) if len(b) == 2)

    @property
    def singles(self) -> tuple:
        """Positions in `blocks` of the oriented singletons."""
        return tuple(j for j, b in enumerate(self.blocks) if len(b) == 1)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        parts = []
        for b in self.blocks:
            names = "~".join(self.om.labels[i] for i in b)
            parts.append(names if len(b) == 1 else "{" + names + "}")
        return f"PartialOrientedMatroid({', '.join(parts)})"


def make_pom(om: OrientedMatroid, partition) -> PartialOrientedMatroid:
    """Validate a ground partition into oriented singletons and opposite
    doubletons (a doubleton of two loops also counts as opposite)."""
    blocks = tuple(tuple(sorted(int(i) for i in b)) for b in partition)
    seen = 0
    for b in blocks:
        if len(b) not in (1, 2):
            raise InvalidPartition(f"block {b} is not a singleton or doubleton")
        m = mask_of(b)
        if m.bit_count() != len(b) or m & seen or m & ~om.full_mask:
            raise InvalidPartition(f"block {b} does not partition the ground set")
        seen |= m
    if seen != om.full_mask:
        missing = sorted(bits_of(om.full_mask & ~seen))
        raise InvalidPartition(f"elements {missing} not covered by any block")
    opposite = {mask_of(p) for p in om.opposite_pairs()}
    loops = om.loops_mask
    for b in blocks:
        if len(b) == 2:
            m = mask_of(b)
            if m not in opposite and (m & loops) != m:
                raise InvalidPartition(
                    f"block {tuple(om.labels[i] for i in b)} is not an opposite pair"
                )
    return PartialOrientedMatroid(om, blocks)


def pom_minor(p: PartialOrientedMatroid, delete=(), contract=()):
    """Remove whole blocks by deletion or contraction; surviving blocks are
    reindexed to the minor's ground set."""
    del_mask = 0
    con_mask = 0
    for b in delete:
        del_mask |= mask_of(p.blocks[b])
    for b in contract:
        con_mask |= mask_of(p.blocks[b])
    sub = p.om.minor(delete=del_mask, contract=con_mask)
    kept = [i for i in range(p.om.n) if not (del_mask | con_mask) >> i & 1]
    pos = {orig: new for new, orig in enumerate(kept)}
    removed = set(delete) | set(contract)
    new_blocks = tuple(
        tuple(pos[i] for i in b)
        for j, b in enumerate(p.blocks)
        if j not in removed
    )
    return PartialOrientedMatroid(sub, new_blocks)


def complete_orientations(
    p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET
) -> list:
    """All 2^h ways of deleting one element from each doubleton."""
    pairs = [p.blocks[j] for j in p.pairs]
    h = len(pairs)
    estimate = (1 << h) * max(1, p.om.n)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    out = []
    for choice in range(1 << h):
        drop = 0
        for i, (a, b) in enumerate(pairs):
            drop |= 1 << (b if not choice >> i & 1 else a)
        out.append(p.om.delete(drop))
    return out


# ---------------------------------------------------------------------------
# the two invariants, from their defining substitutions
# ---------------------------------------------------------------------------


def _assemble(pa: Poly, num_blocks: int, rank: int, mode: int) -> Poly:
    """Shared tail of t1/t2: expand the sum of c*(x-1)^k*(y-1)^k*f(y,i) over
    the terms c*q^k*y^i*z^j of `pa` and divide by (y-1)^rank.

    mode 1: f = y^(E-i);  mode 2: f = (2-y)^i * y^(E-i) / 2^E.  E - i >= 0,
    as an opposite pair has at most one positive value and a pair of loops
    none.
    """
    table = Poly.gather(
        ("k", "i", "rest"),
        (((k, i, num_blocks - i), c) for (k, i, j), c in pa.numerators().items()),
        pa.den,
    )
    x, y = (Poly.variable(XY, v) for v in XY)
    f_i = 2 - y if mode == 2 else 1
    total = table.compose(XY, {"k": (x - 1) * (y - 1), "i": f_i, "rest": y})
    if mode == 2:
        total = total * Fraction(1, 2**num_blocks)
    try:
        quo = poly_div_linear_power(total, "y", 1, rank)
    except NonPolynomialResult as e:
        # exact divisibility by (y-1)^rank is what regularity buys; inputs
        # kept without the regularity certificate can land here
        raise NonPolynomialResult(
            f"coflow sum is not divisible by (y-1)^{rank}: {e}"
        ) from None
    if quo.min_degree("y") < 0 or quo.min_degree("x") < 0:
        raise NonPolynomialResult("negative exponents survive the prefactor")
    return quo


def t1(
    p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """First invariant: substitute q -> (x-1)(y-1), y -> 1/y, z -> 1 into the
    coflow polynomial, scale by y^blocks/(y-1)^rank."""
    return _assemble(a_poly(p.om, budget=budget, jobs=jobs), p.num_blocks, p.om.rank, mode=1)


def t2(
    p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """Second invariant: average the q -> (x-1)(y-1), y -> (2-y)/y, z -> 1
    substitution over all complete orientations."""
    pa = poly_sum(QYZ, (
        (a_poly(ori, budget=budget, jobs=jobs), 1, (0, 0, 0))
        for ori in complete_orientations(p, budget=budget)
    ))
    return _assemble(pa, p.num_blocks, p.om.rank, mode=2)


@_memoized
def _oriented_t(om: OrientedMatroid, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> tuple:
    """(t1, t2) of `om` with every element an oriented block."""
    pa = a_poly(om, budget=budget, jobs=jobs)
    return _assemble(pa, om.n, om.rank, 1), _assemble(pa, om.n, om.rank, 2)


# ---------------------------------------------------------------------------
# subset-expansion oracles
# ---------------------------------------------------------------------------


def _expand(vars: tuple, parts, h: Poly = None) -> Poly:
    """`poly_sum(vars, parts)` with x and y kept and the auxiliary variables
    substituted once: q -> (x-1)(y-1), cx -> x-1, cy -> y-1, h -> `h`."""
    x, y = (Poly.variable(XY, v) for v in XY)
    images = {"x": x, "y": y, "q": (x - 1) * (y - 1), "cx": x - 1, "cy": y - 1, "h": h}
    return poly_sum(vars, parts).compose(XY, images)


def t1_by_subsets(p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Sum over deleted subsets of strict characteristic polynomials."""
    om = p.om
    r = om.rank
    opposite = [mask_of(pr) for pr in om.opposite_pairs()]
    loops = om.loops_mask
    parts = []
    for s in range(1 << om.n):
        kept = om.full_mask & ~s
        # minors with a loop or an opposite pair have zero strict polynomial
        if kept & loops or any(m & kept == m for m in opposite):
            continue
        sub = om.delete(s)
        ak = kept.bit_count()
        shift = (0, r - sub.rank, ak - sub.rank, p.num_blocks - ak)
        parts.append((char_pair(sub, budget=budget).strict, (-1) ** ak, shift))
    return _expand(("q", "cx", "cy", "h"), parts, Poly.variable(XY, "y"))


def t2_by_subsets(p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Orientation-summed subset expansion."""
    r = p.om.rank
    e = p.num_blocks
    parts = []
    for ori in complete_orientations(p, budget=budget):
        for s in range(1 << e):
            sub = ori.delete(s)
            ak = e - s.bit_count()
            shift = (0, r - sub.rank, ak - sub.rank, s.bit_count())
            parts.append((char_pair(sub, budget=budget).strict, (-1) ** ak, shift))
    return _expand(("q", "cx", "cy", "h"), parts, Poly.variable(XY, "y") * Fraction(1, 2))


# ---------------------------------------------------------------------------
# deletion/contraction recurrence over unoriented elements
# ---------------------------------------------------------------------------


def _pair_kind(p: PartialOrientedMatroid, j: int) -> str:
    """"loop" for a doubleton of loops, "coloop" when deleting the pair
    drops the rank (the pair is a cocircuit), else "generic"."""
    m = mask_of(p.blocks[j])
    if m & p.om.loops_mask == m:
        return "loop"
    if p.om.rank_of(p.om.full_mask & ~m) < p.om.rank:
        return "coloop"
    return "generic"


def t_by_recurrence(
    p: PartialOrientedMatroid,
    mode: int,
    order=None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Poly:
    """Eliminate unoriented elements one at a time; fully oriented leftovers
    are evaluated through the defining formula.

    order, if given, lists positions in p.blocks to eliminate first.
    """
    pairs = p.pairs
    if not pairs:
        return _oriented_t(p.om, budget=budget, jobs=jobs)[mode - 1]
    order = order or ()
    j = next((x for x in order if x in pairs), pairs[0])
    rest = [x - (1 if x > j else 0) for x in order if x != j]
    kind = _pair_kind(p, j)
    if kind == "loop":
        return Poly.variable(XY, "y") * t_by_recurrence(
            pom_minor(p, delete=[j]), mode, rest, budget, jobs
        )
    if kind == "coloop":
        return Poly.variable(XY, "x") * t_by_recurrence(
            pom_minor(p, contract=[j]), mode, rest, budget, jobs
        )
    return t_by_recurrence(
        pom_minor(p, delete=[j]), mode, rest, budget, jobs
    ) + t_by_recurrence(pom_minor(p, contract=[j]), mode, rest, budget, jobs)


# ---------------------------------------------------------------------------
# activities and the subset expansion over unoriented blocks
# ---------------------------------------------------------------------------


def _subsets(items) -> list:
    """Every sublist of `items`, in the binary-counting order of its mask."""
    return [
        [x for i, x in enumerate(items) if code >> i & 1] for code in range(1 << len(items))
    ]


def _block_rank(p: PartialOrientedMatroid, block_set) -> int:
    """Rank of a set of block positions in the underlying matroid."""
    return p.om.rank_of(mask_of(p.blocks[j][0] for j in block_set))


def _oriented_minor(p: PartialOrientedMatroid, contracted, mode, budget, jobs) -> Poly:
    """t1 or t2, by `mode`, of the minor that contracts the unoriented blocks
    in `contracted` and deletes the other unoriented blocks."""
    deleted = [j for j in p.pairs if j not in contracted]
    minor = pom_minor(p, delete=deleted, contract=contracted)
    return _oriented_t(minor.om, budget=budget, jobs=jobs)[mode - 1]


def potential_bases(p: PartialOrientedMatroid) -> list:
    """Subsets of unoriented blocks that extend to a basis of the underlying
    matroid using oriented blocks only."""
    singles = list(p.singles)
    return [
        tuple(b) for b in _subsets(p.pairs)
        if _block_rank(p, b) == len(b) and _block_rank(p, b + singles) == p.om.rank
    ]


def activities(p: PartialOrientedMatroid, basis, order) -> tuple:
    """(internal, external) activity sets of a potential basis B.

    order lists the unoriented block positions H from smallest to largest;
    S is the set of oriented blocks.  Internal: e in B least in the
    cocircuit inside (H - B) + e, the blocks outside the closure of
    S + B - e (none when that set spans).  External: e in H - B least in
    the circuit inside B + e, the blocks x with B + e - x independent
    (none when B + e is independent).  Matroid elements here are blocks.
    """
    position = {j: i for i, j in enumerate(order)}
    pairs, singles = p.pairs, list(p.singles)
    internal = []
    for e in basis:
        rest = [x for x in basis if x != e] + singles
        r = _block_rank(p, rest)
        outside = [x for x in pairs if _block_rank(p, rest + [x]) > r]
        if min(outside, key=position.get, default=None) == e:
            internal.append(e)
    external = []
    for e in pairs:
        grown = [*basis, e]
        if e in basis or _block_rank(p, grown) == len(grown):
            continue
        circuit = [
            x for x in grown if _block_rank(p, [y for y in grown if y != x]) == len(basis)
        ]
        if min(circuit, key=position.get) == e:
            external.append(e)
    return tuple(sorted(internal)), tuple(sorted(external))


def t_by_activities(
    p: PartialOrientedMatroid,
    mode: int,
    order=None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Poly:
    """Activity expansion over potential bases of the unoriented blocks."""
    if order is None:
        order = p.pairs
    parts = []
    for basis in potential_bases(p):
        internal, external = activities(p, basis, order)
        term = _oriented_minor(p, basis, mode, budget, jobs)
        parts.append((term, 1, (len(internal), len(external))))
    return poly_sum(XY, parts)


def tutte_subgraph(
    p: PartialOrientedMatroid, mode: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """Corank/nullity-weighted sum of fully oriented minors over subsets of
    the unoriented blocks."""
    singles = list(p.singles)
    parts = []
    for s in _subsets(p.pairs):
        corank = p.om.rank - _block_rank(p, s + singles)
        nullity = len(s) - _block_rank(p, s)
        parts.append((_oriented_minor(p, s, mode, budget, jobs), 1, (0, 0, corank, nullity)))
    return _expand(("x", "y", "cx", "cy"), parts)


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------


@_skips_over_budget("pom")
def verify_pom(
    p: PartialOrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    """Cross-check every algorithm for t1/t2 on one instance.

    The defining substitution is the reference; the subset expansion, the
    recurrence, the activity expansion (with two pseudorandom elimination
    orders seeded from `name`), and the corank/nullity expansion must all
    reproduce it.  Fully unoriented instances must also match the Tutte
    polynomial of the underlying matroid.
    """
    suite = "pom"
    if p.om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "input is not totally unimodular")]
    if len(p.pairs) > POM_PAIR_CAP:
        why = f"{len(p.pairs)} unoriented elements exceed cap {POM_PAIR_CAP}"
        return [_skip(suite, "all", name, why)]

    reference = {1: t1(p, budget=budget, jobs=jobs), 2: t2(p, budget=budget, jobs=jobs)}
    out = [
        _expect(suite, "t1-subset-expansion", name, t1_by_subsets(p, budget), reference[1]),
        _expect(suite, "t2-subset-expansion", name, t2_by_subsets(p, budget), reference[2]),
    ]
    orders = [None]
    for k in range(2):
        shuffled = list(p.pairs)
        random.Random(f"{name}:{k}").shuffle(shuffled)
        orders.append(shuffled)
    for mode in (1, 2):
        for idx, order in enumerate(orders):
            tag = "default" if order is None else f"order{idx}"
            got = t_by_recurrence(p, mode, order, budget, jobs)
            out.append(_expect(suite, f"t{mode}-recurrence-{tag}", name, got, reference[mode]))
            got = t_by_activities(p, mode, order, budget, jobs)
            out.append(_expect(suite, f"t{mode}-activities-{tag}", name, got, reference[mode]))
        got = tutte_subgraph(p, mode, budget, jobs)
        out.append(_expect(suite, f"t{mode}-corank-nullity", name, got, reference[mode]))
    if not p.singles:
        # the underlying matroid: one representative element per block
        want = tutte(p.om.delete(mask_of(p.blocks[j][1] for j in p.pairs)), budget)
        out.append(_expect(suite, "t1-matches-tutte", name, reference[1], want))
        out.append(_expect(suite, "t2-matches-tutte", name, reference[2], want))
    out.extend(pom_evaluations(p, name, reference[1], reference[2], budget=budget))
    return out


# ---------------------------------------------------------------------------
# evaluation checks
# ---------------------------------------------------------------------------


def pom_evaluations(
    p: PartialOrientedMatroid, name: str, v1: Poly, v2: Poly, budget: int = DEFAULT_BUDGET
) -> list:
    """Check the point evaluations of v1 = t1(p), v2 = t2(p) against direct enumerations."""
    suite = "pom"
    orientations = complete_orientations(p, budget=budget)
    acyclic = 0
    totally_cyclic = 0
    for ori in orientations:
        cls = ori.classify()
        acyclic += cls.is_acyclic
        totally_cyclic += cls.is_totally_cyclic
    out = [
        _expect(suite, "acyclic-count-t1", name, v1.eval_frac({"x": 2, "y": 0}), acyclic),
        _expect(suite, "acyclic-count-t2", name, v2.eval_frac({"x": 2, "y": 0}), acyclic),
        _expect(suite, "totally-cyclic-count-t2", name, v2.eval_frac({"x": 0, "y": 2}),
                totally_cyclic),
    ]

    # independent-set generating functions at y = 1 (x shifted by one)
    r = p.om.rank
    singles = p.singles
    lhs1 = v1.compose(("x",), {"x": Poly.variable(("x",), "x") + 1, "y": 1})
    lhs2 = v2.compose(("x",), {"x": Poly.variable(("x",), "x") + 1, "y": 1})
    independent = [  # (rank - |F|, oriented blocks in F) per independent F
        (r - len(f), sum(1 for j in f if j in singles))
        for f in _subsets(range(p.num_blocks)) if _block_rank(p, f) == len(f)
    ]
    e = p.num_blocks
    rhs1 = Poly.gather(("x",), (((k,), 2 ** (e - o)) for k, o in independent), 2**e)
    rhs2 = Poly.gather(("x",), (((k,), 1) for k, _ in independent), 2 ** len(singles))
    out.append(_expect(suite, "independents-t1", name, lhs1, rhs1))
    out.append(_expect(suite, "independents-t2", name, lhs2, rhs2))

    # y = 0 reduces to a signed sum of strict characteristic polynomials
    one_minus_x = 1 - Poly.variable(("x",), "x")
    strict = poly_sum(("q",), (
        (char_pair(ori, budget=budget).strict, (-1) ** r, (0,)) for ori in orientations
    ))
    rhs = strict.compose(("x",), {"q": one_minus_x})
    out.append(_expect(suite, "y-zero-t1", name, v1.subs_scalar("y", 0), rhs))
    out.append(_expect(suite, "y-zero-t2", name, v2.subs_scalar("y", 0), rhs))
    return out
