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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, poly_div_linear_power, poly_sum
from .coflows import DEFAULT_BUDGET, QYZ, a_poly, char_pair
from .errors import BudgetExceeded, InvalidPartition, NonPolynomialResult
from .identities import CheckReport
from .matroid import OrientedMatroid, bits_of, mask_of
from .tutte import tutte

XY = ("x", "y")
POM_PAIR_CAP = 6

# The invariants below repeatedly need the coflow polynomial of the same
# minors (complete orientations recur across t2, the recurrence and the
# activity expansion).  a_poly and char_pair remember their results per
# signed circuit set, so every repeat after the first is a memo hit.


@dataclass(frozen=True)
class PartialOrientedMatroid:
    om: OrientedMatroid
    blocks: tuple  # tuple of sorted index tuples; singletons then order kept

    @property
    def pair_blocks(self) -> tuple:
        return tuple(b for b in self.blocks if len(b) == 2)

    @property
    def single_blocks(self) -> tuple:
        return tuple(b for b in self.blocks if len(b) == 1)

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
    pairs = p.pair_blocks
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


# ---------------------------------------------------------------------------
# subset-expansion oracles
# ---------------------------------------------------------------------------


def _strict_at_q(om: OrientedMatroid, q_poly: Poly, budget: int) -> Poly:
    cp = char_pair(om, budget=budget).strict
    return cp.compose(XY, {"q": q_poly})


def t1_by_subsets(p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Sum over deleted subsets of strict characteristic polynomials."""
    om = p.om
    n, r = om.n, om.rank
    q_xy = (Poly.variable(XY, "x") - 1) * (Poly.variable(XY, "y") - 1)
    opposite = [mask_of(pr) for pr in om.opposite_pairs()]
    loops = om.loops_mask
    parts = []
    for s in range(1 << n):
        kept = om.full_mask & ~s
        # minors with a loop or an opposite pair have zero strict polynomial
        if kept & loops or any(m & kept == m for m in opposite):
            continue
        sub = om.delete(s)
        strict = _strict_at_q(sub, q_xy, budget)
        if strict.is_zero():
            continue
        ak = kept.bit_count()
        pref = Poly.monomial(XY, (0, p.num_blocks - ak), (-1) ** ak)
        pref = pref * (Poly.variable(XY, "x") - 1) ** (r - sub.rank)
        pref = pref * (Poly.variable(XY, "y") - 1) ** (ak - sub.rank)
        parts.append((pref * strict, 1, (0, 0)))
    return poly_sum(XY, parts)


def t2_by_subsets(p: PartialOrientedMatroid, budget: int = DEFAULT_BUDGET) -> Poly:
    """Orientation-summed subset expansion."""
    om = p.om
    r = om.rank
    e = p.num_blocks
    q_xy = (Poly.variable(XY, "x") - 1) * (Poly.variable(XY, "y") - 1)
    half_y = Poly.variable(XY, "y") * Fraction(1, 2)
    parts = []
    for ori in complete_orientations(p, budget=budget):
        for s in range(1 << e):
            sub = ori.delete(s)
            strict = _strict_at_q(sub, q_xy, budget)
            if strict.is_zero():
                continue
            ak = e - s.bit_count()
            pref = half_y ** s.bit_count() * (-1) ** ak
            pref = pref * (Poly.variable(XY, "x") - 1) ** (r - sub.rank)
            pref = pref * (Poly.variable(XY, "y") - 1) ** (ak - sub.rank)
            parts.append((pref * strict, 1, (0, 0)))
    return poly_sum(XY, parts)


# ---------------------------------------------------------------------------
# deletion/contraction recurrence over unoriented elements
# ---------------------------------------------------------------------------


def _pair_kind(p: PartialOrientedMatroid, j: int) -> str:
    a, b = p.blocks[j]
    m = 1 << a | 1 << b
    if m & p.om.loops_mask == m:
        return "loop"
    if any(d.support == m for d in p.om.cocircuits()):
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
    pair_positions = [j for j, b in enumerate(p.blocks) if len(b) == 2]
    if not pair_positions:
        fn = t1 if mode == 1 else t2
        return fn(p, budget=budget, jobs=jobs)
    if order:
        front = [j for j in order if j in pair_positions]
        j = front[0] if front else pair_positions[0]
        rest = [x for x in order if x != j]
    else:
        j = pair_positions[0]
        rest = None

    def shifted(removed):
        if rest is None:
            return None
        return [x - (1 if x > removed else 0) for x in rest]

    kind = _pair_kind(p, j)
    if kind == "loop":
        return Poly.variable(XY, "y") * t_by_recurrence(
            pom_minor(p, delete=[j]), mode, shifted(j), budget, jobs
        )
    if kind == "coloop":
        return Poly.variable(XY, "x") * t_by_recurrence(
            pom_minor(p, contract=[j]), mode, shifted(j), budget, jobs
        )
    return t_by_recurrence(
        pom_minor(p, delete=[j]), mode, shifted(j), budget, jobs
    ) + t_by_recurrence(pom_minor(p, contract=[j]), mode, shifted(j), budget, jobs)


# ---------------------------------------------------------------------------
# activities and the subset expansion over unoriented blocks
# ---------------------------------------------------------------------------


def _underlying(p: PartialOrientedMatroid) -> OrientedMatroid:
    """One representative element per block; signs are irrelevant for the
    unsigned circuit/cocircuit supports used by the activity rules."""
    drop = 0
    for b in p.pair_blocks:
        drop |= 1 << b[1]
    return p.om.delete(drop)


def _block_rank(p: PartialOrientedMatroid, block_set) -> int:
    m = 0
    for j in block_set:
        m |= 1 << p.blocks[j][0]
    return p.om.rank_of(m)


def potential_bases(p: PartialOrientedMatroid) -> list:
    """Subsets of unoriented blocks that extend to a basis of the underlying
    matroid using oriented blocks only."""
    pair_positions = [j for j, b in enumerate(p.blocks) if len(b) == 2]
    single_positions = [j for j, b in enumerate(p.blocks) if len(b) == 1]
    r = p.om.rank
    out = []
    for code in range(1 << len(pair_positions)):
        chosen = [pair_positions[i] for i in range(len(pair_positions)) if code >> i & 1]
        if _block_rank(p, chosen) != len(chosen):
            continue
        if _block_rank(p, chosen + single_positions) != r:
            continue
        out.append(tuple(chosen))
    return out


def activities(p: PartialOrientedMatroid, basis, order) -> tuple:
    """(internal, external) activity sets of a potential basis.

    order lists the unoriented block positions from smallest to largest.
    Internal: e in B minimal in a cocircuit of the underlying matroid lying
    inside (H \\ B) + e; external: e outside B minimal in a circuit inside
    B + e.  Matroid elements here are blocks, tracked by their position.
    """
    under = _underlying(p)
    # map matroid indices of the underlying representative to block positions
    kept = sorted(b[0] for b in p.blocks)
    to_block = {}
    for new, orig in enumerate(kept):
        for j, b in enumerate(p.blocks):
            if b[0] == orig:
                to_block[new] = j
    rank_order = {j: i for i, j in enumerate(order)}
    pair_set = {j for j, b in enumerate(p.blocks) if len(b) == 2}
    bset = set(basis)
    cobset = pair_set - bset

    def min_block(mask):
        members = [to_block[i] for i in bits_of(mask)]
        return min(members, key=lambda j: rank_order[j])

    internal = set()
    for d in under.cocircuits():
        members = {to_block[i] for i in bits_of(d.support)}
        if not members <= pair_set:
            continue
        for e in members & bset:
            if members <= cobset | {e} and min_block(d.support) == e:
                internal.add(e)
    external = set()
    for c in under.circuits:
        members = {to_block[i] for i in bits_of(c.support)}
        if not members <= pair_set:
            continue
        for e in members & cobset:
            if members <= bset | {e} and min_block(c.support) == e:
                external.add(e)
    return tuple(sorted(internal)), tuple(sorted(external))


def t_by_activities(
    p: PartialOrientedMatroid,
    mode: int,
    order=None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Poly:
    """Activity expansion over potential bases of the unoriented blocks."""
    pair_positions = [j for j, b in enumerate(p.blocks) if len(b) == 2]
    if order is None:
        order = pair_positions
    parts = []
    for basis in potential_bases(p):
        internal, external = activities(p, basis, order)
        reduced = pom_minor(
            p,
            delete=[j for j in pair_positions if j not in basis],
            contract=list(basis),
        )
        fn = t1 if mode == 1 else t2
        term = fn(reduced, budget=budget, jobs=jobs)
        parts.append((term, 1, (len(internal), len(external))))
    return poly_sum(XY, parts)


def tutte_subgraph(
    p: PartialOrientedMatroid, mode: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Poly:
    """Corank/nullity-weighted sum of fully oriented minors over subsets of
    the unoriented blocks."""
    pair_positions = [j for j, b in enumerate(p.blocks) if len(b) == 2]
    single_positions = [j for j, b in enumerate(p.blocks) if len(b) == 1]
    r = p.om.rank
    xv, yv = Poly.variable(XY, "x"), Poly.variable(XY, "y")
    parts = []
    for code in range(1 << len(pair_positions)):
        s = [pair_positions[i] for i in range(len(pair_positions)) if code >> i & 1]
        sbar = [j for j in pair_positions if j not in s]
        rank_kept = _block_rank(p, s + single_positions)
        rank_s = _block_rank(p, s)
        reduced = pom_minor(p, delete=sbar, contract=s)
        fn = t1 if mode == 1 else t2
        term = fn(reduced, budget=budget, jobs=jobs)
        weight = (xv - 1) ** (r - rank_kept) * (yv - 1) ** (len(s) - rank_s)
        parts.append((weight * term, 1, (0, 0)))
    return poly_sum(XY, parts)


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------


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
    out = []
    if p.om.tu_status == "not-tu":
        out.append(
            CheckReport(suite, "all", name, "skip", "input is not totally unimodular")
        )
        return out
    if len(p.pair_blocks) > POM_PAIR_CAP:
        out.append(
            CheckReport(
                suite, "all", name, "skip",
                f"{len(p.pair_blocks)} unoriented elements exceed cap {POM_PAIR_CAP}",
            )
        )
        return out

    reference = {1: t1(p, budget=budget, jobs=jobs), 2: t2(p, budget=budget, jobs=jobs)}

    def check(label, got, want):
        ok = got == want
        detail = "" if ok else f"got {got}, want {want}"
        out.append(CheckReport(suite, label, name, "pass" if ok else "fail", detail))

    check("t1-subset-expansion", t1_by_subsets(p, budget), reference[1])
    check("t2-subset-expansion", t2_by_subsets(p, budget), reference[2])
    pair_positions = [j for j, b in enumerate(p.blocks) if len(b) == 2]
    orders = [None]
    for k in range(2):
        shuffled = list(pair_positions)
        random.Random(f"{name}:{k}").shuffle(shuffled)
        orders.append(shuffled)
    for mode in (1, 2):
        for idx, order in enumerate(orders):
            tag = "default" if order is None else f"order{idx}"
            check(
                f"t{mode}-recurrence-{tag}",
                t_by_recurrence(p, mode, order, budget, jobs),
                reference[mode],
            )
            check(
                f"t{mode}-activities-{tag}",
                t_by_activities(p, mode, order, budget, jobs),
                reference[mode],
            )
        check(
            f"t{mode}-corank-nullity",
            tutte_subgraph(p, mode, budget, jobs),
            reference[mode],
        )
    if not p.single_blocks:
        want = tutte(_underlying(p), budget)
        check("t1-matches-tutte", reference[1], want)
        check("t2-matches-tutte", reference[2], want)
    out.extend(pom_evaluations(p, name, budget=budget, jobs=jobs))
    return out


# ---------------------------------------------------------------------------
# evaluation checks
# ---------------------------------------------------------------------------


def pom_evaluations(
    p: PartialOrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    """Check the point evaluations of t1/t2 against direct enumerations."""
    suite = "pom"
    out = []
    v1 = t1(p, budget=budget, jobs=jobs)
    v2 = t2(p, budget=budget, jobs=jobs)
    orientations = complete_orientations(p, budget=budget)
    acyclic = 0
    totally_cyclic = 0
    for ori in orientations:
        cls = ori.classify()
        acyclic += cls.is_acyclic
        totally_cyclic += cls.is_totally_cyclic

    def report(check, got, want):
        ok = got == want
        out.append(
            CheckReport(
                suite, check, name,
                "pass" if ok else "fail",
                "" if ok else f"got {got}, want {want}",
            )
        )

    report("acyclic-count-t1", v1.eval_frac({"x": 2, "y": 0}), acyclic)
    report("acyclic-count-t2", v2.eval_frac({"x": 2, "y": 0}), acyclic)
    report("totally-cyclic-count-t2", v2.eval_frac({"x": 0, "y": 2}), totally_cyclic)

    # independent-set generating functions at y = 1 (x shifted by one)
    r = p.om.rank
    single_positions = [j for j, b in enumerate(p.blocks) if len(b) == 1]
    lhs1 = v1.compose(("x",), {"x": Poly.variable(("x",), "x") + 1, "y": 1})
    lhs2 = v2.compose(("x",), {"x": Poly.variable(("x",), "x") + 1, "y": 1})
    independent = []  # (rank - |F|, oriented blocks in F) per independent F
    for code in range(1 << p.num_blocks):
        f = [j for j in range(p.num_blocks) if code >> j & 1]
        if _block_rank(p, f) == len(f):
            independent.append((r - len(f), sum(1 for j in f if len(p.blocks[j]) == 1)))
    e = p.num_blocks
    rhs1 = Poly.gather(("x",), (((k,), 2 ** (e - o)) for k, o in independent), 2**e)
    rhs2 = Poly.gather(("x",), (((k,), 1) for k, _ in independent), 2 ** len(single_positions))
    report("independents-t1", lhs1, rhs1)
    report("independents-t2", lhs2, rhs2)

    # y = 0 reduces to a signed sum of strict characteristic polynomials
    one_minus_x = 1 - Poly.variable(("x",), "x")
    strict = poly_sum(("q",), (
        (char_pair(ori, budget=budget).strict, (-1) ** r, (0,)) for ori in orientations
    ))
    rhs = strict.compose(("x",), {"q": one_minus_x})
    report("y-zero-t1", v1.subs_scalar("y", 0), rhs)
    report("y-zero-t2", v2.subs_scalar("y", 0), rhs)
    return out
