"""Machine verification of the identities between coflow statistics and
Tutte-style invariants.

Every check computes its two sides through genuinely different code paths
(raw enumeration vs. interpolated polynomial, partition sums vs. variable
substitutions, primal vs. dual) and demands exact equality.  Each check
yields a :class:`CheckReport`; a suite is a list of them.

Size policy: the partition-sum suites (expansions, reciprocity part one)
walk 3^n partitions, so they are capped: expansions at n <= 6, with a
characteristic pair per reoriented minor, and reciprocity at n <= 8, which
walks the parent's circuit lists and builds no minors.  Two tutte checks are
capped too: the reorientation average interpolates 2^n reorientations, so it
stops at n <= `AVERAGE_SIZE_CAP` (8), and the doubling check needs the
doubled ground within the circuit enumeration, 2n <= `CIRCUIT_GROUND_CAP`.
No other check has a size cap; a suite that would exceed the budget reports
one skip instead.

Instances kept under tu_mode="assume" whose circuits do not certify them
regular are skipped by default — for them the coflow machinery counts a
different object, and the one check that belongs on such inputs is the
negative control in the tutte suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .algebra import (
    Poly,
    homog_general,
    json_dumps_canonical,
    poly_sum,
)
from .coflows import (
    DEFAULT_BUDGET,
    a_eval,
    a_poly,
    b_poly,
    char_pair,
    coflow_histogram,
    digraph_a_eval,
)
from .errors import BudgetExceeded
from .matroid import CIRCUIT_GROUND_CAP, Digraph, OrientedMatroid, bits_of
from .matroid import positive_union
from .tutte import potts

QYZ = ("q", "y", "z")
YZ = ("y", "z")

EXPANSION_SIZE_CAP = 6  # 3^n partitions, a characteristic pair per minor
PARTITION_SIZE_CAP = 8  # 3^n partitions, an acyclicity test of each on the parent's circuits
AVERAGE_SIZE_CAP = 8  # 2^n reorientations, one interpolation each


@dataclass
class CheckReport:
    suite: str
    check: str
    instance: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        base = f"[{self.status.upper():4s}] {self.suite}:{self.check} on {self.instance}"
        return base + (f" — {self.detail}" if self.detail else "")

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "detail": self.detail,
        }


def _cmp(suite, check, name, lhs, rhs) -> CheckReport:
    if lhs == rhs:
        return CheckReport(suite, check, name, "pass")
    try:
        ld = json_dumps_canonical(lhs.to_json_obj())
        rd = json_dumps_canonical(rhs.to_json_obj())
    except Exception:
        ld, rd = repr(lhs), repr(rhs)
    return CheckReport(suite, check, name, "fail", detail=f"lhs={ld} rhs={rd}")


def _skip(suite, check, name, why) -> CheckReport:
    return CheckReport(suite, check, name, "skip", detail=why)


def _expect(suite, check, name, got, want) -> CheckReport:
    if got == want:
        return CheckReport(suite, check, name, "pass")
    return CheckReport(suite, check, name, "fail", detail=f"got {got}, want {want}")


def _skips_over_budget(suite: str):
    """Make a suite that exceeds the work budget report one `<suite>:all`
    skip instead of aborting the run, so an instance too large at the given
    budget (a rank-8 dual, say) neither passes nor fails."""
    def wrap(fn):
        @functools.wraps(fn)
        def guarded(subject, name: str, *args, **kwargs) -> list:
            try:
                return fn(subject, name, *args, **kwargs)
            except BudgetExceeded as e:
                return [_skip(suite, "all", name, str(e))]
        return guarded
    return wrap


# ---------------------------------------------------------------------------
# suite: basic structural properties
# ---------------------------------------------------------------------------


# direct sums against two tiny reference summands
_SUMMANDS = (
    ("coloop", OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["_c"]))),
    ("digon", OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1), (1, 0)], ["_d1", "_d2"]))),
)


@_skips_over_budget("basic")
def verify_basic(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    suite = "basic"
    if om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "representation not unimodular")]
    out = []
    p = a_poly(om, budget=budget, jobs=jobs)
    qv, yv, zv = (Poly.variable(QYZ, v) for v in QYZ)
    swapped = p.compose(QYZ, {"q": qv, "y": zv, "z": yv})
    out.append(_cmp(suite, "symmetry-y-z", name, p, swapped))

    n = om.n
    xyz = ("x", "y", "z")
    terms = p.numerators().items()
    for q0 in (3, 5):
        counts = coflow_histogram(om, q0, budget=budget, jobs=jobs).counts
        lhs2 = Poly.gather(xyz, (((n - g - l, g, l), c) for (g, l, h), c in counts))
        lhs3 = Poly.gather(YZ, (((n - l, n - g), c) for (g, l, h), c in counts))
        cq = [(k, i, j, c * q0**k) for (k, i, j), c in terms]
        rhs2 = Poly.gather(xyz, (((n - i - j, i, j), c) for k, i, j, c in cq), p.den)
        rhs3 = Poly.gather(YZ, (((n - i, n - j), c) for k, i, j, c in cq), p.den)
        out.append(_cmp(suite, f"zero-count-refinement-q{q0}", name, lhs2, rhs2))
        out.append(_cmp(suite, f"weak-count-refinement-q{q0}", name, lhs3, rhs3))

    if n == 0:
        out.append(_cmp(suite, "empty-ground", name, p, Poly.const(QYZ, 1)))
    for a in bits_of(om.loops_mask):
        out.append(
            _cmp(
                suite,
                f"loop-deletion-{om.labels[a]}",
                name,
                p,
                a_poly(om.delete(1 << a), budget=budget, jobs=jobs),
            )
        )
    coloop_factor = 1 + (qv - 1) * Fraction(1, 2) * (yv + zv)
    for a in bits_of(om.coloops_mask):
        out.append(
            _cmp(
                suite,
                f"coloop-contraction-{om.labels[a]}",
                name,
                p,
                coloop_factor * a_poly(om.contract(1 << a), budget=budget, jobs=jobs),
            )
        )
    for tag, other in _SUMMANDS:
        s = om.direct_sum(other)
        out.append(
            _cmp(
                suite,
                f"direct-sum-{tag}",
                name,
                a_poly(s, budget=budget, jobs=jobs),
                p * a_poly(other, budget=budget, jobs=jobs),
            )
        )
    return out


# ---------------------------------------------------------------------------
# suite: relations with the Potts/Tutte polynomial
# ---------------------------------------------------------------------------


@_skips_over_budget("tutte")
def verify_tutte_relations(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    suite = "tutte"
    out = []
    pt = potts(om, budget)
    if om.tu_status == "not-tu":
        # negative control: for a non-regular sign pattern, the coflow count
        # must NOT reproduce the Potts polynomial
        for q0 in (3, 5):
            counts = coflow_histogram(om, q0, budget=budget, jobs=jobs).counts
            coflow_sum = Poly.gather(("y",), (((g + l + h,), c) for (g, l, h), c in counts))
            differs = coflow_sum != pt.subs_scalar("q", q0)
            out.append(
                CheckReport(
                    suite,
                    f"negative-control-q{q0}",
                    name,
                    "pass" if differs else "fail",
                    detail="" if differs else "coflow sum unexpectedly equals potts",
                )
            )
        return out

    # (a) doubling: statistics of the doubled matroid = potts at yz
    if 2 * om.n <= CIRCUIT_GROUND_CAP:
        dbl = om.double()
        lhs = a_poly(dbl, budget=budget, jobs=jobs)
        yz_prod = Poly.variable(QYZ, "y") * Poly.variable(QYZ, "z")
        rhs = pt.compose(QYZ, {"q": Poly.variable(QYZ, "q"), "y": yz_prod})
        out.append(_cmp(suite, "doubling", name, lhs, rhs))
    else:
        out.append(_skip(suite, "doubling", name, "doubled ground exceeds circuit cap"))

    # (b) reorientation average = potts at (y+z)/2
    if om.n <= AVERAGE_SIZE_CAP:
        total = poly_sum(QYZ, (
            (a_poly(om.reorient(s), budget=budget, jobs=jobs), 1, (0, 0, 0))
            for s in range(1 << om.n)
        ))
        qv, yv, zv = (Poly.variable(QYZ, v) for v in QYZ)
        rhs = pt.compose(QYZ, {"q": qv, "y": (yv + zv) * Fraction(1, 2)})
        out.append(
            _cmp(suite, "reorientation-average", name, total, rhs * 2**om.n)
        )
    else:
        out.append(_skip(suite, "reorientation-average", name, "2^n too large"))

    # (c) diagonal y = z recovers potts
    p = a_poly(om, budget=budget, jobs=jobs)
    qy = ("q", "y")
    lhs = p.compose(qy, {"q": Poly.variable(qy, "q"), "y": Poly.variable(qy, "y"),
                         "z": Poly.variable(qy, "y")})
    out.append(_cmp(suite, "diagonal-potts", name, lhs, pt))
    return out


# ---------------------------------------------------------------------------
# suite: partition expansions
# ---------------------------------------------------------------------------


@_skips_over_budget("expansions")
def verify_expansions(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    suite = "expansions"
    if om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "representation not unimodular")]
    if om.n > EXPANSION_SIZE_CAP:
        return [_skip(suite, "all", name, f"n={om.n} exceeds partition cap")]
    out = []
    n, r = om.n, om.rank

    # count the partitions (R, T), T in the minors' indices, per reoriented
    # minor, by its memo key read off the masks, and monomial; each distinct
    # reoriented minor is built once
    minors = {}  # key -> (minor, reorientation)
    tallies = ({}, {})  # deletions, contractions: (key, monomial) -> count
    for R in range(1 << n):
        mdel, mcon = om.delete(R), om.contract(R)
        qk = r - mdel.rank
        for t in range(mdel.full_mask, -1, -1):
            shift = (mdel.n - t.bit_count(), t.bit_count())
            for tally, m, k in ((tallies[0], mdel, qk), (tallies[1], mcon, 0)):
                key = m.reoriented_key(t)
                minors.setdefault(key, (m, t))
                item = (key, (k, *shift))
                tally[item] = tally.get(item, 0) + 1
    pairs = {
        key: char_pair(m.reorient(t), budget=budget) for key, (m, t) in minors.items()
    }
    lhs1, lhs2, lhs3, lhs4 = (
        poly_sum(QYZ, ((side(pairs[key]), c, shift) for (key, shift), c in tally.items()))
        for tally in tallies
        for side in (attrgetter("strict"), attrgetter("weak"))
    )

    p = a_poly(om, budget=budget, jobs=jobs)
    qv, yv, zv = (Poly.variable(QYZ, v) for v in QYZ)
    rhs1 = p.compose(QYZ, {"q": qv, "y": 1 + yv, "z": 1 + zv})
    out.append(_cmp(suite, "deletion-strict", name, lhs1, rhs1))
    rhs2 = homog_general(p, n, 1 + yv, 1 + zv, 1 + yv + zv)
    out.append(_cmp(suite, "deletion-weak", name, lhs2, rhs2))
    out.append(_cmp(suite, "contraction-strict", name, lhs3, p))
    rhs4 = homog_general(p, n, yv, zv, 1 + yv + zv)
    out.append(_cmp(suite, "contraction-weak", name, lhs4, rhs4))

    # reorientation generating functions (alpha tracks reoriented elements)
    qa = ("q", "a")
    cps = [(char_pair(om.reorient(s), budget=budget), (0, s.bit_count())) for s in range(1 << n)]
    gf1 = poly_sum(qa, ((cp.strict, 1, shift) for cp, shift in cps))
    gf2 = poly_sum(qa, ((cp.weak, 1, shift) for cp, shift in cps))
    terms = p.numerators().items()
    rhs_gf1 = Poly.gather(qa, (((k, j), c) for (k, i, j), c in terms if i + j == n), p.den)
    # c q^k a^j (1 + a)^(n - i - j): a third variable w carries n - i - j
    qv, av = (Poly.variable(qa, v) for v in qa)
    rhs_gf2 = Poly.gather(
        ("q", "w", "a"), (((k, n - i - j, j), c) for (k, i, j), c in terms), p.den
    ).compose(qa, {"q": qv, "w": 1 + av, "a": av})
    out.append(_cmp(suite, "reorientation-gf-strict", name, gf1, rhs_gf1))
    out.append(_cmp(suite, "reorientation-gf-weak", name, gf2, rhs_gf2))
    return out


# ---------------------------------------------------------------------------
# suite: reciprocity
# ---------------------------------------------------------------------------


@_skips_over_budget("reciprocity")
def verify_reciprocity(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    suite = "reciprocity"
    if om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "representation not unimodular")]
    out = []
    n, r = om.n, om.rank
    p = a_poly(om, budget=budget, jobs=jobs)
    sign_r = (-1) ** r
    p_at_m1 = p.subs_scalar("q", -1)  # bivariate in (y, z)

    if n <= PARTITION_SIZE_CAP:
        # For each R, M minus R and M/R are read as circuit lists in the
        # parent's indices, and T runs over the subsets of E minus R.  M minus
        # R keeps the circuits that avoid R.  The circuits of M/R are the
        # minimal nonempty C - R, and every C - R is a conformal composition
        # of them, so the positive C - R cover what the positive circuits of
        # M/R cover: no minor is built.
        accs = [{}, {}, {}, {}]
        for R in range(1 << n):
            rest = om.full_mask & ~R
            deleted = [c for c in om.circuits if not c.support & R]
            contracted = [c.drop(R) for c in om.circuits]
            r_del, r_con = om.rank_of(rest), r - om.rank_of(R)
            t = rest
            while True:
                st = ((rest & ~t).bit_count(), t.bit_count())
                u = positive_union(deleted, t)
                if not u:
                    accs[0][st] = accs[0].get(st, 0) + 1
                if u == rest:
                    accs[1][st] = accs[1].get(st, 0) + (-1) ** r_del
                u = positive_union(contracted, t)
                if not u:
                    accs[2][st] = accs[2].get(st, 0) + (-1) ** r_con
                if u == rest:
                    accs[3][st] = accs[3].get(st, 0) + 1
                if not t:
                    break
                t = (t - 1) & rest
        acy_del, tc_del, acy_con, tc_con = (
            Poly(YZ, {e: c for e, c in d.items() if c}) for d in accs
        )
        yb, zb = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
        rhs12 = sign_r * p_at_m1.compose(YZ, {"y": 1 + yb, "z": 1 + zb})
        out.append(_cmp(suite, "acyclic-deletions", name, acy_del, rhs12))
        rhs22 = sign_r * homog_general(p_at_m1, n, 1 + yb, 1 + zb, 1 + yb + zb)
        out.append(_cmp(suite, "totally-cyclic-deletions", name, tc_del, rhs22))
        out.append(_cmp(suite, "acyclic-contractions", name, acy_con, p_at_m1))
        rhs42 = homog_general(p_at_m1, n, yb, zb, 1 + yb + zb)
        out.append(_cmp(suite, "totally-cyclic-contractions", name, tc_con, rhs42))
    else:
        out.append(_skip(suite, "partition-sums", name, f"n={n} exceeds partition cap"))

    # weak polynomial at -q expands over cyclic flats
    cp = char_pair(om, budget=budget)
    minus_q = {"q": -Poly.variable(("q",), "q")}
    lhs_flat = cp.weak.compose(("q",), minus_q)
    rhs_flat = poly_sum(("q",), (
        (char_pair(om.contract(t), budget=budget).strict, (-1) ** (r - om.rank_of(t)), (0,))
        for t in om.cyclic_flats()
    ))
    out.append(_cmp(suite, "weak-at-negated-q", name, lhs_flat, rhs_flat))

    # indicator evaluations at q = -1
    cls = om.classify()
    weak_m1 = cp.weak.eval_frac({"q": -1})
    strict_m1 = cp.strict.eval_frac({"q": -1})
    want_weak = 1 if cls.is_totally_cyclic else 0
    want_strict = sign_r if cls.is_acyclic else 0
    out.append(_expect(suite, "weak-indicator", name, weak_m1, want_weak))
    out.append(_expect(suite, "strict-indicator", name, strict_m1, want_strict))
    if cls.is_acyclic:
        neg_strict = cp.strict.compose(("q",), minus_q)
        out.append(_cmp(suite, "acyclic-strict-weak-flip", name, neg_strict, sign_r * cp.weak))
    return out


# ---------------------------------------------------------------------------
# suite: duality
# ---------------------------------------------------------------------------


def _mul_at_cube_root(x: tuple, y: tuple) -> tuple:
    """(a + b*t)(c + d*t) as a pair, reduced with t^2 = -1 - t."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def _dual_at_cube_root(stats: Poly, n: int, y0, z0) -> tuple:
    """(a, b) with denom^n * stats(u, v) = a + b*t at a primitive cube root
    of unity t, where denom = 1 + y0 + z0 and

        u = (conj(t) y0 + t z0 + 1) / denom,  v = (t y0 + conj(t) z0 + 1) / denom,

    for `stats` in (y, z) of (y, z)-degree at most n.  With d the lcm of the
    denominators of y0 and z0, d*denom*u and d*denom*v have integer
    coefficients; their powers are kept reduced as pairs (a, b) meaning
    a + b*t, so the sum is integer arithmetic and one division by d^n.
    """
    d = math.lcm(y0.denominator, z0.denominator)
    dy, dz = int(d * y0), int(d * z0)
    u, v = (d - dy, dz - dy), (d - dz, dy - dz)
    pu, pv = [(1, 0)], [(1, 0)]
    for _ in range(n):
        pu.append(_mul_at_cube_root(pu[-1], u))
        pv.append(_mul_at_cube_root(pv[-1], v))
    pd = [(d + dy + dz) ** k for k in range(n + 1)]
    a = b = 0
    for (i, j), c in stats.numerators().items():
        ra, rb = _mul_at_cube_root(pu[i], pv[j])
        w = c * pd[n - i - j]
        a += w * ra
        b += w * rb
    return Fraction(a, d**n * stats.den), Fraction(b, d**n * stats.den)


# deterministic rational (y0, z0) points, each with 1 + y0 + z0 > 0
_DUALITY_BASE = tuple((Fraction(y0), Fraction(z0)) for y0, z0 in (
    (2, 3), (1, 1), ("1/2", 2), (5, "1/3"), (3, 4), (7, 2), ("1/5", 3), (4, 9),
    ("2/7", 5), (6, "1/2"), (8, "3/2"), (9, 5), (10, 7),
))


def _duality_points(n: int):
    """max(5, n + 1) rational (y0, z0) pairs with 1 + y0 + z0 != 0."""
    want = max(5, n + 1)
    pts = list(_DUALITY_BASE[:want])
    k = 11
    while len(pts) < want:
        pts.append((Fraction(k), Fraction(k + 1)))
        k += 1
    return pts


@_skips_over_budget("duality")
def verify_duality(
    om: OrientedMatroid,
    name: str,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    digraph: Digraph = None,
) -> list:
    suite = "duality"
    if om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "representation not unimodular")]
    out = []
    n, r = om.n, om.rank
    p = a_poly(om, budget=budget, jobs=jobs)
    dual = om.dual()
    pdual = a_poly(dual, budget=budget, jobs=jobs)

    # (a) at q = -1 the dual statistics are a homogenized reparametrization
    yb, zb = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
    lhs = pdual.subs_scalar("q", -1)
    rhs = (-1) ** dual.rank * homog_general(
        p.subs_scalar("q", -1), n, yb - 1, zb - 1, yb + zb - 1
    )
    out.append(_cmp(suite, "dual-at-minus-one", name, lhs, rhs))

    # (b) at q = 3 the duality needs a primitive cube root of unity t.  At
    # each point the dual statistics are evaluated at u(t) and v(t), linear
    # in t over Q, and reduced with t^3 = 1, t^2 = -1 - t.  The point passes
    # when the t-part is 0 and the rational part over 3^(n - r) equals the
    # direct value.
    stats3 = a_eval(om, 3, budget=budget, jobs=jobs)
    stats3_dual = a_eval(dual, 3, budget=budget, jobs=jobs)
    bad = []
    for y0, z0 in _duality_points(n):
        rat, irr = _dual_at_cube_root(stats3_dual, n, y0, z0)
        if irr or rat / 3 ** (n - r) != stats3.eval_frac({"y": y0, "z": z0}):
            bad.append((y0, z0))
    out.append(
        CheckReport(
            suite, "dual-at-three", name,
            "pass" if not bad else "fail",
            "" if not bad else f"mismatch at points {bad}",
        )
    )

    # (c) acyclic symmetry in (q, y): setting z = 1 collapses the j index
    if om.classify().is_acyclic:
        qy = ("q", "y")
        terms = p.numerators().items()
        lhs_sym = Poly.gather(qy, (((k, i), c * (-1) ** k) for (k, i, j), c in terms), p.den)
        rhs_sym = Poly.gather(qy, (((k, n - i), c * (-1) ** r) for (k, i, j), c in terms), p.den)
        out.append(_cmp(suite, "acyclic-symmetry", name, lhs_sym, rhs_sym))

    # (d) digraph bridges
    if digraph is not None:
        for q0 in (1, 3, 5):
            out.append(
                _cmp(
                    suite,
                    f"coloring-route-q{q0}",
                    name,
                    digraph_a_eval(digraph, q0, budget=budget),
                    a_eval(om, q0, budget=budget, jobs=jobs),
                )
            )
        bp = b_poly(digraph, budget=budget)
        lhs_b = bp.subs_scalar("q", -1) * (-1) ** digraph.components()
        out.append(_cmp(suite, "order-poly-bridge", name, lhs_b, p.subs_scalar("q", -1)))
    return out


# ---------------------------------------------------------------------------
# suite: recurrences
# ---------------------------------------------------------------------------


@_skips_over_budget("recurrences")
def verify_recurrences(
    om: OrientedMatroid, name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> list:
    suite = "recurrences"
    if om.tu_status == "not-tu":
        return [_skip(suite, "all", name, "representation not unimodular")]
    out = []
    p = a_poly(om, budget=budget, jobs=jobs)
    qv, yv, zv = (Poly.variable(QYZ, v) for v in QYZ)
    coloops = om.coloops_mask
    for a in range(om.n):
        am = 1 << a
        lab = om.labels[a]
        if coloops & am:
            rhs = (1 + (qv - 1) * Fraction(1, 2) * (yv + zv)) * a_poly(
                om.contract(am), budget=budget, jobs=jobs
            )
            out.append(_cmp(suite, f"coloop-{lab}", name, p, rhs))
        else:
            lhs = p + a_poly(om.reorient(am), budget=budget, jobs=jobs)
            rhs = (yv + zv) * a_poly(om.delete(am), budget=budget, jobs=jobs) + (
                2 - yv - zv
            ) * a_poly(om.contract(am), budget=budget, jobs=jobs)
            out.append(_cmp(suite, f"flip-average-{lab}", name, lhs, rhs))

    for i, j in om.opposite_pairs():
        em = 1 << i | 1 << j
        lab = f"{om.labels[i]}+{om.labels[j]}"
        # an opposite pair is a cocircuit when deleting it drops the rank
        if om.rank_of(om.full_mask & ~em) < om.rank:
            rhs = (1 + (qv - 1) * yv * zv) * a_poly(
                om.contract(em), budget=budget, jobs=jobs
            )
            out.append(_cmp(suite, f"pair-cocircuit-{lab}", name, p, rhs))
        else:
            rhs = yv * zv * a_poly(om.delete(em), budget=budget, jobs=jobs) + (
                1 - yv * zv
            ) * a_poly(om.contract(em), budget=budget, jobs=jobs)
            out.append(_cmp(suite, f"pair-split-{lab}", name, p, rhs))
    return out


SUITES = {
    "basic": verify_basic,
    "tutte": verify_tutte_relations,
    "expansions": verify_expansions,
    "reciprocity": verify_reciprocity,
    "duality": verify_duality,
    "recurrences": verify_recurrences,
}


def run_suites(
    om: OrientedMatroid,
    name: str,
    suites=None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    digraph: Digraph = None,
) -> list:
    """Run the named check suites (all six by default) on one instance."""
    out = []
    for s in suites or SUITES:
        fn = SUITES[s]
        if fn is verify_duality:
            out.extend(fn(om, name, budget=budget, jobs=jobs, digraph=digraph))
        else:
            out.extend(fn(om, name, budget=budget, jobs=jobs))
    return out
