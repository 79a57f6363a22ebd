import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omflow.algebra import Poly
from omflow.coflows import char_pair, coflow_histogram
from omflow.errors import BudgetExceeded
from omflow.fixtures import get_fixture
from omflow.matroid import Digraph, OrientedMatroid, mask_of
from omflow.tutte import characteristic, potts, tutte

Q = Fraction
XY = ("x", "y")


def potts_tutte_residual(om: OrientedMatroid, q0, y0) -> Fraction:
    """Difference of the two sides of the Potts-Tutte change of variables.

    P(q, y) - y^|E| (1/y - 1)^rank T(1 + q/(1/y - 1), 1/y) at a rational
    point with y0 not in {0, 1}; zero iff the identity holds there.
    """
    q0, y0 = Fraction(q0), Fraction(y0)
    if y0 in (0, 1):
        raise ValueError("need y0 outside {0, 1}")
    lhs = potts(om).eval_frac({"q": q0, "y": y0})
    u = 1 / y0 - 1
    rhs = y0**om.n * u**om.rank * tutte(om).eval_frac(
        {"x": 1 + q0 / u, "y": 1 / y0}
    )
    return lhs - rhs


def triangle():
    return OrientedMatroid.from_digraph(
        Digraph.make(3, [(0, 1), (1, 2), (2, 0)], ["a", "b", "c"])
    )


def u24():
    return OrientedMatroid.from_matrix(
        [[1, 0, 1, 1], [0, 1, 1, -1]], ["a", "b", "c", "d"], tu_mode="assume"
    )


NAMED = {name: get_fixture(name)[0] for name in ("U24", "R10")}


def random_digraph_om(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 5)
    arcs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 7))]
    return OrientedMatroid.from_digraph(Digraph.make(nv, arcs))


# random digraphs, plus the non-regular U24 and the regular non-graphic R10
instances = st.one_of(
    st.integers(0, 10**6).map(random_digraph_om),
    st.sampled_from(sorted(NAMED)).map(NAMED.get),
)


class TestSubsetWalk:
    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_tutte_and_potts_match_per_subset_expansion(self, om):
        x, y = (Poly.variable(XY, v) for v in XY)
        q, yq = (Poly.variable(("q", "y"), v) for v in ("q", "y"))
        r = om.rank
        want_t = Poly(XY, {})
        want_p = Poly(("q", "y"), {})
        for s in range(1 << om.n):
            rs, k = om.rank_of(s), s.bit_count()
            want_t = want_t + (x - 1) ** (r - rs) * (y - 1) ** (k - rs)
            want_p = want_p + yq ** (om.n - k) * (1 - yq) ** k * q ** (r - rs)
        assert tutte(om) == want_t
        assert potts(om) == want_p

    def test_budget_covers_every_subset(self):
        om = triangle()
        for fn in (tutte, potts, characteristic):
            fn(om, budget=8)
            with pytest.raises(BudgetExceeded):
                fn(om, budget=7)


class TestTutte:
    def test_coloop_and_loop(self):
        coloop = OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["a"]))
        assert tutte(coloop) == Poly.variable(XY, "x")
        loop = OrientedMatroid.from_digraph(Digraph.make(1, [(0, 0)], ["l"]))
        assert tutte(loop) == Poly.variable(XY, "y")

    def test_triangle(self):
        x, y = Poly.variable(XY, "x"), Poly.variable(XY, "y")
        assert tutte(triangle()) == x**2 + x + y

    def test_u24_golden(self):
        x, y = Poly.variable(XY, "x"), Poly.variable(XY, "y")
        assert tutte(u24()) == x**2 + 2 * x + 2 * y + y**2

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_deletion_contraction(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 4)
        arcs = [
            (rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 5))
        ]
        om = OrientedMatroid.from_digraph(Digraph.make(nv, arcs))
        e = rng.randrange(om.n)
        em = 1 << e
        if em & om.loops_mask:
            want = Poly.variable(XY, "y") * tutte(om.delete(em))
        elif em & om.coloops_mask:
            want = Poly.variable(XY, "x") * tutte(om.contract(em))
        else:
            want = tutte(om.delete(em)) + tutte(om.contract(em))
        assert tutte(om) == want


class TestPotts:
    def test_u24_golden(self):
        q = Poly.variable(("q", "y"), "q")
        y = Poly.variable(("q", "y"), "y")
        want = (
            q**2 * y**4 - 4 * q * y**4 + 4 * q * y**3 + 3 * y**4 - 4 * y**3 + 1
        )
        assert potts(u24()) == want

    def test_coloop(self):
        coloop = OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["a"]))
        q = Poly.variable(("q", "y"), "q")
        y = Poly.variable(("q", "y"), "y")
        assert potts(coloop) == 1 + (q - 1) * y

    def test_change_of_variables(self):
        rng = random.Random(11)
        for om in (triangle(), u24()):
            for _ in range(3):
                q0 = Q(rng.randint(1, 9), rng.randint(1, 4))
                y0 = Q(rng.randint(2, 9), rng.randint(2, 7))
                if y0 in (0, 1):
                    y0 = Q(3, 2)
                assert potts_tutte_residual(om, q0, y0) == 0

    def test_potts_counts_coflows_by_nonzeros(self):
        # P(q, y) = sum over coflows of y^(#nonzero values), any orientation
        for om in (triangle(),):
            p = potts(om)
            for q0 in (3, 4, 5):
                hist = coflow_histogram(om, q0)
                want: dict = {}
                for (g, l, h), c in hist.counts:
                    k = g + l + h
                    want[k] = want.get(k, 0) + c
                got = p.subs_scalar("q", q0)
                assert got == Poly(("y",), {(k,): Q(c) for k, c in want.items()})

    def test_potts_differs_from_coflow_sum_on_u24(self):
        # the non-regular sign table counts only the zero coflow
        om = u24()
        p = potts(om)
        for q0 in (3, 5):
            hist = coflow_histogram(om, q0)
            got: dict = {}
            for (g, l, h), c in hist.counts:
                k = g + l + h
                got[k] = got.get(k, 0) + c
            coflow_sum = Poly(("y",), {(k,): Q(c) for k, c in got.items()})
            assert coflow_sum == Poly.const(("y",), 1)
            assert p.subs_scalar("q", q0) != coflow_sum


class TestCharacteristic:
    def test_doubled_triangle_is_proper_coloring_count(self):
        # underlying matroid of the doubled triangle = triangle graph
        m = triangle()
        q = Poly.variable(("q",), "q")
        assert characteristic(m) == (q - 1) * (q - 2)

    def test_orientation_sum(self):
        # chi_M(q) = sum over all reorientations of the strict polynomial
        for om in (
            triangle(),
            OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1), (0, 1)])),
        ):
            total = Poly(("q",), {})
            for s in range(1 << om.n):
                total = total + char_pair(om.reorient(s)).strict
            assert total == characteristic(om)
