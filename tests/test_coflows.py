import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omflow import coflows
from omflow.algebra import Poly
from omflow.coflows import (
    a_even_poly,
    a_eval,
    a_poly,
    b_poly,
    char_pair,
    clear_caches,
    coflow_histogram,
    digraph_a_eval,
    even_char_pair,
    extension_matrix,
    lattice_count,
)
from omflow.errors import BudgetExceeded, InvariantViolated
from omflow.fixtures import R10_ROWS, default_corpus, get_fixture, get_pom_fixture
from omflow.matroid import Digraph, OrientedMatroid
from omflow.pom import t1

Q = Fraction
QYZ = ("q", "y", "z")
YZ = ("y", "z")


def coloop():
    return OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["a"]))


def digon():
    return OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1), (1, 0)], ["a", "b"]))


def triangle():
    return OrientedMatroid.from_digraph(
        Digraph.make(3, [(0, 1), (1, 2), (2, 0)], ["a", "b", "c"])
    )


def fig_four_arcs():
    return Digraph.make(3, [(0, 1), (1, 2), (0, 2), (2, 0)], ["a", "b", "c", "d"])


def u24():
    return OrientedMatroid.from_matrix(
        [[1, 0, 1, 1], [0, 1, 1, -1]], ["a", "b", "c", "d"], tu_mode="assume"
    )


def qyz(s_terms):
    return Poly(QYZ, {e: Q(c) for e, c in s_terms.items()})


@pytest.fixture
def serial_pool(monkeypatch):
    """A process pool on 3 CPUs: it records its sizes, refuses more workers
    than CPUs and maps serially, sending the callable through pickle."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            if max_workers > 3:
                raise RuntimeError(f"{max_workers} workers on 3 CPUs")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(pickle.loads(pickle.dumps(fn)), *iterables)

    monkeypatch.setattr(coflows, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(coflows.os, "cpu_count", lambda: 3)
    return sizes


class TestHistograms:
    def test_coloop_q5(self):
        h = coflow_histogram(coloop(), 5)
        assert h.as_dict() == {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 2}
        assert h.total == 5

    def test_digon_q5(self):
        h = coflow_histogram(digon(), 5)
        assert h.as_dict() == {(0, 0, 0): 1, (1, 1, 0): 4}

    def test_triangle_q3(self):
        p = a_eval(triangle(), 3)
        y, z = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
        assert p == 1 + 6 * y * z + y**3 + z**3

    def test_even_histogram_digon(self):
        h = coflow_histogram(digon(), 4)
        assert h.as_dict() == {(0, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 1}

    def test_u24_only_zero_coflow(self):
        for q in (1, 3, 5, 7):
            h = coflow_histogram(u24(), q)
            assert h.as_dict() == {(0, 0, 0): 1}
            assert h.total == 1

    def test_q1_single_coflow(self):
        h = coflow_histogram(triangle(), 1)
        assert h.as_dict() == {(0, 0, 0): 1}

    def test_total_is_power_for_regular(self):
        for om in (coloop(), digon(), triangle()):
            for q in (1, 3, 4, 5):
                assert coflow_histogram(om, q).total == q**om.rank

    def test_jobs_agree(self):
        h1 = coflow_histogram(triangle(), 5, jobs=1)
        h2 = coflow_histogram(triangle(), 5, jobs=2)
        assert h1 == h2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            coflow_histogram(triangle(), 5, budget=10)

    def test_jobs_never_exceed_the_cpus(self, serial_pool):
        om = get_fixture("R10")[0]
        assert 13**om.rank > 4 * coflows._CHUNK
        assert coflow_histogram(om, 13, jobs=10**6) == coflow_histogram(om, 13)
        assert serial_pool == [3]

    @pytest.mark.parametrize("om, q, chunk", [("R10", 13, None), ("U24", 5, 6)])
    def test_jobs_split_the_grid(self, serial_pool, monkeypatch, om, q, chunk):
        # each worker codes its own [start, stop) of the grid, and here the
        # bounds fall inside chunks; U24 runs its circuit filter
        om = get_fixture("R10")[0] if om == "R10" else u24()
        if chunk:
            monkeypatch.setattr(coflows, "_CHUNK", chunk)
        assert q**om.rank > 4 * coflows._CHUNK
        assert coflow_histogram(om, q, jobs=3) == coflow_histogram(om, q)
        assert serial_pool == [3]

    def test_json_shape(self):
        obj = coflow_histogram(digon(), 5).to_json_obj()
        assert obj == {"q": 5, "counts": [[0, 0, 1], [1, 1, 4]]}


class TestCircuitFilter:
    """On a certified input every circuit is the sign combination of the
    fundamental circuits, so the circuit filter removes nothing."""

    # upper triangular with a nonzero diagonal, so invertible
    G = [
        [2, 1, 0, -1, 0],
        [0, 1, 3, 0, 0],
        [0, 0, -1, 0, 2],
        [0, 0, 0, 3, 1],
        [0, 0, 0, 0, 1],
    ]

    def accepted(self):
        corpus = default_corpus(3, 4, 4, 3, include_named=False)
        yield from (om for _, om, _ in itertools.islice(corpus, 0, None, 6))
        yield get_fixture("R10")[0]
        moved = [[sum(g * r for g, r in zip(grow, col)) for col in zip(*R10_ROWS)]
                 for grow in self.G]
        yield OrientedMatroid.from_matrix(moved)

    def test_filter_removes_nothing(self):
        for om in self.accepted():
            assert om.tu_status == "true"
            filtered = OrientedMatroid(om.labels, "not-tu", om.circuits, rows=om.rows)
            for q in (3, 4, 5):
                # the memo keys on the circuits, not the status
                clear_caches()
                want = coflow_histogram(om, q)
                clear_caches()
                assert (extension_matrix(filtered)[2] is None) == (not om.circuits)
                assert coflow_histogram(filtered, q) == want
        clear_caches()


class TestAPoly:
    def test_coloop(self):
        q, y, z = (Poly.variable(QYZ, v) for v in QYZ)
        assert a_poly(coloop()) == 1 + (q - 1) * Q(1, 2) * (y + z)

    def test_digon(self):
        q, y, z = (Poly.variable(QYZ, v) for v in QYZ)
        assert a_poly(digon()) == 1 + (q - 1) * y * z

    def test_empty(self):
        m = OrientedMatroid.from_matrix([[]], [])
        assert a_poly(m) == Poly.const(QYZ, 1)

    def test_loop(self):
        m = OrientedMatroid.from_digraph(Digraph.make(1, [(0, 0)], ["l"]))
        assert a_poly(m) == Poly.const(QYZ, 1)

    def test_golden_four_arc_fixture(self):
        om = OrientedMatroid.from_digraph(fig_four_arcs())
        q, y, z = (Poly.variable(QYZ, v) for v in QYZ)
        half = (q - 1) * Q(1, 2)
        golden = y * z * (1 + half * (y + z)) ** 2 + (1 - y * z) * (
            1 + (q - 1) * y * z
        )
        assert a_poly(om) == golden

    def test_golden_fixture_q3(self):
        om = OrientedMatroid.from_digraph(fig_four_arcs())
        y, z = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
        want = (
            1
            + 2 * y * z
            + 2 * y * z**2
            + 2 * y**2 * z
            + y * z**3
            + y**3 * z
        )
        assert a_eval(om, 3) == want
        assert a_poly(om).subs_scalar("q", 3) == want

    def test_degree_bounds(self):
        for om in (coloop(), digon(), triangle()):
            p = a_poly(om)
            for (k, i, j) in p.numerators():
                assert k <= om.rank
                assert i + j <= om.n

    def test_symmetry_in_y_z(self):
        for om in (triangle(), digon()):
            p = a_poly(om)
            swapped = Poly(QYZ, {(k, j, i): c for (k, i, j), c in p.numerators().items()}, p.den)
            assert p == swapped


class TestCharPolys:
    def test_coloop(self):
        pair = char_pair(coloop())
        q = Poly.variable(("q",), "q")
        assert pair.strict == (q - 1) * Q(1, 2)
        assert pair.weak == (q + 1) * Q(1, 2)

    def test_independent_elements_multiply(self):
        path = OrientedMatroid.from_digraph(
            Digraph.make(4, [(0, 1), (1, 2), (2, 3)])
        )
        q = Poly.variable(("q",), "q")
        assert char_pair(path).strict == ((q - 1) * Q(1, 2)) ** 3

    def test_triangle_strict_value(self):
        pair = char_pair(triangle())
        assert pair.strict.eval_frac({"q": 5}) == 3

    def test_loop_kills_strict(self):
        m = OrientedMatroid.from_digraph(Digraph.make(1, [(0, 0)], ["l"]))
        pair = char_pair(m)
        assert not pair.strict
        assert pair.weak == Poly.const(("q",), 1)

    def test_opposite_pair_kills_strict(self):
        pair = char_pair(digon())
        assert not pair.strict

    def test_u24(self):
        pair = char_pair(u24())
        assert not pair.strict
        assert pair.weak == Poly.const(("q",), 1)

    def test_strict_weak_vs_a_eval(self):
        for om in (triangle(), digon(), coloop()):
            pair = char_pair(om)
            for q in (3, 5, 7):
                stats = a_eval(om, q)
                assert stats.den == 1
                counts = stats.numerators()
                assert pair.strict.eval_frac({"q": q}) == counts.get((om.n, 0), 0)
                weak_direct = sum(c for (g, l), c in counts.items() if g == 0)
                assert pair.weak.eval_frac({"q": q}) == weak_direct


class TestEvenChar:
    def test_coloop(self):
        pair = even_char_pair(coloop())
        q = Poly.variable(("q",), "q")
        assert pair.strict == (q - 2) * Q(1, 2)
        assert pair.weak == (q + 2) * Q(1, 2)

    def test_triangle_weak_at_2(self):
        pair = even_char_pair(triangle())
        # q=2: closed box {0,1}: coflows with values in {0,1}: f=(i,j,-i-j)
        # candidates (0,0,0),(0,1,1),(1,0,1),(1,1,0) -> all valid mod 2
        assert pair.weak.eval_frac({"q": 2}) == 4


class TestLatticeCount:
    def test_single_coloop_q2_closed(self):
        # box {0, 1}, no circuits to satisfy
        assert lattice_count(coloop(), 2) == 2

    def test_open_box_q1(self):
        assert lattice_count(coloop(), 1, open_box=True) == 0
        empty = OrientedMatroid.from_matrix([], labels=[])
        assert lattice_count(empty, 1, open_box=True) == 1

    def test_odd_q_matches_one_sided_counts(self):
        for om in (triangle(), digon(), coloop()):
            pair = char_pair(om)
            for q in (1, 3, 5, 7):
                assert lattice_count(om, q) == pair.weak.eval_frac({"q": q})
                assert lattice_count(om, q, open_box=True) == pair.strict.eval_frac(
                    {"q": q}
                )

    def test_even_q_matches_even_boxes(self):
        for om in (triangle(), digon()):
            pair = even_char_pair(om)
            for q in (2, 4, 6):
                assert lattice_count(om, q) == pair.weak.eval_frac({"q": q})
                assert lattice_count(om, q, open_box=True) == pair.strict.eval_frac(
                    {"q": q}
                )

    def test_budget_guards_full_box(self):
        # enumeration is over the whole ground set, 5^3 > 100
        with pytest.raises(BudgetExceeded):
            lattice_count(triangle(), 9, budget=100)


class TestEvenAPoly:
    def test_coloop_even_constituent(self):
        pair = a_even_poly(coloop())
        vs = ("q", "y", "z", "w")
        q, y, z, w = (Poly.variable(vs, v) for v in vs)
        assert pair.even == 1 + (q - 2) * Q(1, 2) * (y + z) + w
        assert pair.even.subs_scalar("q", 2) == (1 + w).subs_scalar("q", 2)

    def test_digon_even_constituent(self):
        pair = a_even_poly(digon())
        vs = ("q", "y", "z", "w")
        q, y, z, w = (Poly.variable(vs, v) for v in vs)
        assert pair.even == 1 + (q - 2) * y * z + w**2

    def test_odd_part_matches_a_poly(self):
        assert a_even_poly(triangle()).odd == a_poly(triangle())


class TestStatisticsAgainstLoops:
    """Each route's weight-table encoding against a per-value loop."""

    @given(st.integers(0, 10**6), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_three_routes(self, seed, q):
        rng = random.Random(seed)
        nv = rng.randint(1, 4)
        arcs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randrange(6))]
        d = Digraph.make(nv, arcs)
        om = OrientedMatroid.from_digraph(d)
        _, ext, _ = extension_matrix(om)
        hist = Counter()
        for x in itertools.product(range(q), repeat=ext.shape[1]):
            vals = [int(v) % q for v in ext @ np.array(x, dtype=np.int64)]
            g, l = sum(0 < v < q / 2 for v in vals), sum(v > q / 2 for v in vals)
            hist[g, l, vals.count(q / 2)] += 1
        assert coflow_histogram(om, q).as_dict() == dict(hist)
        potentials, colorings = Counter(), Counter()
        for f in itertools.product(range(q), repeat=nv):
            diffs = [f[v] - f[u] for u, v in arcs]
            mods = [x % q for x in diffs]
            g, l = sum(0 < m < q / 2 for m in mods), sum(m > q / 2 for m in mods)
            potentials[g, l] += 1
            colorings[sum(x < 0 for x in diffs), sum(x > 0 for x in diffs)] += 1
        if q % 2:
            per = q ** d.components()
            want = {e: Q(c // per) for e, c in potentials.items()}
            assert digraph_a_eval(d, q) == Poly(("y", "z"), want)
        want = {e: Q(c) for e, c in colorings.items()}
        assert b_poly(d).subs_scalar("q", q) == Poly(("y", "z"), want)


class TestDigraphRoutes:
    def test_single_arc(self):
        d = Digraph.make(2, [(0, 1)], ["a"])
        y, z = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
        assert digraph_a_eval(d, 3) == 1 + y + z

    def test_matches_coflow_route(self):
        rng = random.Random(7)
        for _ in range(8):
            nv = rng.randint(1, 4)
            arcs = [
                (rng.randrange(nv), rng.randrange(nv))
                for _ in range(rng.randint(0, 5))
            ]
            d = Digraph.make(nv, arcs)
            om = OrientedMatroid.from_digraph(d)
            for q in (1, 3, 5):
                assert digraph_a_eval(d, q) == a_eval(om, q)

    def test_indivisible_potential_count_raises(self, monkeypatch):
        # one arc joins both vertices; two components would divide by q^2
        monkeypatch.setattr(Digraph, "components", lambda self: 2)
        with pytest.raises(InvariantViolated, match="not divisible"):
            digraph_a_eval(Digraph.make(2, [(0, 1)], ["a"]), 3)

    def test_b_poly_vertex(self):
        d = Digraph.make(1, [], [])
        assert b_poly(d) == Poly.variable(QYZ, "q")

    def test_b_poly_single_arc(self):
        d = Digraph.make(2, [(0, 1)], ["a"])
        q, y, z = (Poly.variable(QYZ, v) for v in QYZ)
        assert b_poly(d) == q + q * (q - 1) * Q(1, 2) * (y + z)

    def test_b_poly_self_loop_never_counts(self):
        d = Digraph.make(1, [(0, 0)], ["l"])
        assert b_poly(d) == Poly.variable(QYZ, "q")

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_b_poly_counts_all_colorings(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 3)
        arcs = [
            (rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 4))
        ]
        p = b_poly(Digraph.make(nv, arcs))
        at_one = p.subs_scalar("y", 1).subs_scalar("z", 1)
        q = Poly.variable(("q",), "q")
        assert at_one == q**nv

    def test_b_poly_degree(self):
        d = Digraph.make(3, [(0, 1), (1, 2), (2, 0)])
        assert all(k <= 3 for k, _, _ in b_poly(d).numerators())

    @pytest.mark.parametrize("nv", [0, 3])
    def test_arcless_digraphs(self, nv):
        d = Digraph.make(nv, [])
        assert digraph_a_eval(d, 3) == Poly(YZ, {(0, 0): Q(1)})
        assert b_poly(d) == Poly(QYZ, {(nv, 0, 0): Q(1)})


class TestProducts:
    """The grid kernel `_codes` against table lookups summed point by point."""

    @given(
        r=st.integers(0, 4),
        width=st.integers(0, 5),
        lo=st.integers(0, 2),
        chunk=st.integers(1, 9),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, r, width, lo, chunk, data):
        k = 0
        while k < r and width ** (k + 1) <= chunk:
            k += 1
        # the kernel's split: rows below k form the block, the rest are fixed
        # per chunk; when both are present, one column of each class leads
        columns = [[1] + [0] * (r - 1), [0] * (r - 1) + [-2], [2] + [0] * (r - 2) + [1]]
        columns = columns if 0 < k < r else []
        m = data.draw(st.integers(0, 3))
        columns += [data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)) for _ in range(m)]
        M = np.array(columns, dtype=np.int64).reshape(len(columns), r).T
        split = data.draw(st.integers(0, M.shape[1]))
        # the tables cover every product: |(x @ M)_e| <= 3 * r * (lo + width)
        bound = 3 * r * (lo + width)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tables = rng.integers(0, 10, size=(2, 2 * bound + 1))
        parts = [
            (M[:, :split], lambda P: tables[0][P + bound]),
            (M[:, split:], lambda P: tables[1][P + bound]),
        ]
        size = data.draw(st.integers(1, 10 * M.shape[1] + 1))
        total = width**r
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, total))

        # the lowest coordinate varies fastest, so reverse product's tuples
        grid = [p[::-1] for p in itertools.product(range(lo, lo + width), repeat=r)]
        want = []
        for x in grid[start:stop]:
            P = [sum(x[j] * int(M[j, e]) for j in range(r)) for e in range(M.shape[1])]
            code = sum(int(tables[int(e >= split)][p + bound]) for e, p in enumerate(P))
            want.append(min(code, size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coflows, "_CHUNK", chunk)
            chunks = list(coflows._codes(parts, width, size, total, lo, start, stop))
        assert all(0 < len(c) <= chunk for c in chunks)
        got = [int(c) for ch in chunks for c in ch]
        assert got == want

    def test_budget_covers_the_whole_grid(self):
        M = np.ones((3, 2), dtype=np.int64)
        parts = [(M, lambda P: np.zeros(len(P), dtype=np.int64))]
        with pytest.raises(BudgetExceeded):
            next(coflows._codes(parts, 4, 1, 63, start=0, stop=1))


class TestBoxCount:
    @given(st.integers(0, 10**6), st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_point_loop(self, seed, q, data):
        rng = random.Random(seed)
        kind = rng.randrange(3)
        if kind == 0:
            nv = rng.randint(1, 4)
            arcs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randrange(6))]
            om = OrientedMatroid.from_digraph(Digraph.make(nv, arcs))
        elif kind == 1:
            om = u24()
        else:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
            om = OrientedMatroid.from_matrix(rows, tu_mode="assume")
        lo = data.draw(st.integers(0, q - 1))
        hi = data.draw(st.integers(lo - 1, q - 1))
        _, ext, filt = extension_matrix(om)
        want = 0
        for x in itertools.product(range(lo, hi + 1), repeat=ext.shape[1]):
            vals = [int(v) % q for v in ext @ np.array(x, dtype=np.int64).reshape(-1)]
            sums = [] if filt is None else [int(c) % q for c in filt @ np.array(vals)]
            want += all(lo <= v <= hi for v in vals) and not any(sums)
        assert coflows._box_count(ext, filt, q, lo, hi, 10**8) == want


class TestMemo:
    ROUTES = {
        "a_poly": lambda **kw: a_poly(triangle(), **kw),
        "a_even_poly": lambda **kw: a_even_poly(triangle(), **kw),
        "char_pair": lambda **kw: char_pair(triangle(), **kw),
        "even_char_pair": lambda **kw: even_char_pair(triangle(), **kw),
        "t1": lambda **kw: t1(get_pom_fixture("P2"), **kw),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_clear_caches_resets_every_route(self, route):
        call = self.ROUTES[route]
        warm = call()
        # a hit enumerates nothing, so the budget is not consulted
        assert call(budget=1) == warm
        clear_caches()
        with pytest.raises(BudgetExceeded):
            call(budget=1)
        assert call() == warm


def test_memo_is_bounded():
    class Keyed:  # stands in for a matroid: the memo reads only its key
        def __init__(self, key):
            self.key = key

        def canonical_key(self):
            return self.key

    calls = []
    fn = coflows._memoized(lambda om: calls.append(om.key) or om.key)
    clear_caches()
    try:
        for k in range(coflows.MEMO_SIZE + 1):
            assert fn(Keyed(k)) == k
        assert len(coflows._MEMO) <= coflows.MEMO_SIZE
        # the newest entry is still a hit, and the oldest was evicted
        assert fn(Keyed(coflows.MEMO_SIZE)) == coflows.MEMO_SIZE
        assert len(calls) == coflows.MEMO_SIZE + 1
        fn(Keyed(0))
        assert len(calls) == coflows.MEMO_SIZE + 2
    finally:
        clear_caches()
