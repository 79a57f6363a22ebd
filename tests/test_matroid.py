import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omflow.algebra import _eliminate, json_dumps_canonical, mat_from_rows, mat_rank
from omflow.cli import load_input
from omflow.coflows import a_poly, clear_caches, extension_matrix
from omflow.errors import GroundTooLarge, NotABasis, NotTotallyUnimodular
from omflow.fixtures import (
    U24_ROWS,
    corpus_digraph_arcsets,
    corpus_edge_multisets,
    default_corpus,
    get_fixture,
)
from omflow.matroid import (
    Digraph,
    OrientedMatroid,
    SignedSubset,
    _circuits_from_matrix,
    bits_of,
    mask_of,
    reindex_mask,
)
from omflow.tutte import tutte

Q = Fraction


def digon():
    return OrientedMatroid.from_digraph(
        Digraph.make(2, [(0, 1), (1, 0)], ["a", "b"])
    )


def triangle():
    """Directed 3-cycle."""
    return OrientedMatroid.from_digraph(
        Digraph.make(3, [(0, 1), (1, 2), (2, 0)], ["a", "b", "c"])
    )


def u24_assumed():
    rows = [[1, 0, 1, 1], [0, 1, 1, -1]]
    return OrientedMatroid.from_matrix(rows, ["a", "b", "c", "d"], tu_mode="assume")


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


@functools.cache
def corpus_oms() -> list:
    return [om for _, om, _ in default_corpus()]


def minor_rows(rows, n, delete=0, contract=0):
    """The rows of a minor by elimination: eliminate on the contracted
    columns, keep the rows below the pivots, and drop the removed columns."""
    work = [list(row) for row in rows]
    work = work[len(_eliminate(work, sorted(bits_of(contract)))) :]
    kept = [i for i in range(n) if not (delete | contract) >> i & 1]
    new_rows = [[row[i] for i in kept] for row in work]
    if not new_rows:
        new_rows = [[Fraction(0)] * len(kept)]
    return new_rows


def reoriented_rows(rows, smask):
    """The rows of a reorientation: the reoriented columns negated."""
    return [
        [(-x if smask >> j & 1 else x) for j, x in enumerate(row)]
        for row in rows
    ]


def double_from_rows(om) -> OrientedMatroid:
    """Oracle for `OrientedMatroid.double`: enumerate the circuits of the
    rows set beside their negation."""
    rows = [list(row) + [-x for x in row] for row in om.rows]
    labels = list(om.labels) + [lab + "'" for lab in om.labels]
    circuits, _ = _circuits_from_matrix(mat_from_rows(rows), 2 * om.n)
    return OrientedMatroid(labels, om.tu_status, circuits, rows=rows, check_axioms=True)


def stabilizer(m) -> list:
    """Reorientation sets fixing the circuit signature (as bitmasks)."""
    base = set(m.circuits)
    out = []
    for s in range(1 << m.n):
        if {c.reorient(s).canonical() for c in m.circuits} == base:
            out.append(s)
    return out


def circuit_in_fundamental_span(
    om: OrientedMatroid, basis_mask: int, circuit: SignedSubset
) -> bool:
    """Is the circuit the forced integer combination of fundamental circuits?

    The coefficient of the fundamental circuit of a non-basis element a is
    the sign of a in the target circuit; the combination must reproduce the
    target exactly (in one of its two orientations).
    """
    fund = om.fundamental_circuits(basis_mask)

    def vec(ss: SignedSubset):
        return [
            (1 if ss.pos >> i & 1 else -1 if ss.neg >> i & 1 else 0)
            for i in range(om.n)
        ]

    for target in (circuit, -circuit):
        total = [0] * om.n
        for a, fc in fund.items():
            lam = 1 if target.pos >> a & 1 else -1 if target.neg >> a & 1 else 0
            if lam:
                fv = vec(fc)
                total = [t + lam * f for t, f in zip(total, fv)]
        if total == vec(target):
            return True
    return False


def greedy_basis(m, cols):
    """First basis of `cols` in their order, by Fraction rank of the rows."""
    chosen = []
    for c in cols:
        if mat_rank(m.rows, cols=chosen + [c]) > len(chosen):
            chosen.append(c)
    return chosen


class TestSignedSubset:
    def test_canonical_puts_low_bit_positive(self):
        c = SignedSubset(0b100, 0b001)
        assert c.canonical() == SignedSubset(0b001, 0b100)
        assert SignedSubset(0b011, 0).canonical() == SignedSubset(0b011, 0)

    def test_reorient(self):
        c = SignedSubset(0b011, 0b100)
        assert c.reorient(0b110) == SignedSubset(0b101, 0b010)

    def test_reindex(self):
        c = SignedSubset(0b101, 0b010)
        assert c.reindex([0, 2]) == SignedSubset(0b11, 0b00)


class TestConstruction:
    def test_digon_circuit(self):
        m = digon()
        assert m.rank == 1
        assert m.circuits == (SignedSubset(0b11, 0),)
        assert m.opposite_pairs() == [(0, 1)]

    def test_triangle_circuit(self):
        m = triangle()
        assert m.rank == 2
        assert m.circuits == (SignedSubset(0b111, 0),)

    def test_single_arc_is_coloop(self):
        m = OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["a"]))
        assert m.circuits == ()
        assert m.coloops_mask == 0b1
        assert m.loops_mask == 0

    def test_self_loop(self):
        m = OrientedMatroid.from_digraph(Digraph.make(1, [(0, 0)], ["l"]))
        assert m.circuits == (SignedSubset(0b1, 0),)
        assert m.loops_mask == 0b1
        assert m.rank == 0

    def test_u24_circuits_match_sign_table(self):
        m = u24_assumed()
        assert m.tu_status == "not-tu"
        # sign vectors of the four 3-element circuits, rows of the sign table
        want = {
            (0b011, 0b100),  # +a +b -c
            (0b001, 0b1010),  # +a -b -d
            (0b001, 0b1100),  # +a -c -d
            (0b1010, 0b100),  # +b +d -c
        }
        assert {(c.pos, c.neg) for c in m.circuits} == want

    def test_tu_check_rejects_bad_matrix(self):
        with pytest.raises(NotTotallyUnimodular, match="not represent a regular"):
            OrientedMatroid.from_matrix(U24_ROWS)

    def test_ground_cap(self):
        with pytest.raises(GroundTooLarge):
            _circuits_from_matrix(mat_from_rows([[0] * 17]), 17)

    def test_fig_four_arc_circuits(self):
        # 3 vertices, arcs a:0->1, b:1->2, c:0->2, d:2->0
        d = Digraph.make(3, [(0, 1), (1, 2), (0, 2), (2, 0)], ["a", "b", "c", "d"])
        m = OrientedMatroid.from_digraph(d)
        assert m.rank == 2
        got = {(c.pos, c.neg) for c in m.circuits}
        # {c,d} positive, {a,b,-c}, {a,b,d}
        assert got == {(0b1100, 0), (0b0011, 0b0100), (0b1011, 0)}


class TestDual:
    def test_digon_cocircuit(self):
        m = digon()
        d = m.dual()
        assert d.rank == 1
        assert d.circuits == (SignedSubset(0b01, 0b10),)

    def test_dual_involution_circuits(self):
        for m in (triangle(), digon(), u24_assumed()):
            dd = m.dual().dual()
            assert dd.circuits == m.circuits
            assert dd.rank == m.rank

    def test_rank_complement(self):
        for m in (triangle(), digon(), u24_assumed()):
            assert m.dual().rank == m.n - m.rank


class TestMinor:
    def test_triangle_contract(self):
        m = triangle()
        got = m.contract(mask_of([0]))
        assert got.labels == ("b", "c")
        assert got.circuits == (SignedSubset(0b11, 0),)
        assert got.rank == 1

    def test_triangle_delete(self):
        m = triangle()
        got = m.delete(mask_of([0]))
        assert got.circuits == ()
        assert got.rank == 2

    def test_contract_loop_is_delete(self):
        d = Digraph.make(2, [(0, 0), (0, 1)], ["l", "a"])
        m = OrientedMatroid.from_digraph(d)
        got = m.contract(0b01)
        assert got.labels == ("a",)
        assert got.circuits == ()
        assert got.rank == 1

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_minor_circuits_match_matrix_recomputation(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 4)
        na = rng.randint(1, 5)
        arcs = [
            (rng.randrange(nv), rng.randrange(nv)) for _ in range(na)
        ]
        m = OrientedMatroid.from_digraph(Digraph.make(nv, arcs))
        elems = list(range(m.n))
        rng.shuffle(elems)
        k = rng.randint(0, m.n)
        dele = mask_of(elems[: k // 2])
        contr = mask_of(elems[k // 2 : k])
        minor = m.minor(delete=dele, contract=contr)
        rows = mat_from_rows(minor_rows(m.rows, m.n, dele, contr))
        fresh, _ = _circuits_from_matrix(rows, minor.n)
        assert minor.circuits == fresh
        assert minor.rank == m.rank_of(m.full_mask & ~dele) - m.rank_of(contr)


class TestReorient:
    def test_involution(self):
        m = triangle()
        s = 0b101
        assert m.reorient(s).reorient(s).circuits == m.circuits

    def test_reorient_all_preserves_circuit_set(self):
        m = triangle()
        assert m.reorient(m.full_mask).circuits == m.circuits

    def test_classify(self):
        m = triangle()
        assert m.classify().is_totally_cyclic
        rev = m.reorient(0b001)
        cls = rev.classify()
        assert cls.is_acyclic
        assert not cls.is_totally_cyclic


class TestClassifyAndFlats:
    def test_cyclic_flats_examples(self):
        # acyclic orientation: only the empty flat
        m = OrientedMatroid.from_digraph(Digraph.make(2, [(0, 1)], ["a"]))
        assert m.cyclic_flats() == [0]
        assert triangle().cyclic_flats() == [0, 0b111]
        assert digon().cyclic_flats() == [0, 0b11]

    def test_loop_blocks_empty_flat(self):
        d = Digraph.make(2, [(0, 0), (0, 1)], ["l", "a"])
        m = OrientedMatroid.from_digraph(d)
        assert 0 not in m.cyclic_flats()
        assert 0b01 in m.cyclic_flats()


class TestStabilizerDoubling:
    def test_digon_stabilizer(self):
        m = digon()
        assert set(stabilizer(m)) == {0b00, 0b11}

    def test_triangle_stabilizer(self):
        m = triangle()
        assert set(stabilizer(m)) == {0b000, 0b111}

    def test_double_counts(self):
        m = triangle()
        d = m.double()
        assert d.n == 6
        assert d.rank == m.rank
        assert len(d.opposite_pairs()) == 3
        assert d.labels == ("a", "b", "c", "a'", "b'", "c'")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_double_matches_row_oracle(self, data):
        # corpus instances; regular ones through a random minor, reorientation
        # and maybe an extra loop (a derived non-regular matroid has no rows).
        # n <= 7 keeps the doubled ground, loop included, within the cap
        m = data.draw(st.sampled_from([om for om in corpus_oms() if om.n <= 7]))
        if m.tu_status == "true":
            rnd = data.draw(st.randoms(use_true_random=False))
            elems = list(range(m.n))
            rnd.shuffle(elems)
            k = rnd.randint(0, m.n)
            m = m.minor(delete=mask_of(elems[: k // 2]), contract=mask_of(elems[k // 2 : k]))
            m = m.reorient(rnd.getrandbits(m.n))
            if rnd.random() < 0.3:
                m = m.direct_sum(OrientedMatroid.from_digraph(Digraph.make(1, [(0, 0)])))
        got, want = m.double(), double_from_rows(m)
        assert got.labels == want.labels
        assert got.tu_status == want.tu_status
        assert got.canonical_key() == want.canonical_key()

    def test_double_keeps_loops_apart(self):
        m = OrientedMatroid.from_digraph(Digraph.make(2, [(0, 0), (0, 1)], ["l", "a"]))
        d = m.double()
        assert d.loops_mask == 0b0101
        assert d.opposite_pairs() == [(1, 3)]
        assert d.canonical_key() == double_from_rows(m).canonical_key()

    def test_direct_sum(self):
        m = triangle().direct_sum(digon())
        assert m.n == 5
        assert m.rank == 3
        assert len(m.circuits) == 2


class TestEliminate:
    @given(instances, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_pivots_are_greedy_first_basis(self, m, rnd):
        cols = rnd.sample(range(m.n), rnd.randint(0, m.n))
        work = [list(row) for row in m.rows]
        pivots = _eliminate(work, cols)
        assert pivots == greedy_basis(m, cols)
        # row i is the unit vector of pivot i on the pivots, rows below are 0
        # on cols, and the row space is unchanged
        for i, row in enumerate(work):
            for j, p in enumerate(pivots):
                assert row[p] == (i == j)
            if i >= len(pivots):
                assert not any(row[c] for c in cols)
        both = work + [list(row) for row in m.rows]
        assert len(_eliminate(work)) == len(_eliminate(both)) == m.rank

    @given(instances)
    @settings(max_examples=40, deadline=None)
    def test_lex_basis_is_greedy(self, m):
        b = m.lex_basis_mask()
        assert b == mask_of(greedy_basis(m, range(m.n)))
        assert b.bit_count() == m.rank == m.rank_of(b)

    @given(instances, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_contraction_rank(self, m, rnd):
        contract = mask_of(rnd.sample(range(m.n), rnd.randint(0, m.n)))
        minor = m.contract(contract)
        kept = [i for i in range(m.n) if not contract >> i & 1]
        rc = m.rank_of(contract)
        for s in range(1 << m.n):
            if not s & contract:
                want = m.rank_of(s | contract) - rc
                assert minor.rank_of(reindex_mask(s, kept)) == want


class TestFundamentalCircuits:
    def test_solve(self):
        # columns c = a + b and d = a - b
        m = u24_assumed()
        assert m.fundamental_circuits(0b0011) == {
            2: SignedSubset(0b0100, 0b0011),
            3: SignedSubset(0b1010, 0b0001),
        }

    def test_coefficients_reject_non_basis(self):
        m = u24_assumed()
        for mask in (0b0001, 0b0111, 0):
            with pytest.raises(NotABasis):
                m.fundamental_circuits(mask)

    def test_basis_and_circuits(self):
        m = triangle()
        b = m.lex_basis_mask()
        assert b == 0b011
        fund = m.fundamental_circuits(b)
        assert set(fund) == {2}
        c = fund[2]
        assert c.pos >> 2 & 1  # the defining element sits on the positive side
        assert c.canonical() in m.circuits

    def test_not_a_basis(self):
        m = digon()
        with pytest.raises(NotABasis):
            m.fundamental_circuits(0b11)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_every_circuit_in_fundamental_span(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 4)
        na = rng.randint(1, 5)
        arcs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(na)]
        m = OrientedMatroid.from_digraph(Digraph.make(nv, arcs))
        b = m.lex_basis_mask()
        for c in m.circuits:
            assert circuit_in_fundamental_span(m, b, c)

    def test_unimodular_coefficients(self):
        for m in (triangle(), digon()):
            work = [list(row) for row in m.rows]
            pivots = _eliminate(work)
            assert mask_of(pivots) == m.lex_basis_mask()
            for row in work[: len(pivots)]:
                assert all(v in (-1, 0, 1) for v in row)


class TestCircuitOracle:
    """Rank, lex basis, fundamental circuits and flats, read off the circuit
    list, agree with Fraction elimination on the rows."""

    @given(instances, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_circuits_answer_like_elimination(self, m, rnd):
        elems = list(range(m.n))
        rnd.shuffle(elems)
        k = rnd.randint(0, m.n)
        dele, contr = mask_of(elems[: k // 2]), mask_of(elems[k // 2 : k])
        derived = m.minor(delete=dele, contract=contr)
        flip = rnd.getrandbits(derived.n)
        derived = derived.reorient(flip)
        derived_rows = reoriented_rows(minor_rows(m.rows, m.n, dele, contr), flip)
        for om, rows in ((m, m.rows), (derived, mat_from_rows(derived_rows))):
            subsets = range(1 << om.n)
            ranks = [mat_rank(rows, cols=sorted(bits_of(s))) for s in subsets]
            assert [om.rank_of(s) for s in subsets] == ranks
            assert om.rank == ranks[-1]

            work = [list(row) for row in rows]
            pivots = _eliminate(work)
            b = om.lex_basis_mask()
            assert b == mask_of(pivots)
            want = {}
            for a in range(om.n):
                if not b >> a & 1:
                    # column a = sum of work[i][a] * column pivots[i]
                    pos, neg = 1 << a, 0
                    for i, p in enumerate(pivots):
                        if work[i][a] > 0:
                            neg |= 1 << p
                        elif work[i][a] < 0:
                            pos |= 1 << p
                    want[a] = SignedSubset(pos, neg)
            assert list(om.fundamental_circuits(b).items()) == list(want.items())

            for s in subsets:
                closed = all(
                    ranks[s | 1 << a] > ranks[s] for a in range(om.n) if not s >> a & 1
                )
                assert om.is_flat(s) == closed


class TestDerivedRows:
    """A minor, reorientation or direct sum reads its rows off its circuits."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_standard_representation(self, data):
        m = data.draw(st.sampled_from(corpus_oms()))
        rnd = data.draw(st.randoms(use_true_random=False))
        elems = list(range(m.n))
        rnd.shuffle(elems)
        k = rnd.randint(0, m.n)
        derived = m.minor(delete=mask_of(elems[: k // 2]), contract=mask_of(elems[k // 2 : k]))
        derived = derived.reorient(rnd.getrandbits(derived.n))
        if rnd.random() < 0.3:
            derived = derived.direct_sum(digon())
        if derived.tu_status != "true":
            with pytest.raises(NotTotallyUnimodular):
                derived.rows
        else:
            assert _circuits_from_matrix(derived.rows, derived.n) == (derived.circuits, True)
            ext = extension_matrix(derived)[1]
            assert ext.T.tolist() == [list(row) for row in derived.rows]
        # a minor of a non-regular input kept under "assume" has no rows
        with pytest.raises(NotTotallyUnimodular):
            u24_assumed().contract(0b1).rows


class TestDigraph:
    def test_components(self):
        d = Digraph.make(5, [(0, 1), (2, 3)])
        assert d.components() == 3  # {0,1}, {2,3}, {4}

    def test_json_roundtrip(self, tmp_path):
        d = Digraph.make(3, [(0, 1), (1, 2)], ["x", "y"])
        f = tmp_path / "d.json"
        f.write_text(json_dumps_canonical(d.to_json_obj()))
        kind, om, loaded = load_input(str(f))
        assert kind == "om" and loaded == d
        assert om.circuits == OrientedMatroid.from_digraph(d).circuits

    def test_matrix_json(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('{"rows": [[1, "1/2"], [0, -1]], "labels": ["a", "b"]}')
        kind, om, d = load_input(str(f))
        assert (kind, d) == ("om", None)
        assert om.labels == ("a", "b")
        assert om.rows[0][1] == Q(1, 2)
        assert om.tu_status == "true"


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def is_tu_brute_force(rows) -> bool:
    """Is every square subdeterminant of `rows` in {-1, 0, 1}?"""
    nr, nc = len(rows), len(rows[0])
    for k in range(1, min(nr, nc) + 1):
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                if _det([[rows[i][j] for j in cs] for i in rs]) not in (-1, 0, 1):
                    return False
    return True


def invertible(rng, k):
    """A random invertible k x k integer matrix with entries in -3..3."""
    while True:
        g = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if mat_rank(mat_from_rows(g)) == k:
            return g


def times(g, rows):
    cols = list(zip(*rows))
    return [[sum(a * b for a, b in zip(grow, col)) for col in cols] for grow in g]


# random digraph incidence matrices (labels, rows), plus R10
matrices = st.one_of(
    st.integers(0, 10**6).map(random_digraph_om),
    st.just(NAMED["R10"]),
).map(lambda om: (om.labels, [list(row) for row in om.rows]))


class TestRegularity:
    """The circuit enumeration is the regularity certificate."""

    def test_tu_examples(self):
        # matrices a subdeterminant scan refused, next to plain TU ones: a
        # non-TU signing of two coloops, entries outside {0, +-1}, and a 7x7
        # identity, all with circuits that rescale to {-1, 0, 1}
        for rows in (
            [[1, 0], [0, 1]],
            [[1, 1], [-1, 1]],
            [[2]],
            [[1, "1/2"], [0, -1]],
            [[1 if i == j else 0 for j in range(7)] for i in range(7)],
        ):
            assert OrientedMatroid.from_matrix(rows).tu_status == "true"

    def test_digraph_incidence_is_tu(self):
        # incidence matrix of a 3-cycle plus a chord
        rows = [[-1, 0, -1, 1], [1, -1, 0, 0], [0, 1, 1, -1]]
        assert OrientedMatroid.from_matrix(rows).tu_status == "true"
        d = Digraph.make(3, [(0, 1), (1, 2), (0, 2), (2, 0)])
        assert mat_from_rows(rows) == d.incidence_rows()
        assert OrientedMatroid.from_digraph(d).tu_status == "true"

    def test_non_regular_kept_only_when_assumed(self):
        with pytest.raises(NotTotallyUnimodular):
            OrientedMatroid.from_matrix([[1, 2]])
        assert u24_assumed().tu_status == "not-tu"
        ok = OrientedMatroid.from_matrix([[1, 1]])
        assert ok.direct_sum(ok).tu_status == "true"
        assert ok.direct_sum(u24_assumed()).tu_status == "not-tu"

    @given(
        st.integers(1, 4).flatmap(
            lambda nr: st.integers(1, 6).flatmap(
                lambda nc: st.lists(
                    st.lists(st.sampled_from((0, 0, 1, -1)), min_size=nc, max_size=nc),
                    min_size=nr,
                    max_size=nr,
                )
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_every_tu_matrix_passes(self, rows):
        if is_tu_brute_force(rows):
            assert OrientedMatroid.from_matrix(rows).tu_status == "true"

    @given(matrices, st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_invertible_row_transform_keeps_everything(self, instance, seed):
        labels, rows = instance
        moved = times(invertible(random.Random(seed), len(rows)), rows)

        def build(rows):
            clear_caches()
            om = OrientedMatroid.from_matrix(rows, labels)
            dual = om.dual()
            return (
                om.tu_status,
                om.circuits,
                dual.rows,
                dual.circuits,
                json_dumps_canonical(a_poly(om).to_json_obj()),
                json_dumps_canonical(tutte(om).to_json_obj()),
            )

        want = build(rows)
        assert want[0] == "true"
        assert build(moved) == want


# -- corpus classes ------------------------------------------------------------


def _classes_by_brute_force(max_vertices, max_arcs, directed):
    """Canonicalize every multiset on its own (least image over all vertex
    permutations) and keep each canonical form where it first appears."""
    out = []
    for nv in range(1, max_vertices + 1):
        types = [(u, v) for u in range(nv) for v in range(nv) if directed or u <= v]
        for k in range(1, max_arcs + 1):
            for arcs in itertools.combinations_with_replacement(types, k):
                if len({x for arc in arcs for x in arc}) != nv:
                    continue
                canon = min(
                    tuple(sorted(
                        (perm[u], perm[v]) if directed else tuple(sorted((perm[u], perm[v])))
                        for u, v in arcs
                    ))
                    for perm in itertools.permutations(range(nv))
                )
                if (nv, canon) not in out:
                    out.append((nv, canon))
    return tuple(out)


@pytest.mark.parametrize("caps", [(1, 1), (2, 2), (3, 3), (4, 3), (3, 4)])
def test_corpus_classes_match_brute_force_canonicalization(caps):
    # the walk records each orbit's images instead of canonicalizing every
    # multiset; it must find the same classes, in the same order
    arcsets = ((0, ()), (1, ())) + _classes_by_brute_force(*caps, directed=True)
    assert corpus_digraph_arcsets(*caps) == arcsets
    assert corpus_edge_multisets(*caps) == _classes_by_brute_force(*caps, directed=False)
