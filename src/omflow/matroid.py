"""Oriented matroids of regular matrices and digraphs.

A matrix is regular when every circuit's kernel vector rescales to
{-1, 0, 1}: by Tutte's theorem on regular chain groups its kernel is then
that of a totally unimodular matrix, so the circuit enumeration that builds
every oriented matroid is also its regularity certificate.  Elements are
matrix columns (or digraph arcs), indexed 0..n-1 and carried around as
bitmasks.  A signed circuit is a pair of disjoint bitmasks
(pos, neg); the stored circuit list keeps one representative per opposite
pair {C, -C}, namely the one whose lowest support element is on the
positive side, sorted for determinism.

Rows are the input format.  `from_matrix`, `from_digraph` and `dual`
enumerate circuits from a matrix and keep it; a minor, a reorientation, a
direct sum or a double is its circuits alone, read off its parent's.
Every rank, basis and flat question is answered from the full circuit list,
for any matroid (Oxley, *Matroid Theory*):

- a greedy pass over S in index order rejects e exactly when some circuit
  C inside S has max(C) = e, so r(S) = |S| minus the number of such tops;
- for e outside F, e lies in cl(F) exactly when some circuit C has
  C minus F = {e}.

The `rows` of a derived matroid are its standard representation [I | A] on
the lex basis B, built on first read: A[b, a] is minus the sign of b in the
fundamental circuit of a, oriented with a positive.  This is exact for a
matroid certified regular.  Such a matroid has a representation D whose
circuits' kernel vectors all rescale to {-1, 0, 1}: its input's certified
matrix, eliminated on the contracted columns, restricted, column-negated,
put block-diagonal or set beside its negation.  Its circuits' kernel vectors
are the parent's, restricted, with some entries negated or moved to the
negated copy.  Row-reducing D onto B gives [I | A'] with the same row
space, so the same signed circuits; the kernel vector of the fundamental
circuit of a is 1 at a and -A'[., a] on B, and it rescales to {-1, 0, 1}
with a positive, so it is the circuit's sign vector and A' = A.
A derived matroid without the certificate raises NotTotallyUnimodular
instead, as [I | A] need not represent it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import _eliminate, column_analysis, mat_from_rows, mat_rank
from .errors import GroundTooLarge, NotABasis, NotTotallyUnimodular

CIRCUIT_GROUND_CAP = 16


def bits_of(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def reindex_mask(mask: int, kept: list) -> int:
    """Rewrite a bitmask after dropping elements; `kept` lists old indices."""
    out = 0
    for new, old in enumerate(kept):
        if mask >> old & 1:
            out |= 1 << new
    return out


@dataclass(frozen=True)
class SignedSubset:
    """Disjoint (pos, neg) bitmask pair."""

    pos: int
    neg: int

    @property
    def support(self) -> int:
        return self.pos | self.neg

    def __neg__(self) -> "SignedSubset":
        return SignedSubset(self.neg, self.pos)

    def canonical(self) -> "SignedSubset":
        s = self.support
        if not s:
            return self
        low = s & -s
        return self if self.pos & low else -self

    def reorient(self, smask: int) -> "SignedSubset":
        moved_to_neg = self.pos & smask
        moved_to_pos = self.neg & smask
        return SignedSubset(
            (self.pos & ~smask) | moved_to_pos, (self.neg & ~smask) | moved_to_neg
        )

    def drop(self, drop_mask: int) -> "SignedSubset":
        return SignedSubset(self.pos & ~drop_mask, self.neg & ~drop_mask)

    def reindex(self, kept: list) -> "SignedSubset":
        return SignedSubset(reindex_mask(self.pos, kept), reindex_mask(self.neg, kept))

    def is_positive(self) -> bool:
        return self.neg == 0


def _check_axioms(circuits, n: int) -> None:
    seen = {}
    for c in circuits:
        if not c.support:
            raise ValueError("empty circuit")
        if c.pos & c.neg:
            raise ValueError("overlapping signs")
        low = c.support & -c.support
        if not c.pos & low:
            raise ValueError("circuit not in canonical orientation")
        if c.support in seen and seen[c.support] != c:
            raise ValueError("two distinct circuits share a support")
        seen[c.support] = c
    supports = sorted(seen)
    for i, s in enumerate(supports):
        for t in supports[i + 1 :]:
            if s & t == s and s != t:
                raise ValueError("circuit support strictly contains another")


def _circuits_from_matrix(rows, n: int):
    """(signed circuits, whether every circuit's kernel rescales to {-1,0,1})."""
    if n > CIRCUIT_GROUND_CAP:
        raise GroundTooLarge(
            f"{n} elements exceeds the circuit enumeration cap {CIRCUIT_GROUND_CAP}"
        )
    rank = mat_rank(rows)
    supports: list[int] = []
    out: list[SignedSubset] = []
    unit = True
    for size in range(1, min(rank + 1, n) + 1):
        for cols in itertools.combinations(range(n), size):
            m = mask_of(cols)
            if any(s & m == s for s in supports):
                continue
            _, ker = column_analysis(rows, cols)
            if ker is None:
                continue
            unit = unit and _kernel_rescales_to_unit(ker)
            pos = neg = 0
            for c, v in zip(cols, ker):
                if v > 0:
                    pos |= 1 << c
                elif v < 0:
                    neg |= 1 << c
            out.append(SignedSubset(pos, neg).canonical())
            supports.append(m)
    out.sort(key=lambda c: (c.support, c.pos))
    return tuple(out), unit


def _kernel_rescales_to_unit(ker) -> bool:
    """Does some scalar multiple of `ker` land in {-1, 0, 1}^n?"""
    nonzero = [abs(x) for x in ker if x]
    if not nonzero:
        return True
    lead = nonzero[0]
    return all(x == lead for x in nonzero)


def _sorted_circuits(circuits) -> tuple:
    """The stored order: by support, then by positive side."""
    return tuple(sorted(circuits, key=lambda c: (c.support, c.pos)))


def positive_union(circuits, flip: int = 0) -> int:
    """Union of the supports of the circuits that are positive, up to sign,
    after reorienting the element set `flip`; empty exactly when that
    reorientation is acyclic."""
    union = 0
    for c in circuits:
        pos, neg = c.pos, c.neg
        if not (neg & ~flip or pos & flip) or not (pos & ~flip or neg & flip):
            union |= pos | neg
    return union


@dataclass(frozen=True)
class Classification:
    cyclic_mask: int
    acyclic_mask: int
    is_acyclic: bool
    is_totally_cyclic: bool


class OrientedMatroid:
    """Column oriented matroid of an exact rational matrix."""

    __slots__ = (
        "labels",
        "tu_status",
        "circuits",
        "_rows",
        "_dual",
    )

    def __init__(self, labels, tu_status, circuits, rows=None, check_axioms=False):
        self.labels = tuple(labels)
        self.tu_status = tu_status
        self.circuits = tuple(circuits)
        if check_axioms and self.n <= 12:
            _check_axioms(self.circuits, self.n)
        self._rows = None if rows is None else mat_from_rows(rows)
        self._dual = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_matrix(
        cls, rows, labels=None, tu_mode: str = "check"
    ) -> "OrientedMatroid":
        """Oriented matroid of the columns of `rows`.

        The circuit enumeration certifies regularity: `tu_status` is "true"
        when every circuit's kernel vector rescales to {-1, 0, 1}, else
        "not-tu".  tu_mode="check" refuses a matrix that fails the
        certificate with NotTotallyUnimodular; "assume" keeps it as "not-tu".
        """
        rows = mat_from_rows(rows)
        n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise ValueError("matrix rows differ in length")
        if labels is None:
            labels = [f"e{i}" for i in range(n)]
        if len(labels) != n:
            raise ValueError("label count does not match column count")
        if tu_mode not in ("check", "assume"):
            raise ValueError(f"unknown tu_mode {tu_mode!r}")
        circuits, unit = _circuits_from_matrix(rows, n)
        if not unit and tu_mode == "check":
            raise NotTotallyUnimodular(
                "matrix does not represent a regular oriented matroid: a circuit's "
                "kernel vector does not rescale to {-1,0,1}; pass tu_mode='assume' "
                "(--assume-tu) to keep it anyway"
            )
        status = "true" if unit else "not-tu"
        return cls(labels, status, circuits, rows=rows, check_axioms=True)

    @classmethod
    def from_digraph(cls, d: "Digraph") -> "OrientedMatroid":
        return cls.from_matrix(d.incidence_rows(), d.labels)

    # -- basics ----------------------------------------------------------------

    @property
    def rows(self) -> tuple:
        """The matrix this matroid was built from; for a minor, reorientation,
        direct sum or double, its standard representation (module docstring)."""
        if self._rows is None:
            if self.tu_status != "true":
                raise NotTotallyUnimodular(
                    "a minor, reorientation or direct sum of a non-regular input has no rows"
                )
            self._rows = mat_from_rows(self.standard_representation()[1])
        return self._rows

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def rank(self) -> int:
        return self.rank_of(self.full_mask)

    def rank_of(self, mask: int) -> int:
        return mask.bit_count() - self._circuit_tops(mask).bit_count()

    def _circuit_tops(self, mask: int) -> int:
        """Bitmask of max(C) over the circuits C inside `mask`: the elements
        a greedy pass over `mask` in index order rejects."""
        tops = 0
        for c in self.circuits:
            s = c.support
            if not s & ~mask:
                tops |= 1 << (s.bit_length() - 1)
        return tops

    @property
    def loops_mask(self) -> int:
        m = 0
        for c in self.circuits:
            if c.support.bit_count() == 1:
                m |= c.support
        return m

    @property
    def coloops_mask(self) -> int:
        covered = 0
        for c in self.circuits:
            covered |= c.support
        return self.full_mask & ~covered

    def opposite_pairs(self) -> list:
        """Element pairs {a, b} whose doubleton is a positive circuit."""
        out = []
        for c in self.circuits:
            if c.support.bit_count() == 2 and c.is_positive():
                i, j = sorted(bits_of(c.support))
                out.append((i, j))
        return out

    def canonical_key(self) -> tuple:
        return (self.n, tuple((c.pos, c.neg) for c in self.circuits))

    def reoriented_key(self, smask: int) -> tuple:
        """`self.reorient(smask).canonical_key()`, without building the
        reorientation: every circuit flipped on `smask`, signed so that its
        lowest element is positive, in the stored order."""
        out = []
        for c in self.circuits:
            s = c.pos | c.neg
            pos, neg = c.pos ^ (s & smask), c.neg ^ (s & smask)
            out.append((s, pos, neg) if pos & s & -s else (s, neg, pos))
        out.sort()
        return (self.n, tuple((pos, neg) for _, pos, neg in out))

    # -- fundamental circuits --------------------------------------------------

    def lex_basis_mask(self) -> int:
        """Lexicographically first basis: the elements that top no circuit."""
        full = self.full_mask
        return full & ~self._circuit_tops(full)

    def fundamental_circuits(self, basis_mask: int) -> dict:
        """Map each non-basis element a, in index order, to its circuit
        inside basis+a: the one circuit with exactly a outside the basis.

        The returned circuits place `a` on the positive side (not the stored
        canonical orientation).  NotABasis unless the mask is a basis.
        """
        if not basis_mask.bit_count() == self.rank_of(basis_mask) == self.rank:
            raise NotABasis(f"columns {list(bits_of(basis_mask))} do not form a basis")
        out = {}
        for c in self.circuits:
            rest = c.support & ~basis_mask
            if rest & (rest - 1) == 0:
                out[rest.bit_length() - 1] = c if c.pos & rest else -c
        return dict(sorted(out.items()))

    def standard_representation(self) -> tuple:
        """(lex basis B, the rows of [I | A] on B as int lists): A[b, a] is
        minus the sign of b in the fundamental circuit of a, a positive."""
        basis = self.lex_basis_mask()
        bcols = sorted(bits_of(basis))
        rows = [[int(a == b) for a in range(self.n)] for b in bcols]
        for a, c in self.fundamental_circuits(basis).items():
            for row, b in zip(rows, bcols):
                row[a] = (c.neg >> b & 1) - (c.pos >> b & 1)
        return bcols, rows

    # -- duality ----------------------------------------------------------------

    def dual(self) -> "OrientedMatroid":
        if self._dual is not None:
            return self._dual
        n = self.n
        # row-reduce onto the lexicographically first basis
        work = [list(row) for row in self.rows]
        pivots = _eliminate(work)
        nonbasis = [c for c in range(n) if c not in pivots]
        dual_rows = []
        for j in nonbasis:
            row = [Fraction(0)] * n
            row[j] = Fraction(1)
            for i, b in enumerate(pivots):
                row[b] = -work[i][j]
            dual_rows.append(row)
        circuits, _ = _circuits_from_matrix(mat_from_rows(dual_rows), n)
        dual_om = OrientedMatroid(
            self.labels, self.tu_status, circuits, rows=dual_rows, check_axioms=True
        )
        dual_om._dual = self
        if self.n <= 10:
            _check_orthogonality(self.circuits, dual_om.circuits)
        self._dual = dual_om
        return dual_om

    def cocircuits(self) -> tuple:
        return self.dual().circuits

    # -- minors ------------------------------------------------------------------

    def minor(self, delete: int = 0, contract: int = 0) -> "OrientedMatroid":
        """Delete and contract disjoint element sets.

        The circuits are the support-minimal nonempty C minus `contract` over
        the parent's circuits C that avoid `delete`, so no rows are read and
        no fresh enumeration happens; a contracted loop leaves nothing
        behind, so contracting it equals deleting it.
        """
        if delete & contract:
            raise ValueError("delete and contract sets overlap")
        kept = [i for i in range(self.n) if not (delete | contract) >> i & 1]
        new_labels = [self.labels[i] for i in kept]

        # circuit rule: restrict away deletions, truncate by contractions,
        # keep the support-minimal results
        cand = sorted(
            (c.drop(contract) for c in self.circuits if not c.support & delete),
            key=lambda c: c.support.bit_count(),
        )
        chosen: list[SignedSubset] = []
        supports: list[int] = []
        for x in cand:
            if x.support and not any(s & x.support == s for s in supports):
                chosen.append(x.canonical().reindex(kept))
                supports.append(x.support)
        circuits = _sorted_circuits(chosen)
        return OrientedMatroid(new_labels, self.tu_status, circuits)

    def delete(self, mask: int) -> "OrientedMatroid":
        return self.minor(delete=mask)

    def contract(self, mask: int) -> "OrientedMatroid":
        return self.minor(contract=mask)

    # -- reorientation --------------------------------------------------------

    def reorient(self, smask: int) -> "OrientedMatroid":
        circuits = (SignedSubset(pos, neg) for pos, neg in self.reoriented_key(smask)[1])
        return OrientedMatroid(self.labels, self.tu_status, circuits)

    def classify(self) -> Classification:
        cyc = positive_union(self.circuits)
        return Classification(
            cyclic_mask=cyc,
            acyclic_mask=self.full_mask & ~cyc,
            is_acyclic=cyc == 0,
            is_totally_cyclic=cyc == self.full_mask,
        )

    # -- doubling and sums -------------------------------------------------------

    def double(self) -> "OrientedMatroid":
        """Adjoin a negated copy e' of every element e.

        The circuits are the positive pairs {e, e'} of the non-loops, and
        every circuit with any subset of its elements swapped for their
        copies, whose signs flip; no rows are read.
        """
        n, loops = self.n, self.loops_mask
        labels = list(self.labels) + [lab + "'" for lab in self.labels]
        circuits = [SignedSubset(1 << e | 1 << (e + n), 0)
                    for e in range(n) if not loops >> e & 1]
        for c in self.circuits:
            swap = c.support
            while True:
                moved = SignedSubset((c.pos & ~swap) | (c.neg & swap) << n,
                                     (c.neg & ~swap) | (c.pos & swap) << n)
                circuits.append(moved.canonical())
                if not swap:
                    break
                swap = (swap - 1) & c.support
        return OrientedMatroid(labels, self.tu_status, _sorted_circuits(circuits))

    def direct_sum(self, other: "OrientedMatroid") -> "OrientedMatroid":
        labels = list(self.labels) + list(other.labels)
        if len(set(labels)) != len(labels):
            labels = [f"L.{x}" for x in self.labels] + [f"R.{x}" for x in other.labels]
        shifted = [SignedSubset(c.pos << self.n, c.neg << self.n) for c in other.circuits]
        circuits = _sorted_circuits(list(self.circuits) + shifted)
        both = self.tu_status == other.tu_status == "true"
        status = "true" if both else "not-tu"
        return OrientedMatroid(labels, status, circuits)

    # -- flats ---------------------------------------------------------------------

    def is_flat(self, mask: int) -> bool:
        """No circuit has exactly one element outside `mask`."""
        for c in self.circuits:
            rest = c.support & ~mask
            if rest and not rest & (rest - 1):
                return False
        return True

    def cyclic_flats(self) -> list:
        """Flats whose restriction is totally cyclic, as sorted bitmasks."""
        pos_circ = [c.support for c in self.circuits if c.is_positive()]
        out = []
        for mask in range(1 << self.n):
            cov = 0
            for s in pos_circ:
                if s & ~mask == 0:
                    cov |= s
            if cov != mask:
                continue
            if self.is_flat(mask):
                out.append(mask)
        return sorted(out)

    def __repr__(self):
        return (
            f"OrientedMatroid(n={self.n}, rank={self.rank}, "
            f"tu={self.tu_status}, circuits={len(self.circuits)})"
        )


def _check_orthogonality(circuits, cocircuits) -> None:
    for c in circuits:
        for d in cocircuits:
            if not c.support & d.support:
                continue
            agree = (c.pos & d.pos) | (c.neg & d.neg)
            clash = (c.pos & d.neg) | (c.neg & d.pos)
            if not (agree and clash):
                raise ValueError(
                    f"circuit {c} and cocircuit {d} are not sign-orthogonal"
                )


# ---------------------------------------------------------------------------
# digraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digraph:
    vertices: int
    arcs: tuple  # ((u, v), ...)
    labels: tuple

    @classmethod
    def make(cls, vertices: int, arcs, labels=None) -> "Digraph":
        if vertices < 0:
            raise ValueError(f"vertex count {vertices} is negative")
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        for u, v in arcs:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"arc ({u},{v}) outside vertex range")
        if labels is None:
            labels = tuple(f"e{i}" for i in range(len(arcs)))
        else:
            labels = tuple(str(x) for x in labels)
        if len(labels) != len(arcs):
            raise ValueError("label count does not match arc count")
        return cls(vertices, arcs, labels)

    def incidence_rows(self):
        rows = [[Fraction(0)] * len(self.arcs) for _ in range(self.vertices)]
        for j, (u, v) in enumerate(self.arcs):
            if u != v:
                rows[u][j] -= 1
                rows[v][j] += 1
        return mat_from_rows(rows)

    def components(self) -> int:
        parent = list(range(self.vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.arcs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in range(self.vertices)})

    def to_json_obj(self) -> dict:
        return {
            "vertices": self.vertices,
            "arcs": [[u, v] for u, v in self.arcs],
            "labels": list(self.labels),
        }
