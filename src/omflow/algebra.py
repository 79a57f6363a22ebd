"""Exact polynomial and linear algebra over the rationals.

Everything in this module is exact: matrices are tuples of tuples of
Fractions, and GF(2) vectors are plain ints used as bitmasks.  No floats
anywhere.

The central object is :class:`Poly`, a sparse polynomial in a fixed, named
tuple of variables, stored as integer numerators over one positive common
denominator in lowest terms.  Every `Poly` operation is integer arithmetic;
`Fraction` appears only at the edges: coefficients given to the constructor,
`eval_frac`, and `to_json_obj`, which prints each coefficient reduced.  The
coefficients counting produces have denominators dividing 2^r r! (A-values
interpolated at odd q), so the numerators stay small.  `poly_sum` adds many
polynomials into one dict.  Exponents are allowed to go negative
*internally* (a few intermediate results are honest Laurent polynomials);
serialization refuses negative exponents, so anything that escapes the
package is a genuine polynomial.

:meth:`Poly.compose` is the one substitution of polynomials into a
polynomial; homogenization, the Tutte/Potts expansions, t1/t2 and the duality
checks are all changes of variables through it.  A single-term image (a
scalar, a variable, a monomial) only scales and shifts each term; the terms
are grouped by the exponents of the other images, and each group is
multiplied by the product of those images' powers.

`_PRODUCTS` holds the powers, and the products of powers, of the integer
numerators of the images that `compose` has been given.  The same few images
(1 + y, y - 1, 1 + y + z, ...) recur for every instance, so most groups find
their product there.  It is bounded by a constant: it forgets its oldest
entry first once it holds `PRODUCT_CACHE_SIZE`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DegreeExceedsHomogenizer, NonPolynomialResult

def as_frac(x) -> Fraction:
    """Coerce ints, Fractions, and strings like '-3/7' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _num_den(x) -> tuple:
    """(numerator, positive denominator) of an int, Fraction or string."""
    if type(x) is int:
        return x, 1
    x = as_frac(x)
    return x.numerator, x.denominator


def _lcm_den(values) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return math.lcm(*(c.denominator for c in values))


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two {exponents: int} dicts, zeros dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# products of powers of `compose` images, keyed by (image, k) for one power
# and by (images, exponents) for a product; first in, first out
PRODUCT_CACHE_SIZE = 1024
_PRODUCTS: dict = {}


def _remember(key, value: dict) -> dict:
    if len(_PRODUCTS) >= PRODUCT_CACHE_SIZE:
        del _PRODUCTS[next(iter(_PRODUCTS))]
    _PRODUCTS[key] = value
    return value


def _power(image: tuple, k: int) -> dict:
    """Terms of image**k, k >= 1, for an image given as sorted integer terms;
    every power on the way is cached."""
    base = hit = dict(image)
    for j in range(1, k + 1):
        cached = _PRODUCTS.get((image, j))
        if cached is None:
            cached = _remember((image, j), hit if j == 1 else _mul_terms(hit, base))
        hit = cached
    return hit


def _product(images: tuple, key: tuple) -> dict:
    """Terms of the product of images[i]**key[i], some key[i] nonzero."""
    hit = _PRODUCTS.get((images, key))
    if hit is None:
        for image, k in zip(images, key):
            if k:
                p = _power(image, k)
                hit = p if hit is None else _mul_terms(hit, p)
        hit = _remember((images, key), hit)
    return hit


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Sparse polynomial with named variables and rational coefficients.

    The coefficients are integer numerators over one positive denominator
    `den`: `numerators()` maps exponent tuples (one entry per variable) to
    nonzero ints, and the coefficient of a term is its numerator / `den`.
    `den` and the numerators have no common factor, and the zero
    polynomial has `den` 1, so equal polynomials are stored alike.
    Instances are immutable in spirit; nothing mutates the numerators
    after construction.
    """

    __slots__ = ("vars", "_nums", "den")

    def __init__(self, vars: tuple[str, ...], terms: dict | None = None, den: int = 1):
        """`terms` maps exponents to ints, Fractions or strings like '-3/7';
        each coefficient is that value over `den`, a nonzero int."""
        vars, terms = tuple(vars), terms or {}
        if not {int}.issuperset(map(type, terms.values())):
            fracs = {e: as_frac(c) for e, c in terms.items()}
            d = _lcm_den(fracs.values())
            terms = {e: c.numerator * (d // c.denominator) for e, c in fracs.items()}
            den *= d
        if any(len(e) != len(vars) for e, c in terms.items() if c):
            raise ValueError("exponent arity mismatch")
        sign = -1 if den < 0 else 1
        p = Poly._of(vars, {tuple(e): sign * c for e, c in terms.items() if c}, sign * den)
        self.vars, self._nums, self.den = p.vars, p._nums, p.den

    @classmethod
    def _of(cls, vars: tuple, nums: dict, den: int = 1) -> "Poly":
        """Wrap exponent tuples of the right length mapped to nonzero ints,
        over a positive `den`, dividing out their common factor (all of `den`
        when there are none, so zero gets den 1)."""
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums, den = {e: c // g for e, c in nums.items()}, den // g
        p = cls.__new__(cls)
        p.vars, p._nums, p.den = vars, nums, den
        return p

    def numerators(self) -> dict:
        """{exponents: integer numerator}; each coefficient is its numerator
        over `den`.  Read-only."""
        return self._nums

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, vars, c) -> "Poly":
        num, den = _num_den(c)
        return cls._of(tuple(vars), {(0,) * len(vars): num} if num else {}, den)

    @classmethod
    def variable(cls, vars, name) -> "Poly":
        exp = [0] * len(vars)
        exp[tuple(vars).index(name)] = 1
        return cls._of(tuple(vars), {tuple(exp): 1})

    @classmethod
    def monomial(cls, vars, exp, c=1) -> "Poly":
        return cls(vars, {tuple(exp): c})

    @classmethod
    def gather(cls, vars, pairs, den: int = 1) -> "Poly":
        """The Poly whose numerator at each exponent tuple is the sum of the
        ints paired with it in `pairs`, over `den`."""
        out: dict = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + c
        return cls(vars, out, den)

    # -- basics ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.vars, self.den, self._nums) == (other.vars, other.den, other._nums)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self._nums.items())))

    def _same(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other) -> "Poly":
        other = self._same(other)
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        out = {e: c * f for e, c in self._nums.items()}
        for exp, c in other._nums.items():
            out[exp] = out.get(exp, 0) + c * g
        return Poly._of(self.vars, {e: c for e, c in out.items() if c}, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.vars, {e: -c for e, c in self._nums.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-self._same(other))

    def __rsub__(self, other) -> "Poly":
        return self._same(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            num, den = _num_den(other)
            nums = {e: c * num for e, c in self._nums.items()} if num else {}
            return Poly._of(self.vars, nums, self.den * den)
        other = self._same(other)
        return Poly._of(self.vars, _mul_terms(self._nums, other._nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = Poly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def min_degree(self, name: str) -> int:
        i = self.vars.index(name)
        return min((e[i] for e in self._nums), default=0)

    def lift(self, vars: tuple[str, ...]) -> "Poly":
        """Reinterpret over a superset of variables (new ones get exponent 0)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        out = {}
        for e, c in self._nums.items():
            ne = [0] * len(vars)
            for p, x in zip(pos, e):
                ne[p] = x
            out[tuple(ne)] = c
        return Poly._of(vars, out, self.den)

    # -- evaluation / substitution ------------------------------------------

    def eval_frac(self, point: dict) -> Fraction:
        """Evaluate with every variable bound to a Fraction (or int)."""
        p = self
        for v in self.vars:
            p = p.subs_scalar(v, point[v])
        return Fraction(p._nums.get((), 0), p.den)

    def subs_scalar(self, name: str, value) -> "Poly":
        """Substitute one variable by a Fraction; result keeps remaining vars.

        With value a/b, the term of exponent k gets a^(k-lo) b^(hi-k) over
        a^-lo b^hi, where lo <= 0 <= hi bound every exponent k."""
        a, b = _num_den(value)
        i = self.vars.index(name)
        ks = [e[i] for e in self._nums]
        lo, hi = min(0, min(ks, default=0)), max(0, max(ks, default=0))
        if lo < 0 and a == 0:
            raise ZeroDivisionError("Laurent term evaluated at 0")
        pa, pb = ([x**j for j in range(hi - lo + 1)] for x in (a, b))
        out: dict = {}
        for e, c in self._nums.items():
            k = e[i]
            re = e[:i] + e[i + 1 :]
            out[re] = out.get(re, 0) + c * pa[k - lo] * pb[hi - k]
        den = self.den * pb[hi] * pa[-lo]
        if den < 0:
            out, den = {e: -c for e, c in out.items()}, -den
        rest = self.vars[:i] + self.vars[i + 1 :]
        return Poly._of(rest, {e: c for e, c in out.items() if c}, den)

    def compose(self, out_vars: tuple[str, ...], mapping: dict) -> "Poly":
        """Substitute every variable by a Poly over `out_vars` (or a scalar).

        An image with one term (or none) only scales the coefficient and
        shifts the exponents.  The terms are grouped by the exponents of the
        other images, and each group is multiplied once by the product of
        those images' numerators' powers, cached across calls (`_PRODUCTS`).
        The result is over den * prod d^K, with d an image's denominator and
        K the top exponent of its variable.  Requires nonnegative exponents.
        """
        out_vars = tuple(out_vars)
        zero = (0,) * len(out_vars)
        tops = list(map(max, zip(*self._nums))) if self._nums else [0] * len(self.vars)
        if min(map(min, zip(*self._nums)), default=0) < 0:
            raise ValueError("compose does not accept Laurent exponents")
        den = self.den
        single = []  # (index, exponents, numerator * denominator powers)
        multi, images, scales = [], [], []  # index, integer terms, d**(K - k)
        for idx, v in enumerate(self.vars):
            img = mapping[v]
            if isinstance(img, (int, Fraction, str)):
                img = Poly.const(out_vars, img)
            elif img.vars != out_vars:
                img = img.lift(out_vars)
            top, d = tops[idx], img.den
            den *= d**top
            if len(img._nums) <= 1:
                ((exp, c),) = img._nums.items() or ((zero, 0),)
                single.append((idx, exp, [c**k * d ** (top - k) for k in range(top + 1)]))
            else:
                multi.append(idx)
                images.append(tuple(sorted(img._nums.items())))
                scales.append([d ** (top - k) for k in range(top + 1)])
        images = tuple(images)
        groups: dict = {}
        for e, c in self._nums.items():
            exp = zero
            for idx, shift, pw in single:
                k = e[idx]
                c *= pw[k]
                if k:
                    exp = tuple(x + k * s for x, s in zip(exp, shift))
            group = groups.setdefault(tuple(e[idx] for idx in multi), {})
            group[exp] = group.get(exp, 0) + c
        out: dict = {}
        for key, group in groups.items():
            f = math.prod(s[k] for s, k in zip(scales, key))
            prod = _product(images, key) if any(key) else {zero: 1}
            for e1, c1 in group.items():
                c1 *= f
                for e2, c2 in prod.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return Poly._of(out_vars, {e: c for e, c in out.items() if c}, den)

    # -- serialization -------------------------------------------------------

    def _reduced(self, c: int) -> tuple:
        g = math.gcd(c, self.den)
        return c // g, self.den // g

    def to_json_obj(self) -> dict:
        """Every coefficient as its reduced numerator and denominator."""
        terms = []
        for e in sorted(self._nums):
            if any(x < 0 for x in e):
                raise ValueError("refusing to serialize a Laurent polynomial")
            num, den = self._reduced(self._nums[e])
            terms.append({"exp": list(e), "num": str(num), "den": str(den)})
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_obj(cls, obj) -> "Poly":
        vars = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["exp"])] = Fraction(int(t["num"]), int(t["den"]))
        return cls(vars, terms)

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        for e in sorted(self._nums):
            num, den = self._reduced(self._nums[e])
            c = f"{num}/{den}" if den != 1 else str(num)
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != "1" else mono)
            else:
                bits.append(c)
        return " + ".join(bits)


def poly_sum(vars: tuple, parts) -> Poly:
    """The sum of k * m * p over the (p, k, shift) in `parts`, where p is a
    Poly whose variables begin `vars`, k an int and m the monomial of
    exponents `shift` over `vars`.

    The numerators are added into one dict over the lcm of the
    denominators.  A summand repeated with the same shift (a memoized
    polynomial, say) is counted first and scaled once.
    """
    vars = tuple(vars)
    counts: dict = {}  # (id(p), shift) -> [p, total k, shift]
    for p, k, shift in parts:
        counts.setdefault((id(p), shift), [p, 0, shift])[1] += k
    for p, _, shift in counts.values():
        if p.vars != vars[: len(p.vars)] or len(shift) != len(vars):
            raise ValueError(f"variable mismatch: {vars} vs {p.vars}, shift {shift}")
    den = math.lcm(*(p.den for p, _, _ in counts.values()))
    out: dict = {}
    for p, k, shift in counts.values():
        f = k * (den // p.den)
        pad = (0,) * (len(vars) - len(p.vars))
        for e, c in p._nums.items():
            e = tuple(map(add, e + pad, shift))
            out[e] = out.get(e, 0) + f * c
    return Poly._of(vars, {e: c for e, c in out.items() if c}, den)


def poly_div_linear(p: Poly, name: str, root) -> Poly:
    """Exact division of `p` by (name - root); raises NonPolynomialResult.

    Handles Laurent input: the quotient may itself be Laurent in `name`.
    Synthetic division by a root a/b runs on integers: the layer of
    name-degree k, counted from the lowest, is scaled by b^(top - k), so the
    quotient's numerators come out over den * b^top.
    """
    a, b = _num_den(root)
    i = p.vars.index(name)
    shift = min((e[i] for e in p._nums), default=0)
    layers: dict[int, dict] = {}  # by name-degree: numerators over the other exponents
    for e, c in p._nums.items():
        layers.setdefault(e[i] - shift, {})[e[:i] + e[i + 1 :]] = c
    top = max(layers, default=0)
    out, cur = {}, {}
    for k in range(top, -1, -1):
        cur = {re: c * a for re, c in cur.items()} if a else {}  # the carry
        for re, c in layers.get(k, {}).items():
            cur[re] = cur.get(re, 0) + c * b ** (top - k)
        cur = {re: c for re, c in cur.items() if c}
        if k:
            for re, c in cur.items():
                out[re[:i] + (k - 1 + shift,) + re[i:]] = c * b**k
    if cur:
        rem = {re: Fraction(c, p.den * b**top) for re, c in cur.items()}
        raise NonPolynomialResult(
            f"remainder {rem} after dividing by ({name} - {Fraction(a, b)})"
        )
    return Poly._of(p.vars, out, p.den * b**top)


def poly_div_linear_power(p: Poly, name: str, root, k: int) -> Poly:
    for _ in range(k):
        p = poly_div_linear(p, name, root)
    return p


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def interpolate_columns(nodes: range, columns) -> tuple:
    """Exact interpolation of integer value columns over a progression.

    `nodes` is a, a+s, ..., a+r*s with s > 0, and each column lists the
    integer values there, in order.  Returns (cols, den): per column,
    ``{degree: integer numerator}`` (zeros omitted) of the unique polynomial
    of degree at most r through those values, every coefficient being its
    numerator over den = s^r r!.

    In Newton's forward form the polynomial is the sum of d_k C((q-a)/s, k)
    over the integer differences d_k of the column; times den, Horner's
    rule expands it in integers: T_r = d_r, T_k = d_k s^(r-k) r!/k! +
    (q - a - k*s) T_(k+1), and T_0 is the column's numerators.
    """
    a, s, r = nodes.start, nodes.step, len(nodes) - 1
    scale = [s ** (r - k) * math.factorial(r) // math.factorial(k) for k in range(r + 1)]
    out = []
    for values in columns:
        ys, diffs = list(values), []
        while ys:
            diffs.append(ys[0])
            ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
        t = [diffs[r]]
        for k in range(r - 1, -1, -1):
            b = a + k * s
            t = [x - b * y for x, y in zip([0] + t, t + [0])]
            t[0] += scale[k] * diffs[k]
        out.append({k: c for k, c in enumerate(t) if c})
    return out, s**r * math.factorial(r)


def interpolate(nodes: range, values, var: str = "q") -> Poly:
    """The polynomial in `var` through integer `values` at the progression
    `nodes`: `interpolate_columns` on one column."""
    (coeffs,), den = interpolate_columns(nodes, [values])
    return Poly._of((var,), {(k,): c for k, c in coeffs.items()}, den)


# ---------------------------------------------------------------------------
# homogenized substitution
# ---------------------------------------------------------------------------


def homog_general(p: Poly, n: int, num_y: Poly, num_z: Poly, denom: Poly) -> Poly:
    """Clear denominators in p(..., num_y/denom, num_z/denom) * denom**n.

    Every term c * rest * y^i z^j becomes c * rest * num_y^i num_z^j denom^(n-i-j);
    the (y, z) degree of every term must be at most n.  The exponent n-i-j goes
    to one auxiliary variable, and `Poly.compose` substitutes all three.
    """
    iy = p.vars.index("y")
    iz = p.vars.index("z")
    terms = {}
    for e, c in p._nums.items():
        i, j = e[iy], e[iz]
        if i < 0 or j < 0:
            raise ValueError("homogenization needs nonnegative exponents")
        if i + j > n:
            raise DegreeExceedsHomogenizer(
                f"term with (y,z)-degree {i + j} exceeds bound {n}"
            )
        terms[e + (n - i - j,)] = c
    aux = "/".join(p.vars) + "/"  # longer than every variable name, so new
    mapping = {v: Poly.variable(p.vars, v) for v in p.vars}
    mapping.update({"y": num_y, "z": num_z, aux: denom})
    return Poly._of(p.vars + (aux,), terms, p.den).compose(p.vars, mapping)


# ---------------------------------------------------------------------------
# exact matrices (tuples of tuples of Fractions)
# ---------------------------------------------------------------------------


def mat_from_rows(rows) -> tuple:
    return tuple(tuple(as_frac(x) for x in row) for row in rows)


def _eliminate(rows: list, cols=None) -> list:
    """In-place Gauss-Jordan elimination over the rationals; returns the pivots.

    Pivots are sought in the columns `cols` (default: every column), in that
    order, so they are the first basis of those columns.  Afterwards row i is
    1 at pivot i and 0 at every other pivot, so it expresses every column over
    pivot i; the rows below the last pivot are 0 in every column of `cols` and
    span the rest of the row space.
    """
    if cols is None:
        cols = range(len(rows[0]) if rows else 0)
    pivots: list = []
    for col in cols:
        k = len(pivots)
        if k == len(rows):
            break
        for piv in range(k, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = Fraction(1) / rows[k][col]
        rows[k] = prow = [x * inv for x in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def mat_rank(rows, cols=None) -> int:
    if cols is not None:
        cols = list(cols)
        work = [[row[c] for c in cols] for row in rows]
    else:
        work = [list(row) for row in rows]
    return len(_eliminate(work))


def column_analysis(rows, cols) -> tuple:
    """Rank of the selected columns, plus a kernel vector when minimal.

    Returns (rank, kernel) where kernel is a tuple of Fractions if the columns
    are minimally dependent (unique kernel line, full support), otherwise None.
    The kernel vector is normalized so its first nonzero entry is positive.
    """
    cols = list(cols)
    k = len(cols)
    work = [[row[c] for c in cols] for row in rows]
    pivots = _eliminate(work)
    rank = len(pivots)
    if rank != k - 1:
        return rank, None
    # nullity one: read the kernel off the reduced rows
    (fc,) = (c for c in range(k) if c not in pivots)
    vec = [Fraction(0)] * k
    vec[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -work[r][fc]
    if any(x == 0 for x in vec):
        return rank, None  # dependent but not minimally so
    first = next(x for x in vec if x)
    if first < 0:
        vec = [-x for x in vec]
    return rank, tuple(vec)


# ---------------------------------------------------------------------------
# GF(2) spans of bitmask vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class F2Space:
    """Row-reduced GF(2) span of bitmask vectors."""

    basis: tuple  # ints in reduced echelon form, sorted by leading bit

    def contains(self, v: int) -> bool:
        for b in self.basis:
            v = min(v, v ^ b)
        return v == 0


def f2_span(vectors) -> F2Space:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # back-reduce for a canonical reduced echelon basis
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[i] ^ basis[j] < basis[i]:
                basis[i] ^= basis[j]
    basis.sort(reverse=True)
    return F2Space(tuple(basis))


def f2_enumerate(space: F2Space) -> list:
    """All members of the span, sorted ascending (deterministic)."""
    out = [0]
    for b in space.basis:
        out += [x ^ b for x in out]
    return sorted(out)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def json_dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
