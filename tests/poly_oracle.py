"""The int/Fraction `Poly` that integer numerators over one denominator
replaced, kept verbatim as an oracle for tests/test_algebra.py; only its
repeated-node error is now a `ValueError`, since the package's own
interpolation takes a `range` and has no such error.

A coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise; `compose` scales each group of terms by the
lcm of its denominators, and `interpolate_columns` returns one
``{degree: coefficient}`` dict per column.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, mul

from omflow.errors import NonPolynomialResult

def as_frac(x) -> Fraction:
    """Coerce ints, Fractions, and strings like '-3/7' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _ratio(num: int, den: int):
    """num / den as an int when it divides, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _lcm_den(values) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return math.lcm(*(c.denominator for c in values))


def _normal(c):
    """A coefficient as `Poly` stores it: an int when integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two {exponents: coefficient} dicts, as `Poly` stores terms."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: _normal(c) for e, c in out.items() if c}


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

    `terms` maps exponent tuples (one entry per variable, ints) to nonzero
    coefficients: an `int` when integral, else a `Fraction`.  Instances are
    immutable in spirit; nothing mutates `terms` after construction.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict | None = None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                if type(c) is not int:
                    c = _normal(as_frac(c))
                if c:
                    exp = tuple(exp)
                    if len(exp) != len(self.vars):
                        raise ValueError("exponent arity mismatch")
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "Poly":
        """Wrap terms already as `__init__` stores them: exponent tuples of
        the right length to nonzero coefficients, ints when integral."""
        p = cls.__new__(cls)
        p.vars, p.terms = vars, terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, vars, c) -> "Poly":
        c = as_frac(c)
        return cls(vars, {tuple([0] * len(vars)): c} if c else {})

    @classmethod
    def variable(cls, vars, name) -> "Poly":
        exp = [0] * len(vars)
        exp[tuple(vars).index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, vars, exp, c=1) -> "Poly":
        return cls(vars, {tuple(exp): as_frac(c)})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

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
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = _normal(s)
            else:
                del out[exp]
        return Poly._of(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._same(other))

    def __rsub__(self, other) -> "Poly":
        return self._same(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(self.vars, {e: k * other for e, k in self.terms.items()})
        other = self._same(other)
        return Poly._of(self.vars, _mul_terms(self.terms, other.terms))

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
        return min((e[i] for e in self.terms), default=0)

    def lift(self, vars: tuple[str, ...]) -> "Poly":
        """Reinterpret over a superset of variables (new ones get exponent 0)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(vars)
            for p, x in zip(pos, e):
                ne[p] = x
            out[tuple(ne)] = c
        return Poly(vars, out)

    # -- evaluation / substitution ------------------------------------------

    def eval_frac(self, point: dict) -> Fraction:
        """Evaluate with every variable bound to a Fraction (or int)."""
        vals = [as_frac(point[v]) for v in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for x, k in zip(vals, e):
                if k:
                    t *= x**k
            total += t
        return total

    def subs_scalar(self, name: str, value) -> "Poly":
        """Substitute one variable by a Fraction; result keeps remaining vars."""
        value = as_frac(value)
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k < 0 and value == 0:
                raise ZeroDivisionError("Laurent term evaluated at 0")
            c2 = c * value**k if k else c
            if not c2:
                continue
            re = tuple(x for j, x in enumerate(e) if j != i)
            out[re] = out.get(re, 0) + c2
        return Poly(rest, out)

    def compose(self, out_vars: tuple[str, ...], mapping: dict) -> "Poly":
        """Substitute every variable by a Poly over `out_vars` (or a scalar).

        An image with one term only scales the coefficient and shifts the
        exponents.  The terms are grouped by the exponents of the other
        images, and each group is multiplied once by the product of those
        images' powers.  The images enter with their denominators cleared,
        and each group's coefficients are scaled to integers, so the
        products are integer arithmetic on terms cached across calls
        (`_PRODUCTS`); the sum is divided by its one common denominator at
        the end.  Requires all exponents nonnegative.
        """
        out_vars = tuple(out_vars)
        single = []  # (index, exponents, coefficient) of single-term images
        multi, images, dens = [], [], []  # index, integer terms, denominator
        for idx, v in enumerate(self.vars):
            img = mapping[v]
            if isinstance(img, (int, Fraction, str)):
                img = Poly.const(out_vars, img)
            elif img.vars != out_vars:
                img = img.lift(out_vars)
            if len(img.terms) == 1:
                ((exp, c),) = img.terms.items()
                single.append((idx, exp, c))
            else:
                d = _lcm_den(img.terms.values())
                multi.append(idx)
                images.append(tuple(sorted(
                    (e, c.numerator * (d // c.denominator)) for e, c in img.terms.items()
                )))
                dens.append(d)
        images = tuple(images)
        groups: dict = {}
        zero = (0,) * len(out_vars)
        for e, c in self.terms.items():
            if any(k < 0 for k in e):
                raise ValueError("compose does not accept Laurent exponents")
            exp = zero
            for idx, shift, a in single:
                k = e[idx]
                if k:
                    c = c * a**k
                    exp = tuple(x + k * s for x, s in zip(exp, shift))
            group = groups.setdefault(tuple(e[idx] for idx in multi), {})
            group[exp] = group.get(exp, 0) + c
        # group / (m * prod dens**key) is the group over its integer numerators
        scaled, den = [], 1
        for key, group in groups.items():
            m = _lcm_den(group.values())
            scale = m * math.prod(d**k for d, k in zip(dens, key))
            ints = {e: c.numerator * (m // c.denominator) for e, c in group.items()}
            scaled.append((key, ints, scale))
            den = math.lcm(den, scale)
        out: dict = {}
        for key, ints, scale in scaled:
            f = den // scale
            prod = _product(images, key) if any(key) else {zero: 1}
            for e1, c1 in ints.items():
                c1 *= f
                for e2, c2 in prod.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        if den == 1:
            return Poly._of(out_vars, {e: c for e, c in out.items() if c})
        return Poly._of(out_vars, {e: _ratio(c, den) for e, c in out.items() if c})

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = []
        for e in sorted(self.terms):
            if any(x < 0 for x in e):
                raise ValueError("refusing to serialize a Laurent polynomial")
            c = self.terms[e]
            terms.append(
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
            )
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_obj(cls, obj) -> "Poly":
        vars = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["exp"])] = Fraction(int(t["num"]), int(t["den"]))
        return cls(vars, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def poly_div_linear(p: Poly, name: str, root) -> Poly:
    """Exact division of `p` by (name - root); raises NonPolynomialResult.

    Handles Laurent input: the quotient may itself be Laurent in `name`.
    """
    root = as_frac(root)
    i = p.vars.index(name)
    shift = min((e[i] for e in p.terms), default=0)
    # group coefficients (as dicts over the other exponents) by name-exponent
    layers: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[i] - shift
        re = tuple(x for j, x in enumerate(e) if j != i)
        layers.setdefault(k, {})[re] = c
    if not layers:
        return Poly(p.vars, {})
    top = max(layers)
    carry: dict = {}
    quot_layers: dict[int, dict] = {}
    for k in range(top, -1, -1):
        cur = dict(carry)
        for re, c in layers.get(k, {}).items():
            s = cur.get(re, Fraction(0)) + c
            if s:
                cur[re] = s
            else:
                cur.pop(re, None)
        if k > 0:
            quot_layers[k - 1] = cur
            carry = {re: c * root for re, c in cur.items()} if root else {}
        else:
            if cur:
                raise NonPolynomialResult(
                    f"remainder {cur} after dividing by ({name} - {root})"
                )
    out = {}
    for k, layer in quot_layers.items():
        for re, c in layer.items():
            e = list(re)
            e.insert(i, k + shift)
            out[tuple(e)] = c
    return Poly(p.vars, out)


def poly_div_linear_power(p: Poly, name: str, root, k: int) -> Poly:
    for _ in range(k):
        p = poly_div_linear(p, name, root)
    return p


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _lagrange_rows(xs: tuple) -> tuple:
    """(cols, den) for distinct rational nodes `xs`: the Lagrange basis
    polynomial of node i has cols[k][i] / den as its coefficient of x^k.

    With s the lcm of the nodes' denominators, x_i = p_i / s for integers
    p_i, and basis polynomial i is prod_{j != i} (s*x - p_j) / (p_i - p_j),
    whose coefficient of x^k is s^k times an integer over an integer.
    """
    s = _lcm_den(xs)
    ps = [x.numerator * (s // x.denominator) for x in xs]
    rows, dens = [], []
    for i, pi in enumerate(ps):
        # coefficients of prod_{j != i} (X - p_j), lowest first
        row, d = [1], 1
        for j, pj in enumerate(ps):
            if j != i:
                row = [a - pj * b for a, b in zip([0] + row, row + [0])]
                d *= pi - pj
        rows.append(row)
        dens.append(d)
    den = math.lcm(*dens)
    cols = tuple(
        tuple(s**k * row[k] * (den // d) for row, d in zip(rows, dens))
        for k in range(len(xs))
    )
    return cols, den


def interpolate_columns(nodes, columns) -> list:
    """Exact interpolation of several value columns over one node tuple.

    Each column lists the values at `nodes`, in order.  Returns, per column,
    ``{degree: coefficient}`` (zeros omitted; an `int` when integral, else a
    `Fraction`) of the unique polynomial of degree below ``len(nodes)``
    through those values.  The Lagrange rows are integers over one common
    denominator, cached per node tuple; a column is scaled to integers by
    the lcm of its values' denominators, so it costs integer multiply-adds
    and one division per coefficient.
    """
    xs = tuple(as_frac(x) for x in nodes)
    if len(set(xs)) != len(xs):
        raise ValueError(f"repeated interpolation nodes among {list(xs)}")
    cols, den = _lagrange_rows(xs)
    out = []
    for values in columns:
        vals = [y if type(y) is int else as_frac(y) for y in values]
        m = _lcm_den(vals)
        ys = [y.numerator * (m // y.denominator) for y in vals]
        coeffs = {k: _ratio(sum(map(mul, ys, col)), den * m) for k, col in enumerate(cols)}
        out.append({k: c for k, c in coeffs.items() if c})
    return out


def interpolate(points, var: str = "q") -> Poly:
    """Exact Lagrange interpolation through (x, y) pairs of rationals."""
    pts = [(as_frac(x), as_frac(y)) for x, y in points]
    (coeffs,) = interpolate_columns([x for x, _ in pts], [[y for _, y in pts]])
    return Poly((var,), {(k,): c for k, c in coeffs.items()})

