import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omflow import algebra
from omflow.algebra import (
    Poly,
    as_frac,
    column_analysis,
    f2_enumerate,
    f2_span,
    homog_general,
    interpolate,
    interpolate_columns,
    json_dumps_canonical,
    mat_from_rows,
    mat_rank,
    poly_div_linear,
    poly_div_linear_power,
    poly_sum,
)
from omflow.errors import DegreeExceedsHomogenizer, NonPolynomialResult
from omflow.identities import _dual_at_cube_root, _duality_points, _mul_at_cube_root

import poly_oracle

Q = Fraction
YZ = ("y", "z")


def P(vars, terms):
    return Poly(vars, terms)


def coeffs(p: Poly) -> dict:
    """{exponents: Fraction coefficient} of a Poly."""
    return {e: Fraction(c, p.den) for e, c in p.numerators().items()}


# -- oracles: the term-by-term substitutions that `Poly.compose` replaced ----


def oracle_compose(self, out_vars: tuple[str, ...], mapping: dict) -> "Poly":
    """Substitute every variable by a Poly over `out_vars` (or a scalar).

    Requires all exponents nonnegative.
    """
    out_vars = tuple(out_vars)
    images = []
    for v in self.vars:
        img = mapping[v]
        if isinstance(img, (int, Fraction, str)):
            img = Poly.const(out_vars, as_frac(img))
        elif img.vars != out_vars:
            img = img.lift(out_vars)
        images.append(img)
    # cache powers of each image
    pows: list[dict] = [dict() for _ in images]
    total = Poly(out_vars, {})
    for e, c in coeffs(self).items():
        term = Poly.const(out_vars, c)
        for idx, k in enumerate(e):
            if k < 0:
                raise ValueError("compose does not accept Laurent exponents")
            if k:
                cache = pows[idx]
                if k not in cache:
                    cache[k] = images[idx] ** k
                term = term * cache[k]
        total = total + term
    return total


def oracle_homog_general(p: Poly, n: int, num_y: Poly, num_z: Poly, denom: Poly) -> Poly:
    """Clear denominators in p(..., num_y/denom, num_z/denom) * denom**n.

    Every term c * rest * y^i z^j becomes c * rest * num_y^i num_z^j denom^(n-i-j);
    the (y, z) degree of every term must be at most n.
    """
    iy = p.vars.index("y")
    iz = p.vars.index("z")
    num_y = num_y.lift(p.vars) if num_y.vars != p.vars else num_y
    num_z = num_z.lift(p.vars) if num_z.vars != p.vars else num_z
    denom = denom.lift(p.vars) if denom.vars != p.vars else denom
    py: dict[int, Poly] = {0: Poly.const(p.vars, 1)}
    pz: dict[int, Poly] = {0: Poly.const(p.vars, 1)}
    pd: dict[int, Poly] = {0: Poly.const(p.vars, 1)}

    def power(cache, base, k):
        if k not in cache:
            cache[k] = power(cache, base, k - 1) * base
        return cache[k]

    total = Poly(p.vars, {})
    for e, c in coeffs(p).items():
        i, j = e[iy], e[iz]
        if i < 0 or j < 0:
            raise ValueError("homogenization needs nonnegative exponents")
        if i + j > n:
            raise DegreeExceedsHomogenizer(
                f"term with (y,z)-degree {i + j} exceeds bound {n}"
            )
        rest = list(e)
        rest[iy] = 0
        rest[iz] = 0
        term = Poly.monomial(p.vars, rest, c)
        term = term * power(py, num_y, i)
        term = term * power(pz, num_z, j)
        term = term * power(pd, denom, n - i - j)
        total = total + term
    return total


# -- oracles: the Fraction routines that integer arithmetic replaced ---------


def oracle_grouped_compose(self, out_vars: tuple[str, ...], mapping: dict) -> "Poly":
    """Substitute every variable by a Poly over `out_vars` (or a scalar).

    An image with one term only scales the coefficient and shifts the
    exponents.  The terms are grouped by the exponents of the other
    variables, and each group is multiplied by those images' cached
    powers once.  Requires all exponents nonnegative.
    """
    out_vars = tuple(out_vars)
    single, multi = [], []  # (index, exponents, coefficient); (index, powers)
    for idx, v in enumerate(self.vars):
        img = mapping[v]
        if isinstance(img, (int, Fraction, str)):
            img = Poly.const(out_vars, as_frac(img))
        elif img.vars != out_vars:
            img = img.lift(out_vars)
        if len(img.numerators()) == 1:
            ((exp, c),) = coeffs(img).items()
            single.append((idx, exp, c))
        else:
            multi.append((idx, [Poly.const(out_vars, 1), img]))
    groups: dict = {}
    zero = (0,) * len(out_vars)
    for e, c in coeffs(self).items():
        if any(k < 0 for k in e):
            raise ValueError("compose does not accept Laurent exponents")
        exp = zero
        for idx, shift, a in single:
            k = e[idx]
            if k:
                c = c * a**k
                exp = tuple(x + k * s for x, s in zip(exp, shift))
        group = groups.setdefault(tuple(e[idx] for idx, _ in multi), {})
        group[exp] = group.get(exp, 0) + c
    out: dict = {}
    for key, group in groups.items():
        part = Poly(out_vars, group)
        prod = None
        for k, (_, pows) in zip(key, multi):
            if k:
                while len(pows) <= k:
                    pows.append(pows[-1] * pows[1])
                prod = pows[k] if prod is None else prod * pows[k]
        if prod is not None:
            part = prod * part
        for exp, c in coeffs(part).items():
            out[exp] = out.get(exp, 0) + c
    return Poly(out_vars, out)


def oracle_interpolate_columns(nodes, columns) -> list:
    """Exact interpolation of several value columns over one node tuple.

    Each column lists the values at `nodes`, in order.  Returns, per column,
    ``{degree: Fraction}`` (zeros omitted) of the unique polynomial of degree
    below ``len(nodes)`` through those values.  The Lagrange coefficient rows
    are built once and shared by every column.
    """
    xs = [as_frac(x) for x in nodes]
    if len(set(xs)) != len(xs):
        raise ValueError(f"repeated interpolation nodes among {xs}")
    rows = []
    for xi in xs:
        # coefficients of prod_{j != i} (x - x_j) / (x_i - x_j), lowest first
        row, den = [Fraction(1)], Fraction(1)
        for xj in xs:
            if xj != xi:
                row = [a - xj * b for a, b in zip([0] + row, row + [0])]
                den *= xi - xj
        rows.append([c / den for c in row])
    out = []
    for values in columns:
        coeffs = [Fraction(0)] * len(xs)
        for y, row in zip(values, rows):
            if y:
                for k, c in enumerate(row):
                    coeffs[k] += y * c
        out.append({k: c for k, c in enumerate(coeffs) if c})
    return out


def oracle_at_cube_root(p: Poly) -> tuple:
    """(a, b) with p(t) = a + b*t at a primitive cube root of unity t, for p
    univariate in t: reduce with t^3 = 1 and t^2 = -1 - t."""
    a = b = Fraction(0)
    for (k,), c in coeffs(p).items():
        if k % 3 == 0:
            a += c
        elif k % 3 == 1:
            b += c
        else:
            a, b = a - c, b - c
    return a, b


def oracle_dual_at_cube_root(stats: Poly, n: int, y0, z0) -> tuple:
    """The per-point path of the q = 3 duality check that `_dual_at_cube_root`
    replaced: compose with u(t) and v(t), then reduce; scaled by denom^n."""
    tv = Poly.variable(("t",), "t")
    denom = 1 + y0 + z0
    # u = (conj(t) y0 + t z0 + 1) / denom and v = (t y0 + conj(t) z0 + 1) / denom
    u = (1 - y0 + (z0 - y0) * tv) * Fraction(1, denom)
    v = (1 - z0 + (y0 - z0) * tv) * Fraction(1, denom)
    rat, irr = oracle_at_cube_root(oracle_grouped_compose(stats, ("t",), {"y": u, "z": v}))
    return rat * denom**n, irr * denom**n


def assert_normal(p: Poly):
    """Nonzero int numerators over an int den >= 1 that shares no factor with
    all of them; so the zero polynomial has den 1."""
    nums = p.numerators()
    assert type(p.den) is int and p.den >= 1, p.den
    assert all(type(c) is int and c for c in nums.values()), nums
    assert math.gcd(p.den, *nums.values()) == 1, (p.den, nums)
    assert nums or p.den == 1


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(vars, max_exp=3, min_size=0, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, small_fracs, min_size=min_size, max_size=max_size).map(
        lambda terms: Poly(vars, terms)
    )


XY = ("x", "y")
# images of every shape `compose` tells apart: scalars (also as strings), the
# zero polynomial, monomials, multi-term polys and polys over fewer variables
images = st.one_of(
    st.integers(-3, 3),
    small_fracs,
    small_fracs.map(str),
    st.just(Poly(XY, {})),
    polys(XY, max_size=1),
    polys(XY, min_size=2, max_size=4),
    polys(("y",), max_size=3),
)


class TestPoly:
    def test_basic_arithmetic(self):
        y = Poly.variable(YZ, "y")
        z = Poly.variable(YZ, "z")
        p = (y + z) * (y - z)
        assert p == y * y - z * z
        assert (y + 1) ** 3 == y**3 + 3 * y**2 + 3 * y + 1

    def test_zero_pruning(self):
        y = Poly.variable(YZ, "y")
        assert not (y - y)
        assert not (y * 0)

    def test_eval(self):
        y = Poly.variable(YZ, "y")
        z = Poly.variable(YZ, "z")
        p = y**2 * z + 2
        assert p.eval_frac({"y": 3, "z": Q(1, 2)}) == Q(13, 2)
        partial = p.subs_scalar("y", 2)
        assert partial == 4 * Poly.variable(("z",), "z") + 2

    def test_compose(self):
        y = Poly.variable(YZ, "y")
        z = Poly.variable(YZ, "z")
        p = y * z + y
        xy = ("x", "y")
        x2 = Poly.variable(xy, "x")
        got = p.compose(xy, {"y": x2 + 1, "z": Q(2)})
        assert got == 3 * x2 + 3

    @given(polys(("a", "b", "c")), images, images, images)
    @settings(max_examples=150, deadline=None)
    def test_compose_matches_oracle(self, p, a, b, c):
        mapping = {"a": a, "b": b, "c": c}
        assert p.compose(XY, mapping) == oracle_compose(p, XY, mapping)

    @given(st.lists(polys(("a", "b", "c"), max_exp=4), min_size=1, max_size=3),
           images, images, images)
    @settings(max_examples=100, deadline=None)
    def test_repeated_compose_matches_grouped_oracle(self, ps, a, b, c):
        # the same images call after call: later calls read cached products
        mapping = {"a": a, "b": b, "c": c}
        for p in ps + ps:
            got = p.compose(XY, mapping)
            assert got == oracle_grouped_compose(p, XY, mapping)
            assert_normal(got)

    def test_compose_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(algebra, "PRODUCT_CACHE_SIZE", 3)
        monkeypatch.setattr(algebra, "_PRODUCTS", {})
        x, y = (Poly.variable(XY, v) for v in XY)
        mapping = {"a": 1 + x, "b": y - Q(1, 2), "c": x + y + 3}
        for k in (*range(6), *range(6)):
            p = Poly(("a", "b", "c"), {(k, 1, 2): 1, (0, k, 1): Q(2, 3), (1, 1, k): -5})
            assert p.compose(XY, mapping) == oracle_grouped_compose(p, XY, mapping)
            assert len(algebra._PRODUCTS) <= 3

    @given(polys(XY), polys(XY), small_fracs)
    @settings(max_examples=100, deadline=None)
    def test_coefficients_are_ints_when_integral(self, p, q, c):
        assert_normal(Poly(XY, {(0, 0): Q(4, 2), (1, 0): "6/3", (0, 1): "1/2"}))
        for r in (
            p, p + q, p - q, p * q, p * c, -p, p**2, p.subs_scalar("x", c),
            Poly.from_json_obj(p.to_json_obj()), p.compose(XY, {"x": q, "y": c}),
        ):
            assert_normal(r)

    def test_compose_refuses_laurent_exponents(self):
        p = Poly(YZ, {(1, 0): Q(1), (0, -1): Q(2)})
        mapping = {"y": Poly.variable(YZ, "y"), "z": Q(3)}
        for fn in (Poly.compose, oracle_compose):
            with pytest.raises(ValueError, match="Laurent"):
                fn(p, YZ, mapping)

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.fractions()),
            max_size=6,
        ),
        st.fractions(),
        st.fractions(),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_pointwise(self, terms, a, b):
        p = Poly(YZ, {(abs(i), abs(j)): c for i, j, c in terms})
        q = p * p - 2 * p
        full = p.eval_frac({"y": a, "z": b})
        assert q.eval_frac({"y": a, "z": b}) == full * full - 2 * full

    def test_serialization_roundtrip_and_determinism(self):
        p = Poly(("q", "y", "z"), {(1, 0, 2): Q(-3, 7), (0, 1, 0): Q(5)})
        obj = p.to_json_obj()
        assert obj["vars"] == ["q", "y", "z"]
        assert obj["terms"][0]["exp"] == [0, 1, 0]  # lex sorted
        assert obj["terms"][1] == {"exp": [1, 0, 2], "num": "-3", "den": "7"}
        assert Poly.from_json_obj(json.loads(json.dumps(obj))) == p
        assert json_dumps_canonical(obj) == json_dumps_canonical(p.to_json_obj())

    def test_laurent_refuses_serialization(self):
        p = Poly(("y",), {(-1,): Q(1)})
        with pytest.raises(ValueError):
            p.to_json_obj()


# -- the int/Fraction Poly this storage replaced, as an oracle ----------------

OldPoly = poly_oracle.Poly
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def progressions(min_columns=0, max_columns=4):
    """(nodes, columns): a range a, a+s, ..., a+r*s with a in -6..6, s in
    1..3 and 1..7 points, and `min_columns` to `max_columns` integer columns
    over it."""
    nodes = st.builds(
        lambda a, s, n: range(a, a + n * s, s),
        st.integers(-6, 6), st.integers(1, 3), st.integers(1, 7),
    )
    return nodes.flatmap(
        lambda xs: st.tuples(
            st.just(xs),
            st.lists(
                st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)),
                min_size=min_columns, max_size=max_columns,
            ),
        )
    )


def term_dicts(nvars=2, lo=0, hi=3, max_size=6):
    exps = st.tuples(*[st.integers(lo, hi)] * nvars)
    return st.dictionaries(exps, coefficients, max_size=max_size)


def both(terms, vars=XY):
    return Poly(vars, terms), OldPoly(vars, terms)


def same(new: Poly, old) -> None:
    """`new` holds the polynomial `old` holds, in normal form, and prints
    the same JSON when it has no negative exponents."""
    assert new.vars == old.vars
    assert coeffs(new) == {e: Q(c) for e, c in old.terms.items()}
    assert_normal(new)
    if all(k >= 0 for e in old.terms for k in e):
        assert json_dumps_canonical(new.to_json_obj()) == json_dumps_canonical(
            old.to_json_obj()
        )


# an image for `compose`: a scalar, or a polynomial over XY given by its terms
old_images = st.one_of(st.integers(-3, 3), coefficients, term_dicts(max_size=3))


def image_pair(img):
    return both(img) if isinstance(img, dict) else (img, img)


class TestAgainstParentPoly:
    @given(term_dicts(), term_dicts(), coefficients, st.integers(-4, 4), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, c, k, e):
        (na, oa), (nb, ob) = both(a), both(b)
        same(na + nb, oa + ob)
        same(na - nb, oa - ob)
        same(na * nb, oa * ob)
        same(-na, -oa)
        same(na * c, oa * c)
        same(k * na, k * oa)
        same(na + c, oa + c)
        same(c - na, c - oa)
        same(na**e, oa**e)

    @given(term_dicts(lo=-2), coefficients)
    @settings(max_examples=150, deadline=None)
    def test_subs_scalar(self, terms, value):
        new, old = both(terms)
        try:
            want = old.subs_scalar("x", value)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                new.subs_scalar("x", value)
        else:
            same(new.subs_scalar("x", value), want)

    @given(term_dicts(3), old_images, old_images, old_images)
    @settings(max_examples=150, deadline=None)
    def test_compose(self, terms, a, b, c):
        new, old = both(terms, ("a", "b", "c"))
        pairs = [image_pair(img) for img in (a, b, c)]
        same(
            new.compose(XY, dict(zip("abc", (n for n, _ in pairs)))),
            old.compose(XY, dict(zip("abc", (o for _, o in pairs)))),
        )
        # a polynomial in no variables: its constant term alone
        new, old = both({(): terms.get((0, 0, 0), 0)}, ())
        same(new.compose(XY, {}), old.compose(XY, {}))

    @given(term_dicts(lo=-2), coefficients, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_poly_div_linear(self, terms, root, exact):
        new, old = both(terms)
        if exact:  # multiply by (x - root) first, so the division is exact
            new = new * (Poly.variable(XY, "x") - root)
            old = old * (OldPoly.variable(XY, "x") - root)
        try:
            want = poly_oracle.poly_div_linear(old, "x", root)
        except NonPolynomialResult as e:
            with pytest.raises(NonPolynomialResult) as got:
                poly_div_linear(new, "x", root)
            assert str(got.value) == str(e)
        else:
            same(poly_div_linear(new, "x", root), want)

    @given(progressions(1, 1))
    @settings(max_examples=60, deadline=None)
    def test_interpolate(self, case):
        xs, (ys,) = case
        same(interpolate(xs, ys, var="x"), poly_oracle.interpolate(zip(xs, ys), var="x"))

    @given(term_dicts(3))
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, terms):
        new, old = both(terms, ("q", "y", "z"))
        assert Poly.from_json_obj(old.to_json_obj()) == new
        same(Poly.from_json_obj(new.to_json_obj()), OldPoly.from_json_obj(old.to_json_obj()))

    @given(polys(XY), polys(XY))
    @settings(max_examples=100, deadline=None)
    def test_equal_by_every_route(self, p, q):
        zero = (0, 0)
        routes = [
            p * 2 * Q(1, 2),
            Q(1, 3) * p * 3,
            (p + q) - q,
            p + Poly(XY, {}),
            p.compose(XY, {"x": Poly.variable(XY, "x"), "y": Poly.variable(XY, "y")}),
            Poly.from_json_obj(p.to_json_obj()),
            Poly(XY, coeffs(p)),
            Poly(XY, {e: c * 6 for e, c in p.numerators().items()}, p.den * 6),
            poly_sum(XY, [(p, 3, zero), (q, 1, zero), (p, -2, zero), (q, -1, zero)]),
        ]
        for r in routes:
            assert r == p and hash(r) == hash(p)
            assert_normal(r)

    @given(st.lists(st.tuples(st.sampled_from(range(3)), st.integers(-3, 3),
                              st.tuples(st.integers(0, 2), st.integers(0, 2))), max_size=8),
           st.lists(polys(("x",)), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_poly_sum_matches_repeated_addition(self, parts, summands):
        want = Poly(XY, {})
        for i, k, shift in parts:
            want = want + k * Poly.monomial(XY, shift) * summands[i].lift(XY)
        got = poly_sum(XY, [(summands[i], k, shift) for i, k, shift in parts])
        assert got == want
        assert_normal(got)

    def test_poly_sum_refuses_mismatched_summands(self):
        y = Poly.variable(("y",), "y")
        with pytest.raises(ValueError, match="variable mismatch"):
            poly_sum(XY, [(y, 1, (0, 0))])  # y is not the first of XY
        with pytest.raises(ValueError, match="variable mismatch"):
            poly_sum(XY, [(y.lift(XY), 1, (0,))])  # shift too short


class TestDivision:
    def test_exact_linear_division(self):
        y = Poly.variable(("y",), "y")
        p = (y - 1) ** 3 * (y + 2)
        q = poly_div_linear_power(p, "y", 1, 3)
        assert q == y + 2

    def test_laurent_division(self):
        # y^-1 * (y-1) = 1 - y^-1, dividing back recovers y^-1
        p = Poly(("y",), {(0,): Q(1), (-1,): Q(-1)})
        q = poly_div_linear(p, "y", 1)
        assert q == Poly(("y",), {(-1,): Q(1)})

    def test_remainder_raises(self):
        y = Poly.variable(("y",), "y")
        with pytest.raises(NonPolynomialResult):
            poly_div_linear(y**2 + 1, "y", 1)

    def test_multivariate_coefficients(self):
        xy = ("x", "y")
        x = Poly.variable(xy, "x")
        y = Poly.variable(xy, "y")
        p = (y - 1) ** 2 * (x**2 + x * y + 3)
        assert poly_div_linear_power(p, "y", 1, 2) == x**2 + x * y + 3


class TestInterpolate:
    def test_halved_line(self):
        # values (q-1)/2 at odd nodes
        p = interpolate(range(1, 6, 2), [0, 1, 2])
        q = Poly.variable(("q",), "q")
        assert p == (q - 1) * Q(1, 2)

    def test_square(self):
        p = interpolate(range(1, 6, 2), [1, 9, 25])
        q = Poly.variable(("q",), "q")
        assert p == q * q

    @given(progressions(1, 1))
    @settings(max_examples=40, deadline=None)
    def test_reproduces_values(self, case):
        xs, (ys,) = case
        p = interpolate(xs, ys, var="x")
        assert_normal(p)
        for x, y in zip(xs, ys):
            assert p.eval_frac({"x": x}) == y

    @given(progressions())
    @settings(max_examples=40, deadline=None)
    def test_columns_reproduce_values(self, case):
        xs, columns = case
        results, den = interpolate_columns(xs, columns)
        assert len(results) == len(columns)
        for ys, nums in zip(columns, results):
            assert all(c and 0 <= k < len(xs) for k, c in nums.items())
            for x, y in zip(xs, ys):
                assert Q(sum(c * x**k for k, c in nums.items()), den) == y

    @given(progressions())
    @settings(max_examples=100, deadline=None)
    def test_columns_match_oracle(self, case):
        # negative starts and values; integer numerators over s^r r!
        xs, columns = case
        want = oracle_interpolate_columns(xs, columns)
        assert poly_oracle.interpolate_columns(xs, columns) == want
        got, den = interpolate_columns(xs, columns)
        assert den == xs.step ** (len(xs) - 1) * math.factorial(len(xs) - 1)
        assert [{k: Q(c, den) for k, c in col.items()} for col in got] == want
        for col in got:
            assert all(type(c) is int for c in col.values())
            assert_normal(Poly(("x",), {(k,): c for k, c in col.items()}, den))

    def test_oracles_refuse_repeated_nodes(self):
        with pytest.raises(ValueError):
            oracle_interpolate_columns([1, 3, 1], [[0, 1, 2]])
        with pytest.raises(ValueError):
            poly_oracle.interpolate_columns([1, 3, 1], [[0, 1, 2]])


class TestHomog:
    # the two substitutions the suites make: numerators (y, z) and
    # (1 + y, 1 + z), over the common denominator 1 + y + z
    def test_plain_identity_examples(self):
        yz = YZ
        y = Poly.variable(yz, "y")
        z = Poly.variable(yz, "z")
        p = (y * z).lift(("q", "y", "z"))
        assert homog_general(p, 2, y, z, 1 + y + z) == (y * z).lift(("q", "y", "z"))
        one = Poly.const(("q", "y", "z"), 1)
        assert homog_general(one, 1, y, z, 1 + y + z) == (1 + y + z).lift(("q", "y", "z"))

    def test_shifted_example(self):
        # p = y: numerator 1+y, degree bound 1 -> just 1+y
        p = Poly.variable(("q", "y", "z"), "y")
        y, z = (Poly.variable(YZ, v) for v in YZ)
        assert homog_general(p, 1, 1 + y, 1 + z, 1 + y + z) == (1 + y).lift(("q", "y", "z"))

    def test_degree_guard(self):
        p = Poly.variable(("q", "y", "z"), "y") ** 3
        y, z = (Poly.variable(YZ, v) for v in YZ)
        with pytest.raises(DegreeExceedsHomogenizer):
            homog_general(p, 2, 1 + y, 1 + z, 1 + y + z)

    def test_general_matches_rational_function(self):
        # compare against direct rational evaluation at sample points
        qyz = ("q", "y", "z")
        q, y, z = (Poly.variable(qyz, v) for v in qyz)
        p = q * y**2 + z - 1
        n = 3
        ny = Poly.variable(YZ, "y") - 1
        nz = Poly.variable(YZ, "z") - 1
        den = Poly.variable(YZ, "y") + Poly.variable(YZ, "z") - 1
        h = homog_general(p, n, ny, nz, den)
        for y0, z0, q0 in [(2, 3, 5), (Q(1, 2), 4, -1), (7, Q(-2, 3), 2)]:
            d0 = y0 + z0 - 1
            direct = p.eval_frac({"q": q0, "y": Q(y0 - 1, d0), "z": Q(z0 - 1, d0)})
            got = h.eval_frac({"q": q0, "y": y0, "z": z0})
            assert got == direct * d0**n


    @given(polys(("q", "y", "z")), st.integers(-1, 2), polys(YZ, max_size=3),
           polys(YZ, max_size=3), polys(YZ, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_general_matches_oracle(self, p, slack, ny, nz, den):
        # n is the (y, z) degree of p plus the slack; slack -1 overshoots it
        n = max(0, max((i + j for _, i, j in p.numerators()), default=0) + slack)
        try:
            want = oracle_homog_general(p, n, ny, nz, den)
        except DegreeExceedsHomogenizer:
            with pytest.raises(DegreeExceedsHomogenizer):
                homog_general(p, n, ny, nz, den)
        else:
            assert homog_general(p, n, ny, nz, den) == want

    def test_general_refuses_negative_yz_exponents(self):
        p = Poly(("q", "y", "z"), {(1, -1, 0): Q(1)})
        one = Poly.const(YZ, 1)
        for fn in (homog_general, oracle_homog_general):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(p, 2, one, one, one)


class TestMatrices:
    def test_rank(self):
        m = mat_from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
        assert mat_rank(m) == 2
        assert mat_rank(m, cols=[0, 2]) == 2
        assert mat_rank(m, cols=[2]) == 1

    def test_column_analysis_minimal(self):
        m = mat_from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
        rank, ker = column_analysis(m, [0, 1, 2])
        assert rank == 2
        assert ker == (Q(1), Q(1), Q(-1))
        rank, ker = column_analysis(m, [0, 2, 3])
        # kernel normalized to first entry positive; magnitudes untouched
        assert ker == (Q(2), Q(-1), Q(-1))

    def test_column_analysis_not_minimal(self):
        m = mat_from_rows([[1, 0, 1], [0, 1, 0]])
        # {col0, col2} dependent minimally; {col0, col1, col2} dependent not minimally
        rank, ker = column_analysis(m, [0, 2])
        assert ker == (Q(1), Q(-1))
        rank, ker = column_analysis(m, [0, 1, 2])
        assert ker is None
        rank, ker = column_analysis(m, [0, 1])
        assert rank == 2 and ker is None


class TestEisenstein:
    """Q(t) at a primitive cube root of unity t, as pairs (a, b) meaning
    a + b*t, multiplied by `_mul_at_cube_root`."""

    T = (0, 1)  # t

    def test_defining_relation(self):
        t2 = _mul_at_cube_root(self.T, self.T)
        assert t2 == (-1, -1)
        assert _mul_at_cube_root(t2, self.T) == (1, 0)

    @given(st.fractions(), st.fractions())
    @settings(max_examples=50, deadline=None)
    def test_conjugate_norm_is_rational(self, a, b):
        conj = (a - b, -b)  # a + b * t^2
        assert _mul_at_cube_root((a, b), conj) == (a * a - a * b + b * b, 0)

    def test_poly_evaluation(self):
        assert _mul_at_cube_root(self.T, (-1, -1)) == (1, 0)  # t * conj(t) = 1
        # at (y0, z0) = (2, 3): 6u = -1 + t and 6v = -2 - t, so 36 (uv + 1) = 39
        p = Poly.variable(YZ, "y") * Poly.variable(YZ, "z") + 1
        assert _dual_at_cube_root(p, 2, Q(2), Q(3)) == (39, 0)

    @given(
        polys(YZ, max_exp=4, max_size=8),
        st.integers(0, 2),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_dual_at_cube_root_matches_oracle(self, stats, slack, y0, z0):
        assume(1 + y0 + z0 != 0)
        n = max((i + j for i, j in stats.numerators()), default=0) + slack
        got = _dual_at_cube_root(stats, n, y0, z0)
        assert got == oracle_dual_at_cube_root(stats, n, y0, z0)

    def test_dual_at_cube_root_at_the_checked_points(self):
        # integer statistics, as a_eval counts them, at every point of the check
        stats = Poly(YZ, {(0, 0): 4, (1, 0): 7, (0, 2): -3, (2, 1): 12, (1, 3): 1, (4, 0): 2})
        for n in (4, 5, 9):
            for y0, z0 in _duality_points(n):
                got = _dual_at_cube_root(stats, n, y0, z0)
                assert got == oracle_dual_at_cube_root(stats, n, y0, z0)


class TestF2:
    def test_span_and_enumerate(self):
        sp = f2_span([0b101, 0b011])
        assert len(sp.basis) == 2
        assert sorted(f2_enumerate(sp)) == [0b000, 0b011, 0b101, 0b110]
        assert sp.contains(0b110)
        assert not sp.contains(0b100)

    def test_canonical_basis(self):
        a = f2_span([0b110, 0b011])
        b = f2_span([0b101, 0b110])
        assert a.basis == b.basis
