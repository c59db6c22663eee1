"""Boundary exponents and local series solutions."""

import decimal
from decimal import Decimal
from fractions import Fraction
import random

import pytest
from hypothesis import example, given, strategies as st

from qheun.gauge import gauge_power
from qheun.lax import derive_equation
from qheun.local import (CharData, DegenerateEquation, Resonance,
                         SeriesSolution, UnboundParameter, char_exponents,
                         exact_root, quad_roots, residual, series_solution)
from qheun.qdiff import QDiffEq
from qheun.symkernel import parse_expr, rat, ratfun_eq, sym

V = ("x", "z", "q", "t", "l", "m", "w", "d", "g", "k1", "k2",
     "th1", "th2", "a1", "a2", "a3",
     "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")


def P(text):
    return parse_expr(text, V)


def _eq(p, z, m, variable="x"):
    return QDiffEq.from_scalar_coefficients(P(p), P(z), P(m), variable)


def _a4_binding(r1, r2, q=Fraction(9, 10)):
    """Bindings whose origin exponents are exactly s in {r1, r2}."""
    a1, a2, a3 = Fraction(2), Fraction(3), Fraction(5)
    k1 = Fraction(7, 2)
    t = Fraction(1, 4)
    th1, th2 = -a1 * r1, -a1 * r2
    k2 = -a1 * r1 * r2 / (k1 * a2 * a3)
    return {"q": q, "t": t, "k1": k1, "k2": k2, "th1": th1, "th2": th2,
            "a1": a1, "a2": a2, "a3": a3, "m": Fraction(5, 3)}


# -- characteristic quadratics ----------------------------------------------

def test_catalog_origin_quadratic():
    cz = char_exponents(derive_equation("murata", "A4"), "Zero")
    assert cz.location == "Zero"
    assert cz.regularity == "RegularLike"
    assert cz.roots is None
    scalar = P("-t")
    assert ratfun_eq(cz.c2, scalar * P("a1"))
    assert ratfun_eq(cz.c1, scalar * P("th1 + th2"))
    assert ratfun_eq(cz.c0, scalar * P("-k1*k2*a2*a3"))


def test_catalog_infinity_single_root():
    ci = char_exponents(derive_equation("murata", "A4"), "Infinity")
    assert ci.regularity == "IrregularLike"
    assert ci.c0.is_zero
    # the one admissible exponent solves k2*s - q = 0
    assert ratfun_eq(ci.c1 * P("k2"), -ci.c2 * P("q"))
    numeric = char_exponents(
        derive_equation("murata", "A4", _a4_binding(rat(2), rat(3))),
        "Infinity")
    b = _a4_binding(rat(2), rat(3))
    assert numeric.roots == (b["q"] / b["k2"],)


def test_factored_quadratic_roots():
    c = Fraction(3, 7)
    eq = _eq("1", "-(1 + 3/7)", "3/7")
    cz = char_exponents(eq, "Zero")
    assert cz.roots == (c, 1)
    assert cz.regularity == "RegularLike"


def test_irrational_roots_fall_back_to_floats():
    cz = char_exponents(_eq("1", "-3", "1"), "Zero")
    assert len(cz.roots) == 2
    assert all(isinstance(r, float) for r in cz.roots)
    assert abs(cz.roots[0] * cz.roots[1] - 1) < 1e-12


def test_complex_roots():
    cz = char_exponents(_eq("1", "1", "1"), "Zero")
    assert len(cz.roots) == 2
    assert all(isinstance(r, complex) for r in cz.roots)


def test_degenerate_origin():
    with pytest.raises(DegenerateEquation):
        char_exponents(_eq("x", "x", "x"), "Zero")
    with pytest.raises(ValueError):
        char_exponents(_eq("1", "1", "1"), "Everywhere")


@given(st.fractions(min_value=-5, max_value=5),
       st.fractions(min_value=-5, max_value=5))
def test_vieta(r1, r2):
    eq = QDiffEq.from_scalar_coefficients(
        rat(1), rat(-(r1 + r2)), rat(r1 * r2), "x")
    cz = char_exponents(eq, "Zero")
    want = tuple(sorted({r for r in (r1, r2) if r}
                        if r1 * r2 == 0 else (r1, r2)))
    assert cz.roots == want


_RATS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def _sorted(roots):
    return list(roots) == sorted(roots, key=lambda z: (z.real, z.imag))


@given(st.fractions(max_denominator=10 ** 6), st.fractions())
def test_rational_square_roots_are_found_exactly(f, g):
    r = exact_root(f)
    assert r is None or (r >= 0 and r * r == f)
    assert exact_root(g * g) == abs(g)
    assert exact_root(g.numerator ** 2) == abs(g.numerator)


@given(_RATS, _RATS, _RATS)
@example(Fraction(1, 18), Fraction(37, 2), Fraction(1, 9))
def test_quadratic_roots_solve_the_quadratic(a, b, c):
    roots = quad_roots(a, b, c)
    assert _sorted(roots)
    if a == 0:
        assert roots == (() if b == 0 else (-c / b,))
        return
    assert len(roots) == 2
    exact = exact_root(b * b - 4 * a * c) is not None
    assert all(isinstance(r, Fraction) for r in roots) == exact
    if exact:
        assert all(a * r * r + b * r + c == 0 for r in roots)
        return
    # float roots: neither root may lose digits to cancellation
    for r in roots:
        size = abs(a) * abs(r) ** 2 + abs(b) * abs(r) + abs(c)
        assert abs(a * r * r + b * r + c) <= 1e-12 * size
    assert abs(sum(roots) + b / a) <= 1e-12 * sum(map(abs, roots))


def test_small_float_root_keeps_its_digits():
    # b^2 >> |4ac|: the textbook (-b + sqrt(disc))/(2a) cancels here and
    # used to be off by about 49,000 ulps in the small root
    a, b, c = Fraction(-91, 9), Fraction(541), Fraction(1, 11)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        da, db, dc = (Decimal(v.numerator) / v.denominator for v in (a, b, c))
        root = (db * db - 4 * da * dc).sqrt()
        exact = sorted(((-db - root) / (2 * da), (-db + root) / (2 * da)))
    assert quad_roots(a, b, c) == tuple(float(v) for v in exact)
    assert quad_roots(a, b, c)[0] == -0.0001680384573057739


@given(_RATS.filter(bool), _RATS, _RATS)
def test_complex_roots_of_real_data_are_conjugate(a, b, c):
    # an exact conjugate pair sorts by the sign of its imaginary part,
    # never by rounding noise in the real parts
    roots = quad_roots(a, b, c)
    if b * b - 4 * a * c < 0 and all(isinstance(r, complex) for r in roots):
        assert roots[0] == roots[1].conjugate() and roots[0].imag < 0


@given(_RATS, _RATS, _RATS.filter(bool))
def test_quadratic_roots_recover_rational_roots(r1, r2, k):
    assert quad_roots(k, -k * (r1 + r2), k * r1 * r2) == tuple(
        sorted((r1, r2)))
    assert quad_roots(k.numerator, 0, 0) == (0, 0)


@given(st.fractions(), st.sampled_from([2, 3]))
def test_exact_root_finds_perfect_powers(g, k):
    # a perfect power comes back exactly; an odd k keeps the sign of g,
    # an even k gives the nonnegative root
    want = abs(g) if k % 2 == 0 else g
    assert exact_root(g ** k, k) == want
    assert exact_root(g.numerator ** k, k) == (
        abs(g.numerator) if k % 2 == 0 else g.numerator)
    if g:
        # 2 g^k is no k-th power, and an even power has no negative root
        assert exact_root(2 * g ** k, k) is None
        assert exact_root(-g ** 2, 2) is None
        assert exact_root(-g ** 3, 3) == -g


@given(st.fractions(max_denominator=10 ** 6), st.sampled_from([2, 3]))
def test_exact_root_refuses_non_powers(f, k):
    r = exact_root(f, k)
    assert r is None or r ** k == f
    # an even root of a negative value does not exist over Q
    if k % 2 == 0 and f < 0:
        assert r is None


@pytest.mark.parametrize("f, k, want", [
    (Fraction(-8, 27), 3, Fraction(-2, 3)),
    (Fraction(-4, 9), 2, None),
    (Fraction(2), 2, None),
    (Fraction(2), 3, None),
    (Fraction(10 ** 45 + 1), 3, None),
    (Fraction(10 ** 402), 3, Fraction(10 ** 134)),
    (Fraction(1, 10 ** 402), 3, Fraction(1, 10 ** 134)),
    (Fraction(0), 3, Fraction(0)),
    (Fraction(1), 3, Fraction(1)),
])
def test_exact_root_edge_values(f, k, want):
    assert exact_root(f, k) == want


def test_roots_of_a_discriminant_beyond_the_float_range():
    # b^2 - 4ac = 5*10^400 has no float, but the roots (-3 +- sqrt(5))/2
    # do, and come out correctly rounded
    big = 10 ** 200
    roots = quad_roots(big, 3 * big, big)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        root5, root2 = Decimal(5).sqrt(), Decimal(2).sqrt() * Decimal(big)
    assert roots == (float((-3 - root5) / 2), float((-3 + root5) / 2))
    # complex roots the same way: 10^400 (s^2 + s + 1) = 0
    pair = quad_roots(big * big, big * big, big * big)
    assert pair[0] == pair[1].conjugate() and pair[0].imag < 0
    assert pair[0] == complex(-0.5, -(3 ** 0.5) / 2)
    # coefficients far apart: s^2 - 2*10^400 has the roots +-sqrt(2)*10^200
    assert quad_roots(1, 0, -2 * big * big) == (-float(root2), float(root2))
    # a perfect square discriminant stays exact at any size
    assert quad_roots(big, -3 * big, 2 * big) == (1, 2)
    # a root beyond the float range cannot be a float
    with pytest.raises(OverflowError):
        quad_roots(1, big * big + 1, 1)


def test_roots_of_float_data_whose_discriminant_overflows():
    # b*b = inf in floats, yet the roots -1e200 and -1e-200 are floats:
    # the coefficients are divided by a power of two first
    r1, r2 = quad_roots(1.0, 1e200, 1.0)
    assert r1 == pytest.approx(-1e200, rel=1e-15)
    assert r2 == pytest.approx(-1e-200, rel=1e-15)
    # 4ac overflows: 1e300 (s^2 + s + 1)
    pair = quad_roots(1e300, 1e300, 1e300)
    assert pair[0] == pytest.approx(complex(-0.5, -(3 ** 0.5) / 2))
    assert pair[1] == pair[0].conjugate()
    # complex data: i s^2 + 1e200 s + 1e200 i = 0 has the roots -i and
    # about 1e200 i
    low, high = quad_roots(1j, 1e200, 1e200j)
    assert low == pytest.approx(-1j, rel=1e-15)
    assert high == pytest.approx(1e200j, rel=1e-15)
    # a root beyond the float range still cannot be a float
    with pytest.raises(OverflowError):
        quad_roots(1e-300, 1e200, 1.0)


def test_gauge_power_shifts_characteristic():
    eq = derive_equation("murata", "A4")
    base = char_exponents(eq, "Zero")
    shifted = char_exponents(gauge_power(eq, 2), "Zero")
    q2 = P("q^2")
    assert ratfun_eq(shifted.c2, base.c2 * q2)
    assert ratfun_eq(shifted.c1, base.c1)
    assert ratfun_eq(shifted.c0, base.c0 / q2)
    b = _a4_binding(rat(2), rat(3))
    bound = derive_equation("murata", "A4", b)
    num = char_exponents(bound, "Zero")
    gauged = gauge_power(bound, 1)
    renum = QDiffEq.from_scalar_coefficients(
        *(gauged.scalar_coefficient(n).substitute({"q": rat(b["q"])})
          for n in ("P", "Z", "M")), "x")
    gnum = char_exponents(renum, "Zero")
    assert gnum.roots == tuple(r / b["q"] for r in num.roots)


_CORNERS = {
    ("murata", "A4"): ("RegularLike", "IrregularLike"),
    ("murata", "A5"): ("IrregularLike", "IrregularLike"),
    ("murata", "A5s"): ("IrregularLike", "IrregularLike"),
    ("murata", "A6"): ("IrregularLike", "IrregularLike"),
    ("murata", "A6s"): ("IrregularLike", "IrregularLike"),
    ("murata", "A7"): ("IrregularLike", "IrregularLike"),
    ("murata", "A7p"): ("IrregularLike", "IrregularLike"),
    ("kny", "D5"): ("RegularLike", "RegularLike"),
    ("kny", "A4w"): ("RegularLike", "IrregularLike"),
    ("kny", "E3a"): ("RegularLike", "IrregularLike"),
    ("kny", "E3b"): ("IrregularLike", "IrregularLike"),
    ("kny", "E2a"): ("IrregularLike", "IrregularLike"),
    ("kny", "E2b"): ("IrregularLike", "IrregularLike"),
    ("kny", "A1w"): ("IrregularLike", "IrregularLike"),
    ("kny", "A1w8"): ("IrregularLike", "IrregularLike"),
}


@pytest.mark.parametrize("catalog,family", sorted(_CORNERS))
def test_regularity_matches_corner_pattern(catalog, family):
    eq = derive_equation(catalog, family)
    sup = eq.support()
    want_zero, want_inf = _CORNERS[(catalog, family)]
    cz = char_exponents(eq, "Zero")
    assert cz.regularity == want_zero
    assert (cz.regularity == "RegularLike") == (
        ("P", 0) in sup and ("M", 0) in sup)
    ci = char_exponents(eq, "Infinity")
    assert ci.regularity == want_inf
    top = eq.degree
    assert (ci.regularity == "RegularLike") == (
        ("P", top) in sup and ("M", top) in sup)


# -- series solutions -------------------------------------------------------

def test_geometric_product_coefficients():
    # f(x) - f(qx) = x f(x) has the classical product-denominator series
    eq = _eq("-1", "1 - x", "0")
    q = Fraction(1, 2)
    sol = series_solution(eq, {"q": q}, rootIndex=0, N=12)
    assert sol.s == 1
    assert sol.coefficients[0] == 1
    denom = Fraction(1)
    for n in range(1, 13):
        denom *= 1 - q ** n
        assert sol.coefficients[n] == 1 / denom


def test_constant_solution():
    eq = _eq("1 + x", "-2 - 3*x", "1 + 2*x")
    sol = series_solution(eq, {"q": Fraction(1, 3)}, rootIndex=0, N=8)
    assert sol.s == 1
    assert sol.coefficients == (1,) + (0,) * 8


def test_engineered_power_solution_and_exact_residual():
    # Z chosen so x^3 solves the equation exactly
    q = Fraction(1, 3)
    k = 3
    p, m = P("1 + 2*x"), P("5*x + x^2")
    z = -(P("q") ** k * p + m / P("q") ** k)
    eq = QDiffEq.from_scalar_coefficients(p, z, m, "x")
    binding = {"q": q}
    target = q ** k
    cz = char_exponents(
        QDiffEq.from_scalar_coefficients(
            *(c.substitute({"q": rat(q)}) for c in (p, z, m)), "x"), "Zero")
    idx = cz.roots.index(target)
    sol = series_solution(eq, binding, rootIndex=idx, N=10)
    assert sol.s == target
    assert sol.coefficients == (1,) + (0,) * 10
    for xv in (Fraction(1, 20), Fraction(3, 5), Fraction(7)):
        assert residual(eq, sol, xv) == 0


def _dense_solve(slot, N, top):
    """Gaussian-elimination oracle for the first N collected equations."""
    rows = []
    rhs = []
    for m in range(1, N + 1):
        rows.append([slot(m - n, n) if 0 <= m - n <= top else 0
                     for n in range(1, N + 1)])
        rhs.append(-(slot(m, 0) if m <= top else 0))
    for col in range(N):
        piv = next(r for r in range(col, N) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(N):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return [rhs[r] / rows[r][r] for r in range(N)]


def test_series_matches_dense_solve():
    rng = random.Random(424242)
    for _ in range(3):
        r1 = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        r2 = r1 + Fraction(rng.randrange(1, 7), 3)
        b = _a4_binding(r1, r2)
        eq = derive_equation("murata", "A4", b)
        q = b["q"]
        vals = {n: [eq.coeff(n, k).evaluate({}) for k in range(3)]
                for n in ("P", "Z", "M")}
        for idx in (0, 1):
            sol = series_solution(eq, {"q": q}, rootIndex=idx, N=10)
            s = sol.s

            def slot(k, n):
                return (vals["P"][k] * s * q ** n + vals["Z"][k]
                        + vals["M"][k] * q ** (-n) / s)

            oracle = _dense_solve(slot, 10, eq.degree)
            assert list(sol.coefficients[1:]) == oracle


def test_resonant_exponent_pair():
    q = Fraction(1, 2)
    eq = _eq("1", "-(1 + 1/2) + x", "1/2")
    # roots 1/2 and 1 differ by q, so the larger one resonates at order 1
    with pytest.raises(Resonance):
        series_solution(eq, {"q": q}, rootIndex=1, N=5)
    sol = series_solution(eq, {"q": q}, rootIndex=0, N=5)
    assert sol.s == q


def test_unbound_parameter():
    eq = derive_equation("murata", "A4")
    with pytest.raises(UnboundParameter):
        series_solution(eq, {"q": Fraction(1, 2)}, 0, 5)
    with pytest.raises(UnboundParameter):
        series_solution(_eq("1", "-2", "1"), {}, 0, 5)


def test_root_index_out_of_range():
    eq = _eq("1", "-2", "1")
    with pytest.raises(ValueError):
        series_solution(eq, {"q": Fraction(1, 2)}, rootIndex=2, N=5)
    with pytest.raises(ValueError, match="nonnegative"):
        series_solution(eq, {"q": Fraction(1, 2)}, rootIndex=0, N=-1)


def test_catalog_series_residual_bound():
    b = _a4_binding(Fraction(2), Fraction(3))
    eq = derive_equation("murata", "A4", b)
    sol = series_solution(eq, {"q": b["q"]}, rootIndex=0, N=30)
    magnitudes = [abs(eq.coeff(n, k).evaluate({}))
                  for n in ("P", "Z", "M") for k in range(3)]
    res = residual(eq, sol, Fraction(1, 20))
    assert res > 0
    assert float(res) < 1e-12 * float(max(magnitudes))


def test_residual_decreases_with_truncation_order():
    b = _a4_binding(Fraction(2), Fraction(3))
    eq = derive_equation("murata", "A4", b)
    values = []
    for n in (5, 15, 30):
        sol = series_solution(eq, {"q": b["q"]}, rootIndex=0, N=n)
        values.append(residual(eq, sol, Fraction(1, 20)))
    assert values[0] > values[1] > values[2]


def test_float_backend():
    eq = _eq("-1", "1 - x", "0")
    sol = series_solution(eq, {"q": 0.5}, rootIndex=0, N=12)
    assert isinstance(sol.coefficients[3], float)
    assert abs(residual(eq, sol, 0.05)) < 1e-12


# Rational bindings of catalog rows, each pinning a rational origin
# exponent s (with its root index) that resonates nowhere up to order 80
_PINNED = [
    ("murata", "A4", "a1=-2 a2=1/3 a3=-2 k1=-2 k2=-15/8 m=-2/3 t=-1 th1=1"
     " th2=1/3 q=2/3", 1, "3/2"),
    ("murata", "A6", "a1=2 k1=1/3 k2=-1/2 m=3/2 t=-3/2 th1=-4/3 q=2/3",
     0, "2/3"),
    ("kny", "D5", "g=1/2 k1=2 k2=-1/2 n1=1 n2=-1 n3=-1/2 n4=16/19 n5=1/2"
     " n6=-2 n7=-2 n8=1 q=2/3", 1, "2/3"),
    ("kny", "E2a", "g=3/2 k1=2 k2=-2/3 n1=-2 n2=3/2 n3=1/3 n4=-8/3"
     " n5=-1/2 n8=1 q=2/3", 0, "1/2"),
]


def _exact_tail(eq, binding, sol, x):
    """Orders N+1..N+top of P(x) s f(qx) + Z(x) f(x) + M(x) f(x/q)/s.

    The recurrence makes orders 0..N vanish, so these orders at x are
    the whole three-term sum.
    """
    vals = {n: [eq.coeff(n, k).evaluate(binding)
                for k in range(eq.degree + 1)] for n in "PZM"}
    q, s, c = binding["q"], sol.s, sol.coefficients
    top, last = eq.degree, len(c) - 1
    tail = 0
    for order in range(last + 1, last + top + 1):
        for n in range(max(0, order - top), last + 1):
            k = order - n
            slot = (vals["P"][k] * s * q ** n + vals["Z"][k]
                    + vals["M"][k] / (s * q ** n))
            tail += slot * c[n] * x ** order
    return tail


@pytest.mark.parametrize("catalog, family, binding, index, s", _PINNED,
                         ids=[row[1] for row in _PINNED])
def test_residual_is_the_exact_tail(catalog, family, binding, index, s):
    binding = {name: Fraction(value) for name, value in
               (pair.split("=") for pair in binding.split())}
    eq = derive_equation(catalog, family)
    for n in (0, 1, 17, 80):
        sol = series_solution(eq, binding, rootIndex=index, N=n)
        assert sol.s == Fraction(s)
        for x in (Fraction(1, 10), Fraction(-3, 7), Fraction(2)):
            assert residual(eq, sol, x) == abs(_exact_tail(eq, binding,
                                                            sol, x))


def test_residual_of_an_exact_series_at_a_float_point():
    b = _a4_binding(Fraction(2), Fraction(3))
    eq = derive_equation("murata", "A4", b)
    sol = series_solution(eq, {"q": b["q"]}, rootIndex=0, N=4)
    got = residual(eq, sol, 0.25)
    assert isinstance(got, float)
    assert got == pytest.approx(float(residual(eq, sol, Fraction(1, 4))),
                                rel=1e-9)


def test_integer_residual_prints_as_an_integer():
    # s = 1 and c = (1, -3/2): the order-2 tail -3/2 x^2 is -6 at x = 2
    eq = _eq("1", "-3 + x", "2")
    sol = series_solution(eq, {"q": Fraction(3)}, rootIndex=0, N=1)
    assert sol.s == 1 and sol.coefficients == (1, Fraction(-3, 2))
    value = residual(eq, sol, 2)
    assert value == 6 and str(value) == "6"


def test_series_repr_and_chardata_repr():
    eq = _eq("1", "-2", "1")
    cz = char_exponents(eq, "Zero")
    assert "Zero" in repr(cz)
    sol = series_solution(eq, {"q": Fraction(1, 3)}, 0, 4)
    assert isinstance(sol, SeriesSolution)
    assert "N=4" in repr(sol)
    assert isinstance(cz, CharData)


def test_records_unpack_and_are_immutable():
    eq = _eq("1", "-2", "1")
    cz = char_exponents(eq, "Zero")
    location, c2, c1, c0, roots, regularity = cz
    assert cz == (location, c2, c1, c0, roots, regularity)
    sol = series_solution(eq, {"q": Fraction(1, 3)}, 0, 4)
    assert len(sol) == 6 and sol[2] is sol.coefficients
    for record, field in ((cz, "roots"), (sol, "s")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# -- the exact path against the plain recurrence -----------------------------
#
# series_solution and residual build exact data from integer parts; these
# are the plain loops they replaced, which every type of data still takes
# when q, s, x or a side value is inexact.

def _plain_series(sides, q, s, N):
    pv, zv, mv = sides["P"], sides["Z"], sides["M"]

    def slot(k, n):
        total = zv[k]
        if pv[k]:
            total += pv[k] * s * q ** n
        if mv[k]:
            total += mv[k] * q ** (-n) / s
        return total

    coeffs = [1]
    top = len(pv) - 1
    for m in range(1, N + 1):
        den = slot(0, m)
        if not den:
            raise Resonance("recurrence denominator vanishes at order %d" % m)
        acc = 0
        for n in range(max(0, m - top), m):
            acc += slot(m - n, n) * coeffs[n]
        coeffs.append(-acc / den)
    return tuple(coeffs)


def _plain_residual(sides, q, s, coefficients, x):
    up, mid, low = (sum(v * x ** k for k, v in enumerate(sides[name]))
                    for name in "PZM")
    up, low = up * s, low / s
    exact, inexact = 0, 0
    for n, c in enumerate(coefficients):
        term = c * (x ** n * (up * q ** n + mid + low * q ** (-n)))
        if isinstance(term, (int, Fraction)):
            exact += term
        else:
            inexact += term
    return abs(Fraction(exact) + inexact)


def _outcome(call):
    """The value with the types inside it, or the exception raised."""
    try:
        value = call()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    items = value if isinstance(value, tuple) else (value,)
    return value, [type(v) for v in items]


def _agree(eq, binding, index, N, xs):
    """series_solution and residual equal the plain loops, types too."""
    sol = series_solution(eq, binding, index, 0)
    q, s, sides = binding["q"], sol.s, sol.sides
    got = _outcome(lambda: series_solution(eq, binding, index,
                                           N).coefficients)
    assert got == _outcome(lambda: _plain_series(sides, q, s, N))
    if isinstance(got[0], tuple):
        sol = series_solution(eq, binding, index, N)
        for x in xs:
            assert (_outcome(lambda: residual(eq, sol, x))
                    == _outcome(lambda: _plain_residual(
                        sides, q, s, sol.coefficients, x)))
    return got


def test_an_int_q_stays_exact():
    # 2 ** -n is a float, so an int q used to give float coefficients
    eq = _eq("1", "-3 + x", "2")
    sol = series_solution(eq, {"q": 2}, 1, 8)
    exact = series_solution(eq, {"q": Fraction(2)}, 1, 8)
    assert sol.s == 2 and sol.q == 2 and type(sol.q) is int
    assert all(type(c) is Fraction for c in sol.coefficients[1:])
    assert sol.coefficients == exact.coefficients
    value = residual(eq, sol, Fraction(1, 3))
    assert type(value) is Fraction
    assert value == residual(eq, exact, Fraction(1, 3))
    assert residual(eq, sol, 2) == residual(eq, exact, 2)


def test_q_zero_is_refused():
    # f(x/q) has no value at q = 0, as lax refuses q = 0 as no shift base;
    # with M = 0 the series used to expand there, and otherwise the first
    # order or the residual past c[0] divided by zero without naming q
    for eq in (_eq("-1", "1 - x", "0"), _eq("1", "-3 + x", "2")):
        for q in (0, Fraction(0), 0.0):
            with pytest.raises(ValueError, match="q = 0"):
                series_solution(eq, {"q": q}, 0, 3)
    eq = _eq("-1", "1 - x", "0")
    sol = series_solution(eq, {"q": Fraction(1, 2)}, 0, 3)
    with pytest.raises(ValueError, match="q = 0"):
        residual(eq, sol._replace(q=Fraction(0)), Fraction(1, 2))


@pytest.mark.parametrize("q, order", [
    (Fraction(1, 2), 1), (Fraction(1, 2), 3), (Fraction(-1, 2), 3),
    (Fraction(2, 3), 2), (Fraction(3, 2), 2)])
def test_resonance_keeps_its_order_and_text(q, order):
    # the roots 1 and q^order: s = 1 meets the other root at that order
    r = q ** order
    eq = QDiffEq.from_scalar_coefficients(rat(1), -rat(1 + r) + P("x"),
                                          rat(r), "x")
    index = char_exponents(eq.substitute({"q": rat(q)}), "Zero").roots.index(1)
    with pytest.raises(Resonance, match="vanishes at order %d$" % order):
        series_solution(eq, {"q": q}, index, 2 * order)
    assert _agree(eq, {"q": q}, index, 2 * order, ()) == (
        "Resonance", "recurrence denominator vanishes at order %d" % order)


def test_depth_zero_and_the_origin():
    b = _a4_binding(Fraction(2), Fraction(3))
    eq = derive_equation("murata", "A4", b)
    binding = {"q": b["q"]}
    assert _agree(eq, binding, 0, 0, (0, Fraction(1, 3)))[0] == (1,)
    _agree(eq, binding, 1, 12, (0, Fraction(0), Fraction(-2, 9)))
    sol = series_solution(eq, binding, 0, 12)
    # at x = 0 only c[0] counts: |s P(0) + Z(0) + M(0)/s| = 0
    assert residual(eq, sol, 0) == 0


@pytest.mark.parametrize("q", [Fraction(-2, 3), Fraction(-5, 2), -3])
def test_negative_q_s_and_x(q):
    # the roots -3/2 and 5/7
    eq = _eq("14", "11 + x - 2*x^2", "-15 + 3*x")
    for index in (0, 1):
        sol = series_solution(eq, {"q": q}, index, 14)
        assert sol.s == (Fraction(-3, 2), Fraction(5, 7))[index]
        q_exact = Fraction(q)
        _agree(eq, {"q": q_exact}, index, 14,
               (Fraction(-3, 7), Fraction(-2), -1, Fraction(5, 11)))
        assert sol.coefficients == series_solution(
            eq, {"q": q_exact}, index, 14).coefficients
        for x in (Fraction(-3, 7), -2):
            assert residual(eq, sol, x) == _plain_residual(
                sol.sides, q_exact, sol.s, sol.coefficients, x)


def test_inexact_data_keeps_the_plain_loops():
    eq = _eq("1 + x", "-3 + 2*x", "1 - x")
    for binding in ({"q": Fraction(2, 3)}, {"q": 0.75}, {"q": 2},
                    {"q": complex(0.5, 0.25)}):
        for index in (0, 1):
            sol = series_solution(eq, binding, index, 20)
            assert isinstance(sol.s, float)
            assert sol.coefficients == _plain_series(
                sol.sides, binding["q"], sol.s, 20)
            for x in (Fraction(1, 10), 0.2, -3):
                assert residual(eq, sol, x) == _plain_residual(
                    sol.sides, binding["q"], sol.s, sol.coefficients, x)
    # an exact series at a float point: every term on the plain path
    b = _a4_binding(Fraction(2), Fraction(3))
    eq = derive_equation("murata", "A4", b)
    sol = series_solution(eq, {"q": b["q"]}, 0, 10)
    assert residual(eq, sol, 0.25) == _plain_residual(
        sol.sides, b["q"], sol.s, sol.coefficients, 0.25)


# the catalog rows whose origin quadratic admits a nonzero root
_ORIGIN_ROWS = [("murata", f) for f in ("A4", "A5", "A5s", "A6", "A6s",
                                        "A7p")] + [
    ("kny", f) for f in ("D5", "A4w", "E3a", "E3b", "E2a")]
_VALUE_POOL = tuple(Fraction(n, d) for n, d in (
    (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 2), (-3, 2),
    (2, 3), (-2, 3), (1, 3), (3, 1), (-3, 4), (5, 3)))
_ROOT_POOL = tuple(Fraction(n, d) for n, d in (
    (1, 1), (1, 2), (2, 1), (-3, 2), (2, 3), (-1, 3)))


def _rational_root_binding(eq, q, rng):
    """Every parameter bound, one of them solved linearly from the origin
    quadratic so that a pool value of s is a root (so every root is
    rational), and the number of roots."""
    ch = char_exponents(eq, "Zero")
    names = sorted({v for side in "PZM" for c in eq.side(side)
                    for v in c.variables()} - {eq.variable, "q"})
    for _ in range(500):
        s = rng.choice(_ROOT_POOL)
        binding = {n: rng.choice(_VALUE_POOL) for n in names}
        binding["q"] = q
        free = rng.choice(names)
        phi = ch.c2 * s * s + ch.c1 * s + ch.c0
        try:
            phi = phi.substitute({n: rat(v) for n, v in binding.items()
                                  if n != free})
            if phi.num.degree_in(free) != 1:
                continue
            value = (-phi.num.coefficient(free, 0).evaluate({})
                     / phi.num.coefficient(free, 1).evaluate({}))
            binding[free] = value
            roots = char_exponents(eq.substitute(
                {n: rat(v) for n, v in binding.items()}), "Zero").roots
        except (ZeroDivisionError, DegenerateEquation):
            continue
        if value and s in roots:
            return binding, len(roots)
    raise AssertionError("no drawn binding pins a rational root")


@pytest.mark.parametrize("catalog, family", _ORIGIN_ROWS,
                         ids=["%s-%s" % row for row in _ORIGIN_ROWS])
def test_exact_path_equals_the_plain_loops_on_the_catalog(catalog, family):
    rng = random.Random("exact-path:%s:%s" % (catalog, family))
    eq = derive_equation(catalog, family)
    for q in (Fraction(2, 3), Fraction(-3, 5), Fraction(7, 4)):
        binding, count = _rational_root_binding(eq, q, rng)
        for index in range(count):
            N = rng.choice((0, 1, rng.randrange(2, 40), 80))
            xs = (rng.choice((Fraction(1, 10), Fraction(-2, 7))),
                  rng.choice((Fraction(0), Fraction(3, 2), -1)))
            _agree(eq, binding, index, N, xs)
