"""Kernel tests: exact polynomial/rational arithmetic, limits, parser."""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qheun.symkernel import (MAX_BITS, MAX_NESTING, MAX_TERMS,
                             DivergesAtZero, MPoly,
                             ParseError, RatFun,
                             UnknownParameter, as_ratfun, limit_at_zero,
                             parse_expr, poly_arith, rat, ratfun_eq,
                             substitute, sym, termops)

U = ["q", "k1", "k2", "th1", "th2", "a1", "a2", "a3", "l", "m", "t", "d",
     "w", "x"]


def P(text):
    return parse_expr(text, U)


# -- strategies ------------------------------------------------------------

coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def mpolys(draw, names=("x", "y", "z"), max_terms=5, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = MPoly.const(0)
    for _ in range(n):
        c = draw(coeffs)
        exps = draw(st.tuples(*(st.integers(0, max_exp) for _ in names)))
        mono = MPoly.const(c)
        for name, e in zip(names, exps):
            mono = mono * MPoly.var(name) ** e
        p = p + mono
    return p


# -- Rational --------------------------------------------------------------

def test_rational_invariants():
    r = Fraction(-6, 4)
    assert r.numerator == -3 and r.denominator == 2
    assert Fraction(0, 5) == Fraction(0, 1)
    big = Fraction(10 ** 40 + 1, 10 ** 40)
    assert big.numerator - big.denominator == 1


# -- MPoly -----------------------------------------------------------------

def test_poly_arith_examples():
    x = MPoly.var("x")
    assert poly_arith("mul", x + 1, x - 1) == x * x - 1
    p = P("3*x^2 - 2*x + 7 - x*q + q^3").num
    assert poly_arith("add", p, -p).is_zero
    mu1 = P("(l-a1*t)*(l-a2*t)/(q*k1*m)")
    assert ratfun_eq(mu1 * P("q*k1*m"), P("(l-a1*t)*(l-a2*t)"))


def test_canonical_form():
    x, y = MPoly.var("x"), MPoly.var("y")
    a = x * y + 1 - x * y          # y must drop out of the variable set
    assert a.vars == ()
    assert a == MPoly.const(1)
    b = (x + y) - x
    assert b.vars == ("y",)


@settings(max_examples=40, deadline=None)
@given(mpolys(max_terms=2, max_exp=1), coeffs)
def test_equal_values_hash_alike(p, c):
    # __eq__ equates a constant polynomial with its int or Fraction
    # value, so a set or a dict must find either one through the other
    assert 3 in {MPoly.const(3)} and MPoly.const(3) in {3}
    assert {MPoly.const(Fraction(-2, 7)): 1}[Fraction(-2, 7)] == 1
    assert 0 in {MPoly()} and hash(MPoly()) == hash(0)
    assert c in {MPoly.const(c)}
    if p.is_const():
        assert hash(p) == hash(p.const_value())
    assert hash(p + MPoly.var("y") - MPoly.var("y")) == hash(p)


@settings(max_examples=60, deadline=None)
@given(mpolys(), mpolys(), mpolys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def _assert_canonical(p):
    assert all(c != 0 for c in p.terms.values())
    assert list(p.vars) == sorted(set(p.vars))
    for e in p.terms:
        assert len(e) == len(p.vars)
    for i, v in enumerate(p.vars):
        assert any(e[i] for e in p.terms)


@settings(max_examples=40, deadline=None)
@given(mpolys(), mpolys(names=("w", "y")))
def test_no_zero_terms_stored(a, b):
    # every constructor path stores the canonical form, so that the
    # product path can skip re-canonicalising
    results = [a, a + b, a - b, a * b, a * a, (a + b) * (a - b)]
    for p in (a, a * b):
        results += p.univariate("y").values()
    for p in (a, a + b):
        r = p.substitute({"y": P("(w + 2)/(x - 1)"), "z": P("0")})
        results += [r.num, r.den]
    for p in results:
        _assert_canonical(p)


def test_degree_and_univariate():
    p = P("x^3*q + x*q^2 - 5").num
    assert p.degree_in("x") == 3
    u = p.univariate("x")
    assert set(u) == {0, 1, 3}
    assert u[1] == P("q^2").num
    assert p.degree_in("t") == 0


# -- RatFun ----------------------------------------------------------------

def test_ratfun_eq_examples():
    x = sym("x")
    lhs = (x * x - 1) / (x - 1)
    assert ratfun_eq(lhs, x + 1)
    p, q = P("x^2+3*x+1"), P("q*t-1")
    assert ratfun_eq(p / q, (p * 7) / (q * 7))
    assert not ratfun_eq(p / q, (p + 1) / q)


def test_ratfun_unreduced_storage():
    # a nontrivial common polynomial factor is kept, not cancelled
    r = P("(x+1)*(x-1)") / P("(x+1)*(x-2)")
    assert r.num.degree_in("x") == 2
    assert r.den.degree_in("x") == 2


def test_ratfun_monomial_and_content_normalization():
    r = P("2*w*x") / P("4*w*t")
    assert "w" not in r.variables()
    assert r.den == P("t").num        # primitive positive denominator
    assert ratfun_eq(r, P("x/(2*t)"))
    s = P("x") / P("-2*t")
    assert s.den == P("t").num        # sign moved out of the denominator
    assert ratfun_eq(s, P("0-x/(2*t)"))


@settings(max_examples=40, deadline=None)
@given(mpolys(max_terms=3, max_exp=3), mpolys(max_terms=3, max_exp=3),
       mpolys(max_terms=2, max_exp=2))
def test_ratfun_eq_equivalence_and_scaling(a, b, m):
    ra = as_ratfun(a)
    assert ratfun_eq(ra, ra)
    if not b.is_zero and not m.is_zero:
        r = RatFun(a, b)
        assert ratfun_eq(r, RatFun(a * m, b * m))


def test_substitute_examples():
    assert substitute(P("l-a1*t"), {"l": P("a1*t")}).is_zero
    target = P("m^2 + l")
    out = substitute(target, {"m": P("a1*a2*t/(q*th1)+d*l")})
    expect = P("(a1*a2*t/(q*th1)+d*l)^2 + l")
    assert ratfun_eq(out, expect)
    # simultaneous, not chained: l -> m, m -> l swaps cleanly
    swapped = substitute(P("l - m"), {"l": P("m"), "m": P("l")})
    assert ratfun_eq(swapped, P("m - l"))


def test_substitute_reversal():
    p = P("x^2+3*x+1")
    rev = substitute(p, {"x": rat(1) / sym("x")}) * sym("x") ** 2
    assert ratfun_eq(rev, P("1+3*x+x^2"))


def test_substitute_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        substitute(P("1/(l-a1*t)"), {"l": P("a1*t")})


@settings(max_examples=30, deadline=None)
@given(mpolys(names=("x", "y"), max_terms=4, max_exp=3),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
def test_substitute_commutes_with_evaluation(p, xv, yv):
    # substitute x -> constant, then evaluate, vs evaluate directly
    out = substitute(p, {"x": rat(xv)})
    direct = p.evaluate({"x": xv, "y": yv})
    rest = out.evaluate({"y": yv}) if out.variables() else out.const_value()
    assert rest == direct


# -- constant fast paths ------------------------------------------------------

def _counter(mp, owner, name):
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    mp.setattr(owner, name, counted)
    return calls


def _same_terms(got, want):
    # same variables, same terms, and the same dict order: evaluate sums
    # the terms in that order, so a float result depends on it
    assert got.vars == want.vars
    assert list(got.terms.items()) == list(want.terms.items())


def _general_product(a, b):
    """The aligned ``mul_terms`` product, which once took every product."""
    if a.is_zero or b.is_zero:
        return MPoly()
    vars_, ta, tb = MPoly._aligned(a, b)
    return MPoly(vars_, termops.mul_terms(ta, tb))


@settings(max_examples=60, deadline=None)
@given(mpolys(), coeffs)
@example(MPoly.var("x") * 3 + 1, Fraction(1))
def test_constant_products_skip_the_term_kernel(p, c):
    k = MPoly.const(c)
    one = MPoly.const(1)
    cases = [(p, k), (k, p), (p, one), (one, p), (k, k)]
    want = [_general_product(a, b) for a, b in cases]
    want += [want[0], want[1], want[2]]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counter(mp, termops, "mul_terms")
        got = [a * b for a, b in cases] + [p * c, c * p, p * 1]
        assert not calls
        x, y = MPoly.var("x"), MPoly.var("y")
        (x + 1) * y
        assert len(calls) == 1
    for g, w in zip(got, want):
        _same_terms(g, w)


@settings(max_examples=60, deadline=None)
@given(mpolys(), coeffs.filter(bool))
@example(MPoly.var("x") * 3 + 1, Fraction(1))
def test_constant_denominators_skip_the_content_scan(p, c):
    d = MPoly.const(c)
    inv = 1 / d.content_signed()
    want = MPoly(p.vars, termops.scale_terms(p.terms, inv))
    with pytest.MonkeyPatch.context() as mp:
        scans = _counter(mp, MPoly, "content_signed")
        products = _counter(mp, termops, "mul_terms")
        got = [RatFun(p, d), RatFun(p, c), as_ratfun(p) / c]
        assert not scans and not products
        RatFun(MPoly.var("x"), MPoly.var("y") * c)
        assert len(scans) == 1
    for r in got:
        _same_terms(r.num, want)
        _same_terms(r.den, MPoly.const(1))


# -- substitution against the per-term loop -----------------------------------

def _per_term_substitute(p, binding):
    """The per-term substitution loop that grouped substitution replaced.

    Each term gets its own chain of products through the power tables of
    the bound values' numerators and denominators; the test keeps it as
    the reference the one-pass substitution must reproduce term for term.
    """
    bound = [v for v in p.vars if v in binding]
    if not bound or p.is_zero:
        return RatFun(p)
    rfs = {v: as_ratfun(binding[v]) for v in bound}
    idx = [p.vars.index(v) for v in bound]
    emax = {v: max(e[i] for e in p.terms) for v, i in zip(bound, idx)}
    npow = {v: [rfs[v].num ** k for k in range(emax[v] + 1)] for v in bound}
    dpow = {v: [rfs[v].den ** k for k in range(emax[v] + 1)] for v in bound}
    keep = [i for i in range(len(p.vars)) if p.vars[i] not in binding]
    keep_vars = tuple(p.vars[i] for i in keep)
    total = MPoly()
    for e, c in p.terms.items():
        part = MPoly._make(keep_vars, {tuple(e[i] for i in keep): c})
        for v, i in zip(bound, idx):
            part = part * npow[v][e[i]] * dpow[v][emax[v] - e[i]]
        total = total + part
    den = MPoly.const(1)
    for v in bound:
        den = den * dpow[v][emax[v]]
    return RatFun(total, den)


def _V(text):
    return parse_expr(text, U + ["y", "z"])


@st.composite
def bindings(draw):
    """A binding of one of the shapes the derivations substitute."""
    kind = draw(st.sampled_from(["constant", "monomial quotient",
                                 "polynomial", "partial", "kept variable",
                                 "zero", "self-shift", "swap", "shift down"]))
    if kind == "constant":
        return {"x": rat(draw(coeffs))}
    if kind == "zero":
        # the origin x = 0
        return {"x": rat(0)}
    if kind == "self-shift":
        # the shift x -> q*x: the bound name is also in its value
        return {"x": _V("q*x")}
    if kind == "swap":
        # simultaneous, not chained: y must not become x and then y again
        return {"x": _V("y"), "y": _V("x")}
    if kind == "shift down":
        return {"x": _V("x/q")}
    if kind == "monomial quotient":
        # the shape of the kny balance solution n8 = k1^2 k2^2/(q n1...n7)
        return {"x": _V("k1^2*k2^2/(q*a1*a2*a3*th1*th2*t)")}
    if kind == "polynomial":
        return {"x": as_ratfun(draw(mpolys(names=("w", "y"), max_terms=3,
                                           max_exp=2)))}
    if kind == "partial":
        den = draw(mpolys(names=("q", "w"), max_terms=2, max_exp=2)
                   .filter(bool))
        return {"y": RatFun(draw(mpolys(names=("w", "z"), max_terms=2,
                                        max_exp=2)), den),
                "z": rat(draw(coeffs)), "m": _V("q + 1")}
    text = draw(st.sampled_from(["y", "y/z", "z^2 - y", "2*y*z/(z + 1)"]))
    return {"x": _V(text)}


@settings(max_examples=120, deadline=None)
@given(mpolys(max_terms=6, max_exp=3), bindings())
@example(_V("x^2*y + 3*x*y - x*z + 5").num,
         {"x": _V("k1^2*k2^2/(q*a1*a2*a3*th1*th2*t)")})
@example(_V("x^2*y - 3*y^3 + x").num, {"x": _V("y"), "y": _V("x")})
@example(_V("x^2*y - 3*x + 2").num, {"x": rat(0)})
@example(_V("x^3 + q*x - 1").num, {"x": _V("x/q")})
def test_grouped_substitution_matches_the_per_term_loop(p, binding):
    got = p.substitute(binding)
    want = _per_term_substitute(p, binding)
    for g, w in ((got.num, want.num), (got.den, want.den)):
        assert g.vars == w.vars
        assert g.terms == w.terms


# -- normalisation against the per-variable loop ------------------------------

def _shift_down(p, var, m):
    i = p.vars.index(var)
    return MPoly._make(p.vars,
                       {e[:i] + (e[i] - m,) + e[i + 1:]: c
                        for e, c in p.terms.items()})


def _per_variable_normalise(num, den):
    """The per-variable normalisation that the one-pass shift replaced.

    Each variable of both parts loses its lowest exponent in both, one
    ``_shift_down`` per variable; then the denominator's signed content is
    divided out.  The test keeps it as the reference the one-pass
    normalisation of ``RatFun`` must reproduce term for term.
    """
    if num.is_zero:
        return MPoly(), MPoly.const(1)
    if den.is_const():
        return num * (1 / den.const_value()), MPoly.const(1)
    for v in set(num.vars) & set(den.vars):
        m = min(min(e[p.vars.index(v)] for e in p.terms) for p in (num, den))
        if m:
            num = _shift_down(num, v, m)
            den = _shift_down(den, v, m)
    inv = 1 / den.content_signed()
    return num * inv, den * inv


@st.composite
def monomials(draw, names=("x", "y", "z")):
    m = MPoly.const(1)
    for name in names:
        m = m * MPoly.var(name) ** draw(st.integers(0, 3))
    return m


@settings(max_examples=150, deadline=None)
@given(mpolys(max_terms=4, max_exp=3), mpolys(max_terms=4, max_exp=3)
       .filter(bool), monomials(), monomials())
@example(MPoly.var("x"), MPoly.var("x") * MPoly.var("y"),
         MPoly.const(1), MPoly.const(1))
@example(_V("x^2*y + 3*x^3").num, _V("-2*x*y^2 + x^2*z").num,
         MPoly.var("y"), MPoly.var("z"))
def test_one_pass_normalisation_matches_the_per_variable_loop(p, d, a, b):
    num, den = p * a, d * b
    got = RatFun(num, den)
    want_num, want_den = _per_variable_normalise(num, den)
    _same_terms(got.num, want_num)
    _same_terms(got.den, want_den)


# -- quotients: substitution and division against evaluation -----------------

@st.composite
def quotients(draw):
    """A quotient whose numerator and denominator both use x and y, at
    different top powers: x^3 only above, y^3 only below."""
    x, y = MPoly.var("x"), MPoly.var("y")
    num = draw(mpolys(names=("x", "y"), max_terms=3, max_exp=2)) + x ** 3 * y
    den = draw(mpolys(names=("y", "z"), max_terms=3, max_exp=2)) + x * y ** 3
    return RatFun(num, den)


@st.composite
def values(draw):
    """A rational function of y, z and w, as a bound value."""
    den = draw(mpolys(names=("w", "z"), max_terms=2, max_exp=2).filter(bool))
    return RatFun(draw(mpolys(names=("y", "w"), max_terms=3, max_exp=2)), den)


points = st.fixed_dictionaries(
    {v: st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
     for v in ("x", "y", "z", "w")})


def _value_at(f, point):
    """f at point, or None where a denominator vanishes."""
    try:
        return f.evaluate(point)
    except ZeroDivisionError:
        return None


@settings(max_examples=80, deadline=None)
@given(quotients(), values(), values(), points)
def test_quotient_substitution_commutes_with_evaluation(f, bx, by, point):
    binding = {"x": bx, "y": by}
    inner = {v: _value_at(binding[v], point) for v in binding}
    assume(None not in inner.values())
    want = _value_at(f, {**point, **inner})
    assume(want is not None)
    # the result's denominator is f's at the bound values times powers
    # of the values' denominators, all nonzero at point
    assert f.substitute(binding).evaluate(point) == want


@settings(max_examples=80, deadline=None)
@given(quotients(), quotients(), points)
def test_division_commutes_with_evaluation(f, g, point):
    a, b = _value_at(f, point), _value_at(g, point)
    assume(a is not None and b)
    assert (f / g).evaluate(point) == a / b
    if a:
        assert (g / f).evaluate(point) == b / a


def test_substitution_and_division_build_one_ratfun():
    f = _V("(x^3*y + z)/(x*y^3 - 2*z)")
    g = _V("(y + 1)/(z - x)")
    binding = {"x": _V("y/(w + 1)"), "y": _V("(z - 1)/(w^2 + z)")}
    with pytest.MonkeyPatch.context() as mp:
        built = _counter(mp, RatFun, "__init__")
        sub = f.substitute(binding)
        assert len(built) == 1
        quo = f / g
        assert len(built) == 2
    assert ratfun_eq(quo * g, f)
    point = {"w": Fraction(2), "y": Fraction(5), "z": Fraction(3)}
    inner = {v: binding[v].evaluate(point) for v in binding}
    assert sub.evaluate(point) == f.evaluate({**point, **inner})


def test_equation_substitute_coerces_its_binding_once():
    # 12 coercions plus the coefficients' results; coercing inside every
    # coefficient's substitution built 46
    from qheun.lax import reference_equation
    eq = reference_equation("kny", "D5")
    names = sorted({v for n in ("P", "Z", "M") for c in eq.side(n)
                    for v in c.variables()})
    assert len(names) == 12
    binding = {v: Fraction(k + 2, 3) for k, v in enumerate(names)}
    with pytest.MonkeyPatch.context() as mp:
        built = _counter(mp, RatFun, "__init__")
        got = eq.substitute(binding)
    assert len(built) <= 20
    coerced = {v: as_ratfun(c) for v, c in binding.items()}
    for n in ("P", "Z", "M"):
        assert [str(c) for c in got.side(n)] == [
            str(c.substitute(coerced)) for c in eq.side(n)]


def test_limit_at_zero():
    k, l = sym("k1"), sym("l")
    assert ratfun_eq(limit_at_zero(k * l ** 2 / (7 * l ** 2), "l"),
                     k / rat(7))
    with pytest.raises(DivergesAtZero):
        limit_at_zero(P("(l+l^2*t)/(l^2)"), "l")
    assert limit_at_zero(P("l^2/(l+q*l^2)"), "l").is_zero
    r = P("(t + l*d)/(q + l^3)")
    assert ratfun_eq(limit_at_zero(r, "l"), P("t/q"))


@settings(max_examples=30, deadline=None)
@given(mpolys(names=("l", "t"), max_terms=4, max_exp=3),
       mpolys(names=("l", "t"), max_terms=4, max_exp=3),
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
@example(MPoly.var("t"), MPoly.var("l") + MPoly.var("t"), Fraction(0))
def test_limit_consistency(a, b, tv):
    if b.is_zero:
        return
    r = RatFun(a, b)
    try:
        lim = r.limit_at_zero("l")
    except DivergesAtZero:
        return
    # the defining property: r - lim must itself tend to 0
    assert (r - lim).limit_at_zero("l").is_zero
    # numeric spot check away from accidental poles: where the lowest
    # l-coefficient of the denominator vanishes at t = tv, r(l, tv) has a
    # limit other than the generic one (t/(l + t) is 0 at t = 0, not 1)
    den = r.den.univariate("l")
    if not den[min(den)].evaluate({"t": tv}):
        return
    try:
        lv = lim.evaluate({"t": tv})
        v = r.evaluate({"l": Fraction(1, 10 ** 9), "t": tv})
    except ZeroDivisionError:
        return
    assert abs(v - lv) < Fraction(1, 1000)


# -- parser / printer ------------------------------------------------------

def test_parse_basics():
    assert ratfun_eq(P("q^2*k1"), sym("q") ** 2 * sym("k1"))
    assert P("1/2 + 1/3").const_value() == Fraction(5, 6)
    mu1 = P("(l-a1*t)*(l-a2*t)/(q*k1*m)")
    top = (sym("l") - sym("a1") * sym("t")) * (sym("l") - sym("a2") * sym("t"))
    assert ratfun_eq(mu1, top / (sym("q") * sym("k1") * sym("m")))


def test_parse_grammar_shapes():
    # unary minus binds inside the power per the grammar: -x^2 == (-x)^2
    assert ratfun_eq(parse_expr("-x^2", ["x"]), parse_expr("x^2", ["x"]))
    assert ratfun_eq(parse_expr("0 - x^2", ["x"]),
                     -parse_expr("x^2", ["x"]))
    assert ratfun_eq(P("2*q/3/t"), rat(2, 3) * sym("q") / sym("t"))
    assert ratfun_eq(P("q^0"), rat(1))
    assert ratfun_eq(P("- -q"), sym("q"))


def test_parse_errors():
    with pytest.raises(UnknownParameter):
        parse_expr("zeta+1", ["q"])
    for bad in ["q+", "(q", "q^(2)", "q^-1", "2**3", "", "q q"]:
        with pytest.raises(ParseError):
            parse_expr(bad, ["q"])
    try:
        parse_expr("q + + q", ["q"])
    except ParseError as e:
        assert e.offset == 4
    with pytest.raises(ParseError, match="division by zero"):
        parse_expr("1/0", [])


def test_parse_nesting_is_bounded():
    # deeper input would exhaust the recursive parser's stack instead
    deep = MAX_NESTING
    assert ratfun_eq(P("(" * deep + "q" + ")" * deep), sym("q"))
    assert ratfun_eq(P("-" * deep + "q"), sym("q"))
    assert ratfun_eq(P("-(" * (deep // 2) + "q" + ")" * (deep // 2)),
                     sym("q"))
    for bad in ("(" * 5000 + "q" + ")" * 5000, "-" * 5000 + "q",
                "(" * (deep + 1) + "q" + ")" * (deep + 1)):
        with pytest.raises(ParseError, match="nesting"):
            P(bad)


def test_parse_error_quotes_a_window():
    bad = "q*" * 2500 + "q + + q" + "*q" * 2500
    with pytest.raises(ParseError) as info:
        parse_expr(bad, ["q"])
    assert info.value.offset == 5004
    assert len(str(info.value)) < 200
    assert str(info.value) == "expected a value at offset 5004: %r" % (
        "…" + bad[4984:5024] + "…")
    with pytest.raises(ParseError, match="'q \\+ \\+ q'"):
        parse_expr("q + + q", ["q"])


def test_power_has_a_term_budget():
    # C(k+t-1, t-1) bounds the terms of a t-term polynomial to the k,
    # for the numerator and the denominator separately
    assert len(P("(q + t + 1)^21").num.terms) == 253 <= MAX_TERMS
    assert len(P("(q + 1)^%d" % (MAX_TERMS - 1)).num.terms) == MAX_TERMS
    assert ratfun_eq(P("q^100000") / P("q^99999"), sym("q"))
    for bad in ("(q + t + 1)^22", "(q + t + 1)^100", "(q + 1)^%d" % MAX_TERMS,
                "(1/(q + t + 1))^100", "(q + 1)^" + "9" * 400):
        with pytest.raises(ParseError, match="power"):
            P(bad)


def test_power_has_a_bit_budget():
    # the coefficients of (7/11)^k have k*ceil(log2 11) = 4k bits at most;
    # a coefficient +-1 costs nothing, so q^100000 stays within the budget
    k = MAX_BITS // 4
    assert P("(7/11)^%d" % k) == rat(Fraction(7, 11) ** k)
    assert P("(2*q)^%d" % MAX_BITS) == rat(2 ** MAX_BITS) * sym("q") ** MAX_BITS
    big = "9" * 2000                    # 6644 bits
    assert len(P("(q + %s)^9" % big).num.terms) == 10
    for bad in ("(7/11)^%d" % (k + 1), "(7/11)^1000000",
                "(2*q)^%d" % (MAX_BITS + 1), "(q + %s)^10" % big):
        with pytest.raises(ParseError, match="bits"):
            P(bad)


@pytest.fixture
def default_digit_cap():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_integers_past_the_digit_cap_raise_parse_error(default_digit_cap):
    # outside the CLI, Python refuses int() of more than 4300 digits; the
    # parser says so as a ParseError instead of a bare ValueError
    assert P("1" * 4300) == rat(int("1" * 4300))
    for bad in ("q^" + "9" * 5000, "1" * 4301, "2*q + " + "7" * 5000):
        with pytest.raises(ParseError, match="4300 digits"):
            P(bad)
    sys.set_int_max_str_digits(0)
    assert P("1" * 5000) == rat(int("1" * 5000))


def test_only_decimal_digits_are_read_as_integers():
    # str.isdigit accepts superscripts, which int() refuses
    for bad in ("2\u00b2", "q^\u00b2"):
        with pytest.raises(ParseError):
            P(bad)


def test_unknown_parameter_quotes_a_bounded_name():
    with pytest.raises(UnknownParameter) as info:
        parse_expr("q + " + "z" * 10000, ["q"])
    assert len(str(info.value)) < 200
    assert str(info.value) == "unknown parameter %r at offset 4" % (
        "z" * 40 + "…")
    with pytest.raises(UnknownParameter, match="'zeta' at offset 2"):
        parse_expr("1+zeta", ["q"])


@settings(max_examples=60, deadline=None)
@given(mpolys(names=("q", "t", "x"), max_terms=5, max_exp=4),
       mpolys(names=("q", "t", "x"), max_terms=3, max_exp=3))
def test_print_parse_round_trip(a, b):
    if b.is_zero:
        b = MPoly.const(1)
    r = RatFun(a, b)
    again = parse_expr(str(r), ["q", "t", "x"])
    assert ratfun_eq(r, again)


def test_print_is_canonical():
    one_way = P("x^2 + q*x + 1 - x*q")
    other = P("1 + x^2")
    assert str(one_way) == str(other) == "x^2 + 1"
    assert str(P("0 - x^2 + x") * -1) == "x^2 - x"
    assert str(rat(0)) == "0"
    assert str(-sym("x") * sym("q")) == "-1*q*x"


def test_termops_exports_the_kernel_names():
    # the benchmark reads BACKEND and wraps the three term-dict loops
    assert termops.BACKEND == "pure"
    a, b = {(1,): Fraction(2)}, {(1,): Fraction(-2), (0,): Fraction(1)}
    assert termops.add_terms(a, b) == {(0,): 1}
    assert termops.sub_terms(a, a) == {}
    assert termops.mul_terms(a, b) == {(2,): -4, (1,): 2}
