"""Shift-system catalogs and their reduction to three-term equations.

Two catalogs are provided.  The first ("murata") holds 2x2 matrix pencils
A(x) for first-order systems Y(qx) = A(x) Y(x); eliminating the second
component of Y leaves a three-term relation for the first, and a
parameter restriction followed by an exponential-factor strip (the
cleared linear gauge ``QDiffEq.move_factor``) turns the relation into a
polynomial-coefficient equation.  The second ("kny") holds first-order
operator pencils in the shift z -> qz together with an auxiliary scalar
g; freezing the pencil's extra variable f at its catalog value n4 and
clearing denominators again leaves a three-term equation.
``derive_equation`` is the one code that runs these steps in order, for
the recorded route or any other route a catalog admits.

No factor is searched for: only the factors each construction put in a
denominator are divided out (the root l of a12(x) and the prediv
m0(q^2 x) for murata; z - q*n4 in the kny "g-" term and the frozen
f - z, z - n4, in the kny sums).  Each division is ``MPoly.divide_exact``
on the term dicts of a numerator or a denominator, never Euclid over
rational-function coefficients: ``_cancel`` takes a factor out of both
parts, and ``kny_to_equation`` takes z - n4 out of the denominators that
hold it and multiplies the other sides by it.  The result is split into
coefficients of the shift variable once, as RatFun(num_k, den).  Each
parameter constraint is stated once, in ``_CONSTRAINTS``.

For every family the recorded summary row is stored as transcribed,
except for four slips in the kny rows that are corrected in place; each
correction carries a comment with its reason.  ``verify_family`` replays
the derivation on the family's constraint surface and compares it slot
by slot against the row on that surface.  The degree-one slot of the
non-shifted coefficient (the accessory slot) is granted sign latitude;
every other slot must agree exactly after the row's leading-coefficient
normalisation.

What depends only on a table text or on one family is built once, on
first use, and shared by every later call: each constant text's parse
(``_mu``/``_kn``), each family's symbolic pencil (``_murata_pencil``,
``_kny_pencil``), each recorded row (``reference_equation``), each
constraint solved for one of its names (``_solved``), each row with
its accessory closed form put in and its constraint solved for one name
(``_surface_row``) and each family's derivation with no binding on its
constraint surface (``_surface_derivation``).  The values are immutable
MPoly, RatFun and QDiffEq objects, and binding one builds new values and
leaves the shared one as it was, so no call's binding can leak into
another; a cache is keyed by names only, never by a binding.  Nothing is
built at import beyond the constraints.  The binding-dependent steps (the
elimination and the specialization at a binding) run on every call that
has a binding, and the comparison runs on every call.
``derive_equation`` is not cached: it replays every step on each call.
The murata pencils' structural identities hold symbolically, so they are
checked once, in the tests, not on each binding.
"""

import functools
from collections import namedtuple
from typing import NamedTuple

from .symkernel import (MPoly, RatFun, as_ratfun, limit_at_zero, parse_expr,
                        rat, ratfun_eq, sym)
from .qdiff import QDiffEq, ThreeTermRelation


class InvariantViolation(ValueError):
    """A structural identity of a catalog family failed to hold."""


class SubstitutionSingular(ValueError):
    """A binding or the frozen pencil made a denominator vanish identically."""


class UnknownRoute(ValueError):
    """No such derivation route; the message lists the routes there are."""


MURATA_FAMILIES = ("A4", "A5", "A5s", "A6", "A6s", "A7", "A7p")
KNY_FAMILIES = ("D5", "A4w", "E3a", "E3b", "E2a", "E2b", "A1w", "A1w8")

#: families whose summary row records the form after the extra linear gauge
KNY_GAUGED = ("E3a", "E2a", "A1w8")

_MURATA_SHARED = ("q", "t", "l", "m", "w", "d", "k1", "k2")
_MURATA_EXTRA = {
    "A4": ("th1", "th2", "a1", "a2", "a3"),
    "A5": ("th1", "a1", "a2"),
    "A5s": ("th1", "a1", "a3"),
    "A6": ("th1", "a1"),
    "A6s": ("th1", "a3"),
    "A7": ("th1",),
    "A7p": ("th1",),
}
_MURATA_UNIVERSE = ("x", "q", "t", "l", "m", "w", "d", "k1", "k2",
                    "th1", "th2", "a1", "a2", "a3")
_KNY_UNIVERSE = ("z", "f", "q", "g", "d", "k1", "k2",
                 "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")


@functools.cache
def _mu(text):
    return parse_expr(text, _MURATA_UNIVERSE)


@functools.cache
def _kn(text):
    return parse_expr(text, _KNY_UNIVERSE)


# Each family's parameter constraint: a polynomial that vanishes on its
# surface, and the names it is linear in, in the order they are solved for.
_BALANCE = (_kn("q*n1*n2*n3*n4*n5*n6*n7*n8 - k1^2*k2^2"),
            ("n8", "n7", "n6", "n5", "n4", "n3", "n2", "n1", "q"))
_CONSTRAINTS = {"A4": (_mu("th1*th2 + k1*k2*a1*a2*a3"),
                       ("th2", "th1", "k1", "k2", "a1", "a2", "a3")),
                **{family: _BALANCE for family in KNY_FAMILIES}}


def _checked_binding(family, binding, allowed):
    """The binding with RatFun values.  Every name must be in ``allowed``
    (ValueError), and a binding that fixes every symbol of the family's
    constraint must satisfy it (InvariantViolation)."""
    binding = dict(binding or {})
    for name in binding:
        if name not in allowed:
            raise ValueError("parameter %r not used by family %s"
                             % (name, family))
    binding = {name: as_ratfun(value) for name, value in binding.items()}
    expr, _ = _CONSTRAINTS.get(family, (rat(0), ()))
    if set(expr.variables()) <= binding.keys() and expr.substitute(binding):
        raise InvariantViolation("%s binding breaks %s = 0" % (family, expr))
    return binding


@functools.cache
def _solved(family, name):
    """The family's constraint solved for ``name``, which it holds linearly.

    It depends only on the family and the name, so it is built once."""
    expr, _ = _CONSTRAINTS[family]
    coeff = expr.num.univariate(name)
    return -as_ratfun(coeff.get(0, 0)) / as_ratfun(coeff[1])


def _surface(family, binding):
    """The family's constraint solved for the first of its names the
    binding leaves free, as a bound one-entry substitution, or {} (no name
    free, or the bound constraint is 0); SubstitutionSingular when the
    binding zeroes that name's coefficient but not the constraint.

    For kny a binding of q and every n_i gives {}: only k1 and k2 are left,
    and the balance is quadratic in them."""
    expr, names = _CONSTRAINTS.get(family, (None, ()))
    for name in names:
        if name not in binding:
            try:
                return {name: _solved(family, name).substitute(binding)}
            except ZeroDivisionError:
                if not expr.substitute(binding):
                    return {}
                raise SubstitutionSingular(
                    "%s binding zeroes the coefficient of %s in %s = 0"
                    % (family, name, expr)) from None
    return {}


class MurataParams(namedtuple("_MurataParams", "family binding")):
    """Parameter set for a matrix-pencil family, optionally bound, as an
    immutable named-tuple record.

    ``binding`` maps names to exact values; q = 0 and w = 0 are refused.
    The A4 constraint in ``_CONSTRAINTS`` is checked once all of it is bound.
    ``_replace`` and ``_make`` build a record without these checks.
    """

    __slots__ = ()

    def __new__(cls, family, binding=None):
        if family not in MURATA_FAMILIES:
            raise UnknownRoute("unknown matrix-pencil family %r (have %s)"
                               % (family, ", ".join(MURATA_FAMILIES)))
        binding = _checked_binding(
            family, binding, _MURATA_SHARED + _MURATA_EXTRA[family])
        if any(binding.get(name, 1) == 0 for name in ("q", "w")):
            raise InvariantViolation("base q and scale w must be nonzero")
        return super().__new__(cls, family, binding)


class LaxMatrix(namedtuple("_LaxMatrix", "family a11 a12 a21 a22 binding")):
    """A 2x2 matrix pencil A(x) with its family tag, as an immutable record.

    ``binding`` is the dict of the parameter binding the entries were
    built with, so that later shifts x -> qx can use the bound base.
    """

    __slots__ = ()

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21


_MU1 = {
    "A4": "(l - a1*t)*(l - a2*t)/(q*k1*m)",
    "A5": "(l - a1*t)*(l - a2*t)/(q*k1*m)",
    "A5s": "l*(l - a1*t)/(q*k1*m)",
    "A6": "l*(l - a1*t)/(q*k1*m)",
    "A6s": "l^2/(q*k1*m)",
    "A7": "l^2/(q*k1*m)",
    "A7p": "l^2/(q*k1*m)",
}

_MU2 = {
    "A4": "q*k1*k2*m*(l - a3)",
    "A5": "q*k1*k2*m*l",
    "A5s": "q*k1*k2*m*(l - a3)",
    "A6": "q*k1*k2*m*l",
    "A6s": "q*k1*k2*m*(l - a3)",
    "A7": "q*k1*k2*m*l",
    "A7p": "q*k1*k2*m",
}

_GAMMA_SHIFT = {
    "A4": "(a1 + a2)*t + a3",
    "A5": "(a1 + a2)*t",
    "A5s": "a1*t + a3",
    "A6": "a1*t",
    "A6s": "a3",
    "A7": "0",
}


@functools.cache
def _murata_pencil(family):
    """The symbolic entries (a11, a12, a21, a22) of one family's pencil."""
    l, k1, k2, w, x = (sym(n) for n in ("l", "k1", "k2", "w", "x"))
    mu1 = _mu(_MU1[family])
    mu2 = _mu(_MU2[family])
    theta = _mu("(th1 + th2)*t" if family == "A4" else "th1*t")
    if family == "A7p":
        alpha = (theta - k1 * mu1 - mu2) / (l * k1)
        gamma = mu2 - k2
        delta = -(mu2 * (alpha * l + mu1)) / l
        a22 = mu2
    else:
        alpha = ((theta - k1 * mu1 - mu2) / l + k2) / k1
        gamma = mu2 - k2 * (rat(2) * l + alpha - _mu(_GAMMA_SHIFT[family]))
        if family == "A4":
            delta = -(_mu("k2*a1*a2*a3*t^2")
                      - (alpha * l + mu1) * (k2 * l - mu2)) / l
        else:
            delta = (alpha * l + mu1) * (k2 * l - mu2) / l
        a22 = k2 * (x - l) + mu2
    a11 = k1 * ((x - l) * (x - alpha) + mu1)
    a12 = w * (x - l)
    a21 = (k1 / w) * (gamma * x + delta)
    return a11, a12, a21, a22


def build_murata(params):
    """Construct the matrix pencil of a parameter set.

    Raises SubstitutionSingular when the binding zeroes a denominator of
    the entries (l = 0 or m = 0) or, for A4, the coefficient of the name
    ``_surface`` solves the constraint for.  The pencil's identities (the
    factored determinant, the trace and determinant at x = 0) hold
    symbolically, for A4 modulo its constraint, so no accepted binding
    breaks them.
    """
    family, binding = params.family, params.binding
    try:
        entries = tuple(e.substitute(binding) for e in _murata_pencil(family))
    except ZeroDivisionError:
        raise SubstitutionSingular("%s binding zeroes a denominator of the "
                                   "pencil" % family) from None
    _surface(family, binding)
    return LaxMatrix(family, *entries, binding=binding)


def scalar_reduce(mat):
    """Eliminate the second component of Y(qx) = A(x) Y(x).

    Returns the three-term relation
    up * y(q^2 x) + mid * y(q x) + low * y(x) = 0 satisfied by the first
    component, with up = 1.  The off-diagonal scale w cancels from mid
    and low; the result carries no occurrence of it.
    """
    qv = mat.binding.get("q", sym("q"))
    qx = {"x": qv * sym("x")}
    a11_q = mat.a11.substitute(qx)
    a12_q = mat.a12.substitute(qx)
    ratio = a12_q / mat.a12
    mid = -(a11_q + ratio * mat.a22)
    low = ratio * mat.det()
    return ThreeTermRelation(rat(1), mid, low, "x")


def _divisor(factor, variable):
    """The numerator of a named factor less its monomial content free of
    ``variable``: a monomial such as the q of q*(x - a) need not divide
    what x - a divides, and dividing out x - a alone leaves the same value.
    """
    p = as_ratfun(factor).num
    content = MPoly.const(1)
    for i, name in enumerate(p.vars):
        if name != variable:
            content = content * MPoly.var(name) ** min(e[i] for e in p.terms)
    return p.divide_exact(content)


def _cancel(r, factors, variable):
    """(numerator, denominator) of r after the named factors are divided
    exactly out of both parts.

    The division is ``MPoly.divide_exact``, by each factor's numerator
    less its ``variable``-free monomial content (``_divisor``).  A factor
    the denominator no longer holds (RatFun's own cancellation took it) is
    skipped.  InvariantViolation when the numerator lacks a factor the
    denominator held.
    """
    r = as_ratfun(r)
    num, den = r.num, r.den
    for factor in factors:
        f = _divisor(factor, variable)
        try:
            den_q = den.divide_exact(f)
        except ValueError:
            continue
        try:
            num = num.divide_exact(f)
        except ValueError:
            raise InvariantViolation("%s divides a denominator but not its "
                                     "numerator" % factor) from None
        den = den_q
    return num, den


def _split(num, den, variable):
    """num/den as a polynomial in ``variable``, a list of RatFun(num_k,
    den); InvariantViolation when a denominator in ``variable`` is left."""
    if variable in den.vars:
        raise InvariantViolation("a denominator in %s is left" % variable)
    coeff = num.univariate(variable)
    return [RatFun(coeff[k], den) if k in coeff else rat(0)
            for k in range(max(coeff, default=-1) + 1)]


def _strip_factor(eq, p, q):
    """Divide the unknown by u with u(qx) = p(x) u(x): P*p(x), Z, M/p(x/q).

    This is ``QDiffEq.move_factor``; ``q`` is the symbol q or its bound
    value.  Raises InvariantViolation when p(x/q) does not divide M.
    """
    try:
        return eq.move_factor(p, q)
    except ValueError:
        raise InvariantViolation("p(%s/q) does not divide M" % eq.variable)


# Recipes for turning the generic relation into the summary-row equation.
# "set" restricts a parameter, "limit" then sends l -> 0, "prediv" divides
# the unknown by a linear function before stripping, and "strip" is the
# p(x) of the exponential factor u(qx) = p(x) u(x) that _strip_factor
# removes, leaving P*p(x), Z, M/p(x/q).  The first recipe listed for a
# family is the route its summary row records.
_MURATA_RECIPES = {
    ("A4", "paper"): {"set": ("l", "a3"), "strip": "q*x - a1*t"},
    ("A5", "paper"): {"set": ("l", "a1*t"), "prediv": "x/q - a1*t",
                      "strip": "x - a1*t"},
    ("A5", "alt"): {"set": ("m", "(a1*a2*t/(q*th1))*(1 + d*l)"),
                    "limit": True},
    ("A5s", "paper"): {"set": ("l", "a3"), "strip": "q*x - a1*t"},
    ("A6", "paper"): {"set": ("l", "a1*t"), "prediv": "x/q - a1*t",
                      "strip": "x - a1*t"},
    ("A6", "alt"): {"set": ("m", "l*(l - a1*t)*(1 + d*l)/(q*th1*t)"),
                    "limit": True},
    ("A6s", "paper"): {"set": ("l", "a3"), "strip": "q^2*x - a3"},
    ("A7", "alt"): {"set": ("m", "l^2*(1 + d*l)/(q*th1*t)"), "limit": True,
                    "strip": "q*x"},
    ("A7p", "alt"): {"set": ("m", "th1*t/(q*k1*k2) + d*l"), "limit": True},
}

#: the specialization routes each family admits, the recorded one first
MURATA_VARIANTS = {family: tuple(v for f, v in _MURATA_RECIPES if f == family)
                   for family in MURATA_FAMILIES}

#: the variant whose output is the recorded summary row
MURATA_TABLE_VARIANT = {family: variants[0]
                        for family, variants in MURATA_VARIANTS.items()}


def specialize(family, variant, relation, binding=None):
    """Restrict parameters and strip factors to reach the summary row.

    ``variant`` selects between the restriction l -> root of the low
    coefficient ("paper") and the substitution for m followed by the
    limit l -> 0 ("alt"); not every family admits both.  ``binding``
    must repeat the binding the relation was built with, less what the
    recipe fixes (ValueError), so that the recipe's own expressions are
    restricted consistently.  Limits that do not exist raise DivergesAtZero;
    a binding that zeroes a denominator of the set value or of the relation
    at it (t = 0 in A7, a1 = 0 in A5) raises SubstitutionSingular.

    Unless the recipe takes a limit, mid and low lose the factor x - l
    that the ratio a12(qx)/a12(x) of scalar_reduce put in their
    denominators (l at its set value), and a prediv recipe's m0(q^2 x)
    too; InvariantViolation if these do not clear the denominators.
    """
    recipe = _MURATA_RECIPES.get((family, variant))
    if recipe is None:
        have = ", ".join(MURATA_VARIANTS.get(family, ())) or "none"
        raise UnknownRoute("family %s has no %r variant (have %s)"
                           % (family, variant, have))
    binding = binding or {}
    qv = binding.get("q", _mu("q"))
    name, text = recipe["set"]
    fixed = {name, "l" if recipe.get("limit") else name} & binding.keys()
    if fixed:
        raise ValueError("the %s %s recipe fixes %s; it cannot be bound"
                         % (family, variant, min(fixed)))
    try:
        value = _mu(text).substitute(binding)
        relation = relation.substitute({name: value})
    except ZeroDivisionError:
        raise SubstitutionSingular("%s binding zeroes a denominator at %s = %s"
                                   % (family, name, text)) from None
    up, mid, low = relation.up, relation.mid, relation.low
    x = sym("x")
    factors = () if recipe.get("limit") else (x - value,)
    if recipe.get("limit"):
        up, mid, low = (limit_at_zero(c, "l") for c in (up, mid, low))
    if "prediv" in recipe:
        m0 = _mu(recipe["prediv"]).substitute(binding)
        m1 = m0.substitute({"x": qv * x})
        m2 = m0.substitute({"x": qv * qv * x})
        mid = mid * (m1 / m2)
        low = low * (m0 / m2)
        factors += (m2,)
    eq = QDiffEq(*(_split(*_cancel(c, factors, "x"), "x")
                   for c in (up, mid, low)), "x")
    if "strip" in recipe:
        eq = _strip_factor(eq, _mu(recipe["strip"]).substitute(binding), qv)
    return eq


class KNYParams(namedtuple("_KNYParams", "family binding")):
    """Parameter set for an operator-pencil family, optionally bound, as
    an immutable named-tuple record.

    When every symbol in it is bound, the balance constraint of
    ``_CONSTRAINTS`` is checked.  The KNY_GAUGED families refuse k1 = 0,
    which removes their only up-shift term.  ``_replace`` and ``_make``
    build a record without these checks.
    """

    __slots__ = ()

    _NAMES = ("q", "g", "d", "k1", "k2",
              "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")

    def __new__(cls, family, binding=None):
        if family not in KNY_FAMILIES:
            raise UnknownRoute("unknown operator-pencil family %r (have %s)"
                               % (family, ", ".join(KNY_FAMILIES)))
        binding = _checked_binding(family, binding, cls._NAMES)
        if family in KNY_GAUGED and binding.get("k1", 1) == 0:
            raise InvariantViolation("k1 must not vanish in %s: it scales "
                                     "the only up-shift term" % family)
        return super().__new__(cls, family, binding)


class KNYOperator(NamedTuple):
    """Coefficients of a pencil c_plus T + c_zero + c_minus T^-1, as an
    immutable record; ``binding`` is as in LaxMatrix."""
    family: str
    c_plus: RatFun
    c_zero: RatFun
    c_minus: RatFun
    binding: dict


# Each pencil is a sum of terms: a rational coefficient times one of
#   "1"       the identity,
#   "g-"      (g - T^-1),
#   "+g"      (T - 1/g),
#   "-g"      (1/g - T).
_KNY_TERMS = {
    "D5": (("z*(g*n1 - 1)*(g*n2 - 1)/(q*g)", "1"),
           ("-n1*n2*n3*n4*(g - n5/k2)*(g - n6/k2)/(f*g)", "1"),
           ("n1*n2*(z - q*n3)*(z - q*n4)/(q*(q*f - z))", "g-"),
           ("(z - k1/n7)*(z - k1/n8)/(q*(f - z))", "-g")),
    "A4w": (("n1*n2*n3*n4*(g - n5/k2)*(g - n6/k2)/(f*g)", "1"),
            ("(g*n1 - 1)*z/(q*g)", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("(z - k1/n7)*(z - k1/n8)/(q*(f - z))", "+g")),
    "E3a": (("n1*n2*n3*n4*(g - n5/k2)*(g - n6/k2)/(f*g)", "1"),
            ("n1*z/q", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("-(k1/n8)*(z - k1/n7)/(q*(f - z))", "+g")),
    "E3b": (("(g - n5/k2)*n1*n2*n3*n4/f", "1"),
            ("(g*n1 - 1)*z/(q*g)", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("z*(z - k1/n8)/(q*(f - z))", "+g")),
    "E2a": (("(g - n5/k2)*n1*n2*n3*n4/f", "1"),
            ("n1*z/q", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("-(k1/n8)*z/(q*(f - z))", "+g")),
    "E2b": (("g*n1*n2*n3*n4/f", "1"),
            ("(g*n1 - 1)*z/(q*g)", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("z*(z - k1/n8)/(q*(f - z))", "+g")),
    "A1w": (("g*n1*n2*n3*n4/f", "1"),
            ("-z/(q*g)", "1"),
            ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
            ("z*(z - k1/n8)/(q*(f - z))", "+g")),
    "A1w8": (("g*n1*n2*n3*n4/f", "1"),
             ("n1*z/q", "1"),
             ("n1*n2*n3*(z/q - n4)/(f - z/q)", "g-"),
             ("-(k1/n8)*z/(q*(f - z))", "+g")),
}


@functools.cache
def _kny_pencil(family):
    """The frozen symbolic (c_plus, c_zero, c_minus) of one family."""
    g = sym("g")
    freeze = {"f": sym("n4")}
    c_plus = c_zero = c_minus = rat(0)
    for text, action in _KNY_TERMS[family]:
        try:
            c = _kn(text).substitute(freeze)
        except ZeroDivisionError:
            raise SubstitutionSingular(
                "freezing f = n4 annihilates a denominator in %s" % family)
        if action == "1":
            c_zero = c_zero + c
        elif action == "g-":
            c = RatFun(*_cancel(c, (_kn("z - q*n4"),), "z"))
            c_zero = c_zero + c * g
            c_minus = c_minus - c
        else:
            if action == "-g":
                c = -c
            c_plus = c_plus + c
            c_zero = c_zero - c / g
    return c_plus, c_zero, c_minus


def build_kny(params):
    """Assemble the pencil coefficients with the extra variable frozen.

    The pencil's free variable f is replaced by n4, its fixed point in
    the catalog; a denominator vanishing identically under that
    substitution raises SubstitutionSingular, as does a binding that
    zeroes a denominator of the frozen pencil.  The factor z - q*n4 that
    freezing puts in both parts of the "g-" term is cancelled there.

    The frozen symbolic pencil depends on the family alone, so it is
    built once, on first use, and shared: RatFun values are immutable,
    so binding them leaves the shared pencil as it was.
    """
    family, binding = params.family, params.binding
    try:
        coeffs = tuple(c.substitute(binding) for c in _kny_pencil(family))
    except ZeroDivisionError:
        raise SubstitutionSingular(
            "binding annihilates a denominator in %s" % family)
    return KNYOperator(family, *coeffs, binding=binding)


def _times(num, den, f):
    """(numerator, denominator) of (num/den)*f: f's numerator is divided
    out of den when den holds it, and multiplies num otherwise."""
    try:
        return num, den.divide_exact(f.num) * f.den
    except ValueError:
        return num * f.num, den * f.den


def kny_to_equation(op, apply_gauge=False):
    """Clear denominators of the pencil into a three-term equation.

    The one denominator in z is z - n4, the frozen f - z of the "+g" and
    "-g" terms; while some coefficient holds it, every side is multiplied
    by it: divided out of the denominators that hold it, multiplied into
    the other numerators.

    For the families whose summary row records a gauged form (E3a, E2a,
    A1w8), ``apply_gauge`` additionally strips the factor u with
    u(qz) = p(z) u(z), p(z) = q z - n4, which turns (P, Z, M) into
    (P*p(z), Z, M/p(z/q)); for other families the flag has no effect.
    """
    sides = [(c.num, c.den) for c in (op.c_plus, op.c_zero, op.c_minus)]
    if any("z" in den.vars for _, den in sides):
        f = _kn("z - n4").substitute(op.binding)
        sides = [_times(num, den, f) for num, den in sides]
    eq = QDiffEq(*(_split(num, den, "z") for num, den in sides), "z")
    if apply_gauge and op.family in KNY_GAUGED:
        eq = _strip_factor(eq, _kn("q*z - n4").substitute(op.binding),
                           op.binding.get("q", sym("q")))
    return eq


# Recorded summary rows, coefficients of f(q.) / f(.) / f(./q), with the
# accessory degree-one slot of Z carried as the free symbol d (for rows
# that print one) and the auxiliary scalar g left in place.
_MURATA_ROWS = {
    "A4": ("q*x - a1*t",
           "-(q^2*k1*x^2 + d*x + (th1 + th2)*t)",
           "k1*k2*(q*x - a3)*(x - a2*t)"),
    "A5": ("x - a1*t",
           "-(q*k1*x^2 - d*x + th1*t)",
           "k1*k2*x*(x - a2*t)"),
    "A5s": ("q*x - a1*t",
            "-(q^2*k1*x^2 + d*x + th1*t)",
            "k1*k2*x*(q*x - a3)"),
    "A6": ("x - a1*t",
           "-(q*k1*x^2 - d*x + th1*t)",
           "k1*k2*x^2"),
    "A6s": ("q^2*x - a3",
            "-(q^2*k1*x^2 - d*x + th1*t)",
            "k1*k2*x^2"),
    "A7": ("q*x",
           "-(q^2*k1*x^2 - q*th1*t*d*x + th1*t)",
           "q*k1*k2*x^2"),
    "A7p": ("1",
            "-q*(q*k1*x^2 + q*k1*k2*d*x + th1*t)",
            "q*k1*k2*x^2"),
}

# Every kny row prints its accessory slot as q*d, as E3b was transcribed;
# the other rows that carry d had it bare, so the recorded closed forms,
# which share a factor 1/q, missed the slot by a factor of q.
_KNY_ROWS = {
    # the recorded constant slot is a product of two square roots whose
    # product of conjugate factors collapses; it is stored here in the
    # equal surd-free form q*n3*n4*(n5 + n6)/k2.  The 1/g part of the
    # accessory slot is stored as (n4*n7 - k1)*(n4*n8 - k1), symmetric in
    # n7 <-> n8 like the pencil, where the transcription had n3*n7 in
    # place of n4*n8; its sign follows the pencil's convention for g
    "D5": ("(z - k1/n7)*(z - k1/n8)/(n1*n2)",
           "-((1/n1 + 1/n2)*z^2"
           " - (n4/n1 + n4/n2 + q*n3*n5/k2 + q*n3*n6/k2)*z"
           " + q*n3*n4*(n5 + n6)/k2)"
           " - (n4*n7 - k1)*(n4*n8 - k1)*z/(n1*n2*n4*n7*n8*g)",
           "(z - q*n3)*(z - n4)"),
    # M carries -q, as in E2b and A1w: with a plus sign the origin
    # exponents are not the k2/n5, k2/n6 the (g - n5/k2)(g - n6/k2)
    # factor promises
    "A4w": ("(z - k1/n7)*(z - k1/n8)",
            "-n1*z^2 + q*d*z - k1^2*k2*(n5 + n6)/(n5*n6*n7*n8)",
            "-q*n1*n2*n3*(z - n4)"),
    "E3a": ("(k1/n8)*(q*z - n4)*(z - k1/n7)",
            "n1*z^2 + q*d*z + k1^2*k2*(n5 + n6)/(n5*n6*n7*n8)",
            "q*n1*n2*n3"),
    # M carries -q for the same reason as A4w: the origin exponent must
    # be k2/n5, not -k2/n5
    "E3b": ("z*(z - k1/n8)",
            "-n1*z^2 + q*d*z - q*n1*n2*n3*n4*n5/k2",
            "-q*n1*n2*n3*(z - n4)"),
    "E2a": ("(k1/n8)*z*(q*z - n4)",
            "n1*z^2 + q*d*z + q*n1*n2*n3*n4*n5/k2",
            "q*n1*n2*n3"),
    "E2b": ("z*(z - k1/n8)",
            "-n1*z^2 + q*d*z",
            "-q*n1*n2*n3*(z - n4)"),
    "A1w": ("z*(z - k1/n8)",
            "q*d*z",
            "-q*n1*n2*n3*(z - n4)"),
    "A1w8": ("(k1/n8)*z*(q*z - n4)",
             "n1*z^2 - q*d*z",
             "q*n1*n2*n3"),
}

# Recorded closed forms for the accessory parameter d (None: d stays free).
_MURATA_ACCESSORY = {
    "A4": "q*k1*a3 + q*(th1 + th2)*t/a3 - (a3 - a1*t)*(a3 - a2*t)/(m*a3)",
    "A5": "q*k1*a1*t + th1/a1 - q*k1*k2*m",
    "A5s": "q*k1*a3 + q*th1*t/a3 - (a3 - a1*t)/m",
    "A6": "q*k1*a1*t + th1/a1 - q*k1*k2*m",
    "A6s": "q*k1*a3 + q*th1*t/a3 - a3/m",
    "A7": None,
    "A7p": None,
}

_KNY_ACCESSORY = {
    "D5": None,
    # the 1/g part takes the pencil's sign for g, as the other rows do
    "A4w": "n1*(q*n2*n3*(n5 + n6) + k2*n4)/(q*k2)"
           " - (k1 - n4*n7)*(k1 - n4*n8)/(q*n4*n7*n8*g)",
    # both parts on the common 1/q normalisation, in the form of A4w's
    "E3a": "-n1*(q*n2*n3*(n5 + n6) + k2*n4)/(q*k2)"
           " + k1*(k1 - n4*n7)/(q*n4*n7*n8*g)",
    "E3b": "n1*(q*n2*n3*n5 + k2*n4)/(q*k2) + (k1 - n4*n8)/(q*n8*g)",
    "E2a": "n1*(q*n2*n3*n5 + k2*n4)/(q*k2) + k1/(q*n8*g)",
    "E2b": "n1*n4/q + (k1 - n4*n8)/(q*n8*g)",
    "A1w": "(k1 - n4*n8)/(q*n8*g)",
    "A1w8": "n1*n4/q + k1/(q*n8*g)",
}


_CATALOGS = {"murata": (_MURATA_ROWS, _MURATA_ACCESSORY, _mu, "x"),
             "kny": (_KNY_ROWS, _KNY_ACCESSORY, _kn, "z")}


def _catalog_tables(catalog, family):
    """(row, accessory text, parser, variable) of one recorded family."""
    if catalog not in _CATALOGS:
        raise ValueError("unknown catalog %r" % (catalog,))
    rows, formulas, parse, variable = _CATALOGS[catalog]
    if family not in rows:
        raise ValueError("unknown family %r in catalog %s"
                         % (family, catalog))
    return rows[family], formulas[family], parse, variable


@functools.cache
def reference_equation(catalog, family):
    """The recorded summary row as an equation, with d and g left free.

    The row depends on (catalog, family) alone, so it is built once, on
    first use, and every caller shares it: QDiffEq is immutable.
    """
    row, _, parse, variable = _catalog_tables(catalog, family)
    return QDiffEq(*(_split(r.num, r.den, variable)
                     for r in map(parse, row)), variable)


def accessory_formula(catalog, family):
    """Recorded closed form of the accessory parameter, or None.

    The form is the shared parse of its table text (``_mu``/``_kn`` parse
    each text once), so every caller of one family gets the same
    immutable RatFun.
    """
    _, text, parse, _ = _catalog_tables(catalog, family)
    return None if text is None else parse(text)


def derive_equation(catalog, family, binding=None, variant=None, gauge=None):
    """Replay the full derivation of a family's summary-row equation.

    This is the one code that orders the derivation steps.  ``variant``
    selects a murata specialization route of MURATA_VARIANTS, ``gauge``
    whether kny_to_equation applies the extra linear gauge; None for
    either takes the route the summary row records.

    Raises UnknownRoute, a ValueError (unknown names; a gauge given for a
    murata row, a variant for a kny row, or a variant the family does not
    admit), ValueError (a binding of an unknown or recipe-fixed name),
    InvariantViolation (a binding that breaks a constraint or a record's
    checks, or a recipe whose factors do not clear its denominators),
    SubstitutionSingular (a binding that zeroes a denominator: of the kny
    pencil or the A4 constraint, of the murata pencil entries, as l = 0
    or m = 0, or of a recipe's set value or the relation at it, as a1 = 0
    in A5 or A6, a3 = 0 in A5s, t = 0 in A7 and k2 = 0 in A7p) and
    DivergesAtZero (a missing limit).
    """
    if catalog == "murata":
        if gauge is not None:
            raise UnknownRoute("the gauge only applies to the kny catalog")
        params = MurataParams(family, binding)
        relation = scalar_reduce(build_murata(params))
        if variant is None:
            variant = MURATA_TABLE_VARIANT[family]
        return specialize(family, variant, relation, binding=params.binding)
    if catalog == "kny":
        if variant is not None:
            raise UnknownRoute("a variant only applies to the murata catalog")
        op = build_kny(KNYParams(family, binding))
        if gauge is None:
            gauge = family in KNY_GAUGED
        return kny_to_equation(op, apply_gauge=gauge)
    raise UnknownRoute("unknown catalog %r (have murata, kny)" % (catalog,))


@functools.cache
def _pencil_divisor(catalog, family):
    """(name, value) of a pencil divisor a binding may not send to 0: the
    frozen f = n4 for kny; for murata what the recorded recipe sets l or m
    to, at l = 0 when the recipe sends l -> 0, or None when that is 0 for
    every binding (A7 sends m to 0 with l by design)."""
    if catalog == "kny":
        return "f", _kn("n4")
    recipe = _MURATA_RECIPES[family, MURATA_TABLE_VARIANT[family]]
    name, text = recipe["set"]
    value = _mu(text)
    if recipe.get("limit"):
        value = value.substitute({"l": rat(0)})
    return name, None if value.is_zero else value


@functools.cache
def _surface_derivation(catalog, family):
    """The derivation with no binding, on the family's constraint surface
    (``_surface``).  Binding-free, so built once per (catalog, family);
    ``derive_equation`` itself replays on every call."""
    return derive_equation(catalog, family, _surface(family, {}))


@functools.cache
def _surface_row(catalog, family, name):
    """The recorded row on its constraint surface: the accessory closed
    form put in for d and, unless ``name`` is None, the family's constraint
    solved for ``name`` (``_solved``).  Binding-free, so built once per
    (catalog, family, name)."""
    formula = accessory_formula(catalog, family)
    onto = {} if name is None else {name: _solved(family, name)}
    if formula is not None:
        onto["d"] = formula.substitute(onto)
    return reference_equation(catalog, family).substitute(onto)


def verify_family(catalog, family, binding=None):
    """Compare the replayed derivation against the recorded summary row.

    Both sides are compared on the family's constraint surface, with the
    recorded accessory closed form (if any) put in for d.  The derived
    equation is scaled so its leading shifted-coefficient slot matches
    the row's.  Every slot is then compared exactly; the degree-one slot
    of the non-shifted coefficient may also match with its sign flipped.
    Returns a report dict with keys "catalog", "family", "match",
    "accessoryMap" and "discrepancies".

    The derivation runs with the surface entry (``_surface``) added to
    the binding; deriving there equals deriving on the binding and
    substituting the entry afterwards.  A call with no binding (None or
    {}) takes that derivation from ``_surface_derivation``, built once per
    (catalog, family); a call with a binding replays it.  The row it is
    compared against is ``_surface_row``, built once per (catalog, family,
    surface name), so a call only puts its binding into that row.  The
    comparison runs, and a new report is built, on every call.  This pays
    when a family is verified repeatedly: on the benchmark's catalog
    workload every call after a family's first, at least 99% of a run,
    and half of those calls have no binding.  A single call, as in a
    fresh ``qheun verify``, builds each value once.

    Raises as derive_equation does (SubstitutionSingular for a murata
    binding that zeroes a pencil or recipe denominator included), and
    SubstitutionSingular when the binding zeroes a denominator of the
    constraint, the row or its closed form.  That includes a binding that
    makes the surface entry 0 where a denominator holds it: kny D5 with
    k1 = 0 puts n8 = 0, and the D5 pencil divides by n8.  So is one that,
    with the surface entry, sends the divisor of ``_pencil_divisor`` to 0:
    for kny f = n4, which every kny pencil divides by; for murata the
    recorded recipe's value of l or m, which binding l or m to 0 directly
    would refuse: A5 and A6 at t = 0 (l = a1*t) and A7p at th1*t = 0
    (m -> th1*t/(q*k1*k2)), where the derived equation is not the limit
    of the ones around it.
    """
    binding = {name: as_ratfun(value)
               for name, value in (binding or {}).items()}
    surface = _surface(family, binding)
    at = {**binding, **surface}
    derived = (derive_equation(catalog, family, at) if binding
               else _surface_derivation(catalog, family))
    name, value = _pencil_divisor(catalog, family)
    if value is not None and value.substitute(at).is_zero:
        raise SubstitutionSingular("%s binding sends %s = %s to 0, where the "
                                   "pencil divides by %s"
                                   % (family, name, value, name))
    reference = reference_equation(catalog, family)
    row = _surface_row(catalog, family, next(iter(surface), None))
    top = max(reference.degree, derived.degree)
    slots = [(side, k) for side in ("P", "Z", "M") for k in range(top + 1)]
    try:
        refs = {s: row.coeff(*s).substitute(binding) for s in slots}
    except ZeroDivisionError:
        raise SubstitutionSingular("%s binding zeroes a denominator of the "
                                   "row or its closed form" % family) from None
    lead = next((k for k in range(reference.degree, -1, -1)
                 if not reference.coeff("P", k).is_zero), 0)
    der_lead = derived.coeff("P", lead)
    scale = refs["P", lead] / der_lead if not der_lead.is_zero else rat(1)

    match, accessory_map, discrepancies = True, None, []
    for (side, degree), ref in refs.items():
        der = derived.coeff(side, degree) * scale
        if side == "Z" and degree == 1:
            accessory_map = ("asPrinted" if ratfun_eq(der, ref) else
                             "flipped" if ratfun_eq(der, -ref) else
                             "unresolved")
            if accessory_map != "unresolved":
                continue
        elif ratfun_eq(der, ref):
            continue
        match = False
        discrepancies.append({"side": side, "degree": degree,
                              "derived": str(der), "reference": str(ref)})
    return {"catalog": catalog, "family": family, "match": match,
            "accessoryMap": accessory_map, "discrepancies": discrepancies}
