"""Shift-system catalogs and their reduction to three-term equations.

Two catalogs are provided.  The first ("murata") holds 2x2 matrix pencils
A(x) for first-order systems Y(qx) = A(x) Y(x); eliminating the second
component of Y leaves a three-term relation for the first, and a
parameter restriction followed by an exponential-factor strip turns the
relation into a polynomial-coefficient equation.  The second ("kny")
holds first-order operator pencils in the shift z -> qz together with an
auxiliary scalar g; freezing the pencil's extra variable at its catalog
value and clearing denominators again leaves a three-term equation.

For every family the recorded summary row is stored as transcribed,
except for four slips in the kny rows that are corrected in place; each
correction carries a comment with its reason.  ``verify_family`` replays
the derivation and compares it against the row slot by slot.  The
degree-one slot of the non-shifted coefficient (the accessory slot) is
granted sign latitude; every other slot must agree exactly after the
row's leading-coefficient normalisation.
"""

from .symkernel import (as_ratfun, limit_at_zero, parse_expr, rat,
                        ratfun_eq, sym)
from . import xpoly
from .qdiff import QDiffEq, ThreeTermRelation


class InvariantViolation(ValueError):
    """A structural identity of a catalog family failed to hold."""


class SubstitutionSingular(ValueError):
    """Freezing the pencil variable made a denominator vanish identically."""


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


def _mu(text):
    return parse_expr(text, _MURATA_UNIVERSE)


def _kn(text):
    return parse_expr(text, _KNY_UNIVERSE)


def _bind(expr, binding):
    if not binding:
        return expr
    return expr.substitute(binding)


def _checked_binding(family, binding, allowed):
    """The binding with RatFun values; every name must be in ``allowed``."""
    binding = dict(binding or {})
    for name in binding:
        if name not in allowed:
            raise ValueError("parameter %r not used by family %s"
                             % (name, family))
    return {name: as_ratfun(value) for name, value in binding.items()}


class MurataParams:
    """Parameter set for a matrix-pencil family, optionally bound.

    ``binding`` maps parameter names to exact values.  For the A4 family
    the eigenvalue product constraint th1*th2 = -k1*k2*a1*a2*a3 is
    checked as soon as every symbol in it is bound.
    """

    __slots__ = ("family", "binding")

    def __init__(self, family, binding=None):
        if family not in MURATA_FAMILIES:
            raise ValueError("unknown matrix-pencil family %r" % (family,))
        self.family = family
        self.binding = _checked_binding(
            family, binding, _MURATA_SHARED + _MURATA_EXTRA[family])
        if "w" in self.binding and self.binding["w"].is_zero:
            raise InvariantViolation("off-diagonal scale w must not vanish")
        if family == "A4":
            needed = ("th1", "th2", "k1", "k2", "a1", "a2", "a3")
            if all(name in self.binding for name in needed):
                lhs = self.binding["th1"] * self.binding["th2"]
                rhs = -(self.binding["k1"] * self.binding["k2"]
                        * self.binding["a1"] * self.binding["a2"]
                        * self.binding["a3"])
                if not ratfun_eq(lhs, rhs):
                    raise InvariantViolation(
                        "A4 binding breaks th1*th2 = -k1*k2*a1*a2*a3")


class LaxMatrix:
    """A 2x2 matrix pencil A(x) with its family tag.

    ``binding`` repeats the parameter binding the entries were built
    with, so that later shifts x -> qx can use the bound base.
    """

    __slots__ = ("family", "a11", "a12", "a21", "a22", "binding")

    def __init__(self, family, a11, a12, a21, a22, binding=None):
        self.family = family
        self.a11 = a11
        self.a12 = a12
        self.a21 = a21
        self.a22 = a22
        self.binding = dict(binding or {})

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def at_origin(self):
        """Entries evaluated at x = 0, as a 4-tuple."""
        zero = {"x": rat(0)}
        return (self.a11.substitute(zero), self.a12.substitute(zero),
                self.a21.substitute(zero), self.a22.substitute(zero))


_MURATA_DET = {
    "A4": "k1*k2*(x - a1*t)*(x - a2*t)*(x - a3)",
    "A5": "k1*k2*x*(x - a1*t)*(x - a2*t)",
    "A5s": "k1*k2*x*(x - a1*t)*(x - a3)",
    "A6": "k1*k2*x^2*(x - a1*t)",
    "A6s": "k1*k2*x^2*(x - a3)",
    "A7": "k1*k2*x^3",
    "A7p": "k1*k2*x^2",
}

_MURATA_EIGS = {
    family: ("th1*t", "th2*t") if family == "A4" else ("th1*t", "0")
    for family in MURATA_FAMILIES
}

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


def _murata_entries(family, binding):
    q, l, m, k1, k2, w, x = (sym(n) for n in ("q", "l", "m", "k1", "k2",
                                              "w", "x"))
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
    entries = (a11, a12, a21, a22)
    return tuple(_bind(e, binding) for e in entries)


def _murata_elimination(binding):
    """A4 comparisons hold on the constraint surface; eliminate one theta."""
    binding = binding or {}
    if "th2" not in binding:
        expr = _bind(_mu("-k1*k2*a1*a2*a3/th1"), binding)
        return {"th2": expr}
    if "th1" not in binding:
        expr = _bind(_mu("-k1*k2*a1*a2*a3/th2"), binding)
        return {"th1": expr}
    return {}


def _eq_on_surface(a, b, subst):
    if ratfun_eq(a, b):
        return True
    if subst:
        return ratfun_eq(a.substitute(subst), b.substitute(subst))
    return False


def build_murata(params):
    """Construct the matrix pencil and check its structural identities.

    Checks that the determinant equals the recorded factored product,
    and that trace and determinant at x = 0 match the recorded
    eigenvalue pair (for A4, on the constraint surface).  Raises
    InvariantViolation on any failure.
    """
    family, binding = params.family, params.binding
    mat = LaxMatrix(family, *_murata_entries(family, binding),
                    binding=binding)
    surface = _murata_elimination(binding) if family == "A4" else {}
    det = mat.det()
    stated = _bind(_mu(_MURATA_DET[family]), binding)
    if not _eq_on_surface(det, stated, surface):
        raise InvariantViolation("%s determinant differs from its recorded "
                                 "factorisation" % family)
    a11, _, _, a22 = mat.at_origin()
    eig1, eig2 = (_bind(_mu(e), binding) for e in _MURATA_EIGS[family])
    if not _eq_on_surface(a11 + a22, eig1 + eig2, surface):
        raise InvariantViolation("%s trace at the origin differs from the "
                                 "eigenvalue sum" % family)
    if not _eq_on_surface(det.substitute({"x": rat(0)}), eig1 * eig2,
                          surface):
        raise InvariantViolation("%s determinant at the origin differs from "
                                 "the eigenvalue product" % family)
    return mat


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


def _reduced(r, variable):
    """Cancel any common polynomial factor in ``variable`` from r."""
    num, den = xpoly.from_ratfun(as_ratfun(r), variable)
    if xpoly.degree(den) > 0:
        g = xpoly.gcd(num, den)
        if xpoly.degree(g) > 0:
            num = xpoly.divexact(num, g)
            den = xpoly.divexact(den, g)
    v = sym(variable)
    return xpoly.eval_at(num, v) / xpoly.eval_at(den, v)


def _as_equation(up, mid, low, variable):
    return QDiffEq.from_scalar_coefficients(
        _reduced(up, variable), _reduced(mid, variable),
        _reduced(low, variable), variable)


def _strip_factor(eq, p, q):
    """Divide the unknown by u with u(qx) = p(x) u(x): P*p(x), Z, M/p(x/q).

    This is the linear gauge with the factor p(x/q) all sides then share
    cleared; ``q`` is the symbol q or its bound value.  Raises
    InvariantViolation when p(x/q) does not divide M.
    """
    p_x = xpoly.as_xpoly(p, eq.variable)
    p_down = xpoly.shift_arg(p_x, as_ratfun(1) / q)
    try:
        m = xpoly.divexact(eq.M, p_down)
    except ValueError:
        raise InvariantViolation("p(%s/q) does not divide M" % eq.variable)
    return QDiffEq(xpoly.mul(eq.P, p_x), eq.Z, m, eq.variable)


# Recipes for turning the generic relation into the summary-row equation.
# "set" restricts a parameter, "limit" then sends l -> 0, "prediv" divides
# the unknown by a linear function before stripping, and "strip" is the
# p(x) of the exponential factor u(qx) = p(x) u(x) that _strip_factor
# removes, leaving P*p(x), Z, M/p(x/q).
_MURATA_RECIPES = {
    ("A4", "paper"): {"set": ("l", "a3"), "strip": "q*x - a1*t"},
    ("A5", "paper"): {"set": ("l", "a1*t"), "prediv": "x/q - a1*t",
                      "strip": "x - a1*t"},
    ("A5s", "paper"): {"set": ("l", "a3"), "strip": "q*x - a1*t"},
    ("A6", "paper"): {"set": ("l", "a1*t"), "prediv": "x/q - a1*t",
                      "strip": "x - a1*t"},
    ("A6s", "paper"): {"set": ("l", "a3"), "strip": "q^2*x - a3"},
    ("A5", "alt"): {"set": ("m", "(a1*a2*t/(q*th1))*(1 + d*l)"),
                    "limit": True},
    ("A6", "alt"): {"set": ("m", "l*(l - a1*t)*(1 + d*l)/(q*th1*t)"),
                    "limit": True},
    ("A7", "alt"): {"set": ("m", "l^2*(1 + d*l)/(q*th1*t)"), "limit": True,
                    "strip": "q*x"},
    ("A7p", "alt"): {"set": ("m", "th1*t/(q*k1*k2) + d*l"), "limit": True},
}

#: the variant whose output is the recorded summary row
MURATA_TABLE_VARIANT = {"A4": "paper", "A5": "paper", "A5s": "paper",
                        "A6": "paper", "A6s": "paper",
                        "A7": "alt", "A7p": "alt"}

#: the specialization routes each family admits
MURATA_VARIANTS = {family: tuple(v for f, v in _MURATA_RECIPES if f == family)
                   for family in MURATA_FAMILIES}


def specialize(family, variant, relation, binding=None):
    """Restrict parameters and strip factors to reach the summary row.

    ``variant`` selects between the restriction l -> root of the low
    coefficient ("paper") and the substitution for m followed by the
    limit l -> 0 ("alt"); not every family admits both.  ``binding``
    must repeat the binding the relation was built with, less what the
    recipe fixes (ValueError), so that the recipe's own expressions are
    restricted consistently.  Limits that do not exist raise DivergesAtZero.
    """
    recipe = _MURATA_RECIPES.get((family, variant))
    if recipe is None:
        raise ValueError("family %s has no %r variant" % (family, variant))
    binding = {name: as_ratfun(value)
               for name, value in (binding or {}).items()}
    qv = binding.get("q", _mu("q"))
    name, text = recipe["set"]
    fixed = {name, "l" if recipe.get("limit") else name} & binding.keys()
    if fixed:
        raise ValueError("the %s %s recipe fixes %s; it cannot be bound"
                         % (family, variant, min(fixed)))
    relation = relation.substitute({name: _bind(_mu(text), binding)})
    up, mid, low = relation.up, relation.mid, relation.low
    if recipe.get("limit"):
        up, mid, low = (limit_at_zero(c, "l") for c in (up, mid, low))
    if "prediv" in recipe:
        m0 = _bind(_mu(recipe["prediv"]), binding)
        x = sym("x")
        m1 = m0.substitute({"x": qv * x})
        m2 = m0.substitute({"x": qv * qv * x})
        mid = mid * (m1 / m2)
        low = low * (m0 / m2)
    eq = _as_equation(up, mid, low, relation.variable)
    if "strip" in recipe:
        eq = _strip_factor(eq, _bind(_mu(recipe["strip"]), binding), qv)
    return eq


class KNYParams:
    """Parameter set for an operator-pencil family, optionally bound.

    When every symbol in it is bound, the balance constraint
    k1^2 * k2^2 = q * n1 * ... * n8 is checked.
    """

    __slots__ = ("family", "binding")

    _NAMES = ("q", "g", "d", "k1", "k2",
              "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")

    def __init__(self, family, binding=None):
        if family not in KNY_FAMILIES:
            raise ValueError("unknown operator-pencil family %r" % (family,))
        self.family = family
        self.binding = _checked_binding(family, binding, self._NAMES)
        needed = ("q", "k1", "k2", "n1", "n2", "n3", "n4",
                  "n5", "n6", "n7", "n8")
        if all(name in self.binding for name in needed):
            b = self.binding
            lhs = (b["k1"] * b["k1"]) * (b["k2"] * b["k2"])
            rhs = b["q"]
            for i in range(1, 9):
                rhs = rhs * b["n%d" % i]
            if not ratfun_eq(lhs, rhs):
                raise InvariantViolation(
                    "binding breaks k1^2*k2^2 = q*n1*...*n8")


class KNYOperator:
    """Coefficients of a pencil c_plus T + c_zero + c_minus T^-1."""

    __slots__ = ("family", "c_plus", "c_zero", "c_minus", "binding")

    def __init__(self, family, c_plus, c_zero, c_minus, binding=None):
        self.family = family
        self.c_plus = c_plus
        self.c_zero = c_zero
        self.c_minus = c_minus
        self.binding = dict(binding or {})


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


def build_kny(params):
    """Assemble the pencil coefficients with the extra variable frozen.

    The pencil's free variable f is replaced by n4, its fixed point in
    the catalog; a denominator vanishing identically under that
    substitution raises SubstitutionSingular.
    """
    family, binding = params.family, params.binding
    g = sym("g")
    freeze = {"f": sym("n4")}
    c_plus = rat(0)
    c_zero = rat(0)
    c_minus = rat(0)
    for text, action in _KNY_TERMS[family]:
        try:
            # freezing makes most z-denominators cancellable; reduce each
            # term right away so the sums stay small
            c = _reduced(_kn(text).substitute(freeze), "z")
        except ZeroDivisionError:
            raise SubstitutionSingular(
                "freezing f = n4 annihilates a denominator in %s" % family)
        if action == "1":
            c_zero = c_zero + c
        elif action == "g-":
            c_zero = c_zero + c * g
            c_minus = c_minus - c
        elif action == "+g":
            c_plus = c_plus + c
            c_zero = c_zero - c / g
        else:
            c_plus = c_plus - c
            c_zero = c_zero + c / g
    try:
        coeffs = tuple(_bind(c, binding)
                       for c in (c_plus, c_zero, c_minus))
    except ZeroDivisionError:
        raise SubstitutionSingular(
            "binding annihilates a denominator in %s" % family)
    return KNYOperator(family, *coeffs, binding=binding)


def kny_to_equation(op, apply_gauge=False):
    """Clear denominators of the pencil into a three-term equation.

    For the families whose summary row records a gauged form (E3a, E2a,
    A1w8), ``apply_gauge`` additionally strips the factor u with
    u(qz) = p(z) u(z), p(z) = q z - n4, which turns (P, Z, M) into
    (P*p(z), Z, M/p(z/q)); for other families the flag has no effect.
    """
    eq = _as_equation(op.c_plus, op.c_zero, op.c_minus, "z")
    if apply_gauge and op.family in KNY_GAUGED:
        eq = _strip_factor(eq, _bind(_kn("q*z - n4"), op.binding),
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


def reference_equation(catalog, family):
    """The recorded summary row as an equation, with d and g left free."""
    row, _, parse, variable = _catalog_tables(catalog, family)
    p, zc, mc = (parse(text) for text in row)
    return QDiffEq.from_scalar_coefficients(p, zc, mc, variable)


def accessory_formula(catalog, family):
    """Recorded closed form of the accessory parameter, or None."""
    _, text, parse, _ = _catalog_tables(catalog, family)
    return None if text is None else parse(text)


def derive_equation(catalog, family, binding=None):
    """Replay the full derivation of a family's summary-row equation."""
    if catalog == "murata":
        params = MurataParams(family, binding)
        relation = scalar_reduce(build_murata(params))
        return specialize(family, MURATA_TABLE_VARIANT[family], relation,
                          binding=params.binding)
    if catalog == "kny":
        params = KNYParams(family, binding)
        op = build_kny(params)
        return kny_to_equation(op, apply_gauge=family in KNY_GAUGED)
    raise ValueError("unknown catalog %r" % (catalog,))


def _kny_elimination(binding):
    """Eliminate one parameter by the balance constraint, if any is free."""
    binding = binding or {}
    for name in ("n8", "n7"):
        if name not in binding:
            others = [n for n in ("n1", "n2", "n3", "n4", "n5", "n6",
                                  "n7", "n8") if n != name]
            text = "k1^2*k2^2/(q*" + "*".join(others) + ")"
            return {name: _bind(_kn(text), binding)}
    return {}


def verify_family(catalog, family, binding=None):
    """Compare the replayed derivation against the recorded summary row.

    The derived equation is scaled so its leading shifted-coefficient
    slot matches the row's, the recorded accessory closed form (if any)
    is substituted for d, and constrained parameters are eliminated on
    both sides.  Every slot is then compared exactly; the degree-one
    slot of the non-shifted coefficient may also match with its sign
    flipped.  Returns a report dict with keys "catalog", "family",
    "match", "accessoryMap" and "discrepancies".
    """
    binding = {name: as_ratfun(value)
               for name, value in (binding or {}).items()}
    derived = derive_equation(catalog, family, binding)
    reference = reference_equation(catalog, family)
    formula = accessory_formula(catalog, family)
    subst = dict(binding)
    if formula is not None:
        subst["d"] = _bind(formula, binding)
    if catalog == "murata":
        surface = _murata_elimination(binding) if family == "A4" else {}
    else:
        surface = _kny_elimination(binding)

    def restrict(r, extra=None):
        r = as_ratfun(r)
        if extra:
            r = r.substitute(extra)
        if surface:
            r = r.substitute(surface)
        return r

    top = max(reference.degree, derived.degree)
    lead = next((k for k in range(top, -1, -1)
                 if not reference.coeff("P", k).is_zero), 0)
    ref_lead = restrict(reference.coeff("P", lead), subst)
    der_lead = restrict(derived.coeff("P", lead))
    scale = ref_lead / der_lead if not der_lead.is_zero else rat(1)

    match = True
    accessory_map = None
    discrepancies = []
    for side in ("P", "Z", "M"):
        for degree in range(top + 1):
            der = restrict(derived.coeff(side, degree)) * scale
            ref = restrict(reference.coeff(side, degree), subst)
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
