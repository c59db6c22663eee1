"""Passage from three-term q-difference equations to Heun-class ODEs.

Write q = 1 + eps.  Expanding g(q*x) and g(x/q) around eps = 0 turns the
three coefficient rows into a second order differential operator,
provided nine scaled combinations of the rows converge.  The surviving
leading coefficients then decide which member of the Heun family the
limit is: the full equation, a confluent one, or a reduced shape with a
ramified irregular point.

Every entry is a rational function of eps and every limit is taken by
valuation, so the limit data is exact; there is no sampled or float
route into the limit.
"""

from collections import namedtuple
from fractions import Fraction

from .symkernel import (DivergesAtZero, as_ratfun, limit_at_zero,
                        parse_expr, rat, sym)
from .qdiff import QDiffEq
from .local import Resonance, char_exponents, quad_roots, series_solution

__all__ = [
    "AllZero", "EpsilonFamily", "HeunODE", "IrregularAtZero", "LimitData",
    "LimitDiverges", "ODE_CLASSES", "Unclassifiable", "classify_ode",
    "crosscheck", "emit_ode", "limit_coefficients", "ode_series",
    "preset_family", "preset_names", "preset_note", "preset_target",
]

SIGMAS = ("minus", "zero", "plus")

ODE_CLASSES = ("HE", "CHE", "ReducedCHE", "BHE", "DHE", "ReducedDHE",
               "DoublyReducedDHE", "THE", "Other")


class LimitDiverges(ArithmeticError):
    """A required eps -> 0 limit does not exist."""


class AllZero(ValueError):
    """Every limit coefficient vanished; there is no equation to emit."""


class Unclassifiable(ValueError):
    """The limit operator matches none of the catalogued patterns."""


class IrregularAtZero(ValueError):
    """No power-series branch exists at the origin."""


def _coerce_entry(value, parameter):
    if isinstance(value, str):
        return parse_expr(value, {parameter})
    r = as_ratfun(value)
    extra = set(r.variables()) - {parameter}
    if extra:
        raise ValueError("entry depends on %s; only %r is allowed"
                         % (sorted(extra), parameter))
    return r


class EpsilonFamily(namedtuple("_EpsilonFamily", "plus zero minus")):
    """Nine coefficient slots a[sigma][k] depending on one small parameter,
    as an immutable named-tuple record of three rows.

    sigma = "plus" multiplies g(q*x), "zero" multiplies g(x) and "minus"
    multiplies g(x/q); k in {0, 1, 2} is the x-degree of the slot, and
    q = 1 + eps.  Each entry is exact: a string parsed in eps, an int, a
    Fraction, or an MPoly or RatFun in eps.  Anything else, a float or a
    callable included, raises TypeError; another variable, ValueError.
    ``_replace`` and ``_make`` build a record without these checks.
    """

    __slots__ = ()

    #: the name of the small parameter in the entries
    parameter = "eps"

    def __new__(cls, plus, zero, minus):
        rows = (plus, zero, minus)
        for name, row in zip(cls._fields, rows):
            if len(row) != 3:
                raise ValueError("row %r must have exactly 3 entries" % name)
        return super().__new__(cls, *(
            tuple(_coerce_entry(v, cls.parameter) for v in row)
            for row in rows))

    def entry(self, sigma, k):
        if sigma not in SIGMAS:
            raise KeyError(sigma)
        return getattr(self, sigma)[k]

    def value(self, sigma, k, eps):
        return self.entry(sigma, k).evaluate({self.parameter: eps})

    def equation(self, eps) -> QDiffEq:
        """The three-term equation at one numeric eps, with q = 1 + eps;
        ZeroDivisionError at a pole of an entry (heun at eps = -1, q = 0)."""
        return QDiffEq(*([rat(Fraction(self.value(sigma, k, eps)))
                          for k in range(3)]
                         for sigma in ("plus", "zero", "minus")), "x")

    def __repr__(self):
        shape = ",".join(
            "".join("0" if v.is_zero else "1" for v in row)
            for row in (self.plus, self.zero, self.minus))
        return "EpsilonFamily(%s in %s)" % (shape, self.parameter)


_ZERO = Fraction(0)


def _coerce_int(value):
    # ints become Fractions once, where rows and limit data are built, so
    # that plain / stays exact everywhere downstream
    return Fraction(value) if isinstance(value, int) else value


class LimitData(namedtuple("_LimitData",
                           "b2 b1 b0 b21 b11 b01 b20 b10 b00")):
    """The nine limit coefficients, graded by x-degree and by order, as an
    immutable named-tuple record.

    b2, b1, b0 multiply g''; b21, b11, b01 correct the g' row; b20, b10,
    b00 make up the g row.  Integer entries are stored as Fractions, except
    in a record built by ``_replace`` or ``_make``, which skip that step.
    """

    __slots__ = ()

    def __new__(cls, *args, **kw):
        # the base binds the arguments to the nine fields
        return cls._make(map(_coerce_int, super().__new__(cls, *args, **kw)))

    def row(self, k):
        """(b_k, b_k1, b_k0) for one x-degree k."""
        return (getattr(self, "b%d" % k),
                getattr(self, "b%d1" % k),
                getattr(self, "b%d0" % k))

    def as_dict(self):
        return self._asdict()

    def __repr__(self):
        return "LimitData(%s)" % ", ".join(
            "%s=%s" % item for item in self._asdict().items())


def _limit_value(expr, parameter, what):
    try:
        v = limit_at_zero(expr, parameter)
    except DivergesAtZero as exc:
        raise LimitDiverges("%s: %s" % (what, exc)) from exc
    return v.const_value()


def limit_coefficients(fam: EpsilonFamily) -> LimitData:
    """Take the nine eps -> 0 limits of a family exactly, by valuation.

    Every coefficient is an exact rational.  Raises LimitDiverges naming
    the offending slot when a limit fails to exist, or when the slot
    values at eps = 0 are not the (b, -2b, b) that the limits force on
    each degree.
    """
    e = fam.parameter
    ev = sym(e)
    out = {}
    at0 = {}
    for sigma in SIGMAS:
        for k in range(3):
            at0[sigma, k] = _limit_value(
                fam.entry(sigma, k), e,
                "slot (%s, %d) has no finite value at %s = 0" % (sigma, k, e))
    for k in range(3):
        ap, az, am = (fam.entry(s, k) for s in ("plus", "zero", "minus"))
        out["b%d" % k] = _limit_value(
            (ap + am) / 2, e, "degree-%d half sum" % k)
        out["b%d1" % k] = _limit_value(
            (ap - am) / ev, e,
            "degree-%d first-order limit (shifted-row difference over %s)"
            % (k, e))
        out["b%d0" % k] = _limit_value(
            (ap + am + az) / (ev * ev), e,
            "degree-%d second-order limit (full row sum over %s^2)" % (k, e))
        # the three slot values at 0 are forced to (b, -2b, b); anything
        # else means the limits above were computed inconsistently
        b = out["b%d" % k]
        for sigma, want in (("plus", b), ("zero", -2 * b), ("minus", b)):
            if at0[sigma, k] != want:
                raise LimitDiverges(
                    "slot (%s, %d) has value %s at %s = 0, but the degree-%d "
                    "limits force %s" % (sigma, k, at0[sigma, k], e, k, want))
    return LimitData(**out)


class HeunODE(namedtuple("_HeunODE", "second first zeroth class_ rho "
                                     "limits singularities")):
    """Operator data of  x^2*S(x)*g'' + x*F(x)*g' + Q(x)*g = 0, as an
    immutable named-tuple record.

    second, first and zeroth hold the coefficient tuples of S, F and Q
    by ascending degree (quadratic rows for everything the q -> 1 limit
    emits; the triconfluent shape needs cubic entries), with integer
    entries stored as Fractions and trailing zeros dropped.  class_, rho,
    limits and singularities are classify_ode's output, never its input:
    rho is the power x^rho split off to clear the constant slot of the
    zeroth row, limits the limit data read off the rows.  ``_replace``
    and ``_make`` build a record without the trim and the all-zero check.
    """

    __slots__ = ()

    def __new__(cls, second, first, zeroth, class_=None, rho=None,
                limits=None, singularities=None):
        second, first, zeroth = _trim(second), _trim(first), _trim(zeroth)
        if not (second or first or zeroth):
            raise AllZero("every coefficient row is zero")
        return super().__new__(cls, second, first, zeroth, class_, rho,
                               limits, singularities)

    def coefficient(self, row, k):
        """Entry k of one row; Fraction(0) beyond the stored degree."""
        r = getattr(self, row)
        return r[k] if k < len(r) else _ZERO

    def padded(self, width):
        """The three rows (second, first, zeroth), each padded to width."""
        return tuple(tuple(self.coefficient(row, k) for k in range(width))
                     for row in ("second", "first", "zeroth"))

    @property
    def accessory(self):
        """The slot a canonical form leaves free once exponents are set."""
        if self.class_ == "THE":
            return self.coefficient("zeroth", 2)
        return self.coefficient("zeroth", 1)

    def __repr__(self):
        tag = self.class_ if self.class_ else "unclassified"
        return "HeunODE(%s, S=%s, F=%s, Q=%s)" % (
            tag, list(self.second), list(self.first), list(self.zeroth))


def _trim(row):
    row = [_coerce_int(v) for v in row]
    while row and row[-1] == 0:
        row.pop()
    return tuple(row)


def emit_ode(b: LimitData) -> HeunODE:
    """Assemble the limiting operator's rows, unclassified, from limit data."""
    if all(v == 0 for v in b):
        raise AllZero("all nine limit coefficients vanish")
    return HeunODE(
        (b.b0, b.b1, b.b2),
        (b.b01 + b.b0, b.b11 + b.b1, b.b21 + b.b2),
        (b.b00, b.b10, b.b20))


def _gauge_data(b, rho):
    """Limit data after the substitution g -> x^rho * g."""
    vals = {}
    for k in range(3):
        bk, bk1, bk0 = b.row(k)
        vals["b%d" % k] = bk
        vals["b%d1" % k] = bk1 + 2 * rho * bk
        vals["b%d0" % k] = bk0 + rho * (rho - 1) * bk + rho * (bk1 + bk)
    return LimitData(**vals)


def classify_ode(ode: HeunODE) -> HeunODE:
    """Decide which Heun-class pattern the operator realizes.

    The one decision of a class, read off the rows alone: the class_,
    rho, limits and singularities a record holds are ignored.  A nonzero
    constant slot of the zeroth row is first cleared by g -> x^rho * g,
    rho a root of the exponent equation at the origin; otherwise the rows
    are kept, so a classified record classifies to itself.  rho is
    recorded, and so is the limit data read off the rows, in ``limits``.
    Raises Unclassifiable (with a diagnostic) when no pattern fits.
    """
    if any(len(getattr(ode, r)) > 3 for r in ("second", "first", "zeroth")):
        return _classify_cubic(ode)
    s2, f1, q0 = ode.padded(3)
    b = LimitData(s2[2], s2[1], s2[0],
                  f1[2] - s2[2], f1[1] - s2[1], f1[0] - s2[0],
                  q0[2], q0[1], q0[0])
    rho = 0
    if b.b00 != 0:
        roots = quad_roots(b.b0, b.b01, b.b00)
        if not roots:
            raise Unclassifiable(
                "constant slot of the zeroth row is nonzero but the origin "
                "exponent equation is degenerate (b0 = b01 = 0)")
        rho = roots[0]
        b = _gauge_data(b, rho)
        # a float root leaves rounding residue, 0.0 or not, and the slot
        # is then the exact 0; anything larger means it was not a root
        if abs(b.b00) > 1e-9 * (1 + abs(b.b0) + abs(b.b01)):
            raise Unclassifiable(
                "origin exponent relation not satisfied (residual %r)"
                % (b.b00,))
        b = b._replace(b00=_ZERO)
        ode = emit_ode(b)

    if b.b2 != 0:
        if b.b0 == 0:
            raise Unclassifiable(
                "quartic leading row with a double root at the origin "
                "(b2 != 0, b0 = 0) matches no catalogued confluence")
        if b.b1 * b.b1 == 4 * b.b0 * b.b2:
            raise Unclassifiable(
                "the two finite branch points collide "
                "(b1^2 = 4*b0*b2); the pattern is degenerate")
        r1, r2 = quad_roots(b.b2, b.b1, b.b0)
        label = "HE"
        sing = (0, r1, r2, "Infinity")
    elif b.b1 != 0 and b.b0 != 0:
        label = "ReducedCHE" if b.b21 == 0 else "CHE"
        sing = (0, -b.b0 / b.b1, "Infinity")
    elif b.b1 == 0 and b.b0 != 0:
        label = "BHE"
        sing = (0, "Infinity")
    elif b.b1 != 0:
        flags = (b.b21 == 0) + (b.b01 == 0)
        label = ("DHE", "ReducedDHE", "DoublyReducedDHE")[flags]
        sing = (0, "Infinity")
    else:
        raise Unclassifiable(
            "the whole second-derivative row vanishes in the limit")
    return ode._replace(class_=label, rho=rho, limits=b, singularities=sing)


def _classify_cubic(ode):
    s, f, q = ode.padded(4)
    the = (s[0] != 0 and s[1] == s[2] == s[3] == 0
           and f[3] != 0 and f[0] == f[2] == 0
           and q[0] == q[1] == 0)
    label = "THE" if the else "Other"
    return ode._replace(class_=label, rho=0, limits=None,
                        singularities=("Infinity",) if the else None)


def ode_series(ode: HeunODE, N=10):
    """Series coefficients c[0..N] of the origin branch with exponent 0.

    The class, the x^rho split and the limit data come from
    classify_ode(ode), not from the record; the coefficients expand the
    analytic factor, starting from c_0 = 1.  Raises Unclassifiable as
    classify_ode does, IrregularAtZero when the origin is ramified and
    no power branch exists, Resonance when the recurrence denominator
    vanishes at a finite order, and ValueError for cubic rows or a
    negative N.
    """
    if N < 0:
        raise ValueError("N must be nonnegative, not %d" % N)
    ode = classify_ode(ode)
    if ode.class_ in ("THE", "Other"):
        raise ValueError("series expansion is only provided for the "
                         "quadratic-row classes, not %r" % ode.class_)
    b = ode.limits
    if b.b0 == 0 and b.b01 == 0:
        raise IrregularAtZero(
            "origin is ramified (b0 = 0 and b01 = 0); the slot carries "
            "no exponent equation")
    exact = all(isinstance(v, (int, Fraction)) for v in b)
    c = [Fraction(1) if exact else 1.0]
    for m in range(1, N + 1):
        den = m * (b.b0 * m + b.b01)
        if den == 0:
            raise Resonance(
                "recurrence denominator vanishes at order %d" % m)
        acc = 0
        for j in (1, 2):
            n = m - j
            if n < 0:
                continue
            bj, bj1, bj0 = b.row(j)
            acc += (bj * n * (n - 1) + (bj1 + bj) * n + bj0) * c[n]
        c.append(-acc / den)
    return c


def crosscheck(fam: EpsilonFamily, eps, xs, N=12) -> float:
    """Largest gap between the q-series at q = 1 + eps and the ODE series.

    The q-side expands the family's equation at the given eps along the
    characteristic root closest to 1; the ODE side expands the exponent-0
    branch of the classified limit operator.  Both truncated sums are
    evaluated at the points xs and the maximal absolute difference is
    returned.  The comparison drops both power-law prefactors, so it is
    meaningful when the chosen q-branch tends to the exponent-0 branch
    (true for every shipped preset, whose unit root is exact).  The gaps
    stay exact up to one float conversion of their maximum; an empty xs
    or a nonzero maximum below the float range raises ValueError, not 0.0.
    At eps = 0 (q = 1) the q-series recurrence is resonant at order 1:
    Resonance, or DegenerateEquation if every origin corner vanishes.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("the sample xs is empty: no point to compare at")
    eps = Fraction(eps) if not isinstance(eps, (int, Fraction)) else eps
    eq = fam.equation(eps)
    ch = char_exponents(eq, at="Zero")
    if not ch.roots:
        raise ValueError("no characteristic root at the origin")
    idx = min(range(len(ch.roots)),
              key=lambda i: abs(complex(ch.roots[i]) - 1))
    sol = series_solution(eq, {"q": 1 + eps}, rootIndex=idx, N=N)
    d = ode_series(emit_ode(limit_coefficients(fam)), N=N)
    c = sol.coefficients
    gap = max((abs(sum(cn * x ** n for n, cn in enumerate(c))
                   - sum(dn * x ** n for n, dn in enumerate(d)))
               for x in xs))
    dev = float(gap)
    if gap and not dev:
        raise ValueError("a nonzero gap is below the float range")
    return dev


# -- shipped presets -------------------------------------------------------

def _family_from_row(catalog, family, binding):
    from .lax import reference_equation   # only these presets need lax
    eq = reference_equation(catalog, family).substitute(
        {name: parse_expr(text, {"eps"}) for name, text in binding.items()})
    return EpsilonFamily(*([eq.coeff(side, k) for k in range(3)]
                           for side in ("P", "Z", "M")))


def _heun_preset():
    # the base catalog row with both branch points frozen at 2 and 3;
    # the degree-0 and degree-2 row sums vanish identically, so s = 1 is
    # a characteristic root at every eps; n4*n8 = k1 kills the 1/g part
    # of the accessory slot, so the binding of g drops out of the row
    return _family_from_row("kny", "D5", {
        "q": "1 + eps",
        "k1": "1", "k2": "1",
        "n1": "1/(1 - eps)", "n2": "1/(1 + eps)",
        "n3": "2/(1 + eps)", "n4": "3",
        "n5": "1", "n6": "1 - eps^2",
        "n7": "1/2", "n8": "1/3",
        "g": "1/eps",
    })


def _confluent_preset():
    # the confluent catalog shape: the down-shift row is damped by
    # k1 = eps while a3 = -1/eps keeps its degree-0 and degree-1 slots
    # finite, which empties the x^2 column in the limit; the half-shift
    # rate on a2 puts the second origin exponent at 1/2
    return _family_from_row("murata", "A4", {
        "q": "1 + eps",
        "k1": "eps", "k2": "1 + eps",
        "a1": "2", "a2": "(2 + eps)/(1 + eps)", "a3": "-1/eps",
        "t": "1/2",
        "th1": "-4 - eps", "th2": "0",
        "d": "2 + eps - 5*eps^2/2 - eps^3/2",
    })


def _biconfluent_preset():
    # up-shift row of degree 0: both top slots drain through the
    # down-shift row at first order
    return EpsilonFamily(
        plus=("1 + eps/2", "0", "0"),
        zero=("-2 - eps/2", "eps + eps^2", "-eps - eps^2"),
        minus=("1", "-eps", "eps"))


def _doubly_confluent_preset():
    # up-shift row of pure degree 1: both ends of the diagram drain at
    # first order, leaving the middle column in charge
    return EpsilonFamily(
        plus=("0", "1", "0"),
        zero=("eps/2", "-2 + eps^2", "-eps - eps^2"),
        minus=("-eps/2", "1", "eps"))


_BRANCH_NOTE = ("the unit characteristic root at the origin is exact for "
                "every eps and tracks the exponent-0 branch of the limit")

_PRESETS = {
    "heun": (_heun_preset, "HE"),
    "confluent": (_confluent_preset, "CHE"),
    "biconfluent": (_biconfluent_preset, "BHE"),
    "doubly-confluent": (_doubly_confluent_preset, "DHE"),
}


def preset_names():
    return tuple(_PRESETS)


def _preset(name):
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError("unknown preset %r; have %s"
                         % (name, ", ".join(_PRESETS))) from None


def preset_family(name) -> EpsilonFamily:
    """A shipped eps-family by name."""
    return _preset(name)[0]()


def preset_target(name) -> str:
    """The ODE class the named preset limits to."""
    return _preset(name)[1]


def preset_note(name) -> str:
    """How the preset's q-branch maps to the ODE branch: the same for
    every shipped preset."""
    _preset(name)
    return _BRANCH_NOTE
