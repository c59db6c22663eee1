"""Local analysis of three-term equations at the origin and at infinity.

Exponents of trial solutions x^r(c0 + c1 x + ...) enter only through
s = q^r: at the origin the lowest-order balance gives a quadratic in s
built from the constant coefficient slots, at infinity the top-degree
balance gives the mirrored quadratic.  Generic series coefficients then
follow from a first-order recurrence; a vanishing recurrence denominator
is reported as resonance rather than patched with logarithms.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .qdiff import QDiffEq
from .symkernel import RatFun


class DegenerateEquation(ValueError):
    """All three extreme coefficient slots vanish; no exponent data."""


class Resonance(ZeroDivisionError):
    """A recurrence denominator vanished at some positive order."""


class UnboundParameter(ValueError):
    """A coefficient still contains a free parameter."""


_LOCATIONS = ("Zero", "Infinity")


class CharData(NamedTuple):
    """Quadratic c2 s^2 + c1 s + c0 for s = q^r at one boundary point,
    as an immutable record.

    ``roots`` holds the nonzero admissible values of s when all three
    coefficients are numeric, and None in symbolic mode (the quadratic
    itself is then the result).  ``regularity`` is "RegularLike" when
    both extreme coefficients are nonzero and "IrregularLike" otherwise.
    """
    location: str
    c2: RatFun
    c1: RatFun
    c0: RatFun
    roots: Optional[tuple]
    regularity: str


def exact_sqrt(f):
    """The rational square root of ``f``, or None if it has none."""
    f = Fraction(f)
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def quad_roots(a, b, c):
    """Roots of a*s^2 + b*s + c, sorted by real and then imaginary part.

    Rational data with a rational square discriminant gives exact
    Fraction roots.  Otherwise the square root is taken in complex
    floats, and a root whose imaginary part is rounding noise is
    returned as a real float.  When a = 0 the single root of the linear
    equation is returned, and no root when b = 0 as well.
    """
    # ints divide as Fractions, so integer data keeps exact roots
    a, b, c = (Fraction(v) if isinstance(v, int) else v for v in (a, b, c))
    if not a:
        return (-c / b,) if b else ()
    disc = b * b - 4 * a * c
    root = exact_sqrt(disc) if isinstance(disc, Fraction) else None
    if root is not None:
        pair = ((-b - root) / (2 * a), (-b + root) / (2 * a))
    else:
        if not isinstance(disc, complex) and disc < 0:
            # real data, complex roots: an exact conjugate pair, so the
            # sort orders it by the sign of the imaginary part, not noise
            re, im = float(-b / (2 * a)), math.sqrt(-disc) / abs(2 * a)
            pair = (complex(re, -im), complex(re, im))
        else:
            root = complex(disc) ** 0.5
            # -(b + root)/2 adds two terms pointing the same way, so the
            # root of larger modulus comes out without cancellation; the
            # other one follows from the product of the roots, c/a
            if (b.conjugate() * root).real < 0:
                root = -root
            big = -(b + root) / 2
            pair = (big / a, c / big if big else big)
        pair = [z.real if abs(z.imag) < 1e-13 * (1 + abs(z)) else z
                for z in pair]
    return tuple(sorted(pair, key=lambda z: (z.real, z.imag)))


def _nonzero(roots):
    # s = q^r is never zero, so a zero root admits no exponent
    return tuple(r for r in roots if r)


def char_exponents(eq: QDiffEq, at="Zero") -> CharData:
    """Characteristic quadratic for s = q^r at one boundary point.

    At "Zero" the quadratic is P0 s^2 + Z0 s + M0 from the constant
    slots; at "Infinity" it is M_D s^2 + Z_D s + P_D from the top degree
    D.  Raises DegenerateEquation when all three slots vanish.
    """
    if at not in _LOCATIONS:
        raise ValueError("unknown location %r" % (at,))
    if at == "Zero":
        c2, c1, c0 = (eq.coeff(n, 0) for n in ("P", "Z", "M"))
    else:
        top = eq.degree
        c2, c1, c0 = (eq.coeff(n, top) for n in ("M", "Z", "P"))
    if c2.is_zero and c1.is_zero and c0.is_zero:
        raise DegenerateEquation(
            "no exponent data at %s: extreme coefficients all vanish" % at)
    regularity = ("RegularLike"
                  if not c2.is_zero and not c0.is_zero else "IrregularLike")
    roots = None
    if c2.is_const() and c1.is_const() and c0.is_const():
        roots = _nonzero(quad_roots(c2.const_value(), c1.const_value(),
                                    c0.const_value()))
    return CharData(at, c2, c1, c0, roots, regularity)


class SeriesSolution(NamedTuple):
    """Truncated local solution x^r (c[0] + c[1] x + ... + c[N] x^N), as
    an immutable record.

    The exponent enters as s = q^r only.  c[0] = 1.  ``sides`` keeps the
    numeric coefficient values (P, Z, M lists by degree) the series was
    computed against, for callers that rebuild its recurrence.
    """
    location: str
    s: object
    coefficients: tuple
    q: object
    binding: dict
    sides: dict

    def __repr__(self):
        return ("SeriesSolution(%s, s=%r, N=%d)"
                % (self.location, self.s, len(self.coefficients) - 1))


def _side_values(eq, binding):
    """Numeric per-degree values of the three sides, or UnboundParameter."""
    out = {}
    for name in ("P", "Z", "M"):
        vals = []
        for k in range(eq.degree + 1):
            try:
                vals.append(eq.coeff(name, k).evaluate(binding))
            except KeyError as missing:
                raise UnboundParameter(
                    "coefficient (%s, %d) needs parameter %s"
                    % (name, k, missing))
        out[name] = vals
    return out


def series_solution(eq: QDiffEq, binding, rootIndex=0, N=10):
    """Series coefficients c[0..N] at the origin for one exponent choice.

    ``binding`` must give numbers for every parameter in the equation
    and for q.  The exponent value s is the rootIndex-th nonzero root
    (sorted) of the characteristic quadratic.  c[0] = 1 and each c[m]
    solves the order-m collected equation; a vanishing denominator
    raises Resonance.
    """
    binding = dict(binding or {})
    if "q" not in binding:
        raise UnboundParameter("the recurrence needs a numeric q")
    q = binding["q"]
    sides = _side_values(eq, binding)
    pv, zv, mv = sides["P"], sides["Z"], sides["M"]
    roots = _nonzero(quad_roots(pv[0], zv[0], mv[0]))
    if not 0 <= rootIndex < len(roots):
        raise ValueError("rootIndex %d out of range: %d admissible root(s)"
                         % (rootIndex, len(roots)))
    s = roots[rootIndex]

    def slot(k, n):
        # multiplier of c[n] coming from degree-k coefficient slots
        total = zv[k]
        if pv[k]:
            total += pv[k] * s * q ** n
        if mv[k]:
            total += mv[k] * q ** (-n) / s
        return total

    coeffs = [1]
    top = eq.degree
    for m in range(1, N + 1):
        den = slot(0, m)
        if not den:
            raise Resonance("recurrence denominator vanishes at order %d" % m)
        acc = 0
        for n in range(max(0, m - top), m):
            acc += slot(m - n, n) * coeffs[n]
        coeffs.append(-acc / den)
    return SeriesSolution("Zero", s, tuple(coeffs), q, binding, sides)


def residual(eq: QDiffEq, sol: SeriesSolution, x):
    """|P(x) s f(qx) + Z(x) f(x) + M(x) f(x/q)/s| on the truncated series.

    The common factor x^r is dropped, leaving sum_n c[n] x^n (s P(x) q^n
    + Z(x) + M(x) q^-n/s) with ``eq`` bound at ``sol.binding``.  Exact
    terms share one running denominator and are normalised once, at the
    end; float and complex terms go into a plain running sum.
    """
    sides = _side_values(eq, sol.binding)
    q, s = sol.q, sol.s
    up, mid, low = (sum(v * x ** k for k, v in enumerate(sides[name]))
                    for name in "PZM")
    up, low = up * s, low / s
    num, den, inexact = 0, 1, 0
    for n, c in enumerate(sol.coefficients):
        term = c * (x ** n * (up * q ** n + mid + low * q ** (-n)))
        if isinstance(term, (int, Fraction)):
            # the denominators nest along the series, so this gcd is cheap
            g = math.gcd(den, term.denominator)
            num = num * (term.denominator // g) + term.numerator * (den // g)
            den = den // g * term.denominator
        else:
            inexact += term
    return abs(Fraction(num, den) + inexact)
