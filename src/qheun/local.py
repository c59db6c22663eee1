"""Local analysis of three-term equations at the origin and at infinity.

Exponents of trial solutions x^r(c0 + c1 x + ...) enter only through
s = q^r: at the origin the lowest-order balance gives a quadratic in s
built from the constant coefficient slots, at infinity the top-degree
balance gives the mirrored quadratic.  Generic series coefficients then
follow from a first-order recurrence; a vanishing recurrence denominator
is reported as resonance rather than patched with logarithms.

Exact data stays exact, an int q included.  The recurrence multipliers
and the residual's terms are then built from integer parts: one
Fraction normalisation per multiplier, and one per residual.  Float or
complex data take plain arithmetic.
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


def _exact(*values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def _integer_parts(up, mid, low, q, top, x=1):
    """[(num_n, den_n) for n = 0..top], num_n/den_n = x^n (up q^n + mid +
    low q^-n), for exact data and q != 0, unreduced.

    With q = a/b, x = c/d and up, mid, low = (U, Z, L)/D over one
    integer denominator, num_n = c^n (U a^2n + Z a^n b^n + L b^2n) and
    den_n = D d^n a^n b^n.
    """
    values = [Fraction(v) for v in (up, mid, low)]
    lcd = math.lcm(*(v.denominator for v in values))
    u, z, l = (v.numerator * (lcd // v.denominator) for v in values)
    (a, b), (c, d) = q.as_integer_ratio(), x.as_integer_ratio()
    out, an, bn, cn, dn = [], 1, 1, 1, 1
    for _ in range(top + 1):
        out.append((cn * ((u * an + z * bn) * an + l * bn * bn),
                    lcd * dn * an * bn))
        an, bn, cn, dn = an * a, bn * b, cn * c, dn * d
    return out


def series_solution(eq: QDiffEq, binding, rootIndex=0, N=10):
    """Series coefficients c[0..N] at the origin for one exponent choice.

    ``binding`` must give numbers for every parameter in the equation
    and for q.  The exponent value s is the rootIndex-th nonzero root
    (sorted) of the characteristic quadratic.  c[0] = 1 and each c[m]
    solves the order-m collected equation; a vanishing denominator
    raises Resonance.  A negative N raises ValueError.

    Exact data (q a nonzero int or Fraction, s and every side value
    exact) gives Fraction coefficients; an int q counts as the Fraction
    it equals.  With q = a/b, the multiplier P_k s q^n + Z_k + M_k q^-n/s
    of c[n] from degree k is (P_k s a^2n + Z_k a^n b^n + M_k/s b^2n) /
    (a^n b^n): the three constants of each degree go over one integer
    denominator once, and each multiplier is one Fraction of two ints.
    Float or complex data, and q = 0 (a^n b^n = 0; a nonzero M then
    divides by zero), take the same recurrence in plain arithmetic.
    """
    if N < 0:
        raise ValueError("N must be nonnegative, not %d" % N)
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

    if q and _exact(q, s, *pv, *zv, *mv):
        parts = [_integer_parts(p * s, z, m / s, q, N)
                 for p, z, m in zip(pv, zv, mv)]

        def slot(k, n):
            return Fraction(*parts[k][n])
    else:
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
    + Z(x) + M(x) q^-n/s) with ``eq`` bound at ``sol.binding``.  When q
    (nonzero), s, x and the side values are exact, write q = a/b, x = c/d
    and s P(x), Z(x), M(x)/s = (U, Z, L)/D over one integer denominator:
    an exact c[n] then adds the integer pair c[n].numerator c^n (U a^2n +
    Z a^n b^n + L b^2n) over c[n].denominator D d^n a^n b^n.  Any other
    exact term is built in plain arithmetic.  Exact terms fold unreduced
    into one running numerator and denominator, normalised once, at the
    end; float and complex terms go into a plain running sum.  At q = 0
    a term past c[0] divides by zero: f(x/q) has no value there.
    """
    sides = _side_values(eq, sol.binding)
    q, s = sol.q, sol.s
    up, mid, low = (sum(v * x ** k for k, v in enumerate(sides[name]))
                    for name in "PZM")
    up, low = up * s, low / s
    exact = bool(q) and _exact(q, s, x, *sides["P"], *sides["Z"],
                               *sides["M"])
    if exact:
        parts = _integer_parts(up, mid, low, q, len(sol.coefficients) - 1, x)
    num, den, inexact = 0, 1, 0
    for n, coef in enumerate(sol.coefficients):
        if exact and isinstance(coef, (int, Fraction)):
            tnum = coef.numerator * parts[n][0]
            tden = coef.denominator * parts[n][1]
        else:
            term = coef * (x ** n * (up * q ** n + mid + low * q ** (-n)))
            if not isinstance(term, (int, Fraction)):
                inexact += term
                continue
            tnum, tden = term.numerator, term.denominator
        # the denominators nest along the series, so this gcd is cheap
        g = math.gcd(den, tden)
        num = num * (tden // g) + tnum * (den // g)
        den = den // g * tden
    return abs(Fraction(num, den) + inexact)
