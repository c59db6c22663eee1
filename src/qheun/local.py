"""Local analysis of three-term equations at the origin and at infinity.

Exponents of trial solutions x^r(c0 + c1 x + ...) enter only through
s = q^r: at the origin the lowest-order balance gives a quadratic in s
built from the constant coefficient slots, at infinity the top-degree
balance gives the mirrored quadratic.  Generic series coefficients then
follow from a first-order recurrence; a vanishing recurrence denominator
is reported as resonance rather than patched with logarithms.

Exact data stays exact, an int q included.  The recurrence and the
residual are then built from integer parts: one Fraction normalisation
per series order, and one per residual.  Float or complex data take
plain arithmetic.  q = 0 is no shift base and is refused.
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .qdiff import QDiffEq
from .symkernel import RatFun


class DegenerateEquation(ValueError):
    """All three extreme coefficient slots vanish; no exponent data."""


class Resonance(ZeroDivisionError):
    """A recurrence denominator vanished at some positive order."""


def _resonance(m):
    return Resonance("recurrence denominator vanishes at order %d" % m)


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


def exact_root(f, k=2):
    """The rational k-th root of ``f``, or None if it has none.

    An odd k keeps the sign of ``f``; an even k refuses a negative ``f``.
    """
    f = Fraction(f)
    if f < 0 and k % 2 == 0:
        return None
    num, den = (_int_root(n, k) for n in (abs(f.numerator), f.denominator))
    if Fraction(num, den) ** k != abs(f):
        return None
    return Fraction(num if f >= 0 else -num, den)


def _int_root(n, k):
    # floor(n^(1/k)) for an int n >= 0, one bit at a time from the top
    if k == 2:
        return math.isqrt(n)
    root = 0
    for bit in range(n.bit_length() // k, -1, -1):
        if (root | 1 << bit) ** k <= n:
            root |= 1 << bit
    return root


# the least magnitude that a float conversion rounds past the float range
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _finite(roots):
    # float division overflows to inf where Fraction conversion raises
    if any(isinstance(z, (float, complex)) and cmath.isinf(z) for z in roots):
        raise OverflowError("a root is beyond the float range")
    return roots


def quad_roots(a, b, c):
    """Roots of a*s^2 + b*s + c, sorted by real and then imaginary part.

    Rational data with a rational square discriminant gives exact
    Fraction roots.  Otherwise the roots are floats: real data with a
    negative discriminant gives a conjugate pair, and a root of the
    complex square root whose imaginary part is rounding noise, below
    1e-13 of its modulus, is returned as a real float.  A discriminant
    beyond the float range is taken through an integer square root for
    rational data, and by dividing out a power of two for float or
    complex data.  When a = 0 the single root of the linear equation is
    returned, and no root when b = 0 as well.  A float root beyond the
    float range raises OverflowError.
    """
    # ints divide as Fractions, so integer data keeps exact roots
    a, b, c = (Fraction(v) if isinstance(v, int) else v for v in (a, b, c))
    if not a:
        return _finite((-c / b,)) if b else ()
    disc = b * b - 4 * a * c
    root = exact_root(disc) if isinstance(disc, Fraction) else None
    if root is not None:
        pair = ((-b - root) / (2 * a), (-b + root) / (2 * a))
    elif isinstance(disc, Fraction) and abs(disc) >= _FLOAT_LIMIT:
        # no float for disc, but the roots may fit: its integer root is good
        # to 10^-154 here, far past double precision
        n, d = abs(disc.numerator), disc.denominator
        root = Fraction(_int_root(n * d, 2), d)
        if disc < 0:
            re, im = float(-b / (2 * a)), float(root / abs(2 * a))
            pair = (complex(re, -im), complex(re, im))
        else:
            big = -(b + root if b >= 0 else b - root) / 2
            pair = (float(big / a), float(c / big))
    else:
        if isinstance(disc, (float, complex)) and not (
                math.isfinite(disc.real) and math.isfinite(disc.imag)):
            # b*b or 4ac left the float range: divide out the power of two
            # that takes |b| and sqrt|ac| below 1, which keeps the roots
            ea, eb, ec = (math.frexp(abs(v))[1] for v in (a, b, c))
            scale = 2.0 ** -max(eb, (ea + ec) // 2)
            a, b, c = a * scale, b * scale, c * scale
            if not a:
                raise OverflowError("a root is beyond the float range")
            disc = b * b - 4 * a * c
        if not isinstance(disc, complex) and disc < 0:
            # real data, complex roots: an exact conjugate pair, so the
            # sort orders it by the sign of the imaginary part, and no
            # imaginary part is noise
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
            # noise is relative to the root's size; <= keeps a zero real
            pair = [z.real if abs(z.imag) <= 1e-13 * abs(z) else z
                    for z in (big / a, c / big if big else big)]
    return tuple(sorted(_finite(pair), key=lambda z: (z.real, z.imag)))


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
    computed against, for callers that rebuild its recurrence, and
    ``equation`` the equation they are the values of (None in a record
    built by hand), so that ``residual`` need not evaluate them again.
    """
    location: str
    s: object
    coefficients: tuple
    q: object
    binding: dict
    sides: dict
    equation: Optional[QDiffEq] = None

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


def _integer_parts(triples, q, top, x=1):
    """(nums, dens), with nums[k][n]/dens[n] = x^n (up q^n + mid + low q^-n)
    for the k-th exact (up, mid, low) of ``triples`` and n = 0..top,
    unreduced.

    With q = a/b, x = c/d and every up, mid, low over one integer
    denominator D, the k-th triple as (U, Z, L)/D: nums[k][n] = c^n (U
    a^2n + Z a^n b^n + L b^2n) and dens[n] = D d^n a^n b^n, shared by
    every triple.
    """
    triples = [[Fraction(v) for v in triple] for triple in triples]
    lcd = math.lcm(*(v.denominator for triple in triples for v in triple))
    ints = [[v.numerator * (lcd // v.denominator) for v in triple]
            for triple in triples]
    (a, b), (c, d) = q.as_integer_ratio(), x.as_integer_ratio()
    nums, dens = [[] for _ in triples], []
    an, bn, cn, dn = 1, 1, 1, 1
    for _ in range(top + 1):
        for row, (u, z, l) in zip(nums, ints):
            row.append(cn * ((u * an + z * bn) * an + l * bn * bn))
        dens.append(lcd * dn * an * bn)
        an, bn, cn, dn = an * a, bn * b, cn * c, dn * d
    return nums, dens


def _shift_base(q):
    """q itself; ValueError at q = 0, where f(x/q) has no value."""
    if not q:
        raise ValueError("q = 0 is no shift base: f(x/q) has no value")
    return q


def series_solution(eq: QDiffEq, binding, rootIndex=0, N=10):
    """Series coefficients c[0..N] at the origin for one exponent choice.

    ``binding`` must give numbers for every parameter in the equation
    and for q.  The exponent value s is the rootIndex-th nonzero root
    (sorted) of the characteristic quadratic.  c[0] = 1 and each c[m]
    solves the order-m collected equation; a vanishing denominator
    raises Resonance.  A negative N, and q = 0, raise ValueError.

    Exact data (q an int or Fraction, s and every side value exact) gives
    Fraction coefficients; an int q counts as the Fraction it equals.
    With q = a/b and the constants P_k s, Z_k, M_k/s of all degrees k
    over one integer denominator L, the multiplier P_k s q^n + Z_k +
    M_k q^-n/s of c[n] from degree k is an int nums[k][n] over L (ab)^n,
    so c[m] = -(sum_n nums[m-n][n] (ab)^(m-n) c[n]) / nums[0][m], and
    nums[0][m] = 0 is the resonance.  The up to ``eq.degree`` terms of
    the sum go over the lcm of their denominators in plain ints: one
    Fraction, so one normalisation, per order.  Float or complex data
    take the same recurrence in plain arithmetic.
    """
    if N < 0:
        raise ValueError("N must be nonnegative, not %d" % N)
    binding = dict(binding or {})
    if "q" not in binding:
        raise UnboundParameter("the recurrence needs a numeric q")
    q = _shift_base(binding["q"])
    sides = _side_values(eq, binding)
    pv, zv, mv = sides["P"], sides["Z"], sides["M"]
    roots = _nonzero(quad_roots(pv[0], zv[0], mv[0]))
    if not 0 <= rootIndex < len(roots):
        raise ValueError("rootIndex %d out of range: %d admissible root(s)"
                         % (rootIndex, len(roots)))
    s = roots[rootIndex]

    coeffs = [1]
    top = eq.degree
    if _exact(q, s, *pv, *zv, *mv):
        nums, _ = _integer_parts(
            [(p * s, z, m / s) for p, z, m in zip(pv, zv, mv)], q, N)
        ab = math.prod(q.as_integer_ratio())
        for m in range(1, N + 1):
            if not nums[0][m]:
                raise _resonance(m)
            window = range(max(0, m - top), m)
            den = math.lcm(*(coeffs[n].denominator for n in window))
            num = sum(nums[m - n][n] * ab ** (m - n) * coeffs[n].numerator
                      * (den // coeffs[n].denominator) for n in window)
            coeffs.append(Fraction(-num, den * nums[0][m]))
    else:
        def slot(k, n):
            # multiplier of c[n] coming from degree-k coefficient slots
            total = zv[k]
            if pv[k]:
                total += pv[k] * s * q ** n
            if mv[k]:
                total += mv[k] * q ** (-n) / s
            return total

        for m in range(1, N + 1):
            den = slot(0, m)
            if not den:
                raise _resonance(m)
            acc = 0
            for n in range(max(0, m - top), m):
                acc += slot(m - n, n) * coeffs[n]
            coeffs.append(-acc / den)
    return SeriesSolution("Zero", s, tuple(coeffs), q, binding, sides, eq)


def residual(eq: QDiffEq, sol: SeriesSolution, x):
    """|P(x) s f(qx) + Z(x) f(x) + M(x) f(x/q)/s| on the truncated series.

    The common factor x^r is dropped, leaving sum_n c[n] x^n (s P(x) q^n
    + Z(x) + M(x) q^-n/s) with ``eq`` bound at ``sol.binding``.  When q,
    s, x and the side values are exact, write q = a/b, x = c/d and
    s P(x), Z(x), M(x)/s = (U, Z, L)/D over one integer denominator: an
    exact c[n] then adds the integer pair c[n].numerator c^n (U a^2n +
    Z a^n b^n + L b^2n) over c[n].denominator D d^n a^n b^n.  These pairs
    fold unreduced into one running numerator and denominator, normalised
    once, at the end.  Every other term is a float or complex one and goes
    into a plain running sum.  q = 0 raises ValueError, as in
    ``series_solution``.

    The side values are ``sol.sides`` when ``eq`` is ``sol.equation``
    itself, and are evaluated from ``eq`` otherwise.  A record whose
    ``binding`` was ``_replace``d without matching ``sides`` is an
    unchecked record, as after every ``_replace`` in the package.
    """
    q, s = _shift_base(sol.q), sol.s
    sides = (sol.sides if eq is sol.equation
             else _side_values(eq, sol.binding))
    up, mid, low = (sum(v * x ** k for k, v in enumerate(sides[name]))
                    for name in "PZM")
    up, low = up * s, low / s
    exact = _exact(q, s, x, *sides["P"], *sides["Z"], *sides["M"])
    if exact:
        (nums,), dens = _integer_parts([(up, mid, low)], q,
                                       len(sol.coefficients) - 1, x)
    num, den, inexact = 0, 1, 0
    for n, coef in enumerate(sol.coefficients):
        if exact and isinstance(coef, (int, Fraction)):
            tnum = coef.numerator * nums[n]
            tden = coef.denominator * dens[n]
            # one denominator need not divide the next: this gcd does work
            g = math.gcd(den, tden)
            num = num * (tden // g) + tnum * (den // g)
            den = den // g * tden
        else:
            inexact += coef * (x ** n * (up * q ** n + mid + low * q ** (-n)))
    return abs(Fraction(num, den) + inexact)
