"""Univariate polynomial helpers over exact rational-function coefficients.

A polynomial in the shift variable is stored as a sequence of RatFun
coefficients indexed by degree (index 0 is the constant term), with no
trailing zeros.  The zero polynomial is the empty sequence.  Coefficients
are rational functions of the remaining parameters, so division, gcd and
lcm are exact field operations.

The helpers trust that form: every argument polynomial is a trimmed
sequence of RatFun (a QDiffEq side or a result of this module), and
every scalar argument is a RatFun.  ``trim`` and ``as_xpoly`` are the
ways in for anything else.  Each helper returns a trimmed list.

The callers are ``qdiff`` (QDiffEq's sides, ``move_factor`` with its
exact ``divexact``, and the lcm clearing of ``from_scalar_coefficients``)
and ``gauge`` (products, shifts and reversals of sides).  ``lax``
divides its construction factors out with ``MPoly.divide_exact`` on term
dicts instead, so Euclid over rational-function coefficients
(``divmod_x``, ``gcd``) runs only under ``move_factor`` and the lcm.
"""

from .symkernel import RatFun, as_ratfun

_ZERO = as_ratfun(0)
_ONE = as_ratfun(1)


def trim(p):
    """Coerce entries to RatFun and drop trailing zeros: the canonical form."""
    p = [as_ratfun(c) for c in p]
    while p and p[-1].is_zero:
        p.pop()
    return p


def degree(p):
    """Degree of p, or -1 for the zero polynomial."""
    return len(p) - 1


def scale(a, c):
    """Multiply every coefficient by the same x-free factor."""
    if c.is_zero:
        return []
    # a nonzero factor keeps the leading coefficient nonzero
    return [ci * c for ci in a]


def mul(a, b):
    if not a or not b:
        return []
    # the leading coefficient a[-1]*b[-1] is nonzero, so no trim is needed
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def shift_arg(a, c):
    """Substitute x -> c*x: the degree-k coefficient picks up c^k."""
    out = []
    ck = _ONE
    for k, ca in enumerate(a):
        if k:
            ck = ck * c
        out.append(ca * ck)
    return trim(out)


def reverse(a, d):
    """Coefficients of x^d * a(1/x); d must be >= degree(a)."""
    if d + 1 < len(a):
        raise ValueError("reversal degree below actual degree")
    out = [_ZERO] * (d + 1)
    for k, ca in enumerate(a):
        out[d - k] = ca
    return trim(out)


def eq(a, b):
    if len(a) != len(b):
        return False
    return all(ca == cb for ca, cb in zip(a, b))


def divmod_x(a, b):
    """Polynomial division with remainder over the coefficient field.

    Returns (quot, rem) with a = quot*b + rem and degree(rem) < degree(b).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    nb = len(b)
    lead = b[-1]
    quot = [_ZERO] * max(len(a) - nb + 1, 0)
    rem = list(a)
    for k in range(len(a) - nb, -1, -1):
        top = rem[k + nb - 1]
        if top.is_zero:
            continue
        c = top / lead
        quot[k] = c
        # the leading slot cancels exactly and is dropped below
        for j in range(nb - 1):
            rem[k + j] = rem[k + j] - c * b[j]
    return quot, trim(rem[:nb - 1])


def divexact(a, b):
    quot, rem = divmod_x(a, b)
    if rem:
        raise ValueError("polynomial division is not exact")
    return quot


def monic(a):
    if not a:
        return []
    return scale(a, _ONE / a[-1])


def gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    while b:
        _, r = divmod_x(a, b)
        a, b = b, r
    return monic(a)


def lcm(a, b):
    if not a or not b:
        return []
    g = gcd(a, b)
    return monic(mul(divexact(a, g), b))


def from_ratfun(r, var):
    """Split a RatFun into (numerator, denominator) polynomials in `var`,
    with var-free RatFun entries."""
    def split(p):
        # univariate keeps nonzero coefficients only, so the top entry
        # is nonzero and the list comes out trimmed
        u = p.univariate(var)
        return [RatFun(u[k]) if k in u else _ZERO
                for k in range(max(u, default=-1) + 1)]
    return split(r.num), split(r.den)


def as_xpoly(p, var):
    """A nonzero polynomial in `var`, given as a coefficient sequence or
    as a RatFun whose denominator is free of `var`; ValueError otherwise."""
    if not isinstance(p, (list, tuple)):
        num, den = from_ratfun(as_ratfun(p), var)
        if degree(den) > 0:
            raise ValueError("factor is not a polynomial in %s" % var)
        p = scale(num, _ONE / den[0])
    p = trim(p)
    if not p:
        raise ValueError("factor is the zero polynomial")
    return p
