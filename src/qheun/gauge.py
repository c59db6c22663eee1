"""Gauge transformations acting on three-term q-difference equations.

Each operation rewrites the coefficient triple (P, Z, M) so that the new
equation is satisfied by the old solutions multiplied or divided by a
gauge factor (a power of x, an infinite product, or a function u with
u(qx) = p(x)u(x)).  The factors themselves are never represented
symbolically; only their effect on coefficients is.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import xpoly
from .qdiff import QDiffEq, ThreeTermRelation
from .symkernel import as_ratfun, sym


class NotDivisible(ValueError):
    """The requested factor does not divide the target coefficient."""


class DomainError(ValueError):
    """Numeric evaluation outside the convergence domain."""


def _q_power(lam):
    """An exact stand-in for q**lam.

    Integer exponents give a true power of q.  Any other exponent is
    represented by a fresh adjoined parameter whose name encodes lam, so
    the result stays exact and the inverse uses the same parameter.
    """
    if isinstance(lam, str):
        return sym("q_to_" + lam)
    f = Fraction(lam)
    if f.denominator == 1:
        return sym("q") ** int(f)
    tag = ("%d_over_%d" % (f.numerator, f.denominator)).replace("-", "m")
    return sym("q_to_" + tag)


def gauge_power(eq: QDiffEq, lam) -> QDiffEq:
    """Rescale P by q^lam and M by q^(-lam), leaving Z alone.

    This is the coefficient action of splitting a power of x out of the
    unknown: writing the old unknown as x^lam times the new one yields
    exactly this equation for the new unknown.
    """
    return _scale_ends(eq, _q_power(lam))


def _scale_ends(eq, s):
    """P times s and M over s."""
    return QDiffEq(xpoly.scale(eq.P, s), eq.Z,
                   xpoly.scale(eq.M, as_ratfun(1) / s), eq.variable)


def _move_divisors(kind, alpha, variable):
    """(divisor removed from M, factor gained by P) for a factor move."""
    alpha = as_ratfun(alpha)
    if variable in alpha.variables():
        raise ValueError("factor parameter must not contain the variable")
    q = sym("q")
    if kind == "Pochhammer":
        # trimmed, since alpha = 0 leaves the constant factor 1
        return xpoly.trim([1, -alpha]), xpoly.trim([1, -q * alpha])
    if kind == "Theta":
        if alpha.is_zero:
            raise NotDivisible("zero factor cannot be removed")
        return [as_ratfun(0), alpha], [as_ratfun(0), q * alpha]
    raise ValueError("unknown factor kind %r" % (kind,))


def gauge_move_factor(eq: QDiffEq, kind, alpha) -> QDiffEq:
    """Move a linear factor of M over to P.

    kind "Pochhammer" removes (1 - alpha*x) from M and multiplies P by
    (1 - q*alpha*x); kind "Theta" removes alpha*x from M and multiplies P
    by q*alpha*x.  The division must be exact or NotDivisible is raised.
    """
    out_div, in_fac = _move_divisors(kind, alpha, eq.variable)
    try:
        new_m = xpoly.divexact(eq.M, out_div)
    except ValueError:
        raise NotDivisible(
            "M has no factor matching %s(alpha=%s)" % (kind, alpha))
    return QDiffEq(xpoly.mul(eq.P, in_fac), eq.Z, new_m, eq.variable)


def _move_factor_back(eq: QDiffEq, kind, alpha) -> QDiffEq:
    """Inverse of gauge_move_factor: the factor returns from P to M."""
    out_div, in_fac = _move_divisors(kind, alpha, eq.variable)
    try:
        new_p = xpoly.divexact(eq.P, in_fac)
    except ValueError:
        raise NotDivisible(
            "P has no factor matching %s(alpha=%s)" % (kind, alpha))
    return QDiffEq(new_p, eq.Z, xpoly.mul(eq.M, out_div), eq.variable)


def gauge_linear(eq: QDiffEq, p, q=None) -> QDiffEq:
    """Divide the unknown by a function u with u(qx) = p(x)u(x).

    After clearing by p(x/q) the coefficients stay polynomial:
    P -> P*p(x)*p(x/q), Z -> Z*p(x/q), M -> M.  ``q`` is the base of
    the down-shift: the symbol q by default, or the value q is bound to
    when the equation was built with a numeric q.
    """
    p_x = xpoly.as_xpoly(p, eq.variable)
    base = sym("q") if q is None else as_ratfun(q)
    p_down = xpoly.shift_arg(p_x, as_ratfun(1) / base)
    return QDiffEq(
        xpoly.mul(xpoly.mul(eq.P, p_x), p_down),
        xpoly.mul(eq.Z, p_down),
        eq.M,
        eq.variable)


def _gauge_linear_back(eq: QDiffEq, p) -> QDiffEq:
    """Inverse direction: multiply the unknown by u instead.

    P -> P, Z -> Z*p(x), M -> M*p(x)*p(x/q); composing with gauge_linear
    reproduces the original equation times the overall factor p(x)p(x/q).
    """
    p_x = xpoly.as_xpoly(p, eq.variable)
    p_down = xpoly.shift_arg(p_x, as_ratfun(1) / sym("q"))
    return QDiffEq(
        eq.P,
        xpoly.mul(eq.Z, p_x),
        xpoly.mul(xpoly.mul(eq.M, p_x), p_down),
        eq.variable)


def invert_variable(eq: QDiffEq) -> QDiffEq:
    """Replace x by 1/x and clear powers of x.

    Evaluating the equation at 1/x turns the qx shift of f into the x/q
    shift of g(x) = f(1/x), so P and M trade places and every coefficient
    list is reversed against the overall degree.
    """
    d = eq.degree
    return QDiffEq(
        xpoly.reverse(eq.M, d),
        xpoly.reverse(eq.Z, d),
        xpoly.reverse(eq.P, d),
        eq.variable)


def rebase(rel: ThreeTermRelation) -> QDiffEq:
    """Convert a (q^2 x, q x, x) scalar relation to the (qx, x, x/q)
    convention by substituting x -> x/q, then clear any x-dependent
    denominators."""
    v = sym(rel.variable)
    q = sym("q")
    shifted = rel.substitute({rel.variable: v / q})
    return QDiffEq.from_scalar_coefficients(
        shifted.up, shifted.mid, shifted.low, rel.variable)


def _rebase_steps(eq: QDiffEq, steps: int) -> QDiffEq:
    """Shift the base point: substitute x -> x/q^steps in all coefficients."""
    c = sym("q") ** (-steps)
    return QDiffEq(
        xpoly.shift_arg(eq.P, c),
        xpoly.shift_arg(eq.Z, c),
        xpoly.shift_arg(eq.M, c),
        eq.variable)


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class GaugeRecord:
    """A reified gauge step, so transformations can be replayed or undone.

    kind is one of "Power", "MoveFactor", "Linear", "InvertVariable",
    "Rebase"; payload carries the operation data; inverted selects the
    reverse direction.
    """
    kind: str
    payload: tuple = ()
    inverted: bool = False


def record_power(lam) -> GaugeRecord:
    return GaugeRecord("Power", (lam,))


def record_move_factor(kind, alpha) -> GaugeRecord:
    return GaugeRecord("MoveFactor", (kind, as_ratfun(alpha)))


def record_linear(p) -> GaugeRecord:
    return GaugeRecord("Linear", (p,))


def record_invert() -> GaugeRecord:
    return GaugeRecord("InvertVariable", ())


def record_rebase(steps=1) -> GaugeRecord:
    return GaugeRecord("Rebase", (steps,))


def invert_record(rec: GaugeRecord) -> GaugeRecord:
    return GaugeRecord(rec.kind, rec.payload, not rec.inverted)


def apply_record(rec: GaugeRecord, eq: QDiffEq) -> QDiffEq:
    kind = rec.kind
    if kind == "Power":
        (lam,) = rec.payload
        if rec.inverted:
            return _scale_ends(eq, as_ratfun(1) / _q_power(lam))
        return gauge_power(eq, lam)
    if kind == "MoveFactor":
        fkind, alpha = rec.payload
        if rec.inverted:
            return _move_factor_back(eq, fkind, alpha)
        return gauge_move_factor(eq, fkind, alpha)
    if kind == "Linear":
        (p,) = rec.payload
        if rec.inverted:
            return _gauge_linear_back(eq, p)
        return gauge_linear(eq, p)
    if kind == "InvertVariable":
        return invert_variable(eq)
    if kind == "Rebase":
        (steps,) = rec.payload
        return _rebase_steps(eq, -steps if rec.inverted else steps)
    raise ValueError("unknown gauge record kind %r" % (kind,))


# ---------------------------------------------------------------------------
# numeric gauge factors


def _poch_numeric(x, q, terms):
    acc = complex(1)
    qk = complex(1)
    x = complex(x)
    for _ in range(terms):
        acc *= (1 - x * qk)
        qk *= q
    return acc


def eval_special(kind, x, q, terms) -> complex:
    """Truncated numeric gauge factors.

    "Pochhammer" evaluates the product of (1 - x q^k) for k < terms.
    "Theta" evaluates the triple product (q;q)(−x;q)(−q/x;q) with the
    same truncation.  The truncation error is bounded by the deviation of
    the first omitted factors, which is O(|q|^terms) for fixed x.
    """
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError("|q| must be < 1, got %r" % (q,))
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if kind == "Pochhammer":
        return _poch_numeric(x, q, terms)
    if kind == "Theta":
        x = complex(x)
        if x == 0:
            raise DomainError("theta factor is undefined at x = 0")
        return (_poch_numeric(q, q, terms)
                * _poch_numeric(-x, q, terms)
                * _poch_numeric(-q / x, q, terms))
    raise ValueError("unknown factor kind %r" % (kind,))
