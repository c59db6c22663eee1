"""Gauge transformations acting on three-term q-difference equations.

Each operation rewrites the coefficient triple (P, Z, M) so that the new
equation is satisfied by the old solutions multiplied or divided by a
gauge factor (a power of x, an infinite product, or a function u with
u(qx) = p(x)u(x)).  The factors themselves are never represented
symbolically; only their effect on coefficients is.  Every cleared move
(the power and factor moves and their inverses) is ``QDiffEq.move_factor``;
``gauge_linear`` is the uncleared form.
"""

from fractions import Fraction
from typing import NamedTuple

from . import xpoly
from .qdiff import QDiffEq
from .symkernel import MPoly, RatFun, as_ratfun, sym


class NotDivisible(ValueError):
    """The requested factor does not divide the target coefficient."""


def _q_power(lam):
    """An exact stand-in for q**lam.

    Integer exponents give a true power of q.  A fraction a/b in lowest
    terms gives r**a, with one adjoined parameter r = q_to_1_over_b per
    denominator.  The power move rewrites r**b to q (``_power_move``), so
    exponents over one denominator compose exactly: 1/2 + 1/2 gives q.
    Exponents over different denominators (1/2 then 1/3) are out of scope:
    they leave a product of two symbols.  A string exponent names its own
    parameter q_to_<lam>.
    """
    if isinstance(lam, str):
        return sym("q_to_" + lam)
    f = Fraction(lam)
    if f.denominator == 1:
        return sym("q") ** int(f)
    return sym("q_to_1_over_%d" % f.denominator) ** f.numerator


def _power_move(eq: QDiffEq, lam, back=False) -> QDiffEq:
    """``QDiffEq.move_factor`` with the constant p = q^lam (or, with
    ``back``, its inverse).  For a fraction a/b the adjoined root
    r = q_to_1_over_b then has r^b rewritten to q in every numerator and
    denominator, so that each power of r left is below b."""
    moved = eq.move_factor([_q_power(lam)], sym("q"), back=back)
    b = 1 if isinstance(lam, str) else Fraction(lam).denominator
    if b == 1:
        return moved
    root = "q_to_1_over_%d" % b
    return QDiffEq(*([_root_reduced(c, root, b) for c in side]
                     for side in (moved.P, moved.Z, moved.M)),
                   moved.variable)


def _root_reduced(c, root, b):
    """c with root^b rewritten to q; c itself when no power reaches b."""
    if max(c.num.degree_in(root), c.den.degree_in(root)) < b:
        return c
    q, r = MPoly.var("q"), MPoly.var(root)
    return RatFun(*(sum((a * q ** (k // b) * r ** (k % b)
                         for k, a in part.univariate(root).items()), MPoly())
                    for part in (c.num, c.den)))


def gauge_power(eq: QDiffEq, lam) -> QDiffEq:
    """Rescale P by q^lam and M by q^(-lam), leaving Z alone.

    This is the coefficient action of splitting a power of x out of the
    unknown: writing the old unknown as x^lam times the new one yields
    exactly this equation for the new unknown.  It is the cleared move
    ``QDiffEq.move_factor`` with the constant p = q^lam, with powers of a
    fractional exponent's root reduced as ``_q_power`` describes.
    """
    return _power_move(eq, lam)


def gauge_move_factor(eq: QDiffEq, kind, alpha) -> QDiffEq:
    """Move a linear factor of M over to P.

    kind "Pochhammer" removes (1 - alpha*x) from M and multiplies P by
    (1 - q*alpha*x); kind "Theta" removes alpha*x from M and multiplies P
    by q*alpha*x.  This is ``QDiffEq.move_factor`` with p(x) the factor P
    gains.  The division must be exact or NotDivisible is raised.
    """
    return _move_factor(eq, kind, alpha, back=False)


def _move_factor(eq, kind, alpha, back):
    """gauge_move_factor, or with ``back`` its inverse: the factor
    returns from P to M."""
    a = as_ratfun(alpha)
    if eq.variable in a.variables():
        raise ValueError("factor parameter must not contain the variable")
    q = sym("q")
    if kind == "Pochhammer":
        # trimmed, since alpha = 0 leaves the constant factor 1
        p = xpoly.trim([1, -q * a])
    elif kind == "Theta":
        if a.is_zero:
            raise NotDivisible("zero factor cannot be removed")
        p = [as_ratfun(0), q * a]
    else:
        raise ValueError("unknown factor kind %r" % (kind,))
    try:
        return eq.move_factor(p, q, back=back)
    except ValueError:
        raise NotDivisible("%s has no factor matching %s(alpha=%s)"
                           % ("P" if back else "M", kind, alpha))


def gauge_linear(eq: QDiffEq, p) -> QDiffEq:
    """Divide the unknown by a function u with u(qx) = p(x)u(x).

    After clearing by p(x/q) the coefficients stay polynomial:
    P -> P*p(x)*p(x/q), Z -> Z*p(x/q), M -> M, with q the symbol.
    """
    return _linear_move(eq, p, back=False)


def _linear_move(eq, p, back):
    """gauge_linear, or with ``back`` its inverse: the unknown is
    multiplied by u, and P -> P, Z -> Z*p(x), M -> M*p(x)*p(x/q).
    Composing the two reproduces the original equation times the overall
    factor p(x)p(x/q)."""
    p_x = xpoly.as_xpoly(p, eq.variable)
    p_down = xpoly.shift_arg(p_x, as_ratfun(1) / sym("q"))
    grown = xpoly.mul(xpoly.mul(eq.M if back else eq.P, p_x), p_down)
    Z = xpoly.mul(eq.Z, p_x if back else p_down)
    if back:
        return QDiffEq(eq.P, Z, grown, eq.variable)
    return QDiffEq(grown, Z, eq.M, eq.variable)


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


class GaugeRecord(NamedTuple):
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
        return _power_move(eq, *rec.payload, back=rec.inverted)
    if kind == "MoveFactor":
        return _move_factor(eq, *rec.payload, back=rec.inverted)
    if kind == "Linear":
        return _linear_move(eq, *rec.payload, back=rec.inverted)
    if kind == "InvertVariable":
        return invert_variable(eq)
    if kind == "Rebase":
        (steps,) = rec.payload
        return _rebase_steps(eq, -steps if rec.inverted else steps)
    raise ValueError("unknown gauge record kind %r" % (kind,))
