"""Catalog of the five Heun-class differential operators.

Each member of the degeneration chain (the four-point equation, its
confluent, biconfluent, doubly confluent and triconfluent collapses) is
held as a record of named parameters.  to_operator expands a record into
the polynomial-row operator format of climit.HeunODE, and match_class
runs the other way: it normalizes an operator by an affine change of
variable plus an overall scale and reads the named parameters back off,
or reports the obstruction as a NoMatch: a one-field NamedTuple that is
falsy and compares by its text.

Conventions baked into the displays, written for the function y(z):

    four-point   y'' + (gamma/z + delta/(z-1) + ehat/(z-t)) y'
                     + (alpha*beta*z - B) / (z(z-1)(z-t)) y = 0
    confluent    y'' + (gamma/z + delta/(z-1) - beta) y'
                     + (-alpha*beta*z + B) / (z(z-1)) y = 0
    biconfluent  y'' + (-z - delta + gamma/z) y' + (-alpha + B/z) y = 0
    doubly conf. y'' + (-1 - gamma/z - delta/z**2) y'
                     + (-alpha/z + B/z**2) y = 0
    triconfluent y'' + (-z**2 - gamma) y' + (alpha*z + B) y = 0

The accessory field holds B throughout.  The letter ehat stands in for
the third local exponent weight of the four-point display so the name
cannot collide with the small expansion parameter used by climit.
"""

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .climit import AllZero, HeunODE, Unclassifiable, classify_ode
from .local import exact_sqrt, quad_roots

__all__ = ["ConstraintViolation", "NoMatch", "HeunParams", "HEParams",
           "CHEParams", "BHEParams", "DHEParams", "THEParams",
           "PARAM_CLASSES", "to_operator", "match_class"]


class ConstraintViolation(ValueError):
    """Parameter record breaks an exact defining relation of its class."""


class NoMatch(NamedTuple):
    """Negative match_class outcome; falsy, keeps the obstruction text."""
    obstruction: str

    def __bool__(self):
        return False


def _coerce(value, field):
    if isinstance(value, bool):
        raise TypeError("parameter %s must be a number" % field)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, (float, complex)):
        return value
    raise TypeError("parameter %s must be rational, float or complex, "
                    "got %r" % (field, type(value).__name__))


def _close(a, b):
    """Equality, exact for exact operands, tolerant once floats enter."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a == b
    return abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))


class HeunParams:
    """Common behaviour of the five parameter records.

    Each record is an immutable named tuple of its class's FIELDS, with
    this class first among its bases.  Integer and Fraction fields are
    stored as Fractions and the class's exact relations are checked on
    construction; ``_replace`` and ``_make`` skip both steps.  Two records
    are equal when their classes and their fields agree.
    """

    CLASS = None
    FIELDS = ()
    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls.FIELDS = cls._fields

    def __new__(cls, *args, **kw):
        # the named-tuple base binds the arguments to the fields
        raw = super().__new__(cls, *args, **kw)
        self = cls._make(map(_coerce, raw, cls._fields))
        self._validate()
        return self

    def _validate(self):
        pass

    def as_dict(self):
        return {"class": self.CLASS, **self._asdict()}

    def __eq__(self, other):
        if not isinstance(other, HeunParams):
            return NotImplemented
        return self.CLASS == other.CLASS and tuple.__eq__(self, other)

    def __ne__(self, other):
        # tuple.__ne__ precedes object.__ne__ in the records' bases
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def __repr__(self):
        body = ", ".join("%s=%s" % item for item in self._asdict().items())
        return "%s(%s)" % (type(self).__name__, body)


class HEParams(HeunParams,
               namedtuple("_HE", "alpha beta gamma delta ehat t accessory")):
    """Four regular points 0, 1, t, infinity.

    The exponent weights satisfy gamma + delta + ehat = alpha + beta + 1
    exactly; t may not sit on 0 or 1.  match_class returns alpha, beta
    in sorted order, the declared two-element symmetry orbit.
    """

    CLASS = "HE"
    __slots__ = ()

    def _validate(self):
        lhs = self.gamma + self.delta + self.ehat
        rhs = self.alpha + self.beta + 1
        if not _close(lhs, rhs):
            raise ConstraintViolation(
                "exponent weights unbalanced: gamma + delta + ehat = %s "
                "but alpha + beta + 1 = %s" % (lhs, rhs))
        if self.t == 0 or self.t == 1:
            raise ConstraintViolation(
                "t = %s places the movable branch point on a fixed one"
                % (self.t,))

    def singular_points(self):
        return {"regular": (0, 1, self.t, "Infinity"), "irregular": ()}


class CHEParams(HeunParams,
                namedtuple("_CHE", "alpha beta gamma delta accessory")):
    """Regular points 0 and 1, irregular point at infinity."""

    CLASS = "CHE"
    __slots__ = ()

    def _validate(self):
        if self.beta == 0:
            # the -beta drift term is what keeps infinity irregular
            raise ConstraintViolation(
                "beta = 0 collapses the irregular point at infinity "
                "(reduced confluent shape)")

    def singular_points(self):
        return {"regular": (0, 1), "irregular": ("Infinity",)}


class BHEParams(HeunParams, namedtuple("_BHE", "alpha gamma delta accessory")):
    """Regular origin, irregular infinity of doubled rank."""

    CLASS = "BHE"
    __slots__ = ()

    def singular_points(self):
        return {"regular": (0,), "irregular": ("Infinity",)}


class DHEParams(HeunParams, namedtuple("_DHE", "alpha gamma delta accessory")):
    """Irregular points at both the origin and infinity."""

    CLASS = "DHE"
    __slots__ = ()

    def _validate(self):
        if self.delta == 0:
            raise ConstraintViolation(
                "delta = 0 ramifies the origin (reduced shape)")

    def singular_points(self):
        return {"regular": (), "irregular": (0, "Infinity")}


class THEParams(HeunParams, namedtuple("_THE", "alpha gamma accessory")):
    """Single irregular point at infinity; the origin is ordinary."""

    CLASS = "THE"
    __slots__ = ()

    def singular_points(self):
        return {"regular": (), "irregular": ("Infinity",)}


PARAM_CLASSES = {c.CLASS: c for c in
                 (HEParams, CHEParams, BHEParams, DHEParams, THEParams)}


# -- expansion into operator rows ------------------------------------------

def to_operator(p: HeunParams) -> HeunODE:
    """Expand a parameter record into classified operator rows.

    The display is multiplied through by the least power of z clearing
    all denominators, giving  z^2*S(z)*y'' + z*F(z)*y' + Q(z)*y = 0
    with polynomial rows.  The result is run through classify_ode, so
    its class tag and singularity list always agree with the limit
    module's reading of the same rows.
    """
    if not isinstance(p, HeunParams) or p.CLASS is None:
        raise TypeError("expected a parameter record, got %r" % (p,))
    p._validate()
    a, B = p.alpha, p.accessory
    g = p.gamma
    if p.CLASS == "HE":
        b, d, e, t = p.beta, p.delta, p.ehat, p.t
        rows = ([t, -(1 + t), 1],
                [g * t, -(g * (1 + t) + d * t + e), g + d + e],
                [0, -B, a * b])
    elif p.CLASS == "CHE":
        b, d = p.beta, p.delta
        rows = ([-1, 1, 0],
                [-g, g + d + b, -b],
                [0, B, -a * b])
    elif p.CLASS == "BHE":
        d = p.delta
        rows = ([1, 0, 0],
                [g, -d, -1],
                [0, B, -a])
    elif p.CLASS == "DHE":
        d = p.delta
        rows = ([0, 1, 0],
                [-d, -g, -1],
                [0, B, -a])
    else:
        rows = ([1, 0, 0, 0],
                [0, -g, 0, -1],
                [0, 0, B, a])
    return classify_ode(HeunODE(*rows))


# -- recovery --------------------------------------------------------------

def _sqrt_any(v):
    if isinstance(v, Fraction):
        r = exact_sqrt(v)
        if r is not None:
            return r
    return math.sqrt(v)


def _cbrt_any(v):
    """Real cube root, exact on perfect rational cubes."""
    if isinstance(v, Fraction):
        sign = -1 if v < 0 else 1
        num, den = abs(v.numerator), v.denominator
        rn = round(num ** (1 / 3))
        rd = round(den ** (1 / 3))
        for cn in (rn - 1, rn, rn + 1):
            for cd in (rd - 1, rd, rd + 1):
                if cn > 0 and cd > 0 and cn ** 3 == num and cd ** 3 == den:
                    return Fraction(sign * cn, cd)
        v = float(v)
    return math.copysign(abs(v) ** (1 / 3), v)


def _key(v):
    # to nine decimals: parts equal up to rounding tie, the next decides
    z = complex(v)
    return (round(z.real, 9), round(z.imag, 9))


def _match_he(ode):
    s, f, q = ode.padded(3)
    roots = quad_roots(s[2], s[1], s[0])
    if len(roots) != 2 or roots[0] == roots[1]:
        return NoMatch("the finite branch points coincide")
    if 1 in roots:
        pairs = [(Fraction(1), roots[1] if roots[0] == 1 else roots[0])]
    else:
        pairs = [(roots[0], roots[1]), (roots[1], roots[0])]
    # free of the stretch, as the branch points multiply to s0/s2: both
    # candidates share them, and the sort compares delta, not float noise
    total = f[2] / s[2]   # gamma + delta + ehat
    gamma = f[0] / s[0]
    alpha, beta = quad_roots(Fraction(1), -(total - 1), q[2] / s[2])
    candidates = []
    for sigma, other in pairs:
        n = s[2] * sigma * sigma
        t = other / sigma
        m1 = -(f[1] * sigma / n)
        delta = (m1 - gamma * t - total) / (t - 1)
        ehat = total - gamma - delta
        B = -(q[1] * sigma / n)
        candidates.append(
            HEParams(alpha, beta, gamma, delta, ehat, t, B))
    candidates.sort(key=lambda c: tuple(map(_key, c)))
    return candidates[0]


def _match_che(ode):
    s, f, q = ode.padded(3)
    sigma = -s[0] / s[1]
    n = -s[0]
    beta = -(f[2] * sigma * sigma / n)
    if beta == 0:
        return NoMatch("reduced confluent shape: no quadratic term in "
                       "the first-derivative row")
    gamma = -(f[0] / n)
    delta = f[1] * sigma / n - gamma - beta
    alpha = -(q[2] * sigma * sigma / n) / beta
    B = q[1] * sigma / n
    return CHEParams(alpha, beta, gamma, delta, B)


def _match_bhe(ode):
    s, f, q = ode.padded(3)
    if f[2] == 0:
        return NoMatch("no quadratic term in the first-derivative row; "
                       "the infinity structure is too degenerate")
    sig2 = -s[0] / f[2]
    if isinstance(sig2, complex) and sig2.imag == 0:
        sig2 = sig2.real
    if isinstance(sig2, complex) or sig2 < 0:
        return NoMatch("normalizing the infinity rows needs an imaginary "
                       "or non-real stretch; outside the real catalog")
    sigma = _sqrt_any(sig2)
    n = s[0]
    gamma = f[0] / n
    delta = -(f[1] * sigma / n)
    alpha = -(q[2] * sig2 / n)
    B = q[1] * sigma / n
    return BHEParams(alpha, gamma, delta, B)


def _match_dhe(ode):
    s, f, q = ode.padded(3)
    if f[2] == 0:
        return NoMatch("no quadratic term in the first-derivative row; "
                       "the infinity structure is too degenerate")
    sigma = -s[1] / f[2]
    n = s[1] * sigma
    gamma = -(f[1] * sigma / n)
    delta = -(f[0] / n)
    if delta == 0:
        return NoMatch("reduced DHE: the origin is ramified")
    alpha = -(q[2] * sigma * sigma / n)
    B = q[1] * sigma / n
    return DHEParams(alpha, gamma, delta, B)


def _match_the(ode):
    s, f, q = ode.padded(4)
    if s[1] or s[2] or s[3] or f[0] or f[2] or q[0] or q[1]:
        return NoMatch("extra terms outside the triconfluent sparsity "
                       "pattern")
    if f[3] == 0:
        return NoMatch("no cubic drift term; infinity is too tame for "
                       "the triconfluent display")
    sig3 = -s[0] / f[3]
    sigma = _cbrt_any(sig3)
    n = s[0]
    gamma = -(f[1] * sigma / n)
    alpha = q[3] * sig3 / n
    B = q[2] * sigma * sigma / n
    return THEParams(alpha, gamma, B)


_REFUSED = {
    "ReducedCHE": "reduced confluent shape: no quadratic term in the "
                  "first-derivative row",
    "ReducedDHE": "reduced DHE: the origin is ramified or infinity is "
                  "too tame",
    "DoublyReducedDHE": "reduced DHE: ramified at the origin and tame "
                        "at infinity",
    "Other": "cubic rows outside the triconfluent sparsity pattern",
}

_MATCHERS = {"HE": _match_he, "CHE": _match_che, "BHE": _match_bhe,
             "DHE": _match_dhe, "THE": _match_the}


def match_class(ode: HeunODE):
    """Read named parameters off an operator, or say why that fails.

    Unclassified input is classified first.  The operator is normalized
    by x -> sigma*x and an overall scale; the stretch sigma is pinned by
    the highest-degree drift entry, with ties broken toward an exact
    identity map and then toward the lexicographically least parameter
    tuple.  Never raises: every obstruction comes back as a NoMatch
    value whose obstruction attribute says what blocked the reading.

    Orbit declarations: the four-point reading returns alpha, beta as a
    sorted pair (the display is symmetric in them), and the biconfluent
    stretch uses the positive square root (the negative one negates
    delta and the accessory entry).
    """
    if ode.class_ is None:
        try:
            ode = classify_ode(ode)
        except (AllZero, Unclassifiable, ArithmeticError) as exc:
            return NoMatch(str(exc))
    matcher = _MATCHERS.get(ode.class_)
    if matcher is None:
        return NoMatch(_REFUSED.get(
            ode.class_, "unrecognized operator class %r" % (ode.class_,)))
    # every class but THE reads its display off rows with Q(0) = 0
    if matcher is not _match_the and ode.coefficient("zeroth", 0) != 0:
        return NoMatch("a constant term survives in the undifferentiated "
                       "row; split off an origin power first")
    try:
        return matcher(ode)
    except (ArithmeticError, ValueError) as exc:
        # rows inconsistent with the declared class tag
        return NoMatch("degenerate rows for class %s: %s"
                       % (ode.class_, exc))
