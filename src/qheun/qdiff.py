"""Three-term q-difference equations, their support diagrams, and the
named confluent-type classification.

An equation is stored in the fixed convention

    P(x)*f(q*x) + Z(x)*f(x) + M(x)*f(x/q) = 0

with each of P, Z, M a polynomial in the shift variable whose coefficients
are exact rational functions of the remaining parameters.  The classical
sign convention A*f(qx) - B*f(x) + C*f(x/q) = 0 corresponds to P = A,
Z = -B, M = C, so a "B coefficient vanishes" condition is exactly a
"Z coefficient vanishes" condition here.
"""

from typing import NamedTuple, Optional

from . import xpoly
from .symkernel import RatFun, as_ratfun, sym

CONVENTION = "P*f(q*x) + Z*f(x) + M*f(x/q) = 0"

#: Column order used by every support diagram, left to right.
COLUMNS = ("M", "Z", "P")


class QDiffEq:
    """A three-term q-difference equation with polynomial coefficients.

    P, Z, M are tuples of x-free RatFun values indexed by x-degree,
    trimmed of trailing zeros.  At least one coefficient must be nonzero.
    """

    __slots__ = ("P", "Z", "M", "variable")
    convention = CONVENTION

    def __init__(self, P, Z, M, variable="x"):
        P = tuple(xpoly.trim(P))
        Z = tuple(xpoly.trim(Z))
        M = tuple(xpoly.trim(M))
        if not (P or Z or M):
            raise ValueError("all coefficients are identically zero")
        for side in (P, Z, M):
            for c in side:
                if variable in c.variables():
                    raise ValueError(
                        "coefficient contains the shift variable %r; "
                        "coefficients must be parameter expressions indexed "
                        "by degree" % variable)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "variable", variable)

    def __setattr__(self, name, value):
        raise AttributeError("QDiffEq is immutable")

    @property
    def degree(self) -> int:
        return max(len(self.P), len(self.Z), len(self.M)) - 1

    def side(self, name):
        if name == "P":
            return self.P
        if name == "Z":
            return self.Z
        if name == "M":
            return self.M
        raise KeyError(name)

    def coeff(self, name, k) -> RatFun:
        s = self.side(name)
        return s[k] if k < len(s) else as_ratfun(0)

    def support(self):
        """The set of (side, degree) positions with a nonzero coefficient."""
        out = set()
        for name in COLUMNS:
            for k, c in enumerate(self.side(name)):
                if not c.is_zero:
                    out.add((name, k))
        return frozenset(out)

    def signature(self) -> str:
        """Nine-character nonzero pattern over degrees 2,1,0 of P, Z, M in
        that order, with a "+degN" suffix when the degree exceeds 2."""
        bits = "".join(
            "1" if not self.coeff(name, k).is_zero else "0"
            for name in ("P", "Z", "M") for k in (2, 1, 0))
        d = self.degree
        if d > 2:
            bits += "+deg%d" % d
        return bits

    def scaled(self, factor) -> "QDiffEq":
        """Multiply every coefficient by one nonzero x-free factor."""
        factor = as_ratfun(factor)
        if factor.is_zero:
            raise ValueError("scale factor is zero")
        return QDiffEq(
            xpoly.scale(self.P, factor),
            xpoly.scale(self.Z, factor),
            xpoly.scale(self.M, factor),
            self.variable)

    def substitute(self, binding) -> "QDiffEq":
        """Bind parameters in every coefficient (the shift variable stays)."""
        # coerced once here, not once per coefficient
        binding = {name: as_ratfun(v) for name, v in binding.items()}
        return QDiffEq(*([c.substitute(binding) for c in side]
                         for side in (self.P, self.Z, self.M)), self.variable)

    def move_factor(self, p, q, back=False) -> "QDiffEq":
        """The cleared linear gauge u(qx) = p(x) u(x): the unknown over u
        gives (P*p(x), Z, M/p(x/q)), and with ``back`` the unknown times u
        gives (P/p(x), Z, M*p(x/q)).  p is a nonzero polynomial in the shift
        variable (a list or a RatFun); q is the symbol q or its bound value.
        ValueError when a division is not exact."""
        p_x = xpoly.as_xpoly(p, self.variable)
        p_down = xpoly.shift_arg(p_x, as_ratfun(1) / q)
        if back:
            return QDiffEq(xpoly.divexact(self.P, p_x), self.Z,
                           xpoly.mul(self.M, p_down), self.variable)
        return QDiffEq(xpoly.mul(self.P, p_x), self.Z,
                       xpoly.divexact(self.M, p_down), self.variable)

    @staticmethod
    def from_scalar_coefficients(P, Z, M, variable="x"):
        """Build an equation from three rational functions that still
        contain the shift variable, clearing denominators by their lcm.
        The general path (``gauge.rebase``) and the tests' reference;
        ``lax`` clears only the factors its constructions name."""
        rows = [xpoly.from_ratfun(as_ratfun(r), variable) for r in (P, Z, M)]
        common = [as_ratfun(1)]
        for _, den in rows:
            common = xpoly.lcm(common, den)
        cleared = [xpoly.divexact(xpoly.mul(num, common), den)
                   for num, den in rows]
        return QDiffEq(cleared[0], cleared[1], cleared[2], variable)

    def scalar_coefficient(self, name) -> RatFun:
        """The side as a single RatFun in the shift variable."""
        v = sym(self.variable)
        acc = as_ratfun(0)
        for k, c in enumerate(self.side(name)):
            acc = acc + c * v ** k
        return acc

    def __repr__(self):
        return "QDiffEq(P=%s, Z=%s, M=%s)" % (
            [str(c) for c in self.P],
            [str(c) for c in self.Z],
            [str(c) for c in self.M])


class ThreeTermRelation:
    """A scalar relation U(x)*y(q^2*x) + V(x)*y(q*x) + W(x)*y(x) = 0 whose
    coefficients are rational functions containing the shift variable."""

    __slots__ = ("up", "mid", "low", "variable")
    convention = "U*y(q^2*x) + V*y(q*x) + W*y(x) = 0"

    def __init__(self, up, mid, low, variable="x"):
        up, mid, low = as_ratfun(up), as_ratfun(mid), as_ratfun(low)
        if up.is_zero and mid.is_zero and low.is_zero:
            raise ValueError("all coefficients are identically zero")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "variable", variable)

    def __setattr__(self, name, value):
        raise AttributeError("ThreeTermRelation is immutable")

    def substitute(self, binding) -> "ThreeTermRelation":
        return ThreeTermRelation(
            self.up.substitute(binding),
            self.mid.substitute(binding),
            self.low.substitute(binding),
            self.variable)

    def __repr__(self):
        return "ThreeTermRelation(up=%s, mid=%s, low=%s)" % (
            self.up, self.mid, self.low)


def equations_equal(a: QDiffEq, b: QDiffEq) -> bool:
    """Coefficient-wise exact equality."""
    return (xpoly.eq(a.P, b.P) and xpoly.eq(a.Z, b.Z)
            and xpoly.eq(a.M, b.M))


def equations_proportional(a: QDiffEq, b: QDiffEq) -> bool:
    """True when one equation is the other multiplied through by a single
    nonzero factor, which may involve the shift variable.  Checked by
    cross-multiplying the coefficient polynomials pairwise."""
    pa = [a.P, a.Z, a.M]
    pb = [b.P, b.Z, b.M]
    for i in range(3):
        for j in range(i + 1, 3):
            if not xpoly.eq(xpoly.mul(pa[i], pb[j]), xpoly.mul(pa[j], pb[i])):
                return False
    # Cross products cannot distinguish a side that vanishes on one
    # equation only when the opposite side also vanishes; require the
    # same zero pattern of whole sides.
    for i in range(3):
        if bool(pa[i]) != bool(pb[i]):
            return False
    return True


# ---------------------------------------------------------------------------
# support diagrams


class NewtonDiagram(NamedTuple):
    """Support of an equation on the 3-column lattice, plus its convex hull.

    filled holds (column, row) pairs with column in {"M","Z","P"} and row
    the x-degree.  hull is the boundary of {(colIndex,row)} with colIndex
    M=0, Z=1, P=2, listed counterclockwise starting from the
    lexicographically smallest vertex; collinear interior points are
    dropped.
    """
    filled: frozenset
    hull: tuple


def _convex_hull(points):
    """Monotone-chain convex hull; vertices only, counterclockwise from
    the lexicographically smallest point."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def newton_diagram(eq: QDiffEq) -> NewtonDiagram:
    """Support diagram of the nonzero coefficients with its convex hull."""
    filled = eq.support()
    pts = [(COLUMNS.index(col), row) for col, row in filled]
    return NewtonDiagram(filled=filled, hull=tuple(_convex_hull(pts)))


def render_diagram(d: NewtonDiagram, format="ascii") -> str:
    if format == "ascii":
        return _render_ascii(d)
    if format == "svg":
        return _render_svg(d)
    raise ValueError("unknown format %r" % (format,))


def _render_ascii(d: NewtonDiagram) -> str:
    top = max(2, max((row for _, row in d.filled), default=0))
    lines = []
    for row in range(top, -1, -1):
        cells = []
        for col in COLUMNS:
            cells.append("*" if (col, row) in d.filled else "o")
        lines.append("%d  %s" % (row, "  ".join(cells)))
    lines.append("   %s" % "  ".join(COLUMNS))
    lines.append("hull: " + " ".join("(%d,%d)" % p for p in d.hull))
    return "\n".join(lines)


def _render_svg(d: NewtonDiagram) -> str:
    top = max(2, max((row for _, row in d.filled), default=0))
    height = max(160, 40 * top + 40)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="0 0 200 %d">' % height]
    for row in range(0, top + 1):
        for ci, col in enumerate(COLUMNS):
            cx = 40 + 40 * ci
            cy = height - 20 - 40 * row
            if (col, row) in d.filled:
                parts.append(
                    '<circle cx="%d" cy="%d" r="5" fill="black"/>' % (cx, cy))
            else:
                parts.append(
                    '<circle cx="%d" cy="%d" r="5" fill="white" '
                    'stroke="black"/>' % (cx, cy))
    if len(d.hull) >= 2:
        cmds = []
        for k, (ci, row) in enumerate(d.hull):
            x = 40 + 40 * ci
            y = height - 20 - 40 * row
            cmds.append("%s %d %d" % ("M" if k == 0 else "L", x, y))
        parts.append('<path d="%s Z" fill="none" stroke="black"/>'
                     % " ".join(cmds))
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# classification


class TaxonomyLabel(NamedTuple):
    """Classification result: broad class, matched defining form if any,
    reduction level, and the raw support signature."""
    class_: str
    variant_form: Optional[str]
    reduction: str
    signature: str

    def to_json(self) -> dict:
        return {
            "class": self.class_,
            "variantForm": self.variant_form,
            "reduction": self.reduction,
            "signature": self.signature,
        }


#: Defining zero patterns of the named forms.  Each entry lists the
#: positions required to vanish and the positions required not to vanish;
#: every other position is free.  Positions are (side, degree).
NAMED_FORMS = (
    ("cqHE", "Confluent",
     (("P", 2),), (("P", 1), ("P", 0), ("M", 2), ("M", 0))),
    ("cqHE2", "Confluent",
     (("M", 2),), (("P", 2), ("P", 0), ("M", 1), ("M", 0))),
    ("cqHE3", "Confluent",
     (("M", 0),), (("P", 2), ("P", 0), ("M", 2), ("M", 1))),
    ("cqHE4", "Confluent",
     (("P", 0),), (("P", 2), ("P", 1), ("M", 2), ("M", 0))),
    ("bqHE", "Biconfluent",
     (("P", 2), ("P", 1)), (("P", 0), ("Z", 2), ("M", 2), ("M", 0))),
    ("bqHE2", "Biconfluent",
     (("M", 2), ("M", 1)), (("M", 0), ("P", 2), ("P", 0), ("Z", 2))),
    ("bqHE3", "Biconfluent",
     (("M", 1), ("M", 0)), (("M", 2), ("P", 2), ("P", 0), ("Z", 0))),
    ("bqHE4", "Biconfluent",
     (("P", 1), ("P", 0)), (("P", 2), ("Z", 0), ("M", 2), ("M", 0))),
    ("bqHE5", "Biconfluent",
     (("P", 2), ("M", 2)),
     (("P", 1), ("P", 0), ("Z", 2), ("M", 1), ("M", 0))),
    ("bqHE6", "Biconfluent",
     (("P", 0), ("M", 0)),
     (("P", 2), ("P", 1), ("Z", 0), ("M", 2), ("M", 1))),
    ("dqHE", "DoublyConfluent",
     (("P", 2), ("P", 0)), (("P", 1), ("M", 2), ("M", 0))),
    ("dqHE2", "DoublyConfluent",
     (("M", 2), ("M", 0)), (("M", 1), ("P", 2), ("P", 0))),
    ("dqHE3", "DoublyConfluent",
     (("P", 2), ("M", 0)), (("P", 1), ("P", 0), ("M", 2), ("M", 1))),
    ("dqHE4", "DoublyConfluent",
     (("P", 0), ("M", 2)), (("P", 2), ("P", 1), ("M", 1), ("M", 0))),
)

def _matches(form, nz):
    _, _, zeros, nonzeros = form
    return (all(pos not in nz for pos in zeros)
            and all(pos in nz for pos in nonzeros))


def classify(eq: QDiffEq) -> TaxonomyLabel:
    """Match the equation's symbolic zero pattern against the named
    families.  Nonvanishing means "not identically zero"; binding numeric
    parameter values first may change the outcome.
    """
    signature = eq.signature()
    nz = eq.support()

    if eq.degree > 2:
        return TaxonomyLabel("Unclassified", None, "NotApplicable", signature)

    def on(side, k):
        return (side, k) in nz

    if on("P", 2) and on("P", 0) and on("M", 2) and on("M", 0):
        return TaxonomyLabel("QHeun", None, "NotApplicable", signature)
    if not on("P", 2) and not on("Z", 2) and not on("M", 2):
        return TaxonomyLabel(
            "HypergeometricType", None, "NotApplicable", signature)

    for form in NAMED_FORMS:
        if not _matches(form, nz):
            continue
        name, clazz = form[0], form[1]
        reduction = "NotApplicable"
        if clazz == "Confluent":
            # the free Z corner opposite the loaded side governs reduction
            corner = 2 if name in ("cqHE", "cqHE2") else 0
            reduction = "NonReduced" if on("Z", corner) else "SinglyReduced"
        elif clazz == "DoublyConfluent":
            missing = (not on("Z", 2)) + (not on("Z", 0))
            reduction = ("NonReduced", "SinglyReduced",
                         "DoublyReduced")[missing]
        return TaxonomyLabel(clazz, name, reduction, signature)

    return TaxonomyLabel("Unclassified", None, "NotApplicable", signature)
