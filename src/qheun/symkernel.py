"""Exact rational arithmetic in named parameters.

Three layers:

* ``Fraction`` (stdlib) as the scalar rational type,
* ``MPoly``: sparse multivariate polynomials, a dict from exponent tuple
  to nonzero Fraction over a sorted tuple of variable names,
* ``RatFun``: quotients of two MPoly values, stored without reduction
  (no multivariate gcd anywhere); equality is cross-multiplication.

Plus a recursive-descent parser for the expression grammar used by the
command-line documents, and a canonical graded-lex printer whose output
reparses to an equal value.  The term-dict loops under MPoly live in
qheun._termops, re-exported here as ``termops``.  Constants take short
paths with the same results: a constant factor only scales the other
operand, and a constant denominator is divided into the numerator.
Substitution is one pass over each part's terms into one output term
dict: each term's kept monomial is multiplied by its bound-exponent
group's factor, built once from power tables of the bound values.
Substitution, products and quotients build (and normalise) one RatFun,
and normalisation cancels the shared monomial content in one shift.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, gcd
from operator import add, sub

from . import _termops as termops

Rational = Fraction

__all__ = [
    "Rational", "MPoly", "RatFun", "DivergesAtZero", "UnknownParameter",
    "ParseError", "poly_arith", "ratfun_eq", "substitute", "limit_at_zero",
    "parse_expr", "MAX_NESTING", "MAX_TERMS", "MAX_BITS", "sym", "rat",
    "as_ratfun", "termops",
]


class DivergesAtZero(ArithmeticError):
    """A one-variable limit at zero does not exist (pole in that variable)."""


class UnknownParameter(ValueError):
    """An identifier is not part of the declared parameter universe."""


class ParseError(SyntaxError):
    """Syntax error in an expression string; carries the byte offset."""

    def __init__(self, message, text, pos):
        lo, hi = max(0, pos - 20), pos + 20
        window = "…" * (lo > 0) + text[lo:hi] + "…" * (hi < len(text))
        super().__init__(f"{message} at offset {pos}: {window!r}")
        self.offset = pos


def _term_key(exp):
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exp), exp)


class MPoly:
    """Sparse exact multivariate polynomial.

    ``vars`` is the sorted tuple of variable names that actually occur;
    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    Fractions.  Instances are immutable by convention and canonical:
    equal polynomials have equal (vars, terms).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars_=(), terms=None):
        object.__setattr__(self, "vars", tuple(vars_))
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(vars_, terms):
        """Canonicalize by dropping the variables that no term uses.

        Callers pass a sorted ``vars_`` (the union from ``_aligned`` or a
        subsequence of a canonical ``vars``) and zero-free ``terms`` (the
        term kernels never store a zero).  A sum or a substitution can
        cancel a variable away; a product cannot, so ``__mul__`` skips this.
        """
        if not terms:
            return _MP_ZERO
        used = [i for i, col in enumerate(zip(*terms)) if any(col)]
        if len(used) != len(vars_):
            vars_ = tuple(vars_[i] for i in used)
            terms = {tuple(map(e.__getitem__, used)): c
                     for e, c in terms.items()}
        return MPoly(vars_, terms)

    @staticmethod
    def const(c) -> "MPoly":
        c = Fraction(c)
        if not c:
            return _MP_ZERO
        return MPoly((), {(): c})

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly((name,), {(1,): Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def const_value(self) -> Fraction:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # the exact type first: Fraction's ABC instance check is slow to fail
        if type(other) is not MPoly and isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value (__eq__), so it hashes like it
        if not self.vars:
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- alignment ---------------------------------------------------------

    def _embed(self, vars_):
        """Re-express the term dict over a superset variable tuple."""
        if self.vars == vars_:
            return self.terms
        pos = {v: i for i, v in enumerate(vars_)}
        idx = [pos[v] for v in self.vars]
        n = len(vars_)
        out = {}
        for e, c in self.terms.items():
            ee = [0] * n
            for i, x in zip(idx, e):
                ee[i] = x
            out[tuple(ee)] = c
        return out

    @staticmethod
    def _aligned(a: "MPoly", b: "MPoly"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        vars_ = tuple(sorted(set(a.vars) | set(b.vars)))
        return vars_, a._embed(vars_), b._embed(vars_)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not MPoly and isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars_, ta, tb = MPoly._aligned(self, other)
        return MPoly._make(vars_, termops.add_terms(ta, tb))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not MPoly and isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars_, ta, tb = MPoly._aligned(self, other)
        return MPoly._make(vars_, termops.sub_terms(ta, tb))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly(self.vars, termops.neg_terms(self.terms))

    def __mul__(self, other):
        """Product; a constant operand (1: returned as is) scales the other,
        so only two non-constant polynomials reach ``termops.mul_terms``.
        """
        if type(other) is not MPoly and isinstance(other, (int, Fraction)):
            p, c = self, Fraction(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        elif self.is_zero or other.is_zero:
            return _MP_ZERO
        elif not other.vars:
            p, c = self, other.terms[()]
        elif not self.vars:
            p, c = other, self.terms[()]
        else:
            # over Q, deg_v(a*b) = deg_v(a) + deg_v(b): a product of nonzero
            # canonical polynomials uses every variable of the aligned tuple
            vars_, ta, tb = MPoly._aligned(self, other)
            return MPoly(vars_, termops.mul_terms(ta, tb))
        if not c:
            return _MP_ZERO
        if c == 1:
            return p
        return MPoly(p.vars, termops.scale_terms(p.terms, c))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        result = _MP_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __truediv__(self, other):
        return as_ratfun(self) / other

    def __rtruediv__(self, other):
        return as_ratfun(other) / self

    # -- structure ---------------------------------------------------------

    def degree_in(self, var: str) -> int:
        """Highest exponent of var; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def univariate(self, var: str) -> dict:
        """View as a polynomial in var: degree -> MPoly in the other variables."""
        if var not in self.vars:
            return {} if self.is_zero else {0: self}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        split: dict = {}
        for e, c in self.terms.items():
            split.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {k: MPoly._make(rest, t) for k, t in split.items()}

    def coefficient(self, var: str, k: int) -> "MPoly":
        return self.univariate(var).get(k, _MP_ZERO)

    def content_signed(self) -> Fraction:
        """Rational content carrying the sign of the graded-lex leading term."""
        if self.is_zero:
            return Fraction(0)
        g = 0
        l = 1
        for c in self.terms.values():
            g = gcd(g, c.numerator)
            l = l * c.denominator // gcd(l, c.denominator)
        content = Fraction(g, l)
        if self.terms[max(self.terms, key=_term_key)] < 0:
            content = -content
        return content

    def evaluate(self, values: dict):
        """Plug numbers in for every variable; exact for Fraction inputs."""
        total = None
        for e, c in self.terms.items():
            v = c
            for name, k in zip(self.vars, e):
                if k:
                    v = v * values[name] ** k
            total = v if total is None else total + v
        return Fraction(0) if total is None else total

    def substitute(self, binding: dict) -> "RatFun":
        """Simultaneous substitution of some variables by rational functions."""
        return _substitute(self, _MP_ONE, binding)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_term_key, reverse=True):
            c = self.terms[e]
            body = []
            if abs(c) != 1 or not any(e):
                body.append(str(abs(c)))
            for name, k in zip(self.vars, e):
                if k == 1:
                    body.append(name)
                elif k > 1:
                    body.append(f"{name}^{k}")
            if abs(c) == 1 and any(e) and c < 0 and not parts:
                # a bare leading "-x^2" would parse as (-x)^2 under the
                # grammar's unary-minus rule, so keep the explicit 1
                body.insert(0, "1")
            parts.append((c < 0, "*".join(body)))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"MPoly({self})"


def _times(a: dict, b: dict) -> dict:
    """Product of two term dicts over one variable tuple.  A one-term
    operand costs one exponent add and one coefficient product per term of
    the other, so only two longer operands reach ``termops.mul_terms``."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) != 1:
        return termops.mul_terms(a, b) if a else {}
    (ea, ca), = a.items()
    return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}


def _powers(t: dict, e: int, one: dict) -> list:
    """[1, t, t^2, ..., t^e] as term dicts, with ``one`` for 1."""
    out = [one, t][:e + 1]
    while len(out) <= e:
        out.append(_times(out[-1], t))
    return out


def _substitute(num: MPoly, den: MPoly, binding: dict) -> "RatFun":
    """num/den with the names in binding replaced, as one RatFun.

    Both parts are multiplied by prod(d_v^e_v), where n_v/d_v is the value
    of v and e_v the top power of v in either part, so the values'
    denominators cancel: a term with v^k gains n_v^k * d_v^(e_v - k).  That
    factor is built once per (v, k) and the product of a term's factors
    once per bound-exponent group, all as term dicts over the one output
    variable tuple.  Each part is then one pass over its terms: the kept
    monomial times the group's factor, accumulated in place into one
    output term dict.
    """
    bound = [v for v in sorted({*num.vars, *den.vars}) if v in binding]
    values = [as_ratfun(binding[v]) for v in bound]
    names = {*num.vars, *den.vars}.difference(bound)
    for r in values:
        names.update(r.num.vars, r.den.vars)
    out_vars = tuple(sorted(names))
    one = {(0,) * len(out_vars): Fraction(1)}
    factors = []
    for v, r in zip(bound, values):
        e = max(num.degree_in(v), den.degree_in(v))
        npow = _powers(r.num._embed(out_vars), e, one)
        if not r.den.vars:
            # a normalised constant denominator is 1
            factors.append(npow)
            continue
        dpow = _powers(r.den._embed(out_vars), e, one)
        factors.append([_times(npow[k], dpow[e - k]) for k in range(e + 1)])
    groups: dict = {}
    parts = []
    for p in (num, den):
        # exponents padded with one 0, which stands in for a name p lacks
        # and for a bound name in the kept monomial
        n = len(p.vars)
        pos = {v: i for i, v in enumerate(p.vars) if v not in binding}
        bsel = [p.vars.index(v) if v in p.vars else n for v in bound]
        ksel = [pos.get(v, n) for v in out_vars]
        out: dict = {}
        for e, c in p.terms.items():
            e += (0,)
            be = tuple(map(e.__getitem__, bsel))
            g = groups.get(be)
            if g is None:
                g = one
                for f, k in zip(factors, be):
                    if g is one:
                        g = f[k]
                    elif f[k] is not one:
                        g = _times(g, f[k])
                # a factor coefficient 1 is kept as None: no product then
                g = groups[be] = tuple((ef, None if cf == 1 else cf)
                                       for ef, cf in g.items())
            kept = tuple(map(e.__getitem__, ksel))
            for ef, cf in g:
                exp = tuple(map(add, kept, ef))
                cc = c if cf is None else c * cf
                s = out.get(exp)
                if s is None:
                    out[exp] = cc
                else:
                    s = s + cc
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        parts.append(MPoly._make(out_vars, out))
    if parts[1].is_zero:
        raise ZeroDivisionError(
            "denominator vanishes identically under substitution")
    return RatFun(*parts)


def _product(a_num, a_den, b_num, b_den) -> "RatFun":
    """(a_num/a_den)*(b_num/b_den) as one RatFun; equal parts cancel first."""
    if a_num == b_den and not a_num.is_const():
        a_num, b_den = _MP_ONE, _MP_ONE
    if b_num == a_den and not b_num.is_const():
        b_num, a_den = _MP_ONE, _MP_ONE
    return RatFun(a_num * b_num, a_den * b_den)


_MP_ZERO = MPoly()
_MP_ONE = MPoly((), {(): Fraction(1)})


class RatFun:
    """Quotient of two MPoly values, never reduced by a multivariate gcd.

    Normalization kept cheap and canonical-ish: the monomial content
    common to numerator and denominator is cancelled, and
    the denominator is scaled to integer coprime coefficients with a
    positive graded-lex leading coefficient.  A constant denominator
    becomes 1 directly, its inverse scaling the numerator.  Equality is
    defined by cross-multiplication, so normalization never changes the
    value.  ``substitute``, ``*`` and ``/`` build their result once;
    division multiplies by the swapped parts, building no reciprocal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if type(num) is not MPoly and isinstance(num, (int, Fraction)):
            num = MPoly.const(num)
        if den is None:
            den = _MP_ONE
        elif type(den) is not MPoly and isinstance(den, (int, Fraction)):
            den = MPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", _MP_ZERO)
            object.__setattr__(self, "den", _MP_ONE)
            return
        if not den.vars:
            # the signed content of a constant is the constant itself
            c = den.terms[()]
            object.__setattr__(self, "num", num if c == 1 else num * (1 / c))
            object.__setattr__(self, "den", _MP_ONE)
            return
        # the shared monomial content: column minima (the numerator's only
        # if the denominator has some), then one shift per part
        low = {v: m for v, m in zip(den.vars, map(min, zip(*den.terms)))
               if m and v in num.vars}
        if low:
            nlow = dict(zip(num.vars, map(min, zip(*num.terms))))
            low = {v: min(m, nlow[v]) for v, m in low.items() if nlow[v]}
        if low:
            parts = []
            for p in (num, den):
                shift = tuple(low.get(v, 0) for v in p.vars)
                parts.append(MPoly._make(p.vars, {
                    tuple(map(sub, e, shift)): c for e, c in p.terms.items()}))
            num, den = parts
        c = den.content_signed()
        if c != 1:
            inv = 1 / c
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def variables(self):
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    def is_const(self) -> bool:
        return not self.num.vars and not self.den.vars

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFun(self.num - other.num, self.den)
        return RatFun(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("rational-function power needs an integer")
        if k < 0:
            if self.num.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFun(self.den ** (-k), self.num ** (-k))
        return RatFun(self.num ** k, self.den ** k)

    # -- operations --------------------------------------------------------

    def substitute(self, binding: dict) -> "RatFun":
        """Simultaneous substitution; self when nothing it binds occurs."""
        if not any(v in binding for v in self.num.vars + self.den.vars):
            return self
        return _substitute(self.num, self.den, binding)

    def limit_at_zero(self, var: str) -> "RatFun":
        if self.num.is_zero:
            return _RF_ZERO
        nu = self.num.univariate(var)
        du = self.den.univariate(var)
        on, od = min(nu), min(du)
        if on < od:
            raise DivergesAtZero(
                f"pole of order {od - on} in {var} at 0")
        if on > od:
            return _RF_ZERO
        return RatFun(nu[on], du[od])

    def evaluate(self, values: dict):
        d = self.den.evaluate(values)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.evaluate(values) / d

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.den == _MP_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _coerce(x):
    if isinstance(x, RatFun):
        return x
    if type(x) is MPoly or isinstance(x, (int, Fraction, MPoly)):
        return as_ratfun(x)
    return NotImplemented


_RF_ZERO = RatFun(_MP_ZERO)


def as_ratfun(x) -> RatFun:
    """Coerce an int, Fraction, MPoly, or RatFun to RatFun."""
    if isinstance(x, RatFun):
        return x
    if isinstance(x, MPoly):
        return RatFun(x)
    if isinstance(x, (int, Fraction)):
        return RatFun(MPoly.const(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as RatFun")


def sym(name: str) -> RatFun:
    """A single parameter as a RatFun."""
    return RatFun(MPoly.var(name))


def rat(p, q=1) -> RatFun:
    """An exact rational constant as a RatFun."""
    return RatFun(MPoly.const(Fraction(p, q)))


# -- spec-level operation names -------------------------------------------

def poly_arith(op: str, lhs, rhs):
    """add | sub | mul on MPoly or RatFun operands (RatFun wins coercion)."""
    if isinstance(lhs, RatFun) or isinstance(rhs, RatFun):
        lhs, rhs = as_ratfun(lhs), as_ratfun(rhs)
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    raise ValueError(f"unknown operation {op!r}")


def ratfun_eq(lhs, rhs) -> bool:
    """Exact equality by cross-multiplication of unreduced quotients."""
    return as_ratfun(lhs) == as_ratfun(rhs)


def substitute(target, binding: dict) -> RatFun:
    """Simultaneous substitution parameter -> RatFun (no chaining)."""
    return as_ratfun(target).substitute(binding)


def limit_at_zero(target, var: str) -> RatFun:
    """Exact limit as var -> 0, or DivergesAtZero on a pole."""
    return as_ratfun(target).limit_at_zero(var)


# -- expression parser -----------------------------------------------------

#: Deepest nesting of parentheses and unary minus signs in parse_expr
MAX_NESTING = 100
#: Most terms '^' may give a numerator or denominator in parse_expr
MAX_TERMS = 256
#: Most bits '^' may give a coefficient in parse_expr: the exponent times
#: the largest ceil(log2 |n|) over the base's numerators and denominators
MAX_BITS = 1 << 16


def parse_expr(text: str, universe) -> RatFun:
    """Parse the document grammar into a RatFun.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-integer)?
    base   := identifier | integer | '(' expr ')' | '-' base

    Identifiers must belong to ``universe``; '/' is exact division and
    '^' takes nonnegative integer exponents only.  Nesting deeper than
    MAX_NESTING, which would exhaust the stack, raises ParseError, and so
    does a power that may pass MAX_TERMS terms or MAX_BITS bits (checked
    before expanding) and an integer longer than sys.get_int_max_str_digits;
    an unknown identifier raises UnknownParameter.
    """
    return _Parser(text, frozenset(universe)).run()


class _Parser:
    def __init__(self, text, universe):
        self.text = text
        self.universe = universe
        self.pos = 0
        self.depth = 0

    def run(self) -> RatFun:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.text, self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> RatFun:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> RatFun:
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.factor()
            elif ch == "/":
                self.pos += 1
                rhs = self.factor()
                if rhs.is_zero:
                    raise ParseError("division by zero", self.text, self.pos)
                value = value / rhs
            else:
                return value

    def factor(self) -> RatFun:
        value = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            k = self.integer()
            if k is None:
                raise ParseError("expected a nonnegative integer exponent",
                                 self.text, start)
            for d in (len(value.num.terms) - 1, len(value.den.terms) - 1):
                # (d+1 terms)^k has up to C(k+d, d) >= k+1 terms: cap k
                if d > 0 and comb(min(k, MAX_TERMS) + d, d) > MAX_TERMS:
                    raise ParseError("power may pass %d terms" % MAX_TERMS,
                                     self.text, start)
            coeffs = [*value.num.terms.values(), *value.den.terms.values()]
            bits = max((abs(n) - 1).bit_length()
                       for c in coeffs for n in (c.numerator, c.denominator))
            if k * bits > MAX_BITS:
                raise ParseError("power may pass %d bits" % MAX_BITS,
                                 self.text, start)
            value = value ** k
        return value

    def base(self) -> RatFun:
        ch = self.peek()
        if ch == "-" or ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("nesting deeper than %d" % MAX_NESTING,
                                 self.text, self.pos)
            self.depth += 1
            self.pos += 1
            if ch == "-":
                value = -self.base()
            else:
                value = self.expr()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.text, self.pos)
                self.pos += 1
            self.depth -= 1
            return value
        if ch.isdecimal():
            return rat(self.integer())
        if ch.isalpha():
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum()
                        or self.text[self.pos] == "_")):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.universe:
                shown = name[:40] + "…" * (len(name) > 40)
                raise UnknownParameter(
                    f"unknown parameter {shown!r} at offset {start}")
            return sym(name)
        raise ParseError("expected a value", self.text, self.pos)

    def integer(self):
        """The run of decimal digits at pos as an int, or None if empty."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if cap and self.pos - start > cap:
            raise ParseError("integer of more than %d digits" % cap,
                             self.text, start)
        return int(self.text[start:self.pos]) if self.pos > start else None
