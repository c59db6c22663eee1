"""Command-line front end and JSON document plumbing.

Subcommands replay catalog derivations, classify and draw equations,
apply gauge moves, expand local series, drive the continuum limit, and
run the verification harness over the recorded summary tables.  All
exact values cross the JSON boundary as strings, at any length: a run
lifts Python's cap on int/str conversion while it lasts.  Floats appear
only for genuinely approximate data.  Equation documents key each side
by degree, a nonnegative integer written without leading zeros and at
most MAX_DEGREE (1000); a larger key is a usage error, refused before
any coefficient list is built; so is a decimal exponent above
MAX_EXPONENT (10000) in an exact rational, and JSON nested too deeply.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 domain error.  A reader that closes stdout early does not change the
exit code; the rest of the output is discarded.

Only the document plumbing (qdiff, symkernel) loads with this module;
each command imports the submodules it runs on first use, so a command
line loads no more of the package than its command needs.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import qdiff
from .qdiff import CONVENTION
from .symkernel import ParseError, UnknownParameter, as_ratfun, parse_expr

__all__ = ["CONVENTION", "EQ_FORMAT", "BIND_FORMAT", "FAMILY_FORMAT",
           "ODE_FORMAT", "MAX_DEGREE", "MAX_EXPONENT", "UsageError",
           "read_equation", "write_equation", "read_binding", "run", "main"]

EQ_FORMAT = "qheun-eq/1"
BIND_FORMAT = "qheun-params/1"
FAMILY_FORMAT = "qheun-epsfam/1"
ODE_FORMAT = "qheun-ode/1"

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DEGREE = re.compile(r"(0|[1-9][0-9]*)\Z")
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([0-9_]*)\s*\Z")

#: Largest degree key an equation document may use.  Each side becomes a
#: dense list up to its largest key, so the key bounds the memory a
#: document can claim.
MAX_DEGREE = 1000

#: Largest decimal exponent, in absolute value, of an exact rational:
#: Fraction("1e1000000000") would build a billion digits, for hours.
MAX_EXPONENT = 10000

#: climit.preset_names(), kept here so that the parser loads no climit
_PRESET_NAMES = ("heun", "confluent", "biconfluent", "doubly-confluent")


class UsageError(Exception):
    """Bad flags or malformed input documents; maps to exit code 2."""


def _fail(condition, message):
    if not condition:
        raise UsageError(message)


def _identifiers(text):
    return set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", text))


# -- documents -------------------------------------------------------------

def write_equation(eq) -> dict:
    """EquationDocument for an equation value; exact strings throughout."""
    names = set()
    rows = {}
    for side in ("P", "Z", "M"):
        entries = {}
        for k in range(eq.degree + 1):
            c = eq.coeff(side, k)
            if not c.is_zero:
                entries[str(k)] = str(c)
                names.update(c.variables())
        rows[side] = entries
    doc = {"format": EQ_FORMAT, "variable": eq.variable,
           "parameters": sorted(names - {eq.variable}),
           "convention": CONVENTION}
    doc.update(rows)
    return doc


def read_equation(doc) -> qdiff.QDiffEq:
    """Parse and validate an EquationDocument back into an equation."""
    _fail(isinstance(doc, dict), "equation document must be a JSON object")
    _fail(doc.get("format") == EQ_FORMAT,
          "unknown document format %r" % (doc.get("format"),))
    variable = doc.get("variable")
    _fail(isinstance(variable, str) and _IDENT.match(variable),
          "variable must be an identifier")
    params = doc.get("parameters")
    _fail(isinstance(params, list) and
          all(isinstance(p, str) and _IDENT.match(p) for p in params),
          "parameters must be a list of identifiers")
    _fail(variable not in params, "the variable cannot also be a parameter")
    _fail(doc.get("convention") == CONVENTION,
          "unsupported convention %r" % (doc.get("convention"),))
    universe = set(params)
    zero = as_ratfun(0)
    sides = []
    for side in ("P", "Z", "M"):
        entries = doc.get(side, {})
        _fail(isinstance(entries, dict),
              "%s must map degree strings to expression strings" % side)
        row = {}
        for key, text in entries.items():
            _fail(_DEGREE.match(key),
                  "bad degree key %r (want a nonnegative integer)" % (key,))
            # compare lengths first: int() of a huge key is itself slow
            _fail(len(key) <= len(str(MAX_DEGREE)) and int(key) <= MAX_DEGREE,
                  "degree key %.24r exceeds the maximum degree %d"
                  % (key, MAX_DEGREE))
            _fail(isinstance(text, str),
                  "exact values must be strings (%s, degree %s)"
                  % (side, key))
            row[int(key)] = parse_expr(text, universe)
        sides.append([row.get(k, zero)
                      for k in range(max(row, default=-1) + 1)])
    try:
        return qdiff.QDiffEq(*sides, variable)
    except ValueError as bad:
        raise UsageError("invalid equation document: %s" % bad)


def read_binding(doc) -> dict:
    """BindingDocument to a name -> Fraction map."""
    _fail(isinstance(doc, dict), "binding document must be a JSON object")
    _fail(doc.get("format") == BIND_FORMAT,
          "unknown document format %r" % (doc.get("format"),))
    raw = doc.get("bindings")
    _fail(isinstance(raw, dict), "bindings must be an object")
    out = {}
    for name, text in raw.items():
        _fail(isinstance(name, str) and _IDENT.match(name),
              "binding name %r is not an identifier" % (name,))
        _fail(isinstance(text, str),
              "exact values must be strings (binding %s)" % name)
        out[name] = _rational(text, "binding %s" % name)
    return out


def _rational(text, what):
    """Fraction(text), or a UsageError that names ``what``."""
    power = _EXPONENT.search(text)
    # compare lengths first: int() of a huge exponent is itself slow
    digits = power.group(1).replace("_", "") if power else ""
    _fail(len(digits) <= len(str(MAX_EXPONENT))
          and int(digits or "0") <= MAX_EXPONENT,
          "%s: decimal exponent of %.24r exceeds %d"
          % (what, text, MAX_EXPONENT))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s wants an exact rational, got %.80r"
                         % (what, text))


def _exact(value):
    """JSON form of one value: exact data as strings, floats as numbers."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    return str(value)


# -- small IO helpers ------------------------------------------------------

def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as bad:
        # RecursionError: nested deeper than the decoder can follow
        raise UsageError("invalid JSON in %s: %s" % (path or "stdin", bad))


def _emit(text, path):
    if path in (None, "-"):
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: send what is left, including the flush
            # at exit, to devnull, as the SIGPIPE note in the Python docs
            # shows, and let the command keep its own exit code
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)


def _emit_json(obj, path):
    _emit(json.dumps(obj, indent=2) + "\n", path)


# -- subcommands -----------------------------------------------------------

def _cmd_derive(args):
    from . import lax
    catalog, family = args.catalog, args.family
    roster = (lax.MURATA_FAMILIES if catalog == "murata"
              else lax.KNY_FAMILIES)
    _fail(family in roster, "catalog %s has no family %r (have %s)"
          % (catalog, family, ", ".join(roster)))
    if catalog == "murata":
        _fail(args.gauge is None, "--gauge only applies to the kny catalog")
        variant = args.variant or lax.MURATA_TABLE_VARIANT[family]
        have = lax.MURATA_VARIANTS[family]
        _fail(variant in have, "family %s has no %r variant (have %s)"
              % (family, variant, ", ".join(have)))
        params = lax.MurataParams(family)
        relation = lax.scalar_reduce(lax.build_murata(params))
        eq = lax.specialize(family, variant, relation,
                            binding=params.binding)
    else:
        _fail(args.variant is None,
              "--variant only applies to the murata catalog")
        op = lax.build_kny(lax.KNYParams(family))
        apply = (family in lax.KNY_GAUGED if args.gauge is None
                 else args.gauge)
        eq = lax.kny_to_equation(op, apply_gauge=apply)
    _emit_json(write_equation(eq), args.out)
    return 0


def _cmd_classify(args):
    eq = read_equation(_load_json(args.infile))
    _emit_json(qdiff.classify(eq).to_json(), args.out)
    return 0


def _cmd_polygon(args):
    eq = read_equation(_load_json(args.infile))
    text = qdiff.render_diagram(qdiff.newton_diagram(eq), args.format)
    if not text.endswith("\n"):
        text += "\n"
    _emit(text, args.out)
    return 0


def _cmd_gauge(args):
    from . import gauge
    eq = read_equation(_load_json(args.infile))
    kind = args.kind
    if kind == "power":
        _fail(args.exponent is not None, "--kind power needs --exponent")
        new = gauge.gauge_power(
            eq, _rational(args.exponent, "--exponent"))
    elif kind in ("pochhammer", "theta"):
        _fail(args.alpha is not None, "--kind %s needs --alpha" % kind)
        names = _identifiers(args.alpha)
        _fail(eq.variable not in names,
              "--alpha must not involve the equation variable")
        value = parse_expr(args.alpha, names)
        new = gauge.gauge_move_factor(
            eq, "Pochhammer" if kind == "pochhammer" else "Theta", value)
    elif kind == "linear":
        _fail(args.factor is not None, "--kind linear needs --factor")
        value = parse_expr(args.factor,
                           _identifiers(args.factor) | {eq.variable})
        new = gauge.gauge_linear(eq, value)
    else:
        new = gauge.invert_variable(eq)
    _emit_json(write_equation(new), args.out)
    return 0


def _cmd_exponents(args):
    from . import local
    eq = read_equation(_load_json(args.infile))
    if args.bind:
        eq = eq.substitute(read_binding(_load_json(args.bind)))
    at = "Zero" if args.at == "zero" else "Infinity"
    ch = local.char_exponents(eq, at=at)
    doc = {"format": "qheun-exponents/1", "location": ch.location,
           "regularity": ch.regularity,
           "characteristic": {"2": str(ch.c2), "1": str(ch.c1),
                              "0": str(ch.c0)},
           "roots": (None if ch.roots is None
                     else [_exact(r) for r in ch.roots])}
    _emit_json(doc, args.out)
    return 0


def _cmd_series(args):
    from . import local
    eq = read_equation(_load_json(args.infile))
    binding = read_binding(_load_json(args.bind))
    _fail(args.terms >= 0, "--terms must be nonnegative")
    sol = local.series_solution(eq, binding, rootIndex=args.root,
                                N=args.terms)
    doc = {"format": "qheun-series/1", "location": sol.location,
           "q": _exact(sol.q), "exponentBase": _exact(sol.s),
           "coefficients": [_exact(c) for c in sol.coefficients]}
    if args.residual_at is not None:
        x = _rational(args.residual_at, "--residual-at")
        doc["residual"] = {"at": str(x),
                           "value": _exact(local.residual(eq, sol, x))}
    _emit_json(doc, args.out)
    return 0


def _read_family_file(path):
    from . import climit
    doc = _load_json(path)
    _fail(isinstance(doc, dict), "family document must be a JSON object")
    _fail(doc.get("format") == FAMILY_FORMAT,
          "unknown document format %r" % (doc.get("format"),))
    _fail(doc.get("parameter", "eps") == "eps",
          "the expansion parameter must be named eps")
    rows = {}
    for name in ("plus", "zero", "minus"):
        row = doc.get(name)
        _fail(isinstance(row, list) and len(row) == 3 and
              all(isinstance(e, str) for e in row),
              "%s must be a list of three expression strings "
              "(degrees 0, 1, 2)" % name)
        rows[name] = tuple(row)
    try:
        return climit.EpsilonFamily(**rows)
    except (ValueError, UnknownParameter, ParseError) as bad:
        raise UsageError("invalid family document: %s" % bad)


def _cmd_limit(args):
    from . import climit, odeheun
    _fail((args.preset is None) != (args.family_file is None),
          "give exactly one of --preset and --family-file")
    if args.crosscheck is not None:
        eps = _rational(args.crosscheck, "--crosscheck")
        _fail(0 < eps < 1, "--crosscheck wants 0 < eps < 1")
        _fail(eps / 10 >= Fraction(sys.float_info.min), "--crosscheck "
              "wants eps >= %r: the gap at eps/10 must stay in the float "
              "range" % (10 * sys.float_info.min))
    if args.preset is not None:
        try:
            fam = climit.preset_family(args.preset)
        except ValueError as bad:
            raise UsageError(str(bad))
    else:
        fam = _read_family_file(args.family_file)
    ode = climit.classify_ode(climit.emit_ode(climit.limit_coefficients(
        fam)))
    b = ode.limits
    reading = odeheun.match_class(ode)
    if isinstance(reading, odeheun.NoMatch):
        display = {"obstruction": reading.obstruction}
    else:
        display = {k: _exact(v) if k != "class" else v
                   for k, v in reading.as_dict().items()}
    doc = {"format": ODE_FORMAT, "class": ode.class_,
           "originExponent": _exact(ode.rho),
           "second": [_exact(v) for v in ode.second],
           "first": [_exact(v) for v in ode.first],
           "zeroth": [_exact(v) for v in ode.zeroth],
           "singularities": [_exact(s) for s in ode.singularities],
           "limits": {name: _exact(value)
                      for name, value in b.as_dict().items()},
           "display": display}
    _emit_json(doc, args.emit)
    if args.crosscheck is not None:
        xs = (Fraction(1, 10),)
        coarse = climit.crosscheck(fam, eps, xs, N=12)
        fine = climit.crosscheck(fam, eps / 10, xs, N=12)
        report = {"format": "qheun-crosscheck/1", "eps": str(eps),
                  "deviation": coarse, "deviationAtTenth": fine,
                  "ratio": (coarse / fine) if fine else None}
        _emit_json(report, None)
    return 0


def _cmd_verify(args):
    from . import lax
    jobs = []
    for catalog, roster in (("murata", lax.MURATA_FAMILIES),
                            ("kny", lax.KNY_FAMILIES)):
        if args.catalog and args.catalog != catalog:
            continue
        for family in roster:
            if args.family and args.family != family:
                continue
            jobs.append((catalog, family))
    _fail(jobs, "no catalog row matches the given filters")
    lines = []
    ok = True
    for catalog, family in jobs:
        report = lax.verify_family(catalog, family)
        ok = ok and report["match"]
        lines.append(json.dumps({
            "family": report["family"],
            "catalog": report["catalog"],
            "match": report["match"],
            "accessorySign": report["accessoryMap"],
            "discrepancies": report["discrepancies"],
        }))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# -- argument surface ------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qheun",
        description="Exact toolkit for three-term q-difference equations "
                    "of Heun type.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--in", dest="infile", metavar="FILE",
                       help="input equation document (default: stdin)")
        p.add_argument("--out", metavar="FILE",
                       help="output file (default: stdout)")

    p = sub.add_parser("derive",
                       help="replay a catalog derivation to a document")
    p.add_argument("--catalog", required=True, choices=("murata", "kny"))
    p.add_argument("--family", required=True, metavar="ID")
    p.add_argument("--variant", choices=("paper", "alt"),
                   help="specialization route (murata only)")
    p.add_argument("--gauge", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="apply the factor-stripping gauge (kny only; on by"
                        " default for the rows recorded in gauged form)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("classify", help="taxonomy label of an equation")
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("polygon", help="support diagram of an equation")
    common(p)
    p.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    p.set_defaults(handler=_cmd_polygon)

    p = sub.add_parser("gauge", help="apply one gauge move")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=("power", "pochhammer", "theta", "linear",
                            "invert"))
    p.add_argument("--exponent", metavar="RAT",
                   help="power kind: exponent of the split-off power")
    p.add_argument("--alpha", metavar="EXPR",
                   help="pochhammer/theta kinds: factor parameter")
    p.add_argument("--factor", metavar="EXPR",
                   help="linear kind: polynomial gauge factor")
    p.set_defaults(handler=_cmd_gauge)

    p = sub.add_parser("exponents", help="boundary exponent data")
    common(p)
    p.add_argument("--at", default="zero", choices=("zero", "infinity"))
    p.add_argument("--bind", metavar="FILE",
                   help="binding document applied first")
    p.set_defaults(handler=_cmd_exponents)

    p = sub.add_parser("series", help="local series expansion at zero")
    common(p)
    p.add_argument("--bind", required=True, metavar="FILE")
    p.add_argument("--root", type=int, default=0, choices=(0, 1),
                   help="which characteristic root to follow")
    p.add_argument("--terms", type=int, default=10, metavar="N")
    p.add_argument("--residual-at", metavar="RAT",
                   help="also evaluate the three-term residual here")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("limit", help="continuum limit of an eps-family")
    p.add_argument("--preset", metavar="ID",
                   help="shipped family (%s)" % ", ".join(_PRESET_NAMES))
    p.add_argument("--family-file", metavar="FILE")
    p.add_argument("--emit", metavar="FILE",
                   help="write the limiting-operator document here")
    p.add_argument("--crosscheck", metavar="EPS",
                   help="compare q-side and limit-side series at EPS "
                        "and EPS/10")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("verify",
                       help="replay every derivation against the tables")
    p.add_argument("--catalog", choices=("murata", "kny"))
    p.add_argument("--family", metavar="ID")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv):
    """Dispatch one command line; returns the process exit code.

    Python's cap on the digits of int/str conversions is lifted for the
    duration of the call, so exact values of any size parse and print.
    """
    if not hasattr(sys, "set_int_max_str_digits"):   # before 3.10.7
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (UsageError, ParseError, UnknownParameter, OSError) as bad:
        # UnknownParameter is a ValueError, so this handler comes first
        print("error: %s" % bad, file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as bad:
        # every domain exception of the package derives from one of these
        print("error: %s" % bad, file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
