"""Output checks, independent of the code paths they judge.

Each check returns (status, reason).  FAIL marks an operation that
failed loudly: the program raised, exited non-zero, reported a mismatch
itself, or refused to read back its own output.  WRONG marks an output
that passes the program's own validation but has the wrong value; a run
with any WRONG verdict is not correct.
"""

import json
import xml.etree.ElementTree as ElementTree
from fractions import Fraction

from qheun import cli
from qheun.qdiff import equations_equal
from qheun.symkernel import ParseError, UnknownParameter

PASS, FAIL, WRONG = "pass", "fail", "wrong"
OK = (PASS, "")


class ChildResult:
    """Exit code and captured streams of one child process."""

    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def check_report(report, catalog, family):
    """A verification report must name its row and say ``match: true``."""
    if not isinstance(report, dict) or report.get("catalog") != catalog \
            or report.get("family") != family or "match" not in report:
        return WRONG, "malformed report"
    if report["match"] is not True:
        return FAIL, "reported mismatch in %d slot(s)" % len(
            report.get("discrepancies", ()))
    if report.get("discrepancies"):
        return WRONG, "match reported with discrepancies"
    return OK


def check_round_trip(eq, doc):
    """An equation document must reparse to the same equation and text."""
    try:
        back = cli.read_equation(json.loads(json.dumps(doc)))
    except (cli.UsageError, ParseError, UnknownParameter) as exc:
        return FAIL, "document does not reparse: %s" % (exc,)
    if eq is not None and not equations_equal(back, eq):
        return WRONG, "reparsed equation differs"
    if cli.write_equation(back) != doc:
        return WRONG, "document changes on a round trip"
    return OK


# Mersenne primes for the modular test of the low-degree coefficients
PRIMES = (2 ** 61 - 1, 2 ** 89 - 1)


def _residue(value, prime):
    """A Fraction modulo a prime; ValueError if its denominator is 0 there."""
    return value.numerator * pow(value.denominator, -1, prime) % prime


def _product(sides, q, s, coeffs, degrees, conv, reduce):
    """Coefficients of the given degrees of

        P(x)*s*f(qx) + Z(x)*f(x) + M(x)*f(x/q)/s

    for the truncated series f = sum c[j] x^j, by polynomial
    multiplication; every value passes through ``conv`` and every product
    through ``reduce``, so the same code runs exactly or modulo a prime.
    """
    top = len(sides["P"]) - 1
    sp = [conv(v * s) for v in sides["P"]]
    zs = [conv(v) for v in sides["Z"]]
    ms = [conv(v / s) for v in sides["M"]]
    qc, qi = conv(Fraction(q)), conv(1 / Fraction(q))
    out = {d: conv(Fraction(0)) for d in degrees}
    first = max(0, min(degrees) - top)
    up_q, low_q = reduce(qc ** first), reduce(qi ** first)
    for j in range(first, len(coeffs)):
        c = conv(Fraction(coeffs[j]))
        up, low = reduce(c * up_q), reduce(c * low_q)
        for k in range(top + 1):
            if j + k in out:
                out[j + k] = reduce(out[j + k] + sp[k] * up + zs[k] * c
                                    + ms[k] * low)
        up_q, low_q = reduce(up_q * qc), reduce(low_q * qi)
    return out


def check_series(sides, q, s, coeffs, x, residual):
    """Check a truncated local series c[0..N] and its residual at x.

    The Taylor coefficients of degree 0..N of P(x)*s*f(qx) + Z(x)*f(x) +
    M(x)*f(x/q)/s must vanish; they are formed by polynomial
    multiplication modulo two large primes (exactly, should a
    denominator vanish modulo one of them).  The residual must equal,
    exactly, the absolute value of the terms of degree above N at x.
    """
    n = len(coeffs) - 1
    if coeffs[0] != 1:
        return WRONG, "leading coefficient is %s, not 1" % coeffs[0]
    low = range(n + 1)
    for prime in PRIMES:
        try:
            product = _product(sides, q, s, coeffs, low,
                               lambda v: _residue(v, prime),
                               lambda v: v % prime)
        except ValueError:
            product = _product(sides, q, s, coeffs, low, Fraction,
                               lambda v: v)
        nonzero = [j for j in low if product[j]]
        if nonzero:
            return WRONG, "Taylor coefficient %d does not vanish" % nonzero[0]
    high = range(n + 1, n + len(sides["P"]))
    tail = _product(sides, q, s, coeffs, high, Fraction, lambda v: v)
    if abs(sum(tail[j] * x ** j for j in high)) != residual:
        return WRONG, "residual differs from the exact tail"
    return OK


def _json_docs(text):
    """Every JSON document in a text, in order."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def _check_output(command, stdout, series_item):
    kind = command.kind
    if kind == "polygon":
        if "--format" in command.argv:
            ElementTree.fromstring(stdout)
        elif "hull:" not in stdout:
            return WRONG, "no hull line"
        return OK
    if kind == "verify":
        reports = [json.loads(line) for line in stdout.splitlines()]
        if len(reports) != 1:
            return WRONG, "expected one report line"
        return check_report(reports[0], command.argv[2], command.argv[4])
    docs = _json_docs(stdout)
    if kind == "limit":
        if [d.get("format") for d in docs] != [cli.ODE_FORMAT,
                                              "qheun-crosscheck/1"]:
            return WRONG, "expected an ODE and a crosscheck document"
        if docs[0]["class"] != command.expect["target"]:
            return WRONG, "limit class %s, preset targets %s" % (
                docs[0]["class"], command.expect["target"])
        return OK
    if len(docs) != 1:
        return WRONG, "expected one JSON document"
    doc = docs[0]
    if kind in ("derive", "gauge"):
        if doc.get("format") != cli.EQ_FORMAT:
            return WRONG, "wrong format %r" % (doc.get("format"),)
        return check_round_trip(None, doc)
    if kind == "classify":
        if set(doc) != {"class", "variantForm", "reduction", "signature"}:
            return WRONG, "wrong label keys"
        return OK
    if kind == "exponents":
        if doc.get("format") != "qheun-exponents/1":
            return WRONG, "wrong format %r" % (doc.get("format"),)
        return OK
    if kind == "series":
        if doc.get("format") != "qheun-series/1":
            return WRONG, "wrong format %r" % (doc.get("format"),)
        coeffs = [Fraction(c) for c in doc["coefficients"]]
        if len(coeffs) != command.expect["terms"] + 1:
            return WRONG, "wrong number of coefficients"
        return check_series(series_item.sides, series_item.binding["q"],
                            Fraction(doc["exponentBase"]), coeffs,
                            command.expect["x"],
                            Fraction(doc["residual"]["value"]))
    return WRONG, "unknown command kind %r" % kind


def check_command(command, result, series_item=None):
    """Judge one child run of a ``qheun`` command.

    The command must exit 0 with no traceback, print what the same
    command prints when run in-process, and pass the check of its kind.
    """
    if "Traceback (most recent call last)" in result.stderr:
        return FAIL, "traceback on stderr"
    if result.code != 0:
        return FAIL, "exit code %d" % result.code
    if command.stdout is not None and result.stdout != command.stdout:
        return WRONG, "output differs from the in-process run"
    try:
        return _check_output(command, result.stdout, series_item)
    except (ValueError, KeyError, TypeError, IndexError,
            ElementTree.ParseError) as exc:
        return WRONG, "unreadable output: %r" % (exc,)
