"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop with one caller.  ``unit()`` returns the
next block of operations; the runner repeats whole blocks, so every run
holds the same input mix.  ``execute`` runs and times one operation, and
``check`` judges its output outside the timed region with the verdicts
of ``checks``.
"""

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from qheun import cli, climit, lax, local
from qheun.symkernel import rat

import checks
import tracing
from checks import FAIL, PASS, WRONG

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

ROWS = tuple(("murata", f) for f in lax.MURATA_FAMILIES) + \
    tuple(("kny", f) for f in lax.KNY_FAMILIES)

# small exact values for bindings; q avoids 0 and the roots of unity
VALUE_POOL = tuple(Fraction(n, d) for n, d in
                   ((1, 2), (-1, 2), (1, 1), (-1, 1), (3, 2), (-3, 2),
                    (2, 1), (-2, 1), (1, 3), (-2, 3)))
Q_POOL = (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))
ROOT_POOL = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2),
             Fraction(2, 3))
X_POOL = (Fraction(1, 10), Fraction(1, 7), Fraction(1, 5), Fraction(2, 9),
          Fraction(1, 4))


def child_env():
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class InProcess:
    """A workload whose operations are library calls in this process."""

    def execute(self, op, rec=None):
        """(elapsed ns, output or the exception raised) of one operation."""
        if rec is not None:
            rec.install()
        try:
            start = time.perf_counter_ns()
            try:
                out = self.call(op)
            except Exception as exc:
                out = exc
            return time.perf_counter_ns() - start, out
        finally:
            if rec is not None:
                rec.uninstall()

    def probe_argv(self):
        return [sys.executable, str(BENCH / "probe.py"), self.name]

    @staticmethod
    def probe_input_s(stdout):
        """Seconds the probe spent making its input (its last output)."""
        return float(stdout.split()[-1])

    @staticmethod
    def peak_rss_kb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- catalog ---------------------------------------------------------------

class Catalog(InProcess):
    """``lax.verify_family`` over all 15 rows, symbolic and bound rounds."""

    name = "catalog"

    def __init__(self, seed):
        self.rng = random.Random("catalog:%d" % seed)

    def warmup(self):
        return ("murata", "A4", None)

    def _binding(self, catalog):
        names = ("q", "k1", "k2", "t") if catalog == "murata" else \
            ("q", "k1", "k2")
        binding = {n: self.rng.choice(VALUE_POOL) for n in names}
        binding["q"] = self.rng.choice(Q_POOL)
        return binding

    def unit(self):
        """One symbolic round and one bound round, rows seed-shuffled."""
        ops = []
        for bound in (False, True):
            rows = list(ROWS)
            self.rng.shuffle(rows)
            ops += [(c, f, self._binding(c) if bound else None)
                    for c, f in rows]
        return ops

    def call(self, op):
        catalog, family, binding = op
        return lax.verify_family(catalog, family, binding)

    @staticmethod
    def label(op):
        return "%s/%s%s" % (op[0], op[1], " bound" if op[2] else "")

    def check(self, op, out):
        if isinstance(out, Exception):
            return FAIL, "raised %r" % (out,)
        catalog, family, binding = op
        eq = lax.derive_equation(catalog, family, binding)
        verdict = checks.check_round_trip(eq, cli.write_equation(eq))
        if verdict[0] != PASS:
            return verdict
        return checks.check_report(out, catalog, family)


# -- series ----------------------------------------------------------------

def _parameters(eq):
    names = set()
    for side in ("P", "Z", "M"):
        for c in eq.side(side):
            names.update(c.variables())
    names.discard(eq.variable)
    names.add("q")
    return sorted(names)


def side_values(eq, binding):
    """Numeric coefficient lists of P, Z, M at an exact binding."""
    return {side: [eq.coeff(side, k).evaluate(binding)
                   for k in range(eq.degree + 1)]
            for side in ("P", "Z", "M")}


def has_origin_exponent(eq):
    """Whether the origin quadratic can have a nonzero root at all."""
    ch = local.char_exponents(eq, "Zero")
    if ch.c2.is_zero:
        return not ch.c1.is_zero and not ch.c0.is_zero
    return not (ch.c1.is_zero and ch.c0.is_zero)


def pin_binding(eq, q, rng, depth):
    """A full rational binding with a rational origin exponent s.

    Every parameter but one comes from the value pool, q is given, and
    the last parameter is solved for linearly so that a pool value of s
    is a characteristic root.  Bindings whose recurrence denominators
    vanish up to ``depth`` are drawn again.  Returns (binding, root
    index, s), or None when no draw succeeds.
    """
    ch = local.char_exponents(eq, "Zero")
    free_names = [n for n in _parameters(eq) if n != "q"]
    for _ in range(200):
        binding = {n: rng.choice(VALUE_POOL) for n in free_names}
        binding["q"] = q
        s = rng.choice(ROOT_POOL)
        phi = ch.c2 * s * s + ch.c1 * s + ch.c0
        order = list(free_names)
        rng.shuffle(order)
        for free in order:
            fixed = {n: rat(v) for n, v in binding.items() if n != free}
            try:
                pinned = phi.substitute(fixed)
            except ZeroDivisionError:
                continue
            if pinned.num.degree_in(free) != 1:
                continue
            lead = pinned.num.coefficient(free, 1).evaluate({})
            value = -pinned.num.coefficient(free, 0).evaluate({}) / lead
            if not value or abs(value) > 4 or \
                    not pinned.den.evaluate({free: value}):
                continue
            trial = dict(binding, **{free: value})
            for index in (0, 1):
                try:
                    probe = local.series_solution(eq, trial, index, 0)
                except (ValueError, ZeroDivisionError):
                    break
                if probe.s == s:
                    if _resonant(side_values(eq, trial), q, s, depth):
                        break
                    return trial, index, s
    return None


def _resonant(sides, q, s, depth):
    p0, z0, m0 = sides["P"][0], sides["Z"][0], sides["M"][0]
    qn = Fraction(1)
    for _ in range(depth):
        qn *= q
        if not z0 + p0 * s * qn + m0 / (qn * s):
            return True
    return False


class SeriesItem:
    """One equation at one pinned binding."""

    def __init__(self, catalog, family, eq, binding, root, s):
        self.row = (catalog, family)
        self.eq = eq
        self.binding = binding
        self.root = root
        self.s = s
        self.sides = side_values(eq, binding)


def _height(q):
    return math.log2(q.numerator * q.denominator)


def warmup_series_item():
    """The fixed item the warm-up operation expands."""
    eq = lax.derive_equation("murata", "A4")
    binding, root, s = pin_binding(eq, Q_POOL[0], random.Random("warm-up"),
                                   Series.N_MAX)
    return SeriesItem("murata", "A4", eq, binding, root, s)


class Series(InProcess):
    """Exact local series and residual through ``local`` directly.

    A block crosses each q with five depth levels, so every run holds the
    same mix: the median falls among the middle level and the 90th
    percentile among the deepest.  Depths are scaled per q so that the
    coefficients reach about the same size.  Each operation takes the
    next row of a seed-shuffled rotation and a fresh seed-drawn binding.
    """

    name = "series"
    Q = (Fraction(3, 5), Fraction(3, 4), Fraction(2, 3))
    DEPTHS = (12, 28, 50, 90, 150)
    N_MAX = 190
    WARMUP_N = 20

    def __init__(self, seed):
        self.rng = random.Random("series:%d" % seed)
        self.rows = []
        for catalog, family in ROWS:
            eq = lax.derive_equation(catalog, family)
            if has_origin_exponent(eq):
                self.rows.append((catalog, family, eq))
        self._rotation = {q: [] for q in self.Q}
        self._warmup = warmup_series_item()

    def warmup(self):
        return (self._warmup, self.WARMUP_N, X_POOL[0])

    def _item(self, q):
        while True:
            rotation = self._rotation[q]
            if not rotation:
                rotation += self.rows
                self.rng.shuffle(rotation)
            catalog, family, eq = rotation.pop()
            pinned = pin_binding(eq, q, self.rng, self.N_MAX)
            if pinned is not None:
                return SeriesItem(catalog, family, eq, *pinned)

    def unit(self):
        """One op per q and depth level, each depth jittered by 2.5%."""
        ops = []
        for q in self.Q:
            # coefficients grow by about log2(num*den) of q bits per order
            # and order, so scale depths to the same coefficient size
            scale = math.sqrt(_height(self.Q[0]) / _height(q))
            for level in self.DEPTHS:
                depth = round(level * scale)
                jitter = max(1, depth // 40)
                n = depth + self.rng.randint(-jitter, jitter)
                ops.append((self._item(q), n, self.rng.choice(X_POOL)))
        self.rng.shuffle(ops)
        return ops

    def call(self, op):
        item, n, x = op
        sol = local.series_solution(item.eq, item.binding, item.root, n)
        return sol, local.residual(item.eq, sol, x)

    @staticmethod
    def label(op):
        item, n, x = op
        return "%s/%s q=%s N=%d" % (item.row + (item.binding["q"], n))

    def check(self, op, out):
        if isinstance(out, Exception):
            return FAIL, "raised %r" % (out,)
        item, n, x = op
        sol, value = out
        if len(sol.coefficients) != n + 1 or sol.s != item.s:
            return WRONG, "wrong depth or exponent"
        return checks.check_series(item.sides, item.binding["q"], sol.s,
                                   sol.coefficients, x, value)


# -- cli -------------------------------------------------------------------

class Command:
    """One command line with what its output must satisfy."""

    def __init__(self, kind, argv, **expect):
        self.kind = kind
        self.argv = argv
        self.expect = expect
        self.stdout = None     # output of the same command run in-process

    def __repr__(self):
        return "qheun " + " ".join(self.argv)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class Cli:
    """``qheun`` commands as child processes in a seed-shuffled mix."""

    name = "cli"
    SERIES_TERMS = (20, 60)
    PRESETS = ("heun", "confluent", "biconfluent", "doubly-confluent")

    def __init__(self, seed):
        self.rng = rng = random.Random("cli:%d" % seed)
        self.dir = OUT / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.max_rss_kb = 0

        def write(name, doc):
            path = self.dir / name
            path.write_text(json.dumps(doc, indent=2) + "\n")
            return str(path.relative_to(ROOT))

        def derived(catalog, family):
            return lax.derive_equation(catalog, family)

        murata = rng.choice(lax.MURATA_FAMILIES)
        kny = rng.choice(lax.KNY_FAMILIES)
        catalog, family = rng.choice(ROWS)
        base = derived(catalog, family)
        eq = write("eq.json", cli.write_equation(base))
        poch = write("poch.json", cli.write_equation(derived("murata",
                                                             "A4")))
        theta_row = rng.choice(("A5", "A5s", "A6", "A6s", "A7", "A7p"))
        theta = write("theta.json",
                      cli.write_equation(derived("murata", theta_row)))
        while True:
            row = rng.choice(ROWS)
            item_eq = derived(*row)
            if has_origin_exponent(item_eq):
                pinned = pin_binding(item_eq, rng.choice(Q_POOL), rng,
                                     self.SERIES_TERMS[1])
                if pinned is not None:
                    break
        binding, root, s = pinned
        self.series_item = SeriesItem(*row, item_eq, binding, root, s)
        item = write("item.json", cli.write_equation(item_eq))
        bind = write("bind.json", {"format": cli.BIND_FORMAT, "bindings": {
            k: str(v) for k, v in binding.items()}})
        terms = rng.randint(*self.SERIES_TERMS)
        x = rng.choice(X_POOL)
        # the linear gauge runs on one row of each catalog: it raises the
        # degree of P by two, so a kny row (P of degree 2) gives a degree-4
        # document, which read_equation refuses today
        linear = [write("linear-%s.json" % c, cli.write_equation(e))
                  for c, e in (("murata", derived("murata", murata)),
                               ("kny", derived("kny", kny)))]
        shift = rng.choice(VALUE_POOL)
        commands = [
            Command("derive", ["derive", "--catalog", "murata",
                               "--family", murata]),
            Command("derive", ["derive", "--catalog", "kny",
                               "--family", kny]),
            Command("classify", ["classify", "--in", eq]),
            Command("polygon", ["polygon", "--in", eq]),
            Command("polygon", ["polygon", "--in", eq, "--format", "svg"]),
            Command("gauge", ["gauge", "--in", eq, "--kind", "power",
                              "--exponent=%s" % rng.choice(VALUE_POOL)]),
            Command("gauge", ["gauge", "--in", poch, "--kind", "pochhammer",
                              "--alpha", rng.choice(("1/(a2*t)", "q/a3"))]),
            Command("gauge", ["gauge", "--in", theta, "--kind", "theta",
                              "--alpha", rng.choice(("k1", "2", "t/3"))]),
            Command("gauge", ["gauge", "--in", eq, "--kind", "invert"]),
            Command("exponents", ["exponents", "--in", eq,
                                  "--at", "zero"]),
            Command("exponents", ["exponents", "--in", eq,
                                  "--at", "infinity"]),
            Command("exponents", ["exponents", "--in", item, "--bind", bind,
                                  "--at", "zero"]),
            Command("exponents", ["exponents", "--in", item, "--bind", bind,
                                  "--at", "infinity"]),
            Command("series", ["series", "--in", item, "--bind", bind,
                               "--root", str(root), "--terms", str(terms),
                               "--residual-at", str(x)],
                    terms=terms, x=x),
        ]
        commands += [Command("gauge", ["gauge", "--in", path, "--kind",
                                       "linear", "--factor",
                                       "%s - (%s)" % (v, shift)])
                     for path, v in zip(linear, ("x", "z"))]
        commands += [Command("limit", ["limit", "--preset", p,
                                       "--crosscheck", "1/100"],
                             target=climit.preset_target(p))
                     for p in self.PRESETS]
        commands += [Command("verify", ["verify", "--catalog", "murata",
                                        "--family", murata]),
                     Command("verify", ["verify", "--catalog", "kny",
                                        "--family", kny])]
        for command in commands:
            _, command.stdout = _in_process(command.argv)
        self.commands = commands
        self.warmup_command = Command("classify", ["classify", "--in", eq])

    def warmup(self):
        return self.warmup_command

    def probe_argv(self):
        return [sys.executable, "-m", "qheun.cli"] + self.warmup_command.argv

    @staticmethod
    def probe_input_s(stdout):
        return 0.0

    def peak_rss_kb(self):
        """Peak resident memory of the largest child so far."""
        return self.max_rss_kb

    label = staticmethod(repr)

    def unit(self):
        ops = list(self.commands)
        self.rng.shuffle(ops)
        return ops

    def execute(self, command, rec=None):
        """Run one command in a child; (elapsed ns, ChildResult)."""
        if rec is None:
            argv = [sys.executable, "-m", "qheun.cli"] + command.argv
        else:
            spans = OUT / "child.spans"
            argv = [sys.executable, str(BENCH / "traced_cli.py"),
                    str(spans)] + command.argv
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            child = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                     stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = time.perf_counter_ns() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        result = checks.ChildResult(code, out_path.read_text(),
                                    err_path.read_text())
        if rec is not None:
            data = tracing.load(spans)
            spans.unlink()
            run_ns = data.pop("run_ns")
            rec.counts["cli.spawn_ms"] += (elapsed - run_ns) / 1e6
            rec.absorb(data, rec.op_id)
        return elapsed, result

    def check(self, command, result):
        return checks.check_command(command, result, self.series_item)
