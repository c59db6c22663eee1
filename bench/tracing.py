"""Span recorder that wraps qheun's public functions from outside.

Each traced function is replaced by ``setattr`` on its class or on every
``qheun`` module that binds it as a global, so calls made through module
globals inside the package are caught too.  A span is one call: metric
name, start and end (``perf_counter_ns``), the index of the enclosing
span (-1 at top level) and the operation id the benchmark set.  Spans
stay in compact arrays in memory and are written out when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

import importlib
import pickle
import sys
import time
from array import array
from collections import Counter

# layers, in the order the per-layer report lists them
LAYERS = ("cli", "lax", "qdiff", "gauge", "xpoly", "symkernel", "termops",
          "local", "climit", "odeheun")


def _bits(c):
    return c.numerator.bit_length() + c.denominator.bit_length()


def _count_mul_terms(counts, args, result):
    counts["termops.mul_terms.pairs"] += len(args[0]) * len(args[1])
    counts["termops.mul_terms.terms_out"] += len(result)


def _count_series(counts, args, result):
    counts["local.series.coeff_bits"] += sum(map(_bits, result.coefficients))


def _count_verify(counts, args, result):
    counts["lax.verify.mismatch_rows"] += not result["match"]


_SK = "qheun.symkernel"

# metric name -> (module, attribute paths inside it) and an optional hook
# that turns a call's arguments and result into work counts
TRACED = {
    "symkernel.MPoly.mul": (_SK, ("MPoly.__mul__", "MPoly.__rmul__")),
    "symkernel.MPoly.add": (_SK, ("MPoly.__add__", "MPoly.__radd__",
                                  "MPoly.__sub__", "MPoly.__rsub__")),
    "symkernel.MPoly.content_signed": (_SK, ("MPoly.content_signed",)),
    "symkernel.MPoly.substitute": (_SK, ("MPoly.substitute",)),
    "symkernel.RatFun.new": (_SK, ("RatFun.__init__",)),
    "symkernel.RatFun.mul": (_SK, ("RatFun.__mul__", "RatFun.__rmul__",
                                   "RatFun.__truediv__",
                                   "RatFun.__rtruediv__")),
    "symkernel.RatFun.add": (_SK, ("RatFun.__add__", "RatFun.__radd__",
                                   "RatFun.__sub__", "RatFun.__rsub__")),
    "symkernel.RatFun.substitute": (_SK, ("RatFun.substitute",)),
    "symkernel.evaluate": (_SK, ("MPoly.evaluate", "RatFun.evaluate")),
    "symkernel.parse_expr": (_SK, ("parse_expr",)),
    "symkernel.str": (_SK, ("MPoly.__str__", "RatFun.__str__")),
    "termops.mul_terms": (_SK, ("termops.mul_terms",), _count_mul_terms),
    "termops.add_terms": (_SK, ("termops.add_terms",)),
    "termops.sub_terms": (_SK, ("termops.sub_terms",)),
    "xpoly.gcd": ("qheun.xpoly", ("gcd",)),
    "xpoly.divmod_x": ("qheun.xpoly", ("divmod_x",)),
    "xpoly.from_ratfun": ("qheun.xpoly", ("from_ratfun",)),
    "qdiff.QDiffEq.from_scalar_coefficients": (
        "qheun.qdiff", ("QDiffEq.from_scalar_coefficients",)),
    "qdiff.classify": ("qheun.qdiff", ("classify",)),
    "qdiff.newton_diagram": ("qheun.qdiff", ("newton_diagram",)),
    "qdiff.render_diagram": ("qheun.qdiff", ("render_diagram",)),
    "gauge.gauge_linear": ("qheun.gauge", ("gauge_linear",)),
    "gauge.gauge_power": ("qheun.gauge", ("gauge_power",)),
    "gauge.gauge_move_factor": ("qheun.gauge", ("gauge_move_factor",)),
    "gauge.invert_variable": ("qheun.gauge", ("invert_variable",)),
    "lax.build_murata": ("qheun.lax", ("build_murata",)),
    "lax.scalar_reduce": ("qheun.lax", ("scalar_reduce",)),
    "lax.specialize": ("qheun.lax", ("specialize",)),
    "lax.build_kny": ("qheun.lax", ("build_kny",)),
    "lax.kny_to_equation": ("qheun.lax", ("kny_to_equation",)),
    "lax.reference_equation": ("qheun.lax", ("reference_equation",)),
    "lax.accessory_formula": ("qheun.lax", ("accessory_formula",)),
    "lax.verify_family": ("qheun.lax", ("verify_family",), _count_verify),
    "local.char_exponents": ("qheun.local", ("char_exponents",)),
    "local.series_solution": ("qheun.local", ("series_solution",),
                              _count_series),
    "local.residual": ("qheun.local", ("residual",)),
    "climit.preset_family": ("qheun.climit", ("preset_family",)),
    "climit.limit_coefficients": ("qheun.climit", ("limit_coefficients",)),
    "climit.classify_ode": ("qheun.climit", ("classify_ode",)),
    "climit.ode_series": ("qheun.climit", ("ode_series",)),
    "climit.crosscheck": ("qheun.climit", ("crosscheck",)),
    "odeheun.match_class": ("qheun.odeheun", ("match_class",)),
    "cli.run": ("qheun.cli", ("run",)),
    "cli.read_equation": ("qheun.cli", ("read_equation",)),
    "cli.write_equation": ("qheun.cli", ("write_equation",)),
    "cli.read_binding": ("qheun.cli", ("read_binding",)),
}

# counters that are not "<name>.calls" / "<name>.self_ms"
COUNTERS = ("termops.mul_terms.pairs", "termops.mul_terms.terms_out",
            "lax.verify.mismatch_rows", "local.series.coeff_bits",
            "cli.spawn_ms") + tuple(layer + ".raised" for layer in LAYERS)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in TRACED:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_ms", "ms"))
    for name in COUNTERS:
        out.append((name, {"local.series.coeff_bits": "bit",
                           "cli.spawn_ms": "ms"}.get(name, "count")))
    out += [("src.py_lines", "lines"), ("src.generated_lines", "lines"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names = list(TRACED)
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.counts = Counter()
        self.current = -1      # index of the innermost open span
        self.op_id = 0
        self._patches = []

    # -- installing and removing the wrappers -----------------------------

    def install(self):
        """Wrap every traced function; ``uninstall`` restores them."""
        for nid, (name, spec) in enumerate(TRACED.items()):
            module = importlib.import_module(spec[0])
            hook = spec[2] if len(spec) > 2 else None
            for path in spec[1]:
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                self._wrap(owner, attr, nid, name.split(".")[0], hook)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, owner, attr, nid, layer, hook):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrapper(fn, nid, layer, hook)
            self._patch(owner, attr, staticmethod(wrapper) if static
                        else wrapper)
            return
        # a module function: rebind it wherever qheun imported it by name
        fn = getattr(owner, attr)
        wrapper = self._wrapper(fn, nid, layer, hook)
        for modname, module in list(sys.modules.items()):
            if modname != "qheun" and not modname.startswith("qheun."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, fn, nid, layer, hook):
        clock = time.perf_counter_ns
        names, starts, ends = self.name, self.start, self.end
        parents, ops, counts = self.parent, self.op, self.counts
        raised = layer + ".raised"

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(self.current)
            ops.append(self.op_id)
            ends.append(0)
            self.current = index
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = clock()
                self.current = parents[index]
                counts[raised] += 1
                raise
            ends[index] = clock()
            self.current = parents[index]
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ----------------------------------------------------------

    def absorb(self, data, op_id):
        """Append the spans and counters another process recorded."""
        offset = len(self.start)
        self.name.extend(data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1
                           for p in data["parent"])
        self.op.extend(op_id for _ in data["name"])
        self.counts.update(data["counts"])

    def dump(self, path, **extra):
        """Write the spans, the counters and ``extra`` with pickle."""
        data = {"names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "counts": dict(self.counts)}
        data.update(extra)
        with open(path, "wb") as handle:
            pickle.dump(data, handle, protocol=5)

    def self_times(self):
        """(calls, self time in ns) per metric name, reduced from spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, t in zip(self.name, own):
            calls[nid] += 1
            self_ns[nid] += t
        return {name: (calls[i], self_ns[i])
                for i, name in enumerate(self.names)}

    def top_span_ns(self, metric):
        """Total duration of the top-level spans of one metric."""
        nid = self.names.index(metric)
        return sum(e - s for n, s, e, p in zip(self.name, self.start,
                                               self.end, self.parent)
                   if n == nid and p < 0)


def load(path):
    """Spans written by ``Recorder.dump`` in a traced child process."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def layer_metrics(rec, extra):
    """The per-layer report: every name of ``metric_names`` to a value."""
    values = {}
    for name, (calls, self_ns) in rec.self_times().items():
        values[name + ".calls"] = calls
        values[name + ".self_ms"] = self_ns / 1e6
    for name in COUNTERS:
        values[name] = rec.counts.get(name, 0)
    values.update(extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_names()}
