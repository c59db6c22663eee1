"""Benchmark of the qheun toolkit: three workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py [--workload catalog|series|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

With ``--trace 0`` a workload runs untraced for at least S seconds and
100 operations, in whole blocks of its input mix, and prints the
end-to-end metrics; with ``--trace 1`` it runs one block of the same
operations under the span recorder and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the run
record, goes to ``bench/out/<workload>-trace<0|1>.json``.  ``all`` runs
each workload in its own child process, one after the other.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("catalog", "series", "cli")
PROBES = 7
MIN_OPS = 100    # so that op_p90_ms has at least ten samples beyond it
# the calibration loop's uncontended time on a 2-vCPU x86-64 host under
# CPython 3.11; reported times are scaled to a host that runs it this fast
NOMINAL_CALIBRATION_NS = 2.5e6


def _import_program():
    """Import qheun from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "qheun" / "__init__.py").is_file():
        sys.exit("bench: no qheun sources under %s" % src)
    sys.path.insert(0, str(src))
    import qheun
    if Path(qheun.__file__).resolve().parent != src / "qheun":
        sys.exit("bench: imported qheun from %s, not from %s"
                 % (qheun.__file__, src))


def _line_count(paths):
    total = 0
    for path in paths:
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def source_lines():
    """Hand-written ``.py`` lines and generated C lines under ``src``."""
    src = ROOT / "src"
    return _line_count(sorted(src.rglob("*.py"))), \
        _line_count(sorted(src.rglob("*.c")))


def run_record(seed):
    from qheun.symkernel import termops
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    py_lines, generated = source_lines()
    return {"seed": seed, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "termops_backend": termops.BACKEND,
            "qheun_pure": bool(os.environ.get("QHEUN_PURE")),
            "src.py_lines": py_lines, "src.generated_lines": generated}


def calibration_loop():
    """A fixed pure-Python loop, independent of qheun."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def calibration_ns():
    start = time.perf_counter_ns()
    calibration_loop()
    return time.perf_counter_ns() - start


def normalised(times, refs, k=4):
    """Times rescaled to a host where the calibration loop takes
    NOMINAL_CALIBRATION_NS.

    The host is shared, and how fast it runs changes from second to
    second.  Each time is divided by the median calibration time of the
    2k+1 samples taken around it and multiplied by the nominal one.
    """
    return [t * NOMINAL_CALIBRATION_NS
            / statistics.median(refs[max(0, i - k):i + k + 1])
            for i, t in enumerate(times)]


def setup_seconds(wl):
    """Wall times of fresh interpreters that import ``qheun.cli`` and run
    the warm-up operation, less the time they spend making its input,
    with a calibration time taken after each."""
    from workloads import child_env
    env = child_env()
    times, refs = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        done = subprocess.run(wl.probe_argv(), cwd=ROOT, env=env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        refs.append(calibration_ns())
        if done.returncode != 0:
            sys.exit("bench: set-up probe failed:\n" + done.stderr)
        times.append(wall - wl.probe_input_s(done.stdout))
    return times, refs


class Tally:
    """Latencies, calibration times and verdicts of one phase's ops."""

    def __init__(self):
        self.latency_ns = []
        self.ref_ns = []
        self.status = Counter()
        self.reasons = Counter()

    def add(self, wl, op, elapsed, out):
        self.latency_ns.append(elapsed)
        self.ref_ns.append(calibration_ns())
        verdict, reason = wl.check(op, out)
        self.status[verdict] += 1
        if reason:
            self.reasons["%s: %s: %s" % (verdict, wl.label(op), reason)] += 1

    def normalised_ns(self):
        return normalised(self.latency_ns, self.ref_ns)

    @property
    def attempted(self):
        return len(self.latency_ns)

    @property
    def failed(self):
        return self.attempted - self.status["pass"]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(wl, seconds):
    setup, setup_refs = setup_seconds(wl)
    wl.execute(wl.warmup())
    tally = Tally()
    budget = seconds * 1e9
    total = 0
    while total < budget or tally.attempted < MIN_OPS:
        for op in wl.unit():
            elapsed, out = wl.execute(op)
            total += elapsed
            tally.add(wl, op, elapsed, out)
    lat = sorted(tally.normalised_ns())
    raw = sorted(tally.latency_ns)
    n = tally.attempted
    metrics = {
        "setup_s": (statistics.median(normalised(setup, setup_refs)), "s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_p90_ms": (_p90(lat) / 1e6, "ms"),
        "ops_per_s": (n / (sum(lat) / 1e9), "1/s"),
        "pass_ratio": (tally.status["pass"] / n, "ratio"),
        "peak_rss_mb": (wl.peak_rss_kb() / 1024, "MB"),
    }
    notes = {
        "setup_s": "median of %d fresh interpreters, raw %.4f s"
                   % (len(setup), statistics.median(setup)),
        "op_p50_ms": "n=%d, raw %.4f ms" % (n, statistics.median(raw) / 1e6),
        "op_p90_ms": "n=%d, %d beyond, raw %.4f ms"
                     % (n, n - int(0.9 * n), _p90(raw) / 1e6),
        "ops_per_s": "%d ops in %.2f s timed, raw %.4f/s"
                     % (n, total / 1e9, n / (total / 1e9)),
        "pass_ratio": "fail_ratio %.4f, %d of %d failed"
                      % (tally.failed / n, tally.failed, n),
    }
    detail = {"fail_ratio": tally.failed / n,
              "setup_s_raw": setup,
              "setup_calibration_ms": [t / 1e6 for t in setup_refs],
              "latency_ms_raw": [t / 1e6 for t in tally.latency_ns],
              "calibration_ms": [t / 1e6 for t in tally.ref_ns]}
    return tally, metrics, notes, detail


def traced_run(wl, record):
    """One block of operations untraced, then the same block traced."""
    import tracing
    wl.execute(wl.warmup())
    ops = wl.unit()
    plain = Tally()
    for op in ops:
        elapsed, out = wl.execute(op)
        plain.add(wl, op, elapsed, out)
    rec = tracing.Recorder()
    traced = Tally()
    for i, op in enumerate(ops):
        rec.op_id = i
        elapsed, out = wl.execute(op, rec)
        traced.add(wl, op, elapsed, out)
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / ("%s-spans.pickle" % wl.name))
    overhead = sum(traced.normalised_ns()) / sum(plain.normalised_ns())
    extra = {"src.py_lines": record["src.py_lines"],
             "src.generated_lines": record["src.generated_lines"],
             "trace.overhead_ratio": overhead}
    layer = tracing.layer_metrics(rec, extra)
    metrics = {name: (m["value"], m["unit"]) for name, m in layer.items()}
    traced.status["wrong"] += plain.status["wrong"]
    notes = {"trace.overhead_ratio": "%d ops, traced over untraced"
             % len(ops)}
    return traced, metrics, notes, {"spans": len(rec.start)}


def run_workload(name, seed, seconds, trace):
    _import_program()
    import workloads
    wl = {"catalog": workloads.Catalog, "series": workloads.Series,
          "cli": workloads.Cli}[name](seed)
    record = run_record(seed)
    if trace:
        tally, metrics, notes, detail = traced_run(wl, record)
    else:
        tally, metrics, notes, detail = timed_run(wl, seconds)
    for metric, (value, unit) in metrics.items():
        print("%-8s %-44s %14.6g %-6s %s" % (name, metric, value, unit,
                                              notes.get(metric, "")))
    for reason, count in sorted(tally.reasons.items()):
        print("%-8s %5d x %s" % (name, count, reason))
    result = {"correct": tally.status["wrong"] == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-trace%d.json" % (name, trace)), "w") as handle:
        json.dump({"workload": name, "trace": trace, "seconds": seconds,
                   "record": record, "result": result, "notes": notes,
                   "reasons": dict(tally.reasons), "detail": detail},
                  handle, indent=1)
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in a child process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(BENCH / "run.py"),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit("bench: workload %s failed" % name)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
