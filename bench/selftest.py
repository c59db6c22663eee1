"""Self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

It runs each workload at minimal length and checks that every end-to-end
metric of BENCHMARK.json is printed with its unit, runs each workload
traced and checks the per-layer metrics the same way, and feeds each
output check a deliberately corrupted output that it must reject.  It
takes about a minute and exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from qheun import cli, climit, lax, local  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import FAIL, PASS, WRONG, ChildResult  # noqa: E402


def expect(condition, message):
    if not condition:
        sys.exit("selftest FAILED: " + message)


def run_benchmark(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(done.returncode == 0, "%s trace %d exited %d:\n%s"
           % (workload, trace, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def test_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            result = run_benchmark(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, "result keys")
            expect(result["correct"], "%s reported wrong outputs" % workload)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, "%s trace %d metrics differ from %s"
                   % (workload, trace, key))
            if trace == 0:
                expect(result["attempted"] >= 100,
                       "%s ran fewer than 100 operations" % workload)
                expect(all(m["value"] > 0
                           for m in result["metrics"].values()),
                       "%s printed a zero end-to-end metric" % workload)
            print("ok  %-8s trace %d: %d metrics, %d ops, %d failed"
                  % (workload, trace, len(got), result["attempted"],
                     result["failed"]))


def test_series_check_rejects_a_changed_coefficient():
    item = workloads.warmup_series_item()
    x = Fraction(1, 7)
    sol = local.series_solution(item.eq, item.binding, item.root, 30)
    value = local.residual(item.eq, sol, x)
    q = item.binding["q"]
    coeffs = list(sol.coefficients)
    expect(checks.check_series(item.sides, q, sol.s, coeffs, x, value)
           == checks.OK, "series check rejects a correct series")
    coeffs[5] += Fraction(1, 10 ** 6)
    expect(checks.check_series(item.sides, q, sol.s, coeffs, x, value)[0]
           == WRONG, "series check accepts a changed coefficient")
    expect(checks.check_series(item.sides, q, sol.s, sol.coefficients, x,
                               value * 2)[0] == WRONG,
           "series check accepts a wrong residual")
    print("ok  series check rejects a changed coefficient and residual")


def test_equation_check_rejects_an_edited_document():
    eq = lax.derive_equation("murata", "A5")
    doc = cli.write_equation(eq)
    expect(checks.check_round_trip(eq, doc) == checks.OK,
           "round trip rejects a correct document")
    edited = dict(doc, P=dict(doc["P"], **{"0": "a1*t"}))
    expect(checks.check_round_trip(eq, edited)[0] == WRONG,
           "round trip accepts an edited document")
    command = workloads.Command("derive", ["derive", "--catalog", "murata",
                                           "--family", "A5"])
    text = json.dumps(doc, indent=2) + "\n"
    command.stdout = text
    expect(checks.check_command(command, ChildResult(0, text, "")) ==
           checks.OK, "derive check rejects the right output")
    edited_text = json.dumps(edited, indent=2) + "\n"
    expect(checks.check_command(command, ChildResult(0, edited_text, ""))[0]
           == WRONG, "derive check accepts an edited document")
    command.stdout = None
    broken = text.replace(cli.EQ_FORMAT, "qheun-eq/0")
    expect(checks.check_command(command, ChildResult(0, broken, ""))[0]
           == WRONG, "derive check accepts a wrong format")
    print("ok  equation checks reject an edited document")


def test_cli_check_rejects_a_wrong_exit_code():
    preset = "biconfluent"
    command = workloads.Command("limit", ["limit", "--preset", preset,
                                          "--crosscheck", "1/100"],
                                target=climit.preset_target(preset))
    code, text = workloads._in_process(command.argv)
    expect(code == 0, "limit --preset %s exits %d" % (preset, code))
    expect(checks.check_command(command, ChildResult(0, text, "")) ==
           checks.OK, "limit check rejects the right output")
    expect(checks.check_command(command, ChildResult(3, text, ""))[0]
           == FAIL, "limit check accepts exit code 3")
    crash = "Traceback (most recent call last):\n  ...\n"
    expect(checks.check_command(command, ChildResult(0, text, crash))[0]
           == FAIL, "limit check accepts a traceback")
    wrong_class = text.replace('"class": "BHE"', '"class": "CHE"', 1)
    expect(checks.check_command(command, ChildResult(0, wrong_class, ""))[0]
           == WRONG, "limit check accepts the wrong class")
    print("ok  cli check rejects a wrong exit code, a traceback and a class")


def test_report_check_counts_a_mismatch_as_failure():
    report = lax.verify_family("kny", "E2b")
    expect(checks.check_report(report, "kny", "E2b")[0] in (PASS, FAIL),
           "report check calls a real report wrong")
    mismatch = dict(report, match=False, discrepancies=[{}])
    expect(checks.check_report(mismatch, "kny", "E2b")[0] == FAIL,
           "report check accepts a mismatch")
    expect(checks.check_report(dict(report, family="D5"), "kny", "E2b")[0]
           == WRONG, "report check accepts another row's report")
    print("ok  report check fails a mismatch")


if __name__ == "__main__":
    test_series_check_rejects_a_changed_coefficient()
    test_equation_check_rejects_an_edited_document()
    test_cli_check_rejects_a_wrong_exit_code()
    test_report_check_counts_a_mismatch_as_failure()
    test_metrics_printed()
    print("selftest passed")
