"""One set-up probe: a fresh interpreter imports ``qheun.cli`` and runs
the workload's warm-up operation.

Usage: python probe.py catalog|series

Prints the seconds spent generating the warm-up input, which the caller
subtracts from the probe's wall time.
"""

import sys
import time


def main(workload):
    import qheun.cli  # noqa: F401  (the import is part of set-up)
    from qheun import lax, local
    start = time.perf_counter()
    if workload == "series":
        import workloads
        item = workloads.warmup_series_item()
        input_s = time.perf_counter() - start
        sol = local.series_solution(item.eq, item.binding, item.root,
                                    workloads.Series.WARMUP_N)
        local.residual(item.eq, sol, workloads.X_POOL[0])
    elif workload == "catalog":
        input_s = 0.0
        lax.verify_family("murata", "A4")
    else:
        raise SystemExit("no probe for workload %r" % workload)
    print(input_s)


if __name__ == "__main__":
    main(sys.argv[1])
