"""Run one benchmark workload against ``repro`` and print its result.

Usage, from the repository root::

    python3 e2ebench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

The run sets up the workload several times from empty process caches,
runs whole units until ``--seconds`` of unit time have passed, with
one more set-up between every two units, sets up a few more times
(``setup_s`` is the median of all set-ups), checks every operation
against ``golden.json`` and prints two context lines followed, as the
last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``spans.py``) and reports the per-layer
metrics instead.  Exits 2 without a result when the repository's
``src/repro`` package is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric; ``BENCHMARK.json``'s
#: ``end_to_end`` list must match it (the self-test checks that).
E2E_METRICS = (("setup_s", "s"), ("ops_per_s", "1/s"),
               ("sim_inst_per_s", "1/s"), ("latency_p50_s", "s"),
               ("latency_p90_s", "s"), ("peak_rss_mb", "MB"))
#: Set-up repetitions before and after the timed phase.  One more runs
#: between every two units, so the samples spread over the whole run
#: instead of two bursts that one spell of host slowness can cover;
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS_BEFORE = 3
SETUP_REPEATS_AFTER = 3
#: Iterations of the host calibration loop (context only).
CALIBRATION_LOOPS = 2_000_000

perf_counter = time.perf_counter


def limit_malloc_arenas():
    """One glibc malloc arena: peak RSS then does not depend on which
    thread's arena happened to free memory."""
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-8, 1)          # M_ARENA_MAX
    except (OSError, AttributeError):
        pass


def cpu_jiffies():
    """(steal, total) jiffies of the host since boot, or None."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def calibration_rate():
    """Iterations per second of a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return CALIBRATION_LOOPS / (perf_counter() - start)


def host_context(jiffies_before, calib_before):
    import numpy

    after = cpu_jiffies()
    steal = None
    if jiffies_before and after and after[1] > jiffies_before[1]:
        steal = ((after[0] - jiffies_before[0])
                 / (after[1] - jiffies_before[1]))
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "steal_share": steal,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_loops_per_s": [round(calib_before),
                                    round(calibration_rate())],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: a few operations per unit")
    parser.add_argument("--golden", default=None,
                        help="golden table to check against "
                             "(default: golden.json beside this script)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro package under {}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    limit_malloc_arenas()
    jiffies = cpu_jiffies()
    calib = calibration_rate()

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload {!r}; expected one of {}".format(
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    golden = workloads.load_json(args.golden or workloads.GOLDEN_PATH)
    workload = workloads.WORKLOADS[args.workload](golden, args.seed,
                                                  smoke=args.smoke)
    setup_times = []

    def set_up(repeats):
        for _ in range(repeats):
            # Releasing the previous state is not set-up time.
            workload.close()
            workloads.clear_process_caches()
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)

    try:
        set_up(SETUP_REPEATS_BEFORE)

        layers = span_cost = None
        if args.trace:
            span_cost = spans.span_cost_seconds()
            layers = spans.install(spans.Tracer())
            layers.begin()
        units = []
        elapsed = cpu = 0.0
        while True:
            start = perf_counter()
            cpu_start = time.process_time()
            units.append(workload.run_unit())
            elapsed += perf_counter() - start
            cpu += time.process_time() - cpu_start
            if elapsed >= args.seconds:
                break
            # A set-up leaves the workload as the first unit found it;
            # its time is not timed-phase time, and it is not traced.
            if layers is not None:
                layers.end()
            set_up(1)
            if layers is not None:
                layers.resume()
        if layers is not None:
            layers.end()
        extras = workload.extras(units)
        # Peak memory of set-up and the timed phase; the set-ups after
        # it run on a heap the timed phase left behind.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        set_up(SETUP_REPEATS_AFTER)
    finally:
        workload.close()

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    values, samples = workload.time_metrics(units, elapsed)
    if layers is not None:
        metrics = layers.metrics(elapsed, extras, span_cost)
    else:
        values.update(setup_s=statistics.median(setup_times),
                      peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_METRICS}
    detail = {"workload": args.workload, "seed": args.seed,
              "units": len(units), "timed_s": elapsed, "timed_cpu_s": cpu,
              "latency_samples": samples,
              "setup_samples_s": setup_times}
    print("# run " + json.dumps(detail, sort_keys=True))
    print("# host " + json.dumps(host_context(jiffies, calib),
                                 sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
