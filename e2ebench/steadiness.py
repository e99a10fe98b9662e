"""Steadiness report: run each workload N times and show the spread of
every end-to-end metric.

Usage, from the repository root::

    python3 e2ebench/steadiness.py --runs 10 [--workloads serve_mix ...]
        [--seconds 30] [--seed-base 100] [--out e2ebench/steadiness.txt]

Runs are sequential, each with its own seed (``seed-base + i``).  For
every metric the report gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, the quartile
spread as a share of the median, and the max/min ratio, next to the
metric's bound in ``BENCHMARK.json``.  Bounds are set from this
output: every spread, ``setup_s``'s too, should stay below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed ({}): {}".format(proc.returncode,
                                                      proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("{} seed {}: {} of {} operations failed".format(
            workload, seed, result["failed"], result["attempted"]))
    host = next((line for line in lines if line.startswith("# host ")), "")
    return result, host


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "max_min": max(values) / min(values) if min(values) else
            float("inf")}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    lines = []

    def emit(text):
        print(text, flush=True)
        lines.append(text)

    emit("steadiness: {} runs x {} s per workload".format(args.runs,
                                                          args.seconds))
    noisy = 0
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            result, host = run_once(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("  {} seed {}: {} {}".format(
                workload, seed, json.dumps(
                    {k: round(v["value"], 6)
                     for k, v in result["metrics"].items()}), host),
                file=sys.stderr, flush=True)
        emit("")
        emit("{}:".format(workload))
        emit("  {:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6} {}".format(
            "metric", "median", "q1", "q3", "spread", "max/min", "bound",
            "verdict"))
        for name, series in values.items():
            s = summarise(series)
            bound = bounds.get(name)
            verdict = "-"
            if bound is not None:
                verdict = ("ok" if s["spread"] < bound / 3 else
                           "within bound" if s["spread"] <= bound else
                           "TOO NOISY")
                noisy += verdict == "TOO NOISY"
            emit("  {:<16} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.3f} {:>8.3f} "
                 "{:>6} {}".format(name, s["median"], s["q1"], s["q3"],
                                   s["spread"], s["max_min"], bound, verdict))
        emit("  raw: " + json.dumps({k: [round(x, 6) for x in v]
                                     for k, v in values.items()}))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
