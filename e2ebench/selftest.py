"""Self-test of the benchmark: tiny runs of every workload.

Usage, from the repository root::

    python3 e2ebench/selftest.py

For each workload, an untraced and a traced ``--smoke`` run must print
the result object as their last line, fail no operation, and emit
exactly the metric names and units ``BENCHMARK.json`` declares
(``end_to_end`` untraced, ``per_layer`` traced).  A run against a
golden table with one deliberately corrupted entry must count that
operation as failed.  Last, the command must exit non-zero without a
result in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exits 1 on the first broken check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: One golden entry per workload that a ``--smoke`` run checks.
CORRUPT = {
    "paper_sweep": ("matrix_add_i32/trimmed/1cu", None),
    "fresh_kernels": ("fuzz_s0", None),
    "serve_mix": ("short", None),
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def run(workload, trace, golden=None, root=ROOT):
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    if golden is not None:
        command += ["--golden", golden]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=180)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("exit {}: {}".format(proc.returncode,
                                                  proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError("result keys {}".format(sorted(result)))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise AssertionError("{} is not a whole number".format(key))
    if result["attempted"] < 1:
        raise AssertionError("no operation attempted")
    return result


def check(label, condition, detail=""):
    print("{} {}{}".format("ok  " if condition else "FAIL", label,
                           ": " + detail if detail and not condition
                           else ""), flush=True)
    if not condition:
        raise SystemExit(1)


def main():
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    golden = load(os.path.join(HERE, "golden.json"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = "{} --trace {}".format(workload, trace)
            result = result_of(run(workload, trace))
            check(label + ": no failed operation",
                  result["failed"] == 0 and result["correct"],
                  "{failed} of {attempted} failed".format(**result))
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            check(label + ": metric names and units match BENCHMARK.json",
                  emitted == declared[trace],
                  "extra {} missing {}".format(
                      sorted(set(emitted.items())
                             - set(declared[trace].items())),
                      sorted(set(declared[trace].items())
                             - set(emitted.items()))))
            check(label + ": every value is a number",
                  all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()))

        key, field = CORRUPT[workload]
        broken = copy.deepcopy(golden)
        entry = broken[workload][key]
        if field is not None:
            entry = entry[field]
        entry["cu_cycles"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "golden.json")
            with open(path, "w") as handle:
                json.dump(broken, handle)
            result = result_of(run(workload, 0, golden=path))
        check("{}: a corrupted golden entry counts as failed".format(
            workload), result["failed"] >= 1 and not result["correct"],
            "{failed} of {attempted} failed".format(**result))

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, root=tmp)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check("without the repository: non-zero exit and no result",
              proc.returncode != 0 and not last.startswith("{"),
              "exit {}".format(proc.returncode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
