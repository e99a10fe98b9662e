"""Regenerate the benchmark's golden table (and, on request, its
``fresh_kernels`` catalogue).

Usage, from the repository root::

    python3 e2ebench/regen_golden.py              # golden.json only
    python3 e2ebench/regen_golden.py --catalogue  # catalogue.json too

Regenerate only when a change means to alter simulated results (cycles,
instruction counts, outputs, area, power, preemption counts).  A
host-speed change must leave ``golden.json`` byte-identical; ``git
diff`` after a run shows whether it did.

The catalogue holds base programs from the ``repro.verify`` kernel
generator, stored with their inputs so a generator change cannot
silently change the workload.  Each entry is checked here: two salted
copies must reproduce the base program's cycles, instruction count
and output digest, or the catalogue is refused.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402

#: Catalogue size and generator seeds (seed i -> entry ``fuzz_s<i>``).
CATALOGUE_SIZE = 100


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def make_catalogue():
    from repro.verify.generator import generate_case

    entries = []
    for seed in range(CATALOGUE_SIZE):
        case = generate_case(seed)
        data = case.input_data().astype("<u4").tobytes()
        entries.append({
            "id": "fuzz_s{}".format(seed),
            "source": case.source,
            "local_size": case.local_size,
            "groups": case.groups,
            "input_b64": base64.b64encode(data).decode("ascii"),
        })
    return {"generator": "repro.verify.generator.generate_case",
            "entries": entries}


def golden_paper_sweep(log):
    """Per point: the whole-grid sweep's record."""
    from repro.dse.runner import SweepRunner, SweepSpec
    from repro.dse.space import DesignSpace

    report = SweepRunner(SweepSpec(space=DesignSpace("golden",
                                                     wl.paper_points()),
                                   workers=1)).sweep()
    out = {}
    for result in report.results:
        if not result.ok:
            raise SystemExit("{}: {} ({})".format(
                result.point.name, result.status, result.error))
        out[result.point.name] = wl.point_record(result)
        log("paper_sweep {}".format(result.point.name))
    return out


def golden_fresh_kernels(log):
    from repro.asm.assembler import assemble
    from repro.core.config import ArchConfig
    from repro.exec import Executor

    executor = Executor()
    arch = ArchConfig.baseline()
    out = {}
    for entry in wl.load_json(wl.CATALOGUE_PATH)["entries"]:
        inputs = wl.catalogue_inputs(entry)
        records = []
        for source in (entry["source"], wl.salted(entry["source"], 0x1234567),
                       wl.salted(entry["source"], 0x89ABCDE)):
            result = executor.execute(wl.program_request(
                assemble(source), entry, inputs, arch))
            records.append(wl.program_record(result))
        if any(record != records[0] for record in records[1:]):
            raise SystemExit("{}: a salted copy changes the simulated "
                             "result".format(entry["id"]))
        out[entry["id"]] = records[0]
        log("fresh_kernels {}".format(entry["id"]))
    return out


def golden_serve_mix(log):
    service = wl.new_service()
    out = {}
    try:
        for kind in wl.SERVE_KINDS:
            result = service.result(service.submit(wl.serve_job(kind)),
                                    timeout=wl.JOB_TIMEOUT_S)
            if not result.ok:
                raise SystemExit("serve_mix {}: {}".format(kind,
                                                           result.error))
            out[kind] = wl.job_record(result)
            log("serve_mix {}".format(kind))
    finally:
        service.close()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--catalogue", action="store_true",
                        help="rebuild catalogue.json from the generator")
    args = parser.parse_args(argv)

    def log(message):
        print(message, file=sys.stderr)

    if args.catalogue:
        write_json(wl.CATALOGUE_PATH, make_catalogue())
    golden = {
        "paper_sweep": golden_paper_sweep(log),
        "fresh_kernels": golden_fresh_kernels(log),
        "serve_mix": golden_serve_mix(log),
    }
    write_json(wl.GOLDEN_PATH, golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
