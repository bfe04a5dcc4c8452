"""Record the reference artifacts every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

Runs every operation of every seed variant once, untraced, with
``--threads 1``, and writes its exit code, the SHA-256 of each CSV and
the report.txt values to reference.json.  Recording fails if an
operation does not exit with its expected code.  Re-record only when a
change is meant to alter artifacts; a speed-up must leave them as they
are.
"""

import argparse
import json
import os
import platform
import sys

import numpy

import harness
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    harness.require_sources()
    names = args.workload or sorted(workloads.WORKLOADS)
    if harness.REFERENCE.is_file():
        references = harness.load_reference()
    else:
        references = {"workloads": {}}
    references["recorded_with"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": 1,
    }
    workdir = harness.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in names:
            per_variant = {}
            for variant in range(workloads.VARIANTS):
                per_op = {}
                for op in workloads.build(name, variant):
                    tag = f"{name}-{variant}-{op.name}"
                    result = harness.run_op(op, workdir, tag, threads=1)
                    if result.exit_code != op.expected_exit:
                        sys.exit(
                            f"{tag}: exit {result.exit_code}, expected "
                            f"{op.expected_exit}\n{result.stderr}"
                        )
                    per_op[op.name] = harness.artifacts(result.exit_code, result.out)
                    print(f"{tag}: exit {result.exit_code}, {result.wall_s:.2f} s", flush=True)
                    harness.clear(workdir / tag)
                per_variant[str(variant)] = per_op
            references["workloads"][name] = per_variant
    finally:
        harness.remove_workdir(workdir)
    with open(harness.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
