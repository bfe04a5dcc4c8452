"""Rebuild the benchmark's input configs from the symbolic oracle.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR
    python3 perfbench/gen.py --check

The first form writes the configs of one workload seed to DIR, one
``<op>.cfg`` per operation.  The round-trip field blocks are derived
afresh with sympy through the acceptance tests' scenario renderers
(``tests/test_acceptance.py`` on top of ``tests/_oracles.py``), which
takes 10-15 s per 3-D metric scenario; the benchmark itself reads the
committed copies in ``inputs/`` instead.  ``--check`` rebuilds the
configs of the default seed 0 of every workload that way and fails
unless they equal, byte for byte, what the benchmark runs.

Needs sympy, pytest and the repository's ``tests/`` and ``src/``.
"""

import argparse
import functools
import sys
from pathlib import Path

import workloads

REPO = Path(__file__).resolve().parent.parent

# committed field block -> (scenario kind, oracle seed, dimension)
SCENARIOS = {
    "metric3d-seed11.fields": ("metric", 11, 3),
    "connection3d-seed3.fields": ("connection", 3, 3),
}


@functools.lru_cache(maxsize=None)
def oracle_field_block(fields_file):
    sys.path[:0] = [str(REPO / "tests"), str(REPO / "src")]
    import test_acceptance

    kind, seed, n = SCENARIOS[fields_file]
    render = test_acceptance._metric_field_lines if kind == "metric" else test_acceptance._connection_field_lines
    return "\n".join(render(seed, n)) + "\n"


def build(workload, seed):
    if workload == "roundtrip-random":
        return workloads.roundtrip_random(seed, field_block=oracle_field_block)
    return workloads.build(workload, seed)


def check():
    mismatches = 0
    for workload in sorted(workloads.WORKLOADS):
        for fresh, committed in zip(build(workload, 0), workloads.build(workload, 0)):
            same = fresh.config == committed.config
            mismatches += not same
            print(f"{workload} {fresh.name}: {'identical' if same else 'DIFFERS'}")
    return 1 if mismatches else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.check:
        return check()
    if args.workload is None or args.out is None:
        parser.error("give --check, or --workload and --out")
    args.out.mkdir(parents=True, exist_ok=True)
    for op in build(args.workload, args.seed):
        (args.out / f"{op.name}.cfg").write_text(op.config)
        print(args.out / f"{op.name}.cfg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
