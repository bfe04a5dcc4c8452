"""Self-test of the benchmark's correctness checker and tracer.

    python3 perfbench/selftest.py

Runs a shrunken copy of the wide-dump operation (5x5 transverse nodes,
x1 in [0, 0.2]), records its artifacts as the reference, and checks:

- a clean rerun gives ops_failed = 0;
- a flipped byte in a CSV gives ops_failed = 1;
- a changed report.txt value gives ops_failed = 1;
- an unexpected exit code gives ops_failed = 1;
- a report.txt key appended after the reference was taken gives 0;
- two traced runs pass the same check and repeat every count exactly.

Exits 0 when every case holds.  Takes a few seconds.
"""

import dataclasses
import json
import os
import shutil
import sys

import harness
import tracing
import workloads


def shrunken_op():
    op = workloads.wide_dump(0)[0]
    config = op.config.replace("transverse_res = 33", "transverse_res = 5")
    config = config.replace("x1_max = 1.0", "x1_max = 0.2")
    assert config != op.config
    return dataclasses.replace(op, name="selftest", config=config, args=())


def ops_failed(op, reference, runs):
    """How many of (exit code, out dir) runs the checker rejects."""
    return sum(bool(harness.check(op, reference, code, out)) for code, out in runs)


def tampered(out, name, edit):
    copy = out.parent / name
    shutil.copytree(out, copy)
    edit(copy)
    return copy


def flip_csv_byte(out):
    path = sorted(out.glob("*.csv"))[0]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def change_report_value(out):
    path = out / "report.txt"
    lines = path.read_text().splitlines(keepends=True)
    key, _, value = lines[-2].partition(": ")
    lines[-2] = f"{key}: {value.strip()}1\n"
    path.write_text("".join(lines))


def append_report_key(out):
    with open(out / "report.txt", "a") as fh:
        fh.write("steps_accepted_plus: 20\n")


def main():
    harness.require_sources()
    op = shrunken_op()
    workdir = harness.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    cases = []
    try:
        first = harness.run_op(op, workdir, "reference")
        reference = harness.artifacts(first.exit_code, first.out)
        assert reference["csv"] and reference["report"], reference
        clean = harness.run_op(op, workdir, "clean")
        out = clean.out
        cases += [
            ("clean rerun", 0, [(clean.exit_code, out)]),
            ("flipped CSV byte", 1, [(0, tampered(out, "flip", flip_csv_byte))]),
            ("changed report value", 1, [(0, tampered(out, "value", change_report_value))]),
            ("unexpected exit code", 1, [(4, out)]),
            ("appended report key", 0, [(0, tampered(out, "append", append_report_key))]),
        ]
        docs = []
        traced_runs = []
        for i in range(2):
            spans = workdir / f"traced{i}.json"
            run = harness.run_op(op, workdir, f"traced{i}", traced=(spans, op.name))
            traced_runs.append((run.exit_code, run.out))
            with open(spans) as fh:
                docs.append(tracing.layer_metrics([json.load(fh)]))
        cases.append(("traced runs", 0, traced_runs))
        failures = 0
        for label, expected, runs in cases:
            got = ops_failed(op, reference, runs)
            ok = got == expected
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: ops_failed = {got} (expected {expected})")
        for name in tracing.COUNT_METRICS:
            values = [d[name] for d in docs]
            ok = values[0] == values[1]
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} count {name} repeats: {values}")
        return 1 if failures else 0
    finally:
        harness.remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
