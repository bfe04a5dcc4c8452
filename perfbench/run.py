"""semigeo benchmark: one workload, closed loop, one client process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one CLI invocation in a fresh child process, and the
operations run one after another, cycling through the workload's list.
An operation is started only while it is expected to end within S
seconds; every operation runs at least once.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall time of a fresh interpreter that imports
               semigeo.cli and parses and validates every config of the
               workload (several probes per run, after one warm-up)
  wall_s       wall time of one pass over the workload: the sum over its
               operations of each operation's median wall time
  peak_rss_mb  largest ru_maxrss of any operation's process
  gate_margin  largest max_error / gate of the workload's round trips

setup_s and wall_s are in reference seconds: every child runs pinned to
one CPU, the harness samples that CPU's speed while the child runs, and
the wall time is scaled to a fixed reference speed (harness.spawn).
Raw wall times are logged on stderr.

--trace 1 runs one untraced pass and then traced passes (at least two)
and prints the per-layer metrics: times are medians over the traced
passes, counts must repeat exactly across them.  trace.overhead_s is
the difference of scaled pass times; the span times are raw seconds.  Both run every
operation with --threads 1: with more threads the marchers' shared
source-plane cache is filled racily, so evaluation counts vary from run
to run.

Every operation's artifacts are checked against reference.json; a
mismatch counts as a failed operation.  The last line of stdout is the
JSON result.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message):
    print(message, file=sys.stderr, flush=True)


def metric_specs(trace):
    path = harness.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise harness.SetupError(f"{path} is missing")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(ops, workdir):
    """Median scaled wall time of SETUP_PROBES fresh-interpreter config probes."""
    base = Path(workdir) / "setup"
    base.mkdir()
    argv = [sys.executable, str(harness.BENCH / "probe_setup.py")]
    for i, op in enumerate(ops):
        cfg = base / f"op{i}.cfg"
        cfg.write_text(op.config)
        argv += [op.mode, str(cfg)]
    raw = []
    times = []
    for probe in range(SETUP_PROBES + 1):
        code, wall, scaled, _ = harness.spawn(argv, base)
        if code != 0:
            raise harness.SetupError(
                "setup probe failed: " + (base / "stderr.txt").read_text(errors="replace")
            )
        imported = Path((base / "stdout.txt").read_text().strip()).resolve()
        if harness.SRC.resolve() not in imported.parents:
            raise harness.SetupError(f"probe imported {imported}, not the checkout's sources")
        if probe:  # the first probe only warms the bytecode and file caches
            raw.append(wall)
            times.append(scaled)
    log("setup probes: " + " ".join(f"{t:.4f}" for t in raw) + " s raw")
    return statistics.median(times)


class Runner:
    """Runs operations one at a time and checks each against its reference."""

    def __init__(self, refs, workdir):
        self.refs = refs
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.gate_margin = 0.0

    def run(self, op, threads=None, traced=False):
        """Run and check op; returns (OpRun, span document or None)."""
        tag = f"op{self.attempted}"
        self.attempted += 1
        spans = self.workdir / f"{tag}.spans.json"
        result = harness.run_op(
            op, self.workdir, tag, threads, (spans, op.name) if traced else None
        )
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)
        problems = harness.check(op, self.refs[op.name], result.exit_code, result.out)
        doc = None
        if traced:
            if spans.is_file():
                with open(spans) as fh:
                    doc = json.load(fh)
            else:
                problems.append("traced run wrote no spans")
        report = result.out / "report.txt"
        if not problems and report.is_file():
            values = harness.read_report(report)
            if "max_error" in values and "gate" in values:
                margin = float(values["max_error"]) / float(values["gate"])
                self.gate_margin = max(self.gate_margin, margin)
        if problems:
            self.failed += 1
            log(f"FAILED {op.name}: " + "; ".join(problems))
            log(result.stderr[-2000:])
        log(f"{tag} {op.name}{' traced' if traced else ''}: exit {result.exit_code}, "
            f"{result.wall_s:.3f} s, {result.peak_rss_mb:.1f} MB")
        harness.clear(self.workdir / tag)
        return result, doc


def end_to_end(ops, runner, seconds):
    setup_s = measure_setup(ops, runner.workdir)
    walls = {op.name: [] for op in ops}
    start = time.perf_counter()
    done = False
    while not done:
        for op in ops:
            elapsed = time.perf_counter() - start
            if walls[op.name] and elapsed + walls[op.name][-1][0] > seconds:
                done = True
                break
            result = runner.run(op)[0]
            walls[op.name].append((result.wall_s, result.scaled_s))
    for name, values in walls.items():
        log(f"{name}: {len(values)} runs, median {statistics.median(v[0] for v in values):.3f} s "
            f"raw, {statistics.median(v[1] for v in values):.3f} s scaled")
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(v[1] for v in values) for values in walls.values()),
        "peak_rss_mb": runner.peak_rss_mb,
        "gate_margin": runner.gate_margin,
    }
    return metrics, True


def traced_pass(ops, runner):
    wall = 0.0
    docs = []
    for op in ops:
        result, doc = runner.run(op, threads=1, traced=True)
        wall += result.scaled_s
        if doc is not None:
            docs.append(doc)
    return wall, tracing.layer_metrics(docs)


def per_layer(ops, runner, seconds):
    start = time.perf_counter()
    untraced = sum(runner.run(op, threads=1)[0].scaled_s for op in ops)
    passes = []
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(traced_pass(ops, runner))
    repeat = True
    metrics = {}
    for name in passes[0][1]:
        values = [layers[name] for _, layers in passes]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                repeat = False
                log(f"count {name} did not repeat across traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced = statistics.median(wall for wall, _ in passes)
    metrics["trace.overhead_s"] = traced - untraced
    log(f"untraced pass {untraced:.3f} s; traced passes "
        + ", ".join(f"{wall:.3f}" for wall, _ in passes) + " s, scaled")
    return metrics, repeat


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = harness.ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        harness.require_sources()
        units = metric_specs(args.trace)
        references = harness.load_reference()
        ops = workloads.build(args.workload, args.seed)
        variant = workloads.variant(args.seed)
        refs = {op.name: harness.op_reference(references, args.workload, variant, op) for op in ops}
        workdir.mkdir(parents=True)
        runner = Runner(refs, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, repeat = measure(ops, runner, args.seconds)
    except harness.SetupError as err:
        log(f"error: {err}")
        return 2
    finally:
        harness.remove_workdir(workdir)
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"error: metrics not measured: {', '.join(missing)}")
        return 2
    result = {
        "correct": runner.failed == 0 and repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
