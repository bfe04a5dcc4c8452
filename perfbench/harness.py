"""Run CLI operations in fresh child processes and check their artifacts.

Each operation is one ``python -m semigeo`` (or, traced, one
``trace_child.py``) process, pinned to one CPU (``bench_cpu``).  The
harness waits for it with ``os.wait4`` to read its peak resident set
size, then compares the artifacts with the references recorded in
``reference.json``:

- the exit code must be the expected one;
- the set of CSV files and the SHA-256 of each must match;
- every ``report.txt`` key of the reference must be present with the
  same value (keys the program adds later are ignored).
"""

import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# While a child runs, the harness wakes every SAMPLE_INTERVAL_S on the
# child's CPU and times _speed_sample, a fixed slice of interpreter work
# (about 2 % of the CPU).  REFERENCE_SAMPLE_S is the slice's median time
# on a 2-core virtual machine (Python 3.11, shared host); a child's scaled
# time is its wall time times the mean of REFERENCE_SAMPLE_S / sample.
SAMPLE_INTERVAL_S = 0.05
REFERENCE_SAMPLE_S = 0.00124


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no sources)."""


def require_sources():
    if not (SRC / "semigeo" / "cli.py").is_file():
        raise SetupError(f"no semigeo sources under {SRC}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class OpRun:
    exit_code: int
    wall_s: float
    scaled_s: float
    peak_rss_mb: float
    out: Path
    stderr: str


def bench_cpu():
    """The CPU every child and every speed sample runs on."""
    return min(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu):
    """Run this process, and children it starts meanwhile, on ``cpu`` only."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _speed_sample():
    """Seconds a fixed slice of interpreter work takes now."""
    start = time.perf_counter()
    a = [0.001 * k for k in range(25)]
    total = 0.0
    parts = []
    for i in range(150):
        b = [x * (i % 7) + x for x in a]
        total += sum(b)
        parts.append(repr(total))
        table = {k: k * 2 for k in range(20)}
        total += sum(table.values()) * 1e-9
    ",".join(parts)
    return time.perf_counter() - start


def spawn(argv, base):
    """Run argv to completion on the benchmark CPU.

    Its output goes to ``base/stdout.txt`` and ``base/stderr.txt``.
    Returns (exit code, wall s, scaled s, peak RSS MB), where the scaled
    time is the wall time at the reference speed of that CPU, sampled
    while the child runs: the virtual CPUs of a shared host change speed
    by up to 1.7x over seconds to minutes.
    """
    with open(base / "stdout.txt", "wb") as out, open(base / "stderr.txt", "wb") as err:
        with pinned(bench_cpu()):
            speeds = []
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], SAMPLE_INTERVAL_S)[0]:
                        speeds.append(REFERENCE_SAMPLE_S / _speed_sample())
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    os.close(exited)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            if not speeds:
                speeds.append(REFERENCE_SAMPLE_S / _speed_sample())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, wall * statistics.fmean(speeds), usage.ru_maxrss / 1024.0


def run_op(op, workdir, tag, threads=None, traced=None):
    """Run one operation under ``workdir/tag``.

    ``threads`` overrides the op's own ``--threads`` (references are
    recorded with 1).  ``traced`` is ``(spans_path, op_id)`` to run the
    operation through the tracing child instead of ``python -m semigeo``.
    """
    base = Path(workdir) / tag
    base.mkdir(parents=True)
    cfg = base / "run.cfg"
    cfg.write_text(op.config)
    out = base / "out"
    args = list(op.args)
    if threads is not None:
        if "--threads" in args:
            i = args.index("--threads")
            del args[i : i + 2]
        args += ["--threads", str(threads)]
    cli = [op.mode, "--config", str(cfg), "--out", str(out), *args]
    if traced is None:
        argv = [sys.executable, "-m", "semigeo", *cli]
    else:
        spans, op_id = traced
        argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans), op_id, *cli]
    code, wall, scaled, rss = spawn(argv, base)
    stderr = (base / "stderr.txt").read_text(errors="replace")
    return OpRun(code, wall, scaled, rss, out, stderr)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_report(path):
    """report.txt as {key: value}, mirroring semigeo.cli.read_report."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            key, _, value = raw.rstrip("\n").partition(": ")
            out[key] = value
    return out


def artifacts(exit_code, out):
    """What a reference records for one run: exit code, CSV digests, report."""
    out = Path(out)
    csv = {p.name: sha256(p) for p in sorted(out.glob("*.csv"))} if out.is_dir() else {}
    report = read_report(out / "report.txt") if (out / "report.txt").is_file() else None
    return {"exit_code": exit_code, "csv": csv, "report": report}


def check(op, reference, exit_code, out):
    """Mismatches of one run against its reference; empty when correct."""
    problems = []
    if exit_code != op.expected_exit:
        problems.append(f"exit code {exit_code}, expected {op.expected_exit}")
    got = artifacts(exit_code, out)
    want_csv = reference["csv"]
    for name in sorted(set(want_csv) | set(got["csv"])):
        if name not in got["csv"]:
            problems.append(f"{name} missing")
        elif name not in want_csv:
            problems.append(f"{name} not in the reference")
        elif got["csv"][name] != want_csv[name]:
            problems.append(f"{name} differs from the reference")
    want_report = reference["report"]
    if want_report is not None:
        if got["report"] is None:
            problems.append("report.txt missing")
        else:
            for key, value in want_report.items():
                if got["report"].get(key) != value:
                    problems.append(
                        f"report {key}: {got['report'].get(key)!r}, expected {value!r}"
                    )
    return problems


def load_reference():
    if not REFERENCE.is_file():
        raise SetupError(f"{REFERENCE} is missing")
    with open(REFERENCE) as fh:
        return json.load(fh)


def op_reference(references, workload, variant, op):
    try:
        return references["workloads"][workload][str(variant)][op.name]
    except KeyError:
        raise SetupError(f"no reference for {workload} variant {variant} op {op.name}")


def clear(path):
    shutil.rmtree(path, ignore_errors=True)


def remove_workdir(workdir):
    """Delete a run's work directory, and its parent once no run uses it."""
    clear(workdir)
    try:
        Path(workdir).parent.rmdir()
    except OSError:
        pass  # absent, or another run still uses it
