"""List every statement of ``src/semigeo`` that no program run executes.

    python3 tests/program_paths.py [--seed N]

Runs, in one process through ``cli.main`` under ``sys.settrace``, every
config of ``tests/test_fuzz.py`` and every named config of
``tests/test_named_configs.py`` (as ``record_digests.run_case`` runs
them), then every operation of the ``perfbench/workloads.py`` workloads
at one seed (3 by default).  It prints each statement that none of these
runs reached, as ``module:line: source``, and a count last.

A statement listed is reached only from the library API or the tests,
or by nothing.  Checks of malformed input from outside the program show
up here as well when no config feeds them that input; they stay in the
code.  A compound statement counts as run when a line of its header
runs, a ``try`` by its body, and docstrings, ``global`` and ``nonlocal``
are no statements.  Needs only the standard library and numpy; the
script's name keeps pytest from collecting it.
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "semigeo"

_hit = {}


def _trace(frame, event, arg):
    """Global trace: line events of ``semigeo`` frames only."""
    lines = _hit.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    lines.add(frame.f_lineno)
    return local


def _spans(tree):
    """(first, last) source lines of each statement; any hit line runs it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant, which compiles to nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield first, max(first, last)


def _run(mode, text, args=()):
    from semigeo.cli import main

    with tempfile.TemporaryDirectory() as workdir:
        cfg = Path(workdir) / "run.cfg"
        cfg.write_text(text)
        out = Path(workdir) / "out"
        sink = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(sink):
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(sink):
                return main([mode, "--config", str(cfg), "--out", str(out), *args])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    sources = sorted(PACKAGE.rglob("*.py"))
    for path in sources:
        _hit[str(path)] = set()
    sys.path[:0] = [str(TESTS), str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(_trace)
    try:
        import test_fuzz
        import test_named_configs
        import workloads

        cases = list(test_fuzz.CONFIGS)
        cases += [(mode, text) for mode, text, _ in test_named_configs.NAMED.values()]
        for mode, text in cases:
            _run(mode, text)
        ops = [op for build in workloads.WORKLOADS.values() for op in build(args.seed)]
        for op in ops:
            _run(op.mode, op.config, op.args)
    finally:
        sys.settrace(None)
    missed = 0
    for path in sources:
        text = path.read_text()
        lines = text.splitlines()
        hit = _hit[str(path)]
        for first, last in sorted(_spans(ast.parse(text))):
            if hit.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements run by none of {len(cases) + len(ops)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
