"""Record, or check, one SHA-256 per test config of what its run leaves.

    python3 tests/record_digests.py
    python3 tests/record_digests.py --check

The first form runs every ``tests/test_fuzz.py`` config and every named
config of ``tests/test_named_configs.py`` in-process through
``cli.main`` and writes ``tests/fuzz_digests.json`` and
``tests/named_digests.json``.  Each digest covers the exit code, stderr
with the output directory replaced by a fixed token, and the name and
bytes of every artifact in sorted order.  Each file also records the
Python and numpy versions it was made with, since a float's last bit may
differ between numpy builds.  ``--check`` reruns both sets and fails
unless every digest matches.

``test_fuzz.test_exit_contract`` and ``test_named_configs`` compare
their case's digest on every tier-1 run.  A change that alters bytes on
purpose re-records only the configs it means to change.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
DIGESTS = TESTS / "fuzz_digests.json"
NAMED_DIGESTS = TESTS / "named_digests.json"
OUT_TOKEN = "<out>"


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def digest(code, stderr, out):
    """SHA-256 of one run: exit code, stderr and every artifact under ``out``."""
    h = hashlib.sha256()

    def chunk(data):
        h.update(b"%d\n" % len(data))
        h.update(data)

    chunk(str(code).encode())
    chunk(stderr.replace(str(out), OUT_TOKEN).encode())
    files = sorted(p for p in Path(out).rglob("*") if p.is_file()) if Path(out).is_dir() else []
    for path in files:
        chunk(path.relative_to(out).as_posix().encode())
        chunk(path.read_bytes())
    return h.hexdigest()


def run_case(mode, text, workdir):
    """Run one config as ``test_exit_contract`` does; returns (code, stderr, out)."""
    from semigeo.cli import main

    cfg = Path(workdir) / "run.cfg"
    cfg.write_text(text)
    out = Path(workdir) / "out"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([mode, "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue(), out


def load(path=DIGESTS):
    return json.loads(path.read_text())


def mismatch_message(case, recorded, running):
    now = versions()
    return (
        f"{case}: digest {running} differs from the recorded {recorded['digests'].get(case)}; "
        f"recorded with Python {recorded['python']}, numpy {recorded['numpy']}; "
        f"running Python {now['python']}, numpy {now['numpy']}"
    )


def _digests(cases):
    """{name: digest} of every (name, mode, text) case, each in a fresh directory."""
    digests = {}
    for name, mode, text in cases:
        with tempfile.TemporaryDirectory() as workdir:
            digests[name] = digest(*run_case(mode, text, workdir))
    return digests


def compute():
    """{path: document} of both digest files, freshly run."""
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]
    import test_fuzz
    import test_named_configs

    fuzz = [(f"case{i:03d}", mode, text) for i, (mode, text) in enumerate(test_fuzz.CONFIGS)]
    named = [(name, mode, text) for name, (mode, text, _) in test_named_configs.NAMED.items()]
    return {
        DIGESTS: {**versions(), "seed": test_fuzz.SEED, "digests": _digests(fuzz)},
        NAMED_DIGESTS: {**versions(), "digests": _digests(named)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    failed = False
    for path, fresh in compute().items():
        if not args.check:
            path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
            print(f"{path}: {len(fresh['digests'])} digests")
            continue
        recorded = load(path)
        running = fresh["digests"]
        bad = [c for c in sorted(running) if running[c] != recorded["digests"].get(c)]
        for case in bad:
            print(mismatch_message(case, recorded, running[case]))
        print(f"{path.name}: {len(running) - len(bad)} of {len(running)} digests match")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
