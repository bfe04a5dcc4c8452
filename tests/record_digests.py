"""Record, or check, one SHA-256 per fuzz config of what its run leaves.

    python3 tests/record_digests.py
    python3 tests/record_digests.py --check

The first form runs every ``tests/test_fuzz.py`` config in-process
through ``cli.main`` and writes ``tests/fuzz_digests.json``.  Each
digest covers the exit code, stderr with the output directory replaced
by a fixed token, and the name and bytes of every artifact in sorted
order.  The file also records the Python and numpy versions it was made
with, since a float's last bit may differ between numpy builds.
``--check`` reruns the corpus and fails unless every digest matches.

``test_fuzz.test_exit_contract`` compares its case's digest on every
tier-1 run.  A change that alters bytes on purpose re-records only the
configs it means to change.
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


def load():
    return json.loads(DIGESTS.read_text())


def mismatch_message(case, recorded, running):
    now = versions()
    return (
        f"{case}: digest {running} differs from the recorded {recorded['digests'].get(case)}; "
        f"recorded with Python {recorded['python']}, numpy {recorded['numpy']}; "
        f"running Python {now['python']}, numpy {now['numpy']}"
    )


def compute():
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]
    import test_fuzz

    digests = {}
    for case, (mode, text) in enumerate(test_fuzz.CONFIGS):
        with tempfile.TemporaryDirectory() as workdir:
            digests[f"case{case:03d}"] = digest(*run_case(mode, text, workdir))
    return {**versions(), "seed": test_fuzz.SEED, "digests": digests}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    fresh = compute()
    if not args.check:
        DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"{DIGESTS}: {len(fresh['digests'])} digests")
        return 0
    recorded = load()
    bad = [c for c in sorted(fresh["digests"]) if fresh["digests"][c] != recorded["digests"].get(c)]
    for case in bad:
        print(mismatch_message(case, recorded, fresh["digests"][case]))
    print(f"{len(fresh['digests']) - len(bad)} of {len(fresh['digests'])} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
