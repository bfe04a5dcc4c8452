"""Seeded fuzz of the configuration and expression front door.

About 300 configurations are drawn from one fixed numpy seed: every
mode, small but mostly valid charts with occasional bad values
(0, -1, inf, nan, abc), the same bad values for tolerances, and one to
four field lines with random families, indices and expressions up to
depth 3.  Each runs in-process through ``cli.main`` with numpy's
RuntimeWarnings turned into errors.  The oracle is the documented exit
contract: the code is 0, 2, 3 or 4, nothing escapes as an exception, and
a run that exits 0 reports only finite numbers.  Each run must also
leave the bytes recorded in ``fuzz_digests.json`` (exit code, stderr
and artifacts; see ``record_digests.py``).
"""

import math

import numpy as np
import pytest
from record_digests import digest, load, mismatch_message, run_case

from semigeo.cli import read_report
from semigeo.config import MODES

SEED = 20261018
CASES = 300

BAD = ("0", "-1", "inf", "nan", "abc")
ATOMS = ("x1", "x2", "x3", "0", "0.5", "1", "1e300")
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "exp", "log", "sqrt", "abs")
OPERATORS = ("+", "-", "*", "/", "^")
# lowest index per slot, as the config accepts them
FLOORS = {
    "g": (1, 1),
    "gtilde": (2, 2),
    "Gtilde": (2, 2),
    "a": (2, 2),
    "gamma": (1, 1, 1),
    "gammatilde": (1, 1, 1),
    "A": (1, 1, 2),
}
HYPERSURFACE = ("gtilde", "Gtilde", "gammatilde")
MODE_FAMILIES = {
    "forward": ("g", "gamma"),
    "reconstruct-metric": ("gtilde", "Gtilde", "a"),
    "roundtrip-metric": ("gtilde", "Gtilde", "a"),
    "reconstruct-connection": ("gammatilde", "A"),
    "roundtrip-connection": ("gammatilde", "A"),
    "check-chart": ("g", "gamma"),
}
TOLERANCES = {
    "blowup_threshold": "1e6",
    "degeneracy_tol": "1e-10",
    "roundtrip_tol": "1e-6",
    "step_growth_limit": "10",
    "stage_slope_ratio": "5",
}


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _expression(rng, n, depth, axial=True):
    if depth == 0 or rng.random() < 0.3:
        # mostly the chart's own coordinates (no x1 in most hypersurface
        # data), any atom now and then
        if rng.random() < 0.2:
            return _pick(rng, ATOMS)
        own = ATOMS[:n] if axial else ATOMS[1:n]
        return _pick(rng, own + ATOMS[3:6])
    if rng.random() < 0.3:
        return f"{_pick(rng, FUNCTIONS)}({_expression(rng, n, depth - 1, axial)})"
    left = _expression(rng, n, depth - 1, axial)
    right = _expression(rng, n, depth - 1, axial)
    return f"({left} {_pick(rng, OPERATORS)} {right})"


def _index(rng, family, n):
    # the family's own ranges, except now and then any index in 1..n
    floors = FLOORS[family] if rng.random() < 0.9 else (1,) * len(FLOORS[family])
    return tuple(int(rng.integers(f, n + 1)) for f in floors)


def _fields(rng, mode, n):
    families = MODE_FAMILIES[mode]
    if mode in ("forward", "check-chart") and rng.random() < 0.8:
        families = (_pick(rng, families),)
    given = {}
    # a nondegenerate diagonal under most metric runs
    base = "g" if "g" in families else "gtilde" if "gtilde" in families else None
    if base and rng.random() < 0.7:
        for i in range(FLOORS[base][0], n + 1):
            given[(base, (i, i))] = "1"
    for _ in range(int(rng.integers(1, 5))):
        family = _pick(rng, families if rng.random() < 0.9 else tuple(FLOORS))
        idx = _index(rng, family, n)
        if family != "A":
            idx = idx[:-2] + tuple(sorted(idx[-2:]))
        if (family, idx) in given and rng.random() < 0.9:
            continue
        axial = family not in HYPERSURFACE or rng.random() < 0.1
        text = _expression(rng, n, int(rng.integers(0, 4)), axial)
        if rng.random() < 0.05:
            text = "(" + text
        given[(family, idx)] = text
    return [
        f'{family}.{".".join(map(str, idx))} = "{text}"' for (family, idx), text in given.items()
    ]


def _config(rng):
    mode = _pick(rng, MODES)
    n = int(rng.integers(2, 4))
    h1 = _pick(rng, (0.05, 0.1, 0.25))
    samples = int(rng.integers(2, 8))
    below = int(rng.integers(samples))
    entries = [
        ("[chart]", None),
        ("n", str(n)),
        ("x1_min", repr(-below * h1)),
        ("x1_max", repr((samples - 1 - below) * h1)),
        ("h1", repr(h1)),
        ("transverse_res", str(int(rng.integers(3, 6)))),
        ("transverse_box", f"{_pick(rng, ('-0.5', '0'))}, {_pick(rng, ('0.5', '1'))}"),
        ("e", _pick(rng, ("1", "-1"))),
        ("[tolerances]", None),
    ]
    entries += [(key, good) for key, good in TOLERANCES.items() if rng.random() < 0.3]
    # about one config in three gets one bad chart or tolerance value
    if rng.random() < 0.35:
        slot = _pick(rng, [i for i, (_, v) in enumerate(entries) if v is not None])
        key, good = entries[slot]
        bad = _pick(rng, BAD)
        if key == "transverse_box":
            bad = _pick(rng, (f"{bad}, 1", f"-0.5, {bad}"))
        entries[slot] = (key, bad)
    if rng.random() < 0.1:
        entries = [entry for entry in entries if entry[0] != "e"]
    lines = [key if value is None else f"{key} = {value}" for key, value in entries]
    lines += ["[fields]"] + _fields(rng, mode, n)
    return mode, "\n".join(lines) + "\n"


_RNG = np.random.default_rng(SEED)
CONFIGS = [_config(_RNG) for _ in range(CASES)]


@pytest.fixture(scope="module")
def recorded():
    digests = load()
    assert digests["seed"] == SEED, "fuzz_digests.json was recorded for another seed"
    return digests


@pytest.mark.parametrize("case", range(CASES), ids=[f"case{i:03d}" for i in range(CASES)])
def test_exit_contract(tmp_path, recorded, case):
    mode, text = CONFIGS[case]
    code, stderr, out = run_case(mode, text, tmp_path)
    assert code in (0, 2, 3, 4), text
    running = digest(code, stderr, out)
    name = f"case{case:03d}"
    assert running == recorded["digests"][name], mismatch_message(name, recorded, running)
    if code == 0:
        for key, value in read_report(out / "report.txt").items():
            try:
                number = float(value)
            except ValueError:
                continue
            assert math.isfinite(number), f"{key}: {value}\n{text}"
