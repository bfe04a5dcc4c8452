"""Workload definitions: the CLI operations each workload runs, per seed.

A seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``),
because every variant needs reference artifacts recorded ahead of time
(see ``reference.json``).  Within a workload the variants draw only
parameters that leave the amount of work unchanged: a shift of the
axial window, or a coefficient in a closed-form source.

Nothing here imports semigeo or sympy: the large round-trip field blocks
come from ``inputs/``, which ``gen.py`` rebuilds from the symbolic
oracle in ``tests/_oracles.py``.
"""

import os
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
INPUTS = Path(__file__).resolve().parent / "inputs"

# roundtrip-random: the two 3-D scenarios of the randomized acceptance
# round trips, as (mode, field file, n, x1 range, h1, transverse_res).
RANDOM_OPS = (
    ("rt-metric3d-seed11", "roundtrip-metric", "metric3d-seed11.fields", 3, (-0.3, 0.3), 0.01, 5),
    ("rt-connection3d-seed3", "roundtrip-connection", "connection3d-seed3.fields", 3, (-0.25, 0.25), 0.01, 5),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``semigeo <mode> --config <cfg> --out <dir> *args``."""

    name: str
    mode: str
    config: str
    args: tuple = ()
    expected_exit: int = 0


def chart_lines(n, x1_range, h1, res, e=True):
    """Chart section in the layout the acceptance tests use."""
    lines = [
        "[chart]",
        f"n = {n}",
        f"x1_min = {x1_range[0]}",
        f"x1_max = {x1_range[1]}",
        f"h1 = {h1}",
    ]
    if e:
        lines.append("e = 1")
    lines += [f"transverse_res = {res}", "transverse_box = 0.0, 1.0"]
    return lines


def _text(lines):
    return "\n".join(lines) + "\n"


def variant(seed):
    return seed % VARIANTS


def _rng(workload, seed):
    return random.Random(f"{workload}/{variant(seed)}")


def random_field_block(fields_file):
    return (INPUTS / fields_file).read_text()


def roundtrip_random(seed, field_block=random_field_block):
    """3-D random-scenario round trips; the seed shifts the axial window.

    The shift is a multiple of 2*h1, so the fine and coarse lattices keep
    their sample counts and the work per variant is the same.
    """
    shift = _rng("roundtrip-random", seed).randrange(-10, 11) * 0.02
    ops = []
    for name, mode, fields, n, (lo, hi), h1, res in RANDOM_OPS:
        x1 = (round(lo + shift, 2), round(hi + shift, 2))
        text = _text(chart_lines(n, x1, h1, res)) + field_block(fields)
        ops.append(Op(name, mode, text))
    return ops


def wide_dump(seed):
    """One wide 3-D metric round trip whose time goes into the CSV writer."""
    c = _rng("wide-dump", seed).randrange(100, 501) / 1000
    source = f"-(1 + {c}*x2*x3)*cos(x1)^2"
    fields = ["[fields]"]
    for i in (2, 3):
        fields += [
            f'gtilde.{i}.{i} = "1"',
            f'Gtilde.{i}.{i} = "0"',
            f'a.{i}.{i} = "{source}"',
        ]
    text = _text(chart_lines(3, (0.0, 1.0), 0.01, 33) + [""] + fields)
    threads = min(2, os.cpu_count() or 1)
    return [Op("wide-metric3d", "roundtrip-metric", text, ("--threads", str(threads)))]


STOP_CONFIG = _text(
    chart_lines(2, (0.0, 2.0), 0.0005, 3, e=False)
    + ["", "[fields]", 'A.2.1.2 = "-1"', 'A.1.1.2 = "0*sqrt(1.6 - x1)"']
)


def step_bound(seed):
    """Many steps on tiny arrays: a long 2-D march, geodesic shots, a stop.

    The seed draws the wavenumber k of the band metric dx1^2 +
    cos(k x1)^2 dx2^2, whose connection sources are A^2_12 = -k^2 and
    A^1_22 = k^2 cos(k x1)^2.  The stop case is the same for every seed:
    its source exists only for x1 <= 1.6, past the blow-up at pi/2.
    """
    k = _rng("step-bound", seed).randrange(800, 1201) / 1000
    march = _text(
        chart_lines(2, (-1.0, 1.0), 0.0005, 5, e=False)
        + ["", "[fields]", f'A.2.1.2 = "-{k}*{k}"', f'A.1.2.2 = "{k}*{k}*cos({k}*x1)^2"']
    )
    band = _text(
        chart_lines(2, (0.0, 1.0), 0.001, 9, e=False)
        + ["", "[fields]", 'g.1.1 = "1"', f'g.2.2 = "cos({k}*x1)^2"']
    )
    return [
        Op("rt-connection2d-band", "roundtrip-connection", march),
        Op("check-chart-band", "check-chart", band),
        Op("stop-blowup", "reconstruct-connection", STOP_CONFIG, expected_exit=3),
    ]


WORKLOADS = {
    "roundtrip-random": roundtrip_random,
    "wide-dump": wide_dump,
    "step-bound": step_bound,
}


def build(workload, seed):
    return WORKLOADS[workload](seed)
