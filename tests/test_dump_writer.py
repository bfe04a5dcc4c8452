"""Dump writers against the csv-module writers they replace, byte for byte.

``write_tensor_dump`` and ``write_curve_dump`` format rows of numbers
with ``repr`` and write them without the csv module.  The reference
writers below are the csv.writer implementations they replaced; every
case must give the same bytes.  A memory guard pins that the tensor
writer streams one row of the last grid axis at a time.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from semigeo.chart_check import Curve
from semigeo.grid_field import (
    ChartSpec,
    TensorTube,
    build_grid,
    write_curve_dump,
    write_tensor_dump,
)

# ------------------------------------------------------------ the reference


def reference_tensor_dump(path, grid, tubes):
    tubes = list(tubes)
    n = grid.n
    axes = [grid.axis_coords(a) for a in range(1, n + 1)]
    per_tube = [
        [
            (",".join(str(p + f) for p, f in zip(pos, tube.first)), tube.dense[pos])
            for pos in np.ndindex(tube.dense.shape[: len(tube.first)])
        ]
        for tube in tubes
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k}" for k in range(1, n + 1)] + ["tensor", "indices", "value"])
        for node in np.ndindex(grid.shape):
            coords = [repr(float(axes[a][node[a]])) for a in range(n)]
            for tube, comps in zip(tubes, per_tube):
                for label, values in comps:
                    writer.writerow(coords + [tube.name, label, repr(float(values[node]))])


def reference_curve_dump(path, curve):
    n = curve.points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"x{k}" for k in range(1, n + 1)])
        for s, p in zip(curve.s, curve.points):
            writer.writerow([repr(float(s))] + [repr(float(c)) for c in p])


# ------------------------------------------------------------------- inputs

# repr edge cases: signed zero, infinities, nan, the smallest subnormal,
# the switch to exponent notation at 1e16 and 1e-5, a shortest repr
# longer than its literal
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 0.1 + 0.2, 1e-5]


def values(shape, seed):
    """Values over ``shape`` across many magnitudes, SPECIAL first."""
    rng = np.random.default_rng(seed)
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
    flat = out.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    return out


def grid_of(n, res, x1_range=(-0.5, 0.25), h1=0.25):
    return build_grid(ChartSpec(n=n, x1_range=x1_range, h1=h1, transverse_res=res))


def tube(name, grid, slots, first=None, seed=0):
    return TensorTube(name, grid, values(tuple(slots) + grid.shape, seed), first)


def case_restricted():
    g = grid_of(2, 4, x1_range=(-1.0, 1.0), h1=0.125).restrict_x1(3, 11)
    return g, [tube("g", g, (2, 2), seed=5)]


def case_n2():
    g = grid_of(2, 3)
    return g, [tube("g", g, (2, 2), seed=1)]


def case_n3():
    g = grid_of(3, (3, 4))
    return g, [tube("metric", g, (3, 3), seed=2)]


def case_offset_and_one_slot():
    g = grid_of(3, 3)
    return g, [tube("R", g, (2, 3), (2, 1), seed=3), tube("v", g, (3,), seed=4)]


def case_several_tubes():
    g = grid_of(2, 5)
    return g, [
        tube("gamma", g, (2, 2, 2), seed=6),
        tube("first", g, (2, 2, 2), seed=7),
        tube("R", g, (1, 2, 2, 2), (2, 1, 1, 1), seed=8),
    ]


def case_quoted_names():
    g = grid_of(2, 3)
    names = ["a,b", 'say "hi"', "two\nlines", "cr\r", "plain", ""]
    return g, [tube(name, g, (1,), (2,), seed=9 + k) for k, name in enumerate(names)]


def case_scalar_tube():
    g = grid_of(2, 3)
    return g, [tube("f", g, ())]


def case_no_tubes():
    return grid_of(2, 3), []


CASES = {
    "n2": case_n2,
    "n3": case_n3,
    "offset-first-and-one-slot": case_offset_and_one_slot,
    "several-tubes": case_several_tubes,
    "restricted-grid": case_restricted,
    "quoted-names": case_quoted_names,
    "scalar-tube": case_scalar_tube,
    "no-tubes": case_no_tubes,
}


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_tensor_dump_matches_csv_writer(case, tmp_path):
    grid, tubes = case()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_tensor_dump(got, grid, tubes)
    reference_tensor_dump(want, grid, tubes)
    assert got.read_bytes() == want.read_bytes()


def test_special_values_reach_the_dump(tmp_path):
    grid, tubes = case_n2()
    path = tmp_path / "dump.csv"
    write_tensor_dump(path, grid, tubes)
    first = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    # the first component's first node holds SPECIAL[0], the next node SPECIAL[1]
    assert first[0] == "-0.0" and first[4] == "inf"
    assert {"-inf", "nan", "5e-324", "1e+16", "0.30000000000000004", "1e-05"} <= set(first)


CURVES = {
    "n2": (np.linspace(0.0, 1.0, 9), values((9, 2), 11)),
    "n3": (np.arange(12) * 0.1, values((12, 3), 12)),
    "one-point": (np.array([0.0]), np.array([[5e-324, -0.0]])),
    "empty": (np.zeros(0), np.zeros((0, 2))),
}


@pytest.mark.parametrize("s, points", CURVES.values(), ids=CURVES.keys())
def test_curve_dump_matches_csv_writer(s, points, tmp_path):
    curve = Curve(s=s, points=points)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curve_dump(got, curve)
    reference_curve_dump(want, curve)
    assert got.read_bytes() == want.read_bytes()


def test_tensor_dump_streams_one_row_at_a_time(tmp_path):
    """Writing a 3x3 tube on a 33x33x101 lattice allocates well under 0.5 MB.

    One row of the last axis (9 x 33 lines) peaks near 0.1 MB; one x1
    plane per write peaks at 1.8 MB.
    """
    grid = grid_of(3, 33, x1_range=(-0.5, 0.5), h1=0.01)
    assert grid.shape == (101, 33, 33)
    t = TensorTube("g", grid, np.full((3, 3) + grid.shape, 0.1 + 0.2))
    tracemalloc.start()
    try:
        write_tensor_dump(tmp_path / "wide.csv", grid, [t])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20
