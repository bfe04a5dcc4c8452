"""Dump writers against the csv-module writers they replace, byte for byte.

``write_tensor_dump`` and ``write_curve_dump`` format rows of numbers
with ``repr`` and write them without the csv module.  The reference
writers below are the csv.writer implementations they replaced; every
case must give the same bytes, among them values that repeat within an
x1 plane (across the transverse nodes, symmetric in x2 and x3, signed
zeros and NaN payloads) and planes or rows larger than the writer's
block.  Memory guards pin that the tensor writer streams a bounded block
of rows at a time, and a counting ``repr`` pins that it formats each
distinct bit pattern of a block once where a component repeats bits
within its first x1 plane, and each value once where none does.
"""

import builtins
import csv
import math
import tracemalloc

import numpy as np
import pytest

from semigeo import dump_text, grid_field
from semigeo.chart_check import Curve
from semigeo.grid_field import (
    ChartSpec,
    TensorTube,
    build_grid,
    write_curve_dump,
    write_tensor_dump,
)
from semigeo.linalg import mirror_upper

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


# NaNs that differ only in their payload bits; both print as "nan"
NAN_A, NAN_B = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(np.float64)


def case_constant_components():
    g = grid_of(2, 3)
    const = np.empty((2, 2) + g.shape)
    for pos, value in zip(np.ndindex(2, 2), [0.0, -0.0, np.inf, np.nan]):
        const[pos] = value
    return g, [TensorTube("c", g, const), tube("v", g, (2,), seed=13)]


def case_one_negative_zero():
    g = grid_of(2, 3)
    dense = np.zeros((2,) + g.shape)
    dense[0, 1, 2] = -0.0  # one -0.0 node: component 1 is not the constant 0.0
    return g, [TensorTube("z", g, dense)]


def case_mirrored():
    g = grid_of(3, (3, 4))
    return g, [TensorTube("g", g, mirror_upper(values((3, 3) + g.shape, 14)))]


def case_shared_component():
    g = grid_of(2, 4)
    a = tube("a", g, (2, 2), seed=15)
    b = values((2,) + g.shape, 16)
    b[1] = a.dense[0, 1]
    return g, [a, TensorTube("b", g, b)]


def case_nan_payloads():
    g = grid_of(2, 3)
    dense = np.repeat(values(g.shape, 17)[None], 2, axis=0)
    dense[0, 2, 1], dense[1, 2, 1] = NAN_A, NAN_B
    return g, [TensorTube("p", g, dense)]


def case_transverse_constant():
    g = grid_of(3, (3, 4))
    along_x1 = values((2, 2, g.shape[0], 1, 1), 21)
    return g, [TensorTube("t", g, np.broadcast_to(along_x1, (2, 2) + g.shape).copy())]


def case_symmetric_plane():
    g = grid_of(3, 4)
    return g, [TensorTube("s", g, mirror_upper(values((2,) + g.shape, 22), axis=2))]


def case_signed_zeros_and_nans_repeated():
    g = grid_of(3, (3, 4))
    dense = np.zeros((2,) + g.shape)
    dense[0, ..., 1::2] = -0.0
    dense[1, ..., 0::2], dense[1, ..., 1::2] = NAN_A, NAN_B
    return g, [TensorTube("z", g, dense)]


def case_plane_over_the_block():
    g = grid_of(3, 20)
    assert 3 * 20 * 20 > dump_text.BLOCK_VALUES
    return g, [TensorTube("s", g, mirror_upper(values((3,) + g.shape, 23), axis=2))]


def case_row_over_the_block():
    g = grid_of(2, 601)
    assert 2 * 601 > dump_text.BLOCK_VALUES
    pairs = values((2, g.shape[0], 301), 24).repeat(2, axis=-1)[..., :601]
    return g, [TensorTube("r", g, pairs)]


def case_repeats_after_the_first_plane():
    g = grid_of(3, (3, 4))
    dense = values((2,) + g.shape, 25)
    dense[:, 1:, :, 1:] = dense[:, 1:, :, :1]
    return g, [TensorTube("a", g, dense)]


def case_repeats_in_the_first_plane_only():
    g = grid_of(3, (3, 4))
    dense = values((2,) + g.shape, 26)
    dense[:, 0] = dense[:, 0, :1, :1]
    return g, [TensorTube("b", g, dense)]


CASES = {
    "n2": case_n2,
    "n3": case_n3,
    "offset-first-and-one-slot": case_offset_and_one_slot,
    "several-tubes": case_several_tubes,
    "restricted-grid": case_restricted,
    "quoted-names": case_quoted_names,
    "scalar-tube": case_scalar_tube,
    "no-tubes": case_no_tubes,
    "constant-components": case_constant_components,
    "one-negative-zero": case_one_negative_zero,
    "mirrored": case_mirrored,
    "shared-component": case_shared_component,
    "nan-payloads": case_nan_payloads,
    "transverse-constant": case_transverse_constant,
    "symmetric-plane": case_symmetric_plane,
    "signed-zeros-and-nans-repeated": case_signed_zeros_and_nans_repeated,
    "plane-over-the-block": case_plane_over_the_block,
    "row-over-the-block": case_row_over_the_block,
    "repeats-after-the-first-plane": case_repeats_after_the_first_plane,
    "repeats-in-the-first-plane-only": case_repeats_in_the_first_plane_only,
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
    curve = Curve(s=s, points=points, velocities=np.zeros_like(points))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curve_dump(got, curve)
    reference_curve_dump(want, curve)
    assert got.read_bytes() == want.read_bytes()


def wide_dump_peak(path, dense):
    """Traced peak bytes of dumping a 3x3 tube on the 33x33x101 lattice."""
    grid = grid_of(3, 33, x1_range=(-0.5, 0.5), h1=0.01)
    assert grid.shape == (101, 33, 33)
    t = TensorTube("g", grid, dense(grid.shape))
    tracemalloc.start()
    try:
        write_tensor_dump(path, grid, [t])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_tensor_dump_streams_one_row_at_a_time(tmp_path):
    """Writing a 3x3 tube on a 33x33x101 lattice allocates well under 0.5 MB.

    One row of the last axis (9 x 33 lines) peaks near 0.1 MB; one x1
    plane per write peaks at 1.8 MB.
    """
    peak = wide_dump_peak(tmp_path / "wide.csv", lambda shape: np.full((3, 3) + shape, 0.1 + 0.2))
    assert peak < 0.5 * 2**20


def test_varying_symmetric_dump_streams_one_row_at_a_time(tmp_path):
    """The same bound for a tube whose components vary over the lattice.

    A constant tube takes only the path of prebuilt lines; here six
    components are formatted at every node and three mirror them.
    """
    peak = wide_dump_peak(
        tmp_path / "wide.csv", lambda shape: mirror_upper(values((3, 3) + shape, 18))
    )
    assert peak < 0.5 * 2**20


def test_repeating_symmetric_dump_streams_one_plane_at_a_time(tmp_path):
    """The same bound where values repeat within each x1 plane.

    As in the wide-dump benchmark op, one component varies, symmetric in
    x2 and x3, so each plane's 1,089 values are turned to text through one
    dict of its 561 bit patterns; the others are constant.
    """

    def dense(shape):
        out = np.full((3, 3) + shape, 0.1 + 0.2)
        out[1, 1] = mirror_upper(values(shape, 27), axis=1)
        return out

    peak = wide_dump_peak(tmp_path / "wide.csv", dense)
    assert peak < 0.5 * 2**20


def formatted(monkeypatch, tmp_path, grid, tubes):
    """The values ``repr`` is called on while ``tubes`` are dumped; the dump
    must match the reference writer's."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return builtins.repr(value)

    for module in (grid_field, dump_text):
        monkeypatch.setattr(module, "repr", counting_repr, raising=False)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_tensor_dump(got, grid, tubes)
    monkeypatch.undo()
    reference_tensor_dump(want, grid, tubes)
    assert got.read_bytes() == want.read_bytes()
    return calls


def test_each_distinct_component_is_formatted_once(monkeypatch, tmp_path):
    """``repr`` runs once per distinct bit pattern of the distinct
    components in a block of x1 planes, once per constant component and
    once per coordinate; nothing else is formatted.

    Of the 9 + 1 components below, 3 are constant, the mirrored slots and
    the second tube's one copy earlier components, and 4 are distinct:
    slots (2,2) and (3,3) differ only in one NaN payload, and slot (1,3)
    is 0.0 but for one -0.0 node.  Slot (1,3) repeats 0.0 in its first x1
    plane, so bit patterns are shared, and the 4 x 48 values of the 4x3x4
    lattice are one block.  Slot (2,2) holds 48 bit patterns, the 8
    SPECIAL values among them; slot (3,3) adds NAN_B; slot (2,3) adds its
    40 values past SPECIAL; slot (1,3) adds 0.0.
    """
    grid = grid_of(3, (3, 4))
    assert 4 * math.prod(grid.shape) <= dump_text.BLOCK_VALUES
    dense = np.zeros((3, 3) + grid.shape)
    dense[0, 0] = 1.0
    dense[0, 1] = -0.0
    dense[1, 1] = values(grid.shape, 19)
    dense[1, 2] = values(grid.shape, 20)
    dense[2, 2] = dense[1, 1]
    dense[1, 1, 1, 2, 3], dense[2, 2, 1, 2, 3] = NAN_A, NAN_B
    dense[0, 2, 2, 1, 0] = -0.0
    tubes = [TensorTube("g", grid, mirror_upper(dense)), TensorTube("h", grid, dense[1, 2][None])]
    calls = formatted(monkeypatch, tmp_path, grid, tubes)
    assert len(calls) == (48 + 1 + 40 + 1) + sum(grid.shape) + 3


def test_values_that_never_repeat_are_each_formatted_once(monkeypatch, tmp_path):
    """With no bit pattern repeated within a component's first x1 plane,
    ``repr`` runs once per node for each distinct component, as many
    times as there are values, although the components share SPECIAL."""
    grid = grid_of(3, (3, 4))
    tubes = [TensorTube("v", grid, np.stack([values(grid.shape, 28), values(grid.shape, 29)]))]
    calls = formatted(monkeypatch, tmp_path, grid, tubes)
    assert len(calls) == 2 * math.prod(grid.shape) + sum(grid.shape)
