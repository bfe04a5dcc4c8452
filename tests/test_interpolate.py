"""``interpolate`` against the one-point interpolation it replaces, bit for bit.

``interpolate`` answers K points at once, shaped (n, K): it locates
each axis with one search over the grid's cached cell edges, gathers
the 2^n corners of every point with one flat index and reduces them
axis by axis, each point taking a node wherever its fraction is 0 or 1.
The reference, ``_replaced_points.reference_interpolate``, answers one
point: the grid axes moved in front of the tensor axes, then one linear
step per axis.  Both must give the same bytes at every point of the
tube, in a batch of one point or of many, and the same OutOfDomain
message outside it.
"""

import numpy as np
import pytest

from _replaced_points import reference_interpolate, reference_locate
from semigeo.errors import OutOfDomain
from semigeo.grid_field import ChartSpec, build_grid, interpolate

# ------------------------------------------------------------------- inputs

GRIDS = {
    2: dict(x1_range=(-0.5, 0.25), h1=0.125, transverse_res=5, transverse_box=((-1.0, 3.0),)),
    3: dict(x1_range=(-0.3, 0.3), h1=0.1, transverse_res=(3, 4)),
    4: dict(x1_range=(0.0, 0.5), h1=0.25, transverse_res=3, transverse_box=((0, 1), (-2, 5), (1, 1.5))),
}


def grid_of(n):
    return build_grid(ChartSpec(n=n, **GRIDS[n]))


def block(grid, slots, seed):
    """Values of many magnitudes; a quarter are -0.0 and a few inf or nan.

    A corner weighted by 0 still shows in the bits there (0 * inf is nan,
    0.0 + -0.0 is 0.0), so skipping a node-aligned axis is observable.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(slots) + grid.shape
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    flat = out.reshape(-1)
    flat[rng.random(flat.size) < 0.25] = -0.0
    flat[rng.integers(flat.size, size=3)] = [np.inf, -np.inf, np.nan]
    return out


def inside_points(grid, seed):
    """Random interior points, nodes, cell faces and points in the 1e-12 pad."""
    rng = np.random.default_rng(seed)
    axes = [grid.axis_coords(a) for a in range(1, grid.n + 1)]
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    pad = 1e-12 * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))
    points = list(lo + (hi - lo) * rng.random((20, grid.n)))
    for k in range(6):
        # a node on every axis, then one axis moved onto a cell face from below
        node = np.array([a[rng.integers(len(a))] for a in axes])
        points.append(node)
        moved = node.copy()
        axis = k % grid.n
        moved[axis] = np.nextafter(axes[axis][1 + k % (len(axes[axis]) - 1)], -np.inf)
        points.append(moved)
        points.append(np.where(rng.random(grid.n) < 0.5, lo, hi))
    points.append(lo - 0.5 * pad)
    points.append(hi + 0.5 * pad)
    points.append(np.where(np.arange(grid.n) % 2 == 0, lo - 0.5 * pad, hi + 0.5 * pad))
    return points


def outside_points(grid):
    axes = [grid.axis_coords(a) for a in range(1, grid.n + 1)]
    mid = np.array([0.5 * (a[0] + a[-1]) for a in axes])
    points = []
    for axis in range(grid.n):
        for x in (axes[axis][0] - 1e-9, axes[axis][-1] + 1.0, np.nan, np.inf):
            p = mid.copy()
            p[axis] = x
            points.append(p)
    points.append(np.full(grid.n, -np.inf))
    return points


SLOTS = {"scalar": (), "vector": (3,), "tensor": (2, 2, 2)}


def same(got, want):
    """A batch of one point's result against the reference's, bytes and shape."""
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape + (1,)
    assert got.tobytes() == want.tobytes()


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("slots", SLOTS.values(), ids=SLOTS.keys())
@pytest.mark.parametrize("n", sorted(GRIDS))
def test_interpolate_matches_moveaxis_reference(n, slots):
    grid = grid_of(n)
    values = block(grid, slots, seed=n)
    # inf - inf and 0 * inf are nan in both, with the same warning
    with np.errstate(invalid="ignore"):
        for point in inside_points(grid, seed=10 + n):
            same(interpolate(values, grid, point[:, None]), reference_interpolate(values, grid, point))


@pytest.mark.parametrize("slots", SLOTS.values(), ids=SLOTS.keys())
@pytest.mark.parametrize("n", sorted(GRIDS))
def test_interpolate_raises_the_reference_message_outside(n, slots):
    grid = grid_of(n)
    values = block(grid, slots, seed=n)
    cases = [(p, p[:, None]) for p in outside_points(grid)]
    cases += [(np.zeros(n + 1), np.zeros((n + 1, 1))), (np.zeros((1, n)), np.zeros((1, n)))]
    for point, batch in cases:
        with pytest.raises(OutOfDomain) as want:
            reference_interpolate(values, grid, point)
        with pytest.raises(OutOfDomain) as got:
            interpolate(values, grid, batch)
        assert str(got.value) == str(want.value)


def test_the_points_reach_every_case():
    """The inputs hit cell faces from both sides, interior cells and the pad."""
    grid = grid_of(3)
    fractions = set()
    for point in inside_points(grid, seed=13):
        for axis in range(1, grid.n + 1):
            _, t = reference_locate(grid.axis_coords(axis), float(point[axis - 1]))
            fractions.add("0" if t == 0.0 else "1" if t == 1.0 else "inside")
    assert fractions == {"0", "1", "inside"}


def test_tensor_result_is_a_new_array():
    grid = grid_of(2)
    values = block(grid, (2,), seed=1)
    node = [[grid.axis_coords(1)[2]], [grid.axis_coords(2)[1]]]
    got = interpolate(values, grid, node)
    got[0, 0] = 7.0
    assert values[0, 2, 1] != 7.0


# ------------------------------------------------------------- K points


@pytest.mark.parametrize("slots", SLOTS.values(), ids=SLOTS.keys())
@pytest.mark.parametrize("n", sorted(GRIDS))
def test_k_points_match_the_reference_point_by_point(n, slots):
    # no errstate here: the batch warns of nothing, not even of the
    # blends that its node-aligned points discard
    grid = grid_of(n)
    values = block(grid, slots, seed=n)
    points = inside_points(grid, seed=10 + n)
    got = interpolate(values, grid, np.array(points).T)
    assert got.shape == slots + (len(points),)
    with np.errstate(invalid="ignore"):
        for k, point in enumerate(points):
            want = np.asarray(reference_interpolate(values, grid, point), dtype=np.float64)
            assert got[..., k].tobytes() == want.tobytes()


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_one_point_and_no_points_as_batches(n):
    grid = grid_of(n)
    values = block(grid, (2, 3), seed=n)
    point = inside_points(grid, seed=n)[0]
    one = interpolate(values, grid, point[:, None])
    assert one.shape == (2, 3, 1)
    with np.errstate(invalid="ignore"):
        assert one[..., 0].tobytes() == reference_interpolate(values, grid, point).tobytes()
    assert interpolate(values, grid, np.empty((n, 0))).shape == (2, 3, 0)
    # a point is a batch of one: shaped (n,), it is no batch
    with pytest.raises(OutOfDomain, match=f"point must have {n} coordinates"):
        interpolate(values, grid, point)


@pytest.mark.parametrize("slots", SLOTS.values(), ids=SLOTS.keys())
@pytest.mark.parametrize("n", sorted(GRIDS))
def test_k_points_name_the_first_point_outside(n, slots):
    grid = grid_of(n)
    values = block(grid, slots, seed=n)
    inside = inside_points(grid, seed=20 + n)[:4]
    later = outside_points(grid)[-1]
    for bad in outside_points(grid):
        with pytest.raises(OutOfDomain) as want:
            reference_interpolate(values, grid, bad)
        for at in (0, 2, 4):
            batch = np.array(inside[:at] + [bad] + inside[at:] + [later]).T
            with pytest.raises(OutOfDomain) as got:
                interpolate(values, grid, batch)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 4), ()], ids=["3-d", "n+1-rows", "0-d"])
def test_k_points_need_n_rows(shape):
    grid = grid_of(2)
    with pytest.raises(OutOfDomain, match="point must have 2 coordinates"):
        interpolate(block(grid, (), seed=1), grid, np.zeros(shape))


def test_an_axis_of_one_node_takes_its_node():
    """A reached grid of the x1 = 0 plane alone reads that plane."""
    grid = grid_of(3)
    k0 = grid.zero_index
    plane = grid.restrict_x1(k0, k0)
    values = block(grid, (2,), seed=5)
    points = [p for p in inside_points(grid, seed=6)]
    for p in points:
        p[0] = 0.0
    got = interpolate(values[:, k0 : k0 + 1], plane, np.array(points).T)
    with np.errstate(invalid="ignore"):
        for k, point in enumerate(points):
            assert got[:, k].tobytes() == reference_interpolate(values, grid, point).tobytes()
    with pytest.raises(OutOfDomain, match=r"coordinate 0\.01 outside \[0\.0, 0\.0\]"):
        interpolate(values[:, k0 : k0 + 1], plane, (points[0] + [0.01, 0.0, 0.0])[:, None])
