"""Tube grids, tensor storage, finite differences, interpolation, dumps.

The computational domain is a tube: an x1 interval containing 0 (the
hypersurface S sits at x1 = 0) times a closed box in the transverse
coordinates x2..xn.  All lattices are uniform per axis.  Finite
differences are second order everywhere: central stencils in the
interior, 3-point one-sided stencils at boundary nodes (so the x1
derivative at the lower end of a one-sided tube is the right
derivative).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, InvalidSpec, OutOfDomain
from .expr import FieldExpr, eval_field, eval_field_on, parse_field


# -------------------------------------------------------------------- chart


@dataclass(frozen=True)
class ChartSpec:
    """Geometry of the coordinate tube.

    Attributes
    ----------
    n : int
        Manifold dimension, n >= 2.  Coordinate 1 is the axial direction.
    x1_range : (float, float)
        Axial interval; must contain 0.
    h1 : float
        Axial step, > 0.  Axial samples are the multiples of h1 inside
        the range (0 is always one of them).
    transverse_box : tuple of (float, float)
        Per-axis intervals for x2..xn; defaults to (0, 1) each.
    transverse_res : int or tuple of int
        Nodes per transverse axis, >= 3 each.
    e : int
        Sign of g(d1, d1) for semigeodesic metrics, +1 or -1.
    """

    n: int
    x1_range: tuple
    h1: float
    transverse_box: tuple = None
    transverse_res: object = 33
    e: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidSpec(f"dimension must be an integer >= 2, got {self.n!r}")
        lo, hi = (float(self.x1_range[0]), float(self.x1_range[1]))
        if not (lo <= 0.0 <= hi) or lo > hi:
            raise InvalidSpec(f"x1 range must contain 0, got [{lo}, {hi}]")
        object.__setattr__(self, "x1_range", (lo, hi))
        if not (float(self.h1) > 0.0):
            raise InvalidSpec(f"h1 must be positive, got {self.h1!r}")
        object.__setattr__(self, "h1", float(self.h1))
        box = self.transverse_box
        if box is None:
            box = tuple((0.0, 1.0) for _ in range(self.n - 1))
        box = tuple((float(a), float(b)) for a, b in box)
        if len(box) != self.n - 1:
            raise InvalidSpec(
                f"transverse_box needs {self.n - 1} intervals, got {len(box)}"
            )
        for a, b in box:
            if not a < b:
                raise InvalidSpec(f"empty transverse interval [{a}, {b}]")
        object.__setattr__(self, "transverse_box", box)
        res = self.transverse_res
        if isinstance(res, int):
            res = (res,) * (self.n - 1)
        res = tuple(int(r) for r in res)
        if len(res) != self.n - 1 or any(r < 3 for r in res):
            raise InvalidSpec(
                f"transverse_res needs {self.n - 1} entries, each >= 3, got {res!r}"
            )
        object.__setattr__(self, "transverse_res", res)
        if self.e not in (-1, 1):
            raise InvalidSpec(f"e must be +1 or -1, got {self.e!r}")


@dataclass(frozen=True, eq=False)
class TubeGrid:
    """Realized lattice for a ChartSpec.

    ``x1_samples`` are strictly increasing multiples of h1 and contain 0;
    ``transverse_axes`` hold the per-axis node coordinates.
    """

    chart: ChartSpec
    x1_samples: np.ndarray
    transverse_axes: tuple
    _mesh_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self):
        return self.chart.n

    @property
    def shape(self):
        return (len(self.x1_samples),) + tuple(len(a) for a in self.transverse_axes)

    @property
    def transverse_shape(self):
        return tuple(len(a) for a in self.transverse_axes)

    @property
    def zero_index(self):
        """Index of x1 = 0 in x1_samples."""
        k = int(np.searchsorted(self.x1_samples, 0.0))
        if k >= len(self.x1_samples) or self.x1_samples[k] != 0.0:
            raise InvalidSpec("x1 samples do not contain 0")
        return k

    def axis_coords(self, axis):
        """Node coordinates along ``axis`` (1-based)."""
        if axis == 1:
            return self.x1_samples
        return self.transverse_axes[axis - 2]

    def spacing(self, axis):
        coords = self.axis_coords(axis)
        if len(coords) < 2:
            raise GridTooCoarse(f"axis {axis} has fewer than 2 nodes")
        return float(coords[1] - coords[0])

    def transverse_mesh(self):
        """Flattened transverse coordinate arrays, one of length N per axis."""
        if "flat" not in self._mesh_cache:
            grids = np.meshgrid(*self.transverse_axes, indexing="ij")
            self._mesh_cache["flat"] = tuple(g.reshape(-1) for g in grids)
        return self._mesh_cache["flat"]

    def contains(self, point, tol=1e-12):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            return False
        for axis in range(1, self.n + 1):
            coords = self.axis_coords(axis)
            lo, hi = float(coords[0]), float(coords[-1])
            pad = tol * max(1.0, abs(lo), abs(hi))
            if not (lo - pad <= point[axis - 1] <= hi + pad):
                return False
        return True

    def restrict_x1(self, i_lo, i_hi):
        """Sub-grid keeping x1 sample indices i_lo..i_hi inclusive."""
        return TubeGrid(self.chart, self.x1_samples[i_lo : i_hi + 1], self.transverse_axes)

    def subsample(self, stride=2):
        """Coarsen every axis by ``stride``, keeping x1=0 and the box corners.

        Requires (len-1) divisible by stride on each axis and the zero
        index divisible by stride on the x1 axis.
        """
        k0 = self.zero_index
        t = len(self.x1_samples)
        if k0 % stride or (t - 1 - k0) % stride:
            raise InvalidSpec("x1 sample count does not subsample evenly")
        for a in self.transverse_axes:
            if (len(a) - 1) % stride:
                raise InvalidSpec("transverse resolution does not subsample evenly")
        return TubeGrid(
            self.chart,
            self.x1_samples[::stride],
            tuple(a[::stride] for a in self.transverse_axes),
        )


def build_grid(spec):
    """Lattice covering the chart: x1 multiples of h1 in range, plus box nodes."""
    lo, hi = spec.x1_range
    eps = 1e-9
    kmin = int(np.ceil(lo / spec.h1 - eps))
    kmax = int(np.floor(hi / spec.h1 + eps))
    x1 = np.arange(kmin, kmax + 1, dtype=np.float64) * spec.h1
    axes = tuple(
        np.linspace(a, b, r)
        for (a, b), r in zip(spec.transverse_box, spec.transverse_res)
    )
    return TubeGrid(spec, x1, axes)


# --------------------------------------------------------- finite differences


def _fd1(values, axis0, h):
    # difference-form stencils: constants differentiate to exactly zero
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis0] < 3:
        raise GridTooCoarse("first derivative needs at least 3 nodes along the axis")
    v = np.moveaxis(values, axis0, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) / (2.0 * h)
    out[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / (2.0 * h)
    return np.moveaxis(out, 0, axis0)


def _fd2(values, axis0, h):
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[axis0]
    if m < 4:
        raise GridTooCoarse("second derivative needs at least 4 nodes along the axis")
    v = np.moveaxis(values, axis0, 0)
    out = np.empty_like(v)
    out[1:-1] = ((v[:-2] - v[1:-1]) + (v[2:] - v[1:-1])) / (h * h)
    out[0] = (2.0 * (v[0] - v[1]) - 3.0 * (v[1] - v[2]) + (v[2] - v[3])) / (h * h)
    out[-1] = (2.0 * (v[-1] - v[-2]) - 3.0 * (v[-2] - v[-3]) + (v[-3] - v[-4])) / (h * h)
    return np.moveaxis(out, 0, axis0)


def _grid_axis0(values, axis, grid):
    """Array axis for coordinate ``axis`` when grid axes trail tensor axes."""
    values = np.asarray(values, dtype=np.float64)
    if not 1 <= axis <= grid.n:
        raise InvalidSpec(f"axis must be in 1..{grid.n}, got {axis}")
    if values.shape[-grid.n :] != grid.shape:
        raise InvalidSpec(
            f"trailing shape {values.shape[-grid.n:]} does not match grid {grid.shape}"
        )
    return values, values.ndim - grid.n + (axis - 1)


def fd_partial(values, axis, grid):
    """Second-order partial derivative along ``axis`` (1-based) on the grid.

    ``values`` may carry leading tensor axes; the trailing axes must match
    the grid.  Central differences at interior nodes, 3-point one-sided at
    the two boundary nodes; at the lower x1 end this is the right
    derivative.
    """
    values, axis0 = _grid_axis0(values, axis, grid)
    return _fd1(values, axis0, grid.spacing(axis))


def fd_second(values, axis, grid):
    """Second-order second derivative along ``axis`` (dedicated stencils).

    Interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2.  Boundaries use the
    4-point one-sided stencil, also second order.
    """
    values, axis0 = _grid_axis0(values, axis, grid)
    return _fd2(values, axis0, grid.spacing(axis))


def fd_transverse(values, axis, grid):
    """Transverse partial derivative on a single axial plane.

    ``values`` has leading tensor axes and trailing transverse axes (no
    x1 axis); ``axis`` is the coordinate index, 2..n.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 2 <= axis <= grid.n:
        raise InvalidSpec(f"transverse axis must be in 2..{grid.n}, got {axis}")
    tshape = grid.transverse_shape
    if values.shape[-len(tshape) :] != tshape:
        raise InvalidSpec(
            f"trailing shape {values.shape[-len(tshape):]} does not match "
            f"transverse lattice {tshape}"
        )
    axis0 = values.ndim - len(tshape) + (axis - 2)
    return _fd1(values, axis0, grid.spacing(axis))


# --------------------------------------------------------------- interpolate


def _locate(coords, x):
    """Cell index and fraction for query x on a sorted uniform axis."""
    lo, hi = float(coords[0]), float(coords[-1])
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - pad <= x <= hi + pad):
        raise OutOfDomain(f"coordinate {x} outside [{lo}, {hi}]")
    x = min(max(x, lo), hi)
    i = int(np.searchsorted(coords, x, side="right")) - 1
    i = min(max(i, 0), len(coords) - 2)
    t = (x - coords[i]) / (coords[i + 1] - coords[i])
    return i, float(min(max(t, 0.0), 1.0))


def interpolate(values, grid, point):
    """Multilinear interpolation of node values at an interior point.

    Exact at nodes; within a cell the result is a convex combination of
    the 2^n corner values, so it never leaves their range.
    """
    values = np.asarray(values, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (grid.n,):
        raise OutOfDomain(f"point must have {grid.n} coordinates")
    out = values
    for axis in range(1, grid.n + 1):
        coords = grid.axis_coords(axis)
        i, t = _locate(coords, float(point[axis - 1]))
        if t == 0.0:
            out = out[i]
        elif t == 1.0:
            out = out[i + 1]
        else:
            out = out[i] * (1.0 - t) + out[i + 1] * t
    return float(out)


# -------------------------------------------------------------- tensor tubes


def _canonicalize(idx, sym_groups):
    idx = list(idx)
    for group in sym_groups:
        vals = sorted(idx[p] for p in group)
        for p, v in zip(sorted(group), vals):
            idx[p] = v
    return tuple(idx)


class TensorTube:
    """Tensor component values on every grid node.

    ``index_ranges`` is a tuple of (lo, hi) inclusive 1-based bounds, one
    per tensor slot; ``roles`` marks each slot 'upper' or 'lower'
    (informational).  ``sym_pairs`` lists 0-based slot position pairs that
    are symmetric: symmetric components share one storage slot, so the
    declared symmetry holds exactly by construction.
    """

    def __init__(self, name, grid, index_ranges, roles=None, sym_pairs=()):
        self.name = name
        self.grid = grid
        self.index_ranges = tuple((int(a), int(b)) for a, b in index_ranges)
        self.roles = tuple(roles) if roles else ("lower",) * len(self.index_ranges)
        # merge overlapping pairs into groups so canonicalization is stable
        groups = []
        for a, b in sym_pairs:
            placed = None
            for g in groups:
                if a in g or b in g:
                    g.update((a, b))
                    placed = g
            if placed is None:
                groups.append({a, b})
        self.sym_groups = tuple(frozenset(g) for g in groups)
        self._data = {}

    def canonical(self, idx):
        idx = tuple(int(i) for i in idx)
        if len(idx) != len(self.index_ranges):
            raise InvalidSpec(f"{self.name}: index {idx} has wrong arity")
        for v, (a, b) in zip(idx, self.index_ranges):
            if not a <= v <= b:
                raise InvalidSpec(f"{self.name}: index {idx} outside ranges")
        return _canonicalize(idx, self.sym_groups)

    def set_component(self, idx, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise InvalidSpec(
                f"{self.name}{idx}: values shape {values.shape} != grid {self.grid.shape}"
            )
        self._data[self.canonical(idx)] = values

    def component(self, idx):
        key = self.canonical(idx)
        if key not in self._data:
            return np.zeros(self.grid.shape)
        return self._data[key]

    def all_indices(self):
        """Every full index tuple in range, lexicographic."""
        ranges = [range(a, b + 1) for a, b in self.index_ranges]
        out = [()]
        for r in ranges:
            out = [t + (v,) for t in out for v in r]
        return out

    def max_abs(self):
        if not self._data:
            return 0.0
        return float(max(np.max(np.abs(v)) for v in self._data.values()))


# ------------------------------------------------------------- scalar fields


class ExpressionField:
    """Scalar field backed by a parsed expression over x1..xn."""

    def __init__(self, expr, n):
        self.expr = expr
        self.n = n

    def at(self, point):
        return eval_field(self.expr, point)

    def on_transverse(self, x1, grid):
        """Values over all transverse nodes (flattened) at axial position x1."""
        mesh = grid.transverse_mesh()
        out = eval_field_on(self.expr, (np.float64(x1),) + mesh)
        return np.broadcast_to(out, mesh[0].shape).astype(np.float64, copy=False)

    def on_grid(self, grid):
        x1 = grid.x1_samples.reshape((-1,) + (1,) * (grid.n - 1))
        mesh = np.meshgrid(*grid.transverse_axes, indexing="ij")
        coords = (x1,) + tuple(m[np.newaxis] for m in mesh)
        out = eval_field_on(self.expr, coords)
        return np.broadcast_to(out, grid.shape).astype(np.float64, copy=False)


class SampledField:
    """Scalar field given by node samples, multilinear between nodes."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise InvalidSpec(f"sample shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values

    def at(self, point):
        return interpolate(self.values, self.grid, point)

    def on_transverse(self, x1, grid):
        if grid.transverse_shape != self.grid.transverse_shape:
            raise InvalidSpec("sampled field queried on a different transverse lattice")
        coords = self.grid.x1_samples
        i, t = _locate(coords, float(x1))
        if t == 0.0:
            plane = self.values[i]
        elif t == 1.0:
            plane = self.values[i + 1]
        else:
            plane = self.values[i] * (1.0 - t) + self.values[i + 1] * t
        return plane.reshape(-1)

    def on_grid(self, grid):
        if grid.shape != self.grid.shape:
            raise InvalidSpec("sampled field queried on a different grid")
        return self.values


def as_field(value, n, what):
    """Coerce an expression string, FieldExpr or field object to a field.

    Strings are parsed over x1..xn; ExpressionField and SampledField pass
    through.  Anything else raises InvalidSpec prefixed with ``what``.
    """
    if isinstance(value, str):
        value = parse_field(value, n)
    if isinstance(value, FieldExpr):
        return ExpressionField(value, n)
    if isinstance(value, (ExpressionField, SampledField)):
        return value
    raise InvalidSpec(f"{what}: cannot interpret {value!r} as a scalar field")


# -------------------------------------------------------------------- dumps


def write_tensor_dump(path, grid, tubes):
    """Delimited text dump: header, one row per (node, component).

    Columns: x1..xn, tensor, indices ("h,i,j" style), value.  Values use
    repr, which round-trips float64 exactly.  Row order is fixed: nodes in
    lexicographic grid order, then tensors in the given order, then full
    index tuples lexicographically, so identical inputs give identical
    bytes.
    """
    tubes = list(tubes)
    n = grid.n
    axes = [grid.axis_coords(a) for a in range(1, n + 1)]
    per_tube = [
        [(idx, tube.component(idx)) for idx in tube.all_indices()] for tube in tubes
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k}" for k in range(1, n + 1)] + ["tensor", "indices", "value"])
        for node in np.ndindex(grid.shape):
            coords = [repr(float(axes[a][node[a]])) for a in range(n)]
            for tube, comps in zip(tubes, per_tube):
                for idx, values in comps:
                    writer.writerow(
                        coords
                        + [tube.name, ",".join(str(i) for i in idx), repr(float(values[node]))]
                    )


def read_tensor_dump(path):
    """Read a dump back: (coordinate axes, {tensor: {indices: ndarray}}).

    Intended for round-trip verification of the dump format.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = header.index("tensor")
        rows = list(reader)
    coords = [sorted({float(r[a]) for r in rows}) for a in range(n)]
    axis_index = [{v: i for i, v in enumerate(c)} for c in coords]
    shape = tuple(len(c) for c in coords)
    tensors = {}
    for r in rows:
        node = tuple(axis_index[a][float(r[a])] for a in range(n))
        idx = tuple(int(s) for s in r[n + 1].split(","))
        store = tensors.setdefault(r[n], {}).setdefault(idx, np.zeros(shape))
        store[node] = float(r[n + 2])
    axes = [np.asarray(c) for c in coords]
    return axes, tensors


def write_curve_dump(path, curve):
    """Delimited curve dump: header, rows s, x1..xn."""
    n = curve.points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"x{k}" for k in range(1, n + 1)])
        for s, p in zip(curve.s, curve.points):
            writer.writerow([repr(float(s))] + [repr(float(c)) for c in p])
