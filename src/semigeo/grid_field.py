"""Tube grids, dense tensor tubes, fields, finite differences, dumps.

The computational domain is a tube: an x1 interval containing 0 (the
hypersurface S sits at x1 = 0) times a closed box in the transverse
coordinates x2..xn.  All lattices are uniform per axis.  Finite
differences are second order everywhere: central stencils in the
interior, 3-point one-sided stencils at boundary nodes (so the x1
derivative at the lower end of a one-sided tube is the right
derivative).

Every tensor on the tube (metric, connection, curvature and their
parts) is a TensorTube: one dense array with the tensor slots leading
and the grid axes trailing, which the dump writer reads directly.
Every input family's index layout is one row of FAMILIES, and
``Components.dense`` builds every dense input array from it.
"""

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, GridTooCoarse, InvalidInit, InvalidSpec, OutOfDomain
from .expr import FieldExpr, eval_field, eval_field_on, parse_field, variables


# -------------------------------------------------------------------- chart


@dataclass(frozen=True)
class ChartSpec:
    """Geometry of the coordinate tube.

    Attributes
    ----------
    n : int
        Manifold dimension, n >= 2.  Coordinate 1 is the axial direction.
    x1_range : (float, float)
        Axial interval, finite; must contain 0.
    h1 : float
        Axial step, finite and > 0.  Axial samples are the multiples of h1 inside
        the range (0 is always one of them).
    transverse_box : tuple of (float, float)
        Finite per-axis intervals for x2..xn; defaults to (0, 1) each.
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
        if not -np.inf < lo <= 0.0 <= hi < np.inf:
            raise InvalidSpec(f"x1 range must be finite and contain 0, got [{lo}, {hi}]")
        object.__setattr__(self, "x1_range", (lo, hi))
        if not 0.0 < float(self.h1) < np.inf:
            raise InvalidSpec(f"h1 must be positive and finite, got {self.h1!r}")
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
            if not -np.inf < a < b < np.inf:
                raise InvalidSpec(f"transverse interval [{a}, {b}] is empty or not finite")
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


class TensorTube:
    """Tensor components on every grid node, held in one dense array.

    ``dense`` has one leading axis per tensor slot followed by
    ``grid.shape``.  ``first`` gives the 1-based index of the first entry
    on each slot axis (default all 1), so slot p covers ``first[p]`` to
    ``first[p] + dense.shape[p] - 1``; every slot must stay within 1..n.
    Symmetries are properties of the array: symmetric slots hold equal
    values, so mirrored components dump identical bytes.  Subclasses set
    ``rank`` to require a full (n, ..., n) block of that many slots.
    """

    rank = None

    def __init__(self, name, grid, dense, first=None):
        dense = np.asarray(dense, dtype=np.float64)
        k = dense.ndim - grid.n
        first = (1,) * k if first is None else tuple(int(f) for f in first)
        slots = dense.shape[: max(k, 0)]
        fits = (
            k >= 0
            and dense.shape[k:] == grid.shape
            and len(first) == k
            and all(1 <= f and f + m - 1 <= grid.n for f, m in zip(first, slots))
            and (self.rank is None or slots == (grid.n,) * self.rank)
        )
        if not fits:
            raise InvalidSpec(
                f"{name}: dense shape {dense.shape} with first index {first} "
                f"does not fit grid {grid.shape}"
            )
        self.name = name
        self.grid = grid
        self.dense = dense
        self.first = first

    @property
    def n(self):
        return self.grid.n

    def component(self, *idx):
        """Node values of one component, by 1-based slot indices."""
        pos = tuple(int(i) - f for i, f in zip(idx, self.first))
        if len(idx) != len(self.first) or any(
            not 0 <= p < m for p, m in zip(pos, self.dense.shape)
        ):
            raise InvalidSpec(f"{self.name}: index {idx} out of range")
        return self.dense[pos]

    def max_abs(self):
        return float(np.max(np.abs(self.dense), initial=0.0))


# ------------------------------------------------------------- scalar fields


def _eval_labelled(expr, coords, label):
    """eval_field_on with ``label`` prefixed to any EvalError message."""
    try:
        return eval_field_on(expr, coords)
    except EvalError as err:
        raise EvalError(f"{label}: {err}") from err


class ExpressionField:
    """Scalar field backed by a parsed expression over x1..xn.

    ``what`` names the field in evaluation errors, followed by the x1
    position when one plane fails.
    """

    def __init__(self, expr, n, what="expression"):
        self.expr = expr
        self.n = n
        self.what = what

    def at(self, point):
        return eval_field(self.expr, point)

    def on_transverse(self, x1, grid):
        """Values over all transverse nodes (flattened) at axial position x1."""
        mesh = grid.transverse_mesh()
        label = f"{self.what} at x1 = {float(x1)!r}"
        out = _eval_labelled(self.expr, (np.float64(x1),) + mesh, label)
        return np.broadcast_to(out, mesh[0].shape).astype(np.float64, copy=False)

    def on_grid(self, grid):
        x1 = grid.x1_samples.reshape((-1,) + (1,) * (grid.n - 1))
        mesh = np.meshgrid(*grid.transverse_axes, indexing="ij")
        coords = (x1,) + tuple(m[np.newaxis] for m in mesh)
        out = _eval_labelled(self.expr, coords, self.what)
        return np.broadcast_to(out, grid.shape).astype(np.float64, copy=False)


class SampledField:
    """Scalar field given by node samples, multilinear between nodes.

    ``on_transverse`` interpolates linearly between x1 planes, so the RK4
    stage planes at half steps are second-order values: a march driven by
    sampled sources converges at second order in h1, not fourth.  On the
    sphere metric (a = -cos(x1)^2, h1 = 0.02, 0.01, 0.005) the
    expression source gave errors of 3.6e-9, 2.2e-10, 1.3e-11 and the
    sampled source 2.9e-5, 7.3e-6, 1.8e-6.
    """

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
    through.  Anything else raises InvalidSpec prefixed with ``what``, and
    an expression built here names ``what`` in its evaluation errors.
    """
    if isinstance(value, str):
        value = parse_field(value, n)
    if isinstance(value, FieldExpr):
        return ExpressionField(value, n, what)
    if isinstance(value, (ExpressionField, SampledField)):
        return value
    raise InvalidSpec(f"{what}: cannot interpret {value!r} as a scalar field")


class TransverseField:
    """Scalar data on the hypersurface: expression in x2..xn or node samples.

    ``what`` prefixes validation and evaluation errors.
    """

    def __init__(self, value, n, what):
        self.n = n
        self.what = what
        if isinstance(value, str):
            value = parse_field(value, n)
        if isinstance(value, ExpressionField):
            value = value.expr
        if isinstance(value, FieldExpr):
            try:
                uses_x1 = 1 in variables(value)
            except EvalError as err:
                raise EvalError(f"{what}: {err}") from err
            if uses_x1:
                raise InvalidInit(f"{what}: hypersurface data may not depend on x1")
            self.expr = value
            self.samples = None
        else:
            self.expr = None
            self.samples = np.asarray(value, dtype=np.float64)

    def plane(self, grid):
        """Values over the flattened transverse lattice."""
        if self.expr is not None:
            return ExpressionField(self.expr, self.n, self.what).on_transverse(0.0, grid)
        if self.samples.shape != grid.transverse_shape:
            raise InvalidInit(
                f"sampled hypersurface data shape {self.samples.shape} does not "
                f"match the transverse lattice {grid.transverse_shape}"
            )
        return self.samples.reshape(-1)


# ---------------------------------------------------------- tensor families


@dataclass(frozen=True)
class Family:
    """Index layout of one tensor family.

    ``first`` is the lowest 1-based index of each slot (the highest is
    n); ``sym`` is the symmetric slot pair or None; ``hypersurface``
    families hold TransverseField data on x1 = 0, the others tube fields
    (``as_field``); ``error`` is the exception their index errors raise.
    """

    first: tuple
    sym: tuple = None
    hypersurface: bool = False
    error: type = InvalidSpec

    def orderings(self, idx):
        """``idx`` and its mirror under the symmetric pair, sorted, once each."""
        idx = tuple(idx)
        if self.sym is None:
            return [idx]
        a, b = self.sym
        return sorted({idx, idx[:a] + (idx[b],) + idx[a + 1 : b] + (idx[a],) + idx[b + 1 :]})

    def canonical(self, idx):
        """The stored ordering: the symmetric pair ascending."""
        return self.orderings(idx)[0]

    def slots(self, n):
        """Every canonical index tuple for dimension n, lexicographically."""
        boxes = itertools.product(*(range(f, n + 1) for f in self.first))
        return [idx for idx in boxes if self.canonical(idx) == idx]


FAMILIES = {
    "g": Family((1, 1), (0, 1)),
    "gtilde": Family((2, 2), (0, 1), True, InvalidInit),
    "Gtilde": Family((2, 2), (0, 1), True, InvalidInit),
    "a": Family((2, 2), (0, 1), error=InvalidInit),
    "gamma": Family((1, 1, 1), (1, 2)),
    "gammatilde": Family((1, 1, 1), (1, 2), True, InvalidInit),
    "A": Family((1, 1, 2)),
}


class Components:
    """The given components of one FAMILIES entry, keyed canonically.

    ``values`` maps 1-based index tuples to field values.  Out-of-range
    indices and a symmetric component given in both orderings raise the
    family's exception; each value becomes a field labelled
    ``f"{family}{key}"``.  Components not given are 0.
    """

    def __init__(self, family, n, values):
        fam = FAMILIES[family]
        wrap = TransverseField if fam.hypersurface else as_field
        fields = {}
        for idx, value in (values or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(fam.first) or not all(f <= i <= n for f, i in zip(fam.first, idx)):
                ranges = ", ".join(f"{f}..{n}" for f in fam.first)
                raise fam.error(f"{family} index {idx} outside {ranges}")
            key = fam.canonical(idx)
            if key in fields:
                raise fam.error(f"{family}{key} given in both orderings")
            fields[key] = wrap(value, n, f"{family}{key}")
        self.layout = fam
        self.n = n
        self.fields = dict(sorted(fields.items()))

    def dense(self, trailing, values_of, lo=None, hi=None):
        """Components over the index box ``lo``..``hi`` as one array.

        The box defaults to ``first``..n per slot; the array has one axis
        per slot (entry 0 is index ``lo``), then ``trailing``.
        ``values_of(field)`` is called once per given component with an
        ordering inside the box, in index order, and its values are
        written to every such ordering.
        """
        lo = self.layout.first if lo is None else tuple(lo)
        hi = (self.n,) * len(lo) if hi is None else tuple(hi)
        out = np.zeros(tuple(b - a + 1 for a, b in zip(lo, hi)) + tuple(trailing))
        for key, fld in self.fields.items():
            inside = [
                tuple(i - a for i, a in zip(idx, lo))
                for idx in self.layout.orderings(key)
                if all(a <= i <= b for a, i, b in zip(lo, idx, hi))
            ]
            if inside:
                values = values_of(fld)
                for pos in inside:
                    out[pos] = values
        return out


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
