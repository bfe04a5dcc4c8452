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
Every input family's index layout is one row of FAMILIES.  An input
field is read one way only, ``on_planes(xs, grid)``: its values at each
x1 of ``xs`` over the flattened transverse lattice.  ``Components.dense``
makes every such read and builds every dense input array from it: the
source planes a march reads, the data on the hypersurface x1 = 0, and
a field over the whole lattice.
"""

import bisect
import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, GridTooCoarse, InvalidInit, InvalidSpec, OutOfDomain
from .expr import FieldExpr, eval_field_on, parse_field, variables


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

    def coord_lists(self):
        """Every axis's node coordinates (``axis_coords``) as Python floats."""
        if "lists" not in self._mesh_cache:
            axes = [self.axis_coords(axis) for axis in range(1, self.n + 1)]
            self._mesh_cache["lists"] = tuple(a.tolist() for a in axes)
        return self._mesh_cache["lists"]

    def contains(self, point):
        point = np.asarray(point, dtype=float)
        return point.shape == (self.n,) and all(
            _in_range(self.axis_coords(axis), point[axis - 1]) for axis in range(1, self.n + 1)
        )

    def restrict_x1(self, i_lo, i_hi):
        """Sub-grid keeping x1 sample indices i_lo..i_hi inclusive."""
        return TubeGrid(self.chart, self.x1_samples[i_lo : i_hi + 1], self.transverse_axes)


# Largest tensor tube, in bytes, a chart may ask for.  The (1,3) curvature,
# n^4 slots of float64 over the lattice, is the largest block any mode
# holds, so a chart whose n^4 x nodes x 8 bytes exceed this is rejected
# before anything is allocated on it.
LATTICE_BYTES = 16 * 2**30


def build_grid(spec):
    """Lattice covering the chart: x1 multiples of h1 in range, plus box nodes.

    Raises InvalidSpec naming the axis and its sample count when an axis
    has more samples than numpy can index or than memory can hold, and
    naming the lattice when its n^4-slot tube exceeds LATTICE_BYTES.
    """
    lo, hi = spec.x1_range
    eps = 1e-9
    kmin = np.ceil(lo / spec.h1 - eps)
    kmax = np.floor(hi / spec.h1 + eps)
    x1 = _axis_nodes(
        1,
        kmax - kmin + 1,
        lambda m: np.arange(int(kmin), int(kmin) + m, dtype=np.float64) * spec.h1,
    )
    axes = tuple(
        _axis_nodes(axis, r, functools.partial(np.linspace, a, b))
        for axis, ((a, b), r) in enumerate(
            zip(spec.transverse_box, spec.transverse_res), start=2
        )
    )
    grid = TubeGrid(spec, x1, axes)
    need = spec.n**4 * math.prod(grid.shape) * 8
    if need > LATTICE_BYTES:
        raise InvalidSpec(
            f"the {' x '.join(map(str, grid.shape))} lattice needs {need / 2**30:.3g} GiB "
            f"for an n^4-slot tensor tube, above the {LATTICE_BYTES // 2**30} GiB limit"
        )
    return grid


def _axis_nodes(axis, count, make):
    """``make(count)`` as the node array of ``axis``; InvalidSpec if it cannot be built."""
    if count <= np.iinfo(np.intp).max:
        try:
            return make(int(count))
        except MemoryError:
            pass
    raise InvalidSpec(
        f"axis {axis} needs {float(count):.6g} samples; its lattice cannot be allocated"
    )


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


def _in_range(coords, x):
    """Whether x lies on the axis, padded by 1e-12 of the axis scale."""
    lo, hi = float(coords[0]), float(coords[-1])
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    return lo - pad <= x <= hi + pad


def _locate(coords, x):
    """Cell index and fraction for query x on a sorted uniform axis (a list)."""
    lo, hi = coords[0], coords[-1]
    if not _in_range(coords, x):
        raise OutOfDomain(f"coordinate {x} outside [{lo}, {hi}]")
    x = min(max(x, lo), hi)
    i = bisect.bisect_right(coords, x) - 1
    i = min(max(i, 0), len(coords) - 2)
    t = (x - coords[i]) / (coords[i + 1] - coords[i])
    return i, min(max(t, 0.0), 1.0)


def _lerp(planes, coords, x):
    """Linear step: the leading axis of ``planes``, sampled on ``coords``, at x."""
    i, t = _locate(coords, x)
    if t == 0.0:
        return planes[i]
    if t == 1.0:
        return planes[i + 1]
    return planes[i] * (1.0 - t) + planes[i + 1] * t


def interpolate(values, grid, point):
    """Multilinear interpolation of node values at a point of the tube.

    ``values`` may carry leading tensor axes before ``grid.shape``: the
    cell is found once per axis and the whole block is interpolated, each
    entry with the same arithmetic as on its own.  Returns a float for a
    scalar field, else a new array of the tensor shape.  Exact at nodes;
    within a cell each entry is a convex combination of its 2^n corner
    values, so it never leaves their range.  Raises OutOfDomain outside
    the tube.
    """
    values = np.asarray(values, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (grid.n,):
        raise OutOfDomain(f"point must have {grid.n} coordinates")
    # the corner block: one node on an axis the point lies on, two otherwise
    corner = [Ellipsis]
    fractions = []
    for coords, x in zip(grid.coord_lists(), point.tolist()):
        i, t = _locate(coords, x)
        if t == 0.0:
            corner.append(i)
        elif t == 1.0:
            corner.append(i + 1)
        else:
            corner.append(slice(i, i + 2))
            fractions.append(t)
    out = values[tuple(corner)]
    # the block's cell axes trail in axis order: reduce the first of them
    for k, t in enumerate(fractions):
        rest = (slice(None),) * (len(fractions) - 1 - k)
        out = out[(Ellipsis, 0) + rest] * (1.0 - t) + out[(Ellipsis, 1) + rest] * t
    return float(out) if values.ndim == grid.n else np.array(out)


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

    def at(self, point):
        """Every component at one point of the tube (``interpolate``)."""
        return interpolate(self.dense, self.grid, point)

    def max_abs(self):
        return float(np.max(np.abs(self.dense), initial=0.0))


# ------------------------------------------------------------- scalar fields


class ExpressionField:
    """Scalar field backed by a parsed expression over x1..xn.

    ``what`` names the field in evaluation errors, followed by the x1
    values of the read that failed.
    """

    def __init__(self, expr, n, what="expression"):
        self.expr = expr
        self.n = n
        self.what = what

    def on_planes(self, xs, grid):
        """Values at every x1 of ``xs`` over the flattened transverse lattice.

        Shaped (len(xs), N).  One evaluation over ``xs[:, None]`` against
        the transverse mesh: every operation is elementwise and numeric
        literals stay scalars, so each value has the bits of evaluating
        its node alone.  An error names the x1 when ``xs`` holds one
        value, else the range.
        """
        xs = np.asarray(xs, dtype=np.float64)
        mesh = grid.transverse_mesh()
        coords = (xs[:, None],) + tuple(m[None, :] for m in mesh)
        try:
            out = eval_field_on(self.expr, coords)
        except EvalError as err:
            if len(xs) == 1:
                where = f"at x1 = {float(xs[0])!r}"
            else:
                where = f"at x1 in [{float(xs.min())!r}, {float(xs.max())!r}]"
            raise EvalError(f"{self.what} {where}: {err}") from err
        return np.broadcast_to(out, (len(xs),) + mesh[0].shape).astype(np.float64, copy=False)


class SampledField:
    """Scalar field given by node samples, multilinear between nodes.

    ``on_planes`` interpolates linearly between the sampled x1 planes, on
    any grid with the samples' transverse lattice.  So the RK4 stage
    planes at half steps are second-order values: a march driven by
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

    def on_planes(self, xs, grid):
        """The samples lerped to every x1 of ``xs``, shaped (len(xs), N)."""
        if grid.transverse_shape != self.grid.transverse_shape:
            raise InvalidSpec("sampled field queried on a different transverse lattice")
        coords = self.grid.coord_lists()[0]
        return np.array([_lerp(self.values, coords, float(x1)).reshape(-1) for x1 in xs])


class _HypersurfaceSamples:
    """Hypersurface data given as node samples of the transverse lattice."""

    def __init__(self, values):
        self.values = values

    def on_planes(self, xs, grid):
        """The samples at every x1 of ``xs``, shaped (len(xs), N)."""
        if self.values.shape != grid.transverse_shape:
            raise InvalidInit(
                f"sampled hypersurface data shape {self.values.shape} does not "
                f"match the transverse lattice {grid.transverse_shape}"
            )
        return np.broadcast_to(self.values.reshape(-1), (len(xs), self.values.size))


def as_field(value, n, what, hypersurface=False):
    """Coerce an expression string, FieldExpr, field object or samples to a field.

    Strings are parsed over x1..xn, and an expression built here names
    ``what`` in its evaluation errors.  A tube field (``hypersurface``
    false) may also be an ExpressionField or SampledField, which pass
    through; anything else raises InvalidSpec prefixed with ``what``.
    Hypersurface data may not use x1 (InvalidInit), a given
    ExpressionField is relabelled with ``what``, and any other value is
    an array of transverse node samples (InvalidInit if it is not
    numeric), shape-checked when read.
    """
    if isinstance(value, str):
        value = parse_field(value, n)
    if hypersurface and isinstance(value, ExpressionField):
        value = value.expr
    if isinstance(value, FieldExpr):
        if hypersurface:
            try:
                uses_x1 = 1 in variables(value)
            except EvalError as err:
                raise EvalError(f"{what}: {err}") from err
            if uses_x1:
                raise InvalidInit(f"{what}: hypersurface data may not depend on x1")
        return ExpressionField(value, n, what)
    if hypersurface:
        try:
            samples = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidInit(
                f"{what}: expected numeric transverse node samples, got {type(value).__name__}"
            ) from None
        return _HypersurfaceSamples(samples)
    if isinstance(value, (ExpressionField, SampledField)):
        return value
    raise InvalidSpec(f"{what}: cannot interpret {value!r} as a scalar field")


# ---------------------------------------------------------- tensor families


@dataclass(frozen=True)
class Family:
    """Index layout of one tensor family.

    ``first`` is the lowest 1-based index of each slot (the highest is
    n); ``sym`` is the symmetric slot pair or None; ``hypersurface``
    families hold data on x1 = 0, which ``as_field`` coerces by its
    hypersurface rules, the others tube fields; ``error`` is the
    exception their index errors raise.
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
    family's exception; each value becomes an ``as_field`` field labelled
    ``f"{family}{key}"``, by the hypersurface rules when the family's row
    says so.  Components not given are 0.  Every read of an input field
    is one ``on_planes`` call from ``dense``; ``planes``,
    ``on_hypersurface`` and ``on_grid`` lay its result out.
    """

    def __init__(self, family, n, values):
        fam = FAMILIES[family]
        fields = {}
        for idx, value in (values or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(fam.first) or not all(f <= i <= n for f, i in zip(fam.first, idx)):
                ranges = ", ".join(f"{f}..{n}" for f in fam.first)
                raise fam.error(f"{family} index {idx} outside {ranges}")
            key = fam.canonical(idx)
            if key in fields:
                raise fam.error(f"{family}{key} given in both orderings")
            fields[key] = as_field(value, n, f"{family}{key}", fam.hypersurface)
        self.layout = fam
        self.n = n
        self.fields = dict(sorted(fields.items()))

    def dense(self, xs, grid, lo=None, hi=None):
        """Components over the index box ``lo``..``hi`` at each x1 of ``xs``.

        The box defaults to ``first``..n per slot.  The array has one axis
        per slot (entry 0 is index ``lo``), then one per x1 of ``xs``,
        then the flattened transverse lattice: (*box, len(xs), N).  Each
        given component with an ordering inside the box is read once, in
        index order, with ``on_planes(xs, grid)``, and its values are
        written to every such ordering.
        """
        lo = self.layout.first if lo is None else tuple(lo)
        hi = (self.n,) * len(lo) if hi is None else tuple(hi)
        box = tuple(b - a + 1 for a, b in zip(lo, hi))
        out = np.zeros(box + (len(xs), math.prod(grid.transverse_shape)))
        for key, fld in self.fields.items():
            inside = [
                tuple(i - a for i, a in zip(idx, lo))
                for idx in self.layout.orderings(key)
                if all(a <= i <= b for a, i, b in zip(lo, idx, hi))
            ]
            if inside:
                values = fld.on_planes(xs, grid)
                for pos in inside:
                    out[pos] = values
        return out

    def planes(self, xs, grid, lo=None, hi=None):
        """The index box at each x1 of ``xs``, x1 axis first: (len(xs), *box, N)."""
        return np.moveaxis(self.dense(xs, grid, lo, hi), -2, 0)

    def on_hypersurface(self, grid, lo=None, hi=None):
        """The index box on x1 = 0, shaped (*box, N)."""
        return self.dense([0.0], grid, lo, hi)[..., 0, :]

    def on_grid(self, grid):
        """Every component over the whole lattice, shaped (*box, *grid.shape)."""
        out = self.dense(grid.x1_samples, grid)
        return out.reshape(out.shape[:-2] + grid.shape)


# -------------------------------------------------------------------- dumps


# Special characters of the csv module's default dialect: a field holding
# one is quoted, with inner quotes doubled (csv.QUOTE_MINIMAL).
_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_field(text):
    """``text`` as one delimited field, quoted as ``csv.writer`` quotes it."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _take(indices):
    """``seq -> tuple(seq[i] for i in indices)``, one C-level call for two or more."""
    if len(indices) < 2:
        return lambda seq: tuple(seq[i] for i in indices)
    return operator.itemgetter(*indices)


def _classify(components):
    """Sort node arrays of float64 into constant, repeated and distinct.

    Returns ``(kinds, rows)``.  ``kinds[c]`` is the ``repr`` text of
    component c's value when every node holds the same bits; otherwise it
    is a position d in ``rows``, the list of components that first hold
    each distinct set of bits, and c's bits equal those of ``rows[d]``
    at every node.  Bits are compared as int64, so -0.0 is not 0.0 and
    NaNs of different payloads differ; memoryview comparisons allocate
    nothing.
    """
    kinds, rows, bits_of = [], [], []
    candidates = {}  # (first, last) bits -> positions in rows
    for c, values in enumerate(components):
        bits = memoryview(values.view(np.int64).reshape(-1))
        if bits[1:] == bits[:-1]:
            kinds.append(repr(float(values.flat[0])))
            continue
        same = candidates.setdefault((bits[0], bits[-1]), [])
        d = next((d for d in same if bits_of[d] == bits), None)
        if d is None:
            d = len(rows)
            rows.append(c)
            bits_of.append(bits)
            same.append(d)
        kinds.append(d)
    return kinds, rows


def write_tensor_dump(path, grid, tubes):
    """Delimited text dump: header, one row per (node, component).

    Columns: x1..xn, tensor, indices ("h,i,j" style), value.  Values use
    repr, which round-trips float64 exactly.  Row order is fixed: nodes in
    lexicographic grid order, then tensors in the given order, then full
    index tuples lexicographically, so identical inputs give identical
    bytes.  The bytes are those of ``csv.writer`` (minimal quoting,
    "\\r\\n" line ends).  Lines are formatted and written one row of the
    last grid axis at a time: a whole x1 plane or tube at once is no
    faster and holds far more strings.

    Each distinct component is turned to text once.  Before the first
    row, every (tube, index) component is classified by the bits of its
    values over the whole tube, so -0.0 and 0.0, or two NaN payloads,
    never match:

    - constant (every node holds the same bits, e.g. g_11 = e or
      g_1j = 0): its lines are built once, value included, and every
      row reuses them;
    - equal to an earlier component at every node (the mirrored slots
      of a symmetric tensor): its lines reuse that component's strings;
    - distinct: its values are turned to ``repr`` strings once per node.

    A row gathers the distinct components with one index and places its
    lines with two ``itemgetter`` calls, so the number of Python-level
    calls per row does not grow with the number of components.  On the
    33x33x101 ``wide-dump`` benchmark op, 7 of the metric's 9 components
    are constant and one mirrors another, so ``repr`` runs 109,989 times
    instead of 989,901 and ``metric.csv`` takes 0.20-0.26 s instead of
    0.43-0.56 s (five runs each, one CPU of a 2-vCPU box).
    """
    tubes = list(tubes)
    n = grid.n
    coords = [list(map(repr, grid.axis_coords(a).tolist())) for a in range(1, n + 1)]
    components = [
        (tube, pos) for tube in tubes for pos in np.ndindex(tube.dense.shape[: len(tube.first)])
    ]
    infixes = [
        f",{_csv_field(tube.name)},"
        f"{_csv_field(','.join(str(p + f) for p, f in zip(pos, tube.first)))},"
        for tube, pos in components
    ]
    kinds, rows = _classify([tube.dense[pos] for tube, pos in components])
    # The lines of a row after its leading coordinates, as (node, component)
    # pairs.  A varying line is its tail plus the text of its distinct
    # component at that node; a fixed line is built whole here.  ``place``
    # puts the varying and then the fixed lines into (node, component) order.
    m, last = grid.shape[-1], coords[-1]
    varying = [(j, c) for j in range(m) for c, kind in enumerate(kinds) if isinstance(kind, int)]
    fixed = [(j, c) for j in range(m) for c, kind in enumerate(kinds) if isinstance(kind, str)]
    tails = [last[j] + infixes[c] for j, c in varying]
    pick = _take([j * len(rows) + kinds[c] for j, c in varying])
    whole = [last[j] + infixes[c] + kinds[c] for j, c in fixed]
    order = varying + fixed
    place = _take(sorted(range(len(order)), key=order.__getitem__))
    with open(path, "w", newline="") as fh:
        header = [f"x{k}" for k in range(1, n + 1)] + ["tensor", "indices", "value"]
        fh.write(",".join(header) + "\r\n")
        if not kinds:  # no components: the header alone
            return
        for lead in np.ndindex(grid.shape[:-1]):
            head = "".join(axis[i] + "," for axis, i in zip(coords, lead))
            row = (..., *lead, slice(None))
            block = np.concatenate([t.dense[row].reshape(-1, m) for t in tubes])
            texts = list(map(repr, block[rows].T.ravel().tolist()))
            lines = list(map(operator.add, tails, pick(texts))) + whole
            fh.write(head + ("\r\n" + head).join(place(lines)) + "\r\n")


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
    """Delimited curve dump: header, rows s, x1..xn, with the bytes of
    ``csv.writer`` like ``write_tensor_dump``, written in one join."""
    n = curve.points.shape[1]
    columns = [map(repr, c) for c in [curve.s.tolist()] + curve.points.T.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["s"] + [f"x{k}" for k in range(1, n + 1)]) + "\r\n")
        fh.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))
