"""Tube grids, dense tensor tubes, fields, interpolation, dumps.

The computational domain is a tube: an x1 interval containing 0 (the
hypersurface S sits at x1 = 0) times a closed box in the transverse
coordinates x2..xn.  All lattices are uniform per axis; ``fd`` holds
their finite differences, and ``dump_text`` turns a dump's values into
text.

Every tensor on the tube (metric, connection, curvature and their
parts) is a TensorTube: one dense array with the tensor slots leading
and the grid axes trailing, which the dump writer reads directly.
Every input family's index layout is one row of FAMILIES.  Every input
field is an expression (an ExpressionField), read one way only,
``on_planes(xs, grid)``: its values at each x1 of ``xs`` over the
flattened transverse lattice.  ``Components.dense`` makes every such
read and builds every dense input array from it: the source planes a
march reads, the data on the hypersurface x1 = 0, and a field over the
whole lattice.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .dump_text import classify, csv_field, row_texts, take
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
        return self._flat_mesh

    def coord_lists(self):
        """Every axis's node coordinates (``axis_coords``) as Python floats."""
        return self._coord_lists

    @functools.cached_property
    def _flat_mesh(self):
        grids = np.meshgrid(*self.transverse_axes, indexing="ij")
        return tuple(g.reshape(-1) for g in grids)

    @functools.cached_property
    def _coord_lists(self):
        return tuple(self.axis_coords(axis).tolist() for axis in range(1, self.n + 1))

    @functools.cached_property
    def _table(self):
        return _axis_table(self)

    def contains(self, points):
        """One bool per point of ``points``, shaped (n, K) (an (n,) point is
        K = 1): whether it lies in a cell ``interpolate`` reads (``_locate``)."""
        return ~_locate(self, np.asarray(points, dtype=np.float64).reshape(self.n, -1))[1].any(0)

    def restrict_x1(self, i_lo, i_hi):
        """Sub-grid keeping x1 sample indices i_lo..i_hi inclusive."""
        return TubeGrid(self.chart, self.x1_samples[i_lo : i_hi + 1], self.transverse_axes)


# Largest tensor tube, in bytes, a chart may ask for.  The (1,3) curvature,
# n^4 slots of float64 over the lattice, is the largest block any mode
# holds, so a chart whose n^4 x nodes x 8 bytes exceed this is rejected
# before anything is allocated on it, its axes included.
LATTICE_BYTES = 16 * 2**30


def build_grid(spec):
    """Lattice covering the chart: x1 multiples of h1 in range, plus box nodes.

    Raises InvalidSpec naming the axis and its sample count when an axis
    has more samples than numpy can index or than memory can hold, and
    naming the lattice when its n^4-slot tube exceeds LATTICE_BYTES.
    Both counts are checked before any axis is built.
    """
    lo, hi = spec.x1_range
    eps = 1e-9
    kmin = np.ceil(lo / spec.h1 - eps)
    kmax = np.floor(hi / spec.h1 + eps)
    counts = (kmax - kmin + 1,) + spec.transverse_res
    for axis, count in enumerate(counts, start=1):
        if not count <= np.iinfo(np.intp).max:
            raise _unbuildable(axis, count)
    shape = tuple(map(int, counts))
    # a float product: exact below 2**53 bytes, far above the limit, and
    # inf rather than an OverflowError for a lattice no float can count
    need = math.prod(shape, start=8.0 * spec.n**4)
    if need > LATTICE_BYTES:
        raise InvalidSpec(
            f"the {' x '.join(map(str, shape))} lattice needs {need / 2**30:.3g} GiB "
            f"for an n^4-slot tensor tube, above the {LATTICE_BYTES // 2**30} GiB limit"
        )
    makers = [lambda m: np.arange(int(kmin), int(kmin) + m, dtype=np.float64) * spec.h1]
    makers += [functools.partial(np.linspace, a, b) for a, b in spec.transverse_box]
    nodes = []
    for axis, (make, count) in enumerate(zip(makers, shape), start=1):
        try:
            nodes.append(make(count))
        except MemoryError:
            raise _unbuildable(axis, count) from None
    return TubeGrid(spec, nodes[0], tuple(nodes[1:]))


def _unbuildable(axis, count):
    return InvalidSpec(
        f"axis {axis} needs {float(count):.6g} samples; its lattice cannot be allocated"
    )


# --------------------------------------------------------------- interpolate


def _axis_table(grid):
    """The arrays ``interpolate`` reads points with, kept as ``grid._table``.

    Per axis: ``edges``, whose right-sided search count less one is the
    cell of a point and is out of 0..cells-1 exactly when the point is
    outside the axis padded by 1e-12 of its scale (the one definition of
    inside the tube, applied by ``_locate``); the cell's
    start and width in one concatenation over all axes, at ``first`` +
    cell; the axis's flat stride in ``grid.shape``.  An axis of one node
    has one cell of infinite width, so its fraction is always 0.  Last,
    the two thresholds a fraction t meets to take the cell's second
    node: as its first corner when t >= 1, as its second when t > 0
    (t >= the least positive float).
    """
    edges, starts, widths, sizes = [], [], [], []
    for coords in grid.coord_lists():
        lo, hi = coords[0], coords[-1]
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        inner = coords[1:-1]
        edges.append(np.array([lo - pad] + inner + [math.nextafter(hi + pad, math.inf)]))
        starts += coords[:-1] or coords
        widths += [b - a for a, b in zip(coords, coords[1:])] or [math.inf]
        sizes.append(len(coords))
    cells = np.array([[len(e) - 1] for e in edges])
    strides = np.cumprod([1] + sizes[:0:-1])[::-1].reshape(-1, 1, 1)
    return (
        edges,
        cells,
        np.cumsum(cells, axis=0) - cells,
        np.array(starts),
        np.array(widths),
        strides,
        np.array([[1.0], [math.ulp(0.0)]]),
    )


def _locate(grid, x):
    """(cell, outside) of points ``x``, shaped (n, K): each point's cell
    on each axis, and whether that cell is out of the axis's range."""
    edges, cells = grid._table[:2]
    cell = np.empty(x.shape, dtype=np.intp)
    for k in range(grid.n):
        cell[k] = edges[k].searchsorted(x[k], side="right")
    cell -= 1
    return cell, cell.view(np.uintp) >= cells


def interpolate(values, grid, points):
    """Multilinear interpolation of node values at K points of the tube.

    ``values`` may carry leading tensor axes before ``grid.shape``.
    ``points`` is shaped (n, K).  The result is a new array of the
    tensor shape plus a trailing axis of length K.

    Each point makes its own choice per axis: at a fraction of 0 or 1 it
    takes that node, else it blends the cell's two nodes, and the axes
    are reduced in axis order.  So every entry has the bits of
    interpolating its point alone, and no node is blended in with a
    weight of 0 (which would turn -0.0 into 0.0 and inf into nan).
    Exact at nodes; within a cell each entry is a convex combination of
    its 2^n corner values, so it never leaves their range.  Raises
    OutOfDomain for points of any other shape, and outside the tube,
    naming the first coordinate out of range of the first point outside.
    """
    values = np.asarray(values, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    n = grid.n
    if x.ndim != 2 or x.shape[0] != n:
        raise OutOfDomain(f"point must have {n} coordinates")
    cell, outside = _locate(grid, x)
    if outside.any():
        # the first axis outside of the first point outside
        k = int(outside.any(axis=0).argmax())
        axis = int(outside[:, k].argmax())
        coords = grid.coord_lists()[axis]
        raise OutOfDomain(f"coordinate {x[axis, k].item()} outside [{coords[0]}, {coords[-1]}]")
    first, starts, widths, strides, take_second = grid._table[2:]
    index = cell + first
    # outside [0, 1] only in the 1e-12 pad, where the end node is taken
    t = (x - starts[index]) / widths[index]
    # (n, 2, K): each axis's node at a corner bit of 0 and of 1; the two
    # are one node where the point takes a node, so the corners hold it
    nodes = (t[:, None] >= take_second) + cell[:, None]
    flat = nodes * strides
    corners = flat[0]
    for k in range(1, n):
        corners = corners[..., None, :] + flat[k]
    # (2, ..., 2, K, C): the corner axes lead, in axis order
    lead = values.shape[: values.ndim - n]
    size = math.prod(lead)
    out = values.reshape(size, -1).take(corners.reshape(-1), axis=1)
    out = np.ascontiguousarray(out.T).reshape(corners.shape + (size,))
    blend = (nodes[:, 0] != nodes[:, 1])[..., None]
    w = t[..., None]
    # blends a point does not take are discarded: their 0 * inf is no error
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            out = np.where(blend[k], out[0] * (1.0 - w[k]) + out[1] * w[k], out[0])
    return out.T.reshape(lead + (x.shape[1],))


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

    def at(self, points):
        """Every component at K points, shaped (n, K), with K trailing in
        the result (``interpolate``)."""
        return interpolate(self.dense, self.grid, points)

    def max_abs(self):
        return float(np.max(np.abs(self.dense), initial=0.0))


# ------------------------------------------------------------- scalar fields


class ExpressionField:
    """Scalar field backed by the FieldExpr program of an expression over x1..xn.

    ``what`` names the field in evaluation errors, followed by the x1
    values of the read that failed.
    """

    def __init__(self, expr, what="expression"):
        self.expr = expr
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


def as_field(value, n, what, hypersurface=False):
    """Coerce an expression string or a FieldExpr made by parse_field to a field.

    Strings are parsed over x1..xn.  Every accepted value becomes a new
    ExpressionField that names ``what`` in its evaluation errors.  Any
    other value, an ExpressionField included, raises InvalidInit for
    hypersurface data and InvalidSpec for a tube field, prefixed with
    ``what``.  Hypersurface data may not use x1 (InvalidInit).
    """
    if isinstance(value, str):
        value = parse_field(value, n)
    if not isinstance(value, FieldExpr):
        error = InvalidInit if hypersurface else InvalidSpec
        raise error(f"{what}: cannot interpret {type(value).__name__} as an expression")
    if hypersurface and 1 in variables(value):
        raise InvalidInit(f"{what}: hypersurface data may not depend on x1")
    return ExpressionField(value, what)


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

    Before the first row, every (tube, index) component is classified by
    the bits of its values over the whole tube, so -0.0 and 0.0, or two
    NaN payloads, never match:

    - constant (every node holds the same bits, e.g. g_11 = e or
      g_1j = 0): its lines are built once, value included, and every
      row reuses them;
    - equal to an earlier component at every node (the mirrored slots
      of a symmetric tensor): its lines reuse that component's strings;
    - distinct: its values are turned to text by ``dump_text.row_texts``,
      once per distinct bit pattern of a block of whole x1 planes when a
      component repeats bits within its first x1 plane, else once per
      node.

    A row places its lines with two ``itemgetter`` calls, so the number
    of Python-level calls per row does not grow with the number of
    components.  On the 33x33x101 ``wide-dump`` benchmark op, 7 of the
    metric's 9 components are constant and one mirrors another, and the
    source ``-(1 + c*x2*x3)*cos(x1)^2`` is symmetric in x2 and x3, so
    ``repr`` runs 35,583 times (352 per plane) instead of 989,901.
    """
    tubes = list(tubes)
    n = grid.n
    coords = [list(map(repr, grid.axis_coords(a).tolist())) for a in range(1, n + 1)]
    components = [
        (tube, pos) for tube in tubes for pos in np.ndindex(tube.dense.shape[: len(tube.first)])
    ]
    infixes = [
        f",{csv_field(tube.name)},"
        f"{csv_field(','.join(str(p + f) for p, f in zip(pos, tube.first)))},"
        for tube, pos in components
    ]
    kinds, rows = classify([tube.dense[pos] for tube, pos in components])
    # The lines of a row after its leading coordinates, as (node, component)
    # pairs.  A varying line is its tail plus the text of its distinct
    # component at that node; a fixed line is built whole here.  ``place``
    # puts the varying and then the fixed lines into (node, component) order.
    m, last = grid.shape[-1], coords[-1]
    varying = [(j, c) for j in range(m) for c, kind in enumerate(kinds) if isinstance(kind, int)]
    fixed = [(j, c) for j in range(m) for c, kind in enumerate(kinds) if isinstance(kind, str)]
    tails = [last[j] + infixes[c] for j, c in varying]
    pick = take([j * len(rows) + kinds[c] for j, c in varying])
    whole = [last[j] + infixes[c] + kinds[c] for j, c in fixed]
    order = varying + fixed
    place = take(sorted(range(len(order)), key=order.__getitem__))
    del varying, fixed, order  # not held while the rows are written
    with open(path, "w", newline="") as fh:
        header = [f"x{k}" for k in range(1, n + 1)] + ["tensor", "indices", "value"]
        fh.write(",".join(header) + "\r\n")
        if not kinds:  # no components: the header alone
            return
        texts = row_texts([components[c] for c in rows]) if rows else itertools.repeat(())
        for lead, row in zip(np.ndindex(grid.shape[:-1]), texts):
            head = "".join(axis[i] + "," for axis, i in zip(coords, lead))
            lines = list(map(operator.add, tails, pick(row))) + whole
            fh.write(head + ("\r\n" + head).join(place(lines)) + "\r\n")


def write_curve_dump(path, curve):
    """Delimited curve dump: header, rows s, x1..xn, with the bytes of
    ``csv.writer`` like ``write_tensor_dump``, written in one join."""
    n = curve.points.shape[1]
    columns = [map(repr, c) for c in [curve.s.tolist()] + curve.points.T.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["s"] + [f"x{k}" for k in range(1, n + 1)]) + "\r\n")
        fh.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))
