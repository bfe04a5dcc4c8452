"""Second-order finite differences on a tube lattice.

Central stencils in the interior, 3-point (first derivative) or 4-point
(second derivative) one-sided stencils at boundary nodes, so the x1
derivative at the lower end of a one-sided tube is the right
derivative.  Values carry their tensor axes first and the grid axes
last, as a ``TensorTube``'s dense array does (``fd_transverse`` reads
one x1 plane, so its values end in the transverse axes).
"""

import numpy as np

from .errors import GridTooCoarse, InvalidSpec


def _fd1(values, axis0, h):
    # difference-form stencils: constants differentiate to exactly zero;
    # the interior is formed in the output, with no full-size temporary
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis0] < 3:
        raise GridTooCoarse("first derivative needs at least 3 nodes along the axis")
    v = np.moveaxis(values, axis0, 0)
    out = np.empty_like(v)
    inner = out[1:-1]
    np.subtract(v[2:], v[:-2], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
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
    inner = out[1:-1]
    np.subtract(v[:-2], v[1:-1], out=inner)
    np.add(inner, v[2:] - v[1:-1], out=inner)
    np.divide(inner, h * h, out=inner)
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
