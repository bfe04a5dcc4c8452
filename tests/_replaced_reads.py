"""The field reads ``on_planes`` replaced, kept as bit-for-bit references.

Before every input field was read with ``on_planes(xs, grid)`` from
``Components.dense``, a field had three reads: ``on_transverse`` (one
x1 plane), ``on_grid`` (the whole lattice, with its own coordinate
layout) and, for hypersurface data, ``TransverseField.plane``.
``Components.dense`` took a ``values_of`` callback choosing among them.
Those implementations are copied here, less their branches for the
sample-array inputs the library no longer takes, so the tests can check
that ``planes``, ``on_grid`` and ``on_hypersurface`` give their bytes
for expression inputs.
"""

import numpy as np

from semigeo.errors import EvalError, InvalidInit
from semigeo.expr import eval_field_on, parse_field, variables
from semigeo.grid_field import FAMILIES, ExpressionField, as_field


def _eval_labelled(expr, coords, label):
    try:
        return eval_field_on(expr, coords)
    except EvalError as err:
        raise EvalError(f"{label}: {err}") from err


def on_transverse(field, x1, grid):
    """Values over all transverse nodes (flattened) at axial position x1."""
    mesh = grid.transverse_mesh()
    label = f"{field.what} at x1 = {float(x1)!r}"
    out = _eval_labelled(field.expr, (np.float64(x1),) + mesh, label)
    return np.broadcast_to(out, mesh[0].shape).astype(np.float64, copy=False)


def on_grid(field, grid):
    """Values over the whole lattice, shaped ``grid.shape``."""
    x1 = grid.x1_samples.reshape((-1,) + (1,) * (grid.n - 1))
    mesh = np.meshgrid(*grid.transverse_axes, indexing="ij")
    coords = (x1,) + tuple(m[np.newaxis] for m in mesh)
    out = _eval_labelled(field.expr, coords, field.what)
    return np.broadcast_to(out, grid.shape).astype(np.float64, copy=False)


class TransverseField:
    """Scalar data on the hypersurface: an expression in x2..xn (a string,
    FieldExpr or ExpressionField)."""

    def __init__(self, value, n, what):
        self.what = what
        if isinstance(value, str):
            value = parse_field(value, n)
        if isinstance(value, ExpressionField):
            value = value.expr
        try:
            uses_x1 = 1 in variables(value)
        except EvalError as err:
            raise EvalError(f"{what}: {err}") from err
        if uses_x1:
            raise InvalidInit(f"{what}: hypersurface data may not depend on x1")
        self.expr = value

    def plane(self, grid):
        """Values over the flattened transverse lattice."""
        return on_transverse(ExpressionField(self.expr, self.what), 0.0, grid)


def dense(family, n, values, trailing, values_of, lo=None, hi=None):
    """``Components(family, n, values).dense(trailing, values_of, lo, hi)`` as it was.

    Hypersurface families wrap each value in a TransverseField, the
    others in ``as_field``; ``values_of(field)`` is called once per given
    component with an ordering inside the box, in index order.
    """
    fam = FAMILIES[family]
    wrap = TransverseField if fam.hypersurface else as_field
    fields = {}
    for idx, value in values.items():
        key = fam.canonical(tuple(idx))
        fields[key] = wrap(value, n, f"{family}{key}")
    lo = fam.first if lo is None else tuple(lo)
    hi = (n,) * len(lo) if hi is None else tuple(hi)
    out = np.zeros(tuple(b - a + 1 for a, b in zip(lo, hi)) + tuple(trailing))
    for key, fld in sorted(fields.items()):
        inside = [
            tuple(i - a for i, a in zip(idx, lo))
            for idx in fam.orderings(key)
            if all(a <= i <= b for a, i, b in zip(lo, idx, hi))
        ]
        if inside:
            got = values_of(fld)
            for pos in inside:
                out[pos] = got
    return out
