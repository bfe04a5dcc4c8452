"""The whole-lattice round-trip oracles the x1-block ones replaced, kept as references.

Before the axial curvature oracle and the round-trip residuals went
through the lattice one block of x1 planes at a time, each formed its
terms over the whole lattice at once: the inverse transverse metric,
both x1 derivatives, the quadratic term, the sources over the whole
grid and their difference.  Those implementations are copied here so
the tests can check that the block ones give their bytes and their
errors.
"""

import numpy as np

from semigeo.errors import DegenerateMetric
from semigeo.fd import fd_partial, fd_second
from semigeo.grid_field import TensorTube
from semigeo.linalg import det_stack, inv_sym, mirror_upper


def _degenerate_node(det, degeneracy_tol, grid):
    bad = ~np.isfinite(det) | (np.abs(det) < degeneracy_tol)
    if not np.any(bad):
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), grid.shape))


def curvature04_semigeo(metric, degeneracy_tol=1e-10):
    """R_1ij1 (i, j >= 2) of a semigeodesic metric, every term over the whole lattice."""
    grid = metric.grid
    n = grid.n
    metric.require_semigeodesic()
    gt = metric.dense[1:, 1:]
    det = det_stack(gt.reshape((n - 1, n - 1, -1)))
    node = _degenerate_node(det, degeneracy_tol, grid)
    if node is not None:
        raise DegenerateMetric(
            f"transverse metric block degenerate at node {node}",
            node=node,
            det=float(det.reshape(grid.shape)[node]),
        )
    ginv_t = inv_sym(gt.reshape((n - 1, n - 1, -1)), det).reshape((n - 1, n - 1) + grid.shape)
    d1 = fd_partial(gt, 1, grid)
    d11 = fd_second(gt, 1, grid)
    quad = np.einsum("rs...,ir...,js...->ij...", ginv_t, d1, d1)
    d11 *= 0.5
    quad *= 0.25
    block = mirror_upper(np.subtract(d11, quad, out=quad))
    return TensorTube("R04", grid, block[None, :, :, None], (1, 2, 2, 1))


def on_grid(sources, grid):
    """Every source component over the whole lattice, shaped (*slots, *grid.shape)."""
    out = np.moveaxis(sources.planes(grid.x1_samples, grid), 0, -2)
    return out.reshape(out.shape[:-2] + grid.shape)


def metric_residual(metric, sources, degeneracy_tol=1e-10):
    """(max |R_1ij1 - a_ij| over the lattice, R04 tube), as one whole-lattice difference."""
    axial = curvature04_semigeo(metric, degeneracy_tol)
    return float(np.max(np.abs(axial.dense[0, :, :, 0] - on_grid(sources, metric.grid)))), axial


def connection_residual(r13, sources):
    """max |R^h_1ik - A^h_ik| over the lattice, as one whole-lattice difference."""
    return float(np.max(np.abs(r13.dense[:, :, 0, 1:] - on_grid(sources, r13.grid))))
