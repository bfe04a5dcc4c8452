"""Reconstruction of a semigeodesic metric from hypersurface data.

Given on x1 = 0 the transverse block g~_ij and its axial derivative
G~_ij (i, j >= 2), plus prescribed axial curvature a_ij = R_1ij1, the
transverse block is marched in x1 with the coupled first-order system

    d1 g_ij = G_ij
    d1 G_ij = 1/2 g^{rs} G_ir G_js + 2 a_ij

and the full metric is assembled with g_11 = e, g_1j = 0 held exactly.
The system has no transverse coupling: every transverse node integrates
independently, so runs at different transverse resolutions agree bitwise
at shared nodes.

A direction stops, and its reached extent becomes delta_hat, when the
transverse determinant at any node falls below ``degeneracy_tol`` times
its initial value there or changes sign within a step, or when the
blow-up guards trip.  A fixed-step march can step across an isolated
determinant zero without ever sampling below the floor (the Riccati
quadratic then explodes one step later), so a blow-up stop is
reclassified as degenerate when the accepted trajectory witnessed the
determinant collapse below sqrt(degeneracy_tol) times its initial
per-node value: degeneracy is certified even if the sampled magnitude
recovers.
"""

import numpy as np

from .curvature import DEGENERACY_TOL, MetricField
from .errors import DegenerateMetric, InvalidInit, InvalidSpec
from .grid_field import Components, build_grid
from .linalg import det_stack, inv_sym, mirror_upper
from .ode import GuardConfig, StateRejected, march_report, march_tube


class HypersurfaceMetricData:
    """Transverse metric block and its axial derivative on x1 = 0.

    ``g`` and ``g1`` map (i, j) with 2 <= i, j <= n to expression
    strings, FieldExpr, or transverse node sample arrays.  Each (i, j)
    fills both symmetric slots; giving both orderings raises InvalidInit.
    Missing components default to 0.
    """

    def __init__(self, n, g=None, g1=None):
        if n < 2:
            raise InvalidInit("dimension must be >= 2")
        self.n = n
        self._g = Components("gtilde", n, g)
        self._g1 = Components("Gtilde", n, g1)

    def g_plane(self, grid):
        return self._g.dense(grid.transverse_mesh()[0].shape, lambda f: f.plane(grid))

    def g1_plane(self, grid):
        return self._g1.dense(grid.transverse_mesh()[0].shape, lambda f: f.plane(grid))


class MetricCurvatureSpec:
    """Prescribed axial curvature a_ij = R_1ij1, 2 <= i, j <= n.

    Each (i, j) fills both symmetric slots (curvature symmetry forces
    it); giving both orderings raises InvalidInit.  Entries are
    expression strings, FieldExpr, ExpressionField, or SampledField on
    the tube; missing entries are 0.
    """

    def __init__(self, n, entries=None):
        if n < 2:
            raise InvalidSpec("dimension must be >= 2")
        self.n = n
        self._fields = Components("a", n, entries)

    def plane(self, x1, grid):
        shape = grid.transverse_mesh()[0].shape
        return self._fields.dense(shape, lambda f: f.on_transverse(x1, grid))

    def dense_on(self, grid):
        """All prescribed values over a grid, shaped (n-1, n-1, *grid.shape)."""
        return self._fields.dense(grid.shape, lambda f: f.on_grid(grid))


def _quadratic(ginv, G):
    """1/2 g^{rs} G_ir G_js, mirrored from i <= j so it is exactly symmetric."""
    return mirror_upper(0.5 * np.einsum("rs...,ir...,js...->ij...", ginv, G, G))


def metric_rhs(g, G, a, degeneracy_tol=DEGENERACY_TOL):
    """Axial derivative of (g, G) for the transverse block.

    Inputs are (k, k) matrices or (k, k, N) node stacks, symmetric.
    Returns (d1 g, d1 G) = (G, 1/2 g^{rs} G_ir G_js + 2 a), with the
    quadratic term mirrored from i <= j so the output is symmetric
    exactly.  Raises DegenerateMetric when |det g| < degeneracy_tol.
    """
    g = np.asarray(g, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    single = g.ndim == 2
    if single:
        g, G, a = g[..., None], G[..., None], a[..., None]
    k = g.shape[0]
    det = det_stack(g.reshape((k, k, -1)))
    small = np.abs(det) < degeneracy_tol
    if np.any(small):
        node = int(np.argmax(small))
        raise DegenerateMetric(
            f"transverse block determinant {det[node]:.3e} below "
            f"{degeneracy_tol:.1e}",
            node=node,
            det=float(det[node]),
        )
    ginv = inv_sym(g.reshape((k, k, -1)), det).reshape(g.shape)
    dG = _quadratic(ginv, G) + 2.0 * a
    if single:
        return G[..., 0], dG[..., 0]
    return G.copy(), dG


def _relabel_collapse(march, det0, tol):
    """Reclassify a blow-up stop as degenerate after a witnessed collapse.

    A fixed step can land just past an isolated determinant zero with
    every sampled value still above the hard floor; the quadratic term
    then explodes one step later and the generic guard reports blow-up.
    When the accepted trajectory's per-node determinant ratio dipped
    below sqrt(tol), the stop is relabeled as degenerate at the node
    where the ratio was smallest.
    """
    if march.stopped != "blowup" or march.states.shape[0] == 0:
        return
    g_traj = march.states[:, 0]
    k = g_traj.shape[1]
    det = det_stack(np.moveaxis(g_traj, 0, 2).reshape((k, k, -1)))
    ratio = np.abs(det).reshape((g_traj.shape[0], -1)) / np.abs(det0)
    node_min = ratio.min(axis=0)
    if np.any(node_min < np.sqrt(tol)):
        march.stopped = "degenerate"
        march.stop_detail = int(np.argmin(node_min))


def reconstruct_metric(init, sources, e, spec, guards=None, grid=None, degeneracy_tol=None):
    """March the transverse block from (g~, G~) and assemble the metric.

    Returns (MetricField, ReconstructionReport).  ``e`` is the axial
    sign g_11; it never enters the transverse system.  Initial data must
    have a finite, nondegenerate determinant at each node (InvalidInit otherwise).
    A direction stops at degeneracy (ratio ``degeneracy_tol``, default
    1e-10, against the initial determinant per node, or a determinant
    sign change) or at blow-up; the report carries the reached extents.
    """
    if e not in (-1, 1):
        raise InvalidSpec(f"e must be +1 or -1, got {e!r}")
    grid = grid or build_grid(spec)
    n = grid.n
    k = n - 1
    tol = DEGENERACY_TOL if degeneracy_tol is None else float(degeneracy_tol)
    g0 = init.g_plane(grid)
    G0 = init.g1_plane(grid)
    det0 = det_stack(g0)
    bad = ~np.isfinite(det0) | (np.abs(det0) < tol)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise InvalidInit(
            f"initial transverse block is degenerate at flat node {node} "
            f"(det = {det0[node]:.3e})"
        )
    sign0 = np.sign(det0)
    floor = tol * np.abs(det0)
    state0 = np.stack([g0, G0])
    guards = guards or GuardConfig()
    src_cache = {}

    def rhs(x, state):
        g, G = state[0], state[1]
        det = det_stack(g)
        bad = (np.abs(det) < floor) | (np.sign(det) * sign0 < 0)
        if np.any(bad):
            raise StateRejected("degenerate", int(np.argmax(bad)))
        plane = src_cache.get(x)
        if plane is None:
            plane = sources.plane(x, grid)
            src_cache[x] = plane
        return np.stack([G, _quadratic(inv_sym(g, det), G) + 2.0 * plane])

    plus, minus, rgrid, whole = march_tube(rhs, grid, state0, guards)
    _relabel_collapse(plus, det0, tol)
    _relabel_collapse(minus, det0, tol)
    block = np.moveaxis(whole[:, 0], 0, 2).reshape((k, k) + rgrid.shape)
    metric = MetricField.semigeodesic(rgrid, block, e=e)
    return metric, march_report(grid, rgrid, plus, minus, whole)
