"""Reconstruction of a semigeodesic metric from hypersurface data.

Given on x1 = 0 the transverse block g~_ij and its axial derivative
G~_ij (i, j >= 2), plus prescribed axial curvature a_ij = R_1ij1, the
transverse block is marched in x1 with the coupled first-order system

    d1 g_ij = G_ij
    d1 G_ij = 1/2 g^{rs} G_ir G_js + 2 a_ij

and the full metric is assembled with g_11 = e, g_1j = 0 held exactly.
The system has no transverse coupling: every transverse node integrates
independently, so runs at different transverse resolutions agree bitwise
at shared nodes.  Both directions march side by side as two node groups
of one march, and the right-hand side checks each node's determinant
against that node's initial value in either group.  The sources a_ij
do not depend on the march state, so ``ode.march_tube`` evaluates
``MetricCurvatureSpec.planes`` ahead of the march in batched x1 chunks,
and the right-hand side reads each group's plane only after its
degeneracy check has passed.

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
from numpy._core.multiarray import c_einsum

from .curvature import DEGENERACY_TOL, MetricField
from .errors import InvalidInit, InvalidSpec
from .grid_field import Components, build_grid
from .linalg import det_stack, inv_sym, mirror_upper
from .ode import StateRejected, march_report, march_tube, tube_dense


class HypersurfaceMetricData:
    """Transverse metric block and its axial derivative on x1 = 0.

    ``g`` and ``g1`` map (i, j) with 2 <= i, j <= n to expression
    strings or the FieldExpr programs ``parse_field`` makes of them,
    free of x1; any other value raises InvalidInit.  Each (i, j) fills
    both symmetric slots; giving both orderings raises InvalidInit.
    Missing components default to 0.
    """

    def __init__(self, n, g=None, g1=None):
        if n < 2:
            raise InvalidInit("dimension must be >= 2")
        self._g = Components("gtilde", n, g)
        self._g1 = Components("Gtilde", n, g1)

    def g_plane(self, grid):
        return self._g.on_hypersurface(grid)

    def g1_plane(self, grid):
        return self._g1.on_hypersurface(grid)


class MetricCurvatureSpec:
    """Prescribed axial curvature a_ij = R_1ij1, 2 <= i, j <= n.

    Each (i, j) fills both symmetric slots (curvature symmetry forces
    it); giving both orderings raises InvalidInit.  Entries are
    expression strings or the FieldExpr programs ``parse_field`` makes
    of them, on the tube; any other value raises InvalidSpec.  Missing
    entries are 0.
    """

    def __init__(self, n, entries=None):
        if n < 2:
            raise InvalidSpec("dimension must be >= 2")
        self._fields = Components("a", n, entries)

    def planes(self, xs, grid):
        """a_ij at each x1 of ``xs``, shaped (len(xs), n-1, n-1, N)."""
        return self._fields.planes(xs, grid)


def _quadratic(ginv, G):
    """1/2 g^{rs} G_ir G_js, mirrored from i <= j so it is exactly symmetric."""
    return mirror_upper(0.5 * c_einsum("rs...,ir...,js...->ij...", ginv, G, G))


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


def reconstruct_metric(init, sources, e, spec, guards=None, degeneracy_tol=None):
    """March the transverse block from (g~, G~) on the lattice of ``spec``.

    Returns (MetricField, ReconstructionReport).  ``e`` is the axial
    sign g_11 and must equal ``spec.e`` (InvalidSpec otherwise); it
    never enters the transverse system.  Initial data must
    have a finite, nondegenerate determinant at each node (InvalidInit otherwise).
    A direction stops at degeneracy (ratio ``degeneracy_tol``, default
    1e-10, against the initial determinant per node, or a determinant
    sign change) or at blow-up; the report carries the reached extents.
    """
    if e != spec.e:
        raise InvalidSpec(f"e = {e!r} differs from the chart's e = {spec.e!r}")
    grid = build_grid(spec)
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
    state0 = np.stack([g0, G0])
    # each node's determinant floor and sign, repeated for one or two node
    # groups (a direction alone, or both side by side)
    limits = {k: (np.tile(tol * np.abs(det0), k), np.tile(np.sign(det0), k)) for k in (1, 2)}

    def rhs(xs, state, inputs):
        g, G = state[0], state[1]
        det = det_stack(g)
        floor, sign0 = limits[len(xs)]
        bad = (np.abs(det) < floor) | (np.sign(det) * sign0 < 0)
        if np.any(bad):
            raise StateRejected("degenerate", int(np.argmax(bad)))
        (a,) = inputs
        return np.stack([G, _quadratic(inv_sym(g, det), G) + 2.0 * a])

    def planes(xs, grid):
        return (sources.planes(xs, grid),)

    plus, minus, rgrid, whole = march_tube(rhs, grid, state0, planes, guards)
    _relabel_collapse(plus, det0, tol)
    _relabel_collapse(minus, det0, tol)
    report = march_report(grid, rgrid, plus, minus, whole)
    metric = MetricField.semigeodesic(rgrid, tube_dense(whole[:, 0], rgrid), e=e)
    return metric, report
