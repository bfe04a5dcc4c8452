"""Two-stage reconstruction of a symmetric connection inside the tube.

Given the restriction of the connection to the hypersurface x1 = 0 and
prescribed axial curvature components A^h_ik (k >= 2), the connection is
rebuilt by marching first-order ODE systems in x1:

* stage 1 recovers the axial components Gamma^h_1k,
      d1 Gamma^h_1k = - sum_m Gamma^m_1k Gamma^h_1m + A^h_1k,
  so the reconstructed field satisfies R^h_11k = A^h_1k identically;
* stage 2 recovers the transverse components Gamma^h_ik (i, k >= 2),
      d1 Gamma^h_ik = - sum_m Gamma^m_ik Gamma^h_m1
                      + sum_m Gamma^m_i1 Gamma^h_mk
                      + d_k Gamma^h_i1 + A^h_ik,
  which is the curvature formula solved for d1 Gamma^h_ik, so the
  field satisfies R^h_i1k = A^h_ik.  A historically circulated truncated
  variant drops the middle quadratic sum; it is available behind
  ``omit_quadratic_cross_term=True`` strictly for regression testing and
  is not correct.

Gamma^h_11 = 0 is held exactly (never integrated): the x1 lattice lines
stay canonically parametrized geodesics.

Both marches run from x1 = 0 toward each end of the tube with fixed-step
RK4 over all transverse nodes in lockstep.  Stage 1 additionally caches
fourth-order-accurate values at the step midpoints, so stage 2 can
evaluate Gamma^h_m1 and its transverse derivatives at the exact x1 of
every RK4 stage without losing order.  Blow-up stops a direction and the
reached extent is reported as delta_hat for that direction (the minimum
over transverse nodes).
"""

from dataclasses import dataclass

import numpy as np

from .curvature import ConnectionField
from .errors import InvalidInit, InvalidSpec
from .grid_field import Components, TensorTube, TubeGrid, build_grid, fd_transverse
from .linalg import mirror_upper
from .ode import (
    STATUS_COMPLETE,
    GuardConfig,
    ReconstructionReport,
    march_report,
    march_tube,
)


class HypersurfaceConnectionData:
    """Connection components restricted to x1 = 0.

    ``components`` maps (h, i, j) with 1-based indices to an expression
    string, a parsed FieldExpr, or an array of transverse node samples.
    The (i, j) pair is symmetric; giving both orderings raises
    InvalidInit.  Components (h, 1, 1) must be zero.  Missing components
    default to 0.  Each stage evaluates only the components it reads.
    """

    def __init__(self, n, components=None):
        if n < 2:
            raise InvalidInit("dimension must be >= 2")
        self.n = n
        self._fields = Components("gammatilde", n, components)

    def _box(self, grid, lo, hi=None):
        return self._fields.dense(grid.transverse_mesh()[0].shape, lambda f: f.plane(grid), lo, hi)

    def validate(self, grid):
        """Check the Gamma^h_11 = 0 invariant at the transverse nodes."""
        axial = self._box(grid, (1, 1, 1), (self.n, 1, 1))[:, 0, 0]
        for h, values in enumerate(axial, start=1):
            if np.any(values != 0.0):
                raise InvalidInit(
                    f"gammatilde({h},1,1) must vanish identically "
                    "(x1 lines are canonical geodesics)"
                )

    def stage1_state0(self, grid):
        return self._box(grid, (1, 1, 2), (self.n, 1, self.n))[:, 0]

    def stage2_state0(self, grid):
        return self._box(grid, (1, 2, 2))


class ConnectionCurvatureSpec:
    """Prescribed curvature sources A^h_ik, h and i in 1..n, k in 2..n.

    A^h_i1 would be forced to zero by the antisymmetry of the curvature
    in its last index pair, so k = 1 entries are rejected rather than
    silently ignored.  The (i, k) pair is NOT symmetric.  Entries are
    expression strings, FieldExpr, ExpressionField, or SampledField on
    the tube; missing entries are zero.  Each stage evaluates only the
    sources it reads.
    """

    def __init__(self, n, entries=None):
        if n < 2:
            raise InvalidSpec("dimension must be >= 2")
        self.n = n
        self._fields = Components("A", n, entries)

    def _box(self, x1, grid, lo, hi=None):
        shape = grid.transverse_mesh()[0].shape
        return self._fields.dense(shape, lambda f: f.on_transverse(x1, grid), lo, hi)

    def stage1_plane(self, x1, grid):
        return self._box(x1, grid, (1, 1, 2), (self.n, 1, self.n))[:, 0]

    def stage2_plane(self, x1, grid):
        return self._box(x1, grid, (1, 2, 2))

    def dense_on(self, grid):
        """All prescribed values over a grid, shaped (n, n, n-1, *grid.shape)."""
        return self._fields.dense(grid.shape, lambda f: f.on_grid(grid))


# --------------------------------------------------------------- stage plumbing


@dataclass
class Stage1Solution:
    """Stage-1 trajectories with midpoint cache, on the reached grid.

    ``whole`` has shape (T, n, n-1, N) over the reached x1 samples;
    ``half_plus``/``half_minus`` hold the 4th-order midpoint values for
    the steps in each direction.  ``zero_index`` locates x1 = 0 within
    the reached grid.
    """

    grid: TubeGrid
    zero_index: int
    whole: np.ndarray
    half_plus: np.ndarray
    half_minus: np.ndarray

    def plane(self, half_key):
        """Stage-1 plane at x1 = half_key * h1/2 (half_key may be odd)."""
        if half_key % 2 == 0:
            t = self.zero_index + half_key // 2
            if not 0 <= t < self.whole.shape[0]:
                raise InvalidSpec("stage-2 asked for an x1 plane beyond stage 1's reach")
            return self.whole[t]
        if half_key > 0:
            j = (half_key - 1) // 2
            bank = self.half_plus
        else:
            j = (-half_key - 1) // 2
            bank = self.half_minus
        if not 0 <= j < bank.shape[0]:
            raise InvalidSpec("stage-2 asked for an x1 midpoint beyond stage 1's reach")
        return bank[j]


def _half_key(x, h1):
    key = int(round(x / (0.5 * h1)))
    if abs(x - key * 0.5 * h1) > 1e-9 * max(1.0, abs(x)):
        raise InvalidSpec(f"x1 = {x} is not on the half-step lattice of h1 = {h1}")
    return key


# ----------------------------------------------------------------- stage 1


def stage1_integrate(init, sources, spec, guards=None, grid=None):
    """March the axial components Gamma^h_1k from the hypersurface data.

    Returns (Stage1Solution over the reached grid, ReconstructionReport).
    The solution holds Gamma^h_1k (k >= 2) at every reached x1 sample and
    the midpoint cache that stage 2 needs.
    """
    grid = grid or build_grid(spec)
    init.validate(grid)
    state0 = init.stage1_state0(grid)
    guards = guards or GuardConfig()
    src_cache = {}

    def rhs(x, u):
        a1 = src_cache.get(x)
        if a1 is None:
            a1 = sources.stage1_plane(x, grid)
            src_cache[x] = a1
        p = np.concatenate([np.zeros_like(u[:, :1]), u], axis=1)
        return -np.einsum("qb...,aq...->ab...", u, p) + a1

    plus, minus, rgrid, whole = march_tube(rhs, grid, state0, guards, record_half=True)
    solution = Stage1Solution(
        grid=rgrid,
        zero_index=minus.steps_done,
        whole=whole,
        half_plus=plus.half_states,
        half_minus=minus.half_states,
    )
    return solution, march_report(grid, rgrid, plus, minus, whole)


# ----------------------------------------------------------------- stage 2


def stage2_integrate(
    stage1,
    init,
    sources,
    spec,
    guards=None,
    omit_quadratic_cross_term=False,
):
    """March the transverse components Gamma^h_ik (i, k >= 2).

    ``stage1`` must be the Stage1Solution returned by
    :func:`stage1_integrate` (it carries the midpoint cache).  Returns
    ("gamma2" TensorTube over slots (h, i, k), i, k >= 2, exactly
    symmetric in (i, k), ReconstructionReport).  The truncated variant
    behind ``omit_quadratic_cross_term`` exists only for regression tests.
    """
    if not isinstance(stage1, Stage1Solution):
        raise InvalidSpec(
            "stage2_integrate needs the Stage1Solution produced by "
            "stage1_integrate (midpoint cache missing)"
        )
    grid = stage1.grid
    n = grid.n
    h1 = grid.spacing(1)
    tshape = grid.transverse_shape
    state0 = init.stage2_state0(grid)
    guards = guards or GuardConfig()
    src_cache = {}
    dk_cache = {}

    def dk_plane(key):
        plane = dk_cache.get(key)
        if plane is None:
            u = stage1.plane(key).reshape((n, n - 1) + tshape)
            parts = [fd_transverse(u, axis, grid) for axis in range(2, n + 1)]
            plane = np.stack(parts, axis=2).reshape((n, n - 1, n - 1, -1))
            dk_cache[key] = plane
        return plane

    def rhs(x, w):
        key = _half_key(x, h1)
        a2 = src_cache.get(key)
        if a2 is None:
            a2 = sources.stage2_plane(x, grid)
            src_cache[key] = a2
        u = stage1.plane(key)
        p = np.concatenate([np.zeros_like(u[:, :1]), u], axis=1)
        dw = -np.einsum("qbc...,aq...->abc...", w, p) + dk_plane(key) + a2
        if not omit_quadratic_cross_term:
            dw = dw + np.einsum("b...,ac...->abc...", u[0], u)
            dw = dw + np.einsum("qb...,aqc...->abc...", u[1:], w)
        return mirror_upper(dw, axis=1)

    plus, minus, rgrid, whole = march_tube(rhs, grid, state0, guards)
    dense = np.moveaxis(whole, 0, 3).reshape((n, n - 1, n - 1) + rgrid.shape)
    gamma2 = TensorTube("gamma2", rgrid, dense, (1, 2, 2))
    return gamma2, march_report(grid, rgrid, plus, minus, whole)


# ------------------------------------------------------------- full pipeline


def reconstruct_connection(
    init,
    sources,
    spec,
    guards=None,
    grid=None,
    omit_quadratic_cross_term=False,
):
    """Stage 1 then stage 2; assembles the full Gamma^h_ij field.

    Returns (ConnectionField, ReconstructionReport).  The field lives on
    the grid both stages reached; Gamma^h_11 = 0 and the lower-index
    symmetry hold exactly by assembly.
    """
    grid = grid or build_grid(spec)
    stage1, report1 = stage1_integrate(init, sources, spec, guards=guards, grid=grid)
    stage2, report2 = stage2_integrate(
        stage1,
        init,
        sources,
        spec,
        guards=guards,
        omit_quadratic_cross_term=omit_quadratic_cross_term,
    )
    rgrid = stage2.grid
    n = grid.n
    t = rgrid.shape[0]
    lo = stage1.zero_index - rgrid.zero_index
    u = np.moveaxis(stage1.whole[lo : lo + t], 0, 2).reshape((n, n - 1) + rgrid.shape)
    dense = np.zeros((n, n, n) + rgrid.shape)
    dense[:, 0, 1:] = u
    dense[:, 1:, 0] = u
    dense[:, 1:, 1:] = stage2.dense
    conn = ConnectionField(rgrid, dense)
    complete = (
        rgrid.shape[0] == grid.shape[0]
        and report1.complete
        and report2.complete
    )
    if complete:
        status = STATUS_COMPLETE
    elif not report2.complete:
        status = report2.status
    else:
        status = report1.status
    report = ReconstructionReport(
        status=status,
        delta_hat_plus=report2.delta_hat_plus,
        delta_hat_minus=report2.delta_hat_minus,
        max_component=max(report1.max_component, report2.max_component),
        diagnostics={**report1.diagnostics, **report2.diagnostics},
    )
    return conn, report
