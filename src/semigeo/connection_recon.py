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
RK4 over all transverse nodes in lockstep, the two directions side by
side as two node groups of one march.  Stage 1 additionally records
fourth-order-accurate values at the step midpoints, with its h/2 steps
as two more groups launched from the shared first stage, and hands
stage 2 one array, ``Stage1Solution.fine``, on the half-step x1 lattice
of its reached grid.  Each stage's ``ode.march_tube`` reads the inputs
of its right-hand side other than the state ahead of the march, in
batched x1 chunks, and hands every call the planes of its x as views of
its step's row.  Stage 1's are the sources A from ``stage1_planes``.
Stage 2 keys its planes by half step (``_half_keys``, which names any
x1 off that lattice), and builds them from ``stage2_planes`` and
``fine`` one chunk at a time: A^h_ik, d_k Gamma^h_i1, Gamma^h_m1 with
Gamma^h_11 = 0 and the product Gamma^1_i1 Gamma^h_1k, the part of the
cross term free of the state.  So its right-hand side reads four views,
with no key, lookup or concatenation.
Blow-up stops a direction and the reached extent is reported as
delta_hat for that direction (the minimum over transverse nodes).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .curvature import ConnectionField
from .errors import InvalidInit, InvalidSpec
from .fd import fd_transverse
from .grid_field import Components, TensorTube, TubeGrid, build_grid
from .linalg import mirror_upper
from .ode import (
    STATUS_COMPLETE,
    ReconstructionReport,
    march_report,
    march_tube,
    tube_dense,
)


class HypersurfaceConnectionData:
    """Connection components restricted to x1 = 0.

    ``components`` maps (h, i, j) with 1-based indices to an expression
    string or the FieldExpr program ``parse_field`` makes of one, free
    of x1; any other value raises InvalidInit.  The (i, j) pair is
    symmetric; giving both orderings raises InvalidInit.
    Components (h, 1, 1) must be zero.  Missing components default to 0.
    Each stage evaluates only the components it reads.
    """

    def __init__(self, n, components=None):
        if n < 2:
            raise InvalidInit("dimension must be >= 2")
        self.n = n
        self._fields = Components("gammatilde", n, components)

    def validate(self, grid):
        """Check the Gamma^h_11 = 0 invariant at the transverse nodes."""
        axial = self._fields.on_hypersurface(grid, (1, 1, 1), (self.n, 1, 1))[:, 0, 0]
        for h, values in enumerate(axial, start=1):
            if np.any(values != 0.0):
                raise InvalidInit(
                    f"gammatilde({h},1,1) must vanish identically "
                    "(x1 lines are canonical geodesics)"
                )

    def stage1_state0(self, grid):
        return self._fields.on_hypersurface(grid, (1, 1, 2), (self.n, 1, self.n))[:, 0]

    def stage2_state0(self, grid):
        return self._fields.on_hypersurface(grid, (1, 2, 2))


class ConnectionCurvatureSpec:
    """Prescribed curvature sources A^h_ik, h and i in 1..n, k in 2..n.

    A^h_i1 would be forced to zero by the antisymmetry of the curvature
    in its last index pair, so k = 1 entries are rejected rather than
    silently ignored.  The (i, k) pair is NOT symmetric.  Entries are
    expression strings or the FieldExpr programs ``parse_field`` makes
    of them, on the tube; any other value raises InvalidSpec.  Missing
    entries are zero.  Each stage evaluates only the sources it reads.
    """

    def __init__(self, n, entries=None):
        if n < 2:
            raise InvalidSpec("dimension must be >= 2")
        self.n = n
        self._fields = Components("A", n, entries)

    def stage1_planes(self, xs, grid):
        """A^h_1k at each x1 of ``xs``, shaped (len(xs), n, n-1, N)."""
        return self._fields.planes(xs, grid, (1, 1, 2), (self.n, 1, self.n))[:, :, 0]

    def stage2_planes(self, xs, grid):
        """A^h_ik (i, k >= 2) at each x1 of ``xs``, shaped (len(xs), n, n-1, n-1, N)."""
        return self._fields.planes(xs, grid, (1, 2, 2))

    def dense_on(self, grid):
        """All prescribed values over a grid, shaped (n, n, n-1, *grid.shape)."""
        return self._fields.on_grid(grid)


# --------------------------------------------------------------- stage plumbing


@dataclass
class Stage1Solution:
    """Stage-1 states on the half-step x1 lattice of the reached grid.

    ``fine`` has shape (2T-1, n, n-1, N) in ascending x1 over the T
    reached samples of ``grid``: entry 2t is the whole-step state at
    sample t, entry 2t+1 the fourth-order midpoint value between samples
    t and t+1.  So x1 = k * h1/2 is entry k + 2 * grid.zero_index.
    """

    grid: TubeGrid
    fine: np.ndarray


def _half_keys(xs, h1):
    """The half step k of each x1 = k * h1/2 of the array ``xs``, as floats.

    InvalidSpec names the first x1 that is not on that lattice.
    """
    keys = np.rint(xs / (0.5 * h1))
    off = np.abs(xs - keys * 0.5 * h1) > 1e-9 * np.maximum(1.0, np.abs(xs))
    if np.any(off):
        x = float(xs[np.argmax(off)])
        raise InvalidSpec(f"x1 = {x} is not on the half-step lattice of h1 = {h1}")
    return keys


# ----------------------------------------------------------------- stage 1


def stage1_integrate(init, sources, spec, guards=None):
    """March the axial components Gamma^h_1k on the lattice of ``spec``.

    Returns (Stage1Solution over the reached grid, ReconstructionReport).
    The solution holds Gamma^h_1k (k >= 2) at every reached x1 sample and
    step midpoint, which stage 2 reads.
    """
    grid = build_grid(spec)
    init.validate(grid)
    state0 = init.stage1_state0(grid)

    # Gamma^h_1m with Gamma^h_11 = 0 per node count, refilled from each
    # stage state
    pads = {}

    def rhs(_xs, u, inputs):
        (a1,) = inputs
        p = pads.get(u.shape[-1])
        if p is None:
            p = pads[u.shape[-1]] = np.zeros((grid.n, grid.n, u.shape[-1]))
        p[:, 1:] = u
        return -np.einsum("qb...,aq...->ab...", u, p) + a1

    def planes(xs, grid):
        return (sources.stage1_planes(xs, grid),)

    plus, minus, rgrid, whole = march_tube(rhs, grid, state0, planes, guards, record_half=True)
    fine = np.empty((2 * len(whole) - 1,) + whole.shape[1:])
    fine[0::2] = whole
    fine[1::2] = np.concatenate([minus.half_states[::-1], plus.half_states])
    return Stage1Solution(rgrid, fine), march_report(grid, rgrid, plus, minus, whole)


# ----------------------------------------------------------------- stage 2


def stage2_integrate(stage1, init, sources, *, guards=None, omit_quadratic_cross_term=False):
    """March the transverse components Gamma^h_ik (i, k >= 2).

    ``stage1`` must be the Stage1Solution returned by
    :func:`stage1_integrate` (it carries the midpoint values).  Stage 2
    marches on its reached grid, so it takes no chart.  Returns
    ("gamma2" TensorTube over slots (h, i, k), i, k >= 2, exactly
    symmetric in (i, k), ReconstructionReport).  When stage 1 stopped
    within its first step both ways, its reached grid is the x1 = 0 plane
    alone and stage 2 returns that plane's data, complete.  The truncated
    variant behind ``omit_quadratic_cross_term`` exists only for
    regression tests.
    """
    if not isinstance(stage1, Stage1Solution):
        raise InvalidSpec(
            "stage2_integrate needs the Stage1Solution produced by "
            "stage1_integrate (midpoint values missing)"
        )
    grid = stage1.grid
    state0 = init.stage2_state0(grid)
    if grid.shape[0] == 1:
        # stage 1 stopped within its first step both ways: stage 2 holds the
        # x1 = 0 plane and has no step to take
        report = ReconstructionReport(STATUS_COMPLETE, 0.0, 0.0, float(np.max(np.abs(state0))))
        return TensorTube("gamma2", grid, tube_dense(state0[None], grid), (1, 2, 2)), report
    h1 = grid.spacing(1)
    z = 2 * grid.zero_index
    n = grid.n
    fine = stage1.fine
    cross_term = not omit_quadratic_cross_term

    def planes(xs, grid):
        """A^h_ik and the state-free terms at the half steps of ``xs``.

        The terms are d_k Gamma^h_i1, Gamma^h_m1 with Gamma^h_11 = 0 and,
        with the cross term, Gamma^m_i1 Gamma^h_mk with m = 1, the only
        part of it free of the state.
        """
        p = np.zeros((len(xs), n, n, fine.shape[-1]))
        p[:, :, 1:] = fine[(z + _half_keys(xs, h1)).astype(np.intp)]
        u = p[:, :, 1:]
        dk = np.empty((len(xs), n, n - 1, n - 1, fine.shape[-1]))
        lattice = u.reshape(u.shape[:3] + grid.transverse_shape)
        for axis in range(2, n + 1):
            dk[:, :, :, axis - 2] = fd_transverse(lattice, axis, grid).reshape(u.shape)
        terms = (sources.stage2_planes(xs, grid), dk, p)
        if cross_term:
            terms += (np.einsum("zb...,zac...->zabc...", u[:, 0], u),)
        return terms

    def rhs(_xs, w, inputs):
        a2, dk, p, *cross = inputs
        dw = -np.einsum("qbc...,aq...->abc...", w, p) + dk + a2
        if cross:
            dw = dw + cross[0]
            dw = dw + np.einsum("qb...,aqc...->abc...", p[1:, 1:], w)
        return mirror_upper(dw, axis=1)

    # keyed by half step, each plane evaluated at the first x of its key
    plus, minus, rgrid, whole = march_tube(
        rhs, grid, state0, planes, guards, key=lambda xs: _half_keys(xs, h1)
    )
    gamma2 = TensorTube("gamma2", rgrid, tube_dense(whole, rgrid), (1, 2, 2))
    return gamma2, march_report(grid, rgrid, plus, minus, whole)


# ------------------------------------------------------------- full pipeline


def reconstruct_connection(init, sources, spec, guards=None, omit_quadratic_cross_term=False):
    """Stage 1 then stage 2 on the lattice of ``spec``; assembles Gamma^h_ij.

    Returns (ConnectionField, ReconstructionReport).  The field lives on
    the grid both stages reached; Gamma^h_11 = 0 and the lower-index
    symmetry hold exactly by assembly.
    """
    stage1, report1 = stage1_integrate(init, sources, spec, guards=guards)
    stage2, report2 = stage2_integrate(
        stage1,
        init,
        sources,
        guards=guards,
        omit_quadratic_cross_term=omit_quadratic_cross_term,
    )
    rgrid = stage2.grid
    n = rgrid.n
    lo = stage1.grid.zero_index - rgrid.zero_index
    u = tube_dense(stage1.fine[2 * lo : 2 * (lo + rgrid.shape[0]) : 2], rgrid)
    dense = np.zeros((n, n, n) + rgrid.shape)
    dense[:, 0, 1:] = u
    dense[:, 1:, 0] = u
    dense[:, 1:, 1:] = stage2.dense
    # stage 2 marches on stage 1's reached grid, so the run is complete iff
    # both stages are; a stage-2 stop names the status, else stage 1's stands
    report = dataclasses.replace(
        report2,
        status=report2.status if not report2.complete else report1.status,
        max_component=max(report1.max_component, report2.max_component),
        diagnostics={**report1.diagnostics, **report2.diagnostics},
    )
    return ConnectionField(rgrid, dense), report
