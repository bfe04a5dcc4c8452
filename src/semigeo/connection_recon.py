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

from dataclasses import dataclass, field

import numpy as np

from .curvature import ConnectionField
from .errors import InvalidInit, InvalidSpec
from .expr import FieldExpr, eval_field_on, parse_field, variables
from .grid_field import (
    ExpressionField,
    TensorTube,
    TubeGrid,
    as_field,
    build_grid,
    fd_transverse,
)
from .ode import GuardConfig, rk4_march

STATUS_COMPLETE = "Complete"
STATUS_BLOWUP = "StoppedBlowup"
STATUS_DEGENERATE = "StoppedDegenerate"
STATUS_ERROR = "StoppedError"

_STOP_STATUS = {"blowup": STATUS_BLOWUP, "degenerate": STATUS_DEGENERATE}


@dataclass
class ReconstructionReport:
    """Outcome of a reconstruction march.

    ``delta_hat_plus`` / ``delta_hat_minus`` are the reached x1 extents
    (coordinates, so the minus one is <= 0); the run is Complete iff they
    equal the requested tube extents.  ``max_component`` is the largest
    absolute component value stored along the march.
    """

    status: str
    delta_hat_plus: float
    delta_hat_minus: float
    max_component: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def complete(self):
        return self.status == STATUS_COMPLETE


def _direction_status(plus_stop, minus_stop):
    for stop in (plus_stop, minus_stop):
        if stop is not None:
            return _STOP_STATUS.get(stop, STATUS_ERROR)
    return STATUS_COMPLETE


def _stop_diagnostics(grid, direction, march):
    if march.stopped is None:
        return {}
    key = f"stop_{direction}"
    note = march.stopped
    if march.stop_detail is not None:
        node = np.unravel_index(int(march.stop_detail), grid.transverse_shape)
        note = f"{note} at transverse node {tuple(int(v) for v in node)}"
    return {key: note}


# ------------------------------------------------------------- input fields


class _TransverseField:
    """Scalar data on the hypersurface: expression in x2..xn or node samples."""

    def __init__(self, value, n, what):
        self.n = n
        if isinstance(value, str):
            value = parse_field(value, n)
        if isinstance(value, ExpressionField):
            value = value.expr
        if isinstance(value, FieldExpr):
            if 1 in variables(value):
                raise InvalidInit(f"{what}: hypersurface data may not depend on x1")
            self.expr = value
            self.samples = None
        else:
            self.expr = None
            self.samples = np.asarray(value, dtype=np.float64)

    def plane(self, grid):
        """Values over the flattened transverse lattice."""
        if self.expr is not None:
            mesh = grid.transverse_mesh()
            out = eval_field_on(self.expr, (0.0,) + mesh)
            return np.broadcast_to(out, mesh[0].shape).astype(np.float64, copy=False)
        if self.samples.shape != grid.transverse_shape:
            raise InvalidInit(
                f"sampled hypersurface data shape {self.samples.shape} does not "
                f"match the transverse lattice {grid.transverse_shape}"
            )
        return self.samples.reshape(-1)


class HypersurfaceConnectionData:
    """Connection components restricted to x1 = 0.

    ``components`` maps (h, i, j) with 1-based indices to an expression
    string, a parsed FieldExpr, or an array of transverse node samples.
    The (i, j) pair is symmetric; giving both orderings with different
    data raises InvalidInit.  Components (h, 1, 1) must be zero.  Missing
    components default to 0.
    """

    def __init__(self, n, components=None):
        if n < 2:
            raise InvalidInit("dimension must be >= 2")
        self.n = n
        self._fields = {}
        for (h, i, j), value in (components or {}).items():
            if not (1 <= h <= n and 1 <= i <= n and 1 <= j <= n):
                raise InvalidInit(f"component index {(h, i, j)} outside 1..{n}")
            key = (h, min(i, j), max(i, j))
            if key in self._fields:
                raise InvalidInit(
                    f"component {key} assigned twice (symmetric orderings conflict)"
                )
            self._fields[key] = _TransverseField(value, n, f"gammatilde{key}")

    def plane(self, h, i, j, grid):
        key = (h, min(i, j), max(i, j))
        fld = self._fields.get(key)
        if fld is None:
            return np.zeros(len(grid.transverse_mesh()[0]))
        return fld.plane(grid)

    def validate(self, grid):
        """Check the Gamma^h_11 = 0 invariant at the transverse nodes."""
        for h in range(1, self.n + 1):
            if (h, 1, 1) in self._fields:
                vals = self._fields[(h, 1, 1)].plane(grid)
                if np.any(vals != 0.0):
                    raise InvalidInit(
                        f"gammatilde({h},1,1) must vanish identically "
                        "(x1 lines are canonical geodesics)"
                    )

    def stage1_state0(self, grid):
        n = grid.n
        big_n = len(grid.transverse_mesh()[0])
        state = np.zeros((n, n - 1, big_n))
        for h in range(1, n + 1):
            for k in range(2, n + 1):
                state[h - 1, k - 2] = self.plane(h, 1, k, grid)
        return state

    def stage2_state0(self, grid):
        n = grid.n
        big_n = len(grid.transverse_mesh()[0])
        state = np.zeros((n, n - 1, n - 1, big_n))
        for h in range(1, n + 1):
            for i in range(2, n + 1):
                for k in range(i, n + 1):
                    vals = self.plane(h, i, k, grid)
                    state[h - 1, i - 2, k - 2] = vals
                    state[h - 1, k - 2, i - 2] = vals
        return state


class ConnectionCurvatureSpec:
    """Prescribed curvature sources A^h_ik, h and i in 1..n, k in 2..n.

    A^h_i1 would be forced to zero by the antisymmetry of the curvature
    in its last index pair, so k = 1 entries are rejected rather than
    silently ignored.  The (i, k) pair is NOT symmetric.  Entries are
    expression strings, FieldExpr, ExpressionField, or SampledField on
    the tube; missing entries are zero.
    """

    def __init__(self, n, entries=None):
        if n < 2:
            raise InvalidSpec("dimension must be >= 2")
        self.n = n
        self._fields = {}
        for (h, i, k), value in (entries or {}).items():
            if not (1 <= h <= n and 1 <= i <= n):
                raise InvalidSpec(f"curvature source index {(h, i, k)} outside 1..{n}")
            if not 2 <= k <= n:
                raise InvalidSpec(
                    f"curvature source ({h},{i},{k}): k must be in 2..{n} "
                    "(k = 1 components vanish identically)"
                )
            if (h, i, k) in self._fields:
                raise InvalidSpec(f"curvature source {(h, i, k)} assigned twice")
            self._fields[(h, i, k)] = as_field(value, n, f"A({h},{i},{k})")

    def _plane(self, h, i, k, x1, grid):
        fld = self._fields.get((h, i, k))
        if fld is None:
            return np.zeros(len(grid.transverse_mesh()[0]))
        return np.asarray(fld.on_transverse(x1, grid), dtype=np.float64)

    def stage1_plane(self, x1, grid):
        n = grid.n
        big_n = len(grid.transverse_mesh()[0])
        out = np.zeros((n, n - 1, big_n))
        for h in range(1, n + 1):
            for k in range(2, n + 1):
                out[h - 1, k - 2] = self._plane(h, 1, k, x1, grid)
        return out

    def stage2_plane(self, x1, grid):
        n = grid.n
        big_n = len(grid.transverse_mesh()[0])
        out = np.zeros((n, n - 1, n - 1, big_n))
        for h in range(1, n + 1):
            for i in range(2, n + 1):
                for k in range(2, n + 1):
                    out[h - 1, i - 2, k - 2] = self._plane(h, i, k, x1, grid)
        return out

    def dense_on(self, grid):
        """All prescribed values over a grid, shaped (n, n, n-1, *grid.shape)."""
        n = self.n
        out = np.zeros((n, n, n - 1) + grid.shape)
        for (h, i, k), fld in self._fields.items():
            out[h - 1, i - 1, k - 2] = fld.on_grid(grid)
        return out


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


def _march_both(rhs, h1, steps_plus, steps_minus, state0, guards, record_half):
    plus = rk4_march(
        rhs, 0.0, h1, steps_plus, state0, guards, record_half=record_half, node_axis=-1
    )
    minus = rk4_march(
        rhs, 0.0, -h1, steps_minus, state0, guards, record_half=record_half, node_axis=-1
    )
    return plus, minus


def _assemble_whole(plus, minus):
    """Stack minus (reversed) and plus trajectories along ascending x1."""
    return np.concatenate([minus.states[:0:-1], plus.states], axis=0)


def _restricted(grid, plus, minus):
    k0 = grid.zero_index
    i_lo = k0 - minus.steps_done
    i_hi = k0 + plus.steps_done
    return grid.restrict_x1(i_lo, i_hi), k0 - i_lo


def _report(grid, rgrid, plus, minus, max_component):
    status = _direction_status(plus.stopped, minus.stopped)
    diagnostics = {}
    diagnostics.update(_stop_diagnostics(grid, "plus", plus))
    diagnostics.update(_stop_diagnostics(grid, "minus", minus))
    return ReconstructionReport(
        status=status,
        delta_hat_plus=float(rgrid.x1_samples[-1]),
        delta_hat_minus=float(rgrid.x1_samples[0]),
        max_component=float(max_component),
        diagnostics=diagnostics,
    )


# ----------------------------------------------------------------- stage 1


def stage1_integrate(init, sources, spec, guards=None, grid=None):
    """March the axial components Gamma^h_1k from the hypersurface data.

    Returns (TensorTube over the reached grid, ReconstructionReport).
    The tube stores slots (h, 1, k); (h, 1, 1) reads as zero.  The tube
    also carries the midpoint cache needed by stage 2 in its ``solution``
    attribute.
    """
    grid = grid or build_grid(spec)
    n = grid.n
    h1 = grid.spacing(1)
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

    k0 = grid.zero_index
    plus, minus = _march_both(rhs, h1, len(grid.x1_samples) - 1 - k0, k0, state0, guards, True)
    rgrid, rzero = _restricted(grid, plus, minus)
    whole = _assemble_whole(plus, minus)
    solution = Stage1Solution(
        grid=rgrid,
        zero_index=rzero,
        whole=whole,
        half_plus=plus.half_states,
        half_minus=minus.half_states,
    )
    tube = TensorTube("gamma1", rgrid, ((1, n), (1, 1), (1, n)), roles=("upper", "lower", "lower"))
    tshape = rgrid.transverse_shape
    for h in range(1, n + 1):
        for k in range(2, n + 1):
            tube.set_component(
                (h, 1, k), whole[:, h - 1, k - 2].reshape((whole.shape[0],) + tshape)
            )
    tube.solution = solution
    report = _report(grid, rgrid, plus, minus, np.max(np.abs(whole)) if whole.size else 0.0)
    return tube, report


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

    ``stage1`` must be the tube returned by :func:`stage1_integrate` (it
    carries the midpoint cache).  Returns (TensorTube with symmetric
    (i, k) slots, ReconstructionReport).  The truncated variant behind
    ``omit_quadratic_cross_term`` exists only for regression tests.
    """
    solution = getattr(stage1, "solution", None)
    if solution is None:
        raise InvalidSpec(
            "stage2_integrate needs the tube produced by stage1_integrate "
            "(midpoint cache missing)"
        )
    grid = solution.grid
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
            u = solution.plane(key).reshape((n, n - 1) + tshape)
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
        u = solution.plane(key)
        p = np.concatenate([np.zeros_like(u[:, :1]), u], axis=1)
        dw = -np.einsum("qbc...,aq...->abc...", w, p) + dk_plane(key) + a2
        if not omit_quadratic_cross_term:
            dw = dw + np.einsum("b...,ac...->abc...", u[0], u)
            dw = dw + np.einsum("qb...,aqc...->abc...", u[1:], w)
        for b in range(n - 1):
            for c in range(b + 1, n - 1):
                dw[:, c, b] = dw[:, b, c]
        return dw

    k0 = grid.zero_index
    plus, minus = _march_both(rhs, h1, len(grid.x1_samples) - 1 - k0, k0, state0, guards, False)
    rgrid, _ = _restricted(grid, plus, minus)
    whole = _assemble_whole(plus, minus)
    tube = TensorTube(
        "gamma2",
        rgrid,
        ((1, n), (2, n), (2, n)),
        roles=("upper", "lower", "lower"),
        sym_pairs=((1, 2),),
    )
    rtshape = rgrid.transverse_shape
    for h in range(1, n + 1):
        for i in range(2, n + 1):
            for k in range(i, n + 1):
                tube.set_component(
                    (h, i, k),
                    whole[:, h - 1, i - 2, k - 2].reshape((whole.shape[0],) + rtshape),
                )
    tube.solution_whole = whole
    report = _report(grid, rgrid, plus, minus, np.max(np.abs(whole)) if whole.size else 0.0)
    return tube, report


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
    lo = stage1.solution.zero_index - rgrid.zero_index
    u = stage1.solution.whole[lo : lo + t]
    w = stage2.solution_whole
    shape = rgrid.shape
    dense = np.zeros((n, n, n) + shape)
    for h in range(n):
        for k in range(n - 1):
            vals = u[:, h, k].reshape(shape)
            dense[h, 0, k + 1] = vals
            dense[h, k + 1, 0] = vals
        for i in range(n - 1):
            for k in range(n - 1):
                dense[h, i + 1, k + 1] = w[:, h, i, k].reshape(shape)
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
