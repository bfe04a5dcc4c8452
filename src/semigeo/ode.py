"""Fixed-step classic Runge-Kutta marching with blow-up guards.

One marcher serves every integration in the package.  The step size is
fixed (determinism comes first); robustness against finite-time blow-up
comes from guards instead of step adaptation:

* any non-finite entry, or any entry above ``blowup_threshold``, in a
  stage state or the completed step rejects the step;
* a completed step whose state grew by more than ``step_growth_limit``
  times max(1, previous magnitude) AND whose final stage slope exceeds
  ``stage_slope_ratio`` times the first stage slope (plus an absolute
  floor of 1) is treated as an unresolved pole and rejected.  The second
  condition keeps fast linear growth (constant slope) from triggering.

The trailing axis of every state is its node axis.  Every lattice
march in the package is one lockstep march: the state carries all
transverse nodes on that axis, the right-hand side sees the whole node
stack at each stage, and the guards reduce over the other (tensor) axes
per node and trip on the first offending node.  The systems marched
here have no transverse coupling, so the lockstep march is exactly a
per-node march, stopped at the first step that any node rejects.  The
geodesic shots of a chart check are one march too: the state is
(position, velocity) with one node per shot, and when a node stops the
shots relaunch the march from the last accepted states without it (the
geodesic right-hand side does not read x, so nothing else changes).

The right-hand side may also veto a stage by raising StateRejected, e.g.
when a metric determinant crosses its degeneracy threshold; the marcher
stops before completing that step.

A march that records midpoints runs two RK4 steps from each (x, state),
one of size h/2 and one of size h.  Their first stage is the same
``rhs(x, state)``, so the march evaluates it once and hands it to both
(``rk4_step``'s ``k1``): seven right-hand-side calls per step, not eight.

Both reconstructions march from x1 = 0 toward each end of the tube with
``march_tube``, relay the states as tensor tubes with ``tube_dense`` and
summarize the two directions with ``march_report``.  Their prescribed
sources do not depend on the march state, so ``march_tube`` builds the
one ``SourceBank`` of each march, from the grid, midpoint recording and
plane key it marches with.  The bank evaluates every source plane the
march will read ahead of it, in batched x1 chunks at the exact x the
right-hand side receives (``tube_xs``), and the right-hand side reads
each plane with ``bank.plane(x)`` when it needs it.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SemigeoError


class StateRejected(Exception):
    """Raised by an RHS callback to stop the march before this step."""

    def __init__(self, reason, detail=None):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


@dataclass
class GuardConfig:
    blowup_threshold: float = 1e6
    step_growth_limit: float = 10.0
    stage_slope_ratio: float = 5.0


@dataclass
class MarchResult:
    """Trajectory from one direction of a march.

    ``states`` has shape (steps_done + 1, *state_shape); ``half_states``
    (when recorded) has shape (steps_done, *state_shape) and holds
    fourth-order-accurate values at the step midpoints.  ``stopped`` is
    None for a completed march, else 'blowup' or the StateRejected reason.
    ``stop_detail`` is the offending flat node index when known.
    """

    states: np.ndarray
    half_states: np.ndarray
    steps_done: int
    stopped: str
    stop_detail: object


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


def _per_node_max(values):
    """max |values| per node, reduced over every axis but the trailing one."""
    return np.abs(values).reshape((-1, values.shape[-1])).max(axis=0)


def _bad_nodes(state, threshold):
    # one reduction screens the common case; NaN fails it, like any bad node
    if abs(state).max() <= threshold:
        return False, None
    bad = ~np.isfinite(state) | (np.abs(state) > threshold)
    per_node = bad.reshape((-1, bad.shape[-1])).any(axis=0)
    if not np.any(per_node):
        return False, None
    return True, int(np.argmax(per_node))


def _stage_xs(x, h):
    """The x of the RK4 stages of a step of size h from x: start, middle, end."""
    return x, x + 0.5 * h, x + h


def _step_starts(x0, h, n_steps):
    """The x each of ``rk4_march``'s steps starts from, made as it is asked for."""
    return (x0 + i * h for i in range(n_steps))


def rk4_step(rhs, x, h, state, guards, k1=None):
    """One guarded RK4 step; returns (new_state or None, stop_reason, detail).

    The trailing axis of ``state`` is the node axis; ``detail`` is the
    flat index of the first offending node.  The RHS is evaluated on
    every stage state before that state is screened, so a semantic veto
    from the RHS (StateRejected, e.g. a degenerate determinant) takes
    precedence over the generic blow-up label for the same event.
    Non-finite intermediates are tolerated and caught by the screens.
    ``k1``, when given, is ``rhs(x, state)`` already evaluated.
    """
    thr = guards.blowup_threshold
    _, x_mid, x_end = _stage_xs(x, h)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k1 is None:
            k1 = rhs(x, state)
        s2 = state + (0.5 * h) * k1
        k2 = rhs(x_mid, s2)
        bad, node = _bad_nodes(s2, thr)
        if bad:
            return None, "blowup", node
        s3 = state + (0.5 * h) * k2
        k3 = rhs(x_mid, s3)
        bad, node = _bad_nodes(s3, thr)
        if bad:
            return None, "blowup", node
        s4 = state + h * k3
        k4 = rhs(x_end, s4)
        bad, node = _bad_nodes(s4, thr)
        if bad:
            return None, "blowup", node
        new = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad, node = _bad_nodes(new, thr)
        if bad:
            return None, "blowup", node
        # a node can only have grown past limit * (1 + max|state|) >= limit
        # if the whole state changed by more than limit somewhere
        change = new - state
        if abs(change).max() <= guards.step_growth_limit:
            return new, None, None
        growth = _per_node_max(change) > guards.step_growth_limit * (
            1.0 + _per_node_max(state)
        )
        if np.any(growth):
            superlinear = _per_node_max(k4) > guards.stage_slope_ratio * _per_node_max(k1) + 1.0
            pole = growth & superlinear
            if np.any(pole):
                return None, "blowup", int(np.argmax(pole))
    return new, None, None


def rk4_march(rhs, x0, h, n_steps, state0, guards=None, record_half=False):
    """March ``n_steps`` fixed steps of size h from (x0, state0).

    The trailing axis of ``state0`` is the node axis (length 1 for a
    single state, such as a lone geodesic shot).

    When ``record_half`` is set, each accepted step also launches one RK4
    step of size h/2 from the whole-step state to cache the midpoint
    value; the whole-step trajectory itself is untouched by the caching.
    Both steps start at (x, state), so the right-hand side there is
    evaluated once and handed to each as its first stage.
    """
    guards = guards or GuardConfig()
    state = np.array(state0, dtype=np.float64)
    states = [state]
    halves = []
    stopped = None
    detail = None
    done = 0
    for x in _step_starts(x0, h, n_steps):
        try:
            k1 = None
            if record_half:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    k1 = rhs(x, state)
                mid, mid_stop, mid_detail = rk4_step(rhs, x, 0.5 * h, state, guards, k1)
                if mid is None:
                    stopped, detail = mid_stop or "blowup", mid_detail
                    break
            new, stopped, detail = rk4_step(rhs, x, h, state, guards, k1)
        except StateRejected as stop:
            stopped = stop.reason
            detail = stop.detail
            break
        if new is None:
            break
        if record_half:
            halves.append(mid)
        states.append(new)
        state = new
        done += 1
    if record_half:
        half_states = np.array(halves) if halves else np.empty((0,) + state.shape)
    else:
        half_states = None
    return MarchResult(
        states=np.array(states),
        half_states=half_states,
        steps_done=done,
        stopped=stopped,
        stop_detail=detail,
    )


def _tube_marches(grid):
    """(h, n_steps) of ``march_tube``'s plus and minus marches from x1 = 0."""
    h1 = grid.spacing(1)
    k0 = grid.zero_index
    return (h1, len(grid.x1_samples) - 1 - k0), (-h1, k0)


def tube_xs(grid, record_half=False):
    """Every x ``march_tube`` on ``grid`` asks its right-hand side for.

    In march order (plus, then minus), as if no step stops: the start,
    middle and end x of each RK4 step, repeats included.  Built with the
    march's own float arithmetic, so these are the exact x it will use.
    """
    xs = []
    for h, n_steps in _tube_marches(grid):
        for x in _step_starts(0.0, h, n_steps):
            if record_half:
                xs.extend(_stage_xs(x, 0.5 * h))
            xs.extend(_stage_xs(x, h))
    return xs


def march_tube(rhs, grid, state0, planes, guards=None, record_half=False, key=None):
    """March ``state0`` from x1 = 0 to both ends of ``grid``, all nodes in lockstep.

    The right-hand side is called as ``rhs(x, state, bank)``, where
    ``bank`` is the SourceBank of ``planes`` for this march, built with
    the same ``record_half`` the march uses and the plane ``key``.
    Returns (plus, minus, rgrid, whole): the two MarchResults, the grid
    restricted to the reached x1 samples, and the whole-step states
    stacked along ascending x1 (minus reversed, x1 = 0 once).
    """
    bank = SourceBank(planes, grid, record_half, key)

    def bank_rhs(x, state):
        return rhs(x, state, bank)

    (h_plus, steps_plus), (h_minus, steps_minus) = _tube_marches(grid)
    plus = rk4_march(bank_rhs, 0.0, h_plus, steps_plus, state0, guards, record_half)
    minus = rk4_march(bank_rhs, 0.0, h_minus, steps_minus, state0, guards, record_half)
    rgrid = grid.restrict_x1(steps_minus - minus.steps_done, steps_minus + plus.steps_done)
    whole = np.concatenate([minus.states[:0:-1], plus.states], axis=0)
    return plus, minus, rgrid, whole


# Most points (x1 keys times transverse nodes) one batched source
# evaluation covers.  It keeps each evaluator temporary at 256 KB however
# long the march, while one call per 2^15 points, instead of one per
# plane of 3 to a few thousand nodes, leaves no per-call cost to speak of.
CHUNK_POINTS = 2**15


class SourceBank:
    """The source planes one ``march_tube`` run reads, evaluated ahead of it.

    ``planes(xs, grid)`` returns the sources at each x1 of the array
    ``xs`` over the flattened transverse lattice, stacked on a leading
    axis.  The bank plans the x the march will ask for (``tube_xs``)
    and splits them, in march order, into chunks of at most
    CHUNK_POINTS points.  The first request for a planned x evaluates
    its whole chunk in one ``planes`` call.  ``key(x)`` (default x
    itself) names the plane an x reads; a key's plane is evaluated at
    the first x of that key in march order.

    A chunk whose evaluation raises SemigeoError is split in halves and
    the half holding the requested key is evaluated, halving again only
    while the half fails; the other half stays a pending chunk.  So a
    key the march never reaches cannot raise, a failing key raises when
    the march asks for it, alone, and its error names its x.  An x
    outside the plan is evaluated alone, memoised and counted in
    ``misses``: correct, only slower.
    """

    def __init__(self, planes, grid, record_half=False, key=None):
        self._planes = planes
        self._grid = grid
        self._key = key or (lambda x: x)
        # per key, its index; per index, the first x of its key, where
        # its plane is evaluated
        self._index = {}
        first = []
        for x in tube_xs(grid, record_half):
            k = self._key(x)
            if k not in self._index:
                self._index[k] = len(first)
                first.append(x)
        self._xs = np.array(first, dtype=np.float64)
        per = max(1, CHUNK_POINTS // math.prod(grid.transverse_shape))
        # where each chunk begins in _xs, ascending; a chunk ends where
        # the next begins
        self._starts = list(range(0, len(first), per))
        # per key index, (evaluated chunk, its first index) once evaluated:
        # one tuple per chunk, shared by its keys
        self._held = [None] * len(first)
        self._missed = {}
        self.misses = 0

    def plane(self, x, key=None):
        """The source plane the right-hand side reads at x.

        ``key``, when given, is ``key(x)`` already computed.
        """
        if key is None:
            key = self._key(x)
        i = self._index.get(key)
        if i is None:
            return self._miss(key, x)
        held = self._held[i]
        if held is None:
            held = self._fill(i)
        chunk, lo = held
        return chunk[i - lo]

    def _miss(self, key, x):
        plane = self._missed.get(key)
        if plane is None:
            self.misses += 1
            plane = self._missed[key] = self._planes(np.array([x]), self._grid)[0]
        return plane

    def _fill(self, i):
        c = bisect.bisect_right(self._starts, i)
        lo = self._starts[c - 1]
        hi = self._starts[c] if c < len(self._starts) else len(self._xs)
        while True:
            try:
                planes = self._planes(self._xs[lo:hi], self._grid)
            except SemigeoError:
                if hi - lo == 1:
                    raise
                mid = (lo + hi) // 2
                bisect.insort(self._starts, mid)
                lo, hi = (lo, mid) if i < mid else (mid, hi)
            else:
                held = (planes, lo)
                self._held[lo:hi] = [held] * (hi - lo)
                return held


def tube_dense(whole, grid):
    """March states (x1, *slots, node) relaid as a TensorTube array on ``grid``.

    ``grid`` is the grid the states cover (the reached grid of
    ``march_tube``); the result has shape (*slots, *grid.shape).
    """
    return np.moveaxis(whole, 0, -2).reshape(whole.shape[1:-1] + grid.shape)


def _stop_note(grid, march):
    note = march.stopped
    if march.stop_detail is not None:
        node = np.unravel_index(int(march.stop_detail), grid.transverse_shape)
        note = f"{note} at transverse node {tuple(int(v) for v in node)}"
    return note


def march_report(grid, rgrid, plus, minus, whole):
    """ReconstructionReport of a ``march_tube`` run over ``grid``.

    The status is the first stop (plus, then minus) or Complete; each
    stopped direction adds a ``stop_plus``/``stop_minus`` diagnostic.
    """
    status = STATUS_COMPLETE
    diagnostics = {}
    for direction, march in (("plus", plus), ("minus", minus)):
        if march.stopped is not None:
            if status == STATUS_COMPLETE:
                status = _STOP_STATUS.get(march.stopped, STATUS_ERROR)
            diagnostics[f"stop_{direction}"] = _stop_note(grid, march)
    return ReconstructionReport(
        status=status,
        delta_hat_plus=float(rgrid.x1_samples[-1]),
        delta_hat_minus=float(rgrid.x1_samples[0]),
        max_component=float(np.max(np.abs(whole))),
        diagnostics=diagnostics,
    )
