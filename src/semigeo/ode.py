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

The trailing axis of every state is its node axis.  Every march in the
package is one lockstep march: the state carries all its nodes on that
axis, the right-hand side sees the whole node stack at each stage, and
the guards reduce over the other (tensor) axes per node and trip on the
first offending node.  The nodes are laid out in node groups of equal
width, side by side, and each group has its own signed step and its own
x: a tube march's two directions are its two groups (the transverse
nodes stepping by +h1, then by -h1), and each geodesic shot of a chart
check is a one-node group.  The systems marched here have no coupling
between nodes, so the lockstep march is exactly a per-node march.  When
a step of all groups stops, it is replayed one group at a time, so each
group gets the stop reason and node of marching alone; a group that
stops is dropped and the others march on.

The right-hand side may also veto a stage by raising StateRejected, e.g.
when a metric determinant crosses its degeneracy threshold; the marcher
stops that group before completing that step.

A march that records midpoints runs two RK4 steps from each (x, state),
one of size h/2 and one of size h.  Their first stage is the same
``rhs(x, state)``, so the march evaluates it once and hands it to both,
and the h/2 steps march as groups of their own beside the h steps: one
``rk4_step`` and four right-hand-side calls per step of all groups.

Both reconstructions march from x1 = 0 toward each end of the tube with
``march_tube``, relay the states as tensor tubes with ``tube_dense`` and
summarize the two directions with ``march_report``.  Their prescribed
sources do not depend on the march state, so ``march_tube`` builds the
one ``SourceBank`` of each march, from the grid, midpoint recording and
plane key it marches with.  The bank evaluates every source plane the
march will read ahead of it, in batched x1 chunks at the exact x the
right-hand side receives (``tube_xs``), and the right-hand side reads
the planes of its groups' x with ``bank.planes_at(xs)`` when it needs
them.
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


def _step_x(i, h):
    """The x step i of a march of step h from x = 0 starts from.

    0.0 + keeps the first x of a negative step +0.0.
    """
    return 0.0 + i * h


def rk4_step(rhs, xs, hs, state, guards, k1=None):
    """One guarded RK4 step of node groups; returns (new_state or None, stop_reason, detail).

    The trailing axis of ``state`` holds len(xs) node groups of equal
    width side by side; group g steps by hs[g] from xs[g], and the
    right-hand side is called as ``rhs(stage_xs, stage_state)`` with one
    x per group.  ``detail`` is the flat index of the first offending
    node.  The RHS is evaluated on every stage state before that state
    is screened, so a semantic veto from the RHS (StateRejected, e.g. a
    degenerate determinant) takes precedence over the generic blow-up
    label for the same event.  Non-finite intermediates are tolerated
    and caught by the screens.  ``k1``, when given, is ``rhs(xs,
    state)`` already evaluated.
    """
    thr = guards.blowup_threshold
    # one step for every node: the groups' steps, each repeated over its nodes
    h = hs[0] if len(hs) == 1 else np.array(hs).repeat(state.shape[-1] // len(hs))
    # per-step x and steps are lists, never tuple() of a generator: CPython
    # builds that tuple outside its free list and puts it there once freed,
    # so each step would leave one more spare tuple (up to 2,000 per size)
    _, x_mid, x_end = zip(*[_stage_xs(x, hg) for x, hg in zip(xs, hs)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k1 is None:
            k1 = rhs(xs, state)
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


def _grouped_step(rhs, xs, hs, state, guards, record_half):
    """Step i of every live group at once: (new, mid), or None if anything stops it.

    With ``record_half`` the h/2 steps are groups of their own, side by
    side in front of the h steps, all launched from the shared first
    stage.
    """
    try:
        if not record_half:
            new, _, _ = rk4_step(rhs, xs, hs, state, guards)
            return None if new is None else (new, None)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k1 = rhs(xs, state)
        both, _, _ = rk4_step(
            rhs,
            xs + xs,
            [0.5 * h for h in hs] + hs,
            np.concatenate([state, state], axis=-1),
            guards,
            np.concatenate([k1, k1], axis=-1),
        )
    except (StateRejected, SemigeoError):
        return None
    if both is None:
        return None
    width = state.shape[-1]
    return both[..., width:], both[..., :width]


def _replay(rhs, x, h, state, guards, record_half):
    """One group's step alone, as a march of that group only takes it.

    Returns (new, mid, stop reason, detail): the shared first stage, the
    h/2 step when recording midpoints, then the h step.  A SemigeoError
    from the right-hand side propagates.
    """
    mid = None
    try:
        k1 = None
        if record_half:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                k1 = rhs((x,), state)
            mid, stop, detail = rk4_step(rhs, (x,), (0.5 * h,), state, guards, k1)
            if mid is None:
                return None, None, stop, detail
        new, stop, detail = rk4_step(rhs, (x,), (h,), state, guards, k1)
    except StateRejected as err:
        return None, None, err.reason, err.detail
    return new, mid, stop, detail


# A group's states (or midpoints) are written row by row into one block
# with room for all its steps, but at most BLOCK_ROWS to start with, and a
# block that fills up doubles.  A tube march of up to BLOCK_ROWS steps,
# which takes them all unless it stops, fills its block exactly, and a
# shot asked for far more steps than it takes (one that leaves the tube
# at once) holds little.  Lists of one array per group and step, the
# other way to gather them, hold an array object per row, and a tube's
# directions hold theirs all at once.
BLOCK_ROWS = 2**12


class _Rows:
    """One group's states (or midpoints), written row by row into one block."""

    def __init__(self, shape, rows):
        self._block = np.empty((max(1, min(rows, BLOCK_ROWS)),) + shape)
        self.count = 0

    def add(self, row):
        if self.count == len(self._block):
            self._block = np.concatenate([self._block, np.empty_like(self._block)])
        self._block[self.count] = row
        self.count += 1

    def last(self):
        return self._block[self.count - 1]

    def done(self):
        """The rows written: the block itself when they fill it, else a copy."""
        rows = self._block[: self.count]
        return rows if self.count == len(self._block) else rows.copy()


def _stacked(rows, live):
    """The last states of the ``live`` groups, side by side."""
    return np.concatenate([rows[g].last() for g in live], axis=-1) if live else None


def rk4_march(rhs, hs, n_steps, state0, guards=None, record_half=False):
    """March node groups in lockstep from x = 0, each with its own step.

    The trailing axis of ``state0`` holds len(hs) groups of equal width
    side by side (a single state is one group of one node).  Group g
    marches n_steps[g] steps of size hs[g]; its step i starts at
    ``_step_x(i, hs[g])``, and a group that stops or ends leaves the
    others marching on with the same step index.  The right-hand side
    is called as ``rhs(xs, state)`` with one x per group in ``state``.
    Returns one MarchResult per group.

    Each step of the live groups is one ``rk4_step``.  When it stops, or
    its right-hand side raises, that step is replayed one group at a
    time in group order (``_replay``), which gives each group the exact
    stop reason and node of marching alone, and a group that stops is
    dropped.  A SemigeoError from a group is held back while an earlier
    group still marches, and raised once none does unless an earlier
    group raises first: a march raises the error that marching its
    groups one after another would raise.

    When ``record_half`` is set, each accepted step also launches one RK4
    step of size h/2 from the whole-step state to cache the midpoint
    value; the whole-step trajectory itself is untouched by the caching.
    Both steps start at (x, state), so the right-hand side there is
    evaluated once and handed to each as its first stage.
    """
    guards = guards or GuardConfig()
    state = np.array(state0, dtype=np.float64)
    width = state.shape[-1] // len(hs)
    shape = state.shape[:-1] + (width,)
    rows = [_Rows(shape, n + 1) for n in n_steps]
    mids = [_Rows(shape, n) if record_half else None for n in n_steps]
    for g, group in enumerate(rows):
        group.add(state[..., g * width : (g + 1) * width])
    ends = [(None, None)] * len(hs)
    held = None  # (group, SemigeoError) waiting for the earlier groups to end
    live = list(range(len(hs)))
    i = 0
    # the live groups' steps, and the step index where the first of them ends
    steps, end = (), 0
    while True:
        if i == end:
            going = [g for g in live if i < n_steps[g]]
            if going != live:
                live = going
                state = _stacked(rows, live)
            if held is not None and not any(g < held[0] for g in live):
                raise held[1]
            if not live:
                break
            steps = [hs[g] for g in live]
            end = min(n_steps[g] for g in live)
        xs = [_step_x(i, h) for h in steps]
        step = _grouped_step(rhs, xs, steps, state, guards, record_half)
        i += 1
        if step is not None:
            new, mid = step
            for j, g in enumerate(live):
                rows[g].add(new[..., j * width : (j + 1) * width])
                if record_half:
                    mids[g].add(mid[..., j * width : (j + 1) * width])
            state = np.ascontiguousarray(new)
            continue
        kept = []
        for j, g in enumerate(live):
            try:
                new, mid, stop, detail = _replay(
                    rhs, xs[j], hs[g], rows[g].last(), guards, record_half
                )
            except SemigeoError as err:
                if held is None or g < held[0]:
                    held = (g, err)
                # no earlier group marches on to raise first
                if not kept:
                    raise held[1]
                continue
            if new is None:
                ends[g] = (stop, detail)
                continue
            kept.append(g)
            rows[g].add(new)
            if record_half:
                mids[g].add(mid)
        live = kept
        state = _stacked(rows, live)
        end = i
    return [
        MarchResult(r.done(), m.done() if record_half else None, r.count - 1, *end)
        for r, m, end in zip(rows, mids, ends)
    ]


def _tube_marches(grid):
    """(h, n_steps) of ``march_tube``'s plus and minus marches from x1 = 0."""
    h1 = grid.spacing(1)
    k0 = grid.zero_index
    return (h1, len(grid.x1_samples) - 1 - k0), (-h1, k0)


def tube_xs(grid, record_half=False):
    """Every x ``march_tube`` on ``grid`` asks its right-hand side for.

    The plus direction's, then the minus direction's, as if no step
    stops: the start, middle and end x of each RK4 step, repeats
    included.  The march asks for them with both directions in
    lockstep, but this order sets the source bank's chunks.  Built with
    the march's own float arithmetic, so these are the exact x it will
    use.
    """
    xs = []
    for h, n_steps in _tube_marches(grid):
        for i in range(n_steps):
            x = _step_x(i, h)
            if record_half:
                xs.extend(_stage_xs(x, 0.5 * h))
            xs.extend(_stage_xs(x, h))
    return xs


def march_tube(rhs, grid, state0, planes, guards=None, record_half=False, key=None):
    """March ``state0`` from x1 = 0 to both ends of ``grid``, all nodes in lockstep.

    The two directions are two node groups of one ``rk4_march``: the N
    nodes of ``state0`` stepping by +h1, then the same nodes stepping
    by -h1.  The right-hand side is called as ``rhs(xs, state, bank)``,
    with one x per node group of ``state`` (see ``rk4_march``), where
    ``bank`` is the SourceBank of ``planes`` for this march, built with
    the same ``record_half`` the march uses and the plane ``key``.  A
    one-node state marches its directions one after the other instead:
    ``metric_recon._quadratic``'s three-operand einsum gives other bits
    on two side-by-side nodes than on one.
    Returns (plus, minus, rgrid, whole): the two MarchResults, the grid
    restricted to the reached x1 samples, and the whole-step states
    stacked along ascending x1 (minus reversed, x1 = 0 once).
    """
    bank = SourceBank(planes, grid, record_half, key)

    def bank_rhs(xs, state):
        return rhs(xs, state, bank)

    (h_plus, steps_plus), (h_minus, steps_minus) = _tube_marches(grid)
    if state0.shape[-1] > 1:
        plus, minus = rk4_march(
            bank_rhs,
            (h_plus, h_minus),
            (steps_plus, steps_minus),
            np.concatenate([state0, state0], axis=-1),
            guards,
            record_half,
        )
    else:
        (plus,) = rk4_march(bank_rhs, (h_plus,), (steps_plus,), state0, guards, record_half)
        (minus,) = rk4_march(bank_rhs, (h_minus,), (steps_minus,), state0, guards, record_half)
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
    the march asks for it, alone, and its error names its x.  The march
    asks only for planned x (``tube_xs`` plans with the march's own
    ``_step_x`` and ``_stage_xs``), so an x outside the plan raises
    KeyError.
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

    def plane(self, x, key=None):
        """The source plane the right-hand side reads at x.

        ``key``, when given, is ``key(x)`` already computed.
        """
        if key is None:
            key = self._key(x)
        i = self._index[key]
        held = self._held[i]
        if held is None:
            held = self._fill(i)
        chunk, lo = held
        return chunk[i - lo]

    def planes_at(self, xs, keys=None):
        """The planes of the x of each node group, side by side on the node axis.

        ``keys``, when given, are ``key(x)`` of each x already computed.
        """
        return side_by_side([self.plane(x, k) for x, k in zip(xs, keys or (None,) * len(xs))])

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


def side_by_side(arrays):
    """The node groups ``arrays`` laid side by side on the node axis; one is returned as is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


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
