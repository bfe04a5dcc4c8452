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
summarize the two directions with ``march_report``.  The inputs of
their right-hand sides other than the state are known functions of x1,
so ``march_tube`` builds each march's ``SourceBank``, which evaluates
them ahead of the march and lays them out by step.  Every march calls
``rhs(xs, state, inputs)``, ``inputs`` being the parts of the planes of
its x (none for a geodesic shot).
"""

import bisect
import itertools
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
    # one reduction screens the common case; NaN fails it, like any bad node.
    # The ufunc's own reduce is ndarray.max without its Python wrapper
    if np.maximum.reduce(abs(state), None) <= threshold:
        return False, None
    bad = ~np.isfinite(state) | (np.abs(state) > threshold)
    per_node = bad.reshape((-1, bad.shape[-1])).any(axis=0)
    if not np.any(per_node):
        return False, None
    return True, int(np.argmax(per_node))


# the stage inputs of a march without any: every call is handed no parts
_NO_INPUTS = ((), (), ())


def _node_steps(hs, nodes):
    """Each of ``nodes`` nodes' step h, h/2 and h/6: its group's, repeated over the group."""
    h = np.array(hs).repeat(nodes // len(hs))
    return h, 0.5 * h, h / 6.0


def rk4_step(rhs, xs, hs, state, guards, k1=None, inputs=_NO_INPUTS, steps=None):
    """One guarded RK4 step of node groups; returns (new_state or None, stop_reason, detail).

    The trailing axis of ``state`` holds len(xs) node groups of equal
    width side by side; group g steps by hs[g] from xs[g], and the
    right-hand side is called as ``rhs(stage_xs, stage_state,
    stage_inputs)`` with one x per group.  ``inputs`` are the stage
    inputs of the k1 call, of the k2 and k3 calls (they share their x)
    and of the k4 call.  ``detail`` is the flat index of the first
    offending node.  The RHS is evaluated on every stage state before
    that state is screened, so a semantic veto from the RHS
    (StateRejected, e.g. a degenerate determinant) takes precedence over
    the generic blow-up label for the same event.  Non-finite
    intermediates are tolerated and caught by the screens.  ``k1`` and
    ``steps``, when given, are ``rhs(xs, state, inputs[0])`` and
    ``_node_steps(hs, nodes)`` already evaluated.
    """
    thr = guards.blowup_threshold
    h, half, sixth = steps or _node_steps(hs, state.shape[-1])
    # lists, not tuple() of a generator, which CPython builds outside its
    # free list and frees into it: a spare tuple per step (up to 2,000)
    x_mid = [x + 0.5 * hg for x, hg in zip(xs, hs)]
    x_end = [x + hg for x, hg in zip(xs, hs)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k1 is None:
            k1 = rhs(xs, state, inputs[0])
        s2 = state + half * k1
        k2 = rhs(x_mid, s2, inputs[1])
        bad, node = _bad_nodes(s2, thr)
        if bad:
            return None, "blowup", node
        s3 = state + half * k2
        k3 = rhs(x_mid, s3, inputs[1])
        bad, node = _bad_nodes(s3, thr)
        if bad:
            return None, "blowup", node
        s4 = state + h * k3
        k4 = rhs(x_end, s4, inputs[2])
        bad, node = _bad_nodes(s4, thr)
        if bad:
            return None, "blowup", node
        new = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad, node = _bad_nodes(new, thr)
        if bad:
            return None, "blowup", node
        # a node can only have grown past limit * (1 + max|state|) >= limit
        # if the whole state changed by more than limit somewhere
        change = new - state
        if np.maximum.reduce(abs(change), None) <= guards.step_growth_limit:
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


def _grouped_step(rhs, xs, hs, state, guards, record_half, inputs, steps):
    """Step i of every live group at once: (new, mid), or None if anything stops it.

    ``inputs`` are the stage inputs of its k1, k2/k3 and k4 calls, and
    ``hs`` and ``steps`` the ``rk4_step``'s.  With ``record_half`` the
    h/2 steps are groups of their own, first in ``hs`` and side by side
    in front of the h steps, all launched from the shared first stage.
    """
    try:
        if not record_half:
            new, _, _ = rk4_step(rhs, xs, hs, state, guards, None, inputs, steps)
            return None if new is None else (new, None)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k1 = rhs(xs, state, inputs[0])
        both, _, _ = rk4_step(
            rhs,
            xs + xs,
            hs,
            np.concatenate([state, state], axis=-1),
            guards,
            np.concatenate([k1, k1], axis=-1),
            inputs,
            steps,
        )
    except (StateRejected, SemigeoError):
        return None
    if both is None:
        return None
    width = state.shape[-1]
    return both[..., width:], both[..., :width]


def _replay(rhs, x, h, state, guards, half, whole):
    """One group's step alone, as a march of that group only takes it.

    Returns (new, mid, stop reason, detail): the shared first stage, the
    h/2 step when recording midpoints (``half`` is not None), then the h
    step.  ``half`` and ``whole`` are the stage inputs of each step's
    calls.  A SemigeoError from the right-hand side propagates.
    """
    mid = None
    try:
        k1 = None
        if half is not None:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                k1 = rhs((x,), state, half[0])
            mid, stop, detail = rk4_step(rhs, (x,), (0.5 * h,), state, guards, k1, half)
            if mid is None:
                return None, None, stop, detail
        new, stop, detail = rk4_step(rhs, (x,), (h,), state, guards, k1, whole)
    except StateRejected as err:
        return None, None, err.reason, err.detail
    return new, mid, stop, detail


# A shot's states (or a group's midpoints) are written row by row into one
# block with room for all its steps, but at most BLOCK_ROWS to start
# with, and a block that fills up doubles.  A shot asked for far more
# steps than it takes (one that leaves the tube at once) so holds little.
# A tube march's step counts are exact: a trajectory of at least
# TRACK_BYTES is written straight into the array ``march_tube`` returns,
# and a smaller one into blocks stacked after the march.  Written
# straight, the small trajectories of the connection round trips saved
# at most 0.3 MB but raised their peak RSS by 0.1-0.4 MB through glibc's
# heap layout.  Lists of one array per group and step, the other way to
# gather them, hold an array object per row.
BLOCK_ROWS = 2**12
TRACK_BYTES = 2**19


class _Rows:
    """One group's states (or midpoints), written row by row.

    They go into ``out`` when given, an array of room for every row, and
    else into a block of their own.
    """

    def __init__(self, shape, rows, out=None):
        self._own = out is None
        self._block = np.empty((max(1, min(rows, BLOCK_ROWS)),) + shape) if self._own else out
        self.count = 0

    def add(self, row):
        if self.count == len(self._block):
            self._block = np.concatenate([self._block, np.empty_like(self._block)])
        self._block[self.count] = row
        self.count += 1

    def last(self):
        return self._block[self.count - 1]

    def done(self):
        """The rows written: a view, or a copy of part of a block of their own."""
        rows = self._block[: self.count]
        return rows.copy() if self._own and self.count < len(self._block) else rows


def _stacked(rows, live):
    """The last states of the ``live`` groups, side by side."""
    return np.concatenate([rows[g].last() for g in live], axis=-1) if live else None


# The column ranges of a one-group row that a replay's h/2 and h steps
# read, without and with ``record_half`` (its row then holds the middle
# of the h/2 step between the start and the middle)
_REPLAY_CALLS = {
    False: (None, ((0, 1), (1, 2), (2, 3))),
    True: (((0, 1), (1, 2), (2, 3)), ((0, 1), (2, 3), (3, 4))),
}


class _Unread:
    """Stage inputs that failed to evaluate: reading their parts raises the error.

    A right-hand side that vetoes its stage state before it reads its
    inputs so stops the march, as it did when each call evaluated its
    own inputs on reading them.
    """

    def __init__(self, error):
        self.error = error

    def __iter__(self):
        raise self.error


def rk4_march(rhs, hs, n_steps, state0, guards=None, record_half=False, inputs=None, out=None):
    """March node groups in lockstep from x = 0, each with its own step.

    The trailing axis of ``state0`` holds len(hs) groups of equal width
    side by side (a single state is one group of one node).  Group g
    marches n_steps[g] steps of size hs[g]; its step i starts at x =
    0.0 + i * hs[g] (0.0 + keeps a negative step's first x +0.0), and a
    group that stops or ends leaves the others marching on with the
    same step index.  The right-hand side is called as ``rhs(xs, state,
    stage_inputs)`` with one x per group in ``state``.  ``inputs(i,
    live, calls=None)``, a ``SourceBank``'s ``step``, gives the stage
    inputs of step i's k1, k2/k3 and k4 calls of the groups ``live``
    (ascending): the parts of the planes of their x side by side, read
    from a row that holds the groups' stage x one stage after another,
    the column ranges ``calls`` of it when given.  Without ``inputs``
    every call is handed no parts.  ``out``, when given,
    holds per group an array of n_steps[g] + 1 rows that its states are
    written into, row 0 the initial state.  Returns one MarchResult per
    group; with ``out`` each one's ``states`` is the view of its array
    that the march reached.

    Each step of the live groups is one ``rk4_step``, handed their
    ``_node_steps`` built where the live groups change, and the stage
    inputs of the live groups.  When a step stops, or its right-hand
    side raises, it is replayed one group at a time in group order
    (``_replay``), reading the columns ``_REPLAY_CALLS`` of the group's
    own row, which gives each group the exact stop reason and node
    of marching alone, and a group that stops is dropped.  A
    SemigeoError from a group is held back while an earlier group still
    marches, and raised once none does unless an earlier group raises
    first: a march raises the error that marching its groups one after
    another would raise.

    When ``record_half`` is set, each accepted step also launches one RK4
    step of size h/2 from the whole-step state to cache the midpoint
    value; the whole-step trajectory itself is untouched by the caching.
    Both steps start at (x, state), so the right-hand side there is
    evaluated once and handed to each as its first stage.
    """
    guards = guards or GuardConfig()
    inputs = inputs or (lambda *_: _NO_INPUTS)
    state = np.array(state0, dtype=np.float64)
    width = state.shape[-1] // len(hs)
    shape = state.shape[:-1] + (width,)
    rows = [_Rows(shape, n + 1, o) for n, o in zip(n_steps, out or [None] * len(hs))]
    mids = [_Rows(shape, n) if record_half else None for n in n_steps]
    for g, group in enumerate(rows):
        group.add(state[..., g * width : (g + 1) * width])
    ends = [(None, None)] * len(hs)
    held = None  # (group, SemigeoError) waiting for the earlier groups to end
    live = list(range(len(hs)))
    i = 0
    # the live groups' steps, and rk4_step's hs and steps; the next step
    # index where a group's steps end
    steps, step_hs, node_steps, end = (), [], None, 0
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
            step_hs = [0.5 * h for h in steps] + steps if record_half else steps
            node_steps = _node_steps(step_hs, len(step_hs) * width)
            end = min(n for n in n_steps if n > i)
        xs = [0.0 + i * h for h in steps]
        reads = inputs(i, live)
        step = _grouped_step(rhs, xs, step_hs, state, guards, record_half, reads, node_steps)
        if step is not None:
            i += 1
            new, mid = step
            for j, g in enumerate(live):
                rows[g].add(new[..., j * width : (j + 1) * width])
                if record_half:
                    mids[g].add(mid[..., j * width : (j + 1) * width])
            state = np.ascontiguousarray(new)
            continue
        kept = []
        for j, g in enumerate(live):
            half, whole = _REPLAY_CALLS[record_half]
            half, whole = half and inputs(i, [g], half), inputs(i, [g], whole)
            try:
                new, mid, stop, detail = _replay(
                    rhs, xs[j], hs[g], rows[g].last(), guards, half, whole
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
        i += 1
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


def _march_xs(h, n_steps, record_half):
    """The distinct stage x of each step of a march of step h from x = 0.

    Shaped (n_steps, 4) with ``record_half``, else (n_steps, 3): per
    step its start, the middle of its h/2 step (with ``record_half``),
    its middle and its end, the order the march first asks for them in.
    Built with the float arithmetic of ``rk4_march`` and ``rk4_step``
    (0.0 + i * h, x + 0.5 * h and x + h), so these are the exact x they use.
    """
    x = 0.0 + np.arange(n_steps, dtype=np.float64) * h
    quarter = [x + 0.5 * (0.5 * h)] if record_half else []
    return np.stack([x] + quarter + [x + 0.5 * h, x + h], axis=1)


def march_tube(rhs, grid, state0, planes, guards=None, record_half=False, key=None):
    """March ``state0`` from x1 = 0 to both ends of ``grid``, all nodes in lockstep.

    The two directions are two node groups of one ``rk4_march``: the N
    nodes of ``state0`` stepping by +h1, then the same nodes stepping
    by -h1.  The right-hand side is called as ``rhs(xs, state,
    stage_inputs)``, with one x per node group of ``state`` (see
    ``rk4_march``), where ``stage_inputs`` are the planes of ``planes``
    at those x side by side, read from this march's SourceBank, built
    with the same ``record_half`` the march uses and the plane ``key``.
    Returns (plus, minus, rgrid, whole): the two MarchResults, the grid
    restricted to the reached x1 samples, and the whole-step states
    along ascending x1 (minus reversed, x1 = 0 once).  Each
    MarchResult's ``states`` are a view of ``whole``, so the trajectory
    is held once.  A trajectory of at least TRACK_BYTES gets one array
    with a row per x1 sample of ``grid`` before the march, which writes
    the plus states into its rows from x1 = 0 up and the minus states
    into its rows from x1 = 0 down; ``whole`` is its reached rows, never
    copied.  A smaller one is stacked from the march's blocks.  The bank
    is dropped once the march returns.
    """
    (h_plus, steps_plus), (h_minus, steps_minus) = _tube_marches(grid)
    shape = (len(grid.x1_samples),) + state0.shape
    track = np.empty(shape) if 8 * math.prod(shape) >= TRACK_BYTES else None
    plus, minus = rk4_march(
        rhs,
        (h_plus, h_minus),
        (steps_plus, steps_minus),
        np.concatenate([state0, state0], axis=-1),
        guards,
        record_half,
        SourceBank(planes, grid, record_half, key).step,
        None if track is None else (track[steps_minus:], track[steps_minus::-1]),
    )
    k = minus.steps_done
    rgrid = grid.restrict_x1(steps_minus - k, steps_minus + plus.steps_done)
    if track is None:
        whole = np.concatenate([minus.states[:0:-1], plus.states])
    else:
        whole = track[steps_minus - k : steps_minus - k + len(rgrid.x1_samples)]
    plus.states, minus.states = whole[k:], whole[k::-1]
    return plus, minus, rgrid, whole


# Most points (x1 keys times transverse nodes) one batched source
# evaluation covers.  It keeps each evaluator temporary at 256 KB however
# long the march, while one call per 2^15 points, instead of one per
# plane of 3 to a few thousand nodes, leaves no per-call cost to speak of.
CHUNK_POINTS = 2**15

# Most bytes one block of step rows holds, unless one row takes more.  A
# block is all the row layout adds to the chunks, while on a few nodes
# one block still serves tens to hundreds of steps.
ROW_BYTES = 2**16


class SourceBank:
    """The state-free inputs one ``march_tube`` run reads, laid out by step.

    ``planes(xs, grid)`` returns the inputs at each x1 of the array
    ``xs`` over the flattened transverse lattice as a tuple of parts,
    each (len(xs), *slots, N).  ``key(xs)`` (default the x themselves)
    names the planes each x reads.  The distinct keys of every stage x
    of every step (``_march_xs``), plus direction first, are split into
    chunks of at most CHUNK_POINTS points, each key evaluated at its
    first x.

    ``step`` serves the one march of both directions.  Its step i of
    the live directions reads row i of one padded key table of shape
    (steps, stages, directions) sliced to them, a view: the stage keys
    one stage after another, the directions side by side, so each
    lockstep call reads one column range of the row, also after one
    direction stops or ends.  When the march reaches a step, the row's
    keys not evaluated yet are, in column order, each evaluating
    its whole chunk in one ``planes`` call.  A chunk that raises
    SemigeoError is split in halves and the half holding the key is
    evaluated, halving again only while it fails; the other half stays
    pending.  A key that fails alone is kept with its error, which the
    call reading it raises when it reads its parts (``_Unread``).  So a
    key the march never reaches cannot raise, and the error names the x
    that failed; a stopped direction's later keys are evaluated only in
    chunks that hold keys the march reads.  Rows of the live directions
    are gathered from the chunks into one block of at most ROW_BYTES at
    a time, built again where the live directions change.  Every chunk
    is kept until the march ends, and the bank dies then: freeing
    megabyte chunks mid-march raises glibc's dynamic mmap threshold,
    which raised a wide march's peak RSS by about 1 MB.
    """

    def __init__(self, planes, grid, record_half=False, key=None):
        self._planes = planes
        self._grid = grid
        self._width = math.prod(grid.transverse_shape)
        marches = _tube_marches(grid)
        xs = [_march_xs(h, n, record_half) for h, n in marches]
        keys = [x if key is None else key(x.ravel()).reshape(x.shape) for x in xs]
        # Along a direction the stage x move on by h/4 or more, except from
        # a step's end to the next step's start, which may read one key;
        # the directions share only their first start, x1 = 0.  So every
        # other stage x is the first of a new key, the keys being the x or
        # the half steps of a march without midpoints, and no key needs
        # looking up.
        new = [np.ones(x.shape, dtype=bool) for x in xs]
        for fresh, k in zip(new, keys):
            fresh[1:, 0] = k[1:, 0] != k[:-1, -1]
        shared = min(marches[0][1], marches[1][1]) > 0 and keys[1][0, 0] == keys[0][0, 0]
        if shared:
            new[1][0, 0] = False
        # per key, in march order, its first x, where its planes are evaluated
        self._xs = np.concatenate([x[fresh] for x, fresh in zip(xs, new)])
        # the index of each stage x's key, in march order.  Counted in Python:
        # a run uses numpy's integer kernels nowhere else, and the first
        # call of one maps 64-128 KB more of numpy into the process
        fresh = np.concatenate(new, axis=None).tolist()
        index = np.array(list(itertools.accumulate(fresh, initial=-1))[1:])
        # laid out per step, stage and direction; a direction's steps past
        # its last hold len(_xs), a key never evaluated, so no block of
        # rows reaches past them
        self._keys = np.full((max(n for _, n in marches), xs[0].shape[1], 2), len(self._xs))
        for d, ix in enumerate(np.split(index, [xs[0].size])):
            self._keys[: len(xs[d]), :, d] = ix.reshape(xs[d].shape)
        if shared:
            self._keys[0, 0, 1] = 0
        per = max(1, CHUNK_POINTS // self._width)
        # where each chunk begins in _xs, ascending; a chunk ends where
        # the next begins
        self._starts = list(range(0, len(self._xs), per))
        self._done = np.zeros(len(self._xs) + 1, dtype=bool)
        # per evaluated key, the first key of its chunk (a float, compared
        # with numpy's float kernels for the same reason) and its place there
        self._chunk = np.empty(len(self._xs))
        self._place = np.empty(len(self._xs), dtype=np.intp)
        # per key that failed alone, its error
        self._failed = {}
        # the evaluated chunks: (first key, parts)
        self._held = []
        # (first row, end row, directions, parts, each call's columns of them)
        self._block = None

    def step(self, r, live, calls=None):
        """The stage inputs of row r's k1, k2/k3 and k4 calls of the directions ``live``.

        ``live`` are the directions that march step r, ascending (of
        two directions, always one range of them).  ``calls`` are the
        column range (a, b) of the row each call reads, a replay's; None
        reads the lockstep march's.  Each call is handed a view of the
        row; if a key of the row failed to evaluate, its parts gathered,
        or ``_Unread`` of the error of the first failed key it reads.
        """
        block = self._block
        if block is None or not block[0] <= r < block[1] or block[2] != live:
            block = self._build(r, live)
        if block is None:
            row = self._keys[r, :, live[0] : live[-1] + 1].ravel()
            return [self._read(row[a:b]) for a, b in calls or self._lockstep(live)]
        j = r - block[0]
        if calls is None:
            k1, k23, k4 = block[4]
            return [v[j] for v in k1], [v[j] for v in k23], [v[j] for v in k4]
        w = self._width
        return [[part[j, ..., a * w : b * w] for part in block[3]] for a, b in calls]

    def _lockstep(self, live):
        """The column ranges of the lockstep k1, k2/k3 and k4 calls of a row of ``live``."""
        g, stages = len(live), self._keys.shape[1]
        return (0, g), (g, (stages - 1) * g), (2 * g, stages * g)

    def _read(self, keys):
        """The planes of ``keys`` side by side, or ``_Unread`` of the first that failed."""
        failed = [k for k in keys if k in self._failed]
        if failed:
            return _Unread(self._failed[failed[0]])
        return [part[0] for part in self._gather(keys[None])]

    def _build(self, r, live):
        """The block of evaluated rows of ``live`` from r, or None if a key of row r fails.

        Row r's keys are evaluated first, in column order; a key that
        fails is kept with its error, for the call that reads it to raise.
        """
        self._block = None
        keys = self._keys[:, :, live[0] : live[-1] + 1]
        row = keys[r].ravel()
        for k in row.tolist():
            if not self._done[k] and k not in self._failed:
                try:
                    self._fill(k)
                except SemigeoError as err:
                    self._failed[k] = err
        if not self._done[row].all():
            return None
        cap = max(1, ROW_BYTES // (len(row) * sum(p[0].nbytes for p in self._held[-1][1])))
        ready = self._done[keys[r : r + cap]].all(axis=(1, 2))
        end = r + (len(ready) if ready.all() else int(np.argmin(ready)))
        parts = self._gather(keys[r:end].reshape(end - r, -1))
        w = self._width
        calls = [[part[..., a * w : b * w] for part in parts] for a, b in self._lockstep(live)]
        self._block = (r, end, live, parts, calls)
        return self._block

    def _gather(self, keys):
        """The parts of the keys ``keys`` (steps, columns): each (steps, *slots, columns * N)."""
        chunks = self._chunk[keys]
        out = None
        for lo, parts in self._held:
            at, col = np.nonzero(chunks == lo)
            if len(at):
                if out is None:
                    rows, cols = keys.shape
                    out = [np.empty((rows,) + p.shape[1:-1] + (cols, self._width)) for p in parts]
                place = self._place[keys[at, col]]
                for o, p in zip(out, parts):
                    o[at, ..., col, :] = p[place]
        return [o.reshape(o.shape[:-2] + (-1,)) for o in out]

    def _fill(self, k):
        """Evaluate the chunk of key k, or the half of it that holds k."""
        c = bisect.bisect_right(self._starts, k)
        lo = self._starts[c - 1]
        hi = self._starts[c] if c < len(self._starts) else len(self._xs)
        while True:
            try:
                parts = self._planes(self._xs[lo:hi], self._grid)
            except SemigeoError:
                if hi - lo == 1:
                    raise
                mid = (lo + hi) // 2
                bisect.insort(self._starts, mid)
                lo, hi = (lo, mid) if k < mid else (mid, hi)
            else:
                self._held.append((lo, parts))
                self._done[lo:hi] = True
                self._chunk[lo:hi] = lo
                self._place[lo:hi] = np.arange(hi - lo)
                return


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
    ``max_component`` is the largest |entry| of ``whole``, NaN when one
    is, taken over blocks of whole x1 rows of at most CHUNK_POINTS
    entries, so no |whole|-sized temporary joins ``whole``.
    """
    per = max(1, CHUNK_POINTS // whole[0].size)
    largest = [np.max(np.abs(whole[r : r + per])) for r in range(0, len(whole), per)]
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
        max_component=float(np.max(largest)),
        diagnostics=diagnostics,
    )
