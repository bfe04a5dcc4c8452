"""The sequential marches the grouped ``rk4_march`` replaced, kept as references.

Before every march ran its node groups in lockstep, ``march_tube``
marched the plus direction to its end and then the minus direction,
and a march that recorded midpoints took an h/2 step and then an h
step from each state, both sharing the first stage.  A geodesic shot
was a one-node march of its own.  Those implementations are copied
here, with the right-hand-side contract they had (``rhs(x, state)``,
one x per call), so the tests can check that the grouped march gives
their bytes, their stops and their errors.  Their sources come from
``PlaneBank``, which evaluates each key's planes alone, at the first x
of its key in the order ``tube_xs`` walks every x of the march.
"""

import numpy as np

from semigeo.errors import SemigeoError
from semigeo.ode import GuardConfig, MarchResult, StateRejected


def _per_node_max(values):
    return np.abs(values).reshape((-1, values.shape[-1])).max(axis=0)


def _bad_nodes(state, threshold):
    if abs(state).max() <= threshold:
        return False, None
    bad = ~np.isfinite(state) | (np.abs(state) > threshold)
    per_node = bad.reshape((-1, bad.shape[-1])).any(axis=0)
    if not np.any(per_node):
        return False, None
    return True, int(np.argmax(per_node))


def rk4_step(rhs, x, h, state, guards, k1=None):
    """One guarded RK4 step; returns (new_state or None, stop_reason, detail)."""
    thr = guards.blowup_threshold
    x_mid, x_end = x + 0.5 * h, x + h
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
    """March ``n_steps`` fixed steps of size h from (x0, state0), one x per step."""
    guards = guards or GuardConfig()
    state = np.array(state0, dtype=np.float64)
    states = [state]
    halves = []
    stopped = None
    detail = None
    done = 0
    for i in range(n_steps):
        x = x0 + i * h
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
    return MarchResult(np.array(states), half_states, done, stopped, detail)


def _tube_marches(grid):
    h1 = grid.spacing(1)
    k0 = grid.zero_index
    return (h1, len(grid.x1_samples) - 1 - k0), (-h1, k0)


def tube_xs(grid, record_half=False):
    """Every x the sequential ``march_tube`` on ``grid`` asks for, if no step stops.

    The plus direction's, then the minus direction's: the start, middle
    and end x of each RK4 step (of the h/2 step, then of the h step, with
    ``record_half``), repeats included, with the march's own float
    arithmetic.
    """
    xs = []
    for h, n_steps in _tube_marches(grid):
        for i in range(n_steps):
            x = 0.0 + i * h
            if record_half:
                xs.extend((x, x + 0.5 * (0.5 * h), x + 0.5 * h))
            xs.extend((x, x + 0.5 * h, x + h))
    return xs


class PlaneBank:
    """Each key's planes, evaluated at the first x of its key.

    ``planes(xs, grid)`` returns a tuple of parts, each shaped (len(xs),
    *slots, N); ``key(x)`` (default x itself) names the planes x reads.
    ``plane(x)`` returns the list of x's parts.  The first call evaluates
    every key at once; when that fails, each key is evaluated alone as it
    is asked for, so a failing key raises only then.  An x the march does
    not plan raises KeyError.
    """

    def __init__(self, planes, grid, record_half=False, key=None):
        self._planes = planes
        self._grid = grid
        self._key = key or (lambda x: x)
        self.first = {}
        for x in tube_xs(grid, record_half):
            self.first.setdefault(self._key(x), x)
        self._held = None

    def plane(self, x):
        key = self._key(x)
        if self._held is None:
            self._held = {}
            try:
                parts = self._planes(np.array(list(self.first.values())), self._grid)
            except SemigeoError:
                pass
            else:
                for j, k in enumerate(self.first):
                    self._held[k] = [part[j] for part in parts]
        if key not in self._held:
            parts = self._planes(np.array([self.first[key]]), self._grid)
            self._held[key] = [part[0] for part in parts]
        return self._held[key]


def march_tube(rhs, grid, state0, planes, guards=None, record_half=False, key=None):
    """The plus march to its end, then the minus march; ``rhs(x, state, bank)``.

    ``bank`` is the march's PlaneBank.  Returns (plus, minus, rgrid,
    whole) as ``ode.march_tube`` does.
    """
    bank = PlaneBank(planes, grid, record_half, key)

    def bank_rhs(x, state):
        return rhs(x, state, bank)

    (h_plus, steps_plus), (h_minus, steps_minus) = _tube_marches(grid)
    plus = rk4_march(bank_rhs, 0.0, h_plus, steps_plus, state0, guards, record_half)
    minus = rk4_march(bank_rhs, 0.0, h_minus, steps_minus, state0, guards, record_half)
    rgrid = grid.restrict_x1(steps_minus - minus.steps_done, steps_minus + plus.steps_done)
    whole = np.concatenate([minus.states[:0:-1], plus.states], axis=0)
    return plus, minus, rgrid, whole
