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

Every lattice march in the package is one lockstep march: the state
carries all transverse nodes on its trailing axis (``node_axis=-1``),
the right-hand side sees the whole node stack at each stage, and the
guards reduce over the tensor axes per node and trip on the first
offending node.  The systems marched here have no transverse coupling,
so the lockstep march is exactly a per-node march, stopped at the first
step that any node rejects.

The right-hand side may also veto a stage by raising StateRejected, e.g.
when a metric determinant crosses its degeneracy threshold; the marcher
stops before completing that step.
"""

from dataclasses import dataclass

import numpy as np


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


def _per_node_max(values, node_axis):
    """max |values| reduced over every axis except ``node_axis`` (or all)."""
    a = np.abs(values)
    if node_axis is None:
        return np.max(a)
    moved = np.moveaxis(a, node_axis, -1)
    return moved.reshape((-1, moved.shape[-1])).max(axis=0)


def _bad_nodes(state, threshold, node_axis):
    bad = ~np.isfinite(state) | (np.abs(state) > threshold)
    if node_axis is None:
        return np.any(bad), None
    moved = np.moveaxis(bad, node_axis, -1)
    per_node = moved.reshape((-1, moved.shape[-1])).any(axis=0)
    if not np.any(per_node):
        return False, None
    return True, int(np.argmax(per_node))


def rk4_step(rhs, x, h, state, guards, node_axis=None):
    """One guarded RK4 step; returns (new_state or None, stop_reason, detail).

    The RHS is evaluated on every stage state before that state is
    screened, so a semantic veto from the RHS (StateRejected, e.g. a
    degenerate determinant) takes precedence over the generic blow-up
    label for the same event.  Non-finite intermediates are tolerated and
    caught by the screens.
    """
    thr = guards.blowup_threshold
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(x, state)
        s2 = state + (0.5 * h) * k1
        k2 = rhs(x + 0.5 * h, s2)
        bad, node = _bad_nodes(s2, thr, node_axis)
        if bad:
            return None, "blowup", node
        s3 = state + (0.5 * h) * k2
        k3 = rhs(x + 0.5 * h, s3)
        bad, node = _bad_nodes(s3, thr, node_axis)
        if bad:
            return None, "blowup", node
        s4 = state + h * k3
        k4 = rhs(x + h, s4)
        bad, node = _bad_nodes(s4, thr, node_axis)
        if bad:
            return None, "blowup", node
        new = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad, node = _bad_nodes(new, thr, node_axis)
        if bad:
            return None, "blowup", node
        growth = _per_node_max(new - state, node_axis) > guards.step_growth_limit * (
            1.0 + _per_node_max(state, node_axis)
        )
        if np.any(growth):
            superlinear = _per_node_max(k4, node_axis) > guards.stage_slope_ratio * _per_node_max(
                k1, node_axis
            ) + 1.0
            pole = growth & superlinear if node_axis is not None else (growth and superlinear)
            if np.any(pole):
                node = int(np.argmax(pole)) if node_axis is not None else None
                return None, "blowup", node
    return new, None, None


def rk4_march(rhs, x0, h, n_steps, state0, guards=None, record_half=False, node_axis=None):
    """March ``n_steps`` fixed steps of size h from (x0, state0).

    When ``record_half`` is set, each accepted step also launches one RK4
    step of size h/2 from the whole-step state to cache the midpoint
    value; the whole-step trajectory itself is untouched by the caching.
    """
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
            if record_half:
                mid, mid_stop, mid_detail = rk4_step(rhs, x, 0.5 * h, state, guards, node_axis)
                if mid is None:
                    stopped, detail = mid_stop or "blowup", mid_detail
                    break
            new, stopped, detail = rk4_step(rhs, x, h, state, guards, node_axis)
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
