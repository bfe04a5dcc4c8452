"""The one-point queries that batched point queries replaced, kept as references.

``interpolate`` once answered one point per call, and the geodesic
shots and ``unit_speed_residual`` read the connection or the metric one
point at a time.  These copies keep that arithmetic, so the tests can
check that the batched code gives their bytes: ``reference_interpolate``
moves the grid axes in front of the tensor axes and takes one linear
step per axis, ``reference_shoot`` is the one-node march of a single
geodesic shot, and ``reference_unit_speed_residual`` loops over the
samples of a curve.  ``reference_geodesic_residual``, the
geodesic-equation residual along a shot curve, has no library
counterpart: it is a test-only check of shot accuracy.
"""

import math

import numpy as np

from semigeo.chart_check import Curve
from semigeo.errors import LeftDomain, OutOfDomain
from semigeo.linalg import mirror_upper
from semigeo.ode import StateRejected

from _replaced_march import rk4_march


def reference_in_range(coords, x):
    lo, hi = float(coords[0]), float(coords[-1])
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    return lo - pad <= x <= hi + pad


def reference_locate(coords, x):
    lo, hi = float(coords[0]), float(coords[-1])
    if not reference_in_range(coords, x):
        raise OutOfDomain(f"coordinate {x} outside [{lo}, {hi}]")
    x = min(max(x, lo), hi)
    i = int(np.searchsorted(coords, x, side="right")) - 1
    i = min(max(i, 0), len(coords) - 2)
    t = (x - coords[i]) / (coords[i + 1] - coords[i])
    return i, float(min(max(t, 0.0), 1.0))


def reference_lerp(planes, coords, x):
    i, t = reference_locate(coords, x)
    if t == 0.0:
        return planes[i]
    if t == 1.0:
        return planes[i + 1]
    return planes[i] * (1.0 - t) + planes[i + 1] * t


def reference_interpolate(values, grid, point):
    values = np.asarray(values, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (grid.n,):
        raise OutOfDomain(f"point must have {grid.n} coordinates")
    lead = values.ndim - grid.n
    out = np.moveaxis(values, range(lead), range(-lead, 0))
    for axis in range(1, grid.n + 1):
        out = reference_lerp(out, grid.axis_coords(axis), float(point[axis - 1]))
    return float(out) if lead == 0 else np.array(out)


def reference_at(tube, point):
    """``TensorTube.at`` of one point, mirrored like the metric and connection."""
    out = reference_interpolate(tube.dense, tube.grid, point)
    return mirror_upper(out, out.ndim - 2)


def reference_shoot(conn, x0, v0, s_max, step, guards=None):
    """One geodesic shot as a one-node march: (Curve, LeftDomain or None)."""
    grid = conn.grid
    n = grid.n
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    n_steps = math.floor(float(s_max) / float(step) + 1e-9)

    def rhs(_s, state):
        pos, vel = state[..., 0]
        try:
            gam = reference_at(conn, pos)
        except OutOfDomain:
            raise StateRejected("left") from None
        out = np.empty((2, n, 1))
        out[0, :, 0] = vel
        out[1, :, 0] = -np.einsum("hij,i,j->h", gam, vel, vel)
        return out

    march = rk4_march(rhs, 0.0, step, n_steps, np.stack([x0, v0])[..., None], guards)
    states = march.states[..., 0]
    done = march.steps_done
    if not grid.contains(states[-1, 0]):
        done -= 1
        message = f"geodesic left the tube at s = {done * step + step}"
    elif march.stopped == "left":
        message = f"geodesic left the tube within step {done + 1}"
    elif march.stopped is not None:
        message = f"geodesic state rejected ({march.stopped}) at s = {done * step + step}"
    else:
        message = None
    curve = Curve(np.arange(done + 1) * step, states[: done + 1, 0], states[: done + 1, 1])
    if message is None:
        return curve, None
    err = LeftDomain(message, exit_point=states[-1, 0])
    err.curve = curve
    return curve, err


def reference_geodesic_residual(conn, curve):
    step = curve.s[1] - curve.s[0]
    pts = curve.points
    vel = curve.velocities
    acc = (pts[:-2] - 2.0 * pts[1:-1] + pts[2:]) / (step * step)
    worst = 0.0
    for i in range(1, len(pts) - 1):
        gam = reference_at(conn, pts[i])
        res = acc[i - 1] + np.einsum("hij,i,j->h", gam, vel[i], vel[i])
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def reference_unit_speed_residual(metric, curve):
    e = float(metric.e)
    worst = 0.0
    for pt, v in zip(curve.points, curve.velocities):
        g = reference_at(metric, pt)
        worst = max(worst, abs(float(v @ g @ v) - e))
    return worst
