"""Diagnostics for whether a chart is (pre-)semigeodesic.

A chart is *pre-semigeodesic* when the x1 coordinate lines, in their
given parametrization, are geodesics of the connection; that holds iff
the axial-axial components Gamma^h_11 vanish.  A metric chart is
*semigeodesic* when additionally g_11 is a constant sign e and g_1j = 0.

Both properties are read off the lattice arrays.  The geodesic-line
characterization needs no integration: on the straight line
c(s) = (s, q), q fixed, the acceleration vanishes and the velocity is
the first basis vector, so the geodesic equation residual is exactly
|Gamma^h_11(c(s))|.  That is the same read of Gamma^h_11 as the
pre-semigeodesic residual, so ``lemma1_check`` names it and returns the
same value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InvalidSpec, LeftDomain, OutOfDomain
from .ode import StateRejected, rk4_march


@dataclass
class Curve:
    """A sampled curve: parameter values, points, optional velocities."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.s.ndim != 1 or self.points.ndim != 2:
            raise InvalidSpec("curve needs 1-d parameters and 2-d points")
        if len(self.s) != len(self.points):
            raise InvalidSpec("curve parameter and point counts differ")
        if len(self.s) >= 2 and not np.all(np.diff(self.s) > 0):
            raise InvalidSpec("curve parameters must increase strictly")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=np.float64)
            if self.velocities.shape != self.points.shape:
                raise InvalidSpec("curve velocity shape does not match points")

    def uniform_step(self):
        if len(self.s) < 2:
            raise GridTooCoarse("curve has fewer than 2 samples")
        step = float(self.s[1] - self.s[0])
        if np.max(np.abs(np.diff(self.s) - step)) > 1e-9 * max(step, 1.0):
            raise InvalidSpec("curve parameter steps are not uniform")
        return step


def pre_semigeodesic_residual(conn):
    """Largest |Gamma^h_11| over the whole lattice (0 iff pre-semigeodesic)."""
    return float(np.max(np.abs(conn.dense[:, 0, 0])))


def lemma1_check(conn):
    """Geodesic-line characterization residual over every x1 lattice line.

    Substituting a straight lattice line with unit axial velocity into
    the geodesic equation leaves |Gamma^h_11| as the whole residual, so
    this is :func:`pre_semigeodesic_residual` under the name of the
    characterization it checks.
    """
    return pre_semigeodesic_residual(conn)


def geodesic_shoot(conn, x0, v0, s_max, step, guards=None):
    """Integrate the geodesic equation from (x0, v0) through the tube.

    The shot is a one-node ``rk4_march`` of the first-order system
    (x' = v, v' = -Gamma v v) for floor(s_max / step) steps.  Returns a
    Curve carrying points and velocities.  If the geodesic escapes the
    tube, raises LeftDomain with the partial curve attached as
    ``.curve``.  When an accepted step lands outside the tube, that
    position is ``exit_point`` and is not part of the curve; when a step
    is stopped before completing (a stage leaves the tube or a guard
    trips), ``exit_point`` is the last position on the curve.
    """
    grid = conn.grid
    n = grid.n
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    if x0.shape != (n,) or v0.shape != (n,):
        raise InvalidSpec(f"start point and velocity must have {n} components")
    if not grid.contains(x0):
        raise OutOfDomain(f"geodesic start {tuple(x0)} is outside the tube")
    if not step > 0:
        raise InvalidSpec(f"step must be positive, got {step}")
    steps = float(s_max) / float(step) + 1e-9
    if not math.isfinite(steps):
        raise InvalidSpec(f"s_max = {s_max} and step = {step} give no finite step count")
    n_steps = math.floor(steps)
    if n_steps < 1:
        raise InvalidSpec("s_max admits no whole step")

    def rhs(_s, state):
        pos, vel = state[..., 0]
        try:
            gam = conn.at(pos)
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
        return curve
    err = LeftDomain(message, exit_point=states[-1, 0])
    err.curve = curve
    raise err


def geodesic_residual(conn, curve):
    """Largest interior geodesic-equation residual along a sampled curve.

    Velocities come from the curve when present, else from second-order
    differences of the points; accelerations always use the 3-point
    second difference, so only interior samples are scored.
    """
    step = curve.uniform_step()
    pts = curve.points
    if len(pts) < 3:
        raise GridTooCoarse("geodesic residual needs at least 3 samples")
    if curve.velocities is not None:
        vel = curve.velocities
    else:
        vel = np.gradient(pts, step, axis=0, edge_order=2)
    acc = (pts[:-2] - 2.0 * pts[1:-1] + pts[2:]) / (step * step)
    worst = 0.0
    for i in range(1, len(pts) - 1):
        gam = conn.at(pts[i])
        res = acc[i - 1] + np.einsum("hij,i,j->h", gam, vel[i], vel[i])
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def semigeodesic_check(metric):
    """(max |g_11 - e|, max |g_1j|) over the lattice, e the metric's own sign."""
    return metric.semigeodesic_residuals()


def unit_speed_residual(metric, curve):
    """Largest |v g(x) v - e| along a curve with velocities.

    For a semigeodesic metric, axial lattice lines make this vanish to
    interpolation accuracy: their speed is g_11 = e throughout.
    """
    if curve.velocities is None:
        vel = np.gradient(curve.points, curve.uniform_step(), axis=0, edge_order=2)
    else:
        vel = curve.velocities
    e = float(metric.e)
    worst = 0.0
    for pt, v in zip(curve.points, vel):
        g = metric.at(pt)
        worst = max(worst, abs(float(v @ g @ v) - e))
    return worst
