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

Shot geodesics check the same properties along curves off the lattice
lines.  Every read along them is one point query for many points: the
shots of a check march as one ``rk4_march`` of one-node groups that
reads the connection at all live positions per stage, and
``unit_speed_residual`` reads the metric along a whole shot curve at
once.  Each keeps the bytes of reading its points one at a time.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum

from .errors import InvalidSpec, LeftDomain, OutOfDomain
from .ode import StateRejected, rk4_march


@dataclass
class Curve:
    """A shot curve: parameter values s, points and velocities, one row per s."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray


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
    """Integrate the geodesic equation from K starts (x0, v0) through the tube.

    ``x0`` and ``v0`` are shaped (n, K).  All shots are one
    ``rk4_march`` of the first-order system (x' = v, v' = -Gamma v v)
    for floor(s_max / step) steps, each shot a one-node group, whose
    right-hand side reads the connection at all live positions with one
    query.  A shot that stops (a stage leaves the tube or a guard trips)
    is dropped and the others march on; the nodes do not interact, so
    every shot has the bits of marching it alone.

    Returns K (Curve, LeftDomain or None) pairs: each shot's curve
    (points and velocities) and, for a shot that stopped early, the
    LeftDomain saying why.  When an accepted step lands outside the
    tube, that position is ``exit_point`` and is not part of the curve;
    when a step is stopped before completing, ``exit_point`` is the last
    position on the curve.  A start outside the tube raises
    OutOfDomain.
    """
    grid = conn.grid
    n = grid.n
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] != n or v0.shape != x0.shape:
        raise InvalidSpec(f"start point and velocity must have {n} components")
    inside = grid.contains(x0)
    if not inside.all():
        start = x0[:, inside.argmin()].tolist()
        raise OutOfDomain(f"geodesic start {tuple(start)} is outside the tube")
    if not step > 0:
        raise InvalidSpec(f"step must be positive, got {step}")
    steps = float(s_max) / float(step) + 1e-9
    if not math.isfinite(steps):
        raise InvalidSpec(f"s_max = {s_max} and step = {step} give no finite step count")
    n_steps = math.floor(steps)
    if n_steps < 1:
        raise InvalidSpec("s_max admits no whole step")

    def rhs(_xs, state, _inputs):
        pos, vel = state
        try:
            gam = conn.at(pos)
        except OutOfDomain:
            raise StateRejected("left", int(grid.contains(pos).argmin())) from None
        out = np.empty_like(state)
        out[0] = vel
        out[1] = -c_einsum("hijN,iN,jN->hN", gam, vel, vel)
        return out

    k = x0.shape[1]
    marches = rk4_march(rhs, (step,) * k, (n_steps,) * k, np.stack([x0, v0]), guards)
    return [_shot_outcome(grid, m.states[..., 0], m.stopped, step) for m in marches]


def _shot_outcome(grid, states, stopped, step):
    """(Curve, LeftDomain or None) of one shot's accepted states (steps, 2, n)."""
    done = len(states) - 1
    if not grid.contains(states[-1:, 0].T)[0]:
        done -= 1
        message = f"geodesic left the tube at s = {done * step + step}"
    elif stopped == "left":
        message = f"geodesic left the tube within step {done + 1}"
    elif stopped is not None:
        message = f"geodesic state rejected ({stopped}) at s = {done * step + step}"
    else:
        message = None
    curve = Curve(np.arange(done + 1) * step, states[: done + 1, 0], states[: done + 1, 1])
    return curve, None if message is None else LeftDomain(message, exit_point=states[-1, 0])


def semigeodesic_check(metric):
    """(max |g_11 - e|, max |g_1j|) over the lattice, e the metric's own sign."""
    return metric.semigeodesic_residuals()


def unit_speed_residual(metric, curve):
    """Largest |v g(x) v - e| along a shot curve.

    For a semigeodesic metric, axial lattice lines make this vanish to
    interpolation accuracy: their speed is g_11 = e throughout.  The
    metric is read at every sample with one query; a sample whose
    residual is nan is skipped.
    """
    vel = curve.velocities
    # a contiguous (K, n, n) stack: v g v goes through the same BLAS
    # products as on one sample's own block
    g = np.ascontiguousarray(np.moveaxis(metric.at(curve.points.T), -1, 0))
    speed = np.vecdot((vel[:, None, :] @ g)[:, 0], vel)
    return float(np.fmax.reduce(np.abs(speed - float(metric.e)), initial=0.0))
