"""Forward curvature oracle: metric -> connection -> curvature.

Index conventions (1-based in public APIs, 0-based in dense arrays):

* first-kind Christoffel   C_ijk = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
* second-kind Christoffel  G^h_ij = g^{hr} C_ijr
* (1,3) curvature          R^h_ijk = d_j G^h_ik - d_k G^h_ij
                                     + G^m_ik G^h_mj - G^m_ij G^h_mk
* axial (0,4) block, valid for semigeodesic metrics only:
    R_1ij1 = d1 d1 g_ij / 2 - g^{rs} (d1 g_ir)(d1 g_js) / 4,  r, s >= 2

All derivatives are grid finite differences (second order).  Computed
antisymmetry of R^h_ijk in its last two slots is exact by construction:
the two orderings are the same floats negated.

A metric is *semigeodesic* when g_11 = e (a sign) and g_1j = 0 for
j >= 2; then the x1 lattice lines are unit-speed geodesics and the axial
curvature block has the closed form above.
"""

import math

import numpy as np

from .errors import DegenerateMetric, NotSemigeodesic
from .fd import fd_partial, fd_second, fd_x1
from .grid_field import Components, TensorTube
from .linalg import det_stack, inv_sym, mirror_upper

DEGENERACY_TOL = 1e-10
# largest |g_11 - e| and |g_1j| a metric may show and still count as semigeodesic
SEMIGEO_TOL = 1e-12

# Most points (x1 planes times transverse nodes) one block of the axial
# oracle and of a round-trip residual covers, unless one plane holds more.
# A lattice of this many points or fewer is one block, so a round trip on
# it reads each source tree once for its residual.  On the 33x33x101 wide
# round trip the oracle and residual peak at 2.0 times their output with
# these blocks, and at 2.9 times with blocks of 2^15 points.
ORACLE_POINTS = 2**14


class MetricField(TensorTube):
    """Symmetric metric components g_ij on a tube grid, plus the sign e."""

    rank = 2

    def __init__(self, grid, dense, e=1):
        super().__init__("g", grid, dense)
        self.e = int(e)

    @classmethod
    def from_fields(cls, grid, components, e=1):
        """Build from {(i, j): expression/field}, either order, missing -> 0."""
        return cls(grid, Components("g", grid.n, components).on_grid(grid), e=e)

    @classmethod
    def semigeodesic(cls, grid, transverse_dense, e=1):
        """Assemble g_11 = e, g_1j = 0 around a transverse block.

        ``transverse_dense`` has shape (n-1, n-1, *grid.shape).
        """
        n = grid.n
        dense = np.zeros((n, n) + grid.shape)
        dense[0, 0] = float(e)
        dense[1:, 1:] = transverse_dense
        return cls(grid, dense, e=e)

    def at(self, points):
        return mirror_upper(super().at(points))

    def det_nodes(self):
        flat = self.dense.reshape((self.n, self.n, -1))
        return det_stack(flat).reshape(self.grid.shape)

    def semigeodesic_residuals(self):
        """(max |g_11 - e|, max |g_1j|) over the lattice, with the metric's e."""
        r11 = float(np.max(np.abs(self.dense[0, 0] - self.e)))
        r1j = float(np.max(np.abs(self.dense[0, 1:])))
        return r11, r1j

    def require_semigeodesic(self):
        r11, r1j = self.semigeodesic_residuals()
        if r11 > SEMIGEO_TOL or r1j > SEMIGEO_TOL:
            raise NotSemigeodesic(
                f"metric is not semigeodesic: |g_11 - e| up to {r11:.3e}, "
                f"|g_1j| up to {r1j:.3e}"
            )


class ConnectionField(TensorTube):
    """Connection components G^h_ij (symmetric in i, j) on a tube grid."""

    rank = 3

    def __init__(self, grid, dense):
        super().__init__("gamma", grid, dense)

    @classmethod
    def from_fields(cls, grid, components):
        """Build from {(h, i, j): expression/field}, either (i, j) order, missing -> 0."""
        return cls(grid, Components("gamma", grid.n, components).on_grid(grid))

    def at(self, points):
        return mirror_upper(super().at(points), 1)


class CurvatureTube(TensorTube):
    """(1,3) curvature components R^h_ijk on a tube grid."""

    rank = 4

    def __init__(self, grid, dense):
        super().__init__("R", grid, dense)


# ----------------------------------------------------------------- operators


def x1_blocks(grid):
    """(lo, hi) of each block of whole x1 planes, at most ORACLE_POINTS
    points or one plane each, in x1 order."""
    per = max(1, ORACLE_POINTS // math.prod(grid.transverse_shape))
    count = len(grid.x1_samples)
    return [(lo, min(lo + per, count)) for lo in range(0, count, per)]


def _degenerate_node(det, degeneracy_tol, shape):
    """First node of ``shape`` (plain ints) where |det| < tol or det is not finite."""
    bad = ~np.isfinite(det) | (np.abs(det) < degeneracy_tol)
    if not np.any(bad):
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), shape))


def christoffel_from_metric(metric, degeneracy_tol=DEGENERACY_TOL):
    """Christoffel symbols of a sampled metric.

    Returns (ConnectionField, "gamma_first" TensorTube of C_ijk), both
    exactly symmetric in (i, j).  Derivatives are
    grid finite differences; the inverse metric uses adjugate formulas
    for n <= 3.  Raises DegenerateMetric when |det g| < degeneracy_tol or
    det g is not finite at any node (the first offending node in
    lexicographic order is reported).
    """
    grid = metric.grid
    n = grid.n
    g = metric.dense
    det = metric.det_nodes()
    node = _degenerate_node(det, degeneracy_tol, grid.shape)
    if node is not None:
        raise DegenerateMetric(
            f"metric determinant {det[node]:.3e} at node {node} is below "
            f"{degeneracy_tol:.1e} or not finite",
            node=node,
            det=float(det[node]),
        )
    dg = np.empty((n, n, n) + grid.shape)
    for a in range(1, n + 1):
        dg[a - 1] = fd_partial(g, a, grid)
    # C_ijk = (dg[i, j, k] + dg[j, i, k] - dg[k, i, j]) / 2, mirrored from i <= j
    first = dg + np.swapaxes(dg, 0, 1)
    first -= np.moveaxis(dg, 0, 2)
    first *= 0.5
    mirror_upper(first)
    ginv = inv_sym(g.reshape((n, n, -1)), det.reshape(-1)).reshape((n, n) + grid.shape)
    second = np.einsum("hr...,ijr...->hij...", ginv, first)
    # mirror the lower pair so symmetry is exact despite summation order
    mirror_upper(second, axis=1)
    return ConnectionField(grid, second), TensorTube("gamma_first", grid, first)


def curvature13(connection):
    """(1,3) curvature of a sampled connection.

    Antisymmetry in the last two slots is exact: both orderings reuse the
    same intermediate P^h_ijk = d_j G^h_ik + G^m_ik G^h_mj.
    """
    grid = connection.grid
    n = grid.n
    gam = connection.dense
    with np.errstate(over="ignore", invalid="ignore"):
        # p[h,i,j,k] = d_j G^h_ik + G^m_ik G^h_mj, then r = p[..j,k] - p[..k,j],
        # both formed in the quadratic term's memory a slice at a time: one
        # n^4 tube is alive, beside one derivative d_j G (an n^3 tube)
        p = np.einsum("mik...,hmj...->hijk...", gam, gam)
        for j in range(n):
            np.add(fd_partial(gam, j + 1, grid), p[:, :, j], out=p[:, :, j])
        for j in range(n):
            for k in range(j, n):
                jk = p[:, :, j, k] - p[:, :, k, j]
                p[:, :, k, j] = p[:, :, k, j] - p[:, :, j, k]
                p[:, :, j, k] = jk
    return CurvatureTube(grid, p)


def curvature04_semigeo(metric, degeneracy_tol=DEGENERACY_TOL):
    """Axial (0,4) curvature block R_1ij1 (i, j >= 2) of a semigeodesic metric.

    Returns an "R04" TensorTube over the 4-slot indices (1, i, j, 1); the
    block is mirrored from i <= j, so it is symmetric in (i, j) exactly.
    Requires the metric block structure to hold within SEMIGEO_TOL and
    the transverse block to be nondegenerate; the first degenerate node
    in lexicographic order is reported.

    The block is computed one ``x1_blocks`` block at a time, each from
    its own planes and their neighbours (``fd.fd_x1``), so only the
    output is a whole-lattice array.
    """
    grid = metric.grid
    k = grid.n - 1
    metric.require_semigeodesic()
    gt = metric.dense[1:, 1:]
    out = np.empty((k, k) + grid.shape)
    for lo, hi in x1_blocks(grid):
        g = gt[:, :, lo:hi]
        det = det_stack(g.reshape((k, k, -1)))
        local = _degenerate_node(det, degeneracy_tol, g.shape[2:])
        if local is not None:
            node = (lo + local[0],) + local[1:]
            raise DegenerateMetric(
                f"transverse metric block degenerate at node {node}",
                node=node,
                det=float(det.reshape(g.shape[2:])[local]),
            )
        ginv = inv_sym(g.reshape((k, k, -1)), det).reshape(g.shape)
        d1 = fd_x1(fd_partial, gt, grid, lo, hi)
        d11 = fd_x1(fd_second, gt, grid, lo, hi)
        quad = np.einsum("rs...,ir...,js...->ij...", ginv, d1, d1)
        # 0.5 * d11 - 0.25 * quad, formed in place
        d11 *= 0.5
        quad *= 0.25
        np.subtract(d11, quad, out=out[:, :, lo:hi])
    mirror_upper(out)
    return TensorTube("R04", grid, out[None, :, :, None], (1, 2, 2, 1))


def lower_and_check_identity(metric, r13):
    """Axial block via index lowering, plus its consistency residual.

    For a semigeodesic metric the axial block can be read off the (1,3)
    curvature four ways:

        e R^1_ij1,  -e R^1_i1j,  g_im R^m_11j,  -g_im R^m_1j1

    The first pair and the second pair are exact antisymmetry images; the
    cross-pair agreement holds for exact tensors and degrades only with
    discretization error of the supplied inputs.  Returns ("R04"
    TensorTube of g_im R^m_11j values mirrored from i <= j, max pairwise
    discrepancy over components/nodes).
    """
    metric.require_semigeodesic()
    grid = metric.grid
    n = grid.n
    e = float(metric.e)
    r = r13.dense
    g = metric.dense
    e1 = e * r[0, 1:, 1:, 0]
    e2 = -e * r[0, 1:, 0, 1:]
    e3 = np.einsum("im...,mj...->ij...", g[1:, :], r[:, 0, 0, 1:])
    e4 = -np.einsum("im...,mj...->ij...", g[1:, :], r[:, 0, 1:, 0])
    residual = 0.0
    exprs = (e1, e2, e3, e4)
    for a in range(4):
        for b in range(a + 1, 4):
            residual = max(residual, float(np.max(np.abs(exprs[a] - exprs[b]))))
    block = mirror_upper(e3.copy())
    return TensorTube("R04", grid, block[None, :, :, None], (1, 2, 2, 1)), residual
