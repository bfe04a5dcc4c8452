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

import numpy as np

from .errors import DegenerateMetric, InvalidSpec, NotSemigeodesic
from .grid_field import TensorTube, as_field, fd_partial, fd_second, interpolate
from .linalg import det_stack, inv_sym

DEGENERACY_TOL = 1e-10


class MetricField:
    """Symmetric metric components g_ij on a tube grid, plus the sign e."""

    def __init__(self, grid, dense, e=1):
        n = grid.n
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (n, n) + grid.shape:
            raise InvalidSpec(f"metric dense shape {dense.shape} is wrong")
        self.grid = grid
        self.dense = dense
        self.e = int(e)

    @classmethod
    def from_fields(cls, grid, components, e=1):
        """Build from {(i, j): expression/field}, i <= j, missing -> 0."""
        n = grid.n
        dense = np.zeros((n, n) + grid.shape)
        for (i, j), value in components.items():
            vals = as_field(value, n, f"g{(i, j)}").on_grid(grid)
            dense[i - 1, j - 1] = vals
            dense[j - 1, i - 1] = vals
        return cls(grid, dense, e=e)

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

    def tube(self):
        t = TensorTube("g", self.grid, ((1, self.n), (1, self.n)), roles=("lower", "lower"), sym_pairs=((0, 1),))
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                t.set_component((i, j), self.dense[i - 1, j - 1])
        return t

    @property
    def n(self):
        return self.grid.n

    def component(self, i, j):
        return self.dense[i - 1, j - 1]

    def at(self, point):
        n = self.n
        out = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                out[i, j] = out[j, i] = interpolate(self.dense[i, j], self.grid, point)
        return out

    def det_nodes(self):
        flat = self.dense.reshape((self.n, self.n, -1))
        return det_stack(flat).reshape(self.grid.shape)

    def semigeodesic_residuals(self, e=None):
        e = self.e if e is None else int(e)
        r11 = float(np.max(np.abs(self.dense[0, 0] - e)))
        if self.n > 1:
            r1j = float(np.max(np.abs(self.dense[0, 1:])))
        else:
            r1j = 0.0
        return r11, r1j

    def require_semigeodesic(self, tol=1e-12):
        r11, r1j = self.semigeodesic_residuals()
        if r11 > tol or r1j > tol:
            raise NotSemigeodesic(
                f"metric is not semigeodesic: |g_11 - e| up to {r11:.3e}, "
                f"|g_1j| up to {r1j:.3e}"
            )


class ConnectionField:
    """Connection components G^h_ij (symmetric in i, j) on a tube grid."""

    def __init__(self, grid, dense):
        n = grid.n
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (n, n, n) + grid.shape:
            raise InvalidSpec(f"connection dense shape {dense.shape} is wrong")
        self.grid = grid
        self.dense = dense

    @classmethod
    def from_fields(cls, grid, components):
        """Build from {(h, i, j): expression/field}, i <= j, missing -> 0."""
        n = grid.n
        dense = np.zeros((n, n, n) + grid.shape)
        for (h, i, j), value in components.items():
            vals = as_field(value, n, f"gamma{(h, i, j)}").on_grid(grid)
            dense[h - 1, i - 1, j - 1] = vals
            dense[h - 1, j - 1, i - 1] = vals
        return cls(grid, dense)

    @property
    def n(self):
        return self.grid.n

    def component(self, h, i, j):
        return self.dense[h - 1, i - 1, j - 1]

    def tube(self):
        t = TensorTube(
            "gamma",
            self.grid,
            ((1, self.n),) * 3,
            roles=("upper", "lower", "lower"),
            sym_pairs=((1, 2),),
        )
        for h in range(1, self.n + 1):
            for i in range(1, self.n + 1):
                for j in range(i, self.n + 1):
                    t.set_component((h, i, j), self.dense[h - 1, i - 1, j - 1])
        return t

    def at(self, point):
        n = self.n
        out = np.empty((n, n, n))
        for h in range(n):
            for i in range(n):
                for j in range(i, n):
                    v = interpolate(self.dense[h, i, j], self.grid, point)
                    out[h, i, j] = out[h, j, i] = v
        return out


class CurvatureTube:
    """(1,3) curvature components R^h_ijk on a tube grid."""

    def __init__(self, grid, dense):
        n = grid.n
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (n, n, n, n) + grid.shape:
            raise InvalidSpec(f"curvature dense shape {dense.shape} is wrong")
        self.grid = grid
        self.dense = dense

    @property
    def n(self):
        return self.grid.n

    def component(self, h, i, j, k):
        return self.dense[h - 1, i - 1, j - 1, k - 1]

    def tube(self):
        t = TensorTube("R", self.grid, ((1, self.n),) * 4, roles=("upper", "lower", "lower", "lower"))
        for h in range(1, self.n + 1):
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    for k in range(1, self.n + 1):
                        t.set_component((h, i, j, k), self.dense[h - 1, i - 1, j - 1, k - 1])
        return t

    def max_abs(self):
        return float(np.max(np.abs(self.dense)))


# ----------------------------------------------------------------- operators


def christoffel_from_metric(metric, grid=None, degeneracy_tol=DEGENERACY_TOL):
    """Christoffel symbols of a sampled metric.

    Returns (ConnectionField, first-kind TensorTube).  Derivatives are
    grid finite differences; the inverse metric uses adjugate formulas
    for n <= 3.  Raises DegenerateMetric when |det g| < degeneracy_tol at
    any node (the first offending node in lexicographic order is
    reported).
    """
    grid = grid or metric.grid
    n = grid.n
    g = metric.dense
    det = metric.det_nodes()
    bad = np.abs(det) < degeneracy_tol
    if np.any(bad):
        node = np.unravel_index(int(np.argmax(bad)), grid.shape)
        raise DegenerateMetric(
            f"metric determinant {det[node]:.3e} below {degeneracy_tol:.1e} at node {node}",
            node=node,
            det=float(det[node]),
        )
    dg = np.empty((n, n, n) + grid.shape)
    for a in range(1, n + 1):
        dg[a - 1] = fd_partial(g, a, grid)
    first = np.empty((n, n, n) + grid.shape)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                val = 0.5 * (dg[i, j, k] + dg[j, i, k] - dg[k, i, j])
                first[i, j, k] = val
                if i != j:
                    first[j, i, k] = val
    ginv = inv_sym(g.reshape((n, n, -1)), det.reshape(-1)).reshape((n, n) + grid.shape)
    second = np.einsum("hr...,ijr...->hij...", ginv, first)
    # mirror the lower pair so symmetry is exact despite summation order
    for i in range(n):
        for j in range(i + 1, n):
            second[:, j, i] = second[:, i, j]
    tube = TensorTube(
        "gamma_first",
        grid,
        ((1, n),) * 3,
        roles=("lower", "lower", "lower"),
        sym_pairs=((0, 1),),
    )
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                tube.set_component((i, j, k), first[i - 1, j - 1, k - 1])
    return ConnectionField(grid, second), tube


def curvature13(connection, grid=None):
    """(1,3) curvature of a sampled connection.

    Antisymmetry in the last two slots is exact: both orderings reuse the
    same intermediate P^h_ijk = d_j G^h_ik + G^m_ik G^h_mj.
    """
    grid = grid or connection.grid
    n = grid.n
    gam = connection.dense
    dgam = np.empty((n, n, n, n) + grid.shape)
    for a in range(1, n + 1):
        dgam[a - 1] = fd_partial(gam, a, grid)
    quad = np.einsum("mik...,hmj...->hijk...", gam, gam)
    # p[h,i,j,k] = d_j G^h_ik + G^m_ik G^h_mj; dgam axes are (j, h, i, k, ...)
    p = np.transpose(dgam, (1, 2, 0, 3) + tuple(range(4, dgam.ndim))) + quad
    r = p - np.swapaxes(p, 2, 3)
    return CurvatureTube(grid, r)


def curvature04_semigeo(metric, grid=None, degeneracy_tol=DEGENERACY_TOL, semigeo_tol=1e-12):
    """Axial (0,4) curvature block R_1ij1 (i, j >= 2) of a semigeodesic metric.

    Returns a TensorTube with 4-slot indices (1, i, j, 1), symmetric in
    (i, j) exactly.  Requires the metric block structure to hold within
    ``semigeo_tol`` and the transverse block to be nondegenerate.
    """
    grid = grid or metric.grid
    n = grid.n
    metric.require_semigeodesic(tol=semigeo_tol)
    gt = metric.dense[1:, 1:]
    det = det_stack(gt.reshape((n - 1, n - 1, -1)))
    bad = np.abs(det) < degeneracy_tol
    if np.any(bad):
        node = np.unravel_index(int(np.argmax(bad)), grid.shape)
        raise DegenerateMetric(
            f"transverse metric block degenerate at node {node}",
            node=node,
            det=float(det.reshape(grid.shape)[node]),
        )
    ginv_t = inv_sym(gt.reshape((n - 1, n - 1, -1)), det).reshape((n - 1, n - 1) + grid.shape)
    d1 = fd_partial(gt, 1, grid)
    d11 = fd_second(gt, 1, grid)
    quad = np.einsum("rs...,ir...,js...->ij...", ginv_t, d1, d1)
    tube = TensorTube(
        "R04",
        grid,
        ((1, 1), (2, n), (2, n), (1, 1)),
        roles=("lower",) * 4,
        sym_pairs=((1, 2),),
    )
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tube.set_component(
                (1, i, j, 1), 0.5 * d11[i - 2, j - 2] - 0.25 * quad[i - 2, j - 2]
            )
    return tube


def lower_and_check_identity(metric, r13, semigeo_tol=1e-12):
    """Axial block via index lowering, plus its consistency residual.

    For a semigeodesic metric the axial block can be read off the (1,3)
    curvature four ways:

        e R^1_ij1,  -e R^1_i1j,  g_im R^m_11j,  -g_im R^m_1j1

    The first pair and the second pair are exact antisymmetry images; the
    cross-pair agreement holds for exact tensors and degrades only with
    discretization error of the supplied inputs.  Returns (TensorTube of
    g_im R^m_11j values, max pairwise discrepancy over components/nodes).
    """
    metric.require_semigeodesic(tol=semigeo_tol)
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
    tube = TensorTube(
        "R04",
        grid,
        ((1, 1), (2, n), (2, n), (1, 1)),
        roles=("lower",) * 4,
        sym_pairs=((1, 2),),
    )
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tube.set_component((1, i, j, 1), e3[i - 2, j - 2])
    return tube, residual
