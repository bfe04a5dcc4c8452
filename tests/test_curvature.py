import csv
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

import _oracles as orc
from semigeo.curvature import (
    ConnectionField,
    CurvatureTube,
    MetricField,
    christoffel_from_metric,
    curvature04_semigeo,
    curvature13,
    lower_and_check_identity,
)
from semigeo.errors import DegenerateMetric, InvalidSpec, NotSemigeodesic
from semigeo.fd import fd_partial
from semigeo.grid_field import (
    ChartSpec,
    TensorTube,
    build_grid,
    interpolate,
    write_tensor_dump,
)
from semigeo.linalg import mirror_upper


def grid2(h1=1e-2, x1_range=(-0.3, 1.0), res=5):
    return build_grid(ChartSpec(n=2, x1_range=x1_range, h1=h1, transverse_res=res))


def axial(grid):
    return grid.x1_samples[:, None] * np.ones((1,) + grid.transverse_shape)


@pytest.fixture(scope="module")
def sphere():
    grid = grid2()
    return MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})


@pytest.fixture(scope="module")
def hyperbolic():
    grid = grid2()
    return MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cosh(x1)^2"})


class TestClosedForms:
    def test_sphere_christoffel(self, sphere):
        conn, first = christoffel_from_metric(sphere)
        x = axial(sphere.grid)
        assert np.max(np.abs(conn.component(1, 2, 2) - np.sin(x) * np.cos(x))) < 3e-4
        assert np.max(np.abs(conn.component(2, 1, 2) + np.tan(x))) < 1e-3
        assert np.max(np.abs(conn.component(1, 1, 1))) < 1e-12
        assert np.max(np.abs(conn.component(2, 2, 2))) < 1e-12
        assert np.max(np.abs(first.component(2, 2, 1) - np.sin(x) * np.cos(x))) < 3e-4
        assert np.max(np.abs(first.component(1, 2, 2) + np.sin(x) * np.cos(x))) < 3e-4

    def test_sphere_curvature13(self, sphere):
        conn, _ = christoffel_from_metric(sphere)
        r = curvature13(conn)
        x = axial(sphere.grid)
        # one-sided axial stencils compound near the ends; the interior is clean
        e1 = np.abs(r.component(1, 2, 1, 2) - np.cos(x) ** 2)
        e2 = np.abs(r.component(2, 1, 1, 2) + 1.0)
        assert e1.max() < 0.05 and e1[2:-2].max() < 1e-3
        assert e2.max() < 0.15 and e2[2:-2].max() < 5e-3

    def test_sphere_axial_block(self, sphere):
        tube = curvature04_semigeo(sphere)
        x = axial(sphere.grid)
        err = np.abs(tube.component(1, 2, 2, 1) + np.cos(x) ** 2)
        assert err.max() < 2e-3 and err[2:-2].max() < 5e-4

    def test_hyperbolic_christoffel(self, hyperbolic):
        conn, _ = christoffel_from_metric(hyperbolic)
        x = axial(hyperbolic.grid)
        assert np.max(np.abs(conn.component(1, 2, 2) + np.sinh(x) * np.cosh(x))) < 1e-3
        assert np.max(np.abs(conn.component(2, 1, 2) - np.tanh(x))) < 1e-3

    def test_hyperbolic_curvature(self, hyperbolic):
        conn, _ = christoffel_from_metric(hyperbolic)
        r = curvature13(conn)
        x = axial(hyperbolic.grid)
        assert np.max(np.abs(r.component(1, 2, 1, 2) + np.cosh(x) ** 2)) < 0.2
        assert np.max(np.abs(r.component(2, 1, 1, 2) - 1.0)) < 0.1
        tube = curvature04_semigeo(hyperbolic)
        assert np.max(np.abs(tube.component(1, 2, 2, 1) - np.cosh(x) ** 2)) < 5e-3

    def test_shifted_cone_is_flat(self):
        # quadratic g_22: the stencils are exact, only roundoff remains
        grid = grid2(x1_range=(-0.25, 0.5))
        cone = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "(1 - x1)^2"})
        conn, _ = christoffel_from_metric(cone)
        x = axial(grid)
        assert np.max(np.abs(conn.component(1, 2, 2) - (1 - x))) < 1e-12
        assert np.max(np.abs(conn.component(2, 1, 2) + 1 / (1 - x))) < 1e-12
        assert curvature04_semigeo(cone).max_abs() < 1e-10
        assert curvature13(conn).max_abs() < 0.01

    def test_flat_metric_everything_zero(self):
        grid = grid2(res=4)
        flat = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "1"})
        conn, first = christoffel_from_metric(flat)
        assert np.max(np.abs(conn.dense)) == 0.0
        assert first.max_abs() == 0.0
        assert curvature13(conn).max_abs() == 0.0
        assert curvature04_semigeo(flat).max_abs() == 0.0


class TestSymbolicOracle:
    def test_christoffel_general_metric(self):
        # full random metric, no semigeodesic structure
        rng = np.random.default_rng(314)
        xs = orc.coords(2)
        g = sp.eye(2)
        for i in range(2):
            for j in range(i, 2):
                bump = orc._random_poly_trig(rng, xs, scale=0.12)
                if i == j:
                    g[i, j] = 1 + bump
                else:
                    g[i, j] = bump
                    g[j, i] = bump
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.2, 0.4), h1=0.02, transverse_res=17))
        fields = {(i + 1, j + 1): orc.sanitize(g[i, j]) for i in range(2) for j in range(i, 2)}
        conn, _ = christoffel_from_metric(MetricField.from_fields(grid, fields))
        gam = orc.christoffel(g, xs)
        for h in range(2):
            for i in range(2):
                for j in range(i, 2):
                    ref = orc.sample(gam[h][i][j], xs, grid)
                    got = conn.component(h + 1, i + 1, j + 1)
                    assert np.max(np.abs(got - ref)) < 1e-4, (h, i, j)

    def test_curvature13_random_connection(self):
        rng = np.random.default_rng(99)
        fields = orc.random_axis_connection(rng, 3, scale=0.25)
        xs = orc.coords(3)
        grid = build_grid(
            ChartSpec(
                n=3,
                x1_range=(-0.25, 0.25),
                h1=0.025,
                transverse_box=((0.0, 1.0), (0.0, 1.0)),
                transverse_res=9,
            )
        )
        conn = ConnectionField.from_fields(grid, {k: orc.sanitize(v) for k, v in fields.items()})
        r = curvature13(conn)
        rcas = orc.curvature13(orc.connection_matrix(fields, 3), xs)
        for h in range(3):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        e = rcas[h][i][j][k]
                        ref = orc.sample(e, xs, grid) if e != 0 else np.zeros(grid.shape)
                        got = r.component(h + 1, i + 1, j + 1, k + 1)
                        assert np.max(np.abs(got - ref)) < 5e-3, (h, i, j, k)

    def test_axial_block_random_semigeodesic_metric(self):
        rng = np.random.default_rng(7)
        g = orc.random_transverse_metric(rng, 3, scale=0.2)
        xs = orc.coords(3)
        grid = build_grid(
            ChartSpec(
                n=3,
                x1_range=(-0.25, 0.25),
                h1=0.025,
                transverse_box=((0.0, 1.0), (0.0, 1.0)),
                transverse_res=9,
            )
        )
        fields = {(1, 1): "1"}
        for i in range(1, 3):
            for j in range(i, 3):
                fields[(i + 1, j + 1)] = orc.sanitize(g[i, j])
        tube = curvature04_semigeo(MetricField.from_fields(grid, fields))
        blk = orc.axial_block(g, xs)
        for i in range(2, 4):
            for j in range(i, 4):
                ref = orc.sample(blk[i - 2, j - 2], xs, grid)
                assert np.max(np.abs(tube.component(1, i, j, 1) - ref)) < 5e-5, (i, j)


class TestLoweringIdentity:
    def test_residual_small_and_second_order(self):
        residuals = []
        for h1 in (2e-2, 1e-2):
            grid = grid2(h1=h1, x1_range=(-0.3, 0.5))
            m = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})
            conn, _ = christoffel_from_metric(m)
            _, resid = lower_and_check_identity(m, curvature13(conn))
            residuals.append(resid)
        assert residuals[1] < 5e-4
        assert 3.0 < residuals[0] / residuals[1] < 5.0

    def test_exact_samples_agree_to_roundoff(self):
        # closed-form curvature samples: the four readings coincide exactly
        grid = grid2(res=3)
        x = axial(grid)
        m = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})
        dense = np.zeros((2, 2, 2, 2) + grid.shape)
        dense[0, 1, 0, 1] = np.cos(x) ** 2
        dense[0, 1, 1, 0] = -np.cos(x) ** 2
        dense[1, 0, 0, 1] = -1.0
        dense[1, 0, 1, 0] = 1.0
        tube, resid = lower_and_check_identity(m, CurvatureTube(grid, dense))
        assert resid < 1e-13
        assert np.max(np.abs(tube.component(1, 2, 2, 1) + np.cos(x) ** 2)) < 1e-13

    def test_lowered_tube_matches_axial_operator(self, sphere):
        conn, _ = christoffel_from_metric(sphere)
        lowered, _ = lower_and_check_identity(sphere, curvature13(conn))
        direct = curvature04_semigeo(sphere)
        diff = lowered.component(1, 2, 2, 1) - direct.component(1, 2, 2, 1)
        assert np.max(np.abs(diff[2:-2])) < 5e-3

    def test_negative_axial_sign(self):
        # e = -1 only flips the sign bookkeeping, the identity still closes
        grid = grid2(x1_range=(-0.3, 0.5))
        m = MetricField.from_fields(
            grid, {(1, 1): "-1", (2, 2): "cosh(x1)^2"}, e=-1
        )
        assert m.semigeodesic_residuals() == (0.0, 0.0)
        conn, _ = christoffel_from_metric(m)
        _, resid = lower_and_check_identity(m, curvature13(conn))
        assert resid < 5e-3

    def test_requires_semigeodesic_metric(self):
        grid = grid2(res=4)
        skew = MetricField.from_fields(grid, {(1, 1): "1", (1, 2): "0.3*x1", (2, 2): "1"})
        conn, _ = christoffel_from_metric(skew)
        with pytest.raises(NotSemigeodesic):
            lower_and_check_identity(skew, curvature13(conn))


def two_tube_curvature13(conn):
    """The vectorized curvature13 the one-block form replaced: d_j G^h_ik
    stacked in its own n^4 tube, added to the quadratic term, then
    r = p - swapaxes(p)."""
    grid = conn.grid
    n = grid.n
    gam = conn.dense
    dgam = np.empty((n, n, n, n) + grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(1, n + 1):
            dgam[a - 1] = fd_partial(gam, a, grid)
        quad = np.einsum("mik...,hmj...->hijk...", gam, gam)
        dgam = np.transpose(dgam, (1, 2, 0, 3) + tuple(range(4, dgam.ndim)))
        p = np.add(dgam, quad, out=quad)
        return p - np.swapaxes(p, 2, 3)


class TestOneBlockCurvature:
    """``curvature13`` forms p and r in one n^4 block, slice by slice."""

    @staticmethod
    def connection(n, seed):
        grid = build_grid(
            ChartSpec(n=n, x1_range=(-0.2, 0.3), h1=0.05, transverse_res=(5,) + (4,) * (n - 2))
        )
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(n, n, n) + grid.shape) * 10.0 ** rng.integers(-3, 4)
        flat = dense.reshape(-1)
        flat[rng.random(flat.size) < 0.1] = -0.0
        # an inf and a huge value make inf - inf and overflow in places
        flat[rng.integers(flat.size, size=2)] = [np.inf, 1e200]
        return ConnectionField(grid, dense)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_two_tube_form_bitwise(self, n):
        conn = self.connection(n, seed=n)
        assert curvature13(conn).dense.tobytes() == two_tube_curvature13(conn).tobytes()

    def test_holds_one_n4_tube_and_a_derivative_at_its_peak(self):
        grid = build_grid(ChartSpec(n=3, x1_range=(-0.2, 0.2), h1=0.01, transverse_res=9))
        conn = ConnectionField(grid, np.random.default_rng(9).normal(size=(3, 3, 3) + grid.shape))
        tube = 3**4 * math.prod(grid.shape) * 8
        tracemalloc.start()
        try:
            curvature13(conn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # p plus one d_j G^h_ik and its stencil temporary (1/n tube each):
        # 1.66 tubes here; the two-tube form peaked at 2.03
        assert peak < 1.8 * tube


class TestStructure:
    def test_curvature_antisymmetry_is_exact(self):
        rng = np.random.default_rng(5)
        fields = orc.random_axis_connection(rng, 2, scale=0.3)
        grid = grid2(res=7)
        conn = ConnectionField.from_fields(grid, {k: orc.sanitize(v) for k, v in fields.items()})
        r = curvature13(conn)
        assert np.array_equal(r.dense, -np.swapaxes(r.dense, 2, 3))

    @staticmethod
    def axial_tube():
        grid = build_grid(
            ChartSpec(
                n=3,
                x1_range=(-0.1, 0.1),
                h1=0.05,
                transverse_box=((0.0, 1.0), (0.0, 1.0)),
                transverse_res=5,
            )
        )
        fields = {(1, 1): "1", (2, 2): "1 + 0.1*sin(x1)", (2, 3): "0.05*x1*x2", (3, 3): "1"}
        return curvature04_semigeo(MetricField.from_fields(grid, fields))

    def test_axial_tube_mirrored_slots_equal(self):
        tube = self.axial_tube()
        assert tube.first == (1, 2, 2, 1)
        assert np.array_equal(tube.component(1, 3, 2, 1), tube.component(1, 2, 3, 1))

    def test_axial_dump_mirrored_rows_match(self, tmp_path):
        tube = self.axial_tube()
        path = tmp_path / "r04.csv"
        write_tensor_dump(path, tube.grid, [tube])
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        values = {}
        for row in rows:
            values.setdefault(row[-2], []).append(row[-1])
        assert sorted(values) == ["1,2,2,1", "1,2,3,1", "1,3,2,1", "1,3,3,1"]
        assert values["1,2,3,1"] == values["1,3,2,1"]
        assert values["1,2,3,1"] != values["1,2,2,1"]

    def test_metric_tube_and_at(self, sphere):
        assert isinstance(sphere, TensorTube) and sphere.name == "g"
        assert np.array_equal(sphere.component(1, 1), sphere.dense[0, 0])
        m = sphere.at([[0.25], [0.5]])[..., 0]
        assert m.shape == (2, 2)
        assert m[0, 0] == pytest.approx(1.0)
        assert m[1, 1] == pytest.approx(np.cos(0.25) ** 2, abs=1e-4)
        assert m[0, 1] == m[1, 0] == 0.0

    def test_connection_at_symmetric(self, sphere):
        conn, _ = christoffel_from_metric(sphere)
        vals = conn.at([[0.3], [0.5]])[..., 0]
        assert vals.shape == (2, 2, 2)
        assert vals[1, 0, 1] == vals[1, 1, 0]
        assert vals[1, 0, 1] == pytest.approx(-np.tan(0.3), abs=1e-3)

    @staticmethod
    def block_grid(n):
        box = ((0.0, 1.0),) * (n - 1)
        return build_grid(ChartSpec(n=n, x1_range=(-0.5, 0.5), h1=0.25, transverse_box=box, transverse_res=4))

    @staticmethod
    def probe_points(grid, rng):
        """A node, points on cell faces (one coordinate on a node) and interior points."""
        axes = [grid.axis_coords(a) for a in range(1, grid.n + 1)]
        node = np.array([c[1] for c in axes])
        faces = []
        for a in range(grid.n):
            p = np.array([rng.uniform(c[0], c[-1]) for c in axes])
            p[a] = axes[a][2]
            faces.append(p)
        inner = [np.array([rng.uniform(c[0], c[-1]) for c in axes]) for _ in range(20)]
        return [node] + faces + inner

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cls, rank", [(MetricField, 2), (ConnectionField, 3), (CurvatureTube, 4)])
    def test_at_matches_scalar_components_bitwise(self, n, cls, rank):
        rng = np.random.default_rng(11)
        grid = self.block_grid(n)
        dense = rng.normal(size=(n,) * rank + grid.shape)
        if cls is not CurvatureTube:
            dense = mirror_upper(dense, rank - 2)
        tube = cls(grid, dense)
        points = np.array(self.probe_points(grid, rng)).T
        block = tube.at(points)
        assert block.shape == (n,) * rank + points.shape[1:]
        for pos in np.ndindex((n,) * rank):
            assert block[pos].tobytes() == interpolate(dense[pos], grid, points).tobytes()

    @pytest.mark.parametrize("cls, axis", [(MetricField, 0), (ConnectionField, 1)])
    def test_at_reads_the_upper_half_of_a_nonsymmetric_dense(self, cls, axis):
        rng = np.random.default_rng(12)
        grid = self.block_grid(3)
        dense = rng.normal(size=(3,) * (axis + 2) + grid.shape)
        before = dense.copy()
        tube = cls(grid, dense)
        points = np.array(self.probe_points(grid, rng)).T
        block = tube.at(points)
        for pos in np.ndindex(block.shape[:-1]):
            i, j = pos[axis], pos[axis + 1]
            upper = pos[:axis] + (min(i, j), max(i, j))
            assert block[pos].tobytes() == interpolate(dense[upper], grid, points).tobytes()
        assert np.array_equal(dense, before)

    def test_dense_shape_validation(self):
        grid = grid2(res=3)
        with pytest.raises(InvalidSpec):
            MetricField(grid, np.zeros((2, 3) + grid.shape))
        with pytest.raises(InvalidSpec):
            ConnectionField(grid, np.zeros((2, 2) + grid.shape))
        with pytest.raises(InvalidSpec):
            CurvatureTube(grid, np.zeros((2, 2, 2) + grid.shape))
        message = r"^g\(2, 2\): cannot interpret float as an expression$"
        with pytest.raises(InvalidSpec, match=message):
            MetricField.from_fields(grid, {(1, 1): "1", (2, 2): 1.5})
        with pytest.raises(InvalidSpec, match=r"^gamma\(2, 1, 2\): cannot interpret"):
            ConnectionField.from_fields(grid, {(2, 1, 2): None})

    def test_semigeodesic_constructor(self):
        grid = grid2(res=4)
        block = np.ones((1, 1) + grid.shape)
        m = MetricField.semigeodesic(grid, block, e=-1)
        assert m.e == -1
        assert np.all(m.component(1, 1) == -1.0)
        assert m.semigeodesic_residuals() == (0.0, 0.0)
        m.require_semigeodesic()

    def test_degenerate_metric_raises(self):
        grid = build_grid(
            ChartSpec(n=2, x1_range=(-0.1, 0.1), h1=0.05, transverse_box=((0.0, 1.0),), transverse_res=5)
        )
        # g_22 = x2 vanishes on the x2 = 0 wall
        m = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "x2"})
        with pytest.raises(DegenerateMetric) as exc:
            christoffel_from_metric(m)
        assert exc.value.node is not None
        assert abs(exc.value.det) < 1e-10
        with pytest.raises(DegenerateMetric):
            curvature04_semigeo(m)

    def test_det_nodes(self, sphere):
        x = axial(sphere.grid)
        assert np.allclose(sphere.det_nodes(), np.cos(x) ** 2, atol=1e-15)
