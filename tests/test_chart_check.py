import tracemalloc

import numpy as np
import pytest

from semigeo.chart_check import (
    Curve,
    geodesic_residual,
    geodesic_shoot,
    lemma1_check,
    pre_semigeodesic_residual,
    semigeodesic_check,
    unit_speed_residual,
)
from semigeo.curvature import ConnectionField, MetricField, christoffel_from_metric
from semigeo.errors import GridTooCoarse, InvalidSpec, LeftDomain, OutOfDomain
from semigeo.grid_field import ChartSpec, build_grid
from semigeo.ode import GuardConfig


@pytest.fixture(scope="module")
def sphere():
    grid = build_grid(ChartSpec(n=2, x1_range=(-0.3, 1.0), h1=1e-2, transverse_res=5))
    return MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})


@pytest.fixture(scope="module")
def sphere_conn(sphere):
    conn, _ = christoffel_from_metric(sphere)
    return conn


class TestCurve:
    def test_shape_validation(self):
        with pytest.raises(InvalidSpec):
            Curve(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidSpec):
            Curve(np.arange(3.0), np.zeros(3))
        with pytest.raises(InvalidSpec):
            Curve(np.arange(3.0), np.zeros((4, 2)))

    def test_parameters_strictly_increase(self):
        with pytest.raises(InvalidSpec):
            Curve(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(InvalidSpec):
            Curve(np.array([0.0, 2.0, 1.0]), np.zeros((3, 2)))

    def test_velocity_shape_checked(self):
        with pytest.raises(InvalidSpec):
            Curve(np.arange(3.0), np.zeros((3, 2)), velocities=np.zeros((3, 3)))

    def test_uniform_step(self):
        c = Curve(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)))
        assert c.uniform_step() == 0.5
        ragged = Curve(np.array([0.0, 0.5, 1.5]), np.zeros((3, 2)))
        with pytest.raises(InvalidSpec):
            ragged.uniform_step()
        single = Curve(np.array([0.0]), np.zeros((1, 2)))
        with pytest.raises(GridTooCoarse):
            single.uniform_step()


class TestLineCharacterization:
    def test_two_routes_agree_exactly(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.2, 0.2), h1=0.05, transverse_res=7))
        conn = ConnectionField.from_fields(
            grid, {(1, 1, 1): "0.3*sin(x1 + x2)", (2, 1, 2): "x1*x2"}
        )
        assert lemma1_check(conn) == pre_semigeodesic_residual(conn)
        assert lemma1_check(conn) > 0.0

    def test_zero_on_pre_semigeodesic_chart(self, sphere_conn):
        assert pre_semigeodesic_residual(sphere_conn) == 0.0
        assert lemma1_check(sphere_conn) == 0.0

    def test_semigeodesic_check_routes_to_metric(self, sphere):
        assert semigeodesic_check(sphere) == (0.0, 0.0)
        grid = sphere.grid
        skew = MetricField.from_fields(
            grid, {(1, 1): "1", (1, 2): "0.1*x1", (2, 2): "1"}
        )
        r11, r1j = semigeodesic_check(skew)
        assert r11 == 0.0
        assert r1j == pytest.approx(0.1)
        flipped = MetricField(grid, skew.dense, e=-1)
        r11_flipped, _ = semigeodesic_check(flipped)
        assert r11_flipped == pytest.approx(2.0)


class TestShooting:
    def test_axial_line_is_exact(self, sphere, sphere_conn):
        c = geodesic_shoot(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.9, 1e-2)
        assert np.all(c.points[:, 1] == 0.5)
        assert np.max(np.abs(c.points[:, 0] - c.s)) < 1e-14
        assert np.all(c.velocities == [1.0, 0.0])
        assert geodesic_residual(sphere_conn, c) < 1e-11
        assert unit_speed_residual(sphere, c) < 1e-12

    def test_equator_stays_put(self, sphere, sphere_conn):
        c = geodesic_shoot(sphere_conn, (0.0, 0.2), (0.0, 1.0), 0.5, 1e-2)
        assert np.max(np.abs(c.points[:, 0])) == 0.0
        assert geodesic_residual(sphere_conn, c) == 0.0
        assert unit_speed_residual(sphere, c) == 0.0

    def test_oblique_geodesic_keeps_speed(self, sphere, sphere_conn):
        v2 = 0.6 / np.cos(0.3)
        c = geodesic_shoot(sphere_conn, (0.3, 0.5), (0.8, v2), 0.6, 1e-2)
        assert unit_speed_residual(sphere, c) < 1e-4
        assert geodesic_residual(sphere_conn, c) < 1e-3

    def test_flat_connection_straight_lines(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        c = geodesic_shoot(conn, (-0.4, 0.3), (1.0, 0.5), 0.8, 0.05)
        expect = np.stack([-0.4 + c.s, 0.3 + 0.5 * c.s], axis=1)
        assert np.max(np.abs(c.points - expect)) < 1e-14
        assert geodesic_residual(conn, c) < 1e-10

    def test_leaving_the_tube_raises_with_partial(self, sphere_conn):
        with pytest.raises(LeftDomain) as exc:
            geodesic_shoot(sphere_conn, (0.0, 0.5), (0.0, 1.0), 1.0, 1e-2)
        err = exc.value
        assert err.exit_point is not None
        assert err.exit_point[1] >= 1.0 - 1e-9
        assert isinstance(err.curve, Curve)
        assert len(err.curve.points) >= 2
        assert err.curve.s[-1] <= 0.55

    @staticmethod
    def pushed_conn():
        # Gamma^1_22 = 8 x1 - 4 pushes x1 outward ever more weakly as it
        # nears x1 = 0.5, so the completed step overshoots its last stage
        # state: stage 4 stays inside while the accepted position is out
        grid = build_grid(
            ChartSpec(
                n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5, transverse_box=((-2.0, 2.0),)
            )
        )
        return ConnectionField.from_fields(grid, {(1, 2, 2): "8*x1 - 4"})

    @pytest.mark.parametrize("s_max", [0.5, 0.75], ids=["final-step", "mid-march"])
    def test_accepted_step_outside_is_the_exit_point(self, s_max):
        conn = self.pushed_conn()
        with pytest.raises(LeftDomain, match=r"left the tube at s = 0\.5$") as exc:
            geodesic_shoot(conn, (-0.04, 0.0), (0.25, 1.0), s_max, 0.25)
        err = exc.value
        assert err.exit_point[0] > 0.5
        assert not conn.grid.contains(err.exit_point)
        assert np.array_equal(err.curve.s, [0.0, 0.25])
        assert all(conn.grid.contains(p) for p in err.curve.points)
        assert not np.any(np.all(err.curve.points == err.exit_point, axis=1))

    def test_guard_stop_keeps_partial_curve(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        guards = GuardConfig(blowup_threshold=0.432)
        # x2 = 0.3 + 0.1 s first exceeds the threshold at the stages of step 14
        with pytest.raises(LeftDomain, match=r"state rejected \(blowup\)") as exc:
            geodesic_shoot(conn, (-0.4, 0.3), (0.25, 0.1), 3.0, 0.1, guards=guards)
        err = exc.value
        assert len(err.curve.s) == 14
        assert np.max(np.abs(err.curve.points)) <= 0.432
        assert np.array_equal(err.exit_point, err.curve.points[-1])
        assert np.allclose(err.curve.velocities, [0.25, 0.1], rtol=0, atol=1e-15)

    @staticmethod
    def shoot_out(conn, steps):
        """A shot asked for ``steps`` steps of 0.1 that leaves in its first."""
        with pytest.raises(LeftDomain) as exc:
            geodesic_shoot(conn, (0.45, 0.5), (1.0, 0.0), steps * 0.1, 0.1)
        return exc.value

    def test_a_long_shot_that_leaves_at_once_allocates_little(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        short = self.shoot_out(conn, 10)
        tracemalloc.start()
        try:
            long = self.shoot_out(conn, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # listing every step start ahead of the march peaked at 32.5 MB
        assert peak < 2**20
        assert str(long) == str(short) == "geodesic left the tube within step 1"
        assert long.exit_point.tobytes() == short.exit_point.tobytes()
        for name in ("s", "points", "velocities"):
            assert getattr(long.curve, name).tobytes() == getattr(short.curve, name).tobytes()

    def test_start_state_validation(self, sphere_conn):
        with pytest.raises(OutOfDomain):
            geodesic_shoot(sphere_conn, (2.0, 0.5), (1.0, 0.0), 0.1, 1e-2)
        with pytest.raises(InvalidSpec):
            geodesic_shoot(sphere_conn, (0.0, 0.5, 0.0), (1.0, 0.0), 0.1, 1e-2)
        with pytest.raises(InvalidSpec):
            geodesic_shoot(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.1, -1e-2)
        with pytest.raises(InvalidSpec):
            geodesic_shoot(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.001, 1e-2)

    @pytest.mark.parametrize(
        "s_max, step",
        [(np.nan, 1e-2), (np.inf, 1e-2), (1.0, 1e-320)],
        ids=["nan-s-max", "inf-s-max", "subnormal-step"],
    )
    def test_unbounded_step_count_is_invalid(self, sphere_conn, s_max, step):
        with pytest.raises(InvalidSpec):
            geodesic_shoot(sphere_conn, (0.0, 0.5), (1.0, 0.0), s_max, step)


class TestResiduals:
    def test_residual_needs_three_samples(self, sphere_conn):
        c = Curve(np.array([0.0, 0.1]), np.array([[0.0, 0.5], [0.1, 0.5]]))
        with pytest.raises(GridTooCoarse):
            geodesic_residual(sphere_conn, c)

    def test_residual_from_points_alone(self, sphere_conn):
        # velocities omitted: second-order differences take over
        s = np.arange(21) * 1e-2
        pts = np.stack([s, np.full_like(s, 0.5)], axis=1)
        c = Curve(s, pts)
        assert geodesic_residual(sphere_conn, c) < 1e-10

    def test_residual_flags_non_geodesic(self, sphere_conn):
        s = np.arange(21) * 1e-2
        pts = np.stack([s**2, np.full_like(s, 0.5)], axis=1)
        c = Curve(s, pts)
        assert geodesic_residual(sphere_conn, c) > 1.0

    def test_unit_speed_non_unit_curve(self, sphere):
        s = np.arange(5) * 1e-2
        pts = np.stack([s, np.full_like(s, 0.5)], axis=1)
        vel = np.tile([2.0, 0.0], (5, 1))
        c = Curve(s, pts, velocities=vel)
        assert unit_speed_residual(sphere, c) == pytest.approx(3.0, abs=1e-12)
