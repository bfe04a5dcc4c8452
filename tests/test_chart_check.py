import tracemalloc

import numpy as np
import pytest

from _replaced_points import (
    reference_geodesic_residual,
    reference_shoot,
    reference_unit_speed_residual,
)
from semigeo.chart_check import (
    Curve,
    geodesic_shoot,
    lemma1_check,
    pre_semigeodesic_residual,
    semigeodesic_check,
    unit_speed_residual,
)
from semigeo.curvature import ConnectionField, MetricField, christoffel_from_metric
from semigeo.errors import InvalidSpec, LeftDomain, OutOfDomain
from semigeo.grid_field import ChartSpec, build_grid
from semigeo.ode import GuardConfig


def shoot_one(conn, x0, v0, s_max, step, guards=None):
    """One start as a batch of one: its (Curve, LeftDomain or None)."""
    x0, v0 = (np.reshape(v, (-1, 1)) for v in (x0, v0))
    (shot,) = geodesic_shoot(conn, x0, v0, s_max, step, guards=guards)
    return shot


@pytest.fixture(scope="module")
def sphere():
    grid = build_grid(ChartSpec(n=2, x1_range=(-0.3, 1.0), h1=1e-2, transverse_res=5))
    return MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})


@pytest.fixture(scope="module")
def sphere_conn(sphere):
    conn, _ = christoffel_from_metric(sphere)
    return conn


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
        c, stop = shoot_one(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.9, 1e-2)
        assert stop is None
        assert np.all(c.points[:, 1] == 0.5)
        assert np.max(np.abs(c.points[:, 0] - c.s)) < 1e-14
        assert np.all(c.velocities == [1.0, 0.0])
        assert reference_geodesic_residual(sphere_conn, c) < 1e-11
        assert unit_speed_residual(sphere, c) < 1e-12

    def test_equator_stays_put(self, sphere, sphere_conn):
        c, stop = shoot_one(sphere_conn, (0.0, 0.2), (0.0, 1.0), 0.5, 1e-2)
        assert stop is None
        assert np.max(np.abs(c.points[:, 0])) == 0.0
        assert reference_geodesic_residual(sphere_conn, c) == 0.0
        assert unit_speed_residual(sphere, c) == 0.0

    def test_oblique_geodesic_keeps_speed(self, sphere, sphere_conn):
        v2 = 0.6 / np.cos(0.3)
        c, stop = shoot_one(sphere_conn, (0.3, 0.5), (0.8, v2), 0.6, 1e-2)
        assert stop is None
        assert unit_speed_residual(sphere, c) < 1e-4
        assert reference_geodesic_residual(sphere_conn, c) < 1e-3

    def test_flat_connection_straight_lines(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        c, stop = shoot_one(conn, (-0.4, 0.3), (1.0, 0.5), 0.8, 0.05)
        assert stop is None
        expect = np.stack([-0.4 + c.s, 0.3 + 0.5 * c.s], axis=1)
        assert np.max(np.abs(c.points - expect)) < 1e-14
        assert reference_geodesic_residual(conn, c) < 1e-10

    def test_leaving_the_tube_raises_with_partial(self, sphere_conn):
        curve, err = shoot_one(sphere_conn, (0.0, 0.5), (0.0, 1.0), 1.0, 1e-2)
        assert isinstance(err, LeftDomain)
        assert err.exit_point is not None
        assert err.exit_point[1] >= 1.0 - 1e-9
        assert isinstance(curve, Curve)
        assert len(curve.points) >= 2
        assert curve.s[-1] <= 0.55

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
        curve, err = shoot_one(conn, (-0.04, 0.0), (0.25, 1.0), s_max, 0.25)
        assert isinstance(err, LeftDomain)
        assert str(err) == "geodesic left the tube at s = 0.5"
        assert err.exit_point[0] > 0.5
        assert conn.grid.contains(err.exit_point[:, None]).tolist() == [False]
        assert np.array_equal(curve.s, [0.0, 0.25])
        assert conn.grid.contains(curve.points.T).all()
        assert not np.any(np.all(curve.points == err.exit_point, axis=1))

    def test_guard_stop_keeps_partial_curve(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        guards = GuardConfig(blowup_threshold=0.432)
        # x2 = 0.3 + 0.1 s first exceeds the threshold at the stages of step 14
        curve, err = shoot_one(conn, (-0.4, 0.3), (0.25, 0.1), 3.0, 0.1, guards=guards)
        assert isinstance(err, LeftDomain)
        assert "state rejected (blowup)" in str(err)
        assert len(curve.s) == 14
        assert np.max(np.abs(curve.points)) <= 0.432
        assert np.array_equal(err.exit_point, curve.points[-1])
        assert np.allclose(curve.velocities, [0.25, 0.1], rtol=0, atol=1e-15)

    @staticmethod
    def shoot_out(conn, steps):
        """A shot asked for ``steps`` steps of 0.1 that leaves in its first."""
        return shoot_one(conn, (0.45, 0.5), (1.0, 0.0), steps * 0.1, 0.1)

    def test_a_long_shot_that_leaves_at_once_allocates_little(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
        conn = ConnectionField.from_fields(grid, {})
        short, short_stop = self.shoot_out(conn, 10)
        tracemalloc.start()
        try:
            long, long_stop = self.shoot_out(conn, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # listing every step start ahead of the march peaked at 32.5 MB
        assert peak < 2**20
        assert str(long_stop) == str(short_stop) == "geodesic left the tube within step 1"
        assert long_stop.exit_point.tobytes() == short_stop.exit_point.tobytes()
        for name in ("s", "points", "velocities"):
            assert getattr(long, name).tobytes() == getattr(short, name).tobytes()

    def test_start_state_validation(self, sphere_conn):
        with pytest.raises(OutOfDomain):
            shoot_one(sphere_conn, (2.0, 0.5), (1.0, 0.0), 0.1, 1e-2)
        with pytest.raises(InvalidSpec):
            shoot_one(sphere_conn, (0.0, 0.5, 0.0), (1.0, 0.0), 0.1, 1e-2)
        with pytest.raises(InvalidSpec):
            shoot_one(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.1, -1e-2)
        with pytest.raises(InvalidSpec):
            shoot_one(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.001, 1e-2)
        # a start is a batch of one: shaped (n,), it is no batch
        with pytest.raises(InvalidSpec, match="must have 2 components"):
            geodesic_shoot(sphere_conn, (0.0, 0.5), (1.0, 0.0), 0.1, 1e-2)

    @pytest.mark.parametrize(
        "s_max, step",
        [(np.nan, 1e-2), (np.inf, 1e-2), (1.0, 1e-320)],
        ids=["nan-s-max", "inf-s-max", "subnormal-step"],
    )
    def test_unbounded_step_count_is_invalid(self, sphere_conn, s_max, step):
        with pytest.raises(InvalidSpec):
            shoot_one(sphere_conn, (0.0, 0.5), (1.0, 0.0), s_max, step)


class TestResiduals:
    def test_unit_speed_non_unit_curve(self, sphere):
        s = np.arange(5) * 1e-2
        pts = np.stack([s, np.full_like(s, 0.5)], axis=1)
        vel = np.tile([2.0, 0.0], (5, 1))
        c = Curve(s, pts, velocities=vel)
        assert unit_speed_residual(sphere, c) == pytest.approx(3.0, abs=1e-12)


# ----------------------------------------------------------- batched shots


def pushed():
    return TestShooting.pushed_conn()


def flat_conn():
    grid = build_grid(ChartSpec(n=2, x1_range=(-0.5, 0.5), h1=0.05, transverse_res=5))
    return ConnectionField.from_fields(grid, {})


def bent_3d():
    """A 3-D metric whose geodesics bend off the lattice nodes, and its connection."""
    grid = build_grid(
        ChartSpec(
            n=3,
            x1_range=(-0.2, 0.6),
            h1=0.02,
            transverse_res=(7, 5),
            transverse_box=((-1.0, 1.0), (-0.5, 1.5)),
        )
    )
    metric = MetricField.from_fields(
        grid,
        {
            (1, 1): "1 + 0.3*x2^2 + 0.1*x1*x3",
            (1, 2): "0.05*x3",
            (2, 2): "1 + 0.2*sin(x1 + x3)",
            (2, 3): "0.1*x1*x2",
            (3, 3): "cos(0.7*x1)^2 + 0.1*x2^2",
        },
    )
    return metric, christoffel_from_metric(metric)[0]


def sphere_case():
    grid = build_grid(ChartSpec(n=2, x1_range=(-0.3, 1.0), h1=1e-2, transverse_res=5))
    metric = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "cos(x1)^2"})
    return metric, christoffel_from_metric(metric)[0]


# (connection, starts, velocities, s_max, step, blow-up threshold): each a batch
SHOTS = {
    # oblique geodesics of the sphere, bending off the nodes
    "complete": lambda: (
        sphere_case()[1],
        [[0.0, 0.1, 0.3, -0.2, 0.05], [0.1, 0.5, 0.45, 0.9, 0.33]],
        [[1.0, 0.8, 0.6, 0.9, 0.99], [0.0, 0.6, 0.8, -0.4, 0.1]],
        0.5,
        1e-2,
        1e6,
    ),
    # a stage of step 1 leaves the tube
    "leave-within-step": lambda: (
        flat_conn(),
        [[0.45, 0.0, 0.4], [0.5, 0.5, 0.2]],
        [[1.0, 0.3, -1.0], [0.0, 0.1, 0.0]],
        0.8,
        0.1,
        1e6,
    ),
    # the final accepted step lands outside the tube, for two nodes at once
    # ("mixed" lands one mid-march)
    "landed-outside": lambda: (
        pushed(),
        [[-0.04, -0.04, 0.0], [0.0, 0.0, 0.0]],
        [[0.25, 0.25, 0.0], [1.0, 1.0, 0.1]],
        0.5,
        0.25,
        1e6,
    ),
    # x2 = 0.3 + 0.1 s passes the threshold within step 14, x2 = 0.35 +
    # 0.05 s within step 17; the others stay under it
    "guard-blowup": lambda: (
        flat_conn(),
        [[-0.4, 0.0, -0.1, 0.0], [0.3, 0.0, 0.2, 0.35]],
        [[0.25, 0.1, 0.1, 0.05], [0.1, 0.05, 0.0, 0.05]],
        3.0,
        0.1,
        0.432,
    ),
    # every outcome at once: landed outside, complete twice, left, blown up
    "mixed": lambda: (
        pushed(),
        [[-0.04, 0.3, -0.4, 0.45, 0.0], [0.0, 0.0, 0.5, 0.0, -1.0]],
        [[0.25, 0.0, 0.05, 1.0, 0.1], [1.0, 0.1, 0.1, 0.0, 3.9]],
        0.75,
        0.25,
        6.0,
    ),
    # 3-D geodesics with their own start and velocity, some leaving the tube
    "3d": lambda: (
        bent_3d()[1],
        [[0.0, 0.1, -0.1, 0.3, 0.0], [0.0, 0.5, -0.9, 0.2, 0.95], [0.5, 0.0, 1.4, 0.7, -0.4]],
        [[1.0, 0.7, 0.9, 0.5, 0.2], [0.1, -0.5, 0.2, 0.3, 1.0], [0.0, 0.3, 0.4, -0.6, 0.1]],
        0.6,
        0.02,
        1e6,
    ),
}


def outcome_bytes(curve, stop):
    arrays = (curve.s, curve.points, curve.velocities)
    if stop is None:
        return [a.tobytes() for a in arrays], None
    return [a.tobytes() for a in arrays], (str(stop), stop.exit_point.tobytes())


class TestBatchedShots:
    """One K-node march gives every shot the bytes of marching it alone."""

    @pytest.mark.parametrize("case", sorted(SHOTS))
    def test_batch_matches_one_node_reference(self, case):
        conn, x0, v0, s_max, step, threshold = SHOTS[case]()
        x0, v0 = np.array(x0), np.array(v0)
        guards = GuardConfig(blowup_threshold=threshold)
        shots = geodesic_shoot(conn, x0, v0, s_max, step, guards=guards)
        assert len(shots) == x0.shape[1]
        for k, (curve, stop) in enumerate(shots):
            want = reference_shoot(conn, x0[:, k], v0[:, k], s_max, step, guards)
            assert outcome_bytes(curve, stop) == outcome_bytes(*want)

    @pytest.mark.parametrize("case", sorted(SHOTS))
    def test_single_start_matches_one_node_reference(self, case):
        conn, x0, v0, s_max, step, threshold = SHOTS[case]()
        guards = GuardConfig(blowup_threshold=threshold)
        for start, velocity in zip(np.array(x0).T, np.array(v0).T):
            want = reference_shoot(conn, start, velocity, s_max, step, guards)
            got = shoot_one(conn, start, velocity, s_max, step, guards=guards)
            assert outcome_bytes(*got) == outcome_bytes(*want)

    @staticmethod
    def kind(stop):
        if stop is None:
            return "complete"
        for key, kind in (("left the tube at s", "landed"), ("within step", "left")):
            if key in str(stop):
                return kind
        return str(stop).split(" at ")[0]

    @pytest.mark.parametrize(
        "case, kinds",
        [
            ("mixed", {"landed", "complete", "left", "geodesic state rejected (blowup)"}),
            ("guard-blowup", {"complete", "geodesic state rejected (blowup)"}),
            ("landed-outside", {"landed", "complete"}),
            ("3d", {"complete", "left"}),
        ],
    )
    def test_cases_reach_their_outcomes(self, case, kinds):
        conn, x0, v0, s_max, step, threshold = SHOTS[case]()
        guards = GuardConfig(blowup_threshold=threshold)
        shots = geodesic_shoot(conn, np.array(x0), np.array(v0), s_max, step, guards=guards)
        assert {self.kind(stop) for _, stop in shots} == kinds

    def test_starts_are_checked_one_by_one(self, sphere_conn):
        x0 = np.array([[0.0, 2.0], [0.5, 0.5]])
        with pytest.raises(OutOfDomain, match=r"^geodesic start \(2\.0, 0\.5\) is outside the tube$"):
            geodesic_shoot(sphere_conn, x0, np.ones_like(x0), 0.1, 1e-2)
        with pytest.raises(InvalidSpec):
            geodesic_shoot(sphere_conn, x0, np.ones((2, 3)), 0.1, 1e-2)


class TestWholeCurveResiduals:
    """The unit-speed residual reads a whole curve with one query and
    keeps the per-sample bytes of ``float(v @ g @ v)`` through BLAS."""

    @pytest.mark.parametrize("case", ["complete", "3d"])
    def test_residuals_of_bent_shots(self, case):
        metric = sphere_case()[0] if case == "complete" else bent_3d()[0]
        conn, x0, v0, s_max, step, _ = SHOTS[case]()
        shots = geodesic_shoot(conn, np.array(x0), np.array(v0), s_max, step)
        for curve, _ in shots:
            assert unit_speed_residual(metric, curve) == reference_unit_speed_residual(metric, curve)

    def test_random_samples_match_per_sample_products(self):
        rng = np.random.default_rng(7)
        for metric, _ in (sphere_case(), bent_3d()):
            grid = metric.grid
            lo = np.array([grid.axis_coords(a)[0] for a in range(1, grid.n + 1)])
            hi = np.array([grid.axis_coords(a)[-1] for a in range(1, grid.n + 1)])
            for _ in range(20):
                s = np.arange(12) * 0.01
                pts = lo + (hi - lo) * rng.random((12, grid.n))
                vel = rng.normal(size=(12, grid.n)) * 10.0 ** rng.integers(-3, 3, size=(12, 1))
                curve = Curve(s, pts, velocities=vel)
                want = reference_unit_speed_residual(metric, curve)
                assert unit_speed_residual(metric, curve) == want

    def test_nan_samples_are_skipped(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(0.0, 0.1), h1=0.05, transverse_res=3))
        dense = np.zeros((2, 2) + grid.shape)
        dense[0, 0] = 1.0
        dense[1, 1] = 1.0
        dense[1, 1, 2] = np.nan
        metric = MetricField(grid, dense)
        s = np.array([0.0, 0.05, 0.1])
        pts = np.array([[0.0, 0.5], [0.05, 0.5], [0.1, 0.5]])
        curve = Curve(s, pts, velocities=np.array([[1.0, 0.5]] * 3))
        assert reference_unit_speed_residual(metric, curve) == 0.25
        assert unit_speed_residual(metric, curve) == 0.25
