import numpy as np
import pytest
import sympy as sp

import _oracles as orc
from semigeo.errors import InvalidInit, InvalidSpec
from semigeo.grid_field import ChartSpec
from semigeo.linalg import det_stack, inv_sym
from semigeo.metric_recon import (
    HypersurfaceMetricData,
    MetricCurvatureSpec,
    _quadratic,
    reconstruct_metric,
)


def surface_spec(h1=1e-2, x1_range=(0.0, 1.0), res=3, e=1):
    return ChartSpec(n=2, x1_range=x1_range, h1=h1, transverse_res=res, e=e)


def axial(grid):
    return grid.x1_samples[:, None] * np.ones((1,) + grid.transverse_shape)


class TestConstantCurvature:
    def test_sphere_band(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"}, g1={(2, 2): "0"})
        src = MetricCurvatureSpec(2, {(2, 2): "-cos(x1)^2"})
        metric, report = reconstruct_metric(init, src, 1, surface_spec())
        assert report.complete
        x = axial(metric.grid)
        assert np.max(np.abs(metric.component(2, 2) - np.cos(x) ** 2)) < 1e-8
        assert metric.semigeodesic_residuals() == (0.0, 0.0)
        assert metric.e == 1

    def test_hyperbolic_band(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        src = MetricCurvatureSpec(2, {(2, 2): "cosh(x1)^2"})
        metric, report = reconstruct_metric(init, src, 1, surface_spec())
        assert report.complete
        x = axial(metric.grid)
        assert np.max(np.abs(metric.component(2, 2) - np.cosh(x) ** 2)) < 1e-8

    def test_minus_direction_marched_too(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        src = MetricCurvatureSpec(2, {(2, 2): "-cos(x1)^2"})
        metric, report = reconstruct_metric(
            init, src, 1, surface_spec(x1_range=(-1.0, 0.5))
        )
        assert report.complete
        assert report.delta_hat_minus == pytest.approx(-1.0)
        assert report.delta_hat_plus == pytest.approx(0.5)
        x = axial(metric.grid)
        assert np.max(np.abs(metric.component(2, 2) - np.cos(x) ** 2)) < 1e-8

    def test_flat_is_exact(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        metric, report = reconstruct_metric(
            init, MetricCurvatureSpec(2), 1, surface_spec()
        )
        assert report.complete
        assert np.all(metric.component(2, 2) == 1.0)
        assert report.max_component == 1.0


class TestSymbolicScenario:
    def test_three_dimensional_block(self):
        rng = np.random.default_rng(11)
        g = orc.random_transverse_metric(rng, 3, scale=0.2)
        xs = orc.coords(3)
        x1 = xs[0]
        blk = orc.axial_block(g, xs)
        init = HypersurfaceMetricData(
            3,
            g={
                (i, j): orc.sanitize(g[i - 1, j - 1].subs(x1, 0))
                for i in range(2, 4)
                for j in range(i, 4)
            },
            g1={
                (i, j): orc.sanitize(sp.diff(g[i - 1, j - 1], x1).subs(x1, 0))
                for i in range(2, 4)
                for j in range(i, 4)
            },
        )
        src = MetricCurvatureSpec(
            3,
            {
                (i, j): orc.sanitize(blk[i - 2, j - 2])
                for i in range(2, 4)
                for j in range(i, 4)
            },
        )
        spec = ChartSpec(
            n=3,
            x1_range=(-0.3, 0.3),
            h1=0.01,
            transverse_box=((0.0, 1.0), (0.0, 1.0)),
            transverse_res=5,
        )
        metric, report = reconstruct_metric(init, src, 1, spec)
        assert report.complete
        worst = 0.0
        for i in range(2, 4):
            for j in range(i, 4):
                ref = orc.sample(g[i - 1, j - 1], xs, metric.grid)
                worst = max(
                    worst, float(np.max(np.abs(metric.component(i, j) - ref)))
                )
        assert worst < 1e-8
        assert metric.semigeodesic_residuals() == (0.0, 0.0)

    def test_transverse_nodes_independent(self):
        # no transverse coupling: shared nodes agree bitwise across res
        init = HypersurfaceMetricData(2, g={(2, 2): "1 + 0.2*sin(x2)"})
        src = MetricCurvatureSpec(2, {(2, 2): "-cos(x1 + 0.3*x2)^2"})
        coarse, _ = reconstruct_metric(init, src, 1, surface_spec(res=5))
        fine, _ = reconstruct_metric(init, src, 1, surface_spec(res=9))
        assert np.array_equal(coarse.component(2, 2), fine.component(2, 2)[:, ::2])


class TestStops:
    def cone(self, g1="-2", h1=1e-3, x1_hi=2.0, res=3):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"}, g1={(2, 2): g1})
        src = MetricCurvatureSpec(2)
        spec = surface_spec(h1=h1, x1_range=(0.0, x1_hi), res=res)
        return reconstruct_metric(init, src, 1, spec)

    def test_cone_collapse_reported_degenerate(self):
        # the discrete march can tunnel over the isolated zero of the
        # determinant; the stop must still be labeled degenerate
        metric, report = self.cone()
        assert report.status == "StoppedDegenerate"
        assert report.delta_hat_plus == pytest.approx(1.0, abs=1e-2)

    def test_cone_fine_step_samples_the_floor(self):
        _, report = self.cone(h1=1e-4)
        assert report.status == "StoppedDegenerate"
        assert abs(report.delta_hat_plus - 1.0) < 1e-3

    def test_node_dependent_collapse_names_first_node(self):
        init = HypersurfaceMetricData(
            2, g={(2, 2): "1"}, g1={(2, 2): "-2 - 0.5*x2"}
        )
        spec = ChartSpec(
            n=2,
            x1_range=(-0.0005, 1.0),
            h1=1e-4,
            transverse_box=((0.0, 1.0),),
            transverse_res=9,
        )
        metric, report = reconstruct_metric(init, MetricCurvatureSpec(2), 1, spec)
        assert report.status == "StoppedDegenerate"
        assert report.delta_hat_plus == pytest.approx(0.8, abs=1e-3)
        assert report.diagnostics["stop_plus"].endswith("node (8,)")

    def test_exponential_growth_reported_blowup(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"}, g1={(2, 2): "2"})
        src = MetricCurvatureSpec(2, {(2, 2): "cosh(x1)^2"})
        spec = surface_spec(h1=1e-2, x1_range=(0.0, 50.0))
        metric, report = reconstruct_metric(init, src, 1, spec)
        assert report.status == "StoppedBlowup"
        assert report.delta_hat_plus == pytest.approx(7.25, abs=0.5)
        assert "blowup" in report.diagnostics["stop_plus"]

    def test_partial_metric_usable(self):
        metric, report = self.cone()
        x = axial(metric.grid)
        keep = x[:, 0] < 0.9
        expected = (1.0 - x[keep]) ** 2
        assert np.max(np.abs(metric.component(2, 2)[keep] - expected)) < 1e-7


class TestValidation:
    def test_indefinite_block_allowed(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "-1"})
        metric, report = reconstruct_metric(
            init, MetricCurvatureSpec(2), 1, surface_spec()
        )
        assert report.complete
        assert np.all(metric.component(2, 2) == -1.0)

    def test_lorentzian_axial_sign(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        src = MetricCurvatureSpec(2, {(2, 2): "-cos(x1)^2"})
        metric, report = reconstruct_metric(init, src, -1, surface_spec(e=-1))
        assert report.complete
        assert metric.e == -1
        assert np.all(metric.component(1, 1) == -1.0)
        assert metric.semigeodesic_residuals() == (0.0, 0.0)

    def test_axial_sign_validated(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        with pytest.raises(InvalidSpec):
            reconstruct_metric(init, MetricCurvatureSpec(2), 2, surface_spec())

    def test_axial_sign_must_match_chart(self):
        # the chart's e is the one the CLI passes; a second, different e is refused
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        with pytest.raises(InvalidSpec, match=r"^e = -1 differs from the chart's e = 1$"):
            reconstruct_metric(init, MetricCurvatureSpec(2), -1, surface_spec())

    def test_degenerate_initial_block(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "x2"})
        spec = ChartSpec(
            n=2,
            x1_range=(0.0, 1.0),
            h1=1e-2,
            transverse_box=((0.0, 1.0),),
            transverse_res=5,
        )
        with pytest.raises(InvalidInit):
            reconstruct_metric(init, MetricCurvatureSpec(2), 1, spec)

    def test_missing_block_defaults_degenerate(self):
        # both g~ entries omitted -> zero block -> degenerate at once
        init = HypersurfaceMetricData(2)
        with pytest.raises(InvalidInit):
            reconstruct_metric(init, MetricCurvatureSpec(2), 1, surface_spec())

    def test_symmetric_orderings_conflict(self):
        with pytest.raises(InvalidInit):
            HypersurfaceMetricData(3, g={(2, 3): "1", (3, 2): "2"})
        with pytest.raises(InvalidInit):
            MetricCurvatureSpec(3, {(2, 3): "1", (3, 2): "2"})

    def test_transverse_indices_only(self):
        with pytest.raises(InvalidInit):
            HypersurfaceMetricData(2, g={(1, 2): "1"})
        with pytest.raises(InvalidInit):
            MetricCurvatureSpec(2, {(1, 2): "1"})

    def test_init_may_not_depend_on_x1(self):
        with pytest.raises(InvalidInit):
            HypersurfaceMetricData(2, g={(2, 2): "1 + x1"})

    def test_sampled_init(self):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"})
        src = MetricCurvatureSpec(2, {(2, 2): "-cos(x1)^2"})
        metric, report = reconstruct_metric(init, src, 1, surface_spec(res=3))
        assert report.complete
        x = axial(metric.grid)
        assert np.max(np.abs(metric.component(2, 2) - np.cos(x) ** 2)) < 1e-8


def symmetric_stack(rng, k, count, shift=0.0):
    m = rng.normal(scale=0.3, size=(k, k, count))
    return m + np.swapaxes(m, 0, 1) + shift * np.eye(k)[..., None]


def march_dG(g, G, a):
    """d1 G = 1/2 g^{rs} G_ir G_js + 2 a_ij as the metric march evaluates it."""
    return _quadratic(inv_sym(g, det_stack(g)), G) + 2.0 * a


class TestMetricRhs:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(5)
        g = symmetric_stack(rng, 3, 6, shift=2.0)
        G = symmetric_stack(rng, 3, 6)
        a = symmetric_stack(rng, 3, 6)
        dG = march_dG(g, G, a)
        assert dG.shape == (3, 3, 6)
        for node in range(6):
            one = slice(node, node + 1)
            one_G = march_dG(g[..., one], G[..., one], a[..., one])[..., 0]
            np.testing.assert_allclose(one_G, dG[..., node], rtol=1e-13, atol=1e-15)
            ginv = np.linalg.inv(g[..., node])
            ref = 0.5 * G[..., node] @ ginv @ G[..., node] + 2.0 * a[..., node]
            np.testing.assert_allclose(one_G, ref, rtol=1e-12, atol=1e-14)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        g = symmetric_stack(rng, 3, 8, shift=2.0)
        dG = march_dG(g, symmetric_stack(rng, 3, 8), symmetric_stack(rng, 3, 8))
        assert np.array_equal(dG, np.swapaxes(dG, 0, 1))
