import numpy as np
import pytest

from semigeo.errors import GridTooCoarse, InvalidSpec, OutOfDomain
from semigeo.grid_field import (
    ChartSpec,
    ExpressionField,
    SampledField,
    TensorTube,
    as_field,
    build_grid,
    fd_partial,
    fd_second,
    fd_transverse,
    interpolate,
    read_tensor_dump,
    write_curve_dump,
    write_tensor_dump,
)
from semigeo.expr import parse_field


def grid2(x1_range=(0.0, 1.0), h1=0.25, res=5, box=None):
    return build_grid(ChartSpec(n=2, x1_range=x1_range, h1=h1, transverse_res=res, transverse_box=box))


class TestChartSpec:
    def test_dimension_floor(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=1, x1_range=(0.0, 1.0), h1=0.1)

    def test_range_must_contain_zero(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(0.5, 1.0), h1=0.1)
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(-2.0, -1.0), h1=0.1)

    def test_positive_step(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(0.0, 1.0), h1=0.0)

    def test_box_arity(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=3, x1_range=(0.0, 1.0), h1=0.1, transverse_box=((0.0, 1.0),))

    def test_empty_interval(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(0.0, 1.0), h1=0.1, transverse_box=((1.0, 1.0),))

    def test_res_floor(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(0.0, 1.0), h1=0.1, transverse_res=2)

    def test_sign_values(self):
        with pytest.raises(InvalidSpec):
            ChartSpec(n=2, x1_range=(0.0, 1.0), h1=0.1, e=0)

    def test_scalar_res_broadcasts(self):
        spec = ChartSpec(n=3, x1_range=(0.0, 1.0), h1=0.1, transverse_res=7)
        assert spec.transverse_res == (7, 7)


class TestBuildGrid:
    def test_axial_samples_are_step_multiples_with_zero(self):
        g = grid2(x1_range=(-0.5, 1.0), h1=0.25)
        assert np.array_equal(g.x1_samples, np.array([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]))
        assert g.zero_index == 2

    def test_partial_step_at_the_ends_is_dropped(self):
        g = grid2(x1_range=(-0.3, 0.6), h1=0.25)
        assert np.array_equal(g.x1_samples, np.array([-0.25, 0.0, 0.25, 0.5]))

    def test_transverse_axes_cover_the_box(self):
        g = grid2(res=5, box=((2.0, 3.0),))
        assert np.array_equal(g.transverse_axes[0], np.linspace(2.0, 3.0, 5))
        assert g.shape == (5, 5)
        assert g.transverse_shape == (5,)

    def test_spacing(self):
        g = grid2()
        assert g.spacing(1) == 0.25
        assert g.spacing(2) == 0.25

    def test_contains(self):
        g = grid2()
        assert g.contains((0.5, 0.5))
        assert g.contains((1.0, 1.0))
        assert not g.contains((1.1, 0.5))
        assert not g.contains((0.5, -0.2))
        assert not g.contains((0.5,))

    def test_subsample_halves_each_axis(self):
        g = grid2(x1_range=(0.0, 1.0), h1=0.25, res=5)
        s = g.subsample(2)
        assert np.array_equal(s.x1_samples, np.array([0.0, 0.5, 1.0]))
        assert s.transverse_shape == (3,)

    def test_subsample_rejects_uneven_axes(self):
        with pytest.raises(InvalidSpec):
            grid2(res=4).subsample(2)

    def test_restrict_keeps_transverse(self):
        g = grid2()
        r = g.restrict_x1(0, 2)
        assert len(r.x1_samples) == 3
        assert r.transverse_shape == g.transverse_shape


class TestFiniteDifferences:
    def test_constants_differentiate_to_exact_zero(self):
        g = grid2(h1=0.01, res=9)
        c = np.full(g.shape, 3.7)
        assert np.all(fd_partial(c, 1, g) == 0.0)
        assert np.all(fd_partial(c, 2, g) == 0.0)
        assert np.all(fd_second(c, 1, g) == 0.0)

    def test_linear_fields_are_exact(self):
        g = grid2(h1=0.25, res=5)
        x1 = g.x1_samples[:, None] * np.ones(5)
        x2 = np.ones((5, 1)) * g.transverse_axes[0]
        f = 2.0 * x1 - 3.0 * x2
        assert np.max(np.abs(fd_partial(f, 1, g) - 2.0)) < 1e-13
        assert np.max(np.abs(fd_partial(f, 2, g) + 3.0)) < 1e-13

    def test_quadratic_second_derivative_is_exact(self):
        g = grid2(h1=0.25, res=5)
        x1 = g.x1_samples[:, None] * np.ones(5)
        assert np.max(np.abs(fd_second(x1**2, 1, g) - 2.0)) < 1e-12

    def test_sine_first_derivative_bounds(self):
        # interior truncation h^2/6 |f'''|, one-sided boundary h^2/3
        h = 1e-2
        g = grid2(x1_range=(0.0, 1.0), h1=h, res=5)
        x1 = g.x1_samples[:, None] * np.ones(5)
        err = np.abs(fd_partial(np.sin(x1), 1, g) - np.cos(x1))
        assert np.max(err[1:-1]) <= 1.01 * h**2 / 6
        assert np.max(err) <= 1.01 * h**2 / 3

    def test_first_derivative_second_order_convergence(self):
        errs = []
        for h in (2e-2, 1e-2):
            g = grid2(x1_range=(0.0, 1.0), h1=h, res=5)
            x1 = g.x1_samples[:, None] * np.ones(5)
            errs.append(np.max(np.abs(fd_partial(np.sin(x1), 1, g) - np.cos(x1))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_second_derivative_second_order_convergence(self):
        errs = []
        for h in (2e-2, 1e-2):
            g = grid2(x1_range=(0.0, 1.0), h1=h, res=5)
            x1 = g.x1_samples[:, None] * np.ones(5)
            errs.append(np.max(np.abs(fd_second(np.sin(x1), 1, g) + np.sin(x1))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_leading_tensor_axes_pass_through(self):
        g = grid2(h1=0.25, res=5)
        x1 = g.x1_samples[:, None] * np.ones(5)
        stack = np.stack([x1, 2.0 * x1])
        d = fd_partial(stack, 1, g)
        assert d.shape == stack.shape
        assert np.max(np.abs(d[0] - 1.0)) < 1e-13
        assert np.max(np.abs(d[1] - 2.0)) < 1e-13

    def test_transverse_plane_derivative(self):
        g = grid2(h1=0.25, res=9)
        x2 = g.transverse_axes[0]
        d = fd_transverse(np.sin(x2), 2, g)
        assert np.max(np.abs(d - np.cos(x2))) < (1.0 / 8) ** 2 / 3 * 1.01

    def test_axis_bounds_checked(self):
        g = grid2()
        with pytest.raises(InvalidSpec):
            fd_partial(np.zeros(g.shape), 3, g)
        with pytest.raises(InvalidSpec):
            fd_transverse(np.zeros(g.transverse_shape), 1, g)

    def test_too_few_nodes(self):
        g = grid2(x1_range=(0.0, 0.25), h1=0.25)  # 2 axial nodes
        with pytest.raises(GridTooCoarse):
            fd_partial(np.zeros(g.shape), 1, g)
        g3 = grid2(x1_range=(0.0, 0.5), h1=0.25)  # 3 nodes: fd1 ok, fd2 not
        fd_partial(np.zeros(g3.shape), 1, g3)
        with pytest.raises(GridTooCoarse):
            fd_second(np.zeros(g3.shape), 1, g3)


class TestInterpolate:
    def test_exact_at_nodes(self):
        g = grid2(h1=0.25, res=5)
        vals = np.arange(25.0).reshape(g.shape)
        for i, x1 in enumerate(g.x1_samples):
            for j, x2 in enumerate(g.transverse_axes[0]):
                assert interpolate(vals, g, (x1, x2)) == vals[i, j]

    def test_linear_reproduction(self):
        g = grid2(h1=0.25, res=5)
        x1 = g.x1_samples[:, None] * np.ones(5)
        x2 = np.ones((5, 1)) * g.transverse_axes[0]
        vals = 2.0 * x1 + 3.0 * x2 - 1.0
        assert interpolate(vals, g, (0.1, 0.37)) == pytest.approx(2 * 0.1 + 3 * 0.37 - 1, abs=1e-14)

    def test_stays_inside_corner_range(self):
        rng = np.random.default_rng(5)
        g = grid2(h1=0.25, res=5)
        vals = rng.normal(size=g.shape)
        for _ in range(50):
            p = (rng.uniform(0, 1), rng.uniform(0, 1))
            v = interpolate(vals, g, p)
            assert vals.min() - 1e-12 <= v <= vals.max() + 1e-12

    def test_outside_hull_raises(self):
        g = grid2()
        with pytest.raises(OutOfDomain):
            interpolate(np.zeros(g.shape), g, (1.5, 0.5))


class TestTensorTube:
    def test_symmetric_storage_is_shared(self):
        g = grid2()
        t = TensorTube("T", g, ((1, 2), (1, 2)), sym_pairs=((0, 1),))
        vals = np.random.default_rng(0).normal(size=g.shape)
        t.set_component((1, 2), vals)
        assert t.component((2, 1)) is t.component((1, 2))

    def test_missing_component_defaults_to_zero(self):
        g = grid2()
        t = TensorTube("T", g, ((1, 2),))
        assert np.all(t.component((1,)) == 0.0)
        assert t.max_abs() == 0.0

    def test_index_validation(self):
        g = grid2()
        t = TensorTube("T", g, ((1, 2), (2, 2)))
        with pytest.raises(InvalidSpec):
            t.component((1,))
        with pytest.raises(InvalidSpec):
            t.component((1, 3))
        with pytest.raises(InvalidSpec):
            t.set_component((1, 2), np.zeros(3))

    def test_all_indices_lexicographic(self):
        g = grid2()
        t = TensorTube("T", g, ((1, 2), (2, 3)))
        assert t.all_indices() == [(1, 2), (1, 3), (2, 2), (2, 3)]


class TestScalarFields:
    def test_expression_field_consistency(self):
        g = grid2(h1=0.25, res=5)
        f = ExpressionField(parse_field("x1 * x2 + 1", 2), 2)
        dense = f.on_grid(g)
        assert dense.shape == g.shape
        assert dense[2, 3] == f.at((g.x1_samples[2], g.transverse_axes[0][3]))
        plane = f.on_transverse(0.25, g)
        assert np.array_equal(plane, dense[1])

    def test_sampled_field_round_trip(self):
        g = grid2(h1=0.25, res=5)
        vals = np.random.default_rng(1).normal(size=g.shape)
        f = SampledField(g, vals)
        assert f.on_grid(g) is vals or np.array_equal(f.on_grid(g), vals)
        assert f.at((0.25, 0.5)) == vals[1, 2]

    def test_sampled_field_shape_checked(self):
        g = grid2()
        with pytest.raises(InvalidSpec):
            SampledField(g, np.zeros((2, 2)))


class TestAsField:
    def test_string_parsed_over_n_coordinates(self):
        g = grid2(h1=0.25, res=5)
        f = as_field("x1 * x2 + 1", 2, "a2")
        assert isinstance(f, ExpressionField) and f.n == 2
        ref = ExpressionField(parse_field("x1 * x2 + 1", 2), 2)
        assert np.array_equal(f.on_grid(g), ref.on_grid(g))

    def test_parsed_expression_wrapped(self):
        expr = parse_field("cos(x2)", 2)
        f = as_field(expr, 2, "a2")
        assert isinstance(f, ExpressionField)
        assert f.expr is expr and f.n == 2

    @pytest.mark.parametrize("kind", ["expression", "sampled"])
    def test_field_objects_pass_through(self, kind):
        g = grid2()
        if kind == "expression":
            field = ExpressionField(parse_field("x2", 2), 2)
        else:
            field = SampledField(g, np.zeros(g.shape))
        assert as_field(field, 2, "a2") is field

    @pytest.mark.parametrize("value", [1.5, None, [1.0, 2.0]], ids=["float", "none", "list"])
    def test_other_values_rejected_with_prefix(self, value):
        with pytest.raises(InvalidSpec, match=r"^A\(2,1,2\): cannot interpret"):
            as_field(value, 2, "A(2,1,2)")


class TestDumps:
    def test_write_read_round_trip_is_exact(self, tmp_path):
        g = grid2(h1=0.5, res=3)
        t = TensorTube("R", g, ((1, 2), (1, 2)), sym_pairs=((0, 1),))
        rng = np.random.default_rng(3)
        t.set_component((1, 1), rng.normal(size=g.shape))
        t.set_component((1, 2), rng.normal(size=g.shape))
        path = tmp_path / "dump.csv"
        write_tensor_dump(path, g, [t])
        axes, tensors = read_tensor_dump(path)
        assert np.array_equal(axes[0], g.x1_samples)
        assert np.array_equal(tensors["R"][(1, 1)], t.component((1, 1)))
        assert np.array_equal(tensors["R"][(2, 1)], t.component((1, 2)))

    def test_header_and_row_order(self, tmp_path):
        g = grid2(h1=0.5, res=3)
        t = TensorTube("g", g, ((1, 1),))
        t.set_component((1,), np.ones(g.shape))
        path = tmp_path / "dump.csv"
        write_tensor_dump(path, g, [t])
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,tensor,indices,value"
        # node-major lexicographic: first node is (x1_min, box_lo)
        assert lines[1].startswith("0.0,0.0,g,1,")

    def test_rewrite_is_byte_identical(self, tmp_path):
        g = grid2(h1=0.5, res=3)
        t = TensorTube("g", g, ((1, 2), (1, 2)), sym_pairs=((0, 1),))
        t.set_component((1, 2), np.random.default_rng(9).normal(size=g.shape))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tensor_dump(a, g, [t])
        write_tensor_dump(b, g, [t])
        assert a.read_bytes() == b.read_bytes()

    def test_curve_dump_header(self, tmp_path):
        from semigeo.chart_check import Curve

        s = np.array([0.0, 0.1, 0.2])
        pts = np.array([[0.0, 0.5], [0.1, 0.5], [0.2, 0.5]])
        path = tmp_path / "curve.csv"
        write_curve_dump(path, Curve(s=s, points=pts))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,x1,x2"
        assert lines[1] == "0.0,0.0,0.5"
