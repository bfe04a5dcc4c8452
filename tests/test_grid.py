import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from semigeo.errors import (
    EvalError,
    FieldSyntaxError,
    GridTooCoarse,
    InvalidInit,
    InvalidSpec,
    OutOfDomain,
)
from semigeo.fd import fd_partial, fd_second, fd_transverse
from semigeo.grid_field import (
    ChartSpec,
    ExpressionField,
    TensorTube,
    as_field,
    build_grid,
    interpolate,
    write_curve_dump,
    write_tensor_dump,
)
from _replaced_parser import reference_parse_field
from semigeo.expr import eval_field_on, parse_field
from semigeo.linalg import mirror_upper


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
        # each axis is padded by 1e-12 of its scale, and contains agrees
        # with interpolate there, past it, at nan and inf, and on an axis
        # of one node
        for g in (grid2(box=((-3.0, 5.0),)), grid2(x1_range=(0.0, 0.0), box=((-3.0, 5.0),))):
            values = np.zeros(g.shape)
            for axis in (0, 1):
                coords = g.axis_coords(axis + 1)
                lo, hi = float(coords[0]), float(coords[-1])
                pad = 1e-12 * max(1.0, abs(lo), abs(hi))
                inside = [lo - pad, hi + pad, lo, hi]
                outside = [
                    np.nextafter(lo - pad, -np.inf),
                    np.nextafter(hi + pad, np.inf),
                    np.nan,
                    np.inf,
                    -np.inf,
                ]
                for x, expected in [(x, True) for x in inside] + [(x, False) for x in outside]:
                    point = [0.0, 1.0]  # inside both grids
                    point[axis] = x
                    assert g.contains(point) is expected, (g.shape, axis, x)
                    if expected:
                        interpolate(values, g, point)
                    else:
                        with pytest.raises(OutOfDomain):
                            interpolate(values, g, point)

    def test_restrict_keeps_transverse(self):
        g = grid2()
        r = g.restrict_x1(0, 2)
        assert len(r.x1_samples) == 3
        assert r.transverse_shape == g.transverse_shape

    def test_lattice_arrays_are_made_once_and_are_not_fields(self):
        g = grid2(box=((-1.0, 2.0),))
        assert [f.name for f in dataclasses.fields(g)] == ["chart", "x1_samples", "transverse_axes"]
        mesh, lists = g.transverse_mesh(), g.coord_lists()
        assert g.transverse_mesh() is mesh and g.coord_lists() is lists
        assert lists == (g.x1_samples.tolist(), g.transverse_axes[0].tolist())
        assert np.array_equal(mesh[0], g.transverse_axes[0])

    def test_over_budget_lattice_is_refused_before_its_axes_are_built(self):
        # the 10**7-node axis alone is 80 MB; the 3 x 3 x 10**7 lattice's
        # n^4-slot tube is over the budget, so no axis may be made
        spec = ChartSpec(n=3, x1_range=(0.0, 1.0), h1=0.5, transverse_res=(3, 10**7))
        tracemalloc.start()
        try:
            message = r"^the 3 x 3 x 10000000 lattice needs 54\.3 GiB "
            with pytest.raises(InvalidSpec, match=message):
                build_grid(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a lattice whose byte count no float holds is refused the same way
        spec = ChartSpec(n=20, x1_range=(0.0, 1.0), h1=0.5, transverse_res=2**62)
        with pytest.raises(InvalidSpec, match=r" lattice needs inf GiB for an n\^4-slot"):
            build_grid(spec)


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

    @staticmethod
    def probe_points(g, rng):
        """Every node, points on cell faces, and seeded interior points."""
        axes = [g.axis_coords(a) for a in range(1, g.n + 1)]
        nodes = [np.array(p) for p in itertools.product(*axes)]
        faces = []
        for a in range(g.n):
            for node in nodes[::3]:
                p = node.copy()
                p[a] = rng.uniform(axes[a][0], axes[a][-1])
                faces.append(p)
        inner = [np.array([rng.uniform(c[0], c[-1]) for c in axes]) for _ in range(40)]
        return nodes + faces + inner

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("full", [(True,), (False, True, True, False)], ids=["vector", "R04"])
    def test_tube_at_matches_scalar_components_bitwise(self, n, full):
        # slots of length n where ``full``, else 1; the (n, ..., n) blocks of
        # MetricField, ConnectionField and CurvatureTube: TestStructure
        rng = np.random.default_rng(7)
        g = grid2(h1=0.25, res=4) if n == 2 else grid3(res=4)
        shape = tuple(n if f else 1 for f in full)
        tube = TensorTube("T", g, rng.normal(size=shape + g.shape))
        for p in self.probe_points(g, rng):
            block = tube.at(p)
            assert block.shape == shape
            for pos in np.ndindex(shape):
                assert block[pos] == interpolate(tube.dense[pos], g, p)

    def test_scalar_field_gives_a_float(self):
        g = grid2()
        assert type(interpolate(np.ones(g.shape), g, (0.3, 0.6))) is float

    def test_block_at_a_node_is_a_copy(self):
        g = grid2()
        dense = np.zeros((2,) + g.shape)
        block = TensorTube("T", g, dense).at((0.25, 0.5))
        block[:] = 1.0
        assert not dense.any()

    @pytest.mark.parametrize("point", [(1.5, 0.5), (0.5, -0.2), (np.nan, 0.5), (0.5,)])
    def test_tube_at_outside_raises(self, point):
        g = grid2()
        with pytest.raises(OutOfDomain):
            TensorTube("T", g, np.zeros((2, 2) + g.shape)).at(point)


def grid3(res=3):
    return build_grid(ChartSpec(n=3, x1_range=(0.0, 0.5), h1=0.25, transverse_res=res))


class TestTensorTube:
    def test_mirrored_slots_hold_equal_values(self):
        g = grid2()
        dense = np.random.default_rng(0).normal(size=(2, 2) + g.shape)
        t = TensorTube("T", g, mirror_upper(dense))
        assert np.array_equal(t.component(2, 1), t.component(1, 2))

    def test_shape_check(self):
        g = grid2()
        with pytest.raises(InvalidSpec):
            TensorTube("T", g, np.zeros((2,) + g.shape[:-1]))
        with pytest.raises(InvalidSpec):
            TensorTube("T", g, np.zeros((3,) + g.shape))
        with pytest.raises(InvalidSpec):
            TensorTube("T", g, np.zeros((2,) + g.shape), first=(2,))
        with pytest.raises(InvalidSpec):
            TensorTube("T", g, np.zeros((1,) + g.shape), first=(1, 1))
        t = TensorTube("T", g, np.zeros((2,) + g.shape))
        assert t.first == (1,) and t.n == 2

    def test_component_with_offset_first(self):
        g = grid3()
        dense = np.arange(4 * np.prod(g.shape), dtype=float).reshape((1, 2, 2, 1) + g.shape)
        t = TensorTube("R04", g, dense, (1, 2, 2, 1))
        assert t.first == (1, 2, 2, 1)
        assert np.array_equal(t.component(1, 2, 2, 1), dense[0, 0, 0, 0])
        assert np.array_equal(t.component(1, 3, 2, 1), dense[0, 1, 0, 0])
        assert np.array_equal(t.component(1, 2, 3, 1), dense[0, 0, 1, 0])

    def test_index_validation(self):
        g = grid3()
        t = TensorTube("R04", g, np.zeros((1, 2, 2, 1) + g.shape), (1, 2, 2, 1))
        for idx in ((1, 2, 2), (1, 1, 2, 1), (1, 2, 4, 1), (2, 2, 2, 1), (1, 2, 2, 1, 1)):
            with pytest.raises(InvalidSpec):
                t.component(*idx)

    def test_max_abs(self):
        g = grid2()
        dense = np.zeros((2,) + g.shape)
        assert TensorTube("T", g, dense).max_abs() == 0.0
        dense[1, 2, 3] = -4.5
        assert TensorTube("T", g, dense).max_abs() == 4.5


class TestScalarFields:
    def test_expression_field_consistency(self):
        g = grid2(h1=0.25, res=5)
        f = ExpressionField(parse_field("x1 * x2 + 1", 2))
        dense = f.on_planes(g.x1_samples, g)
        assert dense.shape == g.shape
        assert dense[2, 3] == eval_field_on(f.expr, (g.x1_samples[2], g.transverse_axes[0][3]))
        plane = f.on_planes([0.25], g)
        assert np.array_equal(plane, dense[1:2])


class TestAsField:
    def test_string_parsed_over_n_coordinates(self):
        g = grid2(h1=0.25, res=5)
        f = as_field("x1 * x2 + 1", 2, "a2")
        assert isinstance(f, ExpressionField) and f.expr == parse_field("x1 * x2 + 1", 2)
        ref = ExpressionField(parse_field("x1 * x2 + 1", 2))
        assert np.array_equal(f.on_planes(g.x1_samples, g), ref.on_planes(g.x1_samples, g))

    def test_parsed_expression_wrapped(self):
        expr = parse_field("cos(x2)", 2)
        f = as_field(expr, 2, "a2")
        assert isinstance(f, ExpressionField)
        assert f.expr is expr and f.what == "a2"

    @pytest.mark.parametrize("kind", ["parsed", "hypersurface"])
    def test_field_objects_pass_through(self, kind):
        # the expression object passes through, into a new field named ``what``
        expr = parse_field("log(x2 - 2)", 2)
        what = "gtilde(2, 2)" if kind == "hypersurface" else "a(2, 2)"
        f = as_field(expr, 2, what, hypersurface=kind == "hypersurface")
        assert isinstance(f, ExpressionField)
        assert f.expr is expr and f.what == what

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            None,
            [1.0, 2.0],
            reference_parse_field("x1 + 1", 2),
            ExpressionField(parse_field("x2", 2), "mine"),
        ],
        ids=["float", "none", "list", "unparsed-tree", "expression-field"],
    )
    def test_other_values_rejected_with_prefix(self, value):
        # only parse_field makes a tree a field can run, and a field is
        # not an expression
        message = rf"^A\(2,1,2\): cannot interpret {type(value).__name__} as an expression$"
        with pytest.raises(InvalidSpec, match=message):
            as_field(value, 2, "A(2,1,2)")
        with pytest.raises(InvalidInit, match=message.replace("A", "Gtilde", 1)):
            as_field(value, 2, "Gtilde(2,1,2)", hypersurface=True)

    def test_hypersurface_data_may_not_use_x1(self):
        with pytest.raises(InvalidInit, match=r"^gtilde\(2, 2\): hypersurface data may not"):
            as_field("x1 + x2", 2, "gtilde(2, 2)", hypersurface=True)
        with pytest.raises(InvalidInit, match=r"^gtilde\(2, 2\): hypersurface data may not"):
            as_field(parse_field("x1", 2), 2, "gtilde(2, 2)", hypersurface=True)


class TestFieldErrorLabels:
    def test_source_error_names_field_and_x1(self):
        g = grid2()
        f = as_field("log(0.5 - x1)", 2, "a(2, 2)")
        with pytest.raises(EvalError, match=r"^a\(2, 2\) at x1 = 0\.5: log of"):
            f.on_planes([0.5], g)
        with pytest.raises(EvalError, match=r"^a\(2, 2\) at x1 in \[0\.0, 1\.0\]: log of"):
            f.on_planes(g.x1_samples, g)

    def test_hypersurface_error_names_field(self):
        f = as_field("log(x2 - 2)", 2, "gtilde(2, 2)", hypersurface=True)
        with pytest.raises(EvalError, match=r"^gtilde\(2, 2\) at x1 = 0\.0: log of"):
            f.on_planes([0.0], grid2())
        # too deep is refused by the parse, before the field has a name
        deep = "+".join(["x2"] * 3000)
        message = r"^expression nested too deeply \(at position 2702\)$"
        with pytest.raises(FieldSyntaxError, match=message):
            as_field(deep, 2, "gtilde(2, 2)", hypersurface=True)


class TestDumps:
    def test_header_and_row_order(self, tmp_path):
        g = grid2(h1=0.5, res=3)
        a = TensorTube("a", g, np.ones((2, 1) + g.shape), (1, 2))
        b = TensorTube("b", g, np.zeros((1,) + g.shape))
        path = tmp_path / "dump.csv"
        write_tensor_dump(path, g, [a, b])
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,tensor,indices,value"
        # node-major lexicographic, then tensors in order, then indices
        assert lines[1:5] == [
            '0.0,0.0,a,"1,2",1.0',
            '0.0,0.0,a,"2,2",1.0',
            "0.0,0.0,b,1,0.0",
            '0.0,0.5,a,"1,2",1.0',
        ]
        assert len(lines) == 1 + 3 * np.prod(g.shape)

    def test_rewrite_is_byte_identical(self, tmp_path):
        g = grid2(h1=0.5, res=3)
        dense = mirror_upper(np.random.default_rng(9).normal(size=(2, 2) + g.shape))
        t = TensorTube("g", g, dense)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tensor_dump(a, g, [t])
        write_tensor_dump(b, g, [t])
        assert a.read_bytes() == b.read_bytes()

    def test_curve_dump_header(self, tmp_path):
        from semigeo.chart_check import Curve

        s = np.array([0.0, 0.1, 0.2])
        pts = np.array([[0.0, 0.5], [0.1, 0.5], [0.2, 0.5]])
        path = tmp_path / "curve.csv"
        write_curve_dump(path, Curve(s=s, points=pts, velocities=np.zeros_like(pts)))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,x1,x2"
        assert lines[1] == "0.0,0.0,0.5"
