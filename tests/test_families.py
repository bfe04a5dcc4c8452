"""The tensor family table and the Components builder in grid_field."""

import re

import numpy as np
import pytest

from semigeo.curvature import ConnectionField, MetricField
from semigeo.errors import InvalidInit, InvalidSpec
from semigeo.grid_field import FAMILIES, ChartSpec, Components, ExpressionField, build_grid


def grid2(res=3):
    return build_grid(ChartSpec(n=2, x1_range=(0.0, 0.5), h1=0.25, transverse_res=res))


def grid3(res=3):
    return build_grid(ChartSpec(n=3, x1_range=(0.0, 0.5), h1=0.25, transverse_res=res))


def reference_slots(n, first, sym):
    """Canonical slots as the config module listed them before the table."""
    slots = [()]
    for r in [range(lo, n + 1) for lo in first]:
        slots = [s + (v,) for s in slots for v in r]
    if sym is not None:
        a, b = sym
        slots = [s for s in slots if s[a] <= s[b]]
    return slots


class TestFamilyTable:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_slots_match_reference(self, name, n):
        layout = FAMILIES[name]
        assert layout.slots(n) == reference_slots(n, layout.first, layout.sym)

    def test_canonical_orders_symmetric_pair_only(self):
        assert FAMILIES["g"].canonical((2, 1)) == (1, 2)
        assert FAMILIES["gamma"].canonical((3, 2, 1)) == (3, 1, 2)
        assert FAMILIES["A"].canonical((1, 3, 2)) == (1, 3, 2)

    def test_error_classes(self):
        for name in ("gtilde", "Gtilde", "a", "gammatilde"):
            assert FAMILIES[name].error is InvalidInit
        for name in ("g", "gamma", "A"):
            assert FAMILIES[name].error is InvalidSpec


class TestFromFieldsIndices:
    @pytest.mark.parametrize(
        "components",
        [{(0, 2): "7"}, {(1, 3): "7"}, {(1, 2): "1", (2, 1): "2"}],
        ids=["index-0", "above-n", "both-orderings"],
    )
    def test_metric_rejects(self, components):
        with pytest.raises(InvalidSpec):
            MetricField.from_fields(grid2(), components)

    @pytest.mark.parametrize(
        "components",
        [{(2, 0, 2): "7"}, {(3, 1, 2): "7"}, {(2, 1, 2): "1", (2, 2, 1): "2"}],
        ids=["index-0", "above-n", "both-orderings"],
    )
    def test_connection_rejects(self, components):
        with pytest.raises(InvalidSpec):
            ConnectionField.from_fields(grid2(), components)

    def test_either_ordering_fills_both_slots(self):
        metric = MetricField.from_fields(grid2(), {(2, 1): "x2", (1, 1): "1"})
        assert np.array_equal(metric.component(1, 2), metric.component(2, 1))
        assert np.all(metric.component(2, 2) == 0.0)


class TestDense:
    def test_symmetric_component_fills_both_slots(self):
        grid = grid3()
        comps = Components("gamma", 3, {(2, 3, 1): "x2 + x1", (1, 2, 2): "1"})
        xs = np.array([0.0, 0.25, 0.5, 0.75])
        out = comps.dense(xs, grid)
        assert out.shape == (3, 3, 3, 4, 9)
        x2 = grid.transverse_mesh()[0]
        assert np.array_equal(out[1, 0, 2], xs[:, None] + x2[None, :])
        assert np.array_equal(out[1, 2, 0], out[1, 0, 2])
        assert np.all(out[0, 1, 1] == 1.0)
        assert np.count_nonzero(out.any(axis=(-2, -1))) == 3

    def test_each_component_read_once_per_box(self, monkeypatch):
        grid = grid3()
        comps = Components(
            "gammatilde", 3, {(1, 3, 1): "1", (2, 2, 3): "2", (3, 3, 3): "3", (2, 1, 1): "0"}
        )
        calls = []
        on_planes = ExpressionField.on_planes

        def recording(fld, xs, grid):
            calls.append((fld.what, list(xs)))
            return on_planes(fld, xs, grid)

        monkeypatch.setattr(ExpressionField, "on_planes", recording)
        out = comps.dense([0.0], grid, (1, 2, 2))
        assert calls == [("gammatilde(2, 2, 3)", [0.0]), ("gammatilde(3, 3, 3)", [0.0])]
        assert out.shape == (3, 2, 2, 1, 9)
        assert np.all(out[1, 0, 1] == 2.0) and np.all(out[1, 1, 0] == 2.0)
        calls.clear()
        out = comps.dense([0.0, 0.0], grid, (1, 1, 2), (3, 1, 3))
        assert calls == [("gammatilde(1, 1, 3)", [0.0, 0.0])]
        assert out.shape == (3, 1, 2, 2, 9)
        assert np.all(out[0, 0, 1] == 1.0)
        assert np.count_nonzero(out) == 2 * 9

    def test_default_box_starts_at_first(self):
        comps = Components("A", 2, {(2, 1, 2): "-1"})
        out = comps.dense([0.0, 0.5], grid2())
        assert out.shape == (2, 2, 1, 2, 3)
        assert np.all(out[1, 0, 0] == -1.0) and np.count_nonzero(out) == 2 * 3

    def test_layouts_read_dense(self):
        grid = grid2(res=4)
        comps = Components("a", 2, {(2, 2): "x1 - 2*x2"})
        mesh = grid.x1_samples[:, None] - 2.0 * grid.transverse_mesh()[0][None, :]
        xs = grid.x1_samples[::-1]
        assert np.array_equal(comps.planes(xs, grid), mesh[::-1, None, None, :])
        assert np.array_equal(comps.on_grid(grid), mesh.reshape((1, 1) + grid.shape))
        assert np.array_equal(comps.on_hypersurface(grid), mesh[:1].reshape(1, 1, 4))

    @pytest.mark.parametrize(
        "family, values, error",
        [
            ("gtilde", {(1, 2): "1"}, InvalidInit),
            ("a", {(2, 3): "1", (3, 2): "1"}, InvalidInit),
            ("A", {(2, 1, 1): "1"}, InvalidSpec),
            ("A", {(2, 1): "1"}, InvalidSpec),
        ],
        ids=["axial-index", "both-orderings", "k-is-1", "arity"],
    )
    def test_index_errors_raise_family_class(self, family, values, error):
        with pytest.raises(error):
            Components(family, 3, values)


# each factory makes a value that is not an expression
NOT_EXPRESSIONS = {
    "array": lambda: np.ones(5),
    "list": lambda: [1.0, 2.0],
    "float": lambda: 1.5,
    "none": lambda: None,
    "array-1e6": lambda: np.ones(10**6),
}


@pytest.mark.parametrize("make", NOT_EXPRESSIONS.values(), ids=NOT_EXPRESSIONS.keys())
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_values_that_are_not_expressions_are_rejected(family, make):
    # hypersurface data is InvalidInit, a tube field InvalidSpec; the
    # message names the type, never the value's repr
    layout = FAMILIES[family]
    value = make()
    error = InvalidInit if layout.hypersurface else InvalidSpec
    message = f"{family}{layout.first}: cannot interpret {type(value).__name__} as an expression"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Components(family, 3, {layout.first: value})
