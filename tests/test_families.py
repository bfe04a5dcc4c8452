"""The tensor family table and the Components builder in grid_field."""

import numpy as np
import pytest

from semigeo.curvature import ConnectionField, MetricField
from semigeo.errors import InvalidInit, InvalidSpec
from semigeo.grid_field import FAMILIES, ChartSpec, Components, build_grid


def grid2(res=3):
    return build_grid(ChartSpec(n=2, x1_range=(0.0, 0.5), h1=0.25, transverse_res=res))


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
        comps = Components("gamma", 3, {(2, 3, 1): "x2", (1, 2, 2): "1"})
        out = comps.dense((4,), lambda f: np.arange(4.0) + f.n)
        assert out.shape == (3, 3, 3, 4)
        assert np.array_equal(out[1, 0, 2], np.arange(4.0) + 3)
        assert np.array_equal(out[1, 2, 0], out[1, 0, 2])
        assert np.array_equal(out[0, 1, 1], np.arange(4.0) + 3)
        assert np.count_nonzero(out.any(axis=-1)) == 3

    def test_values_of_called_once_per_component_in_box(self):
        comps = Components(
            "gammatilde", 3, {(1, 3, 1): "1", (2, 2, 3): "2", (3, 3, 3): "3", (2, 1, 1): "0"}
        )
        calls = []

        def values_of(fld):
            calls.append(fld.what)
            return np.ones(2)

        out = comps.dense((2,), values_of, (1, 2, 2))
        assert calls == ["gammatilde(2, 2, 3)", "gammatilde(3, 3, 3)"]
        assert out.shape == (3, 2, 2, 2)
        assert np.all(out[1, 0, 1] == 1.0) and np.all(out[1, 1, 0] == 1.0)
        calls.clear()
        out = comps.dense((2,), values_of, (1, 1, 2), (3, 1, 3))
        assert calls == ["gammatilde(1, 1, 3)"]
        assert out.shape == (3, 1, 2, 2)
        assert np.all(out[0, 0, 1] == 1.0)
        assert np.count_nonzero(out) == 2

    def test_default_box_starts_at_first(self):
        comps = Components("A", 2, {(2, 1, 2): "-1"})
        out = comps.dense((), lambda f: -1.0)
        assert out.shape == (2, 2, 1)
        assert out[1, 0, 0] == -1.0 and np.count_nonzero(out) == 1

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
