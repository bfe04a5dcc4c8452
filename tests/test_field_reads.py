"""Every input field read is one ``on_planes`` call from ``Components.dense``.

``planes``, ``on_grid`` and ``on_hypersurface`` lay that read out for the
source bank, the whole lattice and the hypersurface x1 = 0.  Each must
give the bytes of the read it replaced (kept in ``_replaced_reads``):
per-plane ``on_transverse``, whole-grid ``on_grid`` and
``TransverseField.plane``.  The expressions are the source bank's bit
identity list, which exercises numpy's scalar-exponent ``np.power``
paths and -0.0.
"""

import re

import numpy as np
import pytest

import _replaced_reads as replaced
from semigeo.connection_recon import HypersurfaceConnectionData
from semigeo.curvature import ConnectionField, MetricField
from semigeo.errors import EvalError, FieldSyntaxError, InvalidInit
from semigeo.grid_field import ChartSpec, Components, build_grid
from semigeo.metric_recon import HypersurfaceMetricData
from test_source_bank import EXPRESSIONS, seeded


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def grid3():
    chart = ChartSpec(
        n=3,
        x1_range=(-0.5, 0.5),
        h1=0.125,
        transverse_box=((0.5, 1.5), (-1.0, 1.0)),
        transverse_res=(4, 5),
    )
    return build_grid(chart)


def transverse(text):
    """A source expression rewritten as hypersurface data, free of x1."""
    return text.replace("x1", "(x2 - 1)")


# ---------------------------------------------------------------- whole grid


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_on_grid_matches_whole_grid_read(text):
    grid = grid3()
    values = {(2, 2): text, (2, 3): seeded(1), (3, 3): "-x1*0"}
    got = Components("a", 3, values).on_grid(grid)
    want = replaced.dense("a", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    assert_bits(got, want)


@pytest.mark.parametrize("text", EXPRESSIONS[::3])
def test_from_fields_match_whole_grid_read(text):
    grid = grid3()
    values = {(1, 1): "1", (2, 1): text, (3, 3): seeded(2)}
    want = replaced.dense("g", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    assert_bits(MetricField.from_fields(grid, values).dense, want)
    values = {(1, 2, 3): text, (3, 1, 1): seeded(3), (2, 3, 2): "x2^-1"}
    want = replaced.dense("gamma", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    assert_bits(ConnectionField.from_fields(grid, values).dense, want)


def test_on_grid_reshapes_dense_without_a_copy(monkeypatch):
    grid = grid3()
    made = []
    dense = Components.dense

    def recording(self, *args):
        made.append(dense(self, *args))
        return made[-1]

    monkeypatch.setattr(Components, "dense", recording)
    out = Components("A", 3, {(1, 2, 3): "x1*x3"}).on_grid(grid)
    assert out.shape == (3, 3, 2) + grid.shape
    assert np.shares_memory(out, made[0])


def test_whole_grid_error_names_the_x1_range():
    grid = grid3()
    values = {(2, 2): "log(0.25 - x1)"}
    with pytest.raises(EvalError, match=r"^a\(2, 2\): log of"):
        replaced.dense("a", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    with pytest.raises(EvalError, match=r"^a\(2, 2\) at x1 in \[-0\.5, 0\.5\]: log of"):
        Components("a", 3, values).on_grid(grid)


# -------------------------------------------------------------- hypersurface


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_on_hypersurface_matches_plane(text):
    grid = grid3()
    values = {(1, 2, 3): transverse(text), (3, 1, 2): "-x2*0", (2, 3, 3): "x3^2"}
    comps = Components("gammatilde", 3, values)
    for lo, hi in [(None, None), ((1, 1, 2), (3, 1, 3)), ((1, 2, 2), None)]:
        want = replaced.dense("gammatilde", 3, values, (20,), lambda f: f.plane(grid), lo, hi)
        assert_bits(comps.on_hypersurface(grid, lo, hi), want)


def test_non_numeric_hypersurface_data_is_invalid_init():
    grid = grid3()
    message = r"^gtilde\(2, 2\): cannot interpret ndarray as an expression$"
    with pytest.raises(InvalidInit, match=message):
        HypersurfaceMetricData(3, g={(2, 2): np.ones(grid.transverse_shape)})
    message = r"^gammatilde\(1, 2, 2\): cannot interpret object as an expression$"
    with pytest.raises(InvalidInit, match=message):
        HypersurfaceConnectionData(3, {(1, 2, 2): object()})


def test_hypersurface_errors_match_plane():
    grid = grid3()
    value = "log(x2 - 2)"
    with pytest.raises(EvalError) as old:
        replaced.dense("Gtilde", 3, {(2, 3): value}, (20,), lambda f: f.plane(grid))
    with pytest.raises(EvalError) as new:
        Components("Gtilde", 3, {(2, 3): value}).on_hypersurface(grid)
    assert str(new.value) == str(old.value)
    for value in ["x1 + x2", "+".join(["x2"] * 3000)]:
        with pytest.raises((InvalidInit, FieldSyntaxError)) as old:
            replaced.TransverseField(value, 3, "Gtilde(2, 3)")
        with pytest.raises(type(old.value), match=f"^{re.escape(str(old.value))}$"):
            Components("Gtilde", 3, {(2, 3): value})
