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
from semigeo.errors import EvalError, InvalidInit, InvalidSpec
from semigeo.grid_field import ChartSpec, Components, SampledField, build_grid
from semigeo.metric_recon import HypersurfaceMetricData, MetricCurvatureSpec, reconstruct_metric
from test_source_bank import EXPRESSIONS


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def grid3(x1_range=(-0.5, 0.5), h1=0.125, res=(4, 5)):
    chart = ChartSpec(
        n=3,
        x1_range=x1_range,
        h1=h1,
        transverse_box=((0.5, 1.5), (-1.0, 1.0)),
        transverse_res=res,
    )
    return build_grid(chart)


def sampled(grid, seed):
    values = np.random.default_rng(seed).uniform(-2.0, 2.0, grid.shape)
    values[0, 0, 0] = -0.0
    return SampledField(grid, values)


def transverse(text):
    """A source expression rewritten as hypersurface data, free of x1."""
    return text.replace("x1", "(x2 - 1)")


# ---------------------------------------------------------------- whole grid


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_on_grid_matches_whole_grid_read(text):
    grid = grid3()
    values = {(2, 2): text, (2, 3): sampled(grid, 1), (3, 3): "-x1*0"}
    got = Components("a", 3, values).on_grid(grid)
    want = replaced.dense("a", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    assert_bits(got, want)


@pytest.mark.parametrize("text", EXPRESSIONS[::3])
def test_from_fields_match_whole_grid_read(text):
    grid = grid3()
    values = {(1, 1): "1", (2, 1): text, (3, 3): sampled(grid, 2)}
    want = replaced.dense("g", 3, values, grid.shape, lambda f: replaced.on_grid(f, grid))
    assert_bits(MetricField.from_fields(grid, values).dense, want)
    values = {(1, 2, 3): text, (3, 1, 1): sampled(grid, 3), (2, 3, 2): "x2^-1"}
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


def test_sampled_field_on_a_reached_sub_grid_is_read():
    grid = grid3()
    field = sampled(grid, 4)
    reached = grid.restrict_x1(2, 6)
    with pytest.raises(InvalidSpec, match="different grid"):
        replaced.on_grid(field, reached)
    got = Components("a", 3, {(2, 3): field}).on_grid(reached)
    assert_bits(got[0, 1], field.values[2:7])
    with pytest.raises(InvalidSpec, match="different transverse lattice"):
        Components("a", 3, {(2, 3): field}).on_grid(grid3(res=(3, 5)))


# -------------------------------------------------------------- hypersurface


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_on_hypersurface_matches_plane(text):
    grid = grid3()
    values = {(1, 2, 3): transverse(text), (3, 1, 2): "-x2*0", (2, 3, 3): "x3^2"}
    comps = Components("gammatilde", 3, values)
    for lo, hi in [(None, None), ((1, 1, 2), (3, 1, 3)), ((1, 2, 2), None)]:
        want = replaced.dense("gammatilde", 3, values, (20,), lambda f: f.plane(grid), lo, hi)
        assert_bits(comps.on_hypersurface(grid, lo, hi), want)


def test_raw_hypersurface_samples_match_plane():
    grid = grid3()
    rng = np.random.default_rng(5)
    samples = rng.uniform(-1.0, 1.0, (2, 4, 5))
    samples[1, 2, 3] = -0.0
    values = {(2, 2): samples[0], (2, 3): samples[1], (3, 3): "cos(x2)^2"}
    want = replaced.dense("gtilde", 3, values, (20,), lambda f: f.plane(grid))
    assert_bits(Components("gtilde", 3, values).on_hypersurface(grid), want)


def test_metric_from_raw_samples_matches_expressions():
    grid = grid3(x1_range=(0.0, 0.5), h1=0.0625)
    x2, x3 = (m.reshape(4, 5) for m in grid.transverse_mesh())
    g = {(2, 2): 1.0 + 0.25 * x3 * x3, (2, 3): 0.1 * x2, (3, 3): np.ones((4, 5))}
    sources = MetricCurvatureSpec(3, {(2, 2): "-0.1*cos(x1)^2", (3, 3): "-0.05*x2"})
    samples, _ = reconstruct_metric(HypersurfaceMetricData(3, g=g), sources, 1, grid.chart)
    texts = {(2, 2): "1 + 0.25*x3*x3", (2, 3): "0.1*x2", (3, 3): "1"}
    exprs, _ = reconstruct_metric(HypersurfaceMetricData(3, g=texts), sources, 1, grid.chart)
    assert_bits(samples.dense, exprs.dense)


def test_non_numeric_hypersurface_data_is_invalid_init():
    grid = grid3()
    with pytest.raises(InvalidInit, match=r"^gtilde\(2, 2\): .* got SampledField$"):
        HypersurfaceMetricData(3, g={(2, 2): SampledField(grid, np.ones(grid.shape))})
    with pytest.raises(InvalidInit, match=r"^gammatilde\(1, 2, 2\): .* got object$"):
        HypersurfaceConnectionData(3, {(1, 2, 2): object()})


def test_hypersurface_errors_match_plane():
    grid = grid3()
    for value, error in [("log(x2 - 2)", EvalError), (np.ones((5, 4)), InvalidInit)]:
        with pytest.raises(error) as old:
            replaced.dense("Gtilde", 3, {(2, 3): value}, (20,), lambda f: f.plane(grid))
        with pytest.raises(error) as new:
            Components("Gtilde", 3, {(2, 3): value}).on_hypersurface(grid)
        assert str(new.value) == str(old.value)
    for value in ["x1 + x2", "+".join(["x2"] * 3000)]:
        with pytest.raises((InvalidInit, EvalError)) as old:
            replaced.TransverseField(value, 3, "Gtilde(2, 3)")
        with pytest.raises(type(old.value), match=f"^{re.escape(str(old.value))}$"):
            Components("Gtilde", 3, {(2, 3): value})
