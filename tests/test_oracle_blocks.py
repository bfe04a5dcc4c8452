"""The round-trip oracles go through the lattice one block of x1 planes at a time.

``curvature04_semigeo`` and the two round-trip residuals must give the
bytes, and raise the errors, of the whole-lattice versions they
replaced (``_replaced_oracle``).  The fuzz and named corpora run on
small lattices, almost all of them one block, so the cases here shrink
``curvature.ORACLE_POINTS`` to cut small lattices into several blocks:
one plane each, blocks one plane short of or past the lattice, and a
last block of one plane.  The memory pins run on the 33x33x101 metric
of the benchmark's wide round trip.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import _replaced_oracle as replaced
from semigeo import curvature
from semigeo.cli import connection_roundtrip_residual, metric_roundtrip_residual
from semigeo.connection_recon import ConnectionCurvatureSpec
from semigeo.curvature import (
    ConnectionField,
    MetricField,
    curvature04_semigeo,
    curvature13,
    x1_blocks,
)
from semigeo.errors import DegenerateMetric
from semigeo.grid_field import ChartSpec, build_grid
from semigeo.metric_recon import HypersurfaceMetricData, MetricCurvatureSpec, reconstruct_metric

TRANSVERSE = {2: (4,), 3: (3, 4), 4: (3, 3, 4)}


def lattice(n, planes, lo=-0.2):
    """A grid of ``planes`` x1 samples from ``lo`` in steps of 0.1.

    0.1 is no binary fraction, so the spacing of a block's own samples
    would differ in its last bit from the whole grid's.
    """
    spec = ChartSpec(
        n=n, x1_range=(lo, lo + 0.1 * (planes - 1)), h1=0.1, transverse_res=TRANSVERSE[n]
    )
    grid = build_grid(spec)
    assert grid.shape[0] == planes
    return grid


def random_metric(grid, seed):
    """A semigeodesic metric near the identity, with -0.0 in its off-diagonal slots."""
    rng = np.random.default_rng(seed)
    k = grid.n - 1
    a = rng.uniform(-0.2, 0.2, (k, k) + grid.shape)
    gt = a + np.swapaxes(a, 0, 1)
    for i in range(k):
        gt[i, i] += 1.0
        for j in range(i + 1, k):
            gt[i, j][rng.random(grid.shape) < 0.2] = -0.0
            gt[j, i] = gt[i, j]
    return MetricField.semigeodesic(grid, gt)


def metric_sources(n):
    pairs = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    return MetricCurvatureSpec(n, {(i, j): f"{i - j + 0.5}*x1*x{j} - cos(x{i})" for i, j in pairs})


def plans(planes):
    """Block sizes, in planes, that cut a lattice of ``planes`` planes every way."""
    return sorted({p for p in (1, 2, 3, planes - 2, planes - 1, planes, planes + 1) if p >= 1})


@pytest.fixture
def per_block(monkeypatch):
    """Set blocks of ``per`` planes on ``grid``; the budget is rounded down to whole planes."""

    def cut(grid, per):
        nodes = math.prod(grid.transverse_shape)
        monkeypatch.setattr(curvature, "ORACLE_POINTS", per * nodes + nodes - 1)
        blocks = x1_blocks(grid)
        assert [hi - lo for lo, hi in blocks[:-1]] == [per] * (len(blocks) - 1)
        assert blocks[0][0] == 0 and blocks[-1][1] == grid.shape[0]
        return blocks

    return cut


def same_float(a, b):
    return repr(a) == repr(b)


def test_a_lattice_of_the_budget_is_one_block():
    grid = build_grid(ChartSpec(n=3, x1_range=(0.0, 1.27), h1=0.01, transverse_res=(8, 16)))
    assert math.prod(grid.shape) == curvature.ORACLE_POINTS
    assert x1_blocks(grid) == [(0, 128)]
    wide = build_grid(ChartSpec(n=3, x1_range=(0.0, 1.0), h1=0.01, transverse_res=33))
    assert x1_blocks(wide) == [(lo, min(lo + 15, 101)) for lo in range(0, 101, 15)]


@pytest.mark.parametrize("planes", [4, 5, 9])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_axial_oracle_and_residual_keep_their_bytes(n, planes, per_block):
    grid = lattice(n, planes)
    metric = random_metric(grid, seed=10 * n + planes)
    sources = metric_sources(n)
    want = replaced.curvature04_semigeo(metric)
    want_residual, _ = replaced.metric_residual(metric, sources)
    for per in plans(planes):
        per_block(grid, per)
        got = curvature04_semigeo(metric)
        assert (got.name, got.first, got.dense.shape) == (want.name, want.first, want.dense.shape)
        assert got.dense.tobytes() == want.dense.tobytes()
        residual, axial = metric_roundtrip_residual(metric, sources, 1e-10)
        assert axial.dense.tobytes() == want.dense.tobytes()
        assert same_float(residual, want_residual)


@pytest.mark.parametrize("n", [2, 3])
def test_an_overflow_in_a_late_block_leaves_the_residual_nan(n, per_block):
    grid = lattice(n, 9)
    metric = random_metric(grid, seed=n)
    # the transverse block diag(1e307, 1e-307, ...) at one node keeps det
    # at 1, but its x1 differences overflow: the oracle meets inf - inf
    metric.dense[1:, 1:, 6, 1] = 0.0
    metric.dense[1, 1, 6, 1] = 1e307
    for i in range(2, n):
        metric.dense[i, i, 6, 1] = 1e-307
    sources = metric_sources(n)
    with np.errstate(all="ignore"):
        want = replaced.curvature04_semigeo(metric)
        want_residual, _ = replaced.metric_residual(metric, sources)
        assert math.isnan(want_residual)
        for per in plans(9):
            per_block(grid, per)
            residual, axial = metric_roundtrip_residual(metric, sources, 1e-10)
            assert axial.dense.tobytes() == want.dense.tobytes()
            assert math.isnan(residual)


DEGENERATE = {
    # (node made degenerate, node made NaN or None), both in late blocks
    "zero-det": ((6, 1), None),
    "zero-det-before-a-nan": ((6, 2), (7, 0)),
    "nan-before-a-zero-det": ((8, 0), (5, 3)),
    "last-plane": ((8, 3), None),
}


@pytest.mark.parametrize("zero, nan", DEGENERATE.values(), ids=DEGENERATE.keys())
@pytest.mark.parametrize("n", [2, 3])
def test_a_degenerate_node_in_a_late_block_raises_as_before(n, zero, nan, per_block):
    grid = lattice(n, 9)
    metric = random_metric(grid, seed=5)
    block = metric.dense[1:, 1:]
    flat = block.reshape(block.shape[:3] + (-1,))
    flat[:, :, zero[0], zero[1]] = 0.0
    if nan is not None:
        flat[0, 0, nan[0], nan[1]] = np.nan
    with pytest.raises(DegenerateMetric) as want:
        replaced.curvature04_semigeo(metric)
    for per in plans(9):
        per_block(grid, per)
        with pytest.raises(DegenerateMetric) as got:
            curvature04_semigeo(metric)
        assert str(got.value) == str(want.value)
        assert got.value.node == want.value.node
        assert same_float(got.value.det, want.value.det)


def random_connection(n, planes, seed):
    grid = lattice(n, planes, lo=0.0)
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n, n) + grid.shape)
    dense.reshape(-1)[rng.random(dense.size) < 0.1] = -0.0
    return ConnectionField(grid, dense)


CONNECTION_SOURCES = {
    2: {(1, 2, 2): "x1*x2", (2, 1, 2): "-1"},
    3: {(1, 2, 3): "x1 - x3", (2, 1, 2): "-1", (3, 3, 2): "cos(x1*x2)"},
    4: {(1, 2, 3): "x1 - x3", (4, 1, 4): "-0.0*x2", (3, 3, 2): "cos(x1*x2)"},
}


@pytest.mark.parametrize("planes", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_connection_residual_keeps_its_bytes(n, planes, per_block):
    conn = random_connection(n, planes, seed=n + planes)
    sources = ConnectionCurvatureSpec(n, CONNECTION_SOURCES[n])
    want = replaced.connection_residual(curvature13(conn), sources)
    for per in plans(planes):
        per_block(conn.grid, per)
        residual, r13 = connection_roundtrip_residual(conn, sources)
        assert same_float(residual, want)
        assert r13.dense.tobytes() == curvature13(conn).dense.tobytes()


def test_a_nan_in_a_late_block_leaves_the_connection_residual_nan(per_block):
    conn = random_connection(2, 5, seed=4)
    conn.dense[0, 1, 1, 4, 2] = np.inf  # its x1 difference meets inf - inf
    sources = ConnectionCurvatureSpec(2, CONNECTION_SOURCES[2])
    with np.errstate(all="ignore"):
        assert math.isnan(replaced.connection_residual(curvature13(conn), sources))
        for per in plans(5):
            per_block(conn.grid, per)
            assert math.isnan(connection_roundtrip_residual(conn, sources)[0])


# ------------------------------------------------------------ memory pins

WIDE = ChartSpec(n=3, x1_range=(0.0, 1.0), h1=0.01, transverse_res=33)


def wide_inputs():
    init = HypersurfaceMetricData(3, g={(2, 2): "1", (3, 3): "1"}, g1={(2, 2): "0", (3, 3): "0"})
    source = "-(1 + 0.3*x2*x3)*cos(x1)^2"
    return init, MetricCurvatureSpec(3, {(2, 2): source, (3, 3): source})


def traced_peak(call):
    """(result, traced peak above the memory held when ``call`` starts)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_the_wide_march_holds_its_trajectory_about_twice():
    init, sources = wide_inputs()
    (metric, report), peak = traced_peak(partial(reconstruct_metric, init, sources, 1, WIDE))
    assert report.complete
    # the whole-step states, (x1, g or G, 2, 2, node)
    whole = metric.grid.shape[0] * 2 * 2 * 2 * math.prod(metric.grid.transverse_shape) * 8
    # 2.28 wholes, reached inside the march (its source bank beside its
    # rows), where whole beside the rows is 2.0; 3.17 while the bank lived
    # on beside whole and the report took |whole|
    assert peak < 2.4 * whole


def test_the_wide_oracle_and_residual_hold_little_beside_their_output():
    init, sources = wide_inputs()
    metric, _ = reconstruct_metric(init, sources, 1, WIDE)
    assert len(x1_blocks(metric.grid)) == 7
    oracle = partial(metric_roundtrip_residual, metric, sources, 1e-10)
    (residual, axial), peak = traced_peak(oracle)
    assert residual < 1e-2
    # the R04 output plus one block's terms: 1.99 outputs; 4.25 when
    # every term spanned the whole lattice
    assert peak < 2.4 * axial.dense.nbytes
