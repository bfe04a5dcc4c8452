"""Source banks: batched source planes, exact march keys, safe look-ahead.

The prescribed sources of a march do not depend on its state, so
``ode.SourceBank`` evaluates every plane a march will read ahead of it,
in batched x1 chunks.  These tests pin that a batched plane equals the
per-plane value bit for bit, that the planned keys are exactly the x
the march asks for, that evaluating ahead never turns a numerical stop
into an input error, and how many evaluator calls a run makes.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import _replaced_reads as replaced
import semigeo.connection_recon as connection_recon
import semigeo.grid_field as grid_field
import semigeo.ode as ode
from semigeo.cli import main, read_report
from semigeo.connection_recon import (
    ConnectionCurvatureSpec,
    HypersurfaceConnectionData,
    reconstruct_connection,
)
from semigeo.errors import EvalError
from semigeo.expr import parse_field
from semigeo.grid_field import ChartSpec, ExpressionField, build_grid
from semigeo.metric_recon import HypersurfaceMetricData, MetricCurvatureSpec, reconstruct_metric
from semigeo.ode import CHUNK_POINTS, SourceBank, tube_xs


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------- bit identity

# Why a batched plane could differ from a single plane: with numpy 2.4 on
# x86-64, np.power with a *scalar* exponent of 2.0, 0.5 or -1.0 takes a
# fast path whose bits differ from the array-exponent result in about
# 5 % of elements (1,076 of 20,011 for 2.0).  The evaluator keeps literal
# operands as Python floats and never broadcasts them to arrays, so the
# batched and the per-plane evaluation run the same loops on every
# element.  The sources below exercise those exponents.
EXPRESSIONS = [
    "x1^2",
    "cos(x1)^2",
    "(1 + x1*x2)^0.5",
    "x2^-1",
    "-x1*0",  # -0.0 for x1 > 0
    "0*x3 - 0*x1",
    "exp(x1)*sin(x2) - x3^2*sqrt(2 + x1)",
    "x2^x1 + (x1 + 2)^x3",
    "log(x1 + 2)/tan(x2) + sinh(x1)*cosh(x3) - abs(x1 - x3)",
]


def bit_grid():
    chart = ChartSpec(
        n=3,
        x1_range=(-0.5, 0.5),
        h1=0.01,
        transverse_box=((0.5, 1.5), (-1.0, 1.0)),
        transverse_res=(4, 5),
    )
    return build_grid(chart)


def planned_xs(grid):
    """The distinct x a stage-1 march on ``grid`` asks for, in march order."""
    return np.array(list(dict.fromkeys(tube_xs(grid, record_half=True))))


def seeded(seed):
    """A seeded random source: one of EXPRESSIONS times a random coefficient."""
    rng = np.random.default_rng(seed)
    return f"{rng.uniform(-2.0, 2.0)!r}*({EXPRESSIONS[rng.integers(len(EXPRESSIONS))]})"


class TestPlanesBitIdentity:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_expression_field(self, text):
        grid = bit_grid()
        field = ExpressionField(parse_field(text, 3))
        xs = planned_xs(grid)
        batched = field.on_planes(xs, grid)
        assert batched.shape == (len(xs), 20)
        for x, row in zip(xs, batched):
            assert_bits(row, replaced.on_transverse(field, x, grid))
        for x in xs[:: len(xs) // 7]:
            want = replaced.on_transverse(field, x, grid)
            assert_bits(field.on_planes(np.array([x]), grid)[0], want)

    def test_metric_spec_planes(self):
        grid = bit_grid()
        values = {(2, 2): EXPRESSIONS[1], (2, 3): seeded(2), (3, 3): EXPRESSIONS[2]}
        spec = MetricCurvatureSpec(3, values)
        xs = planned_xs(grid)[:50]
        batched = spec.planes(xs, grid)
        assert batched.shape == (50, 2, 2, 20)
        for x, plane in zip(xs, batched):
            values_of = lambda f: replaced.on_transverse(f, x, grid)
            want = replaced.dense("a", 3, values, (20,), values_of)
            assert_bits(np.ascontiguousarray(plane), want)

    def test_connection_spec_planes(self):
        grid = bit_grid()
        values = {
            (2, 1, 2): EXPRESSIONS[0],
            (3, 1, 3): seeded(3),
            (1, 2, 3): EXPRESSIONS[3],
            (2, 3, 2): seeded(4),
            (3, 3, 3): EXPRESSIONS[6],
        }
        spec = ConnectionCurvatureSpec(3, values)
        xs = planned_xs(grid)[:50]
        stage1 = spec.stage1_planes(xs, grid)
        stage2 = spec.stage2_planes(xs, grid)
        assert stage1.shape == (50, 3, 2, 20)
        assert stage2.shape == (50, 3, 2, 2, 20)
        for x, plane1, plane2 in zip(xs, stage1, stage2):
            values_of = lambda f: replaced.on_transverse(f, x, grid)
            want1 = replaced.dense("A", 3, values, (20,), values_of, (1, 1, 2), (3, 1, 3))[:, 0]
            want2 = replaced.dense("A", 3, values, (20,), values_of, (1, 2, 2))
            assert_bits(np.ascontiguousarray(plane1), want1)
            assert_bits(np.ascontiguousarray(plane2), want2)


# --------------------------------------------------------------- bank rules


def counting_planes(calls, fail_above=None):
    """planes(xs, grid) = x1 on every node; records each call's xs."""

    def planes(xs, grid):
        calls.append(list(xs))
        if fail_above is not None and np.any(xs > fail_above):
            raise EvalError(f"at x1 = {float(xs[xs > fail_above][0])!r}")
        return np.repeat(xs[:, None], math.prod(grid.transverse_shape), axis=1)

    return planes


def line_grid(lo=-1.0, hi=1.0, h1=0.01, res=3):
    return build_grid(ChartSpec(n=2, x1_range=(lo, hi), h1=h1, transverse_res=res))


class TestBankRules:
    def test_chunks_in_march_order_under_the_cap(self):
        grid = line_grid(h1=1e-4, res=9)
        calls = []
        bank = SourceBank(counting_planes(calls), grid)
        for x in tube_xs(grid):
            assert bank.plane(x)[0] == x
        keys = list(dict.fromkeys(tube_xs(grid)))
        per = CHUNK_POINTS // 9
        assert [x for chunk in calls for x in chunk] == keys
        assert [len(chunk) for chunk in calls[:-1]] == [per] * (len(calls) - 1)
        assert len(calls) == math.ceil(len(keys) / per) > 1

    def test_miss_is_evaluated_alone_and_memoised(self):
        # the march asks only for planned x, so an unplanned one is a bug:
        # it raises, and nothing is evaluated
        grid = line_grid()
        calls = []
        bank = SourceBank(counting_planes(calls), grid)
        with pytest.raises(KeyError):
            bank.plane(0.123)
        assert calls == []

    def test_failed_chunk_is_split_in_halves(self):
        grid = line_grid()
        keys = list(dict.fromkeys(tube_xs(grid)))
        bad = next(x for x in keys if x > 0.5)
        calls = []
        bank = SourceBank(counting_planes(calls, fail_above=0.5), grid)
        assert bank.plane(0.0)[0] == 0.0
        assert calls[0] == keys and len(calls[1]) == len(keys) // 2
        # every key the march reaches before the failing one, plus side
        # and minus side, from a handful of calls; the one-key fallback
        # made one call per key
        below = [x for x in keys if x <= 0.5]
        for x in below:
            assert bank.plane(x)[0] == x
        assert len(calls) <= 2 * math.ceil(math.log2(len(keys))) < len(below) // 10
        assert all(len(chunk) > 1 for chunk in calls)
        evaluated = [x for chunk in calls for x in chunk if x <= 0.5]
        assert sorted(set(evaluated)) == sorted(below)
        # the failing key raises when it is asked for, evaluated alone
        with pytest.raises(EvalError, match=re.escape(f"at x1 = {bad!r}")):
            bank.plane(bad)
        assert calls[-1] == [bad]

    def test_split_keeps_the_other_half_pending(self):
        grid = line_grid(h1=1e-4, res=9)
        keys = list(dict.fromkeys(tube_xs(grid)))
        per = CHUNK_POINTS // 9
        calls = []
        bank = SourceBank(counting_planes(calls, fail_above=0.9), grid)
        reached = [x for x in keys if x <= 0.9]
        for x in reached:
            assert bank.plane(x)[0] == x
        # a call fails iff it holds a key above 0.9; the successful ones
        # evaluate every reached key exactly once, so a half split off is
        # kept until asked for, not evaluated again
        served = [x for chunk in calls if max(chunk) <= 0.9 for x in chunk]
        assert sorted(served) == sorted(reached)
        # each chunk once, plus at most two calls per halving in each of
        # the chunks that hold a failing key (thousands with one-key
        # fallback)
        failing = {i // per for i, x in enumerate(keys) if x > 0.9}
        bound = math.ceil(len(keys) / per) + len(failing) * 2 * math.ceil(math.log2(per))
        assert len(calls) <= bound < 100

    def test_key_holds_first_x(self):
        grid = line_grid(lo=0.0, h1=5e-4)
        calls = []
        key = lambda x: round(x / 2.5e-4)
        bank = SourceBank(counting_planes(calls), grid, key=key)
        first = {}
        later = next(x for x in tube_xs(grid) if first.setdefault(key(x), x) != x)
        assert bank.plane(later)[0] == first[key(later)] != later
        # a key the caller already computed reads the same plane
        got = bank.plane(later, key(later))
        assert np.shares_memory(got, bank.plane(later))
        assert_bits(got, bank.plane(later))
        assert len(calls) == 1

    def test_reads_hold_no_object_per_key(self):
        # 40,001 keys in four chunks; the bank keeps each evaluated chunk
        # once, not one plane view per key (about 145 B each)
        grid = line_grid(h1=1e-4)
        keys = list(dict.fromkeys(tube_xs(grid)))
        assert len(keys) == 40001
        planes = lambda xs, grid: np.repeat(xs[:, None], 3, axis=1)
        tracemalloc.start()
        try:
            bank = SourceBank(planes, grid)
            before = tracemalloc.get_traced_memory()[0]
            for x in keys:
                bank.plane(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        plane_data = len(keys) * 3 * 8
        assert held - plane_data <= 16 * len(keys)

    def test_plan_holds_one_x_per_key(self):
        # the plan is a key -> index dict and one float64 array of first
        # x: about 101 B per key here; a list and a dict of keys beside
        # the index took about 133 B
        grid = line_grid(h1=1e-4)
        planes = lambda xs, grid: np.repeat(xs[:, None], 3, axis=1)
        tracemalloc.start()
        try:
            bank = SourceBank(planes, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(bank._held) == 40001
        assert held <= 115 * 40001


# ----------------------------------------------------------- exact keys


@pytest.fixture
def banks(monkeypatch):
    """Every SourceBank the reconstructions make, recording the x asked."""
    made = []

    class RecordingBank(SourceBank):
        def __init__(self, planes, grid, record_half=False, key=None):
            self.evaluated = []

            def recorded(xs, grid):
                self.evaluated.extend(xs)
                return planes(xs, grid)

            super().__init__(recorded, grid, record_half, key)
            self.asked = []
            made.append(self)

        def plane(self, x, key=None):
            self.asked.append(x)
            return super().plane(x, key)

    monkeypatch.setattr(ode, "SourceBank", RecordingBank)
    return made


# The march step is grid.spacing(1).  On the two-sided chart it is
# 0.0004999999999999449 and x_i + h == x_{i+1} at every step; on the
# one-sided chart it is 0.0005 and they differ in 1,018 of 4,000 steps.
CHARTS = {
    "two-sided": ChartSpec(n=2, x1_range=(-1.0, 1.0), h1=5e-4, transverse_res=3),
    "one-sided": ChartSpec(n=2, x1_range=(0.0, 2.0), h1=5e-4, transverse_res=3),
}


def band_connection(chart):
    init = HypersurfaceConnectionData(2)
    sources = ConnectionCurvatureSpec(2, {(2, 1, 2): "-0.25", (1, 2, 2): "cos(x1)^2"})
    return reconstruct_connection(init, sources, chart)


@pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
class TestExactKeys:
    def test_metric_march_has_no_misses(self, banks, chart):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"}, g1={(2, 2): "0"})
        sources = MetricCurvatureSpec(2, {(2, 2): "-0.25*cos(x1)^2"})
        _, report = reconstruct_metric(init, sources, 1, chart)
        assert report.complete
        (bank,) = banks
        assert len(bank.asked) == 4 * 4000

    def test_connection_stages_have_no_misses(self, banks, chart):
        _, report = band_connection(chart)
        assert report.complete
        stage1, stage2 = banks
        assert len(stage1.asked) == 7 * 4000  # record_half: two RK4 steps sharing k1
        assert len(stage2.asked) == 4 * 4000


def test_stage2_keeps_first_x_per_half_key(banks):
    chart = CHARTS["one-sided"]
    band_connection(chart)
    stage2 = banks[1]
    h1 = chart.h1
    first = {}
    seen = {}
    for x in stage2.asked:
        key = connection_recon._half_key(x, h1)
        first.setdefault(key, x)
        seen.setdefault(key, set()).add(x)
    assert sorted(stage2.evaluated) == sorted(first.values())
    # step i's x + h and step i+1's x share a key but not always a value
    assert sum(len(xs) > 1 for xs in seen.values()) == 1018


# ------------------------------------------------------ look-ahead safety


def chart_text(lo, hi):
    return (
        f"[chart]\nn = 2\nx1_min = {lo}\nx1_max = {hi}\nh1 = 0.0005\n"
        "transverse_res = 3\ntransverse_box = 0.0, 1.0\n"
    )


def count_eval_calls(monkeypatch):
    """The expressions of every ``eval_field_on`` call from now on."""
    calls = []
    real = grid_field.eval_field_on

    def counted(expr, coords):
        calls.append(expr)
        return real(expr, coords)

    monkeypatch.setattr(grid_field, "eval_field_on", counted)
    return calls


def run_cli(tmp_path, text, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    return main([mode, "--config", str(cfg), "--out", str(out)]), out


class TestLookAheadSafety:
    def test_step_bound_stop_blowup(self, tmp_path, monkeypatch):
        # the source exists only for x1 <= 1.6, past the blow-up at pi/2
        calls = count_eval_calls(monkeypatch)
        text = chart_text(0.0, 2.0) + '[fields]\nA.2.1.2 = "-1"\nA.1.1.2 = "0*sqrt(1.6 - x1)"\n'
        code, out = run_cli(tmp_path, text, "reconstruct-connection")
        report = read_report(out / "report.txt")
        assert code == 3
        assert report["status"] == "StoppedBlowup"
        assert report["delta_hat_plus"] == "1.5705"
        # failed chunks are halved, not evaluated one plane at a time
        # (20,464 calls)
        assert 0 < len(calls) <= 100

    def test_undefined_region_in_a_later_chunk_on_the_minus_side(self, tmp_path):
        lo, hi = -2.0, 0.5
        grid = build_grid(ChartSpec(n=2, x1_range=(lo, hi), h1=5e-4, transverse_res=3))
        keys = list(dict.fromkeys(tube_xs(grid, record_half=True)))
        undefined = next(i for i, x in enumerate(keys) if x < -1.6)
        per = CHUNK_POINTS // 3
        assert keys[undefined - 1] < 0  # on the minus side
        assert undefined // per >= 1 and undefined % per != 0
        text = chart_text(lo, hi) + '[fields]\nA.2.1.2 = "-1"\nA.1.1.2 = "0*sqrt(x1 + 1.6)"\n'
        code, out = run_cli(tmp_path, text, "reconstruct-connection")
        report = read_report(out / "report.txt")
        assert code == 3
        assert report["status"] == "StoppedBlowup"
        assert report["delta_hat_plus"] == "0.5"
        assert report["delta_hat_minus"] == "-1.5705"


# ------------------------------------------------- evaluator call guard


def test_band_round_trip_evaluates_each_chunk_once(tmp_path, monkeypatch):
    """Evaluator calls of the benchmark's 2-D band round trip stay per chunk.

    Evaluating one plane per RK4 key made 25,000-odd calls here.  The
    bound is (given components read) x (chunks) per march, fine and
    coarse, plus one whole-grid call per component for each residual.
    """
    calls = count_eval_calls(monkeypatch)
    text = (
        "[chart]\nn = 2\nx1_min = -1.0\nx1_max = 1.0\nh1 = 0.0005\n"
        "transverse_res = 5\ntransverse_box = 0.0, 1.0\n"
        '[fields]\nA.2.1.2 = "-1.0*1.0"\nA.1.2.2 = "1.0*1.0*cos(1.0*x1)^2"\n'
    )
    code, _ = run_cli(tmp_path, text, "roundtrip-connection")
    assert code == 0

    def chunks(h1, nodes, per_step):
        return math.ceil((2.0 / h1) * per_step / (CHUNK_POINTS // nodes))

    bound = 0
    for h1, res in ((5e-4, 5), (1e-3, 3)):  # fine run, Richardson coarse rerun
        stage1 = 1 * chunks(h1, res, 6)  # A.2.1.2, at most 6 x per step
        stage2 = 1 * chunks(h1, res, 3)  # A.1.2.2, at most 3 x per step
        bound += stage1 + stage2 + 2  # + dense_on of both components
    assert 0 < len(calls) <= bound
