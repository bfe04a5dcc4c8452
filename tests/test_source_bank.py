"""Source banks: batched source planes, exact march keys, safe look-ahead.

The prescribed sources of a march do not depend on its state, so
``ode.SourceBank`` evaluates every plane a march will read ahead of it,
in batched x1 chunks, and lays them out by step.  These tests pin that
a batched plane equals the per-plane value bit for bit, that the
planned keys are exactly the x the march asks for, that a march reads
every lockstep step as views of its row, that evaluating ahead never
turns a numerical stop into an input error nor evaluates a stopped
direction's later chunks, how much the bank holds, and how many
evaluator calls a run makes.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import _replaced_march
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
from semigeo.curvature import ORACLE_POINTS
from semigeo.errors import EvalError
from semigeo.expr import parse_field
from semigeo.grid_field import ChartSpec, ExpressionField, build_grid
from semigeo.metric_recon import HypersurfaceMetricData, MetricCurvatureSpec, reconstruct_metric
from semigeo.ode import CHUNK_POINTS, SourceBank

tube_xs = _replaced_march.tube_xs


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


def counting_planes(calls, fail_above=None, slots=()):
    """planes(xs, grid) = x1 on every node and slot; records each call's xs."""

    def planes(xs, grid):
        calls.append(list(xs))
        if fail_above is not None and np.any(xs > fail_above):
            raise EvalError(f"at x1 = {float(xs[xs > fail_above][0])!r}")
        shape = (len(xs),) + slots + (math.prod(grid.transverse_shape),)
        return (np.broadcast_to(xs.reshape((-1,) + (1,) * (len(shape) - 1)), shape).copy(),)

    return planes


def line_grid(lo=-1.0, hi=1.0, h1=0.01, res=3):
    return build_grid(ChartSpec(n=2, x1_range=(lo, hi), h1=h1, transverse_res=res))


def rows_of(grid):
    """Rows of a bank of ``grid``: one per step of its longer direction."""
    return max(n for _, n in ode._tube_marches(grid))


def lockstep_rows(grid):
    """The x of each row's columns, as a bank of ``grid`` lays them out.

    Per step the starts, then the middles, then the ends of the
    directions marching it, plus before minus, with the march's own
    float arithmetic.
    """
    marches = ode._tube_marches(grid)
    rows = []
    for i in range(rows_of(grid)):
        stages = [(0.0 + i * h, 0.0 + i * h + 0.5 * h, 0.0 + i * h + h) for h, n in marches if i < n]
        rows.append([x for stage in zip(*stages) for x in stage])
    return rows


def live_at(grid, r):
    """The directions of a bank of ``grid`` that march step r: those with more steps."""
    return [d for d, (_, n) in enumerate(ode._tube_marches(grid)) if r < n]


def step_values(bank, r):
    """The x1 of each column row r's calls read, in order (planes of ``counting_planes``)."""
    calls = bank.step(r, live_at(bank._grid, r))
    return [float(x) for call in calls for x in call[0][:: bank._width]]


class TestBankRules:
    def test_chunks_in_march_order_under_the_cap(self):
        # rows read in order evaluate each chunk once, when a row's
        # columns first read one of its keys; the keys are in march
        # order, the plus direction's first
        grid = line_grid(h1=1e-4, res=9)
        calls = []
        bank = SourceBank(counting_planes(calls), grid)
        keys = list(dict.fromkeys(tube_xs(grid)))
        per = CHUNK_POINTS // 9
        chunk_of = {x: i // per for i, x in enumerate(keys)}
        reached = []
        for r, row in enumerate(lockstep_rows(grid)):
            assert step_values(bank, r) == row
            for x in row:
                if chunk_of[x] not in reached:
                    reached.append(chunk_of[x])
        chunks = [keys[a : a + per] for a in range(0, len(keys), per)]
        assert calls == [chunks[c] for c in reached]
        assert sorted(reached) == list(range(len(chunks)))
        assert len(chunks) == math.ceil(len(keys) / per) > 1

    # (record_half, keyed by half step) of stage 1, stage 2 and the metric
    @pytest.mark.parametrize("record_half, keyed", [(True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2.0), (-0.5, 1.5), (-2.0, 0.0)])
    def test_plan_keeps_the_first_x_per_key(self, lo, hi, record_half, keyed):
        # the bank places each key by its step and stage; the per-x walk
        # it replaced keyed every x of the march in a dict
        grid = line_grid(lo, hi, h1=5e-4)
        half = 0.5 * grid.spacing(1)
        first = {}
        for x in tube_xs(grid, record_half):
            first.setdefault(round(x / half) if keyed else x, x)
        key = (lambda xs: np.rint(xs / half)) if keyed else None
        bank = SourceBank(lambda xs, grid: (xs[:, None],), grid, record_half, key)
        assert bank._xs.tolist() == list(first.values())

    def test_miss_is_evaluated_alone_and_memoised(self):
        # the march reads only planned rows, so an unplanned one is a bug:
        # it raises, and nothing is evaluated
        grid = line_grid()
        calls = []
        bank = SourceBank(counting_planes(calls), grid)
        with pytest.raises(IndexError):
            bank.step(rows_of(grid), [0, 1])
        assert calls == []

    def test_failed_chunk_is_split_in_halves(self):
        # the minus direction ends before the plus one reaches the failing
        # key, as a march that raises there reads it
        grid = line_grid(lo=-0.5)
        rows = lockstep_rows(grid)
        keys = list(dict.fromkeys(tube_xs(grid)))
        bad = next(x for x in keys if x > 0.5)
        calls = []
        bank = SourceBank(counting_planes(calls, fail_above=0.5), grid)
        assert step_values(bank, 0)[0] == 0.0
        assert calls[0] == keys and len(calls[1]) == len(keys) // 2
        failing = next(r for r, row in enumerate(rows) if bad in row)
        for r in range(failing):
            assert step_values(bank, r) == rows[r]
        # the row of the failing key evaluates it alone; the call that
        # reads it is handed the error, which reading its planes raises,
        # and the row read again does not evaluate it again
        before = len(calls)
        call = rows[failing].index(bad) // 2
        for _ in range(2):
            got = bank.step(failing, live_at(grid, failing))
            read = [float(x) for c in range(call) for x in got[c][0][:: bank._width]]
            assert read == rows[failing][: 2 * call]
            with pytest.raises(EvalError, match=re.escape(f"at x1 = {bad!r}")):
                (planes,) = got[call]
        assert calls[-1] == [bad] and calls.count([bad]) == 1
        # the rows before it read every key below the failing one, from a
        # handful of calls: the one chunk, then at most two per halving of
        # it; the one-key fallback made one call per key
        split = calls[before:]
        below = [x for x in keys if x <= 0.5]
        served = [chunk for chunk in calls if chunk not in split]
        assert len(served) <= 1 + 2 * math.ceil(math.log2(len(keys))) < len(below) // 10
        assert all(len(chunk) > 1 for chunk in served)
        evaluated = [x for chunk in calls for x in chunk if x <= 0.5]
        assert sorted(set(evaluated)) == sorted(below)

    def test_split_keeps_the_other_half_pending(self):
        # the minus direction ends before the plus one passes 0.9
        grid = line_grid(lo=-0.5, h1=1e-4, res=9)
        rows = lockstep_rows(grid)
        keys = list(dict.fromkeys(tube_xs(grid)))
        per = CHUNK_POINTS // 9
        calls = []
        bank = SourceBank(counting_planes(calls, fail_above=0.9), grid)
        reached = [row for row in rows if max(row) <= 0.9]
        assert len(reached[-1]) == 3
        read = set()
        for r, row in enumerate(reached):
            assert step_values(bank, r) == row
            read.update(row)
        # a call fails iff it holds a key above 0.9; the successful ones
        # evaluate every key of the rows read exactly once, so a half
        # split off is kept until asked for, not evaluated again
        served = [x for chunk in calls if max(chunk) <= 0.9 for x in chunk]
        assert len(served) == len(set(served)) and read <= set(served)
        assert max(served) <= 0.9 and len(set(served) - read) < per
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
        bank = SourceBank(counting_planes(calls), grid, key=lambda xs: np.rint(xs / 2.5e-4))
        first = {}
        plan = tube_xs(grid)
        later = next(i for i, x in enumerate(plan) if first.setdefault(key(x), x) != x)
        # a step's start reads the plane of the previous step's end
        assert later % 3 == 0
        assert step_values(bank, later // 3)[0] == first[key(plan[later])] != plan[later]
        assert len(calls) == 1

    def test_reads_hold_no_object_per_key(self):
        # 40,001 keys in four chunks; reading every row keeps no object
        # per key or row, and a chunk no later row reads is dropped
        grid = line_grid(h1=1e-4)
        keys = list(dict.fromkeys(tube_xs(grid)))
        assert len(keys) == 40001
        planes = lambda xs, grid: (np.repeat(xs[:, None], 3, axis=1),)
        tracemalloc.start()
        try:
            bank = SourceBank(planes, grid)
            before = tracemalloc.get_traced_memory()[0]
            for r in range(max(n for _, n in ode._tube_marches(grid))):
                bank.step(r, live_at(grid, r))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        plane_data = len(keys) * 3 * 8
        assert held - plane_data <= 16 * len(keys)

    def test_plan_holds_one_x_per_key(self):
        # the plan is one float64 array of first x and per row the index of
        # each column's key: about 30 B per key here; the float-keyed index
        # it replaced took about 101 B, and a list and a dict of keys
        # beside that index about 133 B
        grid = line_grid(h1=1e-4)
        planes = lambda xs, grid: (np.repeat(xs[:, None], 3, axis=1),)
        tracemalloc.start()
        try:
            bank = SourceBank(planes, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(bank._xs) == 40001
        assert held <= 115 * 40001

    @pytest.mark.parametrize(
        "lo", [0.0, -1.0, -0.5], ids=["one-sided", "two-sided", "asymmetric"]
    )
    def test_rows_add_at_most_one_block(self, lo):
        # a march over six chunks per direction (about three on the minus
        # side of the asymmetric one, whose plus direction marches on alone):
        # after each step the bank holds the chunks evaluated so far and
        # one block of rows, of at most ROW_BYTES; the rows are not kept
        # beside the chunks
        grid = line_grid(lo=lo, h1=1e-4, res=9)
        evaluated = []

        def planes(xs, grid):
            evaluated.append(len(xs) * 4 * 9 * 8)
            return (np.broadcast_to(xs[:, None, None], (len(xs), 4, 9)).copy(),)

        # the directions of each step, listed before tracing, as the march
        # holds its own
        lives = [live_at(grid, r) for r in range(rows_of(grid))]
        # the same loop once untraced on a throwaway bank, so that numpy's
        # cached dimension buffers and CPython's free lists are warm and the
        # traced loop counts the bank, not the test order
        warm = SourceBank(planes, grid)
        for r, live in enumerate(lives):
            warm.step(r, live)
        del warm
        evaluated.clear()
        tracemalloc.start()
        try:
            bank = SourceBank(planes, grid)
            before = tracemalloc.get_traced_memory()[0]
            most = 0
            for r, live in enumerate(lives):
                bank.step(r, live)
                held = tracemalloc.get_traced_memory()[0] - before
                most = max(most, held - sum(evaluated))
        finally:
            tracemalloc.stop()
        assert len(evaluated) >= {0.0: 6, -1.0: 11, -0.5: 9}[lo]
        assert ode.ROW_BYTES // 2 < most <= ode.ROW_BYTES + 4096


# ----------------------------------------------------------- exact keys


@pytest.fixture
def banks(monkeypatch):
    """Every SourceBank the reconstructions make, counting how they are read.

    ``steps`` counts the lockstep reads (no column ranges given),
    ``views`` those of them whose every part is a view of the bank's
    block, and ``replays`` the reads given column ranges; ``chunks``
    lists the x of every evaluation, ``evaluated`` every x evaluated at.
    """
    made = []

    class RecordingBank(SourceBank):
        def __init__(self, planes, grid, record_half=False, key=None):
            self.chunks = []
            self.evaluated = []

            def recorded(xs, grid):
                self.chunks.append(xs.tolist())
                self.evaluated.extend(xs)
                return planes(xs, grid)

            super().__init__(recorded, grid, record_half, key)
            self.steps = self.views = self.replays = 0
            made.append(self)

        def step(self, r, live, calls=None):
            got = super().step(r, live, calls)
            if calls is None:
                self.steps += 1
                self.views += all(not part.flags.owndata for call in got for part in call)
            else:
                self.replays += 1
            return got

    monkeypatch.setattr(ode, "SourceBank", RecordingBank)
    return made


# The march step is grid.spacing(1).  On the two-sided chart it is
# 0.0004999999999999449 and x_i + h == x_{i+1} at every step; on the
# one-sided chart it is 0.0005 and they differ in 1,018 of 4,000 steps.
# On the asymmetric one the plus direction marches 3,000 steps, the
# last 2,000 of them alone.
CHARTS = {
    "two-sided": ChartSpec(n=2, x1_range=(-1.0, 1.0), h1=5e-4, transverse_res=3),
    "one-sided": ChartSpec(n=2, x1_range=(0.0, 2.0), h1=5e-4, transverse_res=3),
    "asymmetric": ChartSpec(n=2, x1_range=(-0.5, 1.5), h1=5e-4, transverse_res=3),
}


def band_connection(chart):
    init = HypersurfaceConnectionData(2)
    sources = ConnectionCurvatureSpec(2, {(2, 1, 2): "-0.25", (1, 2, 2): "cos(x1)^2"})
    return reconstruct_connection(init, sources, chart)


def lockstep_steps(chart):
    """Steps of the lockstep march on ``chart``: its longer direction's."""
    return max(n for _, n in ode._tube_marches(build_grid(chart)))


@pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
class TestExactKeys:
    def test_metric_march_has_no_misses(self, banks, chart):
        init = HypersurfaceMetricData(2, g={(2, 2): "1"}, g1={(2, 2): "0"})
        sources = MetricCurvatureSpec(2, {(2, 2): "-0.25*cos(x1)^2"})
        _, report = reconstruct_metric(init, sources, 1, chart)
        assert report.complete
        (bank,) = banks
        # every step's calls read views of its row, and none is replayed
        assert (bank.steps, bank.views, bank.replays) == (lockstep_steps(chart),) * 2 + (0,)

    def test_connection_stages_have_no_misses(self, banks, chart):
        _, report = band_connection(chart)
        assert report.complete
        for bank in banks:  # stage 1 (recording midpoints), then stage 2
            assert (bank.steps, bank.views, bank.replays) == (lockstep_steps(chart),) * 2 + (0,)
        assert len(banks) == 2


def test_stage2_keeps_first_x_per_half_key(banks):
    chart = CHARTS["one-sided"]
    band_connection(chart)
    stage2 = banks[1]
    h1 = chart.h1
    first = {}
    seen = {}
    for x in tube_xs(build_grid(chart)):
        key = int(connection_recon._half_keys(np.array([x]), h1)[0])
        first.setdefault(key, x)
        seen.setdefault(key, set()).add(x)
    assert sorted(stage2.evaluated) == sorted(first.values())
    # step i's x + h and step i+1's x share a key but not always a value
    assert sum(len(xs) > 1 for xs in seen.values()) == 1018


def test_a_stopped_direction_evaluates_no_later_chunk(banks, monkeypatch):
    # stage 1 blows up at x1 = 1.144 on the plus side and at -2.641 on
    # the minus side.  The rows after the plus stop hold minus keys only,
    # so no chunk of plus keys past it is evaluated; a chunk that holds a
    # key the march read may hold later ones.  Rows that kept the stopped
    # direction's columns evaluated 80 chunks of 16,000 keys here.
    monkeypatch.setattr(ode, "CHUNK_POINTS", 600)
    chart = ChartSpec(n=2, x1_range=(-3.0, 3.0), h1=1e-3, transverse_res=3)
    sources = ConnectionCurvatureSpec(2, {(2, 1, 2): "-(1 + x1)^2"})
    _, report = reconstruct_connection(HypersurfaceConnectionData(2), sources, chart)
    assert report.delta_hat_plus == pytest.approx(1.144)
    assert report.delta_hat_minus == pytest.approx(-2.641)
    stage1 = banks[0]
    # the stopped step ends one step past the reached x1
    assert [c for c in stage1.chunks if min(c) > report.delta_hat_plus + chart.h1] == []
    assert (len(stage1.chunks), len(stage1.evaluated)) == (58, 11600)


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
    coarse, plus one call per component and x1 block of each residual:
    the fine lattice's 4001 x 5 points are two blocks, the coarse one's
    2001 x 3 one.
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
    for h1, res, blocks in ((5e-4, 5, 2), (1e-3, 3, 1)):  # fine run, Richardson coarse rerun
        assert blocks == math.ceil((2.0 / h1 + 1) / (ORACLE_POINTS // res))
        stage1 = 1 * chunks(h1, res, 6)  # A.2.1.2, at most 6 x per step
        stage2 = 1 * chunks(h1, res, 3)  # A.1.2.2, at most 3 x per step
        bound += stage1 + stage2 + 2 * blocks  # + the residual's reads of both components
    assert 0 < len(calls) <= bound
