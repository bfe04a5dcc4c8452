import numpy as np
import pytest

import _replaced_march as replaced
from semigeo import ode
from semigeo.cli import main
from semigeo.errors import EvalError
from semigeo.grid_field import ChartSpec, TubeGrid, build_grid
from semigeo.linalg import det_stack, inv_sym, mirror_upper
from semigeo.metric_recon import _quadratic
from semigeo.ode import (
    GuardConfig,
    StateRejected,
    march_tube,
    rk4_march,
    rk4_step,
)
from test_source_bank import banks  # noqa: F401 (a fixture the grouped march reads)


def march(rhs, h, n_steps, state0, **options):
    """A one-group march from x = 0, calling ``rhs(x, state)`` on each node group."""

    def grouped(xs, state, inputs):
        assert inputs == ()  # a march without a bank hands no inputs
        parts = np.split(state, len(xs), axis=-1)
        return np.concatenate([rhs(x, part) for x, part in zip(xs, parts)], axis=-1)

    (res,) = rk4_march(grouped, (h,), (n_steps,), state0, **options)
    return res


def march_exp(h, n_steps):
    return march(lambda x, s: s, h, n_steps, np.array([1.0]))


class TestAccuracy:
    def test_fourth_order_convergence(self):
        # u' = u on [0, 1]: halving h must cut the endpoint error ~16x
        err = []
        for n in (10, 20, 40):
            res = march_exp(1.0 / n, n)
            err.append(abs(res.states[-1, 0] - np.e))
        assert err[0] / err[1] == pytest.approx(16.0, rel=0.2)
        assert err[1] / err[2] == pytest.approx(16.0, rel=0.2)

    def test_exact_on_quartic_rhs(self):
        # x-only rhs integrates the quartic exactly up to roundoff
        res = march(lambda x, s: np.array([4.0 * x**3]), 0.125, 8, np.array([0.0]))
        assert res.states[-1, 0] == pytest.approx(1.0, abs=1e-14)
        assert res.stopped is None
        assert res.steps_done == 8

    def test_trajectory_shape_and_samples(self):
        res = march_exp(0.1, 10)
        assert res.states.shape == (11, 1)
        x = 0.1 * np.arange(11)
        assert np.allclose(res.states[:, 0], np.exp(x), atol=1e-7)

    @pytest.mark.parametrize(
        "lam",
        [np.array([1.0]), -np.linspace(0.5, 1.5, 11)],
        ids=["single", "lockstep-nodes"],
    )
    def test_half_states_are_fourth_order(self, lam):
        errs = []
        for n in (10, 20):
            res = march(
                lambda x, s: lam * s,
                1.0 / n,
                n,
                np.ones(lam.size),
                record_half=True,
            )
            assert res.half_states.shape == (n, lam.size)
            mid = (np.arange(n) + 0.5) / n
            errs.append(np.max(np.abs(res.half_states - np.exp(np.outer(mid, lam)))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_half_states_none_when_not_recorded(self):
        assert march_exp(0.1, 5).half_states is None

    def test_negative_step_marches_left(self):
        res = march(lambda x, s: s, -0.1, 10, np.array([1.0]))
        assert res.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


class TestGuards:
    def test_threshold_stop(self):
        guards = GuardConfig(blowup_threshold=100.0)
        res = march(lambda x, s: s, 0.5, 100, np.array([1.0]), guards=guards)
        assert res.stopped == "blowup"
        # a single state is a one-node march, so the offending node is 0
        assert res.stop_detail == 0
        assert res.steps_done < 100
        assert res.states.shape == (res.steps_done + 1, 1)
        assert np.max(np.abs(res.states)) <= 100.0

    def test_pole_detected_before_threshold(self):
        # u' = u^2 blows up at x = 1; the growth guard must stop the march
        # while the state is still modest, long before the huge threshold
        guards = GuardConfig(blowup_threshold=1e300)
        res = march(lambda x, s: s**2, 0.05, 100, np.array([1.0]), guards=guards)
        assert res.stopped == "blowup"
        assert np.max(np.abs(res.states)) < 1e4
        assert res.steps_done * 0.05 <= 1.1

    def test_fast_linear_growth_not_a_pole(self):
        # huge constant slope trips the growth test but not the slope ratio
        res = march(lambda x, s: np.array([1000.0]), 1.0, 10, np.array([0.0]))
        assert res.stopped is None
        assert res.steps_done == 10
        assert res.states[-1, 0] == pytest.approx(10000.0)

    def test_nonfinite_stage_is_caught_silently(self):
        def rhs(x, s):
            return np.where(x > 0.3, np.inf, 1.0) * np.ones_like(s)

        res = march(rhs, 0.2, 5, np.array([0.0]))
        assert res.stopped == "blowup"
        assert np.all(np.isfinite(res.states))

    def test_state_rejected_stops_with_reason_and_detail(self):
        def rhs(x, s):
            if np.any(s > 5.0):
                raise StateRejected("degenerate", 7)
            return s

        res = march(rhs, 0.5, 20, np.array([1.0]))
        assert res.stopped == "degenerate"
        assert res.stop_detail == 7
        assert np.max(res.states) <= 5.0

    def test_rejection_outranks_threshold_for_same_event(self):
        # rhs sees each stage state before the screen, so its veto wins
        def rhs(x, s):
            if np.any(s > 5.0):
                raise StateRejected("custom")
            return s

        guards = GuardConfig(blowup_threshold=5.0)
        res = march(rhs, 1.0, 10, np.array([4.0]), guards=guards)
        assert res.stopped == "custom"

    def test_single_step_reports_stage_blowup(self):
        guards = GuardConfig(blowup_threshold=10.0)
        new, reason, detail = rk4_step(
            lambda xs, s, _: np.array([100.0]), (0.0,), (1.0,), np.array([0.0]), guards
        )
        assert new is None
        assert reason == "blowup"

    def test_single_step_success_returns_state(self):
        new, reason, detail = rk4_step(
            lambda xs, s, _: s, (0.0,), (0.1,), np.array([1.0]), GuardConfig()
        )
        assert reason is None and detail is None
        assert new[0] == pytest.approx(np.exp(0.1), abs=1e-7)


class TestNodeAxis:
    def test_per_node_guard_reports_offending_node(self):
        # node 3 has the fastest pole; detail is its flat index
        u0 = np.full(8, 0.1)
        u0[3] = 0.9
        res = march(lambda x, s: s**2, 0.05, 400, u0)
        assert res.stopped == "blowup"
        assert res.stop_detail == 3
        assert res.states.shape == (res.steps_done + 1, 8)

    def test_guard_reduces_per_node_not_globally(self):
        # one node with large magnitude must not mask another node's growth
        def rhs(x, s):
            out = np.zeros_like(s)
            out[1] = s[1] ** 2
            return out

        u0 = np.array([500.0, 0.9])
        res = march(rhs, 0.05, 400, u0)
        assert res.stopped == "blowup"
        assert res.stop_detail == 1

    def test_guard_reduces_over_tensor_axes(self):
        # a (k, k, N) stack like the metric march: the pole sits in one
        # off-diagonal slot of node 5, and the detail names that node
        u0 = np.full((2, 2, 7), 0.1)
        u0[0, 1, 5] = 0.9
        res = march(lambda x, s: s**2, 0.05, 400, u0)
        assert res.stopped == "blowup"
        assert res.stop_detail == 5
        assert res.states.shape == (res.steps_done + 1, 2, 2, 7)

    def test_rejection_detail_passes_through(self):
        # the rhs sees the whole node stack, so the index it raises with is
        # already the flat node index and is reported unchanged
        grow = np.zeros(9)
        grow[7] = 1.0

        def rhs(x, s):
            over = np.abs(s) > 5.0
            if np.any(over):
                raise StateRejected("degenerate", int(np.argmax(over)))
            return grow * s

        res = march(rhs, 0.5, 50, np.ones(9))
        assert res.stopped == "degenerate"
        assert res.stop_detail == 7
        assert res.states.shape == (res.steps_done + 1, 9)
        assert res.steps_done < 50


# The screen tests one max |state| first and builds the per-node mask only
# when that fails; NaN must fail it too, and the node reported is the first
# offending one either way.
SCREENED = {
    "nan": ({2: np.nan}, 2),
    "inf": ({5: -np.inf}, 5),
    "above-threshold-before-nan": ({1: -2e6, 3: np.nan}, 1),
    "nan-before-above-threshold": ({1: np.nan, 3: 2e6}, 1),
    "at-threshold": ({4: 1e6}, None),
}


@pytest.mark.parametrize("entries, node", SCREENED.values(), ids=SCREENED.keys())
def test_screen_reports_first_bad_node(entries, node):
    state = np.full((2, 8), 0.5)
    for k, v in entries.items():
        state[1, k] = v
    new, reason, detail = rk4_step(
        lambda xs, s, _: np.zeros_like(s), (0.0,), (0.1,), state, GuardConfig()
    )
    if node is None:
        assert reason is None and np.array_equal(new, state)
    else:
        assert new is None and reason == "blowup" and detail == node


# ------------------------------------------------- k1 shared by both steps


def reference_record_half_march(rhs, x0, h, n_steps, state0):
    """The record_half march with the rhs evaluated at (x, state) by each step.

    Returns (states, half_states, stopped, detail), as ``rk4_march`` did
    before the half and the whole step shared their first stage.
    """
    guards = GuardConfig()
    state = np.array(state0, dtype=np.float64)
    states, halves = [state], []
    for i in range(n_steps):
        x = x0 + i * h
        try:
            mid, stopped, detail = replaced.rk4_step(rhs, x, 0.5 * h, state, guards)
            if mid is None:
                return np.array(states), np.array(halves), stopped or "blowup", detail
            new, stopped, detail = replaced.rk4_step(rhs, x, h, state, guards)
        except StateRejected as stop:
            return np.array(states), np.array(halves), stop.reason, stop.detail
        if new is None:
            return np.array(states), np.array(halves), stopped, detail
        halves.append(mid)
        states.append(new)
        state = new
    return np.array(states), np.array(halves), None, None


# 6 * 0.1 is the start of step 6 and, unlike most step starts, not equal
# to 5 * 0.1 + 0.1, the end stage of step 5; so only the first call of
# step 6 sees it
VETO_X = 6 * 0.1


def veto_at_a_step_start(x, s):
    if x == VETO_X:
        raise StateRejected("degenerate", 4)
    return np.cos(3.0 * x) * s - 0.5 * s**3 + x


SHARED_K1 = {
    "smooth": (lambda x, s: np.cos(3.0 * x) * s - 0.5 * s**3 + x, 0.05, 40, None, 40),
    "pole": (lambda x, s: s**2 + x, 0.05, 400, "blowup", None),
    "veto-at-a-step-start": (veto_at_a_step_start, 0.1, 20, "degenerate", 6),
}


@pytest.mark.parametrize("rhs, h, n_steps, stopped, done", SHARED_K1.values(), ids=SHARED_K1.keys())
def test_record_half_shares_k1_bit_for_bit(rhs, h, n_steps, stopped, done):
    state0 = np.linspace(0.2, 0.9, 10).reshape(2, 5)
    got = march(rhs, h, n_steps, state0, record_half=True)
    states, halves, want_stop, want_detail = reference_record_half_march(
        rhs, 0.0, h, n_steps, state0
    )
    assert got.stopped == want_stop == stopped
    assert got.stop_detail == want_detail
    if done is not None:
        assert got.steps_done == done
    assert got.states.tobytes() == states.tobytes()
    assert got.half_states.tobytes() == halves.tobytes()
    assert got.half_states.shape == (got.steps_done, 2, 5)


# ------------------------------------------------------------- march_tube

TUBE = build_grid(ChartSpec(n=2, x1_range=(-0.1, 0.2), h1=0.01, transverse_res=3))


def tube_planes(xs, grid):
    """Sources varying with x1 and node: one part shaped (len(xs), 1, N)."""
    return (np.cos(xs)[:, None, None] + grid.transverse_mesh()[0][None, None, :],)


def test_march_tube_veto_outranks_a_failing_source():
    # the sources fail past |x1| = 0.04, where the rhs vetoes before it
    # reads them, so the march stops on its own reason, not an error
    def planes(xs, grid):
        if np.any(np.abs(xs) > 0.04):
            raise EvalError("source undefined")
        return tube_planes(xs, grid)

    def rhs(xs, state, inputs):
        if any(abs(x) > 0.04 for x in xs):
            raise StateRejected("degenerate", 2)
        (a,) = inputs
        return a

    plus, minus, rgrid, _ = march_tube(rhs, TUBE, np.zeros((1, 3)), planes)
    assert plus.stopped == minus.stopped == "degenerate"
    assert plus.stop_detail == minus.stop_detail == 2
    assert (plus.steps_done, minus.steps_done) == (3, 3)
    assert rgrid.x1_samples[0] == -0.03 and rgrid.x1_samples[-1] == 0.03


def half_key(x):
    return int(round(x / 0.005))


def half_keys(xs):
    """``half_key`` of each x of an array, as the source bank keys them."""
    return np.rint(xs / 0.005)


def keyed_planes(xs, grid):
    """Sources that depend on x1 only through ``half_key``."""
    return tube_planes(0.005 * half_keys(xs), grid)


MARCHES = {
    "plain": (False, None, tube_planes),
    "record-half": (True, None, tube_planes),
    "keyed": (False, half_keys, keyed_planes),
}


@pytest.mark.parametrize("record_half, key, planes", MARCHES.values(), ids=MARCHES.keys())
def test_march_tube_reads_each_plane_at_its_x(record_half, key, planes, monkeypatch):
    read = []
    groups = []
    steps = []
    step = ode.rk4_step

    def counted(*args, **kwargs):
        steps.append(tuple(args[2]))
        return step(*args, **kwargs)

    monkeypatch.setattr(ode, "rk4_step", counted)

    def rhs(xs, state, inputs):
        groups.append(len(xs))
        (got,) = inputs
        assert state.shape == got.shape == (1, 3 * len(xs))
        read.extend(zip(xs, np.split(got, len(xs), axis=-1)))
        return got

    plus, minus, _, whole = march_tube(
        rhs, TUBE, np.zeros((1, 3)), planes, record_half=record_half, key=key
    )
    assert plus.stopped is None and minus.stopped is None
    assert whole.shape == (TUBE.shape[0], 1, 3)
    assert (plus.half_states is not None) == record_half
    # one rk4_step and four rhs calls per step of the 20-step plus side;
    # the minus side's 10 steps ride along with its first 10
    h = TUBE.spacing(1)
    if record_half:
        assert steps == [(0.5 * h, -0.5 * h, h, -h)] * 10 + [(0.5 * h, h)] * 10
        assert groups == [2, 4, 4, 4] * 10 + [1, 2, 2, 2] * 10
    else:
        assert steps == [(h, -h)] * 10 + [(h,)] * 10
        assert groups == [2, 2, 2, 2] * 10 + [1, 1, 1, 1] * 10
    assert len(read) == (7 if record_half else 4) * (TUBE.shape[0] - 1)
    for x, plane in read:
        assert np.array_equal(plane, planes(np.array([x]), TUBE)[0][0])


def trajectory_march(lohi, nodes, monkeypatch, stop=None, track_bytes=0):
    """(grid, plus, minus, whole, shapes) of a march_tube on ``nodes`` nodes per plane.

    ``ode.TRACK_BYTES`` is ``track_bytes`` meanwhile, so by default the
    march writes its states straight into ``whole``.  ``shapes`` are the
    shapes of every np.concatenate result made while it marches.  The
    right-hand side vetoes every x beyond ``stop`` (above it when
    positive, below it when negative).
    """
    grid = build_grid(ChartSpec(n=2, x1_range=lohi, h1=0.01, transverse_res=nodes))
    state0 = np.arange(1.0, 3.0 * nodes + 1.0).reshape((3, nodes))
    shapes = []
    concatenate = np.concatenate

    def counted(arrays, *args, **kwargs):
        joined = concatenate(arrays, *args, **kwargs)
        shapes.append(joined.shape)
        return joined

    def planes(xs, grid):
        return (np.cos(xs)[:, None, None] + np.zeros((1, 3, nodes)),)

    def rhs(xs, state, inputs):
        if stop is not None and any(x * np.sign(stop) > abs(stop) for x in xs):
            raise StateRejected("degenerate", 1)
        (a,) = inputs
        return a - 0.5 * state

    monkeypatch.setattr(ode, "TRACK_BYTES", track_bytes)
    monkeypatch.setattr(np, "concatenate", counted)
    plus, minus, _, whole = march_tube(rhs, grid, state0, planes)
    monkeypatch.undo()
    return grid, plus, minus, whole, shapes


def assert_views_of_whole(plus, minus, whole):
    k = minus.steps_done
    assert len(whole) == k + plus.steps_done + 1
    assert np.array_equal(plus.states, whole[k:])
    assert np.array_equal(minus.states, whole[: k + 1][::-1])


def assert_one_buffer(grid, plus, minus, whole, shapes):
    # one array with a row per x1 sample of the grid holds the march's
    # rows; nothing joins rows of it, so no result has its row shape
    buffer = whole.base
    assert buffer.shape == (grid.shape[0],) + whole.shape[1:]
    assert plus.states.base is buffer and minus.states.base is buffer
    assert not [shape for shape in shapes if shape[1:] == whole.shape[1:]]
    assert_views_of_whole(plus, minus, whole)


@pytest.mark.parametrize("lohi", [(-0.1, 0.2), (0.0, 0.2), (-0.2, 0.0)])
@pytest.mark.parametrize("nodes", [3, 5])
def test_march_tube_holds_its_trajectory_once(lohi, nodes, monkeypatch):
    # the march writes each direction's states straight into whole, the
    # minus ones reversed; the directions meet at x1 = 0
    grid, plus, minus, whole, shapes = trajectory_march(lohi, nodes, monkeypatch)
    assert len(whole) == grid.shape[0]
    assert_one_buffer(grid, plus, minus, whole, shapes)
    for march in (plus, minus):
        assert march.states.shape == (march.steps_done + 1, 3, nodes)
        assert np.array_equal(march.states[0], np.arange(1.0, 3.0 * nodes + 1.0).reshape(3, nodes))


@pytest.mark.parametrize("stop, done", [(0.052, (5, 10)), (-0.032, (20, 3))], ids=["plus", "minus"])
def test_stopped_march_tube_holds_its_reached_rows_once(stop, done, monkeypatch):
    # whole is the reached rows of the one array; the rows past a stop
    # stay unwritten, and neither direction's states are copied
    grid, plus, minus, whole, shapes = trajectory_march((-0.1, 0.2), 3, monkeypatch, stop)
    assert (plus.steps_done, minus.steps_done) == done
    assert [m.stopped for m in (plus, minus)].count("degenerate") == 1
    assert_one_buffer(grid, plus, minus, whole, shapes)
    # the reached rows are the ones the unstopped march makes
    _, _, _, full, _ = trajectory_march((-0.1, 0.2), 3, monkeypatch)
    lo = 10 - done[1]
    assert whole.tobytes() == full[lo : lo + len(whole)].tobytes()


@pytest.mark.parametrize(
    "lohi, stop", [((-0.1, 0.2), None), ((0.0, 0.2), None), ((-0.1, 0.2), 0.052), ((-0.1, 0.2), -0.032)]
)
def test_small_trajectory_is_stacked_after_the_march(lohi, stop, monkeypatch):
    # under TRACK_BYTES the rows go into the march's own blocks and are
    # stacked into whole once; the states are views of it, and its bytes
    # are the ones written straight
    size = len(build_grid(ChartSpec(n=2, x1_range=lohi, h1=0.01, transverse_res=3)).x1_samples)
    stacked = trajectory_march(lohi, 3, monkeypatch, stop, track_bytes=size * 9 * 8 + 1)
    _, plus, minus, whole, shapes = stacked
    assert whole.base is None and plus.states.base is whole and minus.states.base is whole
    assert [shape for shape in shapes if shape[1:] == whole.shape[1:]] == [whole.shape]
    assert_views_of_whole(plus, minus, whole)
    straight = trajectory_march(lohi, 3, monkeypatch, stop, track_bytes=size * 9 * 8)
    assert straight[3].base is not None
    assert whole.tobytes() == straight[3].tobytes()
    for got, want in zip(stacked[1:3], straight[1:3]):
        assert (got.steps_done, got.stopped) == (want.steps_done, want.stopped)


# a trajectory of 100 rows of 1,000 entries: march_report reads it in
# blocks of CHUNK_POINTS // 1000 = 32 rows, so rows 96-99 are a block
REPORTED = {
    "random": ((), "uniform"),
    "zeros-and-a-late-negative-zero": (((97, -0.0),), "zeros"),
    "a-late-nan": (((97, np.nan),), "uniform"),
    "a-late-inf": (((98, np.inf),), "uniform"),
    "an-inf-then-a-late-nan": (((3, -np.inf), (99, np.nan)), "uniform"),
    "a-nan-then-a-late-inf": (((40, np.nan), (96, np.inf)), "zeros"),
}


@pytest.mark.parametrize("planted, base", REPORTED.values(), ids=REPORTED.keys())
def test_march_report_max_component_reads_every_block(planted, base):
    rng = np.random.default_rng(4)
    whole = rng.uniform(-1.0, 1.0, (100, 2, 500)) if base == "uniform" else np.zeros((100, 2, 500))
    for row, value in planted:
        whole[row, 1, 7] = value
    assert ode.CHUNK_POINTS // whole[0].size < 96
    march = ode.MarchResult(whole, None, 99, None, None)
    report = ode.march_report(TUBE, TUBE, march, march, whole)
    assert repr(report.max_component) == repr(float(np.max(np.abs(whole))))


# ---------------------------------- grouped march against the sequential one
#
# ``_replaced_march.march_tube`` marches plus to its end and then minus,
# one x per right-hand-side call.  The grouped march must give every
# direction the bytes, the stop reason and the stop node of that march,
# for the right-hand sides of stage 1 (recording midpoints), stage 2
# (keyed by half step) and the metric, whatever the node count.  Each
# rhs below is one body run on a single group (the sequential march) or
# on groups side by side (the grouped one), and can be told to stop.

H = 0.01


def node_tube(n, N, lo, hi):
    """A tube with N transverse nodes, axis 2 holding them all."""
    chart = ChartSpec(n=n, x1_range=(lo, hi), h1=H, transverse_res=3)
    axes = (np.linspace(0.0, 1.0, N),) + (np.array([0.5]),) * (n - 2)
    return TubeGrid(chart, build_grid(chart).x1_samples, axes)


def quarter(i, h):
    """The x of the middle stages of step i's h/2 step, as the march makes it."""
    return (0.0 + i * h) + 0.5 * (0.5 * h)


# the step of every node_tube on [-0.05, 0.05]
H_TUBE = node_tube(2, 1, -0.05, 0.05).spacing(1)


class Stops:
    """Stops planted in a right-hand side, each by x and node.

    ``blowup``: (x, node) - past x the node's slope jumps to 1e9, so the
    next stage state blows up there.  ``reject``: (x, node) - below x
    the rhs raises StateRejected naming that node's flat index.  A node
    of -1 is the last of its group.
    ``veto``: x - at exactly this x the rhs raises StateRejected.
    ``error``: (x above, x below) - an EvalError past either.
    """

    def __init__(self, blowup=None, reject=None, veto=None, error=(None, None)):
        self.blowup, self.reject, self.veto, self.error = blowup, reject, veto, error

    def check(self, xs, width):
        above, below = self.error
        for j, x in enumerate(xs):
            if above is not None and x > above:
                raise EvalError(f"plus source undefined at x1 = {x!r}")
            if below is not None and x < below:
                raise EvalError(f"minus source undefined at x1 = {x!r}")
            if self.reject is not None and x < self.reject[0]:
                raise StateRejected("degenerate", j * width + self.reject[1] % width)
            if x == self.veto:
                raise StateRejected("vetoed", j * width)

    def kick(self, xs, out):
        if self.blowup is not None:
            x_b, node = self.blowup
            width = out.shape[-1] // len(xs)
            for j, x in enumerate(xs):
                if x > x_b:
                    out[..., j * width + node % width] += 1e9
        return out


def system(name, n, N, rng):
    """(body, state0, planes, record_half, keyed) of one system on N nodes.

    ``body(xs, state, inputs)`` is the system's rhs on len(xs) groups of
    N nodes, ``inputs`` the parts of their planes side by side.  A keyed
    system reads its planes by ``half_key``.
    """
    k = n - 1
    node_values = rng.uniform(-1.0, 1.0, (k, k, N))

    def sources(xs):
        shape = {"stage1": (n, k), "stage2": (n, k, k), "metric": (k, k)}[name]
        base = np.resize(node_values, shape + (N,))
        if name == "metric":
            base = base + np.swapaxes(base, 0, 1)
        return 0.3 * np.cos(3.0 * xs)[(slice(None),) + (None,) * len(shape) + (None,)] * base

    def planes(xs, grid):
        return (sources(xs),)

    if name == "stage1":

        def body(xs, u, inputs):
            (a,) = inputs
            p = np.zeros((n, n, u.shape[-1]))
            p[:, 1:] = u
            return -np.einsum("qb...,aq...->ab...", u, p) + a

        return body, rng.uniform(-0.5, 0.5, (n, k, N)), planes, True, False
    if name == "stage2":
        # per half-step key, the stage-1 values stage 2 reads
        const = {}

        def at(key):
            if key not in const:
                r = np.random.default_rng(abs(key) * 2 + (key < 0))
                u = r.uniform(-0.5, 0.5, (n, k, N))
                const[key] = (
                    np.concatenate([np.zeros((n, 1, N)), u], axis=1),
                    r.uniform(-0.5, 0.5, (n, k, k, N)),
                    np.einsum("b...,ac...->abc...", u[0], u),
                    u,
                )
            return const[key]

        def stage2_planes(xs, grid):
            per_key = zip(*(at(half_key(x)) for x in xs))
            return (sources(xs),) + tuple(np.stack(c) for c in per_key)

        def body(xs, w, inputs):
            a2, p, dk, cross, u = inputs
            dw = -np.einsum("qbc...,aq...->abc...", w, p) + dk + a2
            dw = dw + cross
            dw = dw + np.einsum("qb...,aqc...->abc...", u[1:], w)
            return mirror_upper(dw, axis=1)

        w0 = mirror_upper(rng.uniform(-0.5, 0.5, (n, k, k, N)), axis=1)
        return body, w0, stage2_planes, False, True
    a = rng.uniform(-0.3, 0.3, (k, k, N))
    g0 = np.eye(k)[..., None] + 0.5 * (a + np.swapaxes(a, 0, 1))
    G0 = mirror_upper(rng.uniform(-0.5, 0.5, (k, k, N)))
    det0 = det_stack(g0)

    def body(xs, state, inputs):
        g, G = state[0], state[1]
        det = det_stack(g)
        floor = np.tile(1e-10 * np.abs(det0), len(xs))
        bad = (np.abs(det) < floor) | (np.sign(det) * np.tile(np.sign(det0), len(xs)) < 0)
        if np.any(bad):
            raise StateRejected("degenerate", int(np.argmax(bad)))
        (a,) = inputs
        return np.stack([G, _quadratic(inv_sym(g, det), G) + 2.0 * a])

    return body, np.stack([g0, G0]), planes, False, False


def both_marches(name, n, N, lo, hi, stops, seed):
    """(grouped, sequential) march_tube outcomes, each (plus, minus, rgrid, whole) or an error."""
    grid = node_tube(n, N, lo, hi)
    body, state0, planes, record_half, keyed = system(name, n, N, np.random.default_rng(seed))

    def grouped(xs, state, inputs):
        stops.check(xs, N)
        return stops.kick(xs, body(xs, state, inputs))

    def sequential(x, state, bank):
        stops.check((x,), N)
        return stops.kick((x,), body((x,), state, bank.plane(x)))

    outcomes = []
    for march, rhs, key in (
        (march_tube, grouped, half_keys if keyed else None),
        (replaced.march_tube, sequential, half_key if keyed else None),
    ):
        try:
            outcomes.append(march(rhs, grid, state0, planes, None, record_half, key))
        except EvalError as err:
            outcomes.append(err)
    return outcomes


def assert_same(got, want):
    *marches, rgrid, whole = got
    *ref, ref_grid, ref_whole = want
    for march, expected in zip(marches, ref):
        assert (march.stopped, march.stop_detail, march.steps_done) == (
            expected.stopped,
            expected.stop_detail,
            expected.steps_done,
        )
        assert march.states.shape == expected.states.shape
        assert march.states.tobytes() == expected.states.tobytes()
        if expected.half_states is None:
            assert march.half_states is None
        else:
            assert march.half_states.shape == expected.half_states.shape
            assert march.half_states.tobytes() == expected.half_states.tobytes()
    assert np.array_equal(rgrid.x1_samples, ref_grid.x1_samples)
    assert whole.tobytes() == ref_whole.tobytes()


SYSTEMS = ("stage1", "stage2", "metric")

# (x1 range, Stops) per case; steps are 0.01, and every stop lands on a
# chosen step and node (node -1 is the last)
CASES = {
    "complete": ((-0.05, 0.05), Stops()),
    "blowup-plus": ((-0.05, 0.05), Stops(blowup=(0.023, -1))),
    "reject-minus": ((-0.05, 0.05), Stops(reject=(-0.033, 0))),
    "both-same-step": ((-0.05, 0.05), Stops(blowup=(0.023, 0), reject=(-0.023, -1))),
    "both-different-steps": ((-0.05, 0.05), Stops(blowup=(0.013, -1), reject=(-0.033, 0))),
    "asymmetric": ((-0.02, 0.06), Stops()),
    "asymmetric-stopped": ((-0.06, 0.02), Stops(blowup=(0.003, 0))),
    "no-minus-steps": ((0.0, 0.05), Stops(blowup=(0.033, -1))),
    "no-minus-steps-complete": ((0.0, 0.05), Stops()),
    # only stage 1 asks for this x, the middle of step 2's h/2 step on
    # the minus side, so only its h/2 step there is vetoed
    "half-step-rejected": ((-0.05, 0.05), Stops(veto=quarter(2, -H_TUBE))),
}


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("lohi, stops", CASES.values(), ids=CASES.keys())
def test_grouped_march_matches_the_sequential_one(name, lohi, stops, banks):
    rng = np.random.default_rng([SYSTEMS.index(name), list(CASES.values()).index((lohi, stops))])
    for n in (2, 3, 4):
        for N in range(1, 26):
            got, want = both_marches(name, n, N, *lohi, stops, int(rng.integers(2**31)))
            assert_same(got, want)
            # every lockstep step reads views of its row, also after a
            # direction stops; only a stop's replays give column ranges
            bank = banks[-1]
            assert bank.views == bank.steps > 0
            assert (bank.replays > 0) == any(march.stopped for march in got[:2])


@pytest.mark.parametrize("name", SYSTEMS)
def test_planted_stops_land_where_chosen(name):
    # the cases above stop where they say, so they test the stops
    _, want = both_marches(name, 3, 5, -0.05, 0.05, CASES["both-different-steps"][1], 7)
    plus, minus = want[:2]
    assert (plus.stopped, plus.stop_detail, plus.steps_done) == ("blowup", 4, 1)
    assert (minus.stopped, minus.stop_detail, minus.steps_done) == ("degenerate", 0, 3)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 25])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_half_step_only_rejection_matches(n, N):
    # the x of the h/2 step's middle stages is asked by no h step, so
    # only the half step of step 2 on the minus side is vetoed
    stops = Stops(veto=quarter(2, -node_tube(n, N, -0.05, 0.05).spacing(1)))
    got, want = both_marches("stage1", n, N, -0.05, 0.05, stops, n * 100 + N)
    assert_same(got, want)
    plus, minus = want[:2]
    assert plus.stopped is None
    assert (minus.stopped, minus.stop_detail, minus.steps_done) == ("vetoed", 0, 2)


# ---------------------------------------------------- errors between directions

ERRORS = {
    # (error stops, blow-up stop, whose message)
    "plus-wins-over-an-earlier-minus": ((0.033, -0.013), None, "plus"),
    "minus-only": ((None, -0.023), None, "minus"),
    "plus-blows-up-then-minus-raises": ((None, -0.033), (0.013, 0), "minus"),
}


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("error, blowup, winner", ERRORS.values(), ids=ERRORS.keys())
def test_error_order_between_directions(name, error, blowup, winner):
    got, want = both_marches(name, 2, 4, -0.05, 0.05, Stops(blowup=blowup, error=error), 11)
    assert isinstance(got, EvalError) and isinstance(want, EvalError)
    assert str(got) == str(want)
    assert str(got).startswith(winner)


def test_error_order_among_three_groups():
    # group 1 raises at step 1 while group 0 marches on, so its error is
    # held; at step 3 group 0 blows up and group 2 raises.  Marched one
    # after another, group 1's error comes first.
    def rhs(x, state):
        label = state[1, 0]  # each group's label, never changed
        out = np.zeros_like(state)
        if label == 1.0 and x > 0.012:
            raise EvalError(f"group 1 undefined at x = {x!r}")
        if label == 2.0 and x > 0.032:
            raise EvalError(f"group 2 undefined at x = {x!r}")
        if label == 0.0 and x > 0.032:
            out[0] = 1e9
        return out

    def grouped(xs, state, _inputs):
        parts = np.split(state, len(xs), axis=-1)
        return np.concatenate([rhs(x, part) for x, part in zip(xs, parts)], axis=-1)

    state0 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    with pytest.raises(EvalError) as got:
        rk4_march(grouped, (0.01,) * 3, (10,) * 3, state0)
    with pytest.raises(EvalError) as want:
        for g in range(3):
            march = replaced.rk4_march(rhs, 0.0, 0.01, 10, state0[:, g : g + 1])
            if g == 0:
                assert (march.stopped, march.steps_done) == ("blowup", 3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("group 1")


def test_minus_error_after_a_plus_blowup_exits_two(tmp_path, capsys):
    # plus blows up at x1 = pi/2; the minus source is undefined below
    # x1 = -0.5, which the minus march reaches first, step for step
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[chart]\nn = 2\nx1_min = -1.0\nx1_max = 2.0\nh1 = 0.01\n"
        "transverse_res = 3\ntransverse_box = 0.0, 1.0\n"
        '[fields]\nA.2.1.2 = "-1"\nA.1.1.2 = "0*sqrt(x1 + 0.5)"\n'
    )
    code = main(["reconstruct-connection", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: A(1, 1, 2) at x1 = -0.5000000000000004: sqrt of a negative value" in err
