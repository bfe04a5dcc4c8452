import numpy as np
import pytest

from semigeo.errors import EvalError
from semigeo.grid_field import ChartSpec, build_grid
from semigeo.ode import (
    GuardConfig,
    StateRejected,
    march_tube,
    rk4_march,
    rk4_step,
)


def march_exp(h, n_steps):
    return rk4_march(lambda x, s: s, 0.0, h, n_steps, np.array([1.0]))


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
        res = rk4_march(lambda x, s: np.array([4.0 * x**3]), 0.0, 0.125, 8, np.array([0.0]))
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
            res = rk4_march(
                lambda x, s: lam * s,
                0.0,
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
        res = rk4_march(lambda x, s: s, 0.0, -0.1, 10, np.array([1.0]))
        assert res.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


class TestGuards:
    def test_threshold_stop(self):
        guards = GuardConfig(blowup_threshold=100.0)
        res = rk4_march(lambda x, s: s, 0.0, 0.5, 100, np.array([1.0]), guards=guards)
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
        res = rk4_march(lambda x, s: s**2, 0.0, 0.05, 100, np.array([1.0]), guards=guards)
        assert res.stopped == "blowup"
        assert np.max(np.abs(res.states)) < 1e4
        assert res.steps_done * 0.05 <= 1.1

    def test_fast_linear_growth_not_a_pole(self):
        # huge constant slope trips the growth test but not the slope ratio
        res = rk4_march(lambda x, s: np.array([1000.0]), 0.0, 1.0, 10, np.array([0.0]))
        assert res.stopped is None
        assert res.steps_done == 10
        assert res.states[-1, 0] == pytest.approx(10000.0)

    def test_nonfinite_stage_is_caught_silently(self):
        def rhs(x, s):
            return np.where(x > 0.3, np.inf, 1.0) * np.ones_like(s)

        res = rk4_march(rhs, 0.0, 0.2, 5, np.array([0.0]))
        assert res.stopped == "blowup"
        assert np.all(np.isfinite(res.states))

    def test_state_rejected_stops_with_reason_and_detail(self):
        def rhs(x, s):
            if np.any(s > 5.0):
                raise StateRejected("degenerate", 7)
            return s

        res = rk4_march(rhs, 0.0, 0.5, 20, np.array([1.0]))
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
        res = rk4_march(rhs, 0.0, 1.0, 10, np.array([4.0]), guards=guards)
        assert res.stopped == "custom"

    def test_single_step_reports_stage_blowup(self):
        guards = GuardConfig(blowup_threshold=10.0)
        new, reason, detail = rk4_step(
            lambda x, s: np.array([100.0]), 0.0, 1.0, np.array([0.0]), guards
        )
        assert new is None
        assert reason == "blowup"

    def test_single_step_success_returns_state(self):
        new, reason, detail = rk4_step(
            lambda x, s: s, 0.0, 0.1, np.array([1.0]), GuardConfig()
        )
        assert reason is None and detail is None
        assert new[0] == pytest.approx(np.exp(0.1), abs=1e-7)


class TestNodeAxis:
    def test_per_node_guard_reports_offending_node(self):
        # node 3 has the fastest pole; detail is its flat index
        u0 = np.full(8, 0.1)
        u0[3] = 0.9
        res = rk4_march(lambda x, s: s**2, 0.0, 0.05, 400, u0)
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
        res = rk4_march(rhs, 0.0, 0.05, 400, u0)
        assert res.stopped == "blowup"
        assert res.stop_detail == 1

    def test_guard_reduces_over_tensor_axes(self):
        # a (k, k, N) stack like the metric march: the pole sits in one
        # off-diagonal slot of node 5, and the detail names that node
        u0 = np.full((2, 2, 7), 0.1)
        u0[0, 1, 5] = 0.9
        res = rk4_march(lambda x, s: s**2, 0.0, 0.05, 400, u0)
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

        res = rk4_march(rhs, 0.0, 0.5, 50, np.ones(9))
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
    new, reason, detail = rk4_step(lambda x, s: np.zeros_like(s), 0.0, 0.1, state, GuardConfig())
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
            mid, stopped, detail = rk4_step(rhs, x, 0.5 * h, state, guards)
            if mid is None:
                return np.array(states), np.array(halves), stopped or "blowup", detail
            new, stopped, detail = rk4_step(rhs, x, h, state, guards)
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
    got = rk4_march(rhs, 0.0, h, n_steps, state0, record_half=True)
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
    """Sources varying with x1 and node, shaped (len(xs), 1, N)."""
    return np.cos(xs)[:, None, None] + grid.transverse_mesh()[0][None, None, :]


def test_march_tube_veto_outranks_a_failing_source():
    # the sources fail past |x1| = 0.04, where the rhs vetoes before it
    # reads them, so the march stops on its own reason, not an error
    def planes(xs, grid):
        if np.any(np.abs(xs) > 0.04):
            raise EvalError("source undefined")
        return tube_planes(xs, grid)

    def rhs(x, state, bank):
        if abs(x) > 0.04:
            raise StateRejected("degenerate", 2)
        return bank.plane(x)

    plus, minus, rgrid, _ = march_tube(rhs, TUBE, np.zeros((1, 3)), planes)
    assert plus.stopped == minus.stopped == "degenerate"
    assert plus.stop_detail == minus.stop_detail == 2
    assert (plus.steps_done, minus.steps_done) == (3, 3)
    assert rgrid.x1_samples[0] == -0.03 and rgrid.x1_samples[-1] == 0.03


def half_key(x):
    return int(round(x / 0.005))


def keyed_planes(xs, grid):
    """Sources that depend on x1 only through ``half_key``."""
    keys = np.array([half_key(x) for x in xs], dtype=np.float64)
    return tube_planes(0.005 * keys, grid)


MARCHES = {
    "plain": (False, None, tube_planes),
    "record-half": (True, None, tube_planes),
    "keyed": (False, half_key, keyed_planes),
}


@pytest.mark.parametrize("record_half, key, planes", MARCHES.values(), ids=MARCHES.keys())
def test_march_tube_reads_each_plane_at_its_x(record_half, key, planes):
    read = []
    banks = set()

    def rhs(x, state, bank):
        banks.add(bank)
        plane = bank.plane(x)
        read.append((x, plane))
        return plane

    plus, minus, _, whole = march_tube(
        rhs, TUBE, np.zeros((1, 3)), planes, record_half=record_half, key=key
    )
    assert plus.stopped is None and minus.stopped is None
    assert whole.shape == (TUBE.shape[0], 1, 3)
    assert (plus.half_states is not None) == record_half
    # one bank serves both directions, and it planned every x asked
    (bank,) = banks
    assert bank.misses == 0
    assert len(read) == (7 if record_half else 4) * (TUBE.shape[0] - 1)
    for x, plane in read:
        assert np.array_equal(plane, planes(np.array([x]), TUBE)[0])
