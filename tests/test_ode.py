import numpy as np
import pytest

from semigeo.ode import (
    GuardConfig,
    StateRejected,
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
        "lam, node_axis",
        [(np.array([1.0]), None), (-np.linspace(0.5, 1.5, 11), -1)],
        ids=["single", "lockstep-nodes"],
    )
    def test_half_states_are_fourth_order(self, lam, node_axis):
        errs = []
        for n in (10, 20):
            res = rk4_march(
                lambda x, s: lam * s,
                0.0,
                1.0 / n,
                n,
                np.ones(lam.size),
                record_half=True,
                node_axis=node_axis,
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
        res = rk4_march(
            lambda x, s: s**2, 0.0, 0.05, 400, u0, node_axis=-1
        )
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
        res = rk4_march(rhs, 0.0, 0.05, 400, u0, node_axis=-1)
        assert res.stopped == "blowup"
        assert res.stop_detail == 1

    def test_guard_reduces_over_tensor_axes(self):
        # a (k, k, N) stack like the metric march: the pole sits in one
        # off-diagonal slot of node 5, and the detail names that node
        u0 = np.full((2, 2, 7), 0.1)
        u0[0, 1, 5] = 0.9
        res = rk4_march(lambda x, s: s**2, 0.0, 0.05, 400, u0, node_axis=-1)
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

        res = rk4_march(rhs, 0.0, 0.5, 50, np.ones(9), node_axis=-1)
        assert res.stopped == "degenerate"
        assert res.stop_detail == 7
        assert res.states.shape == (res.steps_done + 1, 9)
        assert res.steps_done < 50
