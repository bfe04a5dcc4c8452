import numpy as np
import pytest

import _oracles as orc
from _replaced_march import march_tube
from semigeo.connection_recon import (
    ConnectionCurvatureSpec,
    HypersurfaceConnectionData,
    ReconstructionReport,
    Stage1Solution,
    _half_keys,
    reconstruct_connection,
    stage1_integrate,
    stage2_integrate,
)
from semigeo.errors import InvalidInit, InvalidSpec
from semigeo.grid_field import ChartSpec, TensorTube, build_grid, fd_transverse
from semigeo.linalg import mirror_upper
from semigeo.ode import GuardConfig, march_report, tube_dense


def sphere_inputs():
    init = HypersurfaceConnectionData(2)
    src = ConnectionCurvatureSpec(2, {(2, 1, 2): "-1", (1, 2, 2): "cos(x1)^2"})
    return init, src


def unit_interval_spec(h1=1e-2, res=5):
    return ChartSpec(n=2, x1_range=(0.0, 1.0), h1=h1, transverse_res=res)


class TestSphereScenario:
    def test_closed_form_components(self):
        init, src = sphere_inputs()
        conn, report = reconstruct_connection(init, src, unit_interval_spec())
        assert report.complete and report.status == "Complete"
        x = conn.grid.x1_samples[:, None] * np.ones((1,) + conn.grid.transverse_shape)
        assert np.max(np.abs(conn.component(2, 1, 2) + np.tan(x))) < 1e-8
        assert np.max(np.abs(conn.component(1, 2, 2) - np.sin(x) * np.cos(x))) < 1e-8
        assert np.max(np.abs(conn.component(1, 1, 2))) < 1e-12
        assert np.max(np.abs(conn.component(2, 2, 2))) < 1e-12

    def test_report_extents(self):
        init, src = sphere_inputs()
        _, report = reconstruct_connection(init, src, unit_interval_spec())
        assert report.delta_hat_plus == pytest.approx(1.0)
        assert report.delta_hat_minus == 0.0
        assert report.diagnostics == {}
        assert report.max_component == pytest.approx(np.tan(1.0), abs=1e-6)

    def test_truncated_variant_deviates(self):
        # dropping the quadratic cross terms biases the transverse slots
        init, src = sphere_inputs()
        spec = unit_interval_spec()
        good, _ = reconstruct_connection(init, src, spec)
        bad, _ = reconstruct_connection(init, src, spec, omit_quadratic_cross_term=True)
        i_half = int(round(0.5 / 1e-2))
        assert good.grid.x1_samples[i_half] == pytest.approx(0.5)
        dev = abs(bad.component(1, 2, 2)[i_half, 0] - np.sin(0.5) * np.cos(0.5))
        assert dev > 1e-2
        assert dev == pytest.approx(0.03963225379802743, abs=1e-6)
        ok = abs(good.component(1, 2, 2)[i_half, 0] - np.sin(0.5) * np.cos(0.5))
        assert ok < 1e-8

    def test_assembled_structure_exact(self):
        init, src = sphere_inputs()
        conn, _ = reconstruct_connection(init, src, unit_interval_spec())
        assert np.array_equal(conn.dense, np.swapaxes(conn.dense, 1, 2))
        assert np.all(conn.dense[:, 0, 0] == 0.0)


@pytest.fixture(scope="module")
def scenario():
    return orc.connection_scenario(42, 2, scale=0.25)


class TestSymbolicScenario:
    def errs(self, scenario, res):
        init_c, src_c, gamma, xs = scenario
        spec = ChartSpec(
            n=2, x1_range=(-0.4, 0.6), h1=1e-2, transverse_box=((0.0, 1.0),), transverse_res=res
        )
        conn, report = reconstruct_connection(
            HypersurfaceConnectionData(2, init_c), ConnectionCurvatureSpec(2, src_c), spec
        )
        assert report.complete
        worst = 0.0
        for h in range(2):
            for i in range(2):
                for j in range(2):
                    e = gamma[h][i][j]
                    ref = (
                        orc.sample(e, xs, conn.grid)
                        if e != 0
                        else np.zeros(conn.grid.shape)
                    )
                    got = conn.component(h + 1, i + 1, j + 1)
                    worst = max(worst, float(np.max(np.abs(got - ref))))
        return conn, worst

    def test_reproduces_symbols_every_slot(self, scenario):
        _, worst = self.errs(scenario, 9)
        assert worst < 5e-4

    def test_transverse_halving_quarters_error(self, scenario):
        _, coarse = self.errs(scenario, 9)
        _, fine = self.errs(scenario, 17)
        assert 3.0 < coarse / fine < 5.0


class TestStages:
    @staticmethod
    def fine_errors(spec):
        """Stage 1 on the sphere band: |Gamma^2_12 + tan x1| at samples and midpoints."""
        init, src = sphere_inputs()
        sol, report = stage1_integrate(init, src, spec)
        assert isinstance(sol, Stage1Solution)
        assert report.complete
        grid = sol.grid
        x1 = grid.x1_samples
        assert sol.fine.shape == (2 * len(x1) - 1, 2, 1, len(grid.transverse_mesh()[0]))
        gamma212 = sol.fine[:, 1, 0]
        whole = np.max(np.abs(gamma212[0::2] + np.tan(x1)[:, None]))
        half = np.max(np.abs(gamma212[1::2] + np.tan(0.5 * (x1[:-1] + x1[1:]))[:, None]))
        return grid, sol, whole, half

    def test_stage1_solution_and_zero_index(self):
        grid, sol, whole, half = self.fine_errors(unit_interval_spec())
        assert grid.x1_samples[grid.zero_index] == 0.0
        assert whole < 1e-8
        assert half < 1e-8

    def test_stage1_fine_ascends_through_the_minus_side(self):
        spec = ChartSpec(n=2, x1_range=(-0.5, 1.0), h1=1e-2, transverse_res=5)
        grid, sol, whole, half = self.fine_errors(spec)
        # x1 = 0 is entry 2 * zero_index, holding the initial data exactly
        assert grid.zero_index == 50
        assert np.all(sol.fine[2 * grid.zero_index] == 0.0)
        assert whole < 1e-8
        assert half < 1e-8

    def test_stage2_requires_stage1_tube(self):
        init, src = sphere_inputs()
        grid = build_grid(unit_interval_spec())
        alien = TensorTube("gamma1", grid, np.zeros((2, 1, 2) + grid.shape))
        with pytest.raises(InvalidSpec):
            stage2_integrate(alien, init, src)

    def test_stage2_symmetric_slots(self):
        init_c, src_c, _, _ = orc.connection_scenario(3, 3, scale=0.2)
        spec = ChartSpec(
            n=3,
            x1_range=(-0.1, 0.1),
            h1=0.02,
            transverse_box=((0.0, 1.0), (0.0, 1.0)),
            transverse_res=5,
        )
        init = HypersurfaceConnectionData(3, init_c)
        src = ConnectionCurvatureSpec(3, src_c)
        sol, _ = stage1_integrate(init, src, spec)
        tube2, report = stage2_integrate(sol, init, src)
        assert report.complete
        assert tube2.name == "gamma2" and tube2.first == (1, 2, 2)
        assert np.array_equal(tube2.component(1, 3, 2), tube2.component(1, 2, 3))


def reference_stages(init, sources, spec, guards2):
    """Both stages as they were before their products were hoisted.

    Each march runs one direction after the other
    (``_replaced_march.march_tube``).  Stage 1 pads its state with
    Gamma^h_11 = 0 by a concatenate in every rhs call; stage 2, marched
    with ``guards2``, evaluates its state-free cross term there too.
    Returns (stage-1 fine array, gamma2 dense array, stage-2 report).
    """
    grid = build_grid(spec)

    def rhs1(x, u, bank):
        p = np.concatenate([np.zeros_like(u[:, :1]), u], axis=1)
        (a1,) = bank.plane(x)
        return -np.einsum("qb...,aq...->ab...", u, p) + a1

    def planes1(xs, grid):
        return (sources.stage1_planes(xs, grid),)

    plus, minus, grid, whole = march_tube(
        rhs1, grid, init.stage1_state0(grid), planes1, record_half=True
    )
    fine = np.empty((2 * len(whole) - 1,) + whole.shape[1:])
    fine[0::2] = whole
    fine[1::2] = np.concatenate([minus.half_states[::-1], plus.half_states])

    n, h1, k0 = grid.n, grid.spacing(1), 2 * grid.zero_index
    p = np.concatenate([np.zeros_like(fine[:, :, :1]), fine], axis=2)
    planes = fine.reshape(fine.shape[:3] + grid.transverse_shape)
    dk = np.stack([fd_transverse(planes, axis, grid) for axis in range(2, n + 1)], axis=3)
    dk = dk.reshape(fine.shape[:3] + (n - 1, -1))

    def half_key(x):
        return int(_half_keys(np.array([x]), h1)[0])

    def rhs2(x, w, bank):
        (a2,) = bank.plane(x)
        i = half_key(x) + k0
        u = fine[i]
        dw = -np.einsum("qbc...,aq...->abc...", w, p[i]) + dk[i] + a2
        dw = dw + np.einsum("b...,ac...->abc...", u[0], u)
        dw = dw + np.einsum("qb...,aqc...->abc...", u[1:], w)
        return mirror_upper(dw, axis=1)

    plus, minus, rgrid, whole = march_tube(
        rhs2,
        grid,
        init.stage2_state0(grid),
        lambda xs, grid: (sources.stage2_planes(xs, grid),),
        guards2,
        key=half_key,
    )
    return fine, tube_dense(whole, rgrid), march_report(grid, rgrid, plus, minus, whole)


# stage 2 grows from 0.305 at x1 = 0 to 0.355 at x1 = 0.5, so a 0.33
# threshold stops its plus march at x1 = 0.3, as the minus march ends at
# -0.3, and a 0.345 threshold at x1 = 0.42, where plus marches alone; it
# stays under 0.305 on the minus side, so a 0.315 threshold stops plus at
# x1 = 0.14 and minus marches its last 8 steps alone, to -0.3
@pytest.mark.parametrize(
    "guards2",
    [
        None,
        GuardConfig(blowup_threshold=0.33),
        GuardConfig(blowup_threshold=0.345),
        GuardConfig(blowup_threshold=0.315),
    ],
    ids=["complete", "stopped", "stopped-alone", "minus-alone"],
)
def test_hoisted_stage_products_keep_the_bits(guards2):
    init_c, src_c, _, _ = orc.connection_scenario(3, 3, scale=0.2)
    init = HypersurfaceConnectionData(3, init_c)
    src = ConnectionCurvatureSpec(3, src_c)
    spec = ChartSpec(
        n=3, x1_range=(-0.3, 0.5), h1=0.02, transverse_box=((0, 1), (0, 1)), transverse_res=5
    )
    fine, gamma2, report2 = reference_stages(init, src, spec, guards2)
    sol, _ = stage1_integrate(init, src, spec)
    tube2, report = stage2_integrate(sol, init, src, guards=guards2)
    assert sol.fine.tobytes() == fine.tobytes()
    assert tube2.dense.tobytes() == gamma2.tobytes()
    assert report == report2
    assert report.complete == (guards2 is None)
    # the cross term is not negligible here
    assert np.max(np.abs(fine[:, 0])) > 0.01


def test_half_keys_name_an_x_off_the_half_step_lattice():
    assert _half_keys(np.array([-0.05, 0.0, 0.15, 0.2]), 0.1).tolist() == [-1, 0, 3, 4]
    with pytest.raises(InvalidSpec) as err:
        _half_keys(np.array([0.05, 0.125, 0.1, 0.13]), 0.1)
    assert str(err.value) == "x1 = 0.125 is not on the half-step lattice of h1 = 0.1"


class TestStops:
    def riccati(self, h1=1e-2, res=5, x1_hi=2.0):
        init = HypersurfaceConnectionData(2)
        src = ConnectionCurvatureSpec(2, {(2, 1, 2): "-1"})
        spec = ChartSpec(n=2, x1_range=(-0.1, x1_hi), h1=h1, transverse_res=res)
        return reconstruct_connection(init, src, spec)

    def test_riccati_pole_stops_plus_march(self):
        conn, report = self.riccati()
        assert report.status == "StoppedBlowup"
        assert not report.complete
        assert np.pi / 2 - 0.1 < report.delta_hat_plus < np.pi / 2
        assert report.delta_hat_minus == pytest.approx(-0.1)
        assert "stop_plus" in report.diagnostics
        assert "stop_minus" not in report.diagnostics
        assert "blowup" in report.diagnostics["stop_plus"]

    def test_stop_location_tightens_with_step(self):
        _, coarse = self.riccati(h1=1e-2)
        _, fine = self.riccati(h1=1e-3)
        assert np.pi / 2 - 0.01 < fine.delta_hat_plus < np.pi / 2
        assert fine.delta_hat_plus >= coarse.delta_hat_plus

    def test_stop_independent_of_resolution(self):
        _, a = self.riccati(res=5)
        _, b = self.riccati(res=9)
        assert a.delta_hat_plus == b.delta_hat_plus
        assert a.status == b.status

    def test_partial_field_still_returned(self):
        conn, report = self.riccati()
        assert conn.grid.x1_samples[-1] == pytest.approx(report.delta_hat_plus)
        assert conn.grid.x1_samples[0] == pytest.approx(-0.1)
        # away from the pole the partial trajectory is accurate; right at it
        # the comparison is ill-conditioned
        keep = conn.grid.x1_samples < 1.2
        x = conn.grid.x1_samples[keep, None] * np.ones((1, 5))
        assert np.max(np.abs(conn.component(2, 1, 2)[keep] + np.tan(x))) < 1e-5


class TestValidation:
    def test_axial_slot_must_vanish(self):
        init = HypersurfaceConnectionData(2, {(1, 1, 1): "1"})
        _, src = sphere_inputs()
        with pytest.raises(InvalidInit):
            reconstruct_connection(init, src, unit_interval_spec())

    def test_axial_slot_zero_is_allowed(self):
        init = HypersurfaceConnectionData(2, {(1, 1, 1): "0"})
        _, src = sphere_inputs()
        _, report = reconstruct_connection(init, src, unit_interval_spec(res=3))
        assert report.complete

    def test_symmetric_orderings_conflict(self):
        with pytest.raises(InvalidInit):
            HypersurfaceConnectionData(2, {(1, 1, 2): "1", (1, 2, 1): "2"})

    def test_init_index_range(self):
        with pytest.raises(InvalidInit):
            HypersurfaceConnectionData(2, {(3, 1, 2): "1"})
        with pytest.raises(InvalidInit):
            HypersurfaceConnectionData(1)

    def test_init_may_not_depend_on_x1(self):
        with pytest.raises(InvalidInit):
            HypersurfaceConnectionData(2, {(1, 1, 2): "sin(x1)"})

    def test_sampled_init_accepted(self):
        init = HypersurfaceConnectionData(2, {(2, 1, 2): "0"})
        _, src = sphere_inputs()
        conn, report = reconstruct_connection(init, src, unit_interval_spec(res=5))
        assert report.complete
        x = conn.grid.x1_samples[:, None] * np.ones((1, 5))
        assert np.max(np.abs(conn.component(2, 1, 2) + np.tan(x))) < 1e-8

    def test_sources_reject_axial_k(self):
        with pytest.raises(InvalidSpec):
            ConnectionCurvatureSpec(2, {(2, 1, 1): "-1"})

    def test_sources_reject_duplicates_and_bad_indices(self):
        with pytest.raises(InvalidSpec):
            ConnectionCurvatureSpec(2, {(3, 1, 2): "1"})
        spec = ConnectionCurvatureSpec(2, {(2, 1, 2): "-1"})
        assert spec.n == 2

    def test_report_dataclass_shape(self):
        init, src = sphere_inputs()
        _, report = reconstruct_connection(init, src, unit_interval_spec(res=3))
        assert isinstance(report, ReconstructionReport)
        assert set(report.diagnostics) == set()
        assert report.max_component > 1.0
