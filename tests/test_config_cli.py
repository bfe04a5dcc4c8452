"""Configuration parsing and the command-line front door."""

import csv
import math
import os
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from semigeo import cli
from semigeo.cli import main, read_report, roundtrip_gate
from semigeo.config import (
    MODES,
    Tolerances,
    defaulted_components,
    load_config,
    validate_for_mode,
)
from semigeo.curvature import DEGENERACY_TOL, MetricField, christoffel_from_metric
from semigeo.errors import ConfigError, DegenerateMetric, InvalidSpec
from semigeo.expr import MAX_DEPTH
from semigeo.grid_field import ChartSpec, build_grid
from semigeo.ode import GuardConfig


def load_text(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(path)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# four lines of chart, [fields] on line 5, assignments from line 6
BASE2 = "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n[fields]\n"
BASE3 = "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\n[fields]\n"

FLAT_FORWARD = """\
[run]
mode = forward

[chart]
n = 2
x1_min = -0.5
x1_max = 0.5
h1 = 0.01
transverse_res = 5

[fields]
g.1.1 = "1"
g.1.2 = "0"
g.2.2 = "1"
"""

SPHERE_ROUNDTRIP = """\
[run]
mode = roundtrip-metric

[chart]
n = 2
x1_max = 1.0
h1 = 0.001
e = 1
transverse_res = 5

[fields]
gtilde.2.2 = "1"
Gtilde.2.2 = "0"
a.2.2 = "-cos(x1)^2"
"""

CONNECTION_ROUNDTRIP = """\
[run]
mode = roundtrip-connection

[chart]
n = 2
x1_max = 1.0
h1 = 0.001
transverse_res = 9

[fields]
A.2.1.2 = "-1"
A.1.2.2 = "cos(x1)^2"
"""


class TestTokenizer:
    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "# leading comment\n\n[chart]  # trailing\nn = 2   # two\n"
            "x1_max = 1.0\nh1 = 0.5\n",
        )
        assert cfg.chart.n == 2

    def test_hash_inside_quotes_survives(self, tmp_path):
        # the comment stripper must not eat into the quoted expression
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, BASE2 + 'a.2.2 = "1 # 2"\n')
        assert err.value.line == 6
        assert "a.2.2" in str(err.value)

    def test_unbalanced_quotes(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, BASE2 + 'g.1.1 = "1\n')
        assert err.value.line == 6
        assert "unbalanced quotes" in str(err.value)

    def test_malformed_section_header(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[chart\nn = 2\n")
        assert err.value.line == 1
        assert "malformed section header" in str(err.value)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[grid]\nn = 2\n")
        assert err.value.line == 1
        assert "unknown section" in str(err.value)
        assert "[chart]" in str(err.value)

    def test_assignment_before_section(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "n = 2\n[chart]\n")
        assert err.value.line == 1
        assert "before any section" in str(err.value)

    def test_missing_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[chart]\n= 2\n")
        assert err.value.line == 2
        assert "missing key" in str(err.value)

    def test_missing_value(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[chart]\nn =\n")
        assert err.value.line == 2
        assert "missing value" in str(err.value)

    def test_not_an_assignment(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[chart]\njust words\n")
        assert err.value.line == 2
        assert "expected 'key = value'" in str(err.value)

    def test_line_number_in_message_text(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2:"):
            load_text(tmp_path, "[chart]\nn = two\n")


class TestChartSection:
    def test_defaults(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.25\n")
        assert cfg.chart.x1_range == (0.0, 1.0)
        assert cfg.chart.transverse_res == (33,)
        assert cfg.chart.e == 1
        assert cfg.e_given is False
        assert cfg.mode is None
        assert cfg.out is None
        assert cfg.tolerances == Tolerances()
        assert cfg.fields == {}

    @pytest.mark.parametrize("missing", ["n", "x1_max", "h1"])
    def test_required_keys(self, tmp_path, missing):
        lines = {"n": "n = 2", "x1_max": "x1_max = 1.0", "h1": "h1 = 0.5"}
        del lines[missing]
        with pytest.raises(ConfigError, match="missing required key"):
            load_text(tmp_path, "[chart]\n" + "\n".join(lines.values()) + "\n")

    def test_n_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="must be >= 2"):
            load_text(tmp_path, "[chart]\nn = 1\nx1_max = 1.0\nh1 = 0.5\n")

    def test_bad_int(self, tmp_path):
        with pytest.raises(ConfigError, match="expected an integer"):
            load_text(tmp_path, "[chart]\nn = two\nx1_max = 1.0\nh1 = 0.5\n")

    def test_bad_float(self, tmp_path):
        with pytest.raises(ConfigError, match="expected a number"):
            load_text(tmp_path, "[chart]\nn = 2\nx1_max = big\nh1 = 0.5\n")

    def test_bad_sign(self, tmp_path):
        with pytest.raises(ConfigError, match=r"expected \+1 or -1"):
            load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\ne = 0\n")

    def test_explicit_sign_recorded(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\ne = -1\n")
        assert cfg.chart.e == -1
        assert cfg.e_given is True

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, "[chart]\nn = 2\nn = 3\nx1_max = 1.0\nh1 = 0.5\n")
        assert err.value.line == 3
        assert "given twice" in str(err.value)

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown \\[chart\\] key"):
            load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\nvolume = 3\n")

    def test_negative_x1_min(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_min = -0.5\nx1_max = 1.0\nh1 = 0.5\n")
        assert cfg.chart.x1_range == (-0.5, 1.0)

    def test_invalid_range_wrapped(self, tmp_path):
        # the chart validator's complaint is re-raised as a ConfigError
        with pytest.raises(ConfigError, match=r"\[chart\].*contain 0"):
            load_text(tmp_path, "[chart]\nn = 2\nx1_min = 0.5\nx1_max = 1.0\nh1 = 0.1\n")

    def test_global_box(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\ntransverse_box = -1, 2\n",
        )
        assert cfg.chart.transverse_box == ((-1.0, 2.0), (-1.0, 2.0))

    def test_bad_interval(self, tmp_path):
        with pytest.raises(ConfigError, match="expected 'low, high'"):
            load_text(
                tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\ntransverse_box = 1\n"
            )

    def test_per_axis_res(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\n"
            "transverse_res.2 = 9\ntransverse_res.3 = 5\n",
        )
        assert cfg.chart.transverse_res == (9, 5)

    def test_per_axis_res_partial_fill(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\ntransverse_res.3 = 5\n",
        )
        assert cfg.chart.transverse_res == (33, 5)

    def test_per_axis_box(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\n"
            "transverse_box.2 = 0, 2\ntransverse_box.3 = -1, 1\n",
        )
        assert cfg.chart.transverse_box == ((0.0, 2.0), (-1.0, 1.0))

    def test_global_and_per_axis_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            load_text(
                tmp_path,
                "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\n"
                "transverse_res = 9\ntransverse_res.2 = 5\n",
            )

    @pytest.mark.parametrize("axis", [1, 4])
    def test_per_axis_out_of_range(self, tmp_path, axis):
        with pytest.raises(ConfigError, match="transverse axis must be in 2..3"):
            load_text(
                tmp_path,
                f"[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\ntransverse_res.{axis} = 5\n",
            )


class TestFieldsSection:
    def test_unknown_family(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, BASE2 + 'b.2.2 = "1"\n')
        assert err.value.line == 6
        assert "unknown field family" in str(err.value)

    def test_wrong_arity(self, tmp_path):
        with pytest.raises(ConfigError, match="takes 2 indices"):
            load_text(tmp_path, BASE2 + 'g.1.1.1 = "1"\n')

    def test_index_floor_metric_data(self, tmp_path):
        # hypersurface families never carry an axial index
        with pytest.raises(ConfigError, match="index 1 outside 2..2"):
            load_text(tmp_path, BASE2 + 'gtilde.1.2 = "1"\n')

    def test_index_above_dimension(self, tmp_path):
        with pytest.raises(ConfigError, match="index 3 outside 1..2"):
            load_text(tmp_path, BASE2 + 'g.1.3 = "1"\n')

    def test_axis_source_last_index_message(self, tmp_path):
        with pytest.raises(ConfigError, match="may not be 1"):
            load_text(tmp_path, BASE2 + 'A.2.1.1 = "1"\n')

    def test_symmetric_duplicate_cites_first_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, BASE3 + 'a.2.3 = "1"\na.3.2 = "2"\n')
        assert err.value.line == 7
        assert "already set on line 6" in str(err.value)
        assert "symmetric orderings" in str(err.value)

    def test_plain_duplicate(self, tmp_path):
        with pytest.raises(ConfigError, match="already set on line 6"):
            load_text(tmp_path, BASE2 + 'g.1.1 = "1"\ng.1.1 = "2"\n')

    def test_asymmetric_family_allows_both_orders(self, tmp_path):
        cfg = load_text(tmp_path, BASE3 + 'A.2.3.2 = "1"\nA.3.2.2 = "2"\n')
        assert len(cfg.fields["A"]) == 2

    def test_unquoted_expression(self, tmp_path):
        with pytest.raises(ConfigError, match="double-quoted"):
            load_text(tmp_path, BASE2 + "g.1.1 = 1\n")

    def test_expression_error_wrapped(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, BASE2 + 'g.1.1 = "cos("\n')
        assert err.value.line == 6
        assert str(err.value).startswith("line 6: g.1.1:")

    def test_coordinate_beyond_dimension(self, tmp_path):
        with pytest.raises(ConfigError, match="g.2.2"):
            load_text(tmp_path, BASE2 + 'g.2.2 = "x3"\n')

    def test_blanks_inside_a_dotted_index(self, tmp_path):
        # the ASCII integer grammar skips surrounding blanks, as int() did
        cfg = load_text(tmp_path, BASE2 + 'g. 2 .+2 = "1"\n')
        assert set(cfg.fields["g"]) == {(2, 2)}

    def test_symmetric_storage_is_canonical(self, tmp_path):
        cfg = load_text(tmp_path, BASE3 + 'gamma.1.3.2 = "x1"\n')
        assert (1, 2, 3) in cfg.fields["gamma"]


class TestRunAndTolerances:
    def test_run_keys(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[run]\nmode = forward\nout = results\n"
            "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n",
        )
        assert cfg.mode == "forward"
        assert cfg.out == "results"

    def test_unknown_mode_value(self, tmp_path):
        with pytest.raises(ConfigError, match="mode: expected one of"):
            load_text(
                tmp_path,
                "[run]\nmode = sideways\n[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n",
            )

    def test_unknown_run_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown \\[run\\] key"):
            load_text(
                tmp_path,
                "[run]\nworkers = 4\n[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n",
            )

    def test_duplicate_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="given twice"):
            load_text(
                tmp_path,
                "[run]\nmode = forward\nmode = forward\n"
                "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n",
            )

    def test_tolerance_override(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n"
            "[tolerances]\nroundtrip_tol = 1e-4\nblowup_threshold = 1e8\n",
        )
        assert cfg.tolerances.roundtrip_tol == 1e-4
        assert cfg.tolerances.blowup_threshold == 1e8
        assert cfg.tolerances.degeneracy_tol == 1e-10

    def test_defaults_are_the_library_defaults(self):
        assert Tolerances().guards() == GuardConfig()
        assert Tolerances().degeneracy_tol == DEGENERACY_TOL

    def test_unknown_tolerance_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown \\[tolerances\\] key"):
            load_text(
                tmp_path,
                "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n[tolerances]\nslack = 2\n",
            )

    def test_duplicate_tolerance(self, tmp_path):
        with pytest.raises(ConfigError, match="given twice"):
            load_text(
                tmp_path,
                "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n"
                "[tolerances]\nroundtrip_tol = 1e-4\nroundtrip_tol = 1e-5\n",
            )


class TestModeValidation:
    def test_no_mode_anywhere(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n")
        with pytest.raises(ConfigError, match="no mode"):
            validate_for_mode(cfg, None)

    def test_config_mode_used_when_cli_silent(self, tmp_path):
        cfg = load_text(tmp_path, FLAT_FORWARD)
        assert validate_for_mode(cfg, None) == "forward"

    def test_mode_mismatch(self, tmp_path):
        cfg = load_text(tmp_path, FLAT_FORWARD)
        with pytest.raises(ConfigError, match="config says mode = forward"):
            validate_for_mode(cfg, "check-chart")

    def test_unknown_mode(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n")
        with pytest.raises(ConfigError, match="unknown mode"):
            validate_for_mode(cfg, "sideways")

    def test_family_not_used_by_mode(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'a.2.2 = "1"\n')
        with pytest.raises(ConfigError, match="not used by mode forward"):
            validate_for_mode(cfg, "forward")

    @pytest.mark.parametrize("mode", ["reconstruct-metric", "roundtrip-metric"])
    def test_metric_modes_need_explicit_sign(self, tmp_path, mode):
        cfg = load_text(tmp_path, BASE2 + 'gtilde.2.2 = "1"\na.2.2 = "0"\n')
        with pytest.raises(ConfigError, match="needs an explicit e"):
            validate_for_mode(cfg, mode)

    def test_connection_modes_do_not_need_sign(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'A.2.1.2 = "-1"\n')
        assert validate_for_mode(cfg, "reconstruct-connection") == "reconstruct-connection"

    def test_forward_needs_fields(self, tmp_path):
        cfg = load_text(tmp_path, "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n")
        with pytest.raises(ConfigError, match="needs a g or gamma"):
            validate_for_mode(cfg, "forward")

    def test_forward_rejects_both_inputs(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'g.1.1 = "1"\ngamma.1.2.2 = "0"\n')
        with pytest.raises(ConfigError, match="either g or gamma, not both"):
            validate_for_mode(cfg, "forward")

    def test_check_chart_allows_both(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'g.1.1 = "1"\ngamma.1.2.2 = "0"\n')
        assert validate_for_mode(cfg, "check-chart") == "check-chart"


class TestDefaultedComponents:
    def test_metric_forward_missing_slot(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'g.1.1 = "1"\ng.2.2 = "1"\n')
        assert defaulted_components(cfg, "forward") == ["g.1.2"]

    def test_connection_forward_skips_forced_slots(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'gamma.2.1.2 = "1"\n')
        # (h,1,1) slots are forced to zero, so they are not reported
        assert defaulted_components(cfg, "forward") == [
            "gamma.1.1.2",
            "gamma.1.2.2",
            "gamma.2.2.2",
        ]

    def test_alternative_family_not_reported(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'g.1.1 = "1"\ng.1.2 = "0"\ng.2.2 = "1"\n')
        assert defaulted_components(cfg, "forward") == []

    def test_metric_reconstruction(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'gtilde.2.2 = "1"\n')
        assert defaulted_components(cfg, "reconstruct-metric") == ["Gtilde.2.2", "a.2.2"]

    def test_connection_reconstruction(self, tmp_path):
        cfg = load_text(tmp_path, BASE2 + 'A.2.1.2 = "-1"\n')
        assert defaulted_components(cfg, "reconstruct-connection") == [
            "A.1.1.2",
            "A.1.2.2",
            "A.2.2.2",
            "gammatilde.1.1.2",
            "gammatilde.1.2.2",
            "gammatilde.2.1.2",
            "gammatilde.2.2.2",
        ]


class TestGate:
    def test_missing_residuals_fall_back_to_tol(self):
        assert roundtrip_gate(None, None, 1e-6) == (0.0, 1e-6)
        assert roundtrip_gate(1e-3, None, 1e-6) == (0.0, 1e-6)
        assert roundtrip_gate(None, 1e-3, 1e-6) == (0.0, 1e-6)

    def test_richardson_estimate(self):
        estimate, gate = roundtrip_gate(1e-3, 4e-3, 1e-6)
        assert estimate == pytest.approx(1e-3)
        assert gate == pytest.approx(1e-2)

    def test_non_converging_residual_keeps_tol(self):
        # residual that grows under coarsening gives no headroom
        estimate, gate = roundtrip_gate(4e-3, 1e-3, 1e-6)
        assert estimate == 0.0
        assert gate == 1e-6


def run_cli(tmp_path, text, mode, out_name="out", extra=()):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / out_name
    code = main([mode, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def dump_values(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "value"
    return rows[0], rows[1:]


class TestForwardRuns:
    def test_flat_metric_everything_zero(self, tmp_path):
        code, out = run_cli(tmp_path, FLAT_FORWARD, "forward")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["status"] == "Complete"
        assert report["exit_code"] == "0"
        assert float(report["max_component"]) == 0.0
        assert float(report["identity_residual"]) == 0.0
        for name in ("christoffel.csv", "curvature13.csv", "curvature04.csv"):
            header, rows = dump_values(out / name)
            assert rows, name
            assert all(float(r[-1]) == 0.0 for r in rows), name

    def test_connection_input_writes_curvature_only(self, tmp_path):
        text = FLAT_FORWARD.replace(
            'g.1.1 = "1"\ng.1.2 = "0"\ng.2.2 = "1"', 'gamma.2.1.2 = "0.25"'
        )
        code, out = run_cli(tmp_path, text, "forward")
        assert code == 0
        assert (out / "curvature13.csv").exists()
        assert not (out / "christoffel.csv").exists()
        assert not (out / "curvature04.csv").exists()
        report = read_report(out / "report.txt")
        assert "identity_residual" not in report
        # constant coefficient: the mixed curvature block is -0.25**2
        assert float(report["max_component"]) == pytest.approx(0.0625, rel=1e-12)

    def test_skew_chart_skips_axial_block(self, tmp_path):
        # a metric that is not in tube-adapted form still gets christoffel
        # and curvature dumps, but no axial block and no identity line
        text = FLAT_FORWARD.replace('g.1.2 = "0"', 'g.1.2 = "0.3*x1"')
        code, out = run_cli(tmp_path, text, "forward")
        assert code == 0
        assert (out / "christoffel.csv").exists()
        assert (out / "curvature13.csv").exists()
        assert not (out / "curvature04.csv").exists()
        assert "identity_residual" not in read_report(out / "report.txt")


class TestRoundtripRuns:
    def test_sphere_metric_roundtrip(self, tmp_path):
        code, out = run_cli(tmp_path, SPHERE_ROUNDTRIP, "roundtrip-metric")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["status"] == "Complete"
        assert float(report["delta_hat_plus"]) == 1.0
        assert float(report["delta_hat_minus"]) == 0.0
        assert float(report["max_error"]) == pytest.approx(3.6667e-06, rel=1e-3)
        assert float(report["error_estimate"]) == pytest.approx(3.6666e-06, rel=1e-3)
        assert float(report["gate"]) == pytest.approx(3.6666e-05, rel=1e-3)
        assert float(report["max_error"]) <= float(report["gate"])
        assert (out / "metric.csv").exists()
        assert (out / "curvature_oracle.csv").exists()

    def test_connection_roundtrip(self, tmp_path):
        code, out = run_cli(tmp_path, CONNECTION_ROUNDTRIP, "roundtrip-connection")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["status"] == "Complete"
        assert float(report["max_component"]) == pytest.approx(math.tan(1.0), abs=1e-6)
        assert float(report["max_error"]) <= float(report["gate"])
        assert (out / "connection.csv").exists()
        assert (out / "curvature_oracle.csv").exists()

    def test_incompatible_sources_fail_gate(self, tmp_path):
        # a source field oscillating far below lattice resolution is not
        # the curvature of anything the lattice can represent: the
        # residual does not shrink under refinement and the gate flags it
        text = SPHERE_ROUNDTRIP.replace(
            'a.2.2 = "-cos(x1)^2"', 'a.2.2 = "0.2 * cos(4100 * x1)"'
        ).replace("x1_max = 1.0", "x1_max = 0.5").replace(
            "transverse_res = 5", "transverse_res = 9"
        )
        code, out = run_cli(tmp_path, text, "roundtrip-metric")
        assert code == 4
        report = read_report(out / "report.txt")
        assert report["status"] == "Complete"
        assert report["exit_code"] == "4"
        assert float(report["max_error"]) > float(report["gate"])
        assert float(report["max_error"]) > 0.1

    def test_no_coarse_chart_falls_back_to_tol(self, tmp_path):
        # transverse_res = 4 cannot be halved, so no Richardson estimate:
        # the gate is the bare tolerance and the honest discretization
        # residual of the fine run sits just above it
        text = SPHERE_ROUNDTRIP.replace("transverse_res = 5", "transverse_res = 4")
        code, out = run_cli(tmp_path, text, "roundtrip-metric")
        assert code == 4
        report = read_report(out / "report.txt")
        assert float(report["error_estimate"]) == 0.0
        assert float(report["gate"]) == 1e-6
        assert float(report["max_error"]) == pytest.approx(3.6667e-06, rel=1e-3)

    def test_loosened_tolerance_passes_same_run(self, tmp_path):
        text = SPHERE_ROUNDTRIP.replace(
            "transverse_res = 5", "transverse_res = 4"
        ) + "\n[tolerances]\nroundtrip_tol = 1e-5\n"
        code, out = run_cli(tmp_path, text, "roundtrip-metric")
        assert code == 0


# A 2-D connection whose stage-1 solution is tan(sqrt(a) x1): a pole at
# pi / (2 sqrt(a)), between the second and third samples for a = 3e3 and
# between the first and second for a = 1e4 (h1 = 0.01).
POLE_ROUNDTRIP = (
    CONNECTION_ROUNDTRIP.replace("h1 = 0.001", "h1 = 0.01")
    .replace('A.1.2.2 = "cos(x1)^2"\n', "")
    .replace("transverse_res = 9", "transverse_res = 5")
)


class TestCoarseRerun:
    """The report names the outcome of the Richardson coarse rerun, just
    before ``max_error``; every outcome but ``done`` leaves the gate at
    ``roundtrip_tol``."""

    SPHERE = SPHERE_ROUNDTRIP.replace("h1 = 0.001", "h1 = 0.01")

    @pytest.mark.parametrize(
        "text, mode, code, outcome",
        [
            (SPHERE, "roundtrip-metric", 0, "done"),
            (
                SPHERE.replace("transverse_res = 5", "transverse_res = 4"),
                "roundtrip-metric",
                4,
                "skipped (even transverse_res)",
            ),
            (
                SPHERE.replace("transverse_res = 5", "transverse_res = 3"),
                "roundtrip-metric",
                4,
                "skipped (coarsened transverse_res below 3)",
            ),
            (
                # 0.75 < 4 * h1: four samples, enough for the fine oracle
                SPHERE.replace("h1 = 0.01", "h1 = 0.25").replace("x1_max = 1.0", "x1_max = 0.75"),
                "roundtrip-metric",
                4,
                "skipped (x1 axis shorter than 4*h1)",
            ),
            (
                # the coarse rerun has three samples, one short of the oracle
                SPHERE.replace("h1 = 0.01", "h1 = 0.25"),
                "roundtrip-metric",
                4,
                "skipped (coarse x1 axis too short for the oracle)",
            ),
            (
                POLE_ROUNDTRIP.replace('A.2.1.2 = "-1"', 'A.2.1.2 = "-1e4"'),
                "roundtrip-connection",
                3,
                "skipped (no fine residual)",
            ),
            (
                POLE_ROUNDTRIP.replace('A.2.1.2 = "-1"', 'A.2.1.2 = "-3e3"'),
                "roundtrip-connection",
                3,
                "stopped (StoppedBlowup)",
            ),
        ],
        ids=[
            "done",
            "even-res",
            "coarse-res-below-3",
            "short-axis",
            "coarse-too-short",
            "no-fine-residual",
            "stopped",
        ],
    )
    def test_outcome(self, tmp_path, text, mode, code, outcome):
        got, out = run_cli(tmp_path, text, mode)
        assert got == code
        report = read_report(out / "report.txt")
        assert report["coarse_rerun"] == outcome
        assert list(report)[-5:] == [
            "coarse_rerun",
            "max_error",
            "error_estimate",
            "gate",
            "exit_code",
        ]
        if outcome == "done":
            assert float(report["error_estimate"]) > 0.0
        else:
            assert float(report["error_estimate"]) == 0.0
            assert float(report["gate"]) == 1e-6

    @pytest.mark.parametrize(
        "text, mode, name",
        [
            # fine x1 axis [0, 1] at h1 = 0.25: 5 samples; the coarse one has 3 of 4
            (
                SPHERE.replace("h1 = 0.01", "h1 = 0.25"),
                "roundtrip-metric",
                "_reconstruct_metric",
            ),
            # fine x1 axis [-0.016, 0.026] at h1 = 0.01: 4 samples; the coarse one has 2 of 3
            (
                POLE_ROUNDTRIP.replace("x1_max = 1.0", "x1_min = -0.016\nx1_max = 0.026"),
                "roundtrip-connection",
                "_reconstruct_connection",
            ),
        ],
        ids=["metric", "connection"],
    )
    def test_too_short_coarse_axis_reconstructs_nothing(
        self, tmp_path, monkeypatch, text, mode, name
    ):
        real = getattr(cli, name)
        charts = []

        def counted(cfg, chart):
            charts.append(chart)
            return real(cfg, chart)

        monkeypatch.setattr(cli, name, counted)
        code, out = run_cli(tmp_path, text, mode)
        report = read_report(out / "report.txt")
        assert report["coarse_rerun"] == "skipped (coarse x1 axis too short for the oracle)"
        assert report["status"] == "Complete"
        assert code in (0, 4)
        assert len(charts) == 1
        assert charts[0].h1 == load_config(tmp_path / "run.cfg").chart.h1

    @pytest.mark.parametrize(
        "mode, reconstruct, residual",
        [
            ("roundtrip-metric", "_reconstruct_metric", "metric_roundtrip_residual"),
            (
                "roundtrip-connection",
                "_reconstruct_connection",
                "connection_roundtrip_residual",
            ),
        ],
        ids=["metric", "connection"],
    )
    def test_fine_field_and_oracle_are_freed_first(
        self, tmp_path, monkeypatch, mode, reconstruct, residual
    ):
        # the coarse rerun reads only the sources, so the fine field and
        # its curvature oracle are gone when it reconstructs
        real_reconstruct = getattr(cli, reconstruct)
        real_residual = getattr(cli, residual)
        fine = []
        alive = []

        def reconstructed(cfg, chart):
            if chart is not cfg.chart:
                alive.append([ref() is not None for ref in fine])
            got = real_reconstruct(cfg, chart)
            if chart is cfg.chart:
                fine.append(weakref.ref(got[0]))
            return got

        def oracle(field, *args):
            got = real_residual(field, *args)
            if len(fine) == 1:
                fine.append(weakref.ref(got[1]))
            return got

        monkeypatch.setattr(cli, reconstruct, reconstructed)
        monkeypatch.setattr(cli, residual, oracle)
        text = SPHERE_ROUNDTRIP if mode == "roundtrip-metric" else CONNECTION_ROUNDTRIP
        code, out = run_cli(tmp_path, text.replace("h1 = 0.001", "h1 = 0.01"), mode)
        assert read_report(out / "report.txt")["coarse_rerun"] == "done"
        assert alive == [[False, False]]

    @pytest.mark.parametrize(
        "mode, reconstruct",
        [
            ("roundtrip-metric", "_reconstruct_metric"),
            ("roundtrip-connection", "_reconstruct_connection"),
        ],
        ids=["metric", "connection"],
    )
    def test_fine_field_is_freed_before_the_oracle_dump(
        self, tmp_path, monkeypatch, mode, reconstruct
    ):
        # the oracle dump reads only the grid, so the fine field is gone
        # while the oracle is written
        real_reconstruct = getattr(cli, reconstruct)
        real_dump = cli.write_tensor_dump
        fine = []
        alive = {}

        def reconstructed(cfg, chart):
            got = real_reconstruct(cfg, chart)
            if chart is cfg.chart:
                fine.append(weakref.ref(got[0]))
            return got

        def dump(path, grid, tubes):
            alive[path.name] = fine[0]() is not None
            real_dump(path, grid, tubes)

        monkeypatch.setattr(cli, reconstruct, reconstructed)
        monkeypatch.setattr(cli, "write_tensor_dump", dump)
        text = SPHERE_ROUNDTRIP if mode == "roundtrip-metric" else CONNECTION_ROUNDTRIP
        code, out = run_cli(tmp_path, text.replace("h1 = 0.001", "h1 = 0.01"), mode)
        assert (out / "curvature_oracle.csv").exists()
        assert alive.pop("curvature_oracle.csv") is False
        assert list(alive.values()) == [True]

    def test_error(self, tmp_path, monkeypatch):
        # no configuration is known that fails on the coarse chart alone,
        # so the coarse reconstruction is made to raise
        real = cli._reconstruct_metric

        def coarse_fails(cfg, chart):
            if chart is not cfg.chart:
                raise InvalidSpec("coarse chart refused")
            return real(cfg, chart)

        monkeypatch.setattr(cli, "_reconstruct_metric", coarse_fails)
        code, out = run_cli(tmp_path, self.SPHERE, "roundtrip-metric")
        assert code == 4
        report = read_report(out / "report.txt")
        assert report["coarse_rerun"] == "error (coarse chart refused)"
        assert float(report["error_estimate"]) == 0.0
        assert float(report["gate"]) == 1e-6


class TestNumericalStops:
    def test_degenerate_metric_exit3(self, tmp_path):
        text = SPHERE_ROUNDTRIP.replace("mode = roundtrip-metric", "mode = reconstruct-metric")
        text = text.replace("x1_max = 1.0", "x1_max = 2.0")
        text = text.replace('Gtilde.2.2 = "0"', 'Gtilde.2.2 = "-2"')
        text = text.replace('a.2.2 = "-cos(x1)^2"', 'a.2.2 = "0"')
        code, out = run_cli(tmp_path, text, "reconstruct-metric")
        assert code == 3
        report = read_report(out / "report.txt")
        assert report["status"] == "StoppedDegenerate"
        assert report["exit_code"] == "3"
        assert float(report["delta_hat_plus"]) == pytest.approx(1.0, abs=1e-2)
        assert "degenerate at transverse node" in report["stop_plus"]
        assert (out / "metric.csv").exists()

    @pytest.mark.parametrize("mode", ["reconstruct-connection", "roundtrip-connection"])
    def test_stage1_stop_within_its_first_step(self, tmp_path, mode):
        # tan(1000 x1) has its poles at x1 = +-pi / 2000, inside the first
        # step of h1 = 0.01 both ways: stage 1 reaches the x1 = 0 plane alone
        text = POLE_ROUNDTRIP.replace('A.2.1.2 = "-1"', 'A.2.1.2 = "-1e6"')
        text = text.replace("x1_max = 1.0", "x1_min = -0.1\nx1_max = 0.1")
        code, out = run_cli(tmp_path, text.replace("roundtrip-connection", mode), mode)
        assert code == 3
        report = read_report(out / "report.txt")
        assert report["status"] == "StoppedBlowup"
        assert report["exit_code"] == "3"
        assert float(report["delta_hat_plus"]) == float(report["delta_hat_minus"]) == 0.0
        assert "blowup at transverse node" in report["stop_plus"]
        assert "blowup at transverse node" in report["stop_minus"]
        header, rows = dump_values(out / "connection.csv")
        assert {float(r[0]) for r in rows} == {0.0}
        assert len(rows) == 5 * 2 * 2 * 2
        if mode == "roundtrip-connection":
            assert report["coarse_rerun"] == "skipped (no fine residual)"
            assert report["max_error"] == "nan"

    def test_blowup_roundtrip_exit3_dominates_gate(self, tmp_path):
        # solution has a pole inside the range: stop reported as 3 even
        # though the roundtrip residual on the reached part is also huge
        text = CONNECTION_ROUNDTRIP.replace("x1_max = 1.0", "x1_max = 2.0")
        text = text.replace('A.1.2.2 = "cos(x1)^2"\n', "")
        text = text.replace("transverse_res = 9", "transverse_res = 5")
        code, out = run_cli(tmp_path, text, "roundtrip-connection")
        assert code == 3
        report = read_report(out / "report.txt")
        assert report["status"] == "StoppedBlowup"
        assert report["exit_code"] == "3"
        delta = float(report["delta_hat_plus"])
        assert math.pi / 2 - 0.01 < delta < math.pi / 2
        assert "blowup at transverse node" in report["stop_plus"]
        assert float(report["max_error"]) > float(report["gate"])
        # partial dump covers exactly the reached axial range
        header, rows = dump_values(out / "connection.csv")
        xs = [float(r[0]) for r in rows]
        assert max(xs) == pytest.approx(delta)
        assert min(xs) == 0.0


class TestCheckChart:
    SPHERE_CHECK = """\
[run]
mode = check-chart

[chart]
n = 2
x1_max = 1.0
h1 = 0.01
transverse_res = 9

[fields]
g.1.1 = "1"
g.2.2 = "cos(x1)^2"
"""

    def test_adapted_chart_all_zero(self, tmp_path):
        code, out = run_cli(tmp_path, self.SPHERE_CHECK, "check-chart")
        assert code == 0
        report = read_report(out / "report.txt")
        assert float(report["pre_semigeodesic_residual"]) == 0.0
        assert float(report["lemma1_residual"]) == 0.0
        assert float(report["semigeodesic_axial_residual"]) == 0.0
        assert float(report["semigeodesic_cross_residual"]) == 0.0
        assert float(report["unit_speed_residual"]) <= 1e-10
        for k in range(1, 6):
            assert report[f"curve_{k}_samples"] == "101"
            with open(out / f"curve_{k}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["s", "x1", "x2"]
            assert len(rows) == 102
            # axial geodesics: x1 tracks s, x2 stays put
            assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
            assert rows[1][2] == rows[-1][2]

    def test_tolerances_reach_the_geodesic_shots(self, tmp_path):
        # a shot's state holds its unit axial velocity, so a blow-up
        # threshold of 0.5 stops every shot in its first step
        text = self.SPHERE_CHECK + "\n[tolerances]\nblowup_threshold = 0.5\n"
        code, out = run_cli(tmp_path, text, "check-chart")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["status"] == "Complete"
        keys = list(report)
        for k in range(1, 6):
            assert report[f"curve_{k}_samples"] == "1"
            assert len((out / f"curve_{k}.csv").read_text().splitlines()) == 2
            # the stop reason follows the sample count
            at = keys.index(f"curve_{k}_samples")
            assert keys[at + 1] == f"curve_{k}_stop"
            assert report[f"curve_{k}_stop"] == "geodesic state rejected (blowup) at s = 0.01"

    def test_shots_that_complete_write_no_stop(self, tmp_path):
        code, out = run_cli(tmp_path, self.SPHERE_CHECK, "check-chart")
        assert code == 0
        assert not any(key.endswith("_stop") for key in read_report(out / "report.txt"))

    def test_shots_that_leave_name_where(self, tmp_path):
        # g_11 = 1 + x2^2 + 3 x1 x2 bends the x1 lines out of the box |x2| <= 0.3
        text = self.SPHERE_CHECK.replace('g.1.1 = "1"', 'g.1.1 = "1 + x2^2 + 3*x2*x1"')
        text = text.replace('g.2.2 = "cos(x1)^2"', 'g.2.2 = "1 + x1^2"')
        text = text.replace("transverse_res = 9", "transverse_res = 9\ntransverse_box = -0.3, 0.3")
        code, out = run_cli(tmp_path, text, "check-chart")
        assert code == 0
        report = read_report(out / "report.txt")
        stops = {k: report.get(f"curve_{k}_stop") for k in range(1, 6)}
        assert stops[3] is None
        for k in (1, 2, 4, 5):
            samples = int(report[f"curve_{k}_samples"])
            assert stops[k] == f"geodesic left the tube within step {samples}"

    def test_connection_only_check(self, tmp_path):
        text = self.SPHERE_CHECK.replace(
            'g.1.1 = "1"\ng.2.2 = "cos(x1)^2"', 'gamma.2.1.2 = "-sin(x1)/cos(x1)"'
        )
        code, out = run_cli(tmp_path, text, "check-chart")
        assert code == 0
        report = read_report(out / "report.txt")
        assert float(report["pre_semigeodesic_residual"]) == 0.0
        assert float(report["lemma1_residual"]) == 0.0
        assert "semigeodesic_axial_residual" not in report
        assert "unit_speed_residual" not in report
        assert not (out / "curve_1.csv").exists()

    def test_unadapted_chart_reports_nonzero(self, tmp_path):
        text = self.SPHERE_CHECK.replace('g.1.1 = "1"', 'g.1.1 = "1 + 0.5*x1^2"')
        code, out = run_cli(tmp_path, text, "check-chart")
        assert code == 0
        report = read_report(out / "report.txt")
        assert float(report["pre_semigeodesic_residual"]) > 0.01
        assert float(report["semigeodesic_axial_residual"]) == pytest.approx(0.5, abs=1e-12)


class TestExitTwo:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["forward", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_syntax_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[grid]\nn = 2\n")
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: line 1: unknown section" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(FLAT_FORWARD.replace("n = 2", "# caf\xe9\nn = 2").encode("latin-1"))
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: line 5: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("value", ["x1²", "²", "①", "٣+x1"])
    def test_non_ascii_digit_in_field(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FLAT_FORWARD.replace('g.2.2 = "1"', f'g.2.2 = "{value}"'), encoding="utf-8")
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 14: ") and err.count("\n") == 1
        assert "unexpected character" in err

    # config numbers take the expression grammar: ASCII digits, no "_" separators
    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("n = 2", "n = ٢", 5, "n: expected an integer, got '٢'"),
            ('g.2.2 = "1"', 'g.٢.٢ = "1"', 14, "g.٢.٢: expected an integer, got '٢'"),
            ("x1_max = 0.5", "x1_max = 1_0", 7, "x1_max: expected a number, got '1_0'"),
            (
                "transverse_res = 5",
                "transverse_res = 1_1",
                9,
                "transverse_res: expected an integer, got '1_1'",
            ),
            (
                "transverse_res = 5",
                "transverse_res = 5\ntransverse_box = 0, １",
                10,
                "transverse_box: expected a number, got '１'",
            ),
            (
                "transverse_res = 5",
                "transverse_res.٢ = 5",
                9,
                "transverse_res.٢: expected an integer, got '٢'",
            ),
            ("h1 = 0.01", "h1 = ١e-1", 8, "h1: expected a number, got '١e-1'"),
        ],
    )
    def test_number_outside_the_grammar(self, tmp_path, capsys, old, new, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FLAT_FORWARD.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.line == line
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    def test_mode_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLAT_FORWARD)
        code = main(["check-chart", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config says mode = forward" in capsys.readouterr().err

    def test_no_output_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLAT_FORWARD)
        code = main(["forward", "--config", str(cfg)])
        assert code == 2
        assert "no output directory" in capsys.readouterr().err

    def test_invalid_initial_data(self, tmp_path, capsys):
        text = CONNECTION_ROUNDTRIP.replace(
            "mode = roundtrip-connection", "mode = reconstruct-connection"
        ) + 'gammatilde.1.1.1 = "1"\n'
        cfg = write_cfg(tmp_path, text)
        code = main(["reconstruct-connection", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluation_error(self, tmp_path, capsys):
        text = FLAT_FORWARD.replace('g.2.2 = "1"', 'g.2.2 = "log(x1 - 10)"')
        cfg = write_cfg(tmp_path, text)
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "log of a non-positive value" in capsys.readouterr().err

    def test_non_finite_literal(self, tmp_path, capsys):
        text = SPHERE_ROUNDTRIP.replace('"-cos(x1)^2"', '"-1e999*cos(x1)^2"')
        cfg = write_cfg(tmp_path, text)
        code = main(["roundtrip-metric", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        ["+".join(["x2"] * 3000), "(" * 1000 + "x2" + ")" * 1000],
        ids=["long-sum", "deep-parens"],
    )
    def test_deeply_nested_expression(self, tmp_path, capsys, value):
        text = SPHERE_ROUNDTRIP.replace(
            "mode = roundtrip-metric", "mode = reconstruct-metric"
        ).replace('"-cos(x1)^2"', f'"{value}"')
        code, _ = run_cli(tmp_path, text, "reconstruct-metric")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "nested too deeply" in err

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1], ids=["cap", "past-cap"])
    def test_depth_cap(self, tmp_path, capsys, depth):
        # -cos(x1)^2 is four nodes deep; each "+ 0" adds one level
        value = "-cos(x1)^2" + " + 0" * (depth - 4)
        text = (
            SPHERE_ROUNDTRIP.replace("mode = roundtrip-metric", "mode = reconstruct-metric")
            .replace("h1 = 0.001", "h1 = 0.25")
            .replace('"-cos(x1)^2"', f'"{value}"')
        )
        code, out = run_cli(tmp_path, text, "reconstruct-metric")
        err = capsys.readouterr().err
        if depth == MAX_DEPTH:
            assert code == 0, err
            assert read_report(out / "report.txt")["status"] == "Complete"
        else:
            # refused while loading, at the end of the text, before any output
            assert code == 2
            assert err == (
                "error: line 14: a.2.2: expression nested too deeply (at position 3598)\n"
            )
            assert not out.exists()

    def test_deep_parentheses_run(self, tmp_path, capsys):
        # the parser caps pending parentheses by count, not by the call stack
        value = "(" * 300 + "-cos(x1)^2" + ")" * 300
        text = (
            SPHERE_ROUNDTRIP.replace("mode = roundtrip-metric", "mode = reconstruct-metric")
            .replace("h1 = 0.001", "h1 = 0.25")
            .replace('"-cos(x1)^2"', f'"{value}"')
        )
        code, out = run_cli(tmp_path, text, "reconstruct-metric")
        assert code == 0, capsys.readouterr().err
        assert read_report(out / "report.txt")["status"] == "Complete"

    def test_mid_run_error_names_field_and_writes_report(self, tmp_path, capsys):
        text = (
            SPHERE_ROUNDTRIP.replace("mode = roundtrip-metric", "mode = reconstruct-metric")
            .replace("h1 = 0.001", "h1 = 0.25")
            .replace('"-cos(x1)^2"', '"log(0.5 - x1)"')
        )
        code, out = run_cli(tmp_path, text, "reconstruct-metric")
        assert code == 2
        message = "a(2, 2) at x1 = 0.5: log of a non-positive value"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]
        assert read_report(out / "report.txt") == {
            "mode": "reconstruct-metric",
            "status": "InvalidInput",
            "error": message,
            "exit_code": "2",
        }

    def test_degenerate_input_metric(self, tmp_path, capsys):
        text = FLAT_FORWARD.replace('g.2.2 = "1"', 'g.2.2 = "x2"')
        cfg = write_cfg(tmp_path, text)
        code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "chart, message",
        [
            (
                "x1_min = 0\nx1_max = 1\nh1 = 1e-300\ntransverse_res = 5",
                "axis 1 needs 1e+300 samples; its lattice cannot be allocated",
            ),
            (
                "x1_min = -1\nx1_max = 0.5\nh1 = 1e-320\ntransverse_res = 5",
                "axis 1 needs inf samples; its lattice cannot be allocated",
            ),
            # numpy could index this axis; the budget refuses it before it is built
            (
                "x1_min = -0.5\nx1_max = 0.5\nh1 = 0.01\ntransverse_res = 100000000000000",
                "the 101 x 100000000000000 lattice needs 1.2e+09 GiB "
                "for an n^4-slot tensor tube, above the 16 GiB limit",
            ),
        ],
        ids=["h1-tiny", "h1-subnormal", "transverse-res-huge"],
    )
    def test_unbuildable_lattice(self, tmp_path, capsys, chart, message):
        text = FLAT_FORWARD.replace(
            "x1_min = -0.5\nx1_max = 0.5\nh1 = 0.01\ntransverse_res = 5", chart
        )
        code, out = run_cli(tmp_path, text, "forward")
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_report(out / "report.txt")["error"] == message

    @pytest.mark.parametrize(
        "mode, fields",
        [
            ("forward", 'g.1.1 = "1"\ng.2.2 = "1"\ng.3.3 = "1"\n'),
            ("reconstruct-metric", 'gtilde.2.2 = "1"\ngtilde.3.3 = "1"\n'),
        ],
        ids=["forward", "reconstruct-metric"],
    )
    def test_lattice_over_budget(self, tmp_path, capsys, mode, fields):
        # every axis can be built, but an n^4 tube on the lattice would
        # need about 1.7 PiB; the chart is rejected before any allocation
        text = (
            "[chart]\nn = 3\nx1_min = 0\nx1_max = 1\nh1 = 0.5\n"
            "transverse_res = 1000000\ne = 1\n[fields]\n" + fields
        )
        code, out = run_cli(tmp_path, text, mode)
        assert code == 2
        message = (
            "the 3 x 1000000 x 1000000 lattice needs 1.81e+06 GiB "
            "for an n^4-slot tensor tube, above the 16 GiB limit"
        )
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert read_report(out / "report.txt") == {
            "mode": mode,
            "status": "InvalidInput",
            "error": message,
            "exit_code": "2",
        }

    def test_running_out_of_memory_exits_two(self, tmp_path):
        # an identity metric on a 101 x 101 x 1001 lattice: its n^4 tube
        # (6.6 GB) is inside the budget, but the child may map only 512 MB,
        # so the first lattice-sized array (701 MiB) cannot be allocated
        text = (
            "[chart]\nn = 3\nx1_min = 0\nx1_max = 1\nh1 = 0.001\ntransverse_res = 101\n"
            '[fields]\ng.1.1 = "1"\ng.2.2 = "1"\ng.3.3 = "1"\n'
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        limit = 512 * 2**20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        argv = [sys.executable, "-m", "semigeo", "forward", "--config", str(cfg), "--out", str(out)]
        child = subprocess.run(
            argv, preexec_fn=cap, env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 2, child.stderr
        last = child.stderr.splitlines()[-1]
        assert last.startswith("error: Unable to allocate") and "Traceback" not in child.stderr
        assert read_report(out / "report.txt") == {
            "mode": "forward",
            "status": "InvalidInput",
            "error": last.removeprefix("error: "),
            "exit_code": "2",
        }

    def test_bare_memory_error_exits_two_with_a_message(self, tmp_path, capsys, monkeypatch):
        # Python's own MemoryError carries no text
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(cli, "_run_mode", exhausted)
        code, out = run_cli(tmp_path, FLAT_FORWARD, "forward")
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert read_report(out / "report.txt")["error"] == "out of memory"

    def test_unknown_cli_mode_rejected_by_parser(self, tmp_path):
        cfg = write_cfg(tmp_path, FLAT_FORWARD)
        with pytest.raises(SystemExit):
            main(["sideways", "--config", str(cfg), "--out", str(tmp_path / "o")])


def hugepage_advice(enabled=None):
    """numpy's huge-page advice for new arrays; set to ``enabled`` when given."""
    if enabled is None:
        return np._core.multiarray._get_madvise_hugepage()
    return np._core.multiarray._set_madvise_hugepage(enabled)


class TestHugePageAdvice:
    @pytest.mark.parametrize("before", [True, False])
    @pytest.mark.parametrize("text", [FLAT_FORWARD, "[chart]\n"], ids=["run", "config-error"])
    def test_main_runs_without_it_and_restores_it(self, tmp_path, monkeypatch, before, text):
        seen = []
        run = cli.run

        def recorded(*args):
            seen.append(hugepage_advice())
            return run(*args)

        monkeypatch.setattr(cli, "run", recorded)
        cfg = write_cfg(tmp_path, text)
        previous = hugepage_advice(before)
        try:
            code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")])
            after = hugepage_advice()
        finally:
            hugepage_advice(previous)
        assert (code, seen) == ((0, [False]) if text == FLAT_FORWARD else (2, []))
        assert after == before

    @pytest.mark.parametrize("before", [True, False])
    def test_import_leaves_it_alone(self, before):
        # a fresh interpreter: this one imported semigeo long ago
        script = (
            "import numpy as np\n"
            f"np._core.multiarray._set_madvise_hugepage({before})\n"
            "import semigeo, semigeo.cli\n"
            "print(np._core.multiarray._get_madvise_hugepage())\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.stdout == f"{before}\n", child.stderr


class TestDeterminismAndPlumbing:
    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = write_cfg(tmp_path, SPHERE_ROUNDTRIP)
        outs = []
        for name, extra in (("o1", ()), ("o2", ()), ("o4", ("--threads", "4"))):
            out = tmp_path / name
            code = main(["roundtrip-metric", "--config", str(cfg), "--out", str(out), *extra])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["curvature_oracle.csv", "metric.csv", "report.txt"]
        for name in names:
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref

    @pytest.mark.parametrize(
        "mode, base, dump",
        [
            ("reconstruct-metric", SPHERE_ROUNDTRIP, "metric.csv"),
            ("roundtrip-metric", SPHERE_ROUNDTRIP, "metric.csv"),
            ("reconstruct-connection", CONNECTION_ROUNDTRIP, "connection.csv"),
            ("roundtrip-connection", CONNECTION_ROUNDTRIP, "connection.csv"),
        ],
    )
    def test_reconstruction_report_layout(self, tmp_path, mode, base, dump):
        # metric and connection runs share one runner: same key order,
        # round trips append the gate lines and the oracle dump
        text = re.sub(r"mode = \S+", f"mode = {mode}", base).replace("h1 = 0.001", "h1 = 0.01")
        code, out = run_cli(tmp_path, text, mode)
        assert code == 0
        keys = list(read_report(out / "report.txt"))
        head = ["mode", "status", "delta_hat_plus", "delta_hat_minus", "max_component"]
        tail = ["coarse_rerun", "max_error", "error_estimate", "gate"]
        tail = tail if mode.startswith("roundtrip") else []
        assert keys[:5] == head
        assert keys[-1] == "exit_code"
        middle = keys[5 : len(keys) - 1 - len(tail)]
        assert middle == sorted(middle)
        assert keys[len(keys) - 1 - len(tail) : -1] == tail
        files = sorted(p.name for p in out.iterdir())
        expected = [dump, "report.txt"]
        if mode.startswith("roundtrip"):
            expected.append("curvature_oracle.csv")
        assert files == sorted(expected)
        assert read_report(out / "report.txt")["mode"] == mode

    def test_out_from_config_and_override(self, tmp_path):
        dir_a = tmp_path / "a"
        text = f"[run]\nmode = forward\nout = {dir_a}\n" + FLAT_FORWARD.split("\n", 2)[2]
        cfg = write_cfg(tmp_path, text)
        assert main(["forward", "--config", str(cfg)]) == 0
        assert (dir_a / "report.txt").exists()
        dir_b = tmp_path / "b"
        assert main(["forward", "--config", str(cfg), "--out", str(dir_b)]) == 0
        assert (dir_b / "report.txt").exists()

    def test_defaulted_note_on_stderr(self, tmp_path, capsys):
        text = FLAT_FORWARD.replace('g.1.2 = "0"\n', "")
        code, out = run_cli(tmp_path, text, "forward")
        assert code == 0
        err = capsys.readouterr().err
        assert "note: g.1.2 not set, defaulting to 0" in err

    def test_no_note_when_complete(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, FLAT_FORWARD, "forward")
        assert code == 0
        assert "note:" not in capsys.readouterr().err

    def test_read_report_roundtrip(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("mode: forward\nmax_component: 0.5\nexit_code: 0\n")
        report = read_report(path)
        assert report == {"mode": "forward", "max_component": "0.5", "exit_code": "0"}

    def test_modes_tuple_matches_parser(self):
        assert MODES == (
            "forward",
            "reconstruct-metric",
            "reconstruct-connection",
            "roundtrip-metric",
            "roundtrip-connection",
            "check-chart",
        )


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("x1_max = 1.0", "x1_max = inf"),
            ("x1_max = 1.0", "x1_max = nan"),
            ("h1 = 0.001", "h1 = inf"),
            ("transverse_res = 5", "transverse_res = 5\ntransverse_box = 0, inf"),
            ("transverse_res = 5", "transverse_res = 5\ntransverse_box = -inf, 0"),
        ],
        ids=["x1-max-inf", "x1-max-nan", "h1-inf", "box-inf", "box-minus-inf"],
    )
    def test_chart_value_exits_two(self, tmp_path, capsys, old, new):
        code, out = run_cli(tmp_path, SPHERE_ROUNDTRIP.replace(old, new), "roundtrip-metric")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [chart]: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize(
        "key",
        ["blowup_threshold", "degeneracy_tol", "roundtrip_tol", "step_growth_limit", "stage_slope_ratio"],
    )
    def test_tolerance_exits_two_with_line(self, tmp_path, capsys, key, value):
        text = SPHERE_ROUNDTRIP + f"\n[tolerances]\n{key} = {value}\n"
        code, _ = run_cli(tmp_path, text, "roundtrip-metric")
        assert code == 2
        line = text.count("\n")
        assert capsys.readouterr().err.startswith(f"error: line {line}: {key}: must be finite and > 0")

    def test_connection_overflow_is_a_blowup_stop(self, tmp_path):
        text = FLAT_FORWARD.split("[fields]")[0] + '[fields]\ngamma.2.1.2 = "1e300 - cos(x2)"\n'
        code, out = run_cli(tmp_path, text, "forward")
        assert code == 3
        report = read_report(out / "report.txt")
        assert report["status"] == "StoppedBlowup"
        assert report["exit_code"] == "3"
        assert (out / "curvature13.csv").exists()

    @pytest.mark.parametrize("mode", ["forward", "check-chart"])
    def test_overflowing_determinant_is_degenerate(self, tmp_path, capsys, mode):
        text = FLAT_FORWARD.replace("mode = forward\n", "").replace('g.1.2 = "0"', 'g.1.2 = "1e300"')
        code, out = run_cli(tmp_path, text, mode)
        assert code == 2
        err = capsys.readouterr().err
        assert "metric determinant -inf at node (0, 0) is below" in err
        assert read_report(out / "report.txt")["status"] == "InvalidInput"

    def test_overflowing_initial_block_is_invalid(self, tmp_path, capsys):
        text = (
            "[chart]\nn = 3\nx1_max = 0.5\nh1 = 0.1\ne = 1\ntransverse_res = 3\n[fields]\n"
            'gtilde.2.2 = "1e300"\ngtilde.3.3 = "1e300"\na.2.2 = "-1"\n'
        )
        code, _ = run_cli(tmp_path, text, "reconstruct-metric")
        assert code == 2
        assert "initial transverse block is degenerate at flat node 0 (det = inf)" in (
            capsys.readouterr().err
        )

    def test_degenerate_node_is_plain_ints(self):
        grid = build_grid(ChartSpec(n=2, x1_range=(0.0, 0.5), h1=0.25, transverse_res=3))
        metric = MetricField.from_fields(grid, {(1, 1): "1", (2, 2): "x2 - 0.5"})
        with pytest.raises(DegenerateMetric) as err:
            christoffel_from_metric(metric)
        assert err.value.node == (0, 1)
        assert all(type(i) is int for i in err.value.node)
        assert "at node (0, 1)" in str(err.value)


class TestRoundTripTooShort:
    @pytest.mark.parametrize(
        "mode, text",
        [
            ("roundtrip-metric", SPHERE_ROUNDTRIP.replace("h1 = 0.001", "h1 = 0.5")),
            ("roundtrip-connection", CONNECTION_ROUNDTRIP.replace("h1 = 0.001", "h1 = 1.0")),
        ],
        ids=["metric", "connection"],
    )
    def test_complete_run_without_oracle_exits_two(self, tmp_path, capsys, mode, text):
        # too few x1 samples for the oracle's stencil: nothing was checked,
        # so the run may not report success
        code, out = run_cli(tmp_path, text, mode)
        assert code == 2
        assert "too short for the curvature oracle" in capsys.readouterr().err
        assert read_report(out / "report.txt")["status"] == "InvalidInput"
