"""Batch front door: parse a config, run one mode, write dumps and a report.

    semigeo <mode> --config run.cfg --out results/ [--threads N]

Modes: forward, reconstruct-metric, reconstruct-connection,
roundtrip-metric, roundtrip-connection, check-chart.  ``--threads N`` is
accepted and ignored: every march is one lockstep pass over all nodes.

Exit codes: 0 success; 2 bad configuration, invalid input data or a
lattice too large for the memory the process may take (found mid-run,
it still leaves a report with ``status: InvalidInput``);
3 numerical stop (blow-up or degeneracy; partial dumps are still
written; ``forward`` exits 3 with ``status: StoppedBlowup`` when a tensor
it dumps overflowed to inf or nan); 4 round-trip residual above its
gate.  When a run both stops early and fails its round-trip gate, the
stop wins: 3.

Every artifact is deterministic: fixed row order, fixed report key
order, floats via repr (which round-trips binary64 exactly), no
timestamps.  Running the same config twice gives byte-identical files.

Round-trip modes re-run the forward curvature oracle on the
reconstruction and report the largest discrepancy against the
prescribed sources as ``max_error``.  The pass gate adapts to the
lattice: the pipeline is repeated on a once-coarsened chart and the
difference of the two residuals gives a second-order Richardson
estimate of the fine-lattice discretization error (``error_estimate``).
The gate is max(roundtrip_tol, 10 * error_estimate): a residual of pure
discretization origin sits well under it, while source fields that are
not the curvature of any connection (or metric) leave a resolution-
independent residual that the gate flags as exit 4.  The report line
``coarse_rerun`` says how the coarse rerun went: ``done``, ``skipped
(<why>)``, ``stopped (<status>)`` or ``error (<message>)``; without
``done`` there is no estimate and the gate is roundtrip_tol.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .chart_check import (
    geodesic_shoot,
    pre_semigeodesic_residual,
    semigeodesic_check,
    unit_speed_residual,
)
from .config import MODES, defaulted_components, load_config, validate_for_mode
from .connection_recon import (
    ConnectionCurvatureSpec,
    HypersurfaceConnectionData,
    reconstruct_connection,
)
from .curvature import (
    SEMIGEO_TOL,
    ConnectionField,
    MetricField,
    christoffel_from_metric,
    curvature04_semigeo,
    curvature13,
    lower_and_check_identity,
    x1_blocks,
)
from .errors import ConfigError, GridTooCoarse, SemigeoError
from .grid_field import build_grid, write_curve_dump, write_tensor_dump
from .metric_recon import HypersurfaceMetricData, MetricCurvatureSpec, reconstruct_metric


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semigeo",
        description="Reconstruct connections/metrics in tube charts and check them.",
    )
    parser.add_argument("mode", choices=MODES, help="what to run")
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory (or [run] out)")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; kept so existing command lines still run",
    )
    return parser


# ------------------------------------------------------------------- report


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report(out, lines, exit_code):
    with open(out / "report.txt", "w") as fh:
        for key, value in lines:
            fh.write(f"{key}: {_fmt(value)}\n")
        fh.write(f"exit_code: {exit_code}\n")


def read_report(path):
    """Parse a report file back into a dict (the inverse of the writer)."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            key, _, value = raw.rstrip("\n").partition(": ")
            out[key] = value
    return out


def _report_recon(lines, report):
    lines.append(("status", report.status))
    lines.append(("delta_hat_plus", report.delta_hat_plus))
    lines.append(("delta_hat_minus", report.delta_hat_minus))
    lines.append(("max_component", report.max_component))
    for key in sorted(report.diagnostics):
        lines.append((key, report.diagnostics[key]))


# ------------------------------------------------------------------ helpers

# x1 samples each forward curvature oracle needs: the metric's takes a
# second x1 difference, the connection's a first
METRIC_ORACLE_SAMPLES = 4
CONNECTION_ORACLE_SAMPLES = 3


def _residual(recovered, sources, grid):
    """Largest |recovered - sources| over ``grid``, NaN when any difference is.

    ``recovered`` holds the sources' slots, then ``grid.shape``.  The
    sources are read, and the difference taken, one ``x1_blocks`` block
    at a time.
    """
    lead = (slice(None),) * (recovered.ndim - grid.n)
    worst = []
    for lo, hi in x1_blocks(grid):
        target = np.moveaxis(sources.planes(grid.x1_samples[lo:hi], grid), 0, -2)
        diff = recovered[lead + (slice(lo, hi),)].reshape(target.shape) - target
        worst.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(worst))


def metric_roundtrip_residual(metric, sources, degeneracy_tol):
    """Forward-oracle discrepancy of a reconstructed metric, or None.

    Recomputes the prescribed axial curvature block from the metric by
    finite differences and returns the largest deviation from the
    sources over the metric's own grid (None when the grid is too short
    axially for the second-derivative stencil).
    """
    grid = metric.grid
    if grid.shape[0] < METRIC_ORACLE_SAMPLES:
        return None, None
    axial = curvature04_semigeo(metric, degeneracy_tol=degeneracy_tol)
    return _residual(axial.dense[0, :, :, 0], sources, grid), axial


def connection_roundtrip_residual(conn, sources):
    """Forward-oracle discrepancy of a reconstructed connection, or None."""
    grid = conn.grid
    if grid.shape[0] < CONNECTION_ORACLE_SAMPLES:
        return None, None
    r13 = curvature13(conn)
    return _residual(r13.dense[:, :, 0, 1:], sources, grid), r13


def roundtrip_gate(residual, coarse_residual, roundtrip_tol):
    """(error_estimate, gate) from the fine and coarse residuals.

    Second-order Richardson: err_h ~ (res_2h - res_h) / 3.  A residual
    that does not shrink with refinement (incompatible sources) gives an
    estimate near 0, so the gate falls back to roundtrip_tol and flags
    it.
    """
    if residual is None or coarse_residual is None:
        return 0.0, roundtrip_tol
    estimate = max(coarse_residual - residual, 0.0) / 3.0
    return estimate, max(roundtrip_tol, 10.0 * estimate)


# --------------------------------------------------------------------- modes


def _run_forward(cfg, grid, out):
    tol = cfg.tolerances.degeneracy_tol
    dumped = []
    extra = []

    def dump(name, *tubes):
        write_tensor_dump(out / name, grid, tubes)
        dumped.extend(tubes)

    if "g" in cfg.fields:
        metric = MetricField.from_fields(grid, cfg.fields["g"], e=cfg.chart.e)
        conn, first = christoffel_from_metric(metric, degeneracy_tol=tol)
        r13 = curvature13(conn)
        dump("christoffel.csv", conn, first)
        dump("curvature13.csv", r13)
        r11, r1j = metric.semigeodesic_residuals()
        if max(r11, r1j) <= SEMIGEO_TOL:
            axial = curvature04_semigeo(metric, degeneracy_tol=tol)
            dump("curvature04.csv", axial)
            _, identity = lower_and_check_identity(metric, r13)
            extra.append(("identity_residual", identity))
    else:
        r13 = curvature13(ConnectionField.from_fields(grid, cfg.fields["gamma"]))
        dump("curvature13.csv", r13)
    # an overflowed operator leaves inf/nan entries: a numerical stop
    finite = all(np.all(np.isfinite(tube.dense)) for tube in dumped)
    status = "Complete" if finite else "StoppedBlowup"
    lines = [("mode", "forward"), ("status", status), ("max_component", r13.max_abs())]
    return (0 if finite else 3), lines + extra


def _reconstruct_metric(cfg, chart):
    fields = cfg.fields
    init = HypersurfaceMetricData(chart.n, g=fields.get("gtilde"), g1=fields.get("Gtilde"))
    sources = MetricCurvatureSpec(chart.n, fields.get("a"))
    metric, report = reconstruct_metric(
        init,
        sources,
        chart.e,
        chart,
        guards=cfg.tolerances.guards(),
        degeneracy_tol=cfg.tolerances.degeneracy_tol,
    )
    return metric, report, sources


def _reconstruct_connection(cfg, chart):
    init = HypersurfaceConnectionData(chart.n, cfg.fields.get("gammatilde"))
    sources = ConnectionCurvatureSpec(chart.n, cfg.fields.get("A"))
    conn, report = reconstruct_connection(init, sources, chart, guards=cfg.tolerances.guards())
    return conn, report, sources


def _run_reconstruction(cfg, out, mode, reconstruct, oracle, dump_name):
    """Reconstruct on the configured chart and dump the field; round trips
    (``oracle`` given) also dump the oracle and gate its residual.

    ``reconstruct(cfg, chart)`` returns (field, report, sources).  The
    ``oracle`` is (residual_of, samples): ``residual_of(field, sources)``
    returns (max error, oracle), both None when the reached grid has
    fewer than ``samples`` x1 samples.  Only the fine run's oracle is
    dumped.
    """
    field, report, sources = reconstruct(cfg, cfg.chart)
    write_tensor_dump(out / dump_name, field.grid, [field])
    lines = [("mode", mode)]
    _report_recon(lines, report)
    code = 0 if report.complete else 3
    if oracle is None:
        return code, lines
    residual, tube = oracle[0](field, sources)
    # the oracle dump reads only the fine grid, and the coarse rerun neither
    # the fine field nor its oracle
    grid = field.grid
    del field
    if residual is None and code == 0:
        raise GridTooCoarse(f"{mode}: the x1 axis is too short for the curvature oracle")
    if tube is not None:
        write_tensor_dump(out / "curvature_oracle.csv", grid, [tube])
    del tube
    coarse_residual, outcome = _coarse_rerun(cfg, reconstruct, oracle, sources, residual)
    lines.append(("coarse_rerun", outcome))
    estimate, gate = roundtrip_gate(residual, coarse_residual, cfg.tolerances.roundtrip_tol)
    lines.append(("max_error", float("nan") if residual is None else residual))
    lines.append(("error_estimate", estimate))
    lines.append(("gate", gate))
    if code == 0 and residual is not None and residual > gate:
        code = 4
    return code, lines


def _coarse_rerun(cfg, reconstruct, oracle, sources, residual):
    """(coarse residual or None, report outcome) of the Richardson rerun.

    The rerun uses the once-coarsened chart: h1 doubled and every
    transverse resolution r made (r - 1) / 2 + 1.  It is skipped, before
    anything is reconstructed, when that chart's x1 axis has fewer
    samples than the oracle needs.  The outcome is ``done``, ``skipped
    (<why>)``, ``stopped (<status>)`` or ``error (<message>)``; only
    ``done`` comes with a residual.
    """
    residual_of, samples = oracle
    chart = cfg.chart
    res = tuple((r - 1) // 2 + 1 for r in chart.transverse_res)
    lo, hi = chart.x1_range
    if residual is None:
        return None, "skipped (no fine residual)"
    if any((r - 1) % 2 for r in chart.transverse_res):
        return None, "skipped (even transverse_res)"
    if any(r < 3 for r in res):
        return None, "skipped (coarsened transverse_res below 3)"
    if (hi - lo) < 4.0 * chart.h1:
        return None, "skipped (x1 axis shorter than 4*h1)"
    coarse = dataclasses.replace(chart, h1=2.0 * chart.h1, transverse_res=res)
    try:
        if build_grid(coarse).shape[0] < samples:
            return None, "skipped (coarse x1 axis too short for the oracle)"
        field, report, _ = reconstruct(cfg, coarse)
        if not report.complete:
            return None, f"stopped ({report.status})"
        # complete: the reached grid is the whole coarse grid, long enough
        coarse_residual, _ = residual_of(field, sources)
    except SemigeoError as err:
        return None, f"error ({err})"
    return coarse_residual, "done"


def _run_check_chart(cfg, grid, out):
    lines = [("mode", "check-chart"), ("status", "Complete")]
    tol = cfg.tolerances.degeneracy_tol
    metric = None
    if "g" in cfg.fields:
        metric = MetricField.from_fields(grid, cfg.fields["g"], e=cfg.chart.e)
    if "gamma" in cfg.fields:
        conn = ConnectionField.from_fields(grid, cfg.fields["gamma"])
    else:
        conn, _ = christoffel_from_metric(metric, degeneracy_tol=tol)
    # lemma1_check is this same read of Gamma^h_11, so both lines share it
    residual = pre_semigeodesic_residual(conn)
    lines.append(("pre_semigeodesic_residual", residual))
    lines.append(("lemma1_residual", residual))
    if metric is not None:
        r11, r1j = semigeodesic_check(metric)
        lines.append(("semigeodesic_axial_residual", r11))
        lines.append(("semigeodesic_cross_residual", r1j))
        s_max = float(grid.x1_samples[-1])
        step = grid.spacing(1)
        if s_max >= step:
            mesh = grid.transverse_mesh()
            count = len(mesh[0])
            # five evenly spaced picks, rounded half to even, as sorted distinct
            # ints: np.unique would import numpy.ma mid-run
            picks = sorted({round(k * (count - 1) / 4) for k in range(5)})
            # one shot per pick, all marched at once: from x1 = 0 along the x1 axis
            x0 = np.array([np.zeros(len(picks))] + [m[picks] for m in mesh])
            v0 = np.zeros_like(x0)
            v0[0] = 1.0
            shots = geodesic_shoot(conn, x0, v0, s_max, step, guards=cfg.tolerances.guards())
            worst = 0.0
            for rank, (curve, stop) in enumerate(shots, start=1):
                write_curve_dump(out / f"curve_{rank}.csv", curve)
                lines.append((f"curve_{rank}_samples", len(curve.s)))
                if stop is not None:
                    lines.append((f"curve_{rank}_stop", str(stop)))
                worst = max(worst, unit_speed_residual(metric, curve))
            lines.append(("unit_speed_residual", worst))
    return 0, lines


def run(cfg, mode, out):
    """Execute one validated configuration; returns the exit code.

    Writes the mode's dumps plus report.txt into ``out``.  Numerical
    stops still produce dumps covering the reached x1 range.  Invalid
    input found mid-run (a SemigeoError), or a lattice the process
    cannot hold (a MemoryError), still writes a report with ``status:
    InvalidInput``, the message and exit code 2, then re-raises.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        code, lines = _run_mode(cfg, mode, out)
    except (SemigeoError, MemoryError) as err:
        error = ("error", _message(err))
        _write_report(out, [("mode", mode), ("status", "InvalidInput"), error], 2)
        raise
    _write_report(out, lines, code)
    return code


def _run_mode(cfg, mode, out):
    if mode == "forward":
        return _run_forward(cfg, build_grid(cfg.chart), out)
    if mode in ("reconstruct-metric", "roundtrip-metric"):
        tol = cfg.tolerances.degeneracy_tol
        oracle = None
        if mode == "roundtrip-metric":
            oracle = (
                lambda metric, sources: metric_roundtrip_residual(metric, sources, tol),
                METRIC_ORACLE_SAMPLES,
            )
        return _run_reconstruction(cfg, out, mode, _reconstruct_metric, oracle, "metric.csv")
    if mode in ("reconstruct-connection", "roundtrip-connection"):
        oracle = None
        if mode == "roundtrip-connection":
            oracle = (connection_roundtrip_residual, CONNECTION_ORACLE_SAMPLES)
        return _run_reconstruction(
            cfg, out, mode, _reconstruct_connection, oracle, "connection.csv"
        )
    return _run_check_chart(cfg, build_grid(cfg.chart), out)


def _message(err):
    """One line naming what went wrong; a bare MemoryError carries no text."""
    return str(err) or "out of memory"


def main(argv=None):
    args = build_parser().parse_args(argv)
    # numpy advises huge pages on every array of 4 MB or more, so the
    # pages of a partly written one (the metric's zero slots, a stopped
    # march's rows) become resident 2 MB at a time; the run's arrays
    # take small pages, and the caller's advice is restored after it
    hugepages = np._core.multiarray._set_madvise_hugepage(False)
    try:
        cfg = load_config(args.config)
        mode = validate_for_mode(cfg, args.mode)
        out = args.out if args.out is not None else cfg.out
        if out is None:
            raise ConfigError("no output directory: give --out or [run] out")
        for name in defaulted_components(cfg, mode):
            print(f"note: {name} not set, defaulting to 0", file=sys.stderr)
        return run(cfg, mode, out)
    except (OSError, SemigeoError, MemoryError) as err:
        print(f"error: {_message(err)}", file=sys.stderr)
        return 2
    finally:
        np._core.multiarray._set_madvise_hugepage(hugepages)


if __name__ == "__main__":
    sys.exit(main())
