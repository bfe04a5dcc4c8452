"""Spans and counters around semigeo's layers, recorded from outside.

``install`` replaces public functions of the semigeo modules with
wrappers, in every semigeo module namespace that holds them (the
modules import each other's functions by name), so no source under
``src/`` changes.  Wrapped functions record a span (name, parent,
start, end); hot functions only bump a counter.  ``layer_metrics``
turns the spans and counters of one traced pass into the per-layer
metrics.

Spans nest on one stack, so traced runs use ``--threads 1``.
"""

import functools
import importlib
import os
import sys
import time

# (metric, module, function): functions whose calls are counted, not timed
COUNTED = (
    ("ode.rk4_steps", "semigeo.ode", "rk4_step"),
    ("grid_field.interpolate_calls", "semigeo.grid_field", "interpolate"),
)

# (span name, module, function): functions timed as spans
TIMED = (
    ("config.load", "semigeo.config", "load_config"),
    ("config.validate", "semigeo.config", "validate_for_mode"),
    ("expr.eval", "semigeo.expr", "eval_field_on"),
    ("metric_recon.march", "semigeo.metric_recon", "reconstruct_metric"),
    ("connection_recon.reconstruct", "semigeo.connection_recon", "reconstruct_connection"),
    ("connection_recon.stage1", "semigeo.connection_recon", "stage1_integrate"),
    ("connection_recon.stage2", "semigeo.connection_recon", "stage2_integrate"),
    ("curvature.christoffel", "semigeo.curvature", "christoffel_from_metric"),
    ("curvature.curvature13", "semigeo.curvature", "curvature13"),
    ("curvature.curvature04", "semigeo.curvature", "curvature04_semigeo"),
    ("cli.metric_residual", "semigeo.cli", "metric_roundtrip_residual"),
    ("cli.connection_residual", "semigeo.cli", "connection_roundtrip_residual"),
    ("grid_field.dump", "semigeo.grid_field", "write_tensor_dump"),
    ("grid_field.dump", "semigeo.grid_field", "write_curve_dump"),
    ("chart_check.shoot", "semigeo.chart_check", "geodesic_shoot"),
    ("chart_check.unit_speed", "semigeo.chart_check", "unit_speed_residual"),
)

# spans whose chart step tells a Richardson coarse rerun from the fine run
CHART_H1 = {
    "metric_recon.march": lambda args, kwargs: _arg(args, kwargs, 3, "spec").h1,
    "connection_recon.reconstruct": lambda args, kwargs: _arg(args, kwargs, 2, "spec").h1,
    "cli.metric_residual": lambda args, kwargs: args[0].grid.chart.h1,
    "cli.connection_residual": lambda args, kwargs: args[0].grid.chart.h1,
}

COUNT_METRICS = (
    "ode.rk4_steps",
    "expr.eval_calls",
    "expr.eval_points",
    "grid_field.interpolate_calls",
    "grid_field.dump_bytes",
    "grid_field.dump_rows",
)

TIME_METRICS = (
    "config.parse_s",
    "expr.eval_s",
    "metric_recon.march_s",
    "connection_recon.stage1_s",
    "connection_recon.stage2_s",
    "curvature.christoffel_s",
    "curvature.curvature13_s",
    "curvature.curvature04_s",
    "cli.coarse_rerun_s",
    "grid_field.dump_s",
    "chart_check.shoot_s",
    "chart_check.unit_speed_s",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_lines(path):
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


class Tracer:
    """In-memory spans and counters of one single-threaded CLI invocation."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end, chart h1 or None]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = []

    def add(self, name, amount):
        self.counts[name] += amount

    def counted(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn, after=None, attrs=None):
        """Wrap fn in a span; ``after(result, args, kwargs)`` runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [name, parent, 0.0, 0.0, attrs(args, kwargs) if attrs else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper


def _replace(original, wrapper):
    """Point every semigeo module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "semigeo" or name.startswith("semigeo."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Import and wrap semigeo's layers; returns a dict that receives the
    config's h1 once the CLI has loaded it."""
    for module in ("semigeo.cli", "semigeo.chart_check", "semigeo.ode"):
        importlib.import_module(module)
    config = {}

    def after_load(cfg, args, kwargs):
        config["h1"] = cfg.chart.h1

    def after_eval(result, args, kwargs):
        tracer.add("expr.eval_calls", 1)
        tracer.add("expr.eval_points", int(getattr(result, "size", 1)))

    def after_dump(result, args, kwargs):
        path = _arg(args, kwargs, 0, "path")
        tracer.add("grid_field.dump_bytes", os.path.getsize(path))
        tracer.add("grid_field.dump_rows", _count_lines(path) - 1)

    after = {"config.load": after_load, "expr.eval": after_eval, "grid_field.dump": after_dump}
    for metric, module, func in COUNTED:
        original = getattr(sys.modules[module], func)
        _replace(original, tracer.counted(metric, original))
    for name, module, func in TIMED:
        original = getattr(sys.modules[module], func)
        _replace(original, tracer.timed(name, original, after.get(name), CHART_H1.get(name)))
    return config


# ------------------------------------------------------------------ analysis


def layer_metrics(ops):
    """Per-layer metrics summed over the traced operations of one pass.

    ``ops`` is a list of span documents as written by ``trace_child.py``:
    {"spans": [...], "counts": {...}, "config_h1": float, "wall_s": float}.
    Times are inclusive span time, except the marches and stages, which
    are self times (their expression-evaluation child spans subtracted).
    """
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    main_s = 0.0
    inclusive = {
        "config.load": "config.parse_s",
        "config.validate": "config.parse_s",
        "expr.eval": "expr.eval_s",
        "curvature.christoffel": "curvature.christoffel_s",
        "curvature.curvature13": "curvature.curvature13_s",
        "curvature.curvature04": "curvature.curvature04_s",
        "grid_field.dump": "grid_field.dump_s",
        "chart_check.shoot": "chart_check.shoot_s",
        "chart_check.unit_speed": "chart_check.unit_speed_s",
    }
    self_time = {
        "metric_recon.march": "metric_recon.march_s",
        "connection_recon.stage1": "connection_recon.stage1_s",
        "connection_recon.stage2": "connection_recon.stage2_s",
    }
    for doc in ops:
        spans = doc["spans"]
        main_s += doc["wall_s"]
        for key in COUNT_METRICS:
            counts[key] += doc["counts"][key]
        children = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent is not None:
                children[parent] += end - start
        coarse_h1 = 2.0 * doc["config_h1"] if doc["config_h1"] is not None else None
        for index, (name, parent, start, end, h1) in enumerate(spans):
            if name in inclusive:
                totals[inclusive[name]] += end - start
            elif name in self_time:
                totals[self_time[name]] += (end - start) - children[index]
            if h1 is not None and h1 == coarse_h1:
                totals["cli.coarse_rerun_s"] += end - start
    metrics = dict(totals)
    metrics.update(counts)
    metrics["cli.coarse_share"] = totals["cli.coarse_rerun_s"] / main_s if main_s else 0.0
    dump_s = totals["grid_field.dump_s"]
    metrics["grid_field.dump_mb_per_s"] = counts["grid_field.dump_bytes"] / 1e6 / dump_s if dump_s else 0.0
    return metrics
