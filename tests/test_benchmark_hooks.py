"""Every semigeo function the benchmark tracer wraps by name still exists.

``perfbench/tracing.py`` counts and times semigeo's layers by wrapping
functions it names as (module, function) pairs; a rename in ``src/``
would break traced benchmark runs without failing any other test.  Its
``CHART_H1`` entries read a wrapped function's chart step from an
argument position, so a signature edit that moves that argument would
misattribute the Richardson coarse rerun instead of failing.  The
tracer module is loaded from its path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
HOOKS = sorted({(module, func) for _, module, func in tracing.COUNTED + tracing.TIMED})


def test_hooks_listed():
    assert ("semigeo.ode", "rk4_step") in HOOKS
    assert ("semigeo.chart_check", "geodesic_shoot") in HOOKS


@pytest.mark.parametrize("module, func", HOOKS, ids=lambda v: v)
def test_hook_resolves(module, func):
    assert callable(getattr(importlib.import_module(module), func))


SPANS = {name: (module, func) for name, module, func in tracing.TIMED}

# the parameter each CHART_H1 entry must read the chart step from: the
# chart of a reconstruction, the reconstructed field of a residual
CHART_SOURCE = {
    "metric_recon.march": "spec",
    "connection_recon.reconstruct": "spec",
    "cli.metric_residual": "metric",
    "cli.connection_residual": "conn",
}


class Probe:
    """Stands for one argument; any chart step read through it is its name."""

    def __init__(self, name):
        self.h1 = name
        self.grid = SimpleNamespace(chart=self)


def test_every_chart_h1_entry_is_checked():
    assert set(tracing.CHART_H1) == set(CHART_SOURCE)


@pytest.mark.parametrize("span", sorted(CHART_SOURCE))
def test_chart_h1_reads_its_parameter(span):
    module, func = SPANS[span]
    params = inspect.signature(getattr(importlib.import_module(module), func)).parameters
    read = tracing.CHART_H1[span]
    assert read([Probe(p) for p in params], {}) == CHART_SOURCE[span]
    if CHART_SOURCE[span] == "spec":
        # the chart may also come by keyword
        assert read([], {p: Probe(p) for p in params}) == "spec"
