"""Every semigeo function the benchmark tracer wraps by name still exists.

``perfbench/tracing.py`` counts and times semigeo's layers by wrapping
functions it names as (module, function) pairs; a rename in ``src/``
would break traced benchmark runs without failing any other test.  The
tracer module is loaded from its path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

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
