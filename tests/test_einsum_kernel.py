"""The per-stage right-hand sides call np.einsum's kernel directly.

They import ``numpy._core.multiarray.c_einsum``, the call np.einsum
ends in when it does not optimize (its default), so both give the same
bytes.  These tests pin that for every subscript a right-hand side uses,
on the shapes the marches hand it, so a numpy that moves or changes the
private kernel fails here rather than in a digest.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy._core.multiarray import c_einsum

import semigeo

# subscript -> operand shapes for dimension n and node width N
SUBSCRIPTS = {
    # stage 1: Gamma^q_1b Gamma^a_1q
    "qb...,aq...->ab...": lambda n, N: [(n, n - 1, N), (n, n, N)],
    # stage 2: Gamma^q_bc Gamma^a_q1, then the cross term's state part
    "qbc...,aq...->abc...": lambda n, N: [(n, n - 1, n - 1, N), (n, n, N)],
    "qb...,aqc...->abc...": lambda n, N: [(n - 1, n - 1, N), (n, n - 1, n - 1, N)],
    # the metric march's g^{rs} G_ir G_js
    "rs...,ir...,js...->ij...": lambda n, N: [(n - 1, n - 1, N)] * 3,
    # a geodesic shot's Gamma^h_ij v^i v^j
    "hijN,iN,jN->hN": lambda n, N: [(n, n, n, N), (n, N), (n, N)],
}

RHS_MODULES = ("connection_recon.py", "metric_recon.py", "chart_check.py")


def test_every_kernel_call_is_pinned():
    calls = set()
    for name in RHS_MODULES:
        path = Path(semigeo.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "c_einsum":
                calls.add(node.args[0].value)
    assert calls == set(SUBSCRIPTS)


def operand(rng, shape, strided):
    """Random values with -0.0, inf, -inf and NaN entries, optionally a strided view."""
    values = rng.standard_normal(shape)
    flat = values.reshape(-1)
    specials = [-0.0, np.inf, -np.inf, np.nan, 0.0]
    at = rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False)
    flat[at] = specials[: len(at)]
    if not strided:
        return values
    wide = np.full(shape[:-1] + (2 * shape[-1],), 7.0)
    wide[..., ::2] = values
    return wide[..., ::2]


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("width", [1, 2, 3, 7, 25])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_kernel_keeps_np_einsum_bits(subscripts, n, width, strided):
    rng = np.random.default_rng([n, width, len(subscripts)])
    ops = [operand(rng, shape, strided) for shape in SUBSCRIPTS[subscripts](n, width)]
    with np.errstate(invalid="ignore", over="ignore"):
        got = c_einsum(subscripts, *ops)
        want = np.einsum(subscripts, *ops)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
