import numpy as np
import pytest

from semigeo.linalg import det_stack, inv_stack, inv_sym, mirror_upper


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_det_matches_numpy(k):
    rng = np.random.default_rng(k)
    m = rng.normal(size=(k, k, 20))
    ref = np.linalg.det(np.moveaxis(m, (0, 1), (-2, -1)))
    assert np.allclose(det_stack(m), ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_inverse_reproduces_identity(k):
    rng = np.random.default_rng(10 + k)
    m = rng.normal(size=(k, k, 15)) + 3.0 * np.eye(k)[:, :, None]
    inv = inv_stack(m)
    prod = np.einsum("ij...,jk...->ik...", m, inv)
    assert np.allclose(prod, np.eye(k)[:, :, None], atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_symmetric_inverse_is_exactly_symmetric(k):
    rng = np.random.default_rng(20 + k)
    a = rng.normal(size=(k, k, 15))
    m = a + np.swapaxes(a, 0, 1) + 4.0 * np.eye(k)[:, :, None]
    inv = inv_sym(m)
    for i in range(k):
        for j in range(i + 1, k):
            assert np.array_equal(inv[i, j], inv[j, i])


def test_det_is_deterministic():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3, 100))
    assert np.array_equal(det_stack(m), det_stack(m.copy()))


def test_size_one_stack():
    m = np.array([[[2.0, 4.0]]])
    assert np.array_equal(det_stack(m), np.array([2.0, 4.0]))
    assert np.array_equal(inv_stack(m), np.array([[[0.5, 0.25]]]))


@pytest.mark.parametrize("axis", [0, 1])
def test_mirror_upper_copies_upper_half(axis):
    a = np.random.default_rng(30 + axis).normal(size=(2,) * axis + (3, 3, 4))
    before = a.copy()
    out = mirror_upper(a, axis=axis)
    assert out is a
    lead = (slice(None),) * axis
    for i in range(3):
        for j in range(3):
            src = (i, j) if i <= j else (j, i)
            assert np.array_equal(a[lead + (i, j)], before[lead + src])
