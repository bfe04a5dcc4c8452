"""Vectorized determinants and inverses for small dense matrices.

Matrices come in stacks shaped (k, k, N).  Sizes k <= 3 use explicit
adjugate formulas (deterministic, branch-free); larger sizes fall back to
numpy's pivoted routines.  ``inv_sym`` mirrors the upper triangle into the
lower one so the inverse of a symmetric stack is symmetric bit-for-bit;
``mirror_upper`` does the same for any pair of adjacent axes.
"""

import numpy as np


def det_stack(m):
    m = np.asarray(m, dtype=np.float64)
    k = m.shape[0]
    if k == 1:
        return m[0, 0].copy()
    if k == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if k == 3:
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    return np.linalg.det(np.moveaxis(m, (0, 1), (-2, -1)))


def inv_stack(m, det=None):
    m = np.asarray(m, dtype=np.float64)
    k = m.shape[0]
    if det is None:
        det = det_stack(m)
    if k == 1:
        return (1.0 / m).copy()
    if k == 2:
        out = np.empty_like(m)
        out[0, 0] = m[1, 1] / det
        out[1, 1] = m[0, 0] / det
        out[0, 1] = -m[0, 1] / det
        out[1, 0] = -m[1, 0] / det
        return out
    if k == 3:
        out = np.empty_like(m)
        out[0, 0] = (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]) / det
        out[0, 1] = (m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]) / det
        out[0, 2] = (m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]) / det
        out[1, 0] = (m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]) / det
        out[1, 1] = (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]) / det
        out[1, 2] = (m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]) / det
        out[2, 0] = (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]) / det
        out[2, 1] = (m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]) / det
        out[2, 2] = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / det
        return out
    inv = np.linalg.inv(np.moveaxis(m, (0, 1), (-2, -1)))
    return np.moveaxis(inv, (-2, -1), (0, 1))


def inv_sym(m, det=None):
    """Inverse of a symmetric stack, exactly symmetric in the output."""
    return mirror_upper(inv_stack(m, det))


def mirror_upper(a, axis=0):
    """Copy the i <= j half of axes (axis, axis + 1) onto the other half.

    Works in place and returns ``a``; values are only assigned, so the
    i <= j entries keep their bytes and the result is exactly symmetric.
    """
    lead = (slice(None),) * axis
    k = a.shape[axis]
    for i in range(k):
        for j in range(i + 1, k):
            a[lead + (j, i)] = a[lead + (i, j)]
    return a
