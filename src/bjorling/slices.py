"""Slice-by-slice Taylor arithmetic on stacked coefficient tables.

A table is indexed [u-degree, v-degree]; a stack adds a leading axis, and
algebra-valued data is a (re, unit) pair of tables.  The kernels build
one v-degree slice of a product at a time, which is what order-by-order
recurrences in v need: the frame march and the rebuild of the immersion
(Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008, ch. 13;
Jorba & Zou, Exp. Math. 14, 2005).
"""

from __future__ import annotations

import numpy as np


def cauchy_slice(x: np.ndarray, y: np.ndarray, level: int, rows: int) -> np.ndarray:
    """The v-degree ``level`` slice of every product x[i] * y[k].

    ``x`` and ``y`` are (p, R, C) and (q, R, C) stacks; the slice keeps
    ``rows`` u-coefficients.  Shape (p, q, rows).
    """
    return matvec_slice(x[:, None], y[:, None], level, rows).transpose(1, 0, 2)


def matvec_slice(a: np.ndarray, y: np.ndarray, level: int, rows: int) -> np.ndarray:
    """The v-degree ``level`` slice of every matrix-vector product a . y[k].

    ``a`` is a (p, q, R, C) matrix of tables and ``y`` an (r, q, R, C) stack
    of vectors; entry [k, i] is the slice of sum_j a[i, j] * y[k, j], kept
    to ``rows`` u-coefficients.  That is a Cauchy sum over the v-degrees of
    u-convolutions: one matrix product contracting j and the v-degree
    together, then anti-diagonal sums.  Shape (r, p, rows).
    """
    p, q = a.shape[:2]
    r = y.shape[0]
    xs = a[:, :, :rows, : level + 1].transpose(0, 2, 1, 3).reshape(p * rows, q * (level + 1))
    ys = y[:, :, :rows, level::-1].transpose(1, 3, 0, 2).reshape(q * (level + 1), r * rows)
    outer = (xs @ ys).reshape(p, rows, r, rows).transpose(2, 0, 1, 3)
    # Re-reading rows padded to width 2*rows with width 2*rows - 1 shifts
    # row t right by t, so entry (t, t') lands in column t + t'.
    pad = np.zeros((r, p, rows, 2 * rows))
    pad[..., :rows] = outer
    skew = pad.reshape(r, p, 2 * rows * rows)[..., : rows * (2 * rows - 1)]
    return skew.reshape(r, p, rows, 2 * rows - 1).sum(axis=2)[..., :rows]
