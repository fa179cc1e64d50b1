"""Slice-by-slice Taylor arithmetic on stacked coefficient tables.

A table is indexed [u-degree, v-degree]; a stack adds a leading axis, and
algebra-valued data is a (re, unit) pair of tables.  One kernel,
``slice_products``, builds one v-degree slice of a product at a time,
which is what order-by-order recurrences in v need: the frame march and
the rebuild of the immersion (Griewank & Walther, Evaluating Derivatives,
2nd ed., 2008, ch. 13; Jorba & Zou, Exp. Math. 14, 2005).  Each level
writes its matrix products into a ``SkewPad``, one zeroed skew buffer that
the level loop makes once, and sums the buffer's anti-diagonals with one
ones-vector product per pair.  ``FrameTape`` records the rebuild's right
side A(x) w once so that the rebuild can fill it one v-column per level.
"""

from __future__ import annotations

import numpy as np

from .groups import mat_vec
from .series import Ring


class SkewPad:
    """A zeroed ``lead + (size, 2 size)`` buffer that a level loop keeps.

    Each level's matrix product fills ``pad[..., :rows, :rows]``.  Re-read
    with row width 2 size - 1 (``skew``), row t shifts right by t, so entry
    (t, t') lands in column t + t', and one product of ``ones[:rows]`` with
    ``skew[..., :rows, :rows]`` sums the anti-diagonals.  For c >= t,
    skew[t, c] is pad[t, c - t], which this level's product has just
    written since c - t < rows; for c < t it lies in the right half of
    the buffer, which no level writes.  So any sequence of ``rows`` <=
    ``size`` reads only this level's products and zeros.
    """

    __slots__ = ("pad", "skew", "ones")

    def __init__(self, lead: tuple, size: int):
        self.pad = np.zeros(lead + (size, 2 * size))
        flat = self.pad.reshape(lead + (2 * size * size,))
        self.skew = flat[..., : size * (2 * size - 1)].reshape(lead + (size, 2 * size - 1))
        self.ones = np.ones(size)

    def sums(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # ys, read in reverse v-order, is copied to the positive strides that
        # numpy needs to call BLAS; as a strided view it takes numpy's own
        # loop, about twice as slow at order 30.
        rows = ys.shape[-1]
        np.matmul(xs, np.ascontiguousarray(ys), out=self.pad[..., :rows, :rows])
        return self.ones[:rows] @ self.skew[..., :rows, :rows]


def slice_products(x: np.ndarray, y: np.ndarray, level: int, rows: int, pad: SkewPad) -> np.ndarray:
    """The v-degree ``level`` slice of every product of the (..., R, C)
    stacks x and y paired as numpy broadcasts them, kept to ``rows``
    u-coefficients: lead shape that of ``pad``, then ``rows``.  The march
    passes ``x[:, None]`` and ``x`` for every pair x[i] * x[k], the tape
    two stacks of operands for the pairs x[k] * y[k]."""
    ys = y[..., :rows, level::-1].swapaxes(-1, -2)
    return pad.sums(x[..., :rows, : level + 1], ys)


class TapeNode(Ring):
    """One value recorded on a ``FrameTape``: sum_k terms[k] * base_k.

    Sums, differences, scalings and divisions by a number stay affine in
    the tape's bases; a product of two nodes adds a base, and an integer
    power k >= 1 is at most k - 1 products (``series.Ring``).  A quotient
    by a node, a negative power or exp, sin, ... of a node has no
    expansion here and raises TypeError.
    """

    __slots__ = ("tape", "terms")

    def __init__(self, tape: "FrameTape", terms: dict):
        self.tape = tape
        self.terms = terms  # {base index: weight}

    @property
    def coeffs(self) -> np.ndarray:
        """The node's weights (finite for a finite frame entry)."""
        return np.array(list(self.terms.values()))

    def one(self) -> "TapeNode":
        return TapeNode(self.tape, {0: 1.0})

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = {0: float(other)}
        elif isinstance(other, TapeNode) and other.tape is self.tape:
            other = other.terms
        else:
            return NotImplemented
        terms = dict(self.terms)
        for k, w in other.items():
            terms[k] = terms.get(k, 0.0) + w
        return TapeNode(self.tape, terms)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TapeNode(self.tape, {k: w * other for k, w in self.terms.items()})
        if not (isinstance(other, TapeNode) and other.tape is self.tape):
            return NotImplemented
        return self.tape.product(self.terms, other.terms)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return TapeNode(self.tape, {k: w / other for k, w in self.terms.items()})


def _weights(forms, size: int) -> np.ndarray:
    # One row per {base index: weight} map.
    out = np.zeros((len(forms), size))
    for row, terms in zip(out, forms):
        for k, w in terms.items():
            row[k] = w
    return out


class FrameTape:
    """The rebuild's right side A(x) w, recorded once, then filled one
    v-column per level.

    ``groups.mat_vec(frame(x), w)`` is called once on six tape variables, so
    built-in lambdas and a generic group's parsed expressions give one node
    list.  Its bases are the constant 1 (index 0), the coordinates x1..x3
    (1-3), the given w1..w3 (4-6) and one per product of two nodes, in
    recording order; each component of A(x) w is an affine form in them.
    ``tables[k]`` is base k's coefficient table of the given shape.  The
    given tables are ``given``, set here in full; the coordinate tables are
    ``tables[1:4]``, whose columns the caller fills: ``column(L, rows)``
    reads columns <= L of them.  The products are cut into runs, in
    recording order, a run ending before a product with an operand made in
    it.  A level fills, run by run, the operands' column L by one fixed
    matrix and the products' by one ``slice_products`` into the run's own
    ``SkewPad``, then column L of A(x) w by one more fixed matrix.  A frame
    entry with no polynomial expansion raises TypeError while the tape is
    recorded.
    """

    def __init__(self, frame, given: np.ndarray, shape: tuple[int, int]):
        self.products = []  # (left terms, right terms) of bases 7, 8, ...
        x, w = (tuple(TapeNode(self, {k: 1.0}) for k in bases) for bases in ((1, 2, 3), (4, 5, 6)))
        forms = [e.terms if isinstance(e, TapeNode) else {0: float(e)} for e in mat_vec(frame(x), w)]
        size = 7 + len(self.products)
        self.tables = np.zeros((size, *shape))
        self.tables[0, 0, 0] = 1.0
        self.tables[4:7, : given.shape[1], : given.shape[2]] = given
        self.outputs = _weights(forms, size)
        starts = []
        for k, (left, right) in enumerate(self.products, 7):
            if not starts or max((*left, *right)) >= starts[-1]:
                starts.append(k)
        self._runs = []
        for lo, hi in zip(starts, [*starts[1:], size]):
            operands = [self.products[k - 7][side] for side in (0, 1) for k in range(lo, hi)]
            stack = np.zeros((len(operands), *shape))
            self._runs.append((lo, hi, _weights(operands, size), stack, SkewPad((hi - lo,), shape[0])))

    def product(self, left: dict, right: dict) -> TapeNode:
        self.products.append((left, right))
        return TapeNode(self, {6 + len(self.products): 1.0})

    def column(self, level: int, rows: int) -> np.ndarray:
        """Column ``level`` of every node, kept to ``rows`` u-coefficients;
        returns that of A(x) w, shape (3, rows)."""
        col = self.tables[:, :rows, level]
        for lo, hi, weights, stack, pad in self._runs:
            stack[:, :rows, level] = weights @ col
            col[lo:hi] = slice_products(stack[: hi - lo], stack[hi - lo :], level, rows, pad)
        return self.outputs @ col
