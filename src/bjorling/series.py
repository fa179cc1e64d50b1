"""Truncated power series used throughout the solver.

``Ring`` derives differences, negation, reflected operands and integer
powers from a type's own sum and product; ``ArraySeries`` adds the
coefficient-array storage, sums, scalings and truncation.  On top:

* ``USeries``: univariate real jets in t = u - center, used for curve and
  field data along the initial curve.
* ``BiSeries``: bivariate real series with a dense triangular coefficient
  table, c[m, n] multiplying ``(u - center)^m * v^n`` for ``m + n <= order``.
  Truncation is by total degree, which is the shape the order-by-order
  marching recurrence produces naturally.  Algebra-valued data is a
  (re, unit) pair of such tables.
* ``slices.TapeNode``, a value recorded on the rebuild's frame tape, is a
  ``Ring`` too.

Everything is immutable in practice: operations return new objects and
never mutate their inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotInvertible


@lru_cache(maxsize=None)
def _triangle_mask(order: int) -> np.ndarray:
    m = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _band_gathers(order: int) -> tuple:
    # One (m0, m1, left, right) per band [m0, m1) of output u-degrees.  The
    # band's pairs P = (i, j) are those with i < m1, j <= order - m0 and
    # i + j <= order: no other pair reaches an entry m + k <= order with m in
    # the band.  left[m - m0, P] is the flat index of x[m - i, j] and
    # right[P, k] that of y[i, k - j], k <= order - m0; a negative degree
    # gets the pad's index.  The band count, about one per three orders
    # above 7, was the fastest measured for the certificate's 6 x 6 stacks
    # at orders 12 to 48; up to order 12 the one band is the whole product.
    n1 = order + 1
    bands = max(1, (order - 7) // 3)
    i, j = np.nonzero(_triangle_mask(order))
    edges = [n1 * b // bands for b in range(bands + 1)]
    out = []
    for m0, m1 in zip(edges, edges[1:]):
        keep = (i < m1) & (j <= order - m0)
        bi, bj = i[keep], j[keep]
        m, k = np.arange(m0, m1)[:, None], np.arange(n1 - m0)[:, None]
        left = np.where(m >= bi, (m - bi) * n1 + bj, n1 * n1)
        right = np.where(k >= bj, bi * n1 + k - bj, n1 * n1).T.copy()
        left.setflags(write=False)
        right.setflags(write=False)
        out.append((m0, m1, left, right))
    return tuple(out)


def pair_products(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sums of every truncated product x[s] * y[t] of two stacks of
    triangular tables.

    ``x``, ``y`` are (p, n+1, n+1), (q, n+1, n+1) and ``weights`` (o, p, q);
    the result (o, n+1, n+1) has as table r the sum of weights[r, s, t]
    times the product x[s] * y[t], whose [m, k] is the sum of
    x[s, m - i, j] y[t, i, k - j] over i + j <= n.  The p q products are
    never stored.  The output u-degrees are cut into bands; each band is
    one matmul of the u-Toeplitz stack of x with the v-shifted stack of y,
    over only the v-degrees and pairs that reach the kept triangle from
    that band, and the weights contract that band's output.
    """
    p, q, n1 = x.shape[0], y.shape[0], x.shape[1]
    size = n1 * n1
    xf = np.zeros((p, size + 1))  # flat tables and the pad
    xf[:, :size] = x.reshape(p, size)
    yt = np.zeros((size + 1, q))
    yt[:size] = y.reshape(q, size).T
    keep = _triangle_mask(n1 - 1)
    out = np.zeros((len(weights), n1, n1))
    for m0, m1, left, right in _band_gathers(n1 - 1):
        rows, cols = m1 - m0, n1 - m0
        a = np.take(xf, left, axis=1).reshape(p * rows, left.shape[1])
        b = np.take(yt, right, axis=0).reshape(right.shape[0], cols * q)
        band = (a @ b).reshape(p, rows, cols, q)
        band = np.tensordot(weights, band, axes=([1, 2], [0, 3]))
        np.copyto(out[:, m0:m1, :cols], band, where=keep[m0:m1, :cols])
    return out


def table_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The truncated products x[k] * y[k] of two (p, n+1, n+1) stacks of
    triangular tables, shape (p, n+1, n+1).

    The bands are ``pair_products``'s, and each band is one batched matmul
    of the u-Toeplitz tables of x with the v-shifted tables of y, which
    makes each pair's product by the same matrix product as a stack of
    that one pair: a product has the same bits alone or in a stack.
    """
    p, n1 = x.shape[0], x.shape[1]
    size = n1 * n1
    flat = np.zeros((2, p, size + 1))  # flat tables of x and y, and the pad
    flat[0, :, :size] = x.reshape(p, size)
    flat[1, :, :size] = y.reshape(p, size)
    keep = _triangle_mask(n1 - 1)
    out = np.zeros((p, n1, n1))
    for m0, m1, left, right in _band_gathers(n1 - 1):
        band = np.take(flat[0], left, axis=1) @ np.take(flat[1], right, axis=1)
        np.copyto(out[:, m0:m1, : n1 - m0], band, where=keep[m0:m1, : n1 - m0])
    return out


def lower_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two series' coefficient arrays of one kind, both cut to the lower of
    their orders: the operands of every sum and product of two series."""
    n = min(a.shape[0], b.shape[0])
    return a[(slice(n),) * a.ndim], b[(slice(n),) * b.ndim]


def _leading_sum(x: list, y: list, lo: int, k: int) -> float:
    # 0.0 + x[lo] y[k - lo] + ... + x[k-1] y[1] on Python floats: the
    # terms and order of ``jet_product``'s coefficient k up to degree k - 1
    # of x, so that a quotient times its divisor, or a root times itself,
    # gives back the coefficients it was solved from as closely as the
    # last term's rounding allows.
    s = 0.0
    for j in range(lo, k):
        s += x[j] * y[k - j]
    return s


def jet_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of the sum of two series, at the lower order."""
    a, b = lower_pair(a, b)
    return a + b


@lru_cache(maxsize=None)
def _anti_diagonals(n: int) -> np.ndarray:
    # (2, n+1, n) gathers from the two operands' n + 1 padded degrees, laid
    # end to end: term r of output k is degree j = r - n + k of the left one
    # times degree k - j of the right one, or the two pads' zeros where
    # j < 0.  Row 0 is all pads, and the degrees j <= k follow in rising order.
    r, k = np.arange(n + 1)[:, None], np.arange(n)
    j = r - n + k
    out = np.stack([np.where(j >= 0, j, n), np.where(j >= 0, n + 1 + k - j, 2 * n + 1)])
    out.setflags(write=False)
    return out


def jet_product(a, b: np.ndarray) -> np.ndarray:
    """The coefficients of the products of two stacks of univariate jets,
    (..., K) and (..., L), which broadcast over their leading axes: the
    truncated product of each pair, at the lower order min(K, L), in one
    array call.  A number ``a`` scales ``b``, as it scales a ``USeries``.

    Coefficient k is 0.0 + a_0 b_k + a_1 b_(k-1) + ... + a_k b_0, summed
    in that order and nothing else: one gather of the terms, one multiply
    and one sum over an outer axis.  So a product has the same bits alone,
    in any stack and cut from a longer one, a zero coefficient is +0.0,
    and a coefficient that is not finite reaches exactly the coefficients
    from its own degree on, as in ``np.convolve``, whose bits (a BLAS dot
    per coefficient) this does not keep.
    """
    if not isinstance(a, np.ndarray):
        return b * float(a)
    n = min(a.shape[-1], b.shape[-1])
    a, b = a[..., :n], b[..., :n]
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    # Degrees first, then the stack's axes reversed (.T), so the sum over
    # the terms adds whole contiguous slices in order; row n is the pad.
    stack = a.shape[-2::-1]
    degrees = np.zeros((2, n + 1) + stack)
    degrees[0, :n], degrees[1, :n] = a.T, b.T
    terms = degrees.reshape((2 * n + 2,) + stack).take(_anti_diagonals(n), axis=0)
    np.multiply(terms[0], terms[1], out=terms[0])
    return np.add.reduce(terms[0], axis=0).T


def table_stack(series) -> np.ndarray:
    """Coefficient arrays of a sequence of series of one kind (USeries or
    BiSeries) as one zero-padded stack, (k, n+1) of jets or (k, n+1, n+1)
    of tables at the highest order; a number in the sequence is a
    constant."""
    arrays = [getattr(f, "coeffs", None) for f in series]
    out = np.zeros((len(arrays), *max(a.shape for a in arrays if a is not None)))
    for table, a, f in zip(out, arrays, series):
        if a is None:
            table.flat[0] = f
        else:
            table[(slice(len(a)),) * a.ndim] = a
    return out


def power_table(x, n: int) -> np.ndarray:
    """Powers x^0, ..., x^n of finite x along a new last axis: shape
    (*x.shape, n+1), x at least 1-D.  Each power is the previous one times
    x (one ``multiply.accumulate``), after x + 0.0 turns -0.0 into 0.0.

    These are the values of numpy's power-basis Vandermonde matrix, and its
    memory layout too: the table is the ``moveaxis`` of a (n+1, *x.shape)
    array.  The layout picks the BLAS transposition of every product with
    the table, and so the kernel and the last bits of the result.
    """
    x = np.array(x, dtype=float, copy=None, ndmin=1)
    v = np.empty((n + 1,) + x.shape)
    v[0] = 1.0
    v[1:] = x + 0.0
    np.multiply.accumulate(v, axis=0, out=v)
    return np.moveaxis(v, 0, -1)


def u_rows(tables: np.ndarray, center: float, us) -> np.ndarray:
    """Rows T_u C of every table C of a (..., n+1, n+1) stack, T_u the power
    table of us - center: shape (..., *us.shape, n+1).  Contracting the
    last axis with the powers of v gives the values (``v_product`` on a
    grid); the powers of v = 0 pick column 0."""
    u = np.asarray(us, dtype=float)
    n = tables.shape[-1] - 1
    lead = tables.shape[:-2] + (1,) * max(u.ndim - 1, 0)
    return power_table(u - center, n) @ tables.reshape(lead + tables.shape[-2:])


def v_product(rows: np.ndarray, vs) -> np.ndarray:
    """Values on the tensor grid us x vs from the ``u_rows`` of a stack on
    us: rows T_v^T, shape (..., len(us), len(vs))."""
    return rows @ power_table(vs, rows.shape[-1] - 1).T


def grid_values(tables: np.ndarray, center: float, us, vs) -> np.ndarray:
    """Values of a (..., n+1, n+1) stack of tables about (center, 0) on the
    tensor grid us x vs, shape (..., len(us), len(vs)): one matmul chain
    T_u C T_v^T for the whole stack."""
    return v_product(u_rows(tables, center, us), vs)


def dv_tables(tables: np.ndarray) -> np.ndarray:
    """d/dv of every table of a (..., n+1, n+1) stack, truncated to order
    n - 1: shape (..., n, n).  ``du_tables`` is d/du."""
    n = tables.shape[-1] - 1
    return tables[..., :n, 1:] * np.arange(1.0, n + 1)


def du_tables(tables: np.ndarray) -> np.ndarray:
    return dv_tables(tables.swapaxes(-1, -2)).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# the shared ring operations


class Ring:
    """Operators derived from a type's own ``+``, ``*`` and ``one()``.

    A subclass defines ``__add__`` and ``__mul__`` for its own type and for
    numbers, and ``one()``, the constant 1 of its kind; differences,
    negation, reflected operands and integer powers k >= 0 follow from
    those.  A power k >= 1 is x times x ** (k - 1) by repeated squaring, so
    it makes at most k - 1 products and never one with the constant 1.
    """

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1.0

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return self.one()
        out, base, exponent = self, self, exponent - 1
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out


class ArraySeries(Ring):
    """A truncated series stored as one coefficient array about ``center``,
    with one axis per variable indexed by its degree.

    Sums pair two series of one type and center at the lower order, or add
    a number to the constant term; numbers scale and divide.  Subclasses
    add their product.
    """

    __slots__ = ("coeffs", "center")
    NDIM: int  # axes of ``coeffs``, one per variable

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def constant(cls, value: float, order: int, center: float = 0.0):
        c = np.zeros((order + 1,) * cls.NDIM)
        c[(0,) * cls.NDIM] = value
        return cls(c, center)

    def one(self):
        return self.constant(1.0, self.order, self.center)

    def truncated(self, order: int):
        if order >= self.order:
            return self
        return type(self)(self.coeffs[(slice(order + 1),) * self.NDIM], self.center)

    def _same_center(self, other) -> np.ndarray:
        # other's coefficients, once the two are known to share a center.
        if self.center != other.center:
            raise ValueError(f"center mismatch: {self.center} vs {other.center}")
        return other.coeffs

    def __add__(self, other):
        if isinstance(other, type(self)):
            return type(self)(jet_sum(self.coeffs, self._same_center(other)), self.center)
        if isinstance(other, (int, float)):
            c = np.zeros_like(self.coeffs)
            c[(0,) * self.NDIM] = float(other)
            return type(self)(self.coeffs + c, self.center)
        return NotImplemented

    def _scaled(self, factor):
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return type(self)(self.coeffs * float(factor), self.center)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return type(self)(self.coeffs / float(other), self.center)

    def maxabs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, center={self.center:g})"


# ---------------------------------------------------------------------------
# univariate jets


class USeries(ArraySeries):
    """Taylor jet of one real-analytic function of u about ``center``.

    Products are ``jet_product``'s, alone or in stacks.  Quotients, square
    roots and exp, sin, cos, sinh, cosh are forward Taylor recurrences:
    coefficient k follows from the coefficients below it (Griewank &
    Walther, Evaluating Derivatives, ch. 13), on Python floats.  Quotients
    and square roots sum their known terms in ``jet_product``'s order;
    exp, sin, cos, sinh and cosh sum over the nonzero coefficients of the
    argument's derivative only.
    """

    __slots__ = ()
    NDIM = 1

    def __init__(self, coeffs, center: float = 0.0):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        self.coeffs = c
        self.center = float(center)

    @staticmethod
    def variable(order: int, center: float = 0.0) -> "USeries":
        """The function u itself: constant term is the center."""
        c = np.zeros(order + 1)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return USeries(c, center)

    def __mul__(self, other):
        if isinstance(other, USeries):
            return USeries(jet_product(self.coeffs, self._same_center(other)), self.center)
        return self._scaled(other)

    def __truediv__(self, other):
        if not isinstance(other, USeries):
            return super().__truediv__(other)
        a, b = lower_pair(self.coeffs, self._same_center(other))
        if abs(b[0]) <= 1e-300:
            raise NotInvertible("division by a jet with zero constant term")
        if not np.all(np.isfinite(b)):  # an infinite b_0 would give q = 0
            raise ValueError("division by a non-finite jet")
        # a = b q degree by degree: q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0.
        b, q = b.tolist(), []
        for k, a_k in enumerate(a.tolist()):
            q.append((a_k - _leading_sum(q, b, 0, k)) / b[0])
        return USeries(q, self.center)

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.constant(float(other), self.order, self.center) / self
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, int) and exponent < 0:
            return (1.0 / self) ** -exponent
        return super().__pow__(exponent)

    def deriv(self) -> "USeries":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1)
        return USeries(self.coeffs[1:] * k, self.center)

    def sqrt(self) -> "USeries":
        """Positive-branch square root; needs a positive leading value."""
        a0 = self.coeffs[0]
        if a0 <= 0.0:
            raise DomainError(
                f"square root of negative leading value {a0:g} in a real jet"
            )
        # c = r r degree by degree: r_k = (c_k - sum_{0<j<k} r_j r_{k-j}) / (2 r_0).
        c = self.coeffs.tolist()
        r = [math.sqrt(a0)]
        for k in range(1, len(c)):
            r.append((c[k] - _leading_sum(r, r, 1, k)) / (2.0 * r[0]))
        return USeries(r, self.center)

    def _paired(self, fn, gn, sign: float) -> tuple["USeries", "USeries"]:
        # F(a), G(a) for F' = G, G' = sign F (F = fn, G = gn): match
        # (F o a)' = (G o a) a' and (G o a)' = sign (F o a) a' degree by degree,
        # on Python floats.  Coefficient k >= 2 adds da[j] g[k-1-j] over the
        # nonzero da[j] only, j falling: the order of the dot product over all
        # j < k that it stands for.  A skipped term 0 * g[k-1-j] adds nothing
        # unless g[k-1-j] is not finite, where the dot made NaN; zero_f and
        # zero_g, the sums of 0 * f[i] and 0 * g[i] so far, carry that.
        c = self.coeffs.tolist()
        n = len(c) - 1
        da = [c[j + 1] * (j + 1) for j in range(n)]  # da[j] is coefficient j of a'
        terms = [j for j in reversed(range(n)) if da[j] != 0.0]
        f, g = [fn(c[0])], [gn(c[0])]
        zero_f = zero_g = 0.0
        for k in range(1, n + 1):
            zero_f += 0.0 * f[k - 1]
            zero_g += 0.0 * g[k - 1]
            if k == 1:  # a dot of one term is that product, with its zero's sign
                sum_f, sum_g = da[0] * g[0], da[0] * f[0]
            else:
                sum_f, sum_g = zero_g, zero_f
                for j in terms:
                    if j < k:
                        sum_f += da[j] * g[k - 1 - j]
                        sum_g += da[j] * f[k - 1 - j]
            f.append(sum_f / k)
            g.append(sign * sum_g / k)
        return USeries(f, self.center), USeries(g, self.center)

    def exp(self) -> "USeries":
        return self._paired(math.exp, math.exp, 1.0)[0]

    def sin(self) -> "USeries":
        return self._paired(math.sin, math.cos, -1.0)[0]

    def cos(self) -> "USeries":
        return self._paired(math.sin, math.cos, -1.0)[1]

    def sinh(self) -> "USeries":
        return self._paired(math.sinh, math.cosh, 1.0)[0]

    def cosh(self) -> "USeries":
        return self._paired(math.sinh, math.cosh, 1.0)[1]

    def eval(self, x):
        t = np.asarray(x, dtype=float) - self.center
        return np.polynomial.polynomial.polyval(t, self.coeffs)


def ode_taylor(rhs, y0: float, order: int, center: float = 0.0) -> USeries:
    """Taylor coefficients of the solution of ``y' = rhs(y)``.

    ``rhs`` must map a USeries to a USeries using only the arithmetic
    defined here (so coefficient k of the output depends on coefficients
    <= k of the input).  The k-th output coefficient then feeds the
    (k+1)-st solution coefficient; one sweep fills the whole jet.
    """
    y = np.zeros(order + 1)
    y[0] = float(y0)
    for k in range(order):
        f = rhs(USeries(y, center))
        if not isinstance(f, USeries):
            f = USeries.constant(float(f), order, center)
        y[k + 1] = f.coeffs[k] / (k + 1)
    return USeries(y, center)


# ---------------------------------------------------------------------------
# bivariate series


class BiSeries(ArraySeries):
    """Dense triangular table of a real function of (u, v) near (center, 0)."""

    __slots__ = ()
    NDIM = 2

    def __init__(self, coeffs, center: float = 0.0):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
            raise ValueError("coefficient table must be square and nonempty")
        c[~_triangle_mask(c.shape[0] - 1)] = 0.0
        self.coeffs = c
        self.center = float(center)

    def __mul__(self, other):
        if isinstance(other, BiSeries):
            a, b = lower_pair(self.coeffs, self._same_center(other))
            return BiSeries(table_products(a[None], b[None])[0], self.center)
        return self._scaled(other)

    def du(self) -> "BiSeries":
        return BiSeries(du_tables(self.coeffs), self.center)

    def dv(self) -> "BiSeries":
        return BiSeries(dv_tables(self.coeffs), self.center)

    def eval(self, u, v):
        """Value at (u, v).  u and v may be numpy arrays; they are broadcast
        together and the result has their common shape (a scalar for
        scalar arguments).  ``eval_grid`` is the tensor-grid form."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        rows = u_rows(self.coeffs, self.center, u)
        return np.einsum("...k,...k->...", rows, power_table(v, self.order)).reshape(u.shape)[()]

    def eval_grid(self, us, vs) -> np.ndarray:
        """Values on the tensor grid, shape (len(us), len(vs))."""
        return grid_values(self.coeffs, self.center, us, vs)
