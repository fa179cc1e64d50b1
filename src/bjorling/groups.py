"""Three-dimensional Lorentzian Lie group models.

Each model carries an orthonormal left-invariant frame E1, E2, E3 with
signature (+, +, -), the structure constants of the frame bracket, the
derived connection table that drives the frame-field PDE system, and the
chart data (frame matrix A, from which A^-1 follows, and domain guard).

Conventions: ``C[a, b, c]`` is the c-component of [E_a, E_b] (0-based
indices).  The connection table gamma satisfies nabla_{E_a} E_b =
sum_c gamma[a, b, c] E_c and equals half of the Koszul combination
``L[a,b,c] = C[a,b,c] - C[b,c,a] e_a e_c - C[a,c,b] e_b e_c``.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .errors import DomainError, NotInvertible, UnsupportedRecipe
from .expressions import evaluate_series, parse_expression
from .series import BiSeries, table_products

SIGNATURE = np.array([1.0, 1.0, -1.0])


def lorentz_cross(y, w):
    """Frame-component cross product adapted to the (+, +, -) metric.

    Works on any triple of multiplicable components (floats, arrays, jets).
    Antisymmetric; the output is g-orthogonal to both inputs.
    """
    return (
        y[1] * w[2] - w[1] * y[2],
        y[2] * w[0] - w[2] * y[0],
        y[1] * w[0] - w[1] * y[0],
    )


def lorentz_dot(y, w):
    """Frame-component inner product y1*w1 + y2*w2 - y3*w3."""
    return y[0] * w[0] + y[1] * w[1] - y[2] * w[2]


def connection_from_structure(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Koszul table L and connection table gamma = L/2 from structure constants.

    The structure constants must be finite and exactly antisymmetric in
    their lower pair.  Metric compatibility of the result (gamma[a,b,c] e_c =
    -gamma[a,c,b] e_b) is automatic and covered by tests.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3, 3):
        raise ValueError("structure constants must form a 3x3x3 table")
    if not np.isfinite(C).all():
        raise ValueError("structure constants must be finite numbers")
    if not (C == -C.transpose(1, 0, 2)).all():
        raise ValueError("structure constants must be antisymmetric in a, b")
    ee = np.multiply.outer(SIGNATURE, SIGNATURE)  # the transposes hold C[b, c, a], C[a, c, b]
    L = C - C.transpose(2, 0, 1) * ee[:, None] - C.transpose(0, 2, 1) * ee
    return L, L / 2.0


def _stack(nest, shape, dtype=float) -> np.ndarray:
    # A 3x3 nest of numbers and arrays as one (3, 3, *shape) array.
    out = np.empty((3, 3) + shape, dtype)
    for i, row in enumerate(nest):
        for j, entry in enumerate(row):
            out[i, j] = entry
    return out


def _times(p, q, times=operator.mul):
    # p q, with no array or jet operation for a factor that is the number 0.0 or 1.0.
    if type(p) is float and p in (0.0, 1.0):
        return q if p else 0.0
    if type(q) is float and q in (0.0, 1.0):
        return p if q else 0.0
    return times(p, q)


def _plus(p, q, plus=operator.add):
    # p + q, leaving out an operand that is the number 0.0.
    return q if type(p) is float and p == 0.0 else p if type(q) is float and q == 0.0 else plus(p, q)


def mat_vec(m, w, times=operator.mul, plus=operator.add):
    """The 3x3 nest m times the triple w; an entry of m that is the number 0.0 or 1.0
    costs no array or jet operation.  ``times`` and ``plus`` make the other
    products and sums (the operators by default)."""
    return tuple(
        reduce(lambda p, q: _plus(p, q, plus), (_times(e, x, times) for e, x in zip(row, w)), 0.0)
        for row in m
    )


def mat_vec_tables(m, w: np.ndarray) -> np.ndarray:
    """``mat_vec`` of a 3x3 nest m of numbers and ``BiSeries`` (of order at
    least w's) with each vector of a (k, 3, n+1, n+1) stack w of tables, in
    the same shape.  Every product of a series entry and a component is
    made in one ``series.table_products`` call, and ``mat_vec`` takes them
    as its ``times``, in the order it asks for them: the bits of mat_vec
    over the series of each vector."""
    n1 = w.shape[-1]
    entries = [(e.coeffs[:n1, :n1], j) for row in m for j, e in enumerate(row) if isinstance(e, BiSeries)]
    x = np.array([table for vec in w for table, _ in entries]).reshape(-1, n1, n1)
    y = np.array([vec[j] for vec in w for _, j in entries]).reshape(-1, n1, n1)
    products = iter(table_products(x, y))

    def times(e, table):
        return next(products) if isinstance(e, BiSeries) else e * table

    out = np.zeros(w.shape)
    for vec, tables in zip(w, out):
        for table, value in zip(tables, mat_vec(m, vec, times)):
            table[...] = value
    return out


def _inverse(m):
    # Adjugate times the determinant's reciprocal, for floats, arrays and jets
    # alike; at a point (array) whose determinant is 0 or not finite, not finite.
    cyclic = ((1, 2), (2, 0), (0, 1))
    with np.errstate(all="ignore"):
        adj = [[_plus(_times(m[j][i], m[l][k]), -_times(m[j][k], m[l][i])) for j, l in cyclic]
               for i, k in cyclic]
        det = reduce(_plus, map(_times, m[0], (row[0] for row in adj)), 0.0)
        if isinstance(det, (np.ndarray, np.generic)):
            det = np.where(np.isfinite(det), det, np.nan)
        elif not np.isfinite(getattr(det, "coeffs", det)).all():
            raise NotInvertible("frame matrix determinant is not finite")
        elif abs(getattr(det, "coeffs", [det])[0]) <= 1e-300:  # a jet quotient's own bound
            raise NotInvertible("frame matrix determinant is zero or too small to invert")
        r = 1.0 / det
        return [[_times(e, r) for e in row] for row in adj]


class GroupModel:
    """Immutable bundle of one group's frame, chart and PDE data.

    The chart is one callable, ``frame(x)``: the frame matrix A (columns are
    the frame fields in coordinates) as a 3x3 nest of entries for a
    coordinate triple x, whose parts may be floats, numpy arrays of one
    shape (complex ones for the Christoffel symbols' steps), ``USeries``
    jets, bivariate series or tape nodes; ``coframe(x)`` derives A^{-1}.
    ``chart_guard(x)`` must work elementwise on a (3, ...) stack too.
    ``frame_exprs`` keeps a generic group's declared frame strings (None
    for the built-ins) for its solution file.
    """

    def __init__(
        self,
        name: str,
        structure_constants,
        frame=None,
        chart_guard=None,
        frame_exprs=None,
    ):
        self.name = name
        self.C = np.asarray(structure_constants, dtype=float)
        self.gamma = connection_from_structure(self.C)[1]
        self.frame = frame
        self._chart_guard = chart_guard or (lambda x: True)
        self.frame_exprs = frame_exprs

    # chart ---------------------------------------------------------------

    def chart_mask(self, x) -> np.ndarray:
        """Which points of a (3, ...) stack lie in the chart, shape x.shape[1:]."""
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._chart_guard(x), x.shape[1:])

    def in_chart(self, x) -> bool:
        """True when every point of x (one point, or a (3, ...) stack) is inside."""
        return bool(np.all(self.chart_mask(x)))

    def require_frame(self) -> None:
        if self.frame is None:
            raise UnsupportedRecipe(f"group {self.name} has no frame matrix")

    def _chart_shape(self, x: np.ndarray) -> tuple:
        # x.shape[1:], once every point is in the chart.
        mask = self.chart_mask(x)
        if not mask.all():
            bad = x.reshape(3, -1)[:, np.argmin(mask.ravel())]
            raise DomainError(f"point {bad.tolist()} outside the {self.name} chart")
        return mask.shape

    def coframe(self, x):
        """A^{-1}(x) as a 3x3 nest, the adjugate of ``frame(x)`` over its
        determinant: for jets along a curve, point stacks and certificates."""
        self.require_frame()
        return _inverse(self.frame(x))

    def frame_matrix(self, x) -> np.ndarray:
        """A^{-1} at a point (3x3) or at a (3, ...) stack of points
        ((3, 3, ...)).  Raises DomainError if any point is outside the
        chart."""
        x = np.asarray(x, dtype=float)
        shape = self._chart_shape(x)
        return _stack(self.coframe(x), shape)

    def christoffels(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate Christoffel symbols Gamma[k, i, j, ...] and the inverse
        frame matrix Ainv[a, i, ...] at a point or on a (3, ...) stack of
        points.  Raises DomainError if any point is outside the chart.

        Ainv is ``frame_matrix``'s, bit for bit.  d_l A is a complex step
        (Squire & Trapp, SIAM Rev. 40, 1998): one frame call on x + i h e_l,
        l = 1..3, h = 1e-20 max(1, |x|_inf), whose real part is A and whose
        imaginary part over h is d_l A, exact for a frame linear in x (the
        built-ins).  Then d_l g = -2 sym(g d_l A Ainv) for g = Ainv^T diag
        Ainv, and g^-1 = A diag A^T.  Only the chart is read, never the
        connection table that drives the solver.
        """
        x = np.asarray(x, dtype=float)
        shape = self._chart_shape(x)
        ainv = _stack(self.coframe(x), shape)
        h = 1e-20 * np.maximum(1.0, np.abs(x).max(axis=0))
        steps = 1j * h * np.eye(3).reshape((3, 3) + (1,) * len(shape))
        c = _stack(self.frame(x[:, None] + steps), (3,) + shape, complex)
        a, da = c.real[:, :, 0], c.imag / h  # da[k, b, l] = d_l A[k, b]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite symbols fail the certificate
            g = np.einsum("a,ai...,aj...->ij...", SIGNATURE, ainv, ainv)
            half = -np.einsum("ik...,kjl...->ijl...", g, np.einsum("kbl...,bj...->kjl...", da, ainv))
            dg = half + half.swapaxes(0, 1)  # dg[i, j, l] = d_l g_ij, half = -g d_l A Ainv
            # t[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
            t = np.einsum("jli...->ijl...", dg) + np.einsum("ilj...->ijl...", dg) - dg
            ginv = np.einsum("a,ka...,la...->kl...", SIGNATURE, a, a)  # g^-1 = A diag A^T
            return 0.5 * np.einsum("kl...,ijl...->kij...", ginv, t), ainv

    # PDE -----------------------------------------------------------------

    def pde_quadratic(self, frame_data):
        """Quadratic right side G of the frame system d psi_c / dzbar + G_c = 0.

        G_c = sum_{a,b} gamma[a,b,c] conj(psi_a) psi_b, skipping zero table
        entries.  Works for series triples and scalar triples alike.
        """
        zero = frame_data[0] * 0.0
        out = [zero, zero, zero]
        for a, b, c in zip(*np.nonzero(self.gamma)):
            out[c] = out[c] + self.gamma[a, b, c] * (frame_data[a].conj() * frame_data[b])
        return tuple(out)

    def __repr__(self) -> str:
        return f"GroupModel({self.name!r})"


# ---------------------------------------------------------------------------
# built-in models


def heisenberg() -> GroupModel:
    """Heisenberg group, Lorentzian metric with timelike center direction.

    Chart is all of R^3.  Frame: E1 = dx - (y/2) dz, E2 = dy + (x/2) dz,
    E3 = dz, with [E1, E2] = E3.
    """
    C = np.zeros((3, 3, 3))
    C[0, 1, 2] = 1.0
    C[1, 0, 2] = -1.0
    return GroupModel(
        "heisenberg",
        C,
        frame=lambda x: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-x[1] / 2.0, x[0] / 2.0, 1.0)),
    )


def de_sitter() -> GroupModel:
    """De Sitter space as the Lorentzian upper halfspace x3 > 0.

    Frame: E_a = x3 * d/dx_a, with [E1, E3] = -E1 and [E2, E3] = -E2.
    """
    C = np.zeros((3, 3, 3))
    C[0, 2, 0] = -1.0
    C[2, 0, 0] = 1.0
    C[1, 2, 1] = -1.0
    C[2, 1, 1] = 1.0
    return GroupModel(
        "desitter",
        C,
        frame=lambda x: ((x[2], 0.0, 0.0), (0.0, x[2], 0.0), (0.0, 0.0, x[2])),
        chart_guard=lambda x: x[2] > 0.0,
    )


def h2xr() -> GroupModel:
    """Hyperbolic plane times a timelike line, halfplane chart x2 > 0.

    Frame: E1 = x2 dx1, E2 = x2 dx2, E3 = dx3, with [E1, E2] = -E1.
    """
    C = np.zeros((3, 3, 3))
    C[0, 1, 0] = -1.0
    C[1, 0, 0] = 1.0
    return GroupModel(
        "h2xr",
        C,
        frame=lambda x: ((x[1], 0.0, 0.0), (0.0, x[1], 0.0), (0.0, 0.0, 1.0)),
        chart_guard=lambda x: x[1] > 0.0,
    )


def generic_group(structure_constants, frame_exprs=None) -> GroupModel:
    """Group given by raw structure constants, optionally with a frame matrix.

    ``frame_exprs`` is a 3x3 nest of expression strings in x1, x2, x3
    (columns are the frame fields).  The entries are parsed once, here, and
    evaluated on whatever the coordinates are (floats, numpy arrays, jets,
    bivariate series).  Without it only the frame-level residual machinery
    is available.  The immersion is rebuilt from bivariate series of the
    coordinates, so there an entry must be a polynomial: numbers, x1..x3,
    +, -, *, integer powers >= 0 and division by a number; any other
    (``exp(x1)``, ``1/x3``) raises UnsupportedRecipe.
    """
    frame = rows = None
    if frame_exprs is not None:
        rows = [list(r) for r in frame_exprs]
        entries = [e for r in rows for e in r]
        if [len(r) for r in rows] != [3, 3, 3] or not all(isinstance(e, str) for e in entries):
            raise ValueError("frame matrix must be a 3x3 nest of expression strings")
        parsed = [[(e, parse_expression(e)) for e in row] for row in rows]

        def frame(x):
            env = {"x1": x[0], "x2": x[1], "x3": x[2]}
            return tuple(tuple(evaluate_series(e, env, tree) for e, tree in row) for row in parsed)

    return GroupModel("generic", structure_constants, frame=frame, frame_exprs=rows)


_BUILTINS = {"heisenberg": heisenberg, "desitter": de_sitter, "h2xr": h2xr}


def by_name(name: str) -> GroupModel:
    if isinstance(name, str) and name in _BUILTINS:
        return _BUILTINS[name]()
    raise ValueError(f"unknown group {name!r}; built-ins are {sorted(_BUILTINS)}")
