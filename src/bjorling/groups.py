"""Three-dimensional Lorentzian Lie group models.

Each model carries an orthonormal left-invariant frame E1, E2, E3 with
signature (+, +, -), the structure constants of the frame bracket, the
derived connection table that drives the frame-field PDE system, and the
chart data (frame matrix A, domain guard, coordinate metric).

Conventions: ``C[a, b, c]`` is the c-component of [E_a, E_b] (0-based
indices).  The connection table gamma satisfies nabla_{E_a} E_b =
sum_c gamma[a, b, c] E_c and equals half of the Koszul combination
``L[a,b,c] = C[a,b,c] - C[b,c,a] e_a e_c - C[a,c,b] e_b e_c``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotInvertible, UnsupportedRecipe

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

    The structure constants must be exactly antisymmetric in their lower
    pair.  Metric compatibility of the result (gamma[a,b,c] e_c =
    -gamma[a,c,b] e_b) is automatic and covered by tests.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3, 3):
        raise ValueError("structure constants must form a 3x3x3 table")
    if not np.array_equal(C, -np.transpose(C, (1, 0, 2))):
        raise ValueError("structure constants must be antisymmetric in a, b")
    e = SIGNATURE
    L = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                L[a, b, c] = (
                    C[a, b, c]
                    - C[b, c, a] * e[a] * e[c]
                    - C[a, c, b] * e[b] * e[c]
                )
    return L, L / 2.0


def _stack(nest, shape) -> np.ndarray:
    # A 3x3 nest of floats and arrays as one (3, 3, *shape) array.
    return np.array([[np.broadcast_to(e, shape) for e in row] for row in nest], dtype=float)


def _apply(nest, w):
    # A 3x3 nest of entries applied to a component triple (any entry types).
    return tuple(row[0] * w[0] + row[1] * w[1] + row[2] * w[2] for row in nest)


def _inverse(m):
    # Adjugate over determinant; works for floats, arrays and jets alike.
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        adj = [
            [
                m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
        det = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
    if isinstance(det, float) and det == 0.0:
        raise NotInvertible("frame matrix is singular")
    if not np.all(np.isfinite(getattr(det, "coeffs", det))):
        raise NotInvertible("frame matrix determinant is not finite")
    return tuple(tuple(a / det for a in row) for row in adj)


class GroupModel:
    """Immutable bundle of one group's frame, chart and PDE data.

    The chart is given by one pair of callables: ``frame(x)`` is the frame
    matrix A (columns are the frame fields in coordinates) and
    ``coframe(x)`` its inverse, each a 3x3 nest of entries for a coordinate
    triple x.  The parts of x may be floats, numpy arrays of one shape, or
    ``USeries`` jets, so the same two functions give the point and grid
    matrices, the metric and Christoffel symbols on whole grids, and the
    jet maps along a curve.  ``chart_guard(x)`` must work elementwise on a
    (3, ...) stack too.  ``frame_exprs`` keeps a generic group's declared
    frame strings (None for the built-ins) for its solution file.
    """

    def __init__(
        self,
        name: str,
        structure_constants,
        frame=None,
        coframe=None,
        chart_guard=None,
        description: str = "",
        frame_exprs=None,
    ):
        self.name = name
        self.C = np.asarray(structure_constants, dtype=float)
        self.L, self.gamma = connection_from_structure(self.C)
        self.frame = frame
        self.coframe = coframe
        self._chart_guard = chart_guard or (lambda x: True)
        self.description = description
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

    def frame_matrix(self, x) -> tuple[np.ndarray, np.ndarray]:
        """A and A^{-1} at a point (3x3 each) or at a (3, ...) stack of
        points ((3, 3, ...) each).  Raises DomainError if any point is
        outside the chart."""
        x = np.asarray(x, dtype=float)
        mask = self.chart_mask(x)
        if not mask.all():
            bad = x.reshape(3, -1)[:, np.argmin(mask.ravel())]
            raise DomainError(f"point {bad.tolist()} outside the {self.name} chart")
        self.require_frame()
        return _stack(self.frame(x), mask.shape), _stack(self.coframe(x), mask.shape)

    def metric(self, x) -> np.ndarray:
        """Coordinate metric Ainv^T diag Ainv at a point or a (3, ...) stack."""
        _, ainv = self.frame_matrix(x)
        return np.einsum("a,ai...,aj...->ij...", SIGNATURE, ainv, ainv)

    def christoffels(self, x, step=None) -> np.ndarray:
        """Coordinate Christoffel symbols by central differences of the metric.

        Returns Gamma[k, i, j, ...], symmetric in (i, j), at a point or on a
        (3, ...) stack of points; the default step is 1e-5 * max(1, |x|_inf)
        per point.  Used only as the independent, coordinate-level
        certificate; nothing in the solver depends on it.
        """
        x = np.asarray(x, dtype=float)
        h = step if step is not None else 1e-5 * np.maximum(1.0, np.max(np.abs(x), axis=0))
        shift = np.eye(3).reshape((3, 3) + (1,) * (x.ndim - 1)) * h
        # dg[l, i, j] = d_l g_ij
        dg = np.stack([self.metric(x + e) - self.metric(x - e) for e in shift]) / (2.0 * h)
        rest = tuple(range(3, dg.ndim))
        # t[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
        t = dg + np.transpose(dg, (1, 0, 2) + rest) - np.transpose(dg, (1, 2, 0) + rest)
        g = np.moveaxis(self.metric(x), (0, 1), (-2, -1))
        ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
        return 0.5 * np.einsum("kl...,ijl...->kij...", ginv, t)

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

    # jets along a curve ----------------------------------------------------

    def frame_jet_from_coords(self, curve, w):
        """Apply A^{-1}(curve(u)) to a coordinate-component jet triple."""
        self.require_frame()
        return _apply(self.coframe(curve), w)

    def coords_jet_from_frame(self, curve, w):
        """Apply A(curve) to a frame-component triple: jets along a curve,
        or series on a surface (the rebuild's f_v gate)."""
        self.require_frame()
        return _apply(self.frame(curve), w)

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
        coframe=lambda x: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (x[1] / 2.0, -x[0] / 2.0, 1.0)),
        description="Lorentzian Heisenberg group (entire chart)",
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

    def scaled(s):
        return ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s))

    return GroupModel(
        "desitter",
        C,
        frame=lambda x: scaled(x[2]),
        coframe=lambda x: scaled(1.0 / x[2]),
        chart_guard=lambda x: x[2] > 0.0,
        description="de Sitter space, halfspace chart x3 > 0",
    )


def h2xr() -> GroupModel:
    """Hyperbolic plane times a timelike line, halfplane chart x2 > 0.

    Frame: E1 = x2 dx1, E2 = x2 dx2, E3 = dx3, with [E1, E2] = -E1.
    """
    C = np.zeros((3, 3, 3))
    C[0, 1, 0] = -1.0
    C[1, 0, 0] = 1.0

    def scaled(s):
        return ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, 1.0))

    return GroupModel(
        "h2xr",
        C,
        frame=lambda x: scaled(x[1]),
        coframe=lambda x: scaled(1.0 / x[1]),
        chart_guard=lambda x: x[1] > 0.0,
        description="hyperbolic plane x a timelike line, chart x2 > 0",
    )


def generic_group(
    structure_constants,
    frame_exprs=None,
    chart_guard=None,
    name: str = "generic",
) -> GroupModel:
    """Group given by raw structure constants, optionally with a frame matrix.

    ``frame_exprs`` is a 3x3 nest of expression strings in x1, x2, x3
    (columns are the frame fields).  The entries are parsed once, here, and
    evaluated on whatever the coordinates are (floats, numpy arrays, jets,
    bivariate series); the coframe is their adjugate inverse.  Without it
    only the frame-level residual machinery is available.  The immersion is
    rebuilt from bivariate series of the coordinates, so there an entry must
    be a polynomial: numbers, x1..x3, +, -, *, integer powers >= 0 and
    division by a number; any other (``exp(x1)``, ``1/x3``) raises
    UnsupportedRecipe.
    """
    from .expressions import evaluate_series, parse_expression  # local import, avoids a cycle

    frame = coframe = rows = None
    if frame_exprs is not None:
        rows = [list(r) for r in frame_exprs]
        entries = [e for r in rows for e in r]
        if [len(r) for r in rows] != [3, 3, 3] or not all(isinstance(e, str) for e in entries):
            raise ValueError("frame matrix must be a 3x3 nest of expression strings")
        parsed = [[(e, parse_expression(e)) for e in row] for row in rows]

        def frame(x):
            env = {"x1": x[0], "x2": x[1], "x3": x[2]}
            return tuple(tuple(evaluate_series(e, env, tree) for e, tree in row) for row in parsed)

        def coframe(x):
            return _inverse(frame(x))

    return GroupModel(
        name,
        structure_constants,
        frame=frame,
        coframe=coframe,
        chart_guard=chart_guard,
        description="user-supplied structure constants",
        frame_exprs=rows,
    )


_BUILTINS = {"heisenberg": heisenberg, "desitter": de_sitter, "h2xr": h2xr}


def by_name(name: str) -> GroupModel:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown group {name!r}; built-ins are {sorted(_BUILTINS)}"
        ) from None
