"""Curve-and-normal (Bjorling) problems and their power-series solution.

Pipeline: validate the data, classify the curve's causal character, build
the initial frame-field jet on v = 0, march the frame system order by
order in v, then march the immersion in v through the group's frame matrix
to get it as a real series triple.  Verification lives in `verify`.

The frame data psi = (psi1, psi2, psi3) are one float array of shape
(2, 3, n+1, n+1) from the initial data to the solution file: ``[0, c]``
is the real and ``[1, c]`` the unit coefficient table of psi_{c+1}, so
its (6, n+1, n+1) reshape is the stack the march computes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CurveClass, GridSpec, ProblemKind, Tolerances
from .errors import (
    CausalMismatch,
    CharacteristicData,
    ConstraintDrift,
    NonIntegrable,
    ProblemValidationError,
)
from .groups import SIGNATURE, GroupModel, lorentz_cross, lorentz_dot
from .scalars import KScalar, Mode
from .series import BiSeries, KSeries, USeries
from .slices import cauchy_slice, column_divider, matvec_slice, sqrt_columns


@dataclass(frozen=True)
class BjorlingProblem:
    """One solvable problem: a group, a curve with a unit normal field,
    the causal kind, and solver parameters.

    The curve is given in chart coordinates, the field in frame
    components, both as jets about the same center.
    """

    group: GroupModel
    curve: tuple[USeries, USeries, USeries]
    normal_field: tuple[USeries, USeries, USeries]
    kind: ProblemKind
    order: int = 12
    grid: GridSpec = field(default_factory=lambda: GridSpec(-1.0, 1.0, -0.5, 0.5))
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def center(self) -> float:
        return self.curve[0].center

    @property
    def mode(self) -> Mode:
        return self.kind.mode

    def base_point(self) -> np.ndarray:
        return np.array([c.coeffs[0] for c in self.curve])

    def curve_velocity(self) -> tuple[USeries, USeries, USeries]:
        return tuple(c.deriv() for c in self.curve)

    def frame_velocity(self) -> tuple[USeries, USeries, USeries]:
        return self.group.frame_jet_from_coords(self.curve, self.curve_velocity())

    def validate(self) -> None:
        """Check the stated invariants; raises ProblemValidationError."""
        if self.order < 2:
            raise ProblemValidationError("truncation order must be at least 2")
        self.grid.validate()
        centers = {c.center for c in self.curve} | {
            w.center for w in self.normal_field
        }
        if len(centers) != 1:
            raise ProblemValidationError("curve and field jets must share a center")
        base = self.base_point()
        if not self.group.in_chart(base):
            raise ProblemValidationError(
                f"curve base point {base.tolist()} violates the "
                f"{self.group.name} chart guard"
            )
        want = self.kind.normal_square
        vdotv = lorentz_dot(self.normal_field, self.normal_field) - want
        if vdotv.maxabs() > 1e-9 * max(1.0, max(w.maxabs() for w in self.normal_field) ** 2):
            raise ProblemValidationError(
                f"invariant g(V, V) = {want:+g} violated: largest deviation "
                f"{vdotv.maxabs():.3e}"
            )
        vel = self.frame_velocity()
        ortho = lorentz_dot(vel, self.normal_field)
        scale = max(1.0, max(w.maxabs() for w in vel), max(w.maxabs() for w in self.normal_field))
        if ortho.maxabs() > 1e-9 * scale * scale:
            raise ProblemValidationError(
                f"invariant g(curve', V) = 0 violated: largest deviation "
                f"{ortho.maxabs():.3e}"
            )


def classify_curve(
    group: GroupModel,
    curve,
    u_lo: float,
    u_hi: float,
    samples: int = 33,
    causal_rtol: float = 1e-10,
) -> CurveClass:
    """Causal character of the curve from the sign of g(curve', curve').

    The velocity is converted to frame components first, then the squared
    speed is sampled across [u_lo, u_hi].  Any numerically null sample
    makes the curve lightlike (characteristic data); a strict sign change
    without a null sample is reported as mixed.  ProblemValidationError is
    raised when a sample of the squared speed, or of the squared coordinate
    velocity, overflows.
    """
    vel = tuple(c.deriv() for c in curve)
    frame_vel = group.frame_jet_from_coords(curve, vel)
    speed2 = lorentz_dot(frame_vel, frame_vel)
    us = np.linspace(u_lo, u_hi, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = speed2.eval(us)
        # The frame components cancel terms as large as the coordinate
        # velocity; once their squares overflow, only rounding is left.
        finite = np.all(np.isfinite(vals + sum(w.eval(us) ** 2 for w in vel)))
    if not finite:
        raise ProblemValidationError(
            f"squared speed of the initial curve overflows on [{u_lo:g}, {u_hi:g}]"
        )
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(np.abs(vals) <= causal_rtol * scale):
        return CurveClass.LIGHTLIKE
    if np.all(vals > 0.0):
        return CurveClass.SPACELIKE
    if np.all(vals < 0.0):
        return CurveClass.TIMELIKE
    return CurveClass.MIXED


def initial_data(problem: BjorlingProblem) -> np.ndarray:
    """Frame data on v = 0, as the march's (2, 3, n+1, n+1) stack.

    Column 0 holds psi = (frame velocity + unit * tangent_sign * V x
    velocity) / 2 along the curve; every other entry is zero.
    """
    n = problem.order
    vel = problem.frame_velocity()
    cross = lorentz_cross(problem.normal_field, vel)
    frame = np.zeros((2, 3, n + 1, n + 1))
    for part, jets, factor in ((0, vel, 0.5), (1, cross, 0.5 * problem.kind.tangent_sign)):
        for c, jet in enumerate(jets):
            k = min(n, jet.order)
            frame[part, c, : k + 1, 0] = factor * jet.coeffs[: k + 1]
    return frame


def cone_series(frame_data) -> KSeries:
    """The quadratic cone combination psi1^2 + psi2^2 - psi3^2."""
    p1, p2, p3 = frame_data
    return p1 * p1 + p2 * p2 - p3 * p3


def _column_zero(frame0: np.ndarray, comps) -> np.ndarray:
    # (6, n+1, n+1) march stack holding only column 0 of components `comps`.
    x = np.zeros((6,) + frame0.shape[2:])
    rows = [part * 3 + c for part in (0, 1) for c in comps]
    x[rows, :, 0] = frame0.reshape(x.shape)[rows, :, 0]
    return x


def _cone_slice(p: np.ndarray, s: float) -> np.ndarray:
    # (re, unit) slice of psi1^2 + psi2^2 - psi3^2 from the pair slices p.
    square, cross = np.einsum("iim->im", p), np.einsum("iim->im", p[:3, 3:])
    return np.stack([SIGNATURE @ (square[:3] + s * square[3:]), 2.0 * SIGNATURE @ cross])


def _march_step(gamma, s: float, x: np.ndarray, level: int, p: np.ndarray, comps) -> None:
    # Column level+1 of components `comps` from psi_v = unit * (psi_u + 2 G),
    # with the (re, unit) slices of G_c = sum gamma[a,b,c] conj(psi_a) psi_b.
    rows = x.shape[1] - 1 - level
    p = p[..., :rows]
    conj_products = np.stack([p[:3, :3] - s * p[3:, 3:], p[:3, 3:] - p[3:, :3]])
    quad = np.einsum("abc,kabm->kcm", gamma, conj_products)
    deg = np.arange(1.0, rows + 1)
    rhs = deg * x[:, 1 : rows + 1, level].reshape(2, 3, rows) + 2.0 * quad
    for c in comps:  # unit * (a + unit b) = s b + unit a
        x[c, :rows, level + 1] = s * rhs[1, c] / (level + 1)
        x[c + 3, :rows, level + 1] = rhs[0, c] / (level + 1)


def ck_march(
    group: GroupModel,
    frame0: np.ndarray,
    mode: Mode,
    cone_tol: float | None = None,
) -> np.ndarray:
    """March the frame system order by order in v.

    ``frame0`` is a (2, 3, n+1, n+1) frame-data stack; only its column 0
    (v = 0) is read, and the result is the stack with every column filled.
    The system d psi_c / dzbar + G_c = 0 rearranges, using the definition
    of dzbar, into psi_v = unit * (psi_u + 2 G); the v-degree (L+1) slice
    of each component then follows from slices <= L because G is
    quadratic.  Each level builds only the v-degree-L slice of every
    conj(psi_a) psi_b (one Cauchy slice, ``slices.cauchy_slice``), so the
    march costs O(order^4) flops in O(order) array operations.  The same
    slices give the cone combination level by level; with the built-in
    connection tables it is preserved to roundoff.  The first level whose
    cone slice exceeds ``cone_tol`` raises ConstraintDrift; level 0 is the
    initial data itself.
    """
    s = mode.unit_square
    order = frame0.shape[-1] - 1
    x = _column_zero(frame0, (0, 1, 2))
    for level in range(order + 1):
        p = cauchy_slice(x, x, level, order + 1 - level)
        drift = float(np.max(np.abs(_cone_slice(p, s))))
        if cone_tol is not None and drift > cone_tol:
            where = "in the initial data" if level == 0 else f"at march level {level}"
            raise ConstraintDrift(
                f"cone constraint violated {where} by {drift:.3e} "
                f"(tolerance {cone_tol:.3e})"
            )
        if level < order:
            _march_step(group.gamma, s, x, level, p, (0, 1, 2))
    return x.reshape(frame0.shape)


def ck_march_cone_lift(group: GroupModel, frame0: np.ndarray, mode: Mode) -> np.ndarray:
    """March only the first two frame equations, lifting the third component
    as the series square root of psi1^2 + psi2^2.

    Reads column 0 of psi1 and psi2 from the frame-data stack ``frame0``
    (its third component is ignored) and returns the filled stack.  This is
    the harness for checking that the lifted component then satisfies the
    third equation on its own.  The lift extends psi3 by one v-column per
    level, with the march's slices: column L solves
    2 psi3_0 psi3_L = (psi1^2 + psi2^2 - psi3^2)_L with psi3_L still zero.
    The lift needs an invertible branch at the center, otherwise
    DegenerateSqrt.
    """
    s = mode.unit_square
    order = frame0.shape[-1] - 1
    x = _column_zero(frame0, (0, 1))
    for level in range(order + 1):
        lift = _cone_slice(cauchy_slice(x, x, level, order + 1 - level), s)
        if level == 0:
            # Column 0 is the root of a function of u alone: a one-row table.
            branch = KScalar(lift[0, 0], lift[1, 0], mode).sqrt()
            root = np.zeros((2, 1, order + 1))
            root[:, 0, 0] = branch.re, branch.im
            sqrt_columns(lift[:, None, :], root, s)
            x[[2, 5], :, 0] = root[:, 0]
            divide = column_divider(2.0 * root[:, 0], s)
        else:
            x[[2, 5], : order + 1 - level, level] = divide(lift)
        if level < order:
            p = cauchy_slice(x, x, level, order - level)
            _march_step(group.gamma, s, x, level, p, (0, 1))
    return x.reshape(frame0.shape)


def _integrability_gate(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    mismatch = float(np.max(np.abs(got - want)))
    bound = rtol * max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    if mismatch > bound:
        raise NonIntegrable(f"{name} by {mismatch:.3e}, above {bound:.3e}")


def reconstruct_surface(
    group: GroupModel,
    frame: np.ndarray,
    curve,
    mode: Mode,
    compat_rtol: float = 1e-9,
):
    """March the immersion f in v through the group's frame matrix A.

    The frame data psi (a (2, 3, n+1, n+1) stack) are the frame components
    of d f / dz, so f_u = A(f) r and f_v = A(f) w with r = 2 Re psi and
    w = 2 s Im psi, s the unit's square.  Column 0 of f is the curve jet;
    column L+1 is the v-degree-L slice of A(f) w (``slices.matvec_slice``)
    divided by L+1.  The entries of A are polynomials in the coordinates,
    so that slice needs only columns <= L of f.  Two gates then check the
    finished f, each against ``compat_rtol`` times max(1, scale): the same
    slices of A(f) r against the u-derivative of f, and A(f) w, made once
    from whole-series products on the finished f, against its
    v-derivative.  A mismatch means the frame data were not integrable, or
    the march did not solve f_v = A(f) w (NonIntegrable).  A frame entry
    without a series expansion raises UnsupportedRecipe.
    """
    group.require_frame()
    n = frame.shape[-1] - 1
    s = mode.unit_square
    surface = tuple(BiSeries.from_univariate_u(c, n + 1) for c in curve)
    w_r = np.stack([(2.0 * s) * frame[1], 2.0 * frame[0]])
    a = np.zeros((3, 3, n + 2, n + 2))  # A(f); a number entry is a constant table
    fu = np.zeros((3, n + 1, n + 1))
    for level in range(n + 1):
        rows = n + 1 - level
        for i, row in enumerate(group.frame(surface)):
            for j, entry in enumerate(row):
                if isinstance(entry, BiSeries):
                    a[i, j] = entry.coeffs
                else:
                    a[i, j, 0, 0] = entry
        fv, fu[:, :rows, level] = matvec_slice(a, w_r, level, rows)
        for f, column in zip(surface, fv / (level + 1)):
            f.coeffs[:rows, level + 1] = column
    du = np.array([f.du().coeffs for f in surface])
    _integrability_gate("f_u differs from A(f) * 2 Re(psi)", du, fu, compat_rtol)
    w = tuple(BiSeries(table, surface[0].center) for table in w_r[0])
    aw = np.array([b.coeffs for b in group.coords_jet_from_frame(surface, w)])
    dv = np.array([f.dv().coeffs for f in surface])
    _integrability_gate("f_v differs from A(f) * 2s Im(psi)", dv, aw, compat_rtol)
    return surface


@dataclass
class BjorlingSolution:
    """Everything the solve produced, plus its residual report."""

    group: GroupModel
    kind: ProblemKind
    order: int
    center: float
    base: np.ndarray
    curve: tuple
    normal_field: tuple
    frame_data: np.ndarray  # (2, 3, order+1, order+1): [0, c] re, [1, c] unit of psi_{c+1}
    surface: tuple
    grid: GridSpec
    report: object = None  # verify.ResidualReport; typed loosely to avoid a cycle

    @property
    def mode(self) -> Mode:
        return self.kind.mode

    def surface_point(self, u, v) -> np.ndarray:
        return evaluate_surface(self.surface, u, v)


def evaluate_surface(surface, u, v) -> np.ndarray:
    """Coordinates of a series triple at (u, v), shape (3, *np.shape(u));
    u and v may be arrays of one shape."""
    return np.array([f.eval(u, v) for f in surface])


def solve_bjorling(problem: BjorlingProblem) -> BjorlingSolution:
    """Solve one problem end to end and attach a full residual report.

    Deterministic: identical inputs give bit-identical coefficient tables.
    Raises CharacteristicData for lightlike curves, CausalMismatch when the
    curve's character does not match the declared kind, UnsupportedRecipe
    for a group without a frame matrix or with a frame entry that has no
    series expansion, and propagates NonIntegrable / ConstraintDrift as
    internal-consistency failures.
    """
    from . import verify  # deferred to keep module import light

    problem.validate()
    observed = classify_curve(
        problem.group,
        problem.curve,
        problem.grid.u_min,
        problem.grid.u_max,
        causal_rtol=problem.tolerances.causal,
    )
    if observed is CurveClass.LIGHTLIKE:
        raise CharacteristicData(
            "characteristic (lightlike) initial curve: the Cauchy problem "
            "is not well posed along it"
        )
    if observed is not problem.kind.curve_class:
        raise CausalMismatch(
            f"curve is {observed.value} but kind {problem.kind.value} "
            f"needs a {problem.kind.curve_class.value} curve"
        )

    frame0 = initial_data(problem)
    # ck_march checks the cone of the initial data (its level 0) and of every level.
    scale = max(1.0, float(np.max(np.abs(frame0))) ** 2)
    frame_data = ck_march(
        problem.group,
        frame0,
        problem.mode,
        cone_tol=problem.tolerances.cone * scale,
    )
    surface = reconstruct_surface(
        problem.group,
        frame_data,
        problem.curve,
        problem.mode,
        compat_rtol=problem.tolerances.compat,
    )

    report = verify.build_report(
        problem.group,
        problem.kind,
        frame_data,
        surface,
        problem.curve,
        problem.normal_field,
        problem.grid,
        problem.tolerances,
    )
    return BjorlingSolution(
        group=problem.group,
        kind=problem.kind,
        order=problem.order,
        center=problem.center,
        base=problem.base_point(),
        curve=problem.curve,
        normal_field=problem.normal_field,
        frame_data=frame_data,
        surface=surface,
        grid=problem.grid,
        report=report,
    )
