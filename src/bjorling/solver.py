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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import verify
from .config import CurveClass, GridSpec, Mode, ProblemKind, Tolerances
from .errors import (
    CausalMismatch,
    CharacteristicData,
    ConstraintDrift,
    NonIntegrable,
    ProblemValidationError,
)
from .groups import SIGNATURE, GroupModel, mat_vec, mat_vec_tables
from .series import BiSeries, USeries, du_tables, dv_tables, jet_product, jet_sum, table_stack
from .slices import FrameTape, SkewPad, slice_products


class CurveJets(NamedTuple):
    """The jets along the curve that the checks before the march and the
    initial data read, as coefficient arrays, each at its own order: the
    results of ``groups.mat_vec``, ``lorentz_dot`` and ``lorentz_cross`` on
    USeries, bit for bit."""

    table: np.ndarray  # (19, k): g(w, w), w, V, curve', A^-1 row by row; zero-padded
    w: tuple  # the frame components of curve'
    cross: tuple  # V x w
    w_square: np.ndarray  # g(w, w)
    field_square: np.ndarray  # g(V, V)
    w_dot_field: np.ndarray  # g(w, V)


# The rows of [w; V] that V x w, g(w, w), g(V, V) and g(w, V) multiply, in
# the operand order of lorentz_cross(V, w) = (V1 w2 - w1 V2, V2 w0 - w2 V0,
# V1 w0 - w1 V0) and lorentz_dot(y, z) = y0 z0 + y1 z1 - y2 z2.
_LEFT = [4, 5, 4, 1, 2, 1, 0, 1, 2, 3, 4, 5, 0, 1, 2]
_RIGHT = [2, 0, 0, 5, 3, 3, 0, 1, 2, 3, 4, 5, 3, 4, 5]


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

    @cached_property
    def coframe_jets(self) -> tuple:
        """A^{-1} along the curve, a 3x3 nest of jets and numbers, evaluated
        once per problem."""
        return self.group.coframe(self.curve)

    @cached_property
    def curve_jets(self) -> CurveJets:
        """The curve's velocity, the field, the coframe and the frame
        velocity w, with g(w, w), g(V, V), g(w, V) and V x w, formed once
        per problem on coefficient arrays in two ``series.jet_product``
        calls.  The first makes every product of a coframe entry with the
        velocity, which ``groups.mat_vec`` sums with ``series.jet_sum``,
        its 0.0 and 1.0 entries skipped as on USeries.  The second makes
        the 15 products of [w; V] that ``lorentz_cross(V, w)`` and
        ``lorentz_dot`` take, summed as those helpers sum them, on the
        zero-padded rows.  Each result is cut to the lower order of its
        factors, below which no padding is read, and a stacked product has
        the bits of a single one: the jets are those of the USeries
        operations, bit for bit.  An overflow reads as inf or NaN, which
        the checks refuse.  Curve and field jets about different centers
        are refused."""
        self._require_shared_center()
        with np.errstate(over="ignore", invalid="ignore"):
            coframe = [getattr(e, "coeffs", e) for row in self.coframe_jets for e in row]
            velocity = [c.coeffs for c in self.curve_velocity()]
            field = [v.coeffs for v in self.normal_field]
            given = [*field, *velocity, *coframe]  # rows 4 to 18
            table = np.zeros((19, max(getattr(r, "size", 1) for r in given)))
            for out, row in zip(table[4:], given):
                out[: getattr(row, "size", 1)] = row  # a number is a constant
            # A^-1_aj curve'_j for each entry that is a jet, cut to the lower
            # order; mat_vec skips or scales by the numbers itself.
            at = [k for k, e in enumerate(coframe) if isinstance(e, np.ndarray)]
            nest = list(coframe)
            for k, row in zip(at, jet_product(table[10:][at], table[7:10][[j % 3 for j in at]])):
                nest[k] = row[: min(coframe[k].size, velocity[k % 3].size)]
            w = mat_vec((nest[:3], nest[3:6], nest[6:]), velocity,
                        lambda p, q: p if isinstance(p, np.ndarray) else jet_product(p, q), jet_sum)
            for out, row in zip(table[1:4], w):
                out[: row.size] = row
            # lorentz_cross and lorentz_dot's sums, p - q being p + (-q),
            # on the zero-padded rows, each then cut to its factors' lower order.
            p = jet_product(table[1:7][_LEFT], table[1:7][_RIGHT])
            sums = np.concatenate([p[:3] - p[3:6], p[6::3] + p[7::3] - p[8::3]])
        size = [row.size for row in (*w, *field)]
        pair = [min(size[s], size[t]) for s, t in zip(_LEFT, _RIGHT)]
        cut = [min(pair[c], pair[3 + c]) for c in range(3)] + [min(pair[k : k + 3]) for k in (6, 9, 12)]
        cross = tuple(sums[c, : cut[c]] for c in range(3))
        speed2, field_square, w_dot_field = (sums[c, : cut[c]] for c in range(3, 6))
        table[0, : speed2.size] = speed2
        return CurveJets(table, w, cross, speed2, field_square, w_dot_field)

    def _require_shared_center(self) -> None:
        if len({c.center for c in (*self.curve, *self.normal_field)}) != 1:
            raise ProblemValidationError("curve and field jets must share a center")

    def validate(self) -> None:
        """Check the stated invariants; raises ProblemValidationError."""
        if self.order < 2:
            raise ProblemValidationError("truncation order must be at least 2")
        g = self.grid
        if not (g.u_min < g.u_max and g.v_min < g.v_max):
            raise ProblemValidationError("grid ranges must be increasing")
        if g.nu < 2 or g.nv < 2:
            raise ProblemValidationError("grid needs at least 2 samples per direction")
        # The report and the mesh evaluate tables of order n + 1 at the
        # grid's powers, each the last times the coordinate, as this product
        # is; the largest |u - u0| or |v| (the ranges increase) has the largest.
        radius = max(abs(g.u_min - self.center), abs(g.u_max - self.center), -g.v_min, g.v_max)
        if not math.isfinite(math.prod([radius] * (self.order + 1))):
            raise ProblemValidationError(
                f"the grid's powers overflow at order {self.order}: "
                f"|u - u0| or |v| reaches {radius:.3e}"
            )
        self._require_shared_center()
        base = self.base_point()
        if not self.group.in_chart(base):
            raise ProblemValidationError(
                f"curve base point {base.tolist()} violates the "
                f"{self.group.name} chart guard"
            )
        want = self.kind.normal_square
        jets = self.curve_jets
        # Formed in numpy floats, where an overflow is inf, not an exception.
        with np.errstate(over="ignore", invalid="ignore"):
            # The largest coefficient of each of w and V, as USeries.maxabs
            # takes it, in one reduction over their rows.
            peaks = np.abs(jets.table[1:7]).max(axis=1).tolist()
            field_scale = max(1.0, *peaks[3:])
            scale = max(field_scale, *peaks[:3])
            deviation = jets.field_square.copy()
            deviation[0] -= want
            vdotv = float(np.abs(deviation).max())
            ortho = float(np.abs(jets.w_dot_field).max())
            bounds = 1e-9 * np.square([field_scale, scale])
            # The metric Ainv^T diag Ainv at the base point: the coframe jets' constant terms.
            ainv = jets.table[10:19, 0].reshape(3, 3).copy()
            metric = ainv.T @ (SIGNATURE[:, None] * ainv)
        if not np.isfinite([vdotv, ortho, *bounds]).all():
            raise ProblemValidationError(
                "the invariants g(V, V) and g(curve', V) or their scales overflow"
            )
        if not np.isfinite(metric).all():
            raise ProblemValidationError(
                f"the metric overflows at the curve base point {base.tolist()}"
            )
        if vdotv > bounds[0]:
            raise ProblemValidationError(
                f"invariant g(V, V) = {want:+g} violated: largest deviation {vdotv:.3e}"
            )
        if ortho > bounds[1]:
            raise ProblemValidationError(
                f"invariant g(curve', V) = 0 violated: largest deviation {ortho:.3e}"
            )


def classify_curve(problem: BjorlingProblem) -> CurveClass:
    """Causal character of the problem's curve from the sign of g(curve', curve').

    The squared speed g = w1^2 + w2^2 - w3^2 of the frame velocity w is
    sampled at 33 points across the grid's u-range, next to a rounding
    bound made from the sizes of its terms: w_a sums the terms
    A^{-1}_aj(curve) curve'_j, whose magnitudes T_a bound its rounding by
    d_a = gamma T_a, with gamma = 4 (order + 1) eps for the jet products
    and the evaluation; g's rounding is then at most
    sum_a d_a (2 |w_a| + d_a) + gamma sum_a w_a^2.

    The first decision is the boundary normal's: the boundary check's
    normal w x (V x w) has a square of size |w|^4 |V|^2, and
    ProblemValidationError is raised when that overflows at the samples,
    |w_a| taken less d_a (so a w lost to rounding does not count).  Next
    it is raised when a sample of the squared speed, its rounding bound or
    the squared coordinate velocity overflows.  A sample whose |g| is
    within its rounding bound, where the bound exceeds the causal band,
    leaves the sign undecided and raises ProblemValidationError naming the
    rounding (large coordinates whose frame components cancel).  Otherwise
    a sample within the causal band, the tolerance times max(1, sum_a
    w_a^2), makes the curve lightlike (characteristic data); a strict sign
    change without a null sample is reported as mixed.
    """
    jets = problem.curve_jets
    u_lo, u_hi = problem.grid.u_min, problem.grid.u_max
    us = np.linspace(u_lo, u_hi, 33)
    gamma = 4.0 * jets.w_square.size * np.finfo(float).eps
    table = jets.table
    # Every overflow, from the squared speed's coefficients on, reads as inf or NaN below.
    with np.errstate(over="ignore", invalid="ignore"):
        values = table @ np.vander(us - problem.center, table.shape[1], increasing=True).T
        vals, w, field, v = values[0], values[1:4], values[4:7], values[7:10]
        terms = np.abs(values[10:].reshape(3, 3, -1) * v)  # [a, j]: |A^{-1}_aj curve'_j|
        d = gamma * terms.sum(axis=1)
        size = np.abs(w)
        # fmax drops the NaN of a w whose rounding bound overflows with it.
        w_reach, v_reach = np.fmax(size - d, 0.0).max(), np.abs(field).max()
        normal2 = w_reach**4 * v_reach**2
        rounding = (d * (2.0 * size + d) + gamma * w * w).sum(axis=0)
        band = problem.tolerances.causal * np.maximum(1.0, (w * w).sum(axis=0))
        # The frame components cancel terms as large as the coordinate
        # velocity; once their squares overflow, only rounding is left.
        finite = np.isfinite(vals + rounding + (v * v).sum(axis=0)).all()
    if not np.isfinite(normal2):
        raise ProblemValidationError(
            f"the boundary normal's square overflows: the frame velocity reaches "
            f"{w_reach:.3e} and the field {v_reach:.3e} on [{u_lo:g}, {u_hi:g}]"
        )
    if not finite:
        raise ProblemValidationError(
            f"squared speed of the initial curve overflows on [{u_lo:g}, {u_hi:g}]"
        )
    undecided = (np.abs(vals) <= rounding) & (rounding > band)
    if undecided.any():
        k = int(np.argmax(undecided))
        raise ProblemValidationError(
            f"squared speed of the initial curve is lost to rounding at u = {us[k]:g}: "
            f"|g(curve', curve')| = {abs(vals[k]):.3e} is within its rounding bound "
            f"{rounding[k]:.3e} from terms of size {np.max(terms[..., k]):.3e}"
        )
    if (np.abs(vals) <= band).any():
        return CurveClass.LIGHTLIKE
    if (vals > 0.0).all():
        return CurveClass.SPACELIKE
    if (vals < 0.0).all():
        return CurveClass.TIMELIKE
    return CurveClass.MIXED


def initial_data(problem: BjorlingProblem) -> np.ndarray:
    """Frame data on v = 0, as the march's (2, 3, n+1, n+1) stack.

    Column 0 holds psi = (frame velocity + unit * tangent_sign * V x
    velocity) / 2 along the curve; every other entry is zero.
    """
    n = problem.order
    jets = problem.curve_jets
    frame = np.zeros((2, 3, n + 1, n + 1))
    for part, rows, factor in ((0, jets.w, 0.5), (1, jets.cross, 0.5 * problem.kind.tangent_sign)):
        for c, row in enumerate(rows):
            row = row[: n + 1]
            frame[part, c, : row.size, 0] = factor * row
    return frame


def _column_zero(frame0: np.ndarray) -> np.ndarray:
    # (6, n+1, n+1) march stack holding only column 0 of the frame data.
    x = np.zeros((6,) + frame0.shape[2:])
    x[:, :, 0] = frame0.reshape(x.shape)[:, :, 0]
    return x


def _march_maps(gamma: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    # parts = conj_map @ (pair slices p[a', b'], a', b' < 6 the re then unit
    # tables of psi1..3, flattened): rows [k, a, b] (18) are the (re, unit)
    # slices of conj(psi_a) psi_b and rows 18, 19 the (re, unit) slice of
    # psi1^2 + psi2^2 - psi3^2.  gamma_map @ parts[:18] is the (re, unit)
    # stack of G_c = sum gamma[a,b,c] conj(psi_a) psi_b.
    conj_map = np.zeros((20, 6, 6))
    row = np.arange(9)
    a, b = np.divmod(row, 3)
    conj_map[row, a, b] = 1.0
    conj_map[row, a + 3, b + 3] = -s
    conj_map[row + 9, a, b + 3] = 1.0
    conj_map[row + 9, a + 3, b] = -1.0
    c = np.arange(3)
    conj_map[18, c, c] = SIGNATURE
    conj_map[18, c + 3, c + 3] = s * SIGNATURE
    conj_map[19, c, c + 3] = 2.0 * SIGNATURE
    gamma_map = np.zeros((2, 3, 2, 9))
    gamma_map[0, :, 0] = gamma_map[1, :, 1] = gamma.reshape(9, 3).T
    return conj_map.reshape(20, 36), gamma_map.reshape(6, 18)


# An overflow shows in its level's cone slice, which is checked, not as a warning.
@np.errstate(over="ignore", invalid="ignore")
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
    product of two of the six (re, unit) tables (``slices.slice_products``
    on ``x[:, None]`` and ``x``: a matrix product per pair into one
    ``slices.SkewPad`` that the march keeps for all its levels, whose
    anti-diagonals a ones vector sums);
    one fixed matrix takes those 36 slices to the slices of every
    conj(psi_a) psi_b and of the cone combination, and a second one takes
    the former to G.  The march thus costs O(order^4) flops in O(order)
    array operations.  With the built-in connection tables the cone is
    preserved to roundoff.  Each level's cone slice is kept, and the
    drift is read once, after the level loop: the first level whose cone
    slice is not finite raises ProblemValidationError (the data
    overflow), or, if it exceeds ``cone_tol`` first, ConstraintDrift;
    level 0 is the initial data itself.
    """
    s = mode.unit_square
    order = frame0.shape[-1] - 1
    conj_map, gamma_map = _march_maps(group.gamma, s)
    twice_gamma = 2.0 * gamma_map
    deg = np.arange(1.0, order + 1)
    x = _column_zero(frame0)
    pad = SkewPad((6, 6), order + 1)
    cone = np.zeros((order + 1, 2, order + 1))  # [level, (re, unit), u-degree]
    for level in range(order + 1):
        rows = order + 1 - level
        parts = conj_map @ slice_products(x[:, None], x, level, rows, pad).reshape(36, -1)
        cone[level, :, :rows] = parts[18:]
        if level < order:
            # Column level+1 from psi_v = unit * (psi_u + 2 G), and
            # unit * (a + unit b) = s b + unit a.  Dividing the sum by
            # s (level+1) gives the bits of s times it divided by level+1,
            # zero signs included; s must not enter before the sum, where
            # s a + s b and s (a + b) differ in the sign of a zero.
            rows -= 1
            rhs = deg[:rows] * x[:, 1 : rows + 1, level]
            rhs += twice_gamma @ parts[:18, :rows]
            np.divide(rhs[3:], s * (level + 1), out=x[:3, :rows, level + 1])
            np.divide(rhs[:3], level + 1, out=x[3:, :rows, level + 1])
    drift = np.max(np.abs(cone), axis=(1, 2))
    overflow = ~np.isfinite(drift)
    failed = overflow if cone_tol is None else overflow | ~(drift <= cone_tol)
    if np.any(failed):
        level = int(np.argmax(failed))
        if overflow[level]:
            raise ProblemValidationError(f"the frame data overflow at march level {level}")
        where = "in the initial data" if level == 0 else f"at march level {level}"
        raise ConstraintDrift(
            f"cone constraint violated {where} by {drift[level]:.3e} "
            f"(tolerance {cone_tol:.3e})"
        )
    return x.reshape(frame0.shape)


def _integrability_gate(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    mismatch = float(np.max(np.abs(got - want)))
    bound = rtol * max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    if not mismatch <= bound:  # NaN fails too
        raise NonIntegrable(f"{name} by {mismatch:.3e}, above {bound:.3e}")


# An overflow shows as a mismatch that is not finite, which fails its gate.
@np.errstate(over="ignore", invalid="ignore")
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
    column L+1 is the v-degree-L slice of A(f) w divided by L+1.  A(x) w
    is recorded once as a ``slices.FrameTape`` whose coordinate tables are
    f and whose given tables are w, and each level fills column L of every
    tape node and so of A(f) w, which needs only columns <= L of f.  Two
    gates then check the finished f, each against ``compat_rtol`` times
    max(1, scale): A(f) r against the u-derivative of f and A(f) w against
    its v-derivative, both from one evaluation off the tape,
    ``mat_vec_tables(group.frame(f), [r, w])`` (the frame evaluated on the
    series of the finished f, and every product of a series entry with a
    component of r or w in one ``series.table_products`` call).  A
    mismatch means the frame data were not integrable, or the march did
    not solve f_v = A(f) w (NonIntegrable).
    A frame entry with no polynomial expansion raises UnsupportedRecipe.
    """
    group.require_frame()
    n = frame.shape[-1] - 1
    s = mode.unit_square
    r_w = np.stack([2.0 * frame[0], (2.0 * s) * frame[1]])
    tape = FrameTape(group.frame, r_w[1], (n + 2, n + 2))
    f = tape.tables[1:4]
    column = table_stack(curve)[:, : n + 2]
    f[:, : column.shape[1], 0] = column
    for level in range(n + 1):
        rows = n + 1 - level
        f[:, :rows, level + 1] = tape.column(level, rows) / (level + 1)
    surface = tuple(BiSeries(table, curve[0].center) for table in f)
    au, av = mat_vec_tables(group.frame(surface), r_w)
    _integrability_gate("f_u differs from A(f) * 2 Re(psi)", du_tables(f), au, compat_rtol)
    _integrability_gate("f_v differs from A(f) * 2s Im(psi)", dv_tables(f), av, compat_rtol)
    return surface


@dataclass
class BjorlingSolution:
    """Everything the solve produced, plus its residual report."""

    group: GroupModel
    kind: ProblemKind
    order: int
    center: float
    base: np.ndarray
    frame_data: np.ndarray  # (2, 3, order+1, order+1): [0, c] re, [1, c] unit of psi_{c+1}
    surface: tuple
    grid: GridSpec
    report: verify.ResidualReport


def solve_bjorling(problem: BjorlingProblem) -> BjorlingSolution:
    """Solve one problem end to end and attach a full residual report.

    Deterministic: identical inputs give bit-identical coefficient tables.
    Raises an ``errors.Rejection`` for a problem it refuses (invalid or
    overflowing data, a lightlike curve, a causal mismatch, a group it
    cannot rebuild in) and an ``errors.ConsistencyFailure`` when the march
    or the rebuild fails its own gate.
    """
    problem.validate()
    observed = classify_curve(problem)
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
    # A product, not a power: past the float range it is inf, not an OverflowError.
    peak = float(np.max(np.abs(frame0)))
    scale = max(1.0, peak * peak)
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

    report = verify.build_report(problem, frame_data, surface)
    return BjorlingSolution(
        group=problem.group,
        kind=problem.kind,
        order=problem.order,
        center=problem.center,
        base=problem.base_point(),
        frame_data=frame_data,
        surface=surface,
        grid=problem.grid,
        report=report,
    )
