"""Independent verification of candidate solutions.

Two unrelated certificates are computed for every surface: the frame-level
residuals of the first-order system (series coefficients), and a
coordinate-level tension-field residual of the immersion's own series,
with Christoffel symbols taken from the chart's frame matrix alone.
Agreement of both is what rules out convention bugs in the connection table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SCHEMA_VERSION, Mode, Tolerances
from .errors import DegenerateFrame, DomainError, ProblemValidationError
from .groups import SIGNATURE, GroupModel, lorentz_cross, lorentz_dot
from .series import _triangle_mask, du_tables, dv_tables, grid_values, pair_products
from .series import table_stack, u_rows, v_product

# Dyadic shrinks of the v-strip tried before the report gives up.
MAX_HALVINGS = 6


@dataclass
class ResidualReport:
    """Flat bundle of every residual; always fully populated."""

    cone_residual: float
    pde_residual: float
    boundary_curve_residual: float
    normal_residual: float
    orientation_flipped: bool
    conformality_residual: float
    minimality_residual: float
    herm_sign_min: float
    herm_sign_max: float
    herm_sign_consistent: bool
    strip_v_min: float
    strip_v_max: float
    strip_halvings: int
    strip_valid: bool
    grid_desc: str

    def as_flat_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION}
        for key, val in self.__dict__.items():
            if isinstance(val, (bool, np.bool_)):
                out[key] = bool(val)
            elif isinstance(val, (int, np.integer)):
                out[key] = int(val)
            elif isinstance(val, (float, np.floating)):
                out[key] = float(val)
            else:
                out[key] = val
        return out

    def failures(self, tol: Tolerances) -> list[str]:
        """Every failing check, as "name = value > bound" lines."""
        bounds = (
            ("cone_residual", tol.cone),
            ("pde_residual", tol.series),
            ("boundary_curve_residual", tol.series),
            ("normal_residual", tol.series),
            ("conformality_residual", tol.conformality),
            ("minimality_residual", tol.minimality),
        )
        out = [
            f"{name} = {getattr(self, name):.3e} > {bound:.3e}"
            for name, bound in bounds
            if not getattr(self, name) <= bound
        ]
        if not self.strip_valid:
            out.append("no validated strip")
        return out

    def passes(self, tol: Tolerances) -> bool:
        return not self.failures(tol)


def weierstrass_residuals(group: GroupModel, frame: np.ndarray, mode: Mode) -> tuple[float, float]:
    """Coefficient-level residuals of the representation conditions.

    Returns (cone, pde): the largest coefficients of psi1^2 + psi2^2 - psi3^2
    and of d psi_c / dzbar + G_c, G_c = sum gamma[a,b,c] conj(psi_a) psi_b,
    for a (2, 3, n+1, n+1) frame-data stack.  One ``series.pair_products``
    call sums the products of pairs of its six (re, unit) tables into the
    (re, unit) tables of the cone and of G, with weights built here from
    ``group.gamma``, the unit's square s and the signature; neither the
    march's slice kernel nor its maps are used, so the certificate stays
    independent of the code that made the data.
    """
    s = mode.unit_square
    n = frame.shape[-1] - 1
    # times[k, r, r']: weight of part r of x times part r' of y in part k
    # of x y, part 0 the real and 1 the unit one; conj(x) y negates r = 1.
    # Tables 0, 1 of the sums are the (re, unit) parts of the cone, and
    # table 2 + 3 k + c is part k of G_c.
    times = np.array([[[1.0, 0.0], [0.0, s]], [[0.0, 1.0], [1.0, 0.0]]])
    squares = np.einsum("krq,ab->kraqb", times, np.diag(SIGNATURE))
    quad = np.einsum("krq,abc->kcraqb", times * [[1.0], [-1.0]], group.gamma)
    weights = np.concatenate([squares, quad.reshape(6, 2, 3, 2, 3)]).reshape(8, 6, 6)
    x = frame.reshape(6, n + 1, n + 1)
    sums = pair_products(x, x, weights)
    cone = float(np.max(np.abs(sums[:2])))
    du, dv = du_tables(frame), dv_tables(frame)
    dzbar = 0.5 * np.stack([du[0] - dv[1], du[1] - s * dv[0]])
    resid = dzbar + sums[2:, :n, :n].reshape(dzbar.shape)
    return cone, float(np.max(np.abs(np.where(_triangle_mask(n - 1), resid, 0.0))))


def hermitian_sign_profile(values: np.ndarray, mode: Mode) -> tuple[float, float]:
    """Range of |psi1|^2 + |psi2|^2 - |psi3|^2 (indefinite moduli) over the
    (re, unit) grid values of the frame data, a (2, 3, ...) array."""
    terms = values[0] * values[0] - mode.unit_square * (values[1] * values[1])
    total = terms[0] + terms[1] - terms[2]
    return float(total.min()), float(total.max())


def report_tables(surface, frame=(), field=()) -> np.ndarray:
    """The tables the grid checks read, zero-padded to one (k, 3, n+1, n+1)
    stack: f, f_u, f_v, f_uu and f_vv of a series triple, then the (re,
    unit) tables of a frame-data stack if one is given, then, last, the
    jets of a normal field triple if one is given, cut to the surface's
    order, as tables of column 0 (constant in v), so that the grid's
    powers of u give their values too."""
    f = table_stack(surface)
    fu, fv = du_tables(f), dv_tables(f)
    parts = (f, fu, fv, du_tables(fu), dv_tables(fv), *frame)
    if field:
        parts += (table_stack(field)[:, : f.shape[-1], None],)
    tables = np.zeros((len(parts),) + f.shape)
    for table, part in zip(tables, parts):
        table[:, : part.shape[-2], : part.shape[-1]] = part
    return tables


def frame_components(ainv, *vectors):
    """Coordinate vectors at the points of a stack, each turned into frame
    components through the inverse frame matrix ``ainv`` there."""
    return tuple(np.einsum("ij...,j...->i...", ainv, w) for w in vectors)


def conformality_defect(vec_u, vec_v, sigma: float) -> np.ndarray:
    """|g(f_u, f_v)| + |g(f_u, f_u) + sigma g(f_v, f_v)| at every point, from
    the frame components of the tangents."""
    return np.abs(lorentz_dot(vec_u, vec_v)) + np.abs(
        lorentz_dot(vec_u, vec_u) + sigma * lorentz_dot(vec_v, vec_v)
    )


def conformality_residual(vec_u, vec_v, sigma: float) -> float:
    """Grid max of the conformality defect of the frame components of the
    tangents on one grid."""
    return float(np.max(conformality_defect(vec_u, vec_v, sigma)))


def boundary_residuals(group: GroupModel, surface, curve, us, values) -> tuple[float, float, bool]:
    """Deviation of the solved surface from its prescribed boundary data.

    curve_res is coefficientwise: the v = 0 row of the surface against the
    curve jets.  normal_res compares the normalized frame cross product of
    f_u, f_v on v = 0 with the prescribed field, allowing one global
    orientation flip (reported, not failed).  ``values`` is a (4, 3,
    len(us)) array: f, f_u, f_v and the field at the points us on v = 0,
    the column-0 values of ``report_tables(surface, frame, field)``.  A
    normal whose square is not finite raises ProblemValidationError, a
    null one DegenerateFrame.
    """
    curve_res = 0.0
    for f, b in zip(surface, curve):
        row = f.coeffs[:, 0]
        k = min(row.size, b.coeffs.size)
        curve_res = max(curve_res, float(np.max(np.abs(row[:k] - b.coeffs[:k]))))

    us = np.asarray(us, dtype=float)
    x, fu, fv, target = values
    normal = np.array(lorentz_cross(*frame_components(group.frame_matrix(x), fu, fv)))
    norm2 = lorentz_dot(normal, normal)
    if not np.all(np.isfinite(norm2)):
        u = us[np.argmin(np.isfinite(norm2))]
        raise ProblemValidationError(f"the boundary normal's square overflows at u = {u:g}")
    degenerate = np.abs(norm2) <= 1e-12 * np.sum(normal * normal, axis=0)
    if degenerate.any():
        raise DegenerateFrame(f"degenerate normal at u = {us[np.argmax(degenerate)]:g}")
    normal = normal / np.sqrt(np.abs(norm2))
    res_plus = float(np.max(np.abs(normal - target)))
    res_minus = float(np.max(np.abs(normal + target)))
    if res_plus <= res_minus:
        return curve_res, res_plus, False
    return curve_res, res_minus, True


def tension_residual(gam, grids, vec_u, vec_v, sigma: float) -> float:
    """Grid max of the coordinate-level minimality certificate of one grid
    evaluation.

    Evaluates R^k = f^k_uu - sigma f^k_vv + Gamma^k_ij (f^i_u f^j_u -
    sigma f^i_v f^j_v) over the conformal factor (|g(f_u, f_u)| +
    |g(f_v, f_v)|) / 2, with f and its first and second partials on the
    grid from the series' own derivative tables, Gamma from
    ``GroupModel.christoffels``, which reads only the chart, and the factor
    from the frame components vec_u, vec_v of the tangents.
    """
    _, f_u, f_v, f_uu, f_vv = grids
    quad = np.einsum("kij...,i...,j...->k...", gam, f_u, f_u) - sigma * np.einsum(
        "kij...,i...,j...->k...", gam, f_v, f_v
    )
    resid = f_uu - sigma * f_vv + quad
    conf = 0.5 * (np.abs(lorentz_dot(vec_u, vec_u)) + np.abs(lorentz_dot(vec_v, vec_v)))
    return float(np.max(np.max(np.abs(resid), axis=0) / np.maximum(conf, 1e-12)))


def grid_certificates(group: GroupModel, grids: np.ndarray, sigma: float) -> tuple[float, float]:
    """Conformality and tension residuals of a series triple from its grid
    values ``grids`` (f, f_u, f_v, f_uu, f_vv: the ``grid_values`` of the
    first five ``report_tables``), with one ``christoffels`` call and one
    ``frame_components`` call.  Leaving the chart raises DomainError (the
    report uses that to shrink the strip)."""
    gam, ainv = group.christoffels(grids[0])
    vec_u, vec_v = frame_components(ainv, grids[1], grids[2])
    conf = conformality_residual(vec_u, vec_v, sigma)
    return conf, tension_residual(gam, grids, vec_u, vec_v, sigma)


def compare_to_reference(surface, reference_fn, us, vs) -> float:
    """Largest grid deviation between a series triple and a closed form.

    ``reference_fn(u, v)`` is called once, with arrays u, v of shape
    (len(us), len(vs)), and returns the three coordinates on them.
    """
    u, v = np.meshgrid(np.asarray(us, dtype=float), np.asarray(vs, dtype=float), indexing="ij")
    here = grid_values(table_stack(surface), surface[0].center, us, vs)
    return float(np.max(np.abs(here - np.asarray(reference_fn(u, v), dtype=float))))


# An overflow shows as a residual that is not finite, which fails its check.
@np.errstate(over="ignore", invalid="ignore")
def build_report(problem, frame: np.ndarray, surface) -> ResidualReport:
    """Assemble the full residual report of a ``solver.BjorlingProblem``'s
    frame data and rebuilt surface, shrinking the v-strip dyadically
    until the grid-level residuals pass (or the strip bottoms out).

    The group, kind, curve, normal field, grid and tolerances are the
    problem's.  Series-level residuals do not depend on the strip and are
    computed once.  The grid checks read one evaluation: the
    ``report_tables`` of the surface, the frame data and the normal field,
    multiplied once by the powers of u.  The boundary reads its v = 0
    column, the field's values among them, and each strip attempt
    multiplies the surface's and the frame data's rows by its own powers
    of v.  The report is
    complete even when no strip validates; in that case the smallest
    strip's values are reported with strip_valid False.
    """
    group, kind, grid, tol = problem.group, problem.kind, problem.grid, problem.tolerances
    cone, pde = weierstrass_residuals(group, frame, kind.mode)
    report_grid = grid.coarse()
    us = report_grid.us()
    rows = u_rows(report_tables(surface, frame, problem.normal_field), surface[0].center, us)
    curve_res, normal_res, flipped = boundary_residuals(
        group, surface, problem.curve, us, rows[[0, 1, 2, -1], ..., 0]
    )
    rows = rows[:-1]  # the field, the last table, is constant in v

    conf = float("inf")
    minim = float("inf")
    chosen = None
    attempted = None
    for halvings in range(MAX_HALVINGS + 1):
        sub = report_grid.scaled_v(0.5**halvings)
        values = v_product(rows, sub.vs())
        try:
            conf_try, minim_try = grid_certificates(group, values[:5], kind.sigma)
        except DomainError:
            continue
        attempted = (sub, conf_try, minim_try, halvings, values)
        if conf_try <= tol.conformality and minim_try <= tol.minimality:
            chosen = attempted
            break
    if attempted is None:
        # Even the thinnest strip leaves the chart; halvings is MAX_HALVINGS.
        v_min = v_max = 0.0
        frame_values = rows[5:, ..., :1]
    else:
        sub, conf, minim, halvings, values = chosen if chosen is not None else attempted
        v_min, v_max, frame_values = sub.v_min, sub.v_max, values[5:]
    sign_lo, sign_hi = hermitian_sign_profile(frame_values, kind.mode)

    return ResidualReport(
        cone_residual=cone,
        pde_residual=pde,
        boundary_curve_residual=curve_res,
        normal_residual=normal_res,
        orientation_flipped=flipped,
        conformality_residual=conf,
        minimality_residual=minim,
        herm_sign_min=sign_lo,
        herm_sign_max=sign_hi,
        herm_sign_consistent=(sign_lo > 0.0) == (sign_hi > 0.0),
        strip_v_min=v_min,
        strip_v_max=v_max,
        strip_halvings=halvings,
        strip_valid=chosen is not None,
        grid_desc=(
            f"u in [{grid.u_min:g}, {grid.u_max:g}] x v in "
            f"[{v_min:g}, {v_max:g}], {report_grid.nu}x{report_grid.nv}"
        ),
    )
