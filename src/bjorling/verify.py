"""Independent verification of candidate solutions.

Two unrelated certificates are computed for every surface: the frame-level
residuals of the first-order system (series coefficients), and a
coordinate-level tension-field residual that uses only grid evaluations,
finite differences and numerically differentiated Christoffel symbols.
Agreement of both is what rules out convention bugs in the connection
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GridSpec, ProblemKind, Tolerances
from .errors import DegenerateFrame, DomainError
from .groups import GroupModel, lorentz_cross, lorentz_dot
from .solver import StripInfo, cone_series


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

    SCHEMA_VERSION = 1

    def as_flat_dict(self) -> dict:
        out = {"schema_version": self.SCHEMA_VERSION}
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

    def passes(self, tol: Tolerances) -> bool:
        return (
            self.strip_valid
            and self.cone_residual <= tol.cone
            and self.pde_residual <= tol.series
            and self.boundary_curve_residual <= tol.series
            and self.normal_residual <= tol.series
            and self.conformality_residual <= tol.conformality
            and self.minimality_residual <= tol.minimality
        )


def weierstrass_residuals(group: GroupModel, frame_data) -> tuple[float, float]:
    """Coefficient-level residuals of the representation conditions.

    Returns (cone, pde): the largest coefficient of psi1^2 + psi2^2 - psi3^2
    and the largest coefficient over c of d psi_c / dzbar + G_c.  Both are
    built from full series products (``GroupModel.pde_quadratic``), not from
    the march's slice kernel, so this certificate stays independent of the
    code that produced the coefficients.
    """
    cone = cone_series(frame_data).maxabs()
    quad = group.pde_quadratic(frame_data)
    pde = 0.0
    for c in range(3):
        resid = frame_data[c].dzbar() + quad[c].truncated(frame_data[c].order - 1)
        pde = max(pde, resid.maxabs())
    return cone, pde


def hermitian_sign_profile(frame_data, us, vs) -> tuple[float, float]:
    """Grid range of |psi1|^2 + |psi2|^2 - |psi3|^2 (indefinite moduli)."""
    total = None
    signs = (1.0, 1.0, -1.0)
    s = frame_data[0].mode.unit_square
    for eps, comp in zip(signs, frame_data):
        re = comp.re.eval_grid(us, vs)
        im = comp.im.eval_grid(us, vs)
        term = eps * (re * re - s * (im * im))
        total = term if total is None else total + term
    return float(total.min()), float(total.max())


def conformality_residual(
    group: GroupModel, surface, sigma: float, us, vs
) -> float:
    """Grid max of |g(f_u, f_v)| + |g(f_u, f_u) + sigma g(f_v, f_v)|.

    Tangent vectors are converted to frame components through the inverse
    frame matrix at each surface point.  Leaving the chart raises
    DomainError (callers use that to shrink the strip).
    """
    fu = [f.du() for f in surface]
    fv = [f.dv() for f in surface]
    pts = [f.eval_grid(us, vs) for f in surface]
    fug = [f.eval_grid(us, vs) for f in fu]
    fvg = [f.eval_grid(us, vs) for f in fv]
    worst = 0.0
    for i in range(len(us)):
        for j in range(len(vs)):
            x = np.array([pts[0][i, j], pts[1][i, j], pts[2][i, j]])
            _, ainv = group.frame_matrix(x)
            vec_u = ainv @ np.array([fug[0][i, j], fug[1][i, j], fug[2][i, j]])
            vec_v = ainv @ np.array([fvg[0][i, j], fvg[1][i, j], fvg[2][i, j]])
            res = abs(lorentz_dot(vec_u, vec_v)) + abs(
                lorentz_dot(vec_u, vec_u) + sigma * lorentz_dot(vec_v, vec_v)
            )
            worst = max(worst, res)
    return worst


def boundary_residuals(
    group: GroupModel, surface, curve, normal_field, kind: ProblemKind, us
) -> tuple[float, float, bool]:
    """Deviation of the solved surface from its prescribed boundary data.

    curve_res is coefficientwise: the v = 0 row of the surface against the
    curve jets.  normal_res compares the normalized frame cross product of
    f_u, f_v on v = 0 with the prescribed field, allowing one global
    orientation flip (reported, not failed).
    """
    curve_res = 0.0
    for f, b in zip(surface, curve):
        row = f.coeffs[:, 0]
        k = min(row.size, b.coeffs.size)
        curve_res = max(curve_res, float(np.max(np.abs(row[:k] - b.coeffs[:k]))))

    fu = [f.du() for f in surface]
    fv = [f.dv() for f in surface]
    res_plus = 0.0
    res_minus = 0.0
    for u in us:
        x = np.array([f.eval(u, 0.0) for f in surface])
        _, ainv = group.frame_matrix(x)
        vec_u = ainv @ np.array([f.eval(u, 0.0) for f in fu])
        vec_v = ainv @ np.array([f.eval(u, 0.0) for f in fv])
        normal = np.array(lorentz_cross(vec_u, vec_v))
        norm2 = lorentz_dot(normal, normal)
        if abs(norm2) <= 1e-12 * max(1.0, float(normal @ normal)):
            raise DegenerateFrame(f"degenerate normal at u = {u:g}")
        normal = normal / np.sqrt(abs(norm2))
        target = np.array([w.eval(u) for w in normal_field])
        res_plus = max(res_plus, float(np.max(np.abs(normal - target))))
        res_minus = max(res_minus, float(np.max(np.abs(normal + target))))
    if res_plus <= res_minus:
        return curve_res, res_plus, False
    return curve_res, res_minus, True


def tension_residual(
    group: GroupModel,
    surface_fn,
    sigma: float,
    us,
    vs,
    step: float = 1e-3,
    christoffel_step: float | None = None,
) -> float:
    """Coordinate-level minimality certificate by finite differences.

    Evaluates R^k = f^k_uu - sigma f^k_vv + Gamma^k_ij (f^i_u f^j_u -
    sigma f^i_v f^j_v) with all derivatives taken by central differences
    of ``surface_fn`` and Gamma from numerically differentiated metric
    coefficients, then normalizes by the conformal factor.  Everything is
    independent of the series machinery except (optionally) point
    evaluation.
    """
    worst = 0.0
    h = step
    for u in np.asarray(us, dtype=float):
        for v in np.asarray(vs, dtype=float):
            f0 = np.asarray(surface_fn(u, v), dtype=float)
            fpu = np.asarray(surface_fn(u + h, v), dtype=float)
            fmu = np.asarray(surface_fn(u - h, v), dtype=float)
            fpv = np.asarray(surface_fn(u, v + h), dtype=float)
            fmv = np.asarray(surface_fn(u, v - h), dtype=float)
            f_u = (fpu - fmu) / (2.0 * h)
            f_v = (fpv - fmv) / (2.0 * h)
            f_uu = (fpu - 2.0 * f0 + fmu) / (h * h)
            f_vv = (fpv - 2.0 * f0 + fmv) / (h * h)
            gam = group.christoffels(f0, step=christoffel_step)
            quad = np.einsum("kij,i,j->k", gam, f_u, f_u) - sigma * np.einsum(
                "kij,i,j->k", gam, f_v, f_v
            )
            resid = f_uu - sigma * f_vv + quad
            g = group.metric(f0)
            conf = 0.5 * (abs(f_u @ g @ f_u) + abs(f_v @ g @ f_v))
            worst = max(worst, float(np.max(np.abs(resid))) / max(conf, 1e-12))
    return worst


def compare_to_reference(surface, reference_fn, us, vs) -> float:
    """Largest grid deviation between a series triple and a closed form."""
    grids = [f.eval_grid(us, vs) for f in surface]
    worst = 0.0
    for i, u in enumerate(np.asarray(us, dtype=float)):
        for j, v in enumerate(np.asarray(vs, dtype=float)):
            ref = np.asarray(reference_fn(u, v), dtype=float)
            here = np.array([g[i, j] for g in grids])
            worst = max(worst, float(np.max(np.abs(here - ref))))
    return worst


def graph_identity_residual(surface, relation, us, vs) -> float:
    """Grid max of |relation(x1, x2, x3)| along the surface."""
    grids = [f.eval_grid(us, vs) for f in surface]
    vals = relation(grids[0], grids[1], grids[2])
    return float(np.max(np.abs(vals)))


def build_report(
    group: GroupModel,
    kind: ProblemKind,
    frame_data,
    surface,
    curve,
    normal_field,
    grid: GridSpec,
    tol: Tolerances,
    max_halvings: int = 6,
) -> tuple[ResidualReport, StripInfo]:
    """Assemble the full residual report, shrinking the v-strip dyadically
    until the grid-level residuals pass (or the strip bottoms out).

    Series-level residuals do not depend on the strip and are computed
    once.  The report is complete even when no strip validates; in that
    case the smallest strip's values are reported with strip_valid False.
    """
    cone, pde = weierstrass_residuals(group, frame_data)
    report_grid = grid.coarse()
    us = report_grid.us()
    curve_res, normal_res, flipped = boundary_residuals(
        group, surface, curve, normal_field, kind, us
    )

    surface_fn = lambda u, v: np.array([f.eval(u, v) for f in surface])
    conf = float("inf")
    minim = float("inf")
    chosen = None
    attempted = None
    for halvings in range(max_halvings + 1):
        sub = report_grid.scaled_v(0.5**halvings)
        vs = sub.vs()
        try:
            conf_try = conformality_residual(group, surface, kind.sigma, us, vs)
            minim_try = tension_residual(
                group, surface_fn, kind.sigma, us, vs, step=tol.fd_step
            )
        except DomainError:
            continue
        attempted = (sub, conf_try, minim_try, halvings)
        if conf_try <= tol.conformality and minim_try <= tol.minimality:
            chosen = attempted
            break
    if chosen is None and attempted is None:
        # Even the thinnest strip leaves the chart.
        strip = StripInfo(0.0, 0.0, max_halvings, False)
        sign_lo, sign_hi = hermitian_sign_profile(
            frame_data, us, np.array([0.0])
        )
    else:
        sub, conf, minim, halvings = chosen if chosen is not None else attempted
        strip = StripInfo(sub.v_min, sub.v_max, halvings, chosen is not None)
        sign_lo, sign_hi = hermitian_sign_profile(frame_data, us, sub.vs())

    report = ResidualReport(
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
        strip_v_min=strip.v_min,
        strip_v_max=strip.v_max,
        strip_halvings=strip.halvings,
        strip_valid=strip.valid,
        grid_desc=(
            f"u in [{grid.u_min:g}, {grid.u_max:g}] x v in "
            f"[{strip.v_min:g}, {strip.v_max:g}], {report_grid.nu}x{report_grid.nv}"
        ),
    )
    return report, strip
