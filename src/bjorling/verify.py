"""Independent verification of candidate solutions.

Two unrelated certificates are computed for every surface: the frame-level
residuals of the first-order system (series coefficients), and a
coordinate-level tension-field residual that uses only grid evaluations,
finite differences and numerically differentiated Christoffel symbols.
Agreement of both is what rules out convention bugs in the connection
table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyvander

from .config import GridSpec, ProblemKind, Tolerances
from .errors import DegenerateFrame, DomainError
from .groups import SIGNATURE, GroupModel, lorentz_cross, lorentz_dot
from .scalars import Mode
from .series import pair_products
from .solver import evaluate_surface

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
    for a (2, 3, n+1, n+1) frame-data stack.  The products come from all
    pairs of its six (re, unit) tables, made in one batch by
    ``series.pair_products``, not by the march's slice kernel: the
    certificate stays independent of the code that made the data.
    """
    s = mode.unit_square
    n = frame.shape[-1] - 1
    x = frame.reshape(6, n + 1, n + 1)
    p = pair_products(x, x).reshape(2, 3, 2, 3, n + 1, n + 1)
    # (re, unit) parts of psi_a psi_b and of conj(psi_a) psi_b, indexed [a, b].
    square = np.stack([p[0, :, 0] + s * p[1, :, 1], p[0, :, 1] + p[1, :, 0]])
    mixed = np.stack([p[0, :, 0] - s * p[1, :, 1], p[0, :, 1] - p[1, :, 0]])
    cone = float(np.max(np.abs(np.einsum("a,raamk->rmk", SIGNATURE, square))))
    quad = np.tensordot(group.gamma, mixed, axes=([0, 1], [1, 2])).swapaxes(0, 1)
    # d/du and d/dv of every table, truncated to order n - 1.
    deg = np.arange(1.0, n + 1)
    du = frame[..., 1:, :n] * deg[:, None]
    dv = frame[..., :n, 1:] * deg
    dzbar = 0.5 * np.stack([du[0] - dv[1], du[1] - s * dv[0]])
    resid = dzbar + quad[..., :n, :n]
    kept = np.add.outer(np.arange(n), np.arange(n)) < n
    return cone, float(np.max(np.abs(np.where(kept, resid, 0.0))))


def hermitian_sign_profile(
    frame: np.ndarray, mode: Mode, center: float, us, vs
) -> tuple[float, float]:
    """Grid range of |psi1|^2 + |psi2|^2 - |psi3|^2 (indefinite moduli) for
    a frame-data stack about ``center``."""
    n = frame.shape[-1] - 1
    tu = polyvander(np.asarray(us, dtype=float) - center, n)
    vals = tu @ frame @ polyvander(np.asarray(vs, dtype=float), n).T
    terms = vals[0] * vals[0] - mode.unit_square * (vals[1] * vals[1])
    total = terms[0] + terms[1] - terms[2]
    return float(total.min()), float(total.max())


def surface_grids(surface, us, vs):
    """Points and tangents f_u, f_v of a series triple on the tensor grid
    us x vs: three (3, len(us), len(vs)) stacks."""
    return tuple(
        np.array([f.eval_grid(us, vs) for f in fs])
        for fs in (surface, [f.du() for f in surface], [f.dv() for f in surface])
    )


def frame_components(group: GroupModel, x, *vectors):
    """Coordinate vectors at the points of a (3, ...) stack, each turned into
    frame components through the inverse frame matrix there."""
    _, ainv = group.frame_matrix(x)
    return tuple(np.einsum("ij...,j...->i...", ainv, w) for w in vectors)


def conformality_defect(group: GroupModel, x, fu, fv, sigma: float) -> np.ndarray:
    """|g(f_u, f_v)| + |g(f_u, f_u) + sigma g(f_v, f_v)| at every point of
    (3, ...) stacks of points and tangents."""
    vec_u, vec_v = frame_components(group, x, fu, fv)
    return np.abs(lorentz_dot(vec_u, vec_v)) + np.abs(
        lorentz_dot(vec_u, vec_u) + sigma * lorentz_dot(vec_v, vec_v)
    )


def conformality_residual(
    group: GroupModel, surface, sigma: float, us, vs
) -> float:
    """Grid max of the conformality defect of a series triple.

    Tangent vectors are converted to frame components through the inverse
    frame matrix at each surface point.  Leaving the chart raises
    DomainError (callers use that to shrink the strip).
    """
    return float(np.max(conformality_defect(group, *surface_grids(surface, us, vs), sigma)))


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

    us = np.asarray(us, dtype=float)
    x, fu, fv = (grid[..., 0] for grid in surface_grids(surface, us, [0.0]))
    normal = np.array(lorentz_cross(*frame_components(group, x, fu, fv)))
    norm2 = lorentz_dot(normal, normal)
    degenerate = np.abs(norm2) <= 1e-12 * np.maximum(1.0, np.sum(normal * normal, axis=0))
    if degenerate.any():
        raise DegenerateFrame(f"degenerate normal at u = {us[np.argmax(degenerate)]:g}")
    normal = normal / np.sqrt(np.abs(norm2))
    target = np.array([w.eval(us) for w in normal_field])
    res_plus = float(np.max(np.abs(normal - target)))
    res_minus = float(np.max(np.abs(normal + target)))
    if res_plus <= res_minus:
        return curve_res, res_plus, False
    return curve_res, res_minus, True


def tension_residual(
    group: GroupModel, surface_fn, sigma: float, us, vs, step: float = 1e-3
) -> float:
    """Coordinate-level minimality certificate by finite differences.

    Evaluates R^k = f^k_uu - sigma f^k_vv + Gamma^k_ij (f^i_u f^j_u -
    sigma f^i_v f^j_v) with all derivatives taken by central differences
    of ``surface_fn`` and Gamma from numerically differentiated metric
    coefficients, then normalizes by the conformal factor.  Everything is
    independent of the series machinery except (optionally) point
    evaluation.

    The whole us x vs grid is done at once: ``surface_fn(u, v)`` is called
    five times, with arrays u, v of shape (len(us), len(vs)), and must
    return the coordinates as one array of shape (3, *u.shape).
    """
    u, v = np.meshgrid(np.asarray(us, dtype=float), np.asarray(vs, dtype=float), indexing="ij")
    h = step
    f0, fpu, fmu, fpv, fmv = (
        np.asarray(surface_fn(a, b), dtype=float)
        for a, b in ((u, v), (u + h, v), (u - h, v), (u, v + h), (u, v - h))
    )
    f_u = (fpu - fmu) / (2.0 * h)
    f_v = (fpv - fmv) / (2.0 * h)
    f_uu = (fpu - 2.0 * f0 + fmu) / (h * h)
    f_vv = (fpv - 2.0 * f0 + fmv) / (h * h)
    gam = group.christoffels(f0)
    quad = np.einsum("kij...,i...,j...->k...", gam, f_u, f_u) - sigma * np.einsum(
        "kij...,i...,j...->k...", gam, f_v, f_v
    )
    resid = f_uu - sigma * f_vv + quad
    g = group.metric(f0)
    conf = 0.5 * (
        np.abs(np.einsum("i...,ij...,j...->...", f_u, g, f_u))
        + np.abs(np.einsum("i...,ij...,j...->...", f_v, g, f_v))
    )
    return float(np.max(np.max(np.abs(resid), axis=0) / np.maximum(conf, 1e-12)))


def compare_to_reference(surface, reference_fn, us, vs) -> float:
    """Largest grid deviation between a series triple and a closed form.

    ``reference_fn(u, v)`` is called once, with arrays u, v of shape
    (len(us), len(vs)), and returns the three coordinates on them.
    """
    u, v = np.meshgrid(np.asarray(us, dtype=float), np.asarray(vs, dtype=float), indexing="ij")
    here = np.array([f.eval_grid(us, vs) for f in surface])
    return float(np.max(np.abs(here - np.asarray(reference_fn(u, v), dtype=float))))


def graph_identity_residual(surface, relation, us, vs) -> float:
    """Grid max of |relation(x1, x2, x3)| along the surface."""
    grids = [f.eval_grid(us, vs) for f in surface]
    vals = relation(grids[0], grids[1], grids[2])
    return float(np.max(np.abs(vals)))


def build_report(
    group: GroupModel,
    kind: ProblemKind,
    frame: np.ndarray,
    surface,
    curve,
    normal_field,
    grid: GridSpec,
    tol: Tolerances,
) -> ResidualReport:
    """Assemble the full residual report, shrinking the v-strip dyadically
    until the grid-level residuals pass (or the strip bottoms out).

    Series-level residuals do not depend on the strip and are computed
    once.  The report is complete even when no strip validates; in that
    case the smallest strip's values are reported with strip_valid False.
    """
    cone, pde = weierstrass_residuals(group, frame, kind.mode)
    report_grid = grid.coarse()
    us = report_grid.us()
    curve_res, normal_res, flipped = boundary_residuals(
        group, surface, curve, normal_field, kind, us
    )

    surface_fn = functools.partial(evaluate_surface, surface)
    conf = float("inf")
    minim = float("inf")
    chosen = None
    attempted = None
    for halvings in range(MAX_HALVINGS + 1):
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
    if attempted is None:
        # Even the thinnest strip leaves the chart; halvings is MAX_HALVINGS.
        v_min = v_max = 0.0
        sign_vs = np.array([0.0])
    else:
        sub, conf, minim, halvings = chosen if chosen is not None else attempted
        v_min, v_max, sign_vs = sub.v_min, sub.v_max, sub.vs()
    sign_lo, sign_hi = hermitian_sign_profile(frame, kind.mode, curve[0].center, us, sign_vs)

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
