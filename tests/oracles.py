"""Independent oracles for the tests.

Everything here is deliberately built from a different path than the
library: symbolic Christoffel symbols via sympy, series coefficients from
factorial formulas, brute-force dictionary polynomial products, table
products by one Kronecker-substituted 1-D convolution, the
coefficient-level certificate with every product made that way, the
frame march as a literal transcription of the PDE with full series
products at every level, the series exp as a Horner sum of full products,
the grid certificates and the mesh as loops over single grid points, and
the mesh files written one line at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import sympy as sp

from bjorling.groups import lorentz_dot
from bjorling.scalars import KScalar, Mode
from bjorling.series import BiSeries, KSeries


@lru_cache(maxsize=None)
def exact_christoffels(name: str):
    """Symbolically differentiated Christoffels of one built-in metric.

    Returns a callable mapping a coordinate triple to the (3, 3, 3) table
    Gamma[k, i, j].
    """
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    if name == "heisenberg":
        g = sp.Matrix(
            [
                [1 - x2**2 / 4, x1 * x2 / 4, -x2 / 2],
                [x1 * x2 / 4, 1 - x1**2 / 4, x1 / 2],
                [-x2 / 2, x1 / 2, -1],
            ]
        )
    elif name == "desitter":
        g = sp.diag(1 / x3**2, 1 / x3**2, -1 / x3**2)
    elif name == "h2xr":
        g = sp.diag(1 / x2**2, 1 / x2**2, -1)
    else:
        raise KeyError(name)
    xs = (x1, x2, x3)
    ginv = g.inv()
    table = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                expr = sum(
                    ginv[k, l]
                    * (sp.diff(g[j, l], xs[i]) + sp.diff(g[i, l], xs[j]) - sp.diff(g[i, j], xs[l]))
                    for l in range(3)
                ) / 2
                table[k][i][j] = sp.simplify(expr)
    fn = sp.lambdify(xs, table, "numpy")
    return lambda x: np.asarray(fn(x[0], x[1], x[2]), dtype=float)


def univariate_coeffs(fn_name: str, center: float, order: int) -> np.ndarray:
    """Taylor coefficients of a named function about a center, by the
    factorial formulas (no series arithmetic involved)."""
    c = np.zeros(order + 1)
    for k in range(order + 1):
        if fn_name == "exp":
            d = math.exp(center)
        elif fn_name == "sinh":
            d = math.sinh(center) if k % 2 == 0 else math.cosh(center)
        elif fn_name == "cosh":
            d = math.cosh(center) if k % 2 == 0 else math.sinh(center)
        elif fn_name == "sin":
            d = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)][k % 4](center)
        elif fn_name == "cos":
            d = [math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin][k % 4](center)
        else:
            raise KeyError(fn_name)
        c[k] = d / math.factorial(k)
    return c


def brute_mul_2d(a: dict, b: dict, order: int) -> dict:
    """Dictionary product of {(m, n): coeff} tables, truncated by total degree."""
    out = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            m, n = m1 + m2, n1 + n2
            if m + n <= order:
                out[(m, n)] = out.get((m, n), 0.0) + c1 * c2
    return out


def table_from_dict(d: dict, order: int) -> np.ndarray:
    out = np.zeros((order + 1, order + 1))
    for (m, n), c in d.items():
        out[m, n] = c
    return out


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two triangular tables of one order.

    The full 2-D product is one flattened 1-D convolution: rows are padded
    to the full output width so column degrees never wrap into the next row
    (Kronecker substitution).  It is then cut back to the triangle.
    """
    rows, cols = a.shape
    width = 2 * cols - 1
    fa = np.zeros((rows, width))
    fa[:, :cols] = a
    fb = np.zeros((rows, width))
    fb[:, :cols] = b
    full = np.convolve(fa.ravel(), fb.ravel())[: (2 * rows - 1) * width].reshape(-1, width)
    degree = np.add.outer(np.arange(rows), np.arange(cols))
    return np.where(degree < rows, full[:rows, :cols], 0.0)


def frame_stack(components) -> np.ndarray:
    """The library's (2, 3, n+1, n+1) frame-data stack of a KSeries triple:
    [0, c] is the real and [1, c] the unit table of component c."""
    return np.array([[comp.re.coeffs for comp in components],
                     [comp.im.coeffs for comp in components]])


def frame_series(frame: np.ndarray, center: float, mode: Mode):
    """The KSeries triple of a frame-data stack (inverse of ``frame_stack``)."""
    return tuple(
        KSeries(BiSeries(re, center), BiSeries(im, center), mode) for re, im in zip(*frame)
    )


def _reference_kmul(x, y, s):
    # (re, unit) tables of the product of two algebra-valued tables.
    return (
        reference_product(x[0], y[0]) + s * reference_product(x[1], y[1]),
        reference_product(x[0], y[1]) + reference_product(x[1], y[0]),
    )


def reference_weierstrass_residuals(group, frame_data) -> tuple[float, float]:
    """(cone, pde) of ``verify.weierstrass_residuals``, transcribed from
    ``solver.cone_series`` and ``GroupModel.pde_quadratic`` with every table
    product made by ``reference_product``, one product at a time."""
    s = frame_data[0].mode.unit_square
    psi = [(comp.re.coeffs, comp.im.coeffs) for comp in frame_data]
    squares = [_reference_kmul(p, p, s) for p in psi]
    cone = max(
        float(np.max(np.abs(squares[0][r] + squares[1][r] - squares[2][r]))) for r in range(2)
    )
    pde = 0.0
    for c, comp in enumerate(frame_data):
        quad = [np.zeros_like(psi[c][0]), np.zeros_like(psi[c][0])]
        for a in range(3):
            for b in range(3):
                if group.gamma[a, b, c] != 0.0:
                    term = _reference_kmul((psi[a][0], -psi[a][1]), psi[b], s)
                    quad = [q + group.gamma[a, b, c] * t for q, t in zip(quad, term)]
        dz = comp.dzbar()
        n = dz.order
        for r, part in enumerate((dz.re, dz.im)):
            resid = part.coeffs + quad[r][: n + 1, : n + 1]
            degree = np.add.outer(np.arange(n + 1), np.arange(n + 1))
            pde = max(pde, float(np.max(np.abs(np.where(degree <= n, resid, 0.0)))))
    return cone, pde


def split_cosh_parts(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables of cosh(u)cosh(v) and sinh(u)sinh(v), which are
    the two components of the split-complex cosh of u + j*v at center 0."""
    cu = {(m, 0): univariate_coeffs("cosh", 0.0, order)[m] for m in range(order + 1)}
    cv = {(0, n): univariate_coeffs("cosh", 0.0, order)[n] for n in range(order + 1)}
    su = {(m, 0): univariate_coeffs("sinh", 0.0, order)[m] for m in range(order + 1)}
    sv = {(0, n): univariate_coeffs("sinh", 0.0, order)[n] for n in range(order + 1)}
    re = brute_mul_2d(cu, cv, order)
    im = brute_mul_2d(su, sv, order)
    return table_from_dict(re, order), table_from_dict(im, order)


# ---------------------------------------------------------------------------
# full-product march references


def _times_unit(x: KSeries) -> KSeries:
    # Multiply by the mode's imaginary unit.
    if x.mode is Mode.PARACOMPLEX:
        return KSeries(x.im, x.re, x.mode)
    return KSeries(-1.0 * x.im, x.re, x.mode)


def _column_zero_tables(components, n):
    parts = []
    for comp in components:
        re = np.zeros((n + 1, n + 1))
        im = np.zeros((n + 1, n + 1))
        k = min(n, comp.order)
        re[: k + 1, 0] = comp.re.coeffs[: k + 1, 0]
        im[: k + 1, 0] = comp.im.coeffs[: k + 1, 0]
        parts.append((re, im))
    return parts


def _march_level(group, parts, current, level, n):
    # Write column level+1 of each part from the full quadratic G.
    quad = group.pde_quadratic(current)
    denom = float(level + 1)
    for c, (re, im) in enumerate(parts):
        rhs = _times_unit(current[c].du() + 2.0 * quad[c])
        rows = n - level  # entries (m, level) with m + level <= n - 1
        re[:rows, level + 1] = rhs.re.coeffs[:rows, level] / denom
        im[:rows, level + 1] = rhs.im.coeffs[:rows, level] / denom


def reference_ck_march(group, frame_data0, mode: Mode, order: int):
    """The frame march with the whole quadratic G rebuilt at every level."""
    n = order
    center = frame_data0[0].center
    parts = _column_zero_tables(frame_data0, n)

    def wrap(pair):
        return KSeries(BiSeries(pair[0], center), BiSeries(pair[1], center), mode)

    for level in range(n):
        _march_level(group, parts, tuple(wrap(p) for p in parts), level, n)
    return tuple(wrap(p) for p in parts)


def reference_sqrt(a: KSeries, branch: KScalar) -> KSeries:
    """Series square root matched total degree by total degree against
    full products r * r."""
    n = a.order
    s = a.mode.unit_square
    inv2 = (2.0 * branch).inverse()
    r_re = np.zeros((n + 1, n + 1))
    r_im = np.zeros((n + 1, n + 1))
    r_re[0, 0] = branch.re
    r_im[0, 0] = branch.im
    for d in range(1, n + 1):
        # Entries of degree d in r are still zero, so r*r holds only
        # strictly lower-degree pairs there.
        r = KSeries(BiSeries(r_re, a.center), BiSeries(r_im, a.center), a.mode)
        sq = r * r
        for m in range(d + 1):
            k = d - m
            c_re = a.re.coeffs[m, k] - sq.re.coeffs[m, k]
            c_im = a.im.coeffs[m, k] - sq.im.coeffs[m, k]
            r_re[m, k] = inv2.re * c_re + s * inv2.im * c_im
            r_im[m, k] = inv2.re * c_im + inv2.im * c_re
    return KSeries(BiSeries(r_re, a.center), BiSeries(r_im, a.center), a.mode)


def reference_cone_lift(group, first0: KSeries, second0: KSeries, mode: Mode, order: int):
    """March equations 1-2 with full products, taking psi3 as a full square
    root of psi1^2 + psi2^2 at every level."""
    n = order
    center = first0.center
    parts = _column_zero_tables((first0, second0), n)

    def wrap(pair):
        return KSeries(BiSeries(pair[0], center), BiSeries(pair[1], center), mode)

    p1, p2 = wrap(parts[0]), wrap(parts[1])
    branch = (p1 * p1 + p2 * p2).eval(center, 0.0).sqrt()

    def lifted():
        p1, p2 = wrap(parts[0]), wrap(parts[1])
        return p1, p2, reference_sqrt(p1 * p1 + p2 * p2, branch)

    for level in range(n):
        current = lifted()
        _march_level(group, parts, current, level, n)
    return lifted()


# ---------------------------------------------------------------------------
# per-point references for the grid certificates and the mesh


def _point_defect(group, x, fu, fv, sigma):
    _, ainv = group.frame_matrix(x)
    vec_u = ainv @ fu
    vec_v = ainv @ fv
    return abs(lorentz_dot(vec_u, vec_v)) + abs(
        lorentz_dot(vec_u, vec_u) + sigma * lorentz_dot(vec_v, vec_v)
    )


def reference_conformality_residual(group, surface, sigma, us, vs) -> float:
    """Grid max of the conformality defect, one grid point at a time."""
    pts = [f.eval_grid(us, vs) for f in surface]
    fug = [f.du().eval_grid(us, vs) for f in surface]
    fvg = [f.dv().eval_grid(us, vs) for f in surface]
    worst = 0.0
    for i in range(len(us)):
        for j in range(len(vs)):
            x, tu, tv = (np.array([g[k][i, j] for k in range(3)]) for g in (pts, fug, fvg))
            worst = max(worst, _point_defect(group, x, tu, tv, sigma))
    return worst


def reference_tension_residual(group, surface_fn, sigma, us, vs, step=1e-3) -> float:
    """The finite-difference tension certificate, one grid point at a time
    with scalar calls of ``surface_fn``."""
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
            gam = group.christoffels(f0)
            quad = np.einsum("kij,i,j->k", gam, f_u, f_u) - sigma * np.einsum(
                "kij,i,j->k", gam, f_v, f_v
            )
            resid = f_uu - sigma * f_vv + quad
            g = group.metric(f0)
            conf = 0.5 * (abs(f_u @ g @ f_u) + abs(f_v @ g @ f_v))
            worst = max(worst, float(np.max(np.abs(resid))) / max(conf, 1e-12))
    return worst


def reference_build_mesh(stored):
    """(vertices, uv, residual, faces, clipped) of a stored solution's mesh,
    built by visiting the grid points row by row."""
    us, vs = stored.grid.us(), stored.grid.vs()
    pts = [f.eval_grid(us, vs) for f in stored.surface]
    fug = [f.du().eval_grid(us, vs) for f in stored.surface]
    fvg = [f.dv().eval_grid(us, vs) for f in stored.surface]
    nu, nv = stored.grid.nu, stored.grid.nv
    index = -np.ones((nu, nv), dtype=int)
    vertices, uv, residual = [], [], []
    clipped = 0
    for i in range(nu):
        for j in range(nv):
            x, tu, tv = (np.array([g[k][i, j] for k in range(3)]) for g in (pts, fug, fvg))
            if not stored.group.in_chart(x):
                clipped += 1
                continue
            index[i, j] = len(vertices)
            vertices.append(x)
            uv.append((us[i], vs[j]))
            residual.append(_point_defect(stored.group, x, tu, tv, stored.kind.sigma))
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            corners = (index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1])
            if all(k >= 0 for k in corners):
                faces.append(corners)
    return (
        np.asarray(vertices, dtype=float).reshape(-1, 3),
        np.asarray(uv, dtype=float).reshape(-1, 2),
        np.asarray(residual, dtype=float),
        faces,
        clipped,
    )


def reference_write_obj(mesh, path) -> None:
    """OBJ text built one f-string per vertex and per face."""
    lines = []
    for x in mesh.vertices:
        lines.append(f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}")
    for quad in mesh.faces:
        a, b, c, d = (k + 1 for k in quad)  # OBJ indices are 1-based
        lines.append(f"f {a} {b} {c} {d}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_csv(mesh, path) -> None:
    """CSV text built one f-string per vertex."""
    lines = ["u,v,x1,x2,x3,residual"]
    for (u, v), x, r in zip(mesh.uv, mesh.vertices, mesh.residual):
        lines.append(f"{u:.17g},{v:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g},{r:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
