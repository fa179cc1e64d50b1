"""Independent oracles for the tests.

Everything here is deliberately built from a different path than the
library: symbolic metrics and Christoffel symbols via sympy, series coefficients from
factorial formulas, the generators of a polynomial argument in exact
rational arithmetic and by the Horner composition the library once used,
brute-force dictionary polynomial products, table
products by one Kronecker-substituted 1-D convolution and by shift-and-add
over every pair of degrees, one v-degree slice of a table product as a
sum of ``np.convolve`` calls, the coefficient-level certificate with every
product made that way, the frame march as a literal transcription of the
PDE that makes each level's column of every product as a sum of
u-convolutions of columns, and as the earlier slice
march (Cauchy slices, a cone slice and an einsum per level) and the march
with its drift read at every level, the univariate exp, sin, cos, sinh and
cosh recurrences by one ``np.dot`` per coefficient, every product of two
triangular tables by one band matmul per pair, the series
square root matched degree by degree
against full products, the cone lift's root grown one v-column per level
from those column products, the grid certificates and the mesh as loops over
single grid points (the tension twice: with the symbolic Christoffel
symbols, and by central differences of the surface and the metric), and
the mesh files written one line at a time, and the checks before the march
with the initial data from ``USeries`` jets.  Series references are written in the
closed-form algebra of ``kalgebra``.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np
import sympy as sp

from bjorling.config import CurveClass, Mode
from bjorling.errors import ConstraintDrift, ProblemValidationError
from bjorling.groups import SIGNATURE, lorentz_dot
from bjorling.series import BiSeries, USeries, _band_gathers, _triangle_mask, table_stack
from bjorling.slices import SkewPad, slice_products
from bjorling.solver import _column_zero, _march_maps
from kalgebra import KScalar, KSeries


@lru_cache(maxsize=None)
def _symbolic_metric(name: str):
    # The coordinate symbols and the metric of one built-in chart, written out.
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
    return (x1, x2, x3), g


def _lambdified(xs, table):
    fn = sp.lambdify(xs, table, "numpy")
    return lambda x: np.asarray(fn(x[0], x[1], x[2]), dtype=float)


@lru_cache(maxsize=None)
def exact_metric(name: str):
    """The metric of one built-in chart as a callable: coordinate triple ->
    (3, 3) table g[i, j]."""
    xs, g = _symbolic_metric(name)
    return _lambdified(xs, g.tolist())


@lru_cache(maxsize=None)
def exact_christoffels(name: str):
    """Symbolically differentiated Christoffels of one built-in metric.

    Returns a callable mapping a coordinate triple to the (3, 3, 3) table
    Gamma[k, i, j].
    """
    xs, g = _symbolic_metric(name)
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
    return _lambdified(xs, table)


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


# f(a0 + h) = f_even(a0) E(h) + f_odd(a0) O(h), with E, O the even and odd
# parts of the Taylor series of exp (sign 1) or of cos + sin (sign -1).
_ADDITION_RULES = {
    "exp": (1, sp.exp, sp.exp),
    "sinh": (1, sp.sinh, sp.cosh),
    "cosh": (1, sp.cosh, sp.sinh),
    "sin": (-1, sp.sin, sp.cos),
    "cos": (-1, sp.cos, lambda a0: -sp.sin(a0)),
}


@lru_cache(maxsize=None)
def composite_coeffs(fn_name: str, poly: tuple, center: str, order: int) -> np.ndarray:
    """Taylor coefficients of fn(p(u)) about the center, in exact rational
    arithmetic: p has the rational coefficients ``poly`` (strings, degree
    0 first), h = p(center + t) - p(center) has no constant term, so the
    series of fn(p(center) + h) is a finite sum of powers of h."""
    t = sp.symbols("t")
    c = sp.Rational(center)
    p = sp.Poly(sum(sp.Rational(k) * (c + t) ** i for i, k in enumerate(poly)), t)
    a0 = p.coeff_monomial(1)
    h = p - a0
    sign, f_even, f_odd = _ADDITION_RULES[fn_name]
    parts = [sp.Poly(0, t), sp.Poly(0, t)]
    power = sp.Poly(1, t)
    for j in range(order + 1):
        parts[j % 2] += power * sp.Rational(sign ** (j // 2), math.factorial(j))
        power = sp.Poly(
            {m: v for m, v in (power * h).as_dict().items() if m[0] <= order}, t, domain="QQ"
        )
    even, odd = sp.N(f_even(a0), 40), sp.N(f_odd(a0), 40)
    return np.array(
        [float(even * parts[0].coeff_monomial(t**k) + odd * parts[1].coeff_monomial(t**k))
         for k in range(order + 1)]
    )


def horner_composition(a, fn_name: str):
    """fn(a) for a USeries a as sum_k fn^(k)(a0)/k! (a - a0)^k, by Horner
    through one series product per degree (the generators' former path)."""
    a0, n = float(a.coeffs[0]), a.order
    cycle = {
        "exp": [math.exp(a0)],
        "sinh": [math.sinh(a0), math.cosh(a0)],
        "cosh": [math.cosh(a0), math.sinh(a0)],
        "sin": [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)],
        "cos": [math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0)],
    }[fn_name]
    derivs = [cycle[k % len(cycle)] for k in range(n + 1)]
    h = a - a0
    out = type(a).constant(derivs[n] / math.factorial(n), n, a.center)
    for k in range(n - 1, -1, -1):
        out = out * h + derivs[k] / math.factorial(k)
    return out


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


def coords_from_frame(group, curve, w):
    """A(curve) applied to a frame-component triple of jets, entry by
    entry: coordinate component i is the sum of frame(curve)[i][j] w[j]."""
    return tuple(row[0] * w[0] + row[1] * w[1] + row[2] * w[2] for row in group.frame(curve))


def naive_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every truncated product x[s] * y[t] of two stacks of triangular
    tables, by explicit loops over the degrees i + j <= n of y: each adds
    y[t, i, j] times x shifted by (i, j), so entry (m, k) collects the terms
    i <= m, j <= k.  Only the square of x that lands on degrees <= n is
    added, and the sum is then cut back to the triangle."""
    p, q, n1 = x.shape[0], y.shape[0], x.shape[1]
    out = np.zeros((p, q, n1, n1))
    for i in range(n1):
        for j in range(n1 - i):
            d = n1 - i - j
            out[:, :, i : i + d, j : j + d] += x[:, None, :d, :d] * y[None, :, i, j, None, None]
    degree = np.add.outer(np.arange(n1), np.arange(n1))
    return np.where(degree < n1, out, 0.0)


def convolve_slice(x: np.ndarray, y: np.ndarray, level: int, rows: int) -> np.ndarray:
    """The v-degree ``level`` slice of the product of two tables, kept to
    ``rows`` u-coefficients: for each v-degree l <= level, the u-convolution
    of column l of x with column level - l of y, cut to ``rows`` and summed."""
    out = np.zeros(rows)
    for l in range(level + 1):
        out += np.convolve(x[:rows, l], y[:rows, level - l])[:rows]
    return out


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
    ``kalgebra.cone_series`` and ``GroupModel.pde_quadratic`` with every
    table product made by ``reference_product``, one product at a time."""
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
# march references made from column products


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


def _laid_columns(pairs, col, rows):
    """The (re, unit) tables of algebra-valued series, each cut to its
    columns <= col and rows < rows, with the columns laid end to end
    2 rows - 1 slots apart.  One u-convolution of two layouts then holds,
    in slot block col, the sum over k <= col of column k of one table
    times column col - k of the other, apart from every other column's sums."""
    tables = np.array([t[:rows, : col + 1].T for pair in pairs for t in pair])
    out = np.zeros(tables.shape[:2] + (2 * rows - 1,))
    out[:, :, :rows] = tables
    return out.reshape(len(pairs), 2, -1)


def _column_kproduct(x, y, s, col, rows):
    # (re, unit) column col of the product of two laid-out algebra-valued tables.
    start = col * (2 * rows - 1)

    def column(p, q):
        return np.convolve(p, q)[start : start + rows]

    return column(x[0], y[0]) + s * column(x[1], y[1]), column(x[0], y[1]) + column(x[1], y[0])


def _march_level(group, parts, current, level, n, s):
    # Write column level+1 of each part: unit * (d/du psi_c + 2 G_c) in
    # column level, divided by level+1, with column level of
    # G_c = sum gamma[a, b, c] conj(psi_a) psi_b made from the columns <= level.
    rows = n - level  # entries (m, level) with m + level <= n - 1
    laid = _laid_columns(current, level, rows)
    deg = np.arange(1.0, rows + 1)
    for c, (re, im) in enumerate(parts):
        q_re, q_im = np.zeros(rows), np.zeros(rows)
        for a, b in zip(*np.nonzero(group.gamma[:, :, c])):
            conj = (laid[a, 0], -laid[a, 1])
            p_re, p_im = _column_kproduct(conj, laid[b], s, level, rows)
            q_re = q_re + group.gamma[a, b, c] * p_re
            q_im = q_im + group.gamma[a, b, c] * p_im
        rhs_re = deg * current[c][0][1 : rows + 1, level] + 2.0 * q_re
        rhs_im = deg * current[c][1][1 : rows + 1, level] + 2.0 * q_im
        # unit * (re + unit im) = s im + unit re
        re[:rows, level + 1] = s * rhs_im / (level + 1)
        im[:rows, level + 1] = rhs_re / (level + 1)


def reference_ck_march(group, frame_data0, mode: Mode, order: int):
    """The frame march with column level of the quadratic G made from the
    columns <= level at every level, by u-convolutions."""
    n = order
    center = frame_data0[0].center
    parts = _column_zero_tables(frame_data0, n)

    def wrap(pair):
        return KSeries(BiSeries(pair[0], center), BiSeries(pair[1], center), mode)

    for level in range(n):
        _march_level(group, parts, parts, level, n, mode.unit_square)
    return tuple(wrap(p) for p in parts)


def slice_ck_march(group, frame0: np.ndarray, mode: Mode) -> tuple[np.ndarray, list]:
    """The frame march as it was written before its two fixed maps: per
    level, the Cauchy slices of all 36 products, the cone slice from their
    diagonals and an einsum of gamma with the conj(psi_a) psi_b slices.
    Each level makes a fresh zeroed skew buffer, where the solver keeps one
    for the whole march.  Returns the marched (2, 3, n+1, n+1) stack and
    the cone drift of every level."""
    s = mode.unit_square
    order = frame0.shape[-1] - 1
    x = np.zeros((6, order + 1, order + 1))
    x[:, :, 0] = frame0.reshape(x.shape)[:, :, 0]
    drifts = []
    for level in range(order + 1):
        rows = order + 1 - level
        p = slice_products(x[:, None], x, level, rows, SkewPad((6, 6), rows))
        square, cross = np.einsum("iim->im", p), np.einsum("iim->im", p[:3, 3:])
        cone = np.stack([SIGNATURE @ (square[:3] + s * square[3:]), 2.0 * SIGNATURE @ cross])
        drifts.append(float(np.max(np.abs(cone))))
        if level == order:
            break
        rows = order - level
        p = p[..., :rows]
        conj_products = np.stack([p[:3, :3] - s * p[3:, 3:], p[:3, 3:] - p[3:, :3]])
        quad = np.einsum("abc,kabm->kcm", group.gamma, conj_products)
        deg = np.arange(1.0, rows + 1)
        rhs = deg * x[:, 1 : rows + 1, level].reshape(2, 3, rows) + 2.0 * quad
        x[:3, :rows, level + 1] = s * rhs[1] / (level + 1)
        x[3:, :rows, level + 1] = rhs[0] / (level + 1)
    return x.reshape(frame0.shape), drifts


# An overflow shows in its level's cone slice, which is checked, not as a warning.
@np.errstate(over="ignore", invalid="ignore")
def level_check_ck_march(group, frame0: np.ndarray, mode: Mode, cone_tol: float | None = None) -> np.ndarray:
    """The frame march as it was written with its drift read at every
    level: the same fixed maps and skew buffer as the solver's, but each
    level's cone slice is checked before the next column is made, and
    each new column is written as two halves."""
    s = mode.unit_square
    order = frame0.shape[-1] - 1
    conj_map, gamma_map = _march_maps(group.gamma, s)
    deg = np.arange(1.0, order + 1)
    x = _column_zero(frame0)
    pad = SkewPad((6, 6), order + 1)
    for level in range(order + 1):
        parts = conj_map @ slice_products(x[:, None], x, level, order + 1 - level, pad).reshape(36, -1)
        drift = float(np.max(np.abs(parts[18:])))
        if not math.isfinite(drift):
            raise ProblemValidationError(f"the frame data overflow at march level {level}")
        if cone_tol is not None and not drift <= cone_tol:
            where = "in the initial data" if level == 0 else f"at march level {level}"
            raise ConstraintDrift(
                f"cone constraint violated {where} by {drift:.3e} "
                f"(tolerance {cone_tol:.3e})"
            )
        if level < order:
            # Column level+1 from psi_v = unit * (psi_u + 2 G), and
            # unit * (a + unit b) = s b + unit a.
            rows = order - level
            rhs = deg[:rows] * x[:, 1 : rows + 1, level] + 2.0 * (gamma_map @ parts[:18, :rows])
            x[:3, :rows, level + 1] = s * rhs[3:] / (level + 1)
            x[3:, :rows, level + 1] = rhs[:3] / (level + 1)
    return x.reshape(frame0.shape)


def dot_paired(a: USeries, fn, gn, sign: float) -> tuple[USeries, USeries]:
    """F(a), G(a) for F' = G, G' = sign F (F = fn, G = gn), as the jets
    made them with one ``np.dot`` per coefficient: (F o a)' = (G o a) a'
    and (G o a)' = sign (F o a) a' matched degree by degree."""
    n = a.order
    da = a.coeffs[1:] * np.arange(1, n + 1)  # da[j] is coefficient j of a'
    f, g = np.zeros(n + 1), np.zeros(n + 1)
    f[0], g[0] = fn(a.coeffs[0]), gn(a.coeffs[0])
    for k in range(1, n + 1):
        f[k] = np.dot(da[k - 1 :: -1], g[:k]) / k
        g[k] = sign * np.dot(da[k - 1 :: -1], f[:k]) / k
    return USeries(f, a.center), USeries(g, a.center)


def band_pair_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every truncated product x[s] * y[t] of two (p, n+1, n+1) and
    (q, n+1, n+1) stacks of triangular tables, shape (p, q, n+1, n+1), as
    the banded kernel made them before it took weights: per band, one 2-D
    matmul of the u-Toeplitz stack of x with the v-shifted stack of y."""
    p, q, n1 = x.shape[0], y.shape[0], x.shape[1]
    size = n1 * n1
    xf = np.zeros((p, size + 1))  # flat tables and the pad
    xf[:, :size] = x.reshape(p, size)
    yt = np.zeros((size + 1, q))
    yt[:size] = y.reshape(q, size).T
    keep = _triangle_mask(n1 - 1)
    out = np.zeros((p, q, n1, n1))
    for m0, m1, left, right in _band_gathers(n1 - 1):
        rows, cols = m1 - m0, n1 - m0
        a = np.take(xf, left, axis=1).reshape(p * rows, left.shape[1])
        b = np.take(yt, right, axis=0).reshape(right.shape[0], cols * q)
        band = (a @ b).reshape(p, rows, cols, q).transpose(0, 3, 1, 2)
        np.copyto(out[..., m0:m1, :cols], band, where=keep[m0:m1, :cols])
    return out


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
    """March equations 1-2 column by column, growing psi3 = r, the square
    root of a = psi1^2 + psi2^2, by one v-column per level.

    Column 0 of r is the u-jet root of column 0 of a.  Once columns < L of r
    are known, the v-degree L part of r^2 = a is linear in column L, c(u):
    2 r(u, 0) c = (a - r^2)[:, L], with column L of r^2 taken while it is
    still zero there.  Both are solved by forward substitution in u.
    """
    n = order
    s = mode.unit_square
    center = first0.center
    parts = _column_zero_tables((first0, second0), n)
    third = (np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1)))

    def wrap(pair):
        return KSeries(BiSeries(pair[0], center), BiSeries(pair[1], center), mode)

    def rest(col):
        # Column col of psi1^2 + psi2^2 - r^2, one KScalar per u-degree.
        rows = n + 1 - col
        (a_re, a_im), (b_re, b_im), (r_re, r_im) = (
            _column_kproduct(p, p, s, col, rows) for p in _laid_columns((*parts, third), col, rows)
        )
        return [KScalar(x, y, mode) for x, y in zip(a_re + b_re - r_re, a_im + b_im - r_im)]

    a = rest(0)
    root = [a[0].sqrt()]
    inv2 = (2.0 * root[0]).inverse()
    for m in range(1, n + 1):
        acc = a[m]
        for i in range(1, m):
            acc = acc - root[i] * root[m - i]
        root.append(inv2 * acc)
    third[0][:, 0] = [z.re for z in root]
    third[1][:, 0] = [z.im for z in root]

    for level in range(n):
        _march_level(group, parts, (*parts, third), level, n, s)
        col = level + 1
        column = []
        for m, acc in enumerate(rest(col)):
            for i in range(1, m + 1):
                acc = acc - 2.0 * root[i] * column[m - i]
            column.append(inv2 * acc)
        third[0][: n + 1 - col, col] = [z.re for z in column]
        third[1][: n + 1 - col, col] = [z.im for z in column]
    return wrap(parts[0]), wrap(parts[1]), wrap(third)


# ---------------------------------------------------------------------------
# per-point references for the grid certificates and the mesh


def _point_defect(group, x, fu, fv, sigma):
    ainv = group.frame_matrix(x)
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


def _point_tension(gam, g, f_uu, f_vv, f_u, f_v, sigma) -> float:
    # |f_uu - sigma f_vv + Gamma(f_u, f_u) - sigma Gamma(f_v, f_v)|_inf over
    # the conformal factor, at one point.
    resid = (
        f_uu
        - sigma * f_vv
        + np.einsum("kij,i,j->k", gam, f_u, f_u)
        - sigma * np.einsum("kij,i,j->k", gam, f_v, f_v)
    )
    conf = 0.5 * (abs(f_u @ g @ f_u) + abs(f_v @ g @ f_v))
    return float(np.max(np.abs(resid))) / max(conf, 1e-12)


def exact_tension_residual(name, surface, sigma, us, vs) -> float:
    """The tension certificate of a BiSeries triple, one grid point at a
    time: the partials from ``BiSeries.du()`` / ``dv()``, the metric and
    the Christoffel symbols of the built-in chart ``name`` from sympy."""
    gam_fn, g_fn = exact_christoffels(name), exact_metric(name)
    # parts[c] = (f^c, f^c_u, f^c_v, f^c_uu, f^c_vv)
    parts = [(f, f.du(), f.dv(), f.du().du(), f.dv().dv()) for f in surface]
    worst = 0.0
    for u in np.asarray(us, dtype=float):
        for v in np.asarray(vs, dtype=float):
            f0, f_u, f_v, f_uu, f_vv = np.array([[p.eval(u, v) for p in c] for c in parts]).T
            worst = max(worst, _point_tension(gam_fn(f0), g_fn(f0), f_uu, f_vv, f_u, f_v, sigma))
    return worst


def _frame_metric(group, x):
    """Coordinate metric g = A^-T diag(+, +, -) A^-1 at one point, from the
    group's ``frame_matrix``."""
    ainv = group.frame_matrix(x)
    return np.einsum("a,ai,aj->ij", SIGNATURE, ainv, ainv)


def difference_christoffels(group, x, step=None):
    """Christoffel symbols at one point by central differences of the
    frame metric, step 1e-5 max(1, |x|_inf) by default."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-5 * max(1.0, float(np.max(np.abs(x))))
    # dg[l, i, j] = d_l g_ij
    dg = np.array(
        [_frame_metric(group, x + e) - _frame_metric(group, x - e) for e in h * np.eye(3)]
    ) / (2.0 * h)
    # t[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    t = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(_frame_metric(group, x)), t)


def reference_tension_residual(group, surface_fn, sigma, us, vs, step=1e-3) -> float:
    """The finite-difference tension certificate, one grid point at a time:
    the partials by central differences of scalar calls of ``surface_fn``,
    the Christoffel symbols by ``difference_christoffels``."""
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
            gam = difference_christoffels(group, f0)
            worst = max(worst, _point_tension(gam, _frame_metric(group, f0), f_uu, f_vv, f_u, f_v, sigma))
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


def _jet_mat_vec(m, w):
    # m w on jets with the operators, a factor that is the number 0.0 or 1.0
    # making no product and a 0.0 no sum, in the order groups.mat_vec takes.
    def times(p, q):
        if type(p) is float and p in (0.0, 1.0):
            return q if p else 0.0
        if type(q) is float and q in (0.0, 1.0):
            return p if q else 0.0
        return p * q

    def plus(p, q):
        return q if type(p) is float and p == 0.0 else p if type(q) is float and q == 0.0 else p + q

    return tuple(reduce(plus, map(times, row, w), 0.0) for row in m)


def _jet_cross(y, w):
    return (y[1] * w[2] - w[1] * y[2], y[2] * w[0] - w[2] * y[0], y[1] * w[0] - w[1] * y[0])


def _jet_dot(y, w):
    return y[0] * w[0] + y[1] * w[1] - y[2] * w[2]


def reference_invariants(problem) -> tuple:
    """g(w, w), g(V, V) and g(w, V) of a problem as ``USeries``, the frame
    velocity w made as in ``reference_front_end``."""
    vel = _jet_mat_vec(problem.group.coframe(problem.curve), problem.curve_velocity())
    field = problem.normal_field
    with np.errstate(over="ignore", invalid="ignore"):
        return _jet_dot(vel, vel), _jet_dot(field, field), _jet_dot(vel, field)


def reference_front_end(problem, samples: int = 33):
    """(class, initial data) of a problem from ``USeries`` jets: the frame
    velocity is the coframe along the curve times the curve's velocity,
    g(w, w) and V x w are the Lorentz inner and cross products written
    with the jets' operators, and the class reads the sampled rows of one
    ``table_stack``; the class is None where a sample of the squared speed
    is lost to rounding."""
    coframe = problem.group.coframe(problem.curve)
    vel = _jet_mat_vec(coframe, problem.curve_velocity())
    cross = _jet_cross(problem.normal_field, vel)
    n = problem.order
    frame = np.zeros((2, 3, n + 1, n + 1))
    for part, jets, factor in ((0, vel, 0.5), (1, cross, 0.5 * problem.kind.tangent_sign)):
        for c, jet in enumerate(jets):
            k = min(n, jet.order)
            frame[part, c, : k + 1, 0] = factor * jet.coeffs[: k + 1]

    us = np.linspace(problem.grid.u_min, problem.grid.u_max, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        speed2 = _jet_dot(vel, vel)
        gamma = 4.0 * (speed2.order + 1) * np.finfo(float).eps
        jets = [speed2, *vel, *problem.normal_field, *problem.curve_velocity()]
        table = table_stack(jets + [e for row in coframe for e in row])
        values = table @ np.vander(us - problem.center, table.shape[1], increasing=True).T
        vals, w, v = values[0], values[1:4], values[7:10]
        terms = np.abs(values[10:].reshape(3, 3, -1) * v)
        d = gamma * terms.sum(axis=1)
        rounding = np.sum(d * (2.0 * np.abs(w) + d) + gamma * w * w, axis=0)
        band = problem.tolerances.causal * np.maximum(1.0, np.sum(w * w, axis=0))
    if np.any((np.abs(vals) <= rounding) & (rounding > band)):
        kind = None
    elif np.any(np.abs(vals) <= band):
        kind = CurveClass.LIGHTLIKE
    elif np.all(vals > 0.0):
        kind = CurveClass.SPACELIKE
    elif np.all(vals < 0.0):
        kind = CurveClass.TIMELIKE
    else:
        kind = CurveClass.MIXED
    return kind, frame
