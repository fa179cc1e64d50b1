"""Independent oracles for the tests.

Everything here is deliberately built from a different path than the
library: symbolic Christoffel symbols via sympy, series coefficients from
factorial formulas, brute-force dictionary polynomial products, and the
frame march as a literal transcription of the PDE with full series
products at every level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import sympy as sp

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
