"""Built-in example problems with closed-form reference surfaces.

Six surfaces with known parametrizations, two or three per ambient group.
Each example is one record: its info, the center, grid and data of its
problem-file dictionary (the same schema the CLI reads), and an
independent reference evaluator, written with numpy alone.  The
helicoid's radial profile, defined by a first-order ODE, is the inverse of
the profile's travel-time integral, by Gauss-Legendre quadrature and
Newton steps, deliberately not by the Taylor recurrence the solver itself
uses; the saddle's height profile is a closed-form cosh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .config import SCHEMA_VERSION, GridSpec
from .series import USeries, ode_taylor

_SQRT2INV = 1.0 / math.sqrt(2.0)
# Scalar abscissae memoized per profile: more than one grid side
# (problemfile.MAX_GRID_SIDE = 513) of a per-point sweep.
_PROFILE_CACHE = 4096
# Gauss-Legendre rule and Newton step count of the helicoid's profile;
# tests/test_corpus.py shows that more of either moves it by at most 1 ulp.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_NEWTON_STEPS = 6


@dataclass(frozen=True)
class ExampleInfo:
    example_id: str
    group: str
    kind: str
    description: str
    defaults: dict
    formula: str


@dataclass(frozen=True)
class _Example:
    """One corpus entry.  ``data(params, order)`` gives the problem file's
    ``beta``, ``V`` and ``params`` entries as new lists and dicts;
    ``reference(params)`` gives the closed form (u, v) -> coordinate
    triple.  ``grid`` is (u_min, u_max, v_min, v_max, nu, nv)."""

    info: ExampleInfo
    u0: float
    grid: tuple
    data: Callable
    reference: Callable


def _helicoid_profile(c: float, rho0: float, t: np.ndarray) -> np.ndarray:
    """The helicoid's radial profile rho(t), rho' = sqrt(P(rho)) with P(s) =
    (s^2/2 - c)^2 - s^2 and rho(0) = rho0, at a column t of shape (m, 1).
    It inverts t(rho) = int_{rho0}^{rho} ds / sqrt(P(s)): the integral by
    Gauss-Legendre quadrature, the inverse by Newton steps rho <- rho -
    (t(rho) - t) sqrt(P(rho)) from rho0, every row on its own, so a row's
    value does not depend on m.  P must stay positive between rho0 and
    rho(t)."""

    def root_p(s):
        return np.sqrt((0.5 * s * s - c) ** 2 - s * s)

    rho = np.full_like(t, rho0)
    for _ in range(_NEWTON_STEPS):
        half, mid = 0.5 * (rho - rho0), 0.5 * (rho + rho0)
        t_rho = half * np.sum(_WEIGHTS / root_p(mid + half * _NODES), axis=1, keepdims=True)
        rho = rho - (t_rho - t) * root_p(rho)
    return rho


def _helicoid_data(params, order):
    # The radial profile solves rho' = sqrt((rho^2/2 - c)^2 - rho^2); the
    # file carries its Taylor coefficients, one order above the field's.
    c = params["c"]
    rho = ode_taylor(
        lambda y: ((0.5 * (y * y) - c) ** 2 - y * y).sqrt(), params["rho0"], order + 1
    )
    rho_d = rho.deriv()
    field = (USeries.constant(0.0, order), (rho * rho - 2.0 * c) / (2.0 * rho_d), -(rho / rho_d))
    return (
        [{"coeffs": rho.coeffs.tolist()}, "0", "b"],
        [{"coeffs": f.coeffs.tolist()} for f in field],
        {"c": c, "rho0": params["rho0"], "b": params["b"]},
    )


def _ref_helicoid(params):
    # An array u is solved in one pass; a scalar u is memoized, so a
    # per-point sweep solves once per abscissa.
    c, rho0, b = params["c"], params["rho0"], params["b"]

    @functools.lru_cache(maxsize=_PROFILE_CACHE)
    def scalar(t: float) -> float:
        return float(_helicoid_profile(c, rho0, np.array([[t]]))[0, 0])

    def surface(u, v):
        if np.ndim(u) == 0:
            r = scalar(float(u))
        else:
            u = np.asarray(u, dtype=float)
            r = _helicoid_profile(c, rho0, u.reshape(-1, 1)).reshape(u.shape)
        return r * np.cos(v), r * np.sin(v), c * v + b

    return surface


def _saddle_data(params, order):
    c, q0 = params["c"], params["Q0"]
    qp0 = math.sqrt(16.0 * c * c * q0 * q0 - c * c)
    return (
        ["4*c*u", "-4*Q0", "-8*c*Q0*u"],
        ["-4*c*Q0/Qp0", "0", "c/Qp0"],
        {"c": c, "Q0": q0, "Qp0": qp0},
    )


def _ref_saddle(params):
    # Q'' = 16 c^2 Q with Q(0) = Q0 and Q'(0) = Qp0 = |c| sqrt(16 Q0^2 - 1)
    # is solved by Q = sgn(Q0) cosh(theta0 + sgn(Q0) 4 |c| v) / 4, theta0 =
    # arccosh(4 |Q0|), through the turn at |Q| = 1/4 where the first-order
    # form Q' = sqrt(16 c^2 Q^2 - c^2) would stall.
    c, q0 = params["c"], params["Q0"]
    sign = math.copysign(1.0, q0)
    theta0, rate = math.acosh(4.0 * abs(q0)), sign * 4.0 * abs(c)

    def surface(u, v):
        q = sign * np.cosh(theta0 + rate * v) / 4.0
        return 4.0 * c * u, -4.0 * q, -8.0 * c * u * q

    return surface


# ---------------------------------------------------------------------------
# registry

_EXAMPLES = {
    example.info.example_id: example
    for example in (
        _Example(
            ExampleInfo(
                "heisenberg_vertical_plane",
                "heisenberg",
                "timelike",
                "timelike vertical plane y = c in the Heisenberg group",
                {"c": 1.0},
                "(exp(v)*cosh(u), c, exp(v)*(-(c/2)*cosh(u) + sinh(u)))",
            ),
            u0=0.0,
            grid=(-1.0, 1.0, -0.5, 0.5, 33, 17),
            data=lambda p, order: (
                ["cosh(u)", "c", "-(c/2)*cosh(u) + sinh(u)"],
                ["0", "1", "0"],
                {"c": p["c"]},
            ),
            reference=lambda p: lambda u, v: (
                np.exp(v) * np.cosh(u),
                p["c"] + 0.0 * u,
                np.exp(v) * (-(p["c"] / 2.0) * np.cosh(u) + np.sinh(u)),
            ),
        ),
        _Example(
            ExampleInfo(
                "heisenberg_helicoid",
                "heisenberg",
                "spacelike-curve",
                "timelike helicoid over an ODE radial profile rho(u)",
                {"c": -1.0, "rho0": 1.0, "b": 0.0},
                "(rho(u)*cos(v), rho(u)*sin(v), c*v + b)",
            ),
            u0=0.0,
            grid=(-0.3, 0.3, -0.5, 0.5, 25, 17),
            data=_helicoid_data,
            reference=_ref_helicoid,
        ),
        _Example(
            ExampleInfo(
                "heisenberg_saddle",
                "heisenberg",
                "timelike",
                "saddle-type graph z = x*y/2 over an ODE height profile Q(v)",
                {"c": 1.0, "Q0": 0.5},
                "(4*c*u, -4*Q(v), -8*c*u*Q(v)) with "
                "Q(v) = sgn(Q0)*cosh(acosh(4*|Q0|) + sgn(Q0)*4*|c|*v)/4; lies on z = x*y/2",
            ),
            u0=0.0,
            grid=(-0.5, 0.5, -0.2, 0.2, 25, 9),
            data=_saddle_data,
            reference=_ref_saddle,
        ),
        _Example(
            ExampleInfo(
                "desitter_vertical_plane",
                "desitter",
                "spacelike-curve",
                "timelike vertical plane x2 = c in de Sitter space",
                {"c": 1.0},
                "(exp(-v)*sinh(u), c, exp(-v)*cosh(u))",
            ),
            u0=0.0,
            grid=(-0.75, 0.75, -0.5, 0.5, 25, 17),
            data=lambda p, order: (
                ["sinh(u)", "c", "cosh(u)"],
                ["0", "1", "0"],
                {"c": p["c"]},
            ),
            reference=lambda p: lambda u, v: (
                np.exp(-v) * np.sinh(u),
                p["c"] + 0.0 * u,
                np.exp(-v) * np.cosh(u),
            ),
        ),
        _Example(
            ExampleInfo(
                "desitter_diagonal_plane",
                "desitter",
                "spacelike-curve",
                "timelike plane x1 = x2 in de Sitter space",
                {},
                "exp(-v)*(sinh(u)/sqrt(2), sinh(u)/sqrt(2), cosh(u))",
            ),
            u0=0.0,
            grid=(-0.75, 0.75, -0.5, 0.5, 25, 17),
            data=lambda p, order: (
                ["r*sinh(u)", "r*sinh(u)", "cosh(u)"],
                ["-r", "r", "0"],
                {"r": _SQRT2INV},
            ),
            reference=lambda p: lambda u, v: (
                np.exp(-v) * _SQRT2INV * np.sinh(u),
                np.exp(-v) * _SQRT2INV * np.sinh(u),
                np.exp(-v) * np.cosh(u),
            ),
        ),
        _Example(
            ExampleInfo(
                "h2xr_horizontal_plane",
                "h2xr",
                "spacelike-surface",
                "spacelike horizontal plane x3 = c in H2 x R",
                {"c": 1.0},
                "(exp(v)*cos(u), exp(v)*sin(u), c)",
            ),
            u0=math.pi / 2.0,
            grid=(math.pi / 4.0, 3.0 * math.pi / 4.0, -0.5, 0.5, 25, 17),
            data=lambda p, order: (
                ["cos(u)", "sin(u)", "c"],
                ["0", "0", "1"],
                {"c": p["c"]},
            ),
            reference=lambda p: lambda u, v: (
                np.exp(v) * np.cos(u),
                np.exp(v) * np.sin(u),
                p["c"] + 0.0 * u,
            ),
        ),
    )
}

EXAMPLE_IDS = tuple(_EXAMPLES)


def _lookup(example_id: str, params: dict | None = None):
    """The example's record and its defaults updated by ``params``."""
    if example_id not in _EXAMPLES:
        raise KeyError(
            f"unknown example {example_id!r}; available: {', '.join(EXAMPLE_IDS)}"
        )
    example = _EXAMPLES[example_id]
    return example, {**example.info.defaults, **(params or {})}


def list_examples() -> list[ExampleInfo]:
    return [example.info for example in _EXAMPLES.values()]


def build_problem_dict(example_id: str, params: dict | None = None, order: int = 12) -> dict:
    """Problem-file dictionary for one example; params override defaults.
    Every call builds a new document."""
    example, merged = _lookup(example_id, params)
    beta, field, doc_params = example.data(merged, order)
    return {
        "schema_version": SCHEMA_VERSION,
        "group": example.info.group,
        "mode": example.info.kind,
        "u0": example.u0,
        "order": order,
        "beta": beta,
        "V": field,
        "params": doc_params,
        "grid": dict(zip((f.name for f in fields(GridSpec)), example.grid)),
        "name": example_id,
        "description": example.info.description,
    }


def reference_surface(example_id: str, params: dict | None = None):
    """Independent closed-form evaluator (u, v) -> coordinate triple.

    u and v may be numpy arrays of one shape; each coordinate then has
    that shape."""
    example, merged = _lookup(example_id, params)
    return example.reference(merged)


def reference_stub(example_id: str, params: dict | None = None) -> dict:
    """Serializable description of the reference surface."""
    example, merged = _lookup(example_id, params)
    return {
        "schema_version": SCHEMA_VERSION,
        "example": example_id,
        "params": merged,
        "closed_form": example.info.formula,
    }
