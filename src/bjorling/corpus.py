"""Built-in example problems with closed-form reference surfaces.

Six surfaces with known parametrizations, two or three per ambient group.
Each example is one record: its info, the center, grid and data of its
problem-file dictionary (the same schema the CLI reads), and an
independent reference evaluator.  The helicoid's radial profile, defined
by a first-order ODE, is solved for the reference with an adaptive
Runge-Kutta integrator, deliberately not with the Taylor recurrence the
solver itself uses; the saddle's height profile is a closed-form cosh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import SCHEMA_VERSION
from .series import USeries, ode_taylor

_SQRT2INV = 1.0 / math.sqrt(2.0)
# Scalar abscissae memoized per profile: more than one grid side
# (problemfile.MAX_GRID_SIDE = 513) of a per-point sweep.
_PROFILE_CACHE = 4096


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


def _ivp_profile(rhs, y0: float, half_width: float):
    """Profile y(t) of y' = rhs(y) on [-half_width, half_width], from the
    integrator's dense output.  An array t of any shape costs one dense
    output call per branch (t >= 0 forward, t < 0 backward); a scalar t is
    memoized, so a per-point sweep reads the dense output once per
    abscissa.  scipy is imported here, so only the closed-form references
    load it."""
    from scipy.integrate import solve_ivp

    span = 1.12 * half_width + 1e-6
    fwd, bwd = (
        solve_ivp(
            lambda t, y: [rhs(y[0])], (0.0, end), [y0],
            method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        for end in (span, -span)
    )
    if not (fwd.success and bwd.success):
        raise RuntimeError("reference profile integration failed")

    @functools.lru_cache(maxsize=_PROFILE_CACHE)
    def scalar(t: float) -> float:
        return float((fwd if t >= 0.0 else bwd).sol(t)[0])

    def profile(t):
        if np.ndim(t) == 0:
            return scalar(float(t))
        flat = np.asarray(t, dtype=float).ravel()
        out = np.empty_like(flat)
        ahead = flat >= 0.0
        for branch, mask in ((fwd, ahead), (bwd, ~ahead)):
            if mask.any():  # OdeSolution raises on an empty array
                out[mask] = branch.sol(flat[mask])[0]
        return out.reshape(np.shape(t))

    return profile


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


def _ref_helicoid(params, half_width=0.45):
    c, rho0, b = params["c"], params["rho0"], params["b"]

    def rhs(y):
        return math.sqrt(max((0.5 * y * y - c) ** 2 - y * y, 0.0))

    rho = _ivp_profile(rhs, rho0, half_width)

    def surface(u, v):
        r = rho(u)
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


def example_info(example_id: str) -> ExampleInfo:
    return _lookup(example_id)[0].info


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
        "grid": dict(zip(("u_min", "u_max", "v_min", "v_max", "nu", "nv"), example.grid)),
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
