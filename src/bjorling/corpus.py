"""Built-in example problems with closed-form reference surfaces.

Six surfaces with known parametrizations, two or three per ambient group.
Each entry builds a problem-file dictionary (the same schema the CLI
reads) and an independent reference evaluator.  Profile functions defined
by first-order ODEs are solved for the reference with an adaptive
Runge-Kutta integrator, deliberately not with the Taylor recurrence the
solver itself uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .series import USeries, ode_taylor

_SQRT2INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ExampleInfo:
    example_id: str
    group: str
    kind: str
    description: str
    defaults: dict
    formula: str


def _ivp_profile(rhs, y0: float, half_width: float):
    """Profile y(t) of y' = rhs(y) on [-half_width, half_width], from the
    integrator's dense output; t may be a numpy array."""
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

    def profile(t):
        if t >= 0.0:
            return float(fwd.sol(t)[0])
        return float(bwd.sol(t)[0])

    return np.vectorize(profile, otypes=[float])


def helicoid_radius_ode(c: float):
    """Right side of the helicoid radial profile equation."""
    return lambda y: ((0.5 * (y * y) - c) ** 2 - y * y).sqrt()


def _helicoid_jets(c: float, rho0: float, b: float, order: int, center: float = 0.0):
    rho = ode_taylor(helicoid_radius_ode(c), rho0, order + 1, center)
    rho_d = rho.deriv()
    beta = (
        rho,
        USeries.constant(0.0, order + 1, center),
        USeries.constant(b, order + 1, center),
    )
    field = (
        USeries.constant(0.0, order, center),
        (rho * rho - 2.0 * c) / (2.0 * rho_d),
        -(rho / rho_d),
    )
    return beta, field


# ---------------------------------------------------------------------------
# problem-dict builders


def _vertical_plane(params, order):
    c = params["c"]
    return {
        "schema_version": 1,
        "group": "heisenberg",
        "mode": "timelike",
        "u0": 0.0,
        "order": order,
        "beta": ["cosh(u)", "c", "-(c/2)*cosh(u) + sinh(u)"],
        "V": ["0", "1", "0"],
        "params": {"c": c},
        "grid": {
            "u_min": -1.0,
            "u_max": 1.0,
            "v_min": -0.5,
            "v_max": 0.5,
            "nu": 33,
            "nv": 17,
        },
    }


def _helicoid(params, order):
    c, rho0, b = params["c"], params["rho0"], params["b"]
    beta, field = _helicoid_jets(c, rho0, b, order)
    return {
        "schema_version": 1,
        "group": "heisenberg",
        "mode": "spacelike-curve",
        "u0": 0.0,
        "order": order,
        "beta": [
            {"coeffs": beta[0].coeffs.tolist()},
            "0",
            "b",
        ],
        "V": [
            {"coeffs": field[0].coeffs.tolist()},
            {"coeffs": field[1].coeffs.tolist()},
            {"coeffs": field[2].coeffs.tolist()},
        ],
        "params": {"c": c, "rho0": rho0, "b": b},
        "grid": {
            "u_min": -0.3,
            "u_max": 0.3,
            "v_min": -0.5,
            "v_max": 0.5,
            "nu": 25,
            "nv": 17,
        },
    }


def _saddle(params, order):
    c, q0 = params["c"], params["Q0"]
    qp0 = math.sqrt(16.0 * c * c * q0 * q0 - c * c)
    return {
        "schema_version": 1,
        "group": "heisenberg",
        "mode": "timelike",
        "u0": 0.0,
        "order": order,
        "beta": ["4*c*u", "-4*Q0", "-8*c*Q0*u"],
        "V": ["-4*c*Q0/Qp0", "0", "c/Qp0"],
        "params": {"c": c, "Q0": q0, "Qp0": qp0},
        "grid": {
            "u_min": -0.5,
            "u_max": 0.5,
            "v_min": -0.2,
            "v_max": 0.2,
            "nu": 25,
            "nv": 9,
        },
    }


def _desitter_vertical_plane(params, order):
    c = params["c"]
    return {
        "schema_version": 1,
        "group": "desitter",
        "mode": "spacelike-curve",
        "u0": 0.0,
        "order": order,
        "beta": ["sinh(u)", "c", "cosh(u)"],
        "V": ["0", "1", "0"],
        "params": {"c": c},
        "grid": {
            "u_min": -0.75,
            "u_max": 0.75,
            "v_min": -0.5,
            "v_max": 0.5,
            "nu": 25,
            "nv": 17,
        },
    }


def _desitter_diagonal_plane(params, order):
    return {
        "schema_version": 1,
        "group": "desitter",
        "mode": "spacelike-curve",
        "u0": 0.0,
        "order": order,
        "beta": ["r*sinh(u)", "r*sinh(u)", "cosh(u)"],
        "V": ["-r", "r", "0"],
        "params": {"r": _SQRT2INV},
        "grid": {
            "u_min": -0.75,
            "u_max": 0.75,
            "v_min": -0.5,
            "v_max": 0.5,
            "nu": 25,
            "nv": 17,
        },
    }


def _h2xr_horizontal_plane(params, order):
    c = params["c"]
    return {
        "schema_version": 1,
        "group": "h2xr",
        "mode": "spacelike-surface",
        "u0": math.pi / 2.0,
        "order": order,
        "beta": ["cos(u)", "sin(u)", "c"],
        "V": ["0", "0", "1"],
        "params": {"c": c},
        "grid": {
            "u_min": math.pi / 4.0,
            "u_max": 3.0 * math.pi / 4.0,
            "v_min": -0.5,
            "v_max": 0.5,
            "nu": 25,
            "nv": 17,
        },
    }


# ---------------------------------------------------------------------------
# reference evaluators


def _ref_vertical_plane(params):
    c = params["c"]
    return lambda u, v: (
        np.exp(v) * np.cosh(u),
        c + 0.0 * u,
        np.exp(v) * (-(c / 2.0) * np.cosh(u) + np.sinh(u)),
    )


def _ref_helicoid(params, half_width=0.45):
    c, rho0, b = params["c"], params["rho0"], params["b"]

    def rhs(y):
        return math.sqrt(max((0.5 * y * y - c) ** 2 - y * y, 0.0))

    rho = _ivp_profile(rhs, rho0, half_width)
    return lambda u, v: (
        rho(u) * np.cos(v),
        rho(u) * np.sin(v),
        c * v + b,
    )


def _ref_saddle(params, half_width=0.3):
    c, q0 = params["c"], params["Q0"]

    def rhs(q):
        return math.sqrt(max(16.0 * c * c * q * q - c * c, 0.0))

    height = _ivp_profile(rhs, q0, half_width)
    return lambda u, v: (
        4.0 * c * u,
        -4.0 * height(v),
        -8.0 * c * u * height(v),
    )


def _ref_desitter_vertical(params):
    c = params["c"]
    return lambda u, v: (
        np.exp(-v) * np.sinh(u),
        c + 0.0 * u,
        np.exp(-v) * np.cosh(u),
    )


def _ref_desitter_diagonal(params):
    r = _SQRT2INV
    return lambda u, v: (
        np.exp(-v) * r * np.sinh(u),
        np.exp(-v) * r * np.sinh(u),
        np.exp(-v) * np.cosh(u),
    )


def _ref_h2xr_plane(params):
    c = params["c"]
    return lambda u, v: (
        np.exp(v) * np.cos(u),
        np.exp(v) * np.sin(u),
        c + 0.0 * u,
    )


# ---------------------------------------------------------------------------
# registry

_REGISTRY = {
    "heisenberg_vertical_plane": (
        _vertical_plane,
        _ref_vertical_plane,
        ExampleInfo(
            "heisenberg_vertical_plane",
            "heisenberg",
            "timelike",
            "timelike vertical plane y = c in the Heisenberg group",
            {"c": 1.0},
            "(exp(v)*cosh(u), c, exp(v)*(-(c/2)*cosh(u) + sinh(u)))",
        ),
    ),
    "heisenberg_helicoid": (
        _helicoid,
        _ref_helicoid,
        ExampleInfo(
            "heisenberg_helicoid",
            "heisenberg",
            "spacelike-curve",
            "timelike helicoid over an ODE radial profile rho(u)",
            {"c": -1.0, "rho0": 1.0, "b": 0.0},
            "(rho(u)*cos(v), rho(u)*sin(v), c*v + b)",
        ),
    ),
    "heisenberg_saddle": (
        _saddle,
        _ref_saddle,
        ExampleInfo(
            "heisenberg_saddle",
            "heisenberg",
            "timelike",
            "saddle-type graph z = x*y/2 over an ODE height profile Q(v)",
            {"c": 1.0, "Q0": 0.5},
            "(4*c*u, -4*Q(v), -8*c*u*Q(v)); lies on z = x*y/2",
        ),
    ),
    "desitter_vertical_plane": (
        _desitter_vertical_plane,
        _ref_desitter_vertical,
        ExampleInfo(
            "desitter_vertical_plane",
            "desitter",
            "spacelike-curve",
            "timelike vertical plane x2 = c in de Sitter space",
            {"c": 1.0},
            "(exp(-v)*sinh(u), c, exp(-v)*cosh(u))",
        ),
    ),
    "desitter_diagonal_plane": (
        _desitter_diagonal_plane,
        _ref_desitter_diagonal,
        ExampleInfo(
            "desitter_diagonal_plane",
            "desitter",
            "spacelike-curve",
            "timelike plane x1 = x2 in de Sitter space",
            {},
            "exp(-v)*(sinh(u)/sqrt(2), sinh(u)/sqrt(2), cosh(u))",
        ),
    ),
    "h2xr_horizontal_plane": (
        _h2xr_horizontal_plane,
        _ref_h2xr_plane,
        ExampleInfo(
            "h2xr_horizontal_plane",
            "h2xr",
            "spacelike-surface",
            "spacelike horizontal plane x3 = c in H2 x R",
            {"c": 1.0},
            "(exp(v)*cos(u), exp(v)*sin(u), c)",
        ),
    ),
}

EXAMPLE_IDS = tuple(_REGISTRY)


def list_examples() -> list[ExampleInfo]:
    return [info for _, _, info in _REGISTRY.values()]


def example_info(example_id: str) -> ExampleInfo:
    _require(example_id)
    return _REGISTRY[example_id][2]


def build_problem_dict(example_id: str, params: dict | None = None, order: int = 12) -> dict:
    """Problem-file dictionary for one example; params override defaults."""
    _require(example_id)
    builder, _, info = _REGISTRY[example_id]
    merged = dict(info.defaults)
    merged.update(params or {})
    d = builder(merged, order)
    d["name"] = example_id
    d["description"] = info.description
    return d


def reference_surface(example_id: str, params: dict | None = None):
    """Independent closed-form evaluator (u, v) -> coordinate triple.

    u and v may be numpy arrays of one shape; each coordinate then has
    that shape."""
    _require(example_id)
    _, ref_builder, info = _REGISTRY[example_id]
    merged = dict(info.defaults)
    merged.update(params or {})
    return ref_builder(merged)


def reference_stub(example_id: str, params: dict | None = None) -> dict:
    """Serializable description of the reference surface."""
    info = example_info(example_id)
    merged = dict(info.defaults)
    merged.update(params or {})
    return {
        "schema_version": 1,
        "example": example_id,
        "params": merged,
        "closed_form": info.formula,
    }


def _require(example_id: str) -> None:
    if example_id not in _REGISTRY:
        raise KeyError(
            f"unknown example {example_id!r}; available: {', '.join(EXAMPLE_IDS)}"
        )
