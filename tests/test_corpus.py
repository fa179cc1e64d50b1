"""The closed-form references of the two profiled examples.

The helicoid's profile is the inverse of a Gauss-Legendre quadrature,
checked against a 30-digit mpmath inverse of the same integral; its
memoized scalar path must match its array path bit for bit, and its node
and Newton step counts must have converged.  The saddle's profile is a
cosh, checked against its ODE and the solve.
"""

import mpmath
import numpy as np
import pytest

from bjorling import corpus, problemfile
from bjorling.config import GridSpec
from bjorling.solver import solve_bjorling
from bjorling.verify import compare_to_reference

HALF_WIDTH = 0.45  # of the helicoid's profile abscissae


def _draw_params(seed):
    rng = np.random.default_rng(seed)
    return {
        "c": rng.uniform(-1.5, -0.8),
        "rho0": rng.uniform(0.9, 1.1),
        "b": rng.uniform(-2.0, 2.0),
    }


# (params, half-width of u): two draws, the parameter sweep's (c, rho0)
# and the flat case, whose profile equation needs rho0 > 2 at c = 0.
PARAM_SETS = [
    pytest.param(_draw_params(3), HALF_WIDTH, id="draw-3"),
    pytest.param(_draw_params(17), HALF_WIDTH, id="draw-17"),
    pytest.param({"c": -0.5, "rho0": 1.2, "b": 1.0}, HALF_WIDTH, id="sweep"),
    pytest.param({"c": 0.0, "rho0": 2.5, "b": 0.0}, 0.2, id="flat"),
]


def _profile(fn, t):
    # rho(u) is the x coordinate at v = 0, where cos v = 1 exactly.
    return np.asarray(fn(t, np.zeros_like(t))[0], dtype=float)


def _mp_profile(c, rho0, t):
    """rho(t) from findroot on the 30-digit integral of 1 / sqrt(P)."""
    with mpmath.workdps(30):
        c, rho0, t = mpmath.mpf(c), mpmath.mpf(rho0), mpmath.mpf(t)
        root_p = lambda s: mpmath.sqrt((s * s / 2 - c) ** 2 - s * s)  # noqa: E731
        guess = rho0 + t * root_p(rho0)
        return float(mpmath.findroot(lambda r: mpmath.quad(lambda s: 1 / root_p(s), [rho0, r]) - t, guess))


@pytest.mark.parametrize("params, half_width", PARAM_SETS)
def test_helicoid_profile_matches_the_mpmath_inverse(params, half_width):
    t = np.linspace(-half_width, half_width, 9)
    got = _profile(corpus.reference_surface("heisenberg_helicoid", params), t)
    want = np.array([_mp_profile(params["c"], params["rho0"], s) for s in t])
    assert np.max(np.abs(got - want)) <= 1e-15


def _abscissae(rng):
    """(label, profile abscissa) inputs of every kind."""
    t1 = rng.uniform(-HALF_WIDTH, HALF_WIDTH, 11)
    t1[3] = 0.0
    t2 = rng.uniform(-HALF_WIDTH, HALF_WIDTH, (5, 4))
    pos = rng.uniform(0.0, HALF_WIDTH, 6)
    s = float(rng.uniform(-HALF_WIDTH, HALF_WIDTH))
    return [
        ("float", s),
        ("float-negative", -abs(s)),
        ("numpy-scalar", np.float64(s)),
        ("zero-d-array", np.array(s)),
        ("zero", 0.0),
        ("1-d", t1),
        ("2-d", t2),
        ("all-positive", pos),
        ("all-negative", -pos),
        ("zeros", np.zeros(3)),
        ("empty", np.empty(0)),
    ]


def _bits(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("seed", [3, 17])
def test_helicoid_scalar_and_array_calls_agree_bit_for_bit(seed):
    fn = corpus.reference_surface("heisenberg_helicoid", _draw_params(seed))
    for label, t in _abscissae(np.random.default_rng(seed)):
        arr = np.asarray(t, dtype=float)
        got = _profile(fn, t)
        # each abscissa as a Python float (the memoized path) and inside a
        # one-element array (the array path)
        for one in (lambda s: s, lambda s: np.array([s])):
            want = np.array([_profile(fn, one(float(s))) for s in arr.ravel()]).reshape(arr.shape)
            assert _bits(got) == _bits(want), label


@pytest.mark.parametrize("params, half_width", PARAM_SETS)
def test_helicoid_quadrature_and_newton_steps_have_converged(monkeypatch, params, half_width):
    # One more Newton step, or twice the nodes, moves no value by more than 1 ulp.
    t = np.linspace(-half_width, half_width, 31)
    base = _profile(corpus.reference_surface("heisenberg_helicoid", params), t)
    nodes, weights = np.polynomial.legendre.leggauss(2 * len(corpus._NODES))
    for more in ({"_NEWTON_STEPS": corpus._NEWTON_STEPS + 1}, {"_NODES": nodes, "_WEIGHTS": weights}):
        with monkeypatch.context() as m:
            for name, value in more.items():
                m.setattr(corpus, name, value)
            finer = _profile(corpus.reference_surface("heisenberg_helicoid", params), t)
        assert np.all(np.abs(finer - base) <= np.spacing(base)), sorted(more)


@pytest.mark.parametrize("example, most", [("heisenberg_helicoid", 129)])
def test_per_point_sweep_evaluates_each_abscissa_once(monkeypatch, example, most):
    solves = []
    real = corpus._helicoid_profile

    def counted(c, rho0, t):
        solves.append(t.shape)
        return real(c, rho0, t)

    monkeypatch.setattr(corpus, "_helicoid_profile", counted)
    doc = corpus.build_problem_dict(example)
    grid = GridSpec(**dict(doc["grid"], nu=129, nv=65))
    fn = corpus.reference_surface(example)
    for u in grid.us():
        for v in grid.vs():
            fn(u, v)
    assert 0 < len(solves) <= most
    assert set(solves) == {(1, 1)}


@pytest.mark.parametrize("q0", [0.4, 0.6])
def test_saddle_profile_solves_its_ode_through_the_turn(q0):
    # Q'' = 16 c^2 Q, Q(0) = Q0 and Q'(0) = |c| sqrt(16 Q0^2 - 1) across
    # the strip at c = 2, where the profile turns at |Q| = 1/4 (v = -0.13
    # for Q0 = 0.4, -0.19 for 0.6), by central differences of step h.
    c, h = 2.0, 1e-3
    fn = corpus.reference_surface("heisenberg_saddle", {"c": c, "Q0": q0})

    def q(t):
        return -np.asarray(fn(np.zeros_like(t), t)[1]) / 4.0

    v = np.linspace(-0.3, 0.3, 61)
    second = (q(v + h) - 2.0 * q(v) + q(v - h)) / h**2
    assert np.max(np.abs(second - 16.0 * c * c * q(v))) <= 1e-3 * 16.0 * c * c * np.max(q(v))
    assert q(np.zeros(1))[0] == pytest.approx(q0, abs=1e-15)
    slope = (q(np.array([h])) - q(np.array([-h])))[0] / (2.0 * h)
    assert slope == pytest.approx(c * np.sqrt(16.0 * q0 * q0 - 1.0), rel=1e-4)


def test_saddle_solve_meets_its_closed_form_to_rounding():
    params = {"c": 0.5, "Q0": 0.6}
    prob = problemfile.problem_from_dict(corpus.build_problem_dict("heisenberg_saddle", params))
    fn = corpus.reference_surface("heisenberg_saddle", params)
    assert compare_to_reference(solve_bjorling(prob).surface, fn, prob.grid.us(), prob.grid.vs()) <= 1e-13
