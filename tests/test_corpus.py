"""The closed-form references of the two profiled examples.

The helicoid's profile comes from an adaptive integrator's dense output.
The oracle evaluates that same dense output one Python float at a time,
so the library's array path (one call per branch) and its memoized
scalar path must match it bit for bit, and a spy counts the dense-output
calls.  The saddle's profile is a cosh, checked against its ODE and the
solve.
"""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import OdeSolution

from bjorling import corpus, problemfile
from bjorling.config import GridSpec
from bjorling.solver import solve_bjorling
from bjorling.verify import compare_to_reference

# example -> (index of the profile's variable in (u, v), profile half-width)
PROFILED = {"heisenberg_helicoid": (0, 0.45)}


def _draw_params(example, seed):
    rng = np.random.default_rng(seed)
    return {
        "c": rng.uniform(-1.5, -0.8),
        "rho0": rng.uniform(0.9, 1.1),
        "b": rng.uniform(-2.0, 2.0),
    }


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes of the arguments of every OdeSolution call, in order."""
    calls = []
    real = OdeSolution.__call__

    def spy(self, t):
        calls.append(np.shape(t))
        return real(self, t)

    monkeypatch.setattr(OdeSolution, "__call__", spy)
    return calls


def _reference_and_oracle(monkeypatch, example, params):
    """The library's reference and a per-scalar oracle of the same surface:
    the oracle reads the integrator's two solutions, recorded as the
    reference is built, one float abscissa per OdeSolution call."""
    solved = []
    real = scipy.integrate.solve_ivp

    def recording(*args, **kwargs):
        solved.append(real(*args, **kwargs))
        return solved[-1]

    with monkeypatch.context() as m:
        m.setattr(scipy.integrate, "solve_ivp", recording)
        fn = corpus.reference_surface(example, params)
    fwd, bwd = sorted(solved, key=lambda res: res.t[-1], reverse=True)
    merged = {**corpus.example_info(example).defaults, **params}

    def profile(t):
        t = np.asarray(t, dtype=float)
        vals = [float((fwd if s >= 0.0 else bwd).sol(s)[0]) for s in t.ravel()]
        return np.array(vals, dtype=float).reshape(t.shape)

    def oracle(u, v):
        r = profile(u)
        return r * np.cos(v), r * np.sin(v), merged["c"] * v + merged["b"]

    return fn, oracle


def _abscissae(rng, half_width):
    """(label, profile abscissa, other coordinate) inputs of every kind."""
    t1 = rng.uniform(-half_width, half_width, 11)
    t1[3] = 0.0
    t2 = rng.uniform(-half_width, half_width, (5, 4))
    pos = rng.uniform(0.0, half_width, 6)
    other = lambda shape: rng.uniform(-0.5, 0.5, shape)  # noqa: E731
    s = float(rng.uniform(-half_width, half_width))
    return [
        ("float", s, float(other(()))),
        ("float-negative", -abs(s), float(other(()))),
        ("numpy-scalar", np.float64(s), np.float64(other(()))),
        ("zero-d-array", np.array(s), np.array(other(()))),
        ("zero", 0.0, 0.25),
        ("1-d", t1, other(t1.shape)),
        ("2-d", t2, other(t2.shape)),
        ("all-positive", pos, other(pos.shape)),
        ("all-negative", -pos, other(pos.shape)),
        ("zeros", np.zeros(3), other(3)),
        ("empty", np.empty(0), np.empty(0)),
    ]


def _bits(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("example", sorted(PROFILED))
def test_reference_matches_per_scalar_dense_output(monkeypatch, example, seed):
    axis, half_width = PROFILED[example]
    fn, oracle = _reference_and_oracle(monkeypatch, example, _draw_params(example, seed))
    for label, t, other in _abscissae(np.random.default_rng(seed), half_width):
        uv = (t, other) if axis == 0 else (other, t)
        got, want = fn(*uv), oracle(*uv)
        for k in range(3):
            assert _bits(got[k]) == _bits(want[k]), (label, k)


@pytest.mark.parametrize("example", sorted(PROFILED))
def test_array_call_makes_one_dense_output_call_per_branch(dense_calls, example):
    fn = corpus.reference_surface(example)
    half_width = PROFILED[example][1]
    rng = np.random.default_rng(5)
    for shape in [(1,), (7,), (129, 65), (40, 3, 2)]:
        t = rng.uniform(-half_width, half_width, shape)
        for arr in (t, np.abs(t), -np.abs(t)):
            dense_calls.clear()
            fn(arr, arr)
            assert len(dense_calls) <= 2, (shape, dense_calls)
            assert all(len(s) == 1 for s in dense_calls)  # raveled, never per point
    dense_calls.clear()
    fn(np.empty((0, 4)), np.empty((0, 4)))
    assert dense_calls == []  # an empty branch is skipped


@pytest.mark.parametrize("example, most", [("heisenberg_helicoid", 129)])
def test_per_point_sweep_evaluates_each_abscissa_once(dense_calls, example, most):
    doc = corpus.build_problem_dict(example)
    grid = GridSpec(**dict(doc["grid"], nu=129, nv=65))
    fn = corpus.reference_surface(example)
    dense_calls.clear()
    for u in grid.us():
        for v in grid.vs():
            fn(u, v)
    assert 0 < len(dense_calls) <= most


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
