import ast
import dataclasses
import math
import re

import numpy as np
import pytest

from bjorling import corpus, problemfile
from bjorling.config import CurveClass, GridSpec, ProblemKind
from bjorling.errors import (
    CausalMismatch,
    CharacteristicData,
    ConstraintDrift,
    DegenerateSqrt,
    NonIntegrable,
    ProblemValidationError,
    UnsupportedRecipe,
)
from bjorling.groups import de_sitter, generic_group, h2xr, heisenberg, lorentz_cross, lorentz_dot
from bjorling.scalars import KScalar, Mode
from bjorling.series import BiSeries, KSeries, USeries
from bjorling.solver import (
    BjorlingProblem,
    ck_march,
    ck_march_cone_lift,
    classify_curve,
    cone_series,
    initial_data,
    reconstruct_surface,
    solve_bjorling,
)
from oracles import frame_series, frame_stack, reference_ck_march, reference_cone_lift

P = Mode.PARACOMPLEX


def _problem(example_id, params=None, order=12, **tweaks):
    doc = corpus.build_problem_dict(example_id, params, order=order)
    for key, val in tweaks.items():
        doc[key] = val
    return problemfile.problem_from_dict(doc)


def _series(prob, frame):
    return frame_series(frame, prob.center, prob.mode)


# ---------------------------------------------------------------------------
# classification


def test_classify_vertical_plane_curve_timelike():
    prob = _problem("heisenberg_vertical_plane")
    assert classify_curve(prob.group, prob.curve, -1.0, 1.0) is CurveClass.TIMELIKE


def test_classify_helicoid_curve_spacelike():
    prob = _problem("heisenberg_helicoid")
    assert classify_curve(prob.group, prob.curve, -0.3, 0.3) is CurveClass.SPACELIKE


def test_classify_desitter_curve_spacelike():
    prob = _problem("desitter_vertical_plane")
    assert classify_curve(prob.group, prob.curve, -0.75, 0.75) is CurveClass.SPACELIKE


def test_classify_lightlike():
    group = heisenberg()
    n = 9
    curve = (USeries.variable(n), USeries.constant(0.0, n), USeries.variable(n))
    assert classify_curve(group, curve, -1.0, 1.0) is CurveClass.LIGHTLIKE


def test_classify_mixed():
    group = heisenberg()
    n = 9
    # velocity (cosh 2u, 0, sinh 2u + something) crossing causal character:
    # use beta = (u, 0, u^2) so speed^2 = 1 - 4u^2 changes sign on [-1, 1]
    u = USeries.variable(n)
    curve = (u, USeries.constant(0.0, n), u * u)
    got = classify_curve(group, curve, -1.0, 1.0, samples=16)
    assert got in (CurveClass.MIXED, CurveClass.LIGHTLIKE)


# ---------------------------------------------------------------------------
# initial data against hand-computed jets


def test_initial_data_vertical_plane():
    prob = _problem("heisenberg_vertical_plane")  # c = 1
    frame0 = initial_data(prob)
    n = prob.order
    su = USeries.variable(n + 1).sinh()
    cu = USeries.variable(n + 1).cosh()
    want = [
        (0.5 * su, 0.5 * cu),
        (USeries.constant(0, n), USeries.constant(0, n)),
        (0.5 * cu, 0.5 * su),
    ]
    for re, im, (wre, wim) in zip(*frame0[..., 0], want):
        assert np.max(np.abs(re - wre.coeffs[: n + 1])) <= 1e-14
        assert np.max(np.abs(im - wim.coeffs[: n + 1])) <= 1e-14


def test_initial_data_helicoid():
    prob = _problem("heisenberg_helicoid")  # c = -1, rho0 = 1
    c = -1.0
    frame0 = initial_data(prob)
    rho = prob.curve[0]
    rho_d = rho.deriv()
    n = prob.order
    want = [
        (0.5 * rho_d, USeries.constant(0, n)),
        (USeries.constant(0, n), 0.5 * rho),
        (USeries.constant(0, n), -0.25 * (rho * rho - 2.0 * c)),
    ]
    for re, im, (wre, wim) in zip(*frame0[..., 0], want):
        k = min(re.size, wre.coeffs.size)
        assert np.max(np.abs(re[:k] - wre.coeffs[:k])) <= 1e-13
        k = min(im.size, wim.coeffs.size)
        assert np.max(np.abs(im[:k] - wim.coeffs[:k])) <= 1e-13


def test_initial_data_saddle():
    prob = _problem("heisenberg_saddle")  # c = 1, Q0 = 0.5
    c, q0 = 1.0, 0.5
    qp0 = math.sqrt(16 * c * c * q0 * q0 - c * c)
    vals = [comp.eval(0.0, 0.0) for comp in _series(prob, initial_data(prob))]
    assert vals[0].re == pytest.approx(2 * c) and vals[0].im == pytest.approx(0.0)
    assert vals[1].re == pytest.approx(0.0) and vals[1].im == pytest.approx(-2 * qp0)
    assert vals[2].re == pytest.approx(-8 * c * q0) and vals[2].im == pytest.approx(0.0)


def test_initial_data_h2xr_plane():
    prob = _problem("h2xr_horizontal_plane")
    u0 = math.pi / 2
    vals = [comp.eval(u0, 0.0) for comp in _series(prob, initial_data(prob))]
    # at the center: (-(sin u + i cos u)/(2 sin u), (cos u - i sin u)/(2 sin u), 0)
    assert vals[0].re == pytest.approx(-0.5) and vals[0].im == pytest.approx(0.0, abs=1e-15)
    assert vals[1].re == pytest.approx(0.0, abs=1e-15) and vals[1].im == pytest.approx(-0.5)
    assert vals[2].re == 0.0 and vals[2].im == 0.0


def test_initial_tangent_coordinates_saddle():
    # coordinate tangent d f / dz = 0.5 (f_u, f_v) of the solved saddle on
    # v = 0: (2c, -2Q'(0) j, -4cQ(0) - 4cuQ'(0) j)
    prob = _problem("heisenberg_saddle")
    c, q0 = 1.0, 0.5
    qp0 = math.sqrt(16 * c * c * q0 * q0 - c * c)
    sol = solve_bjorling(prob)
    re = [0.5 * f.du() for f in sol.surface]
    im = [0.5 * f.dv() for f in sol.surface]
    want = ((2 * c, 0.0), (0.0, -2 * qp0), (-4 * c * q0, 0.0))
    for r, i, (wre, wim) in zip(re, im, want):
        assert r.eval(0.0, 0.0) == pytest.approx(wre, abs=1e-12)
        assert i.eval(0.0, 0.0) == pytest.approx(wim, abs=1e-12)
    assert im[2].du().eval(0.0, 0.0) == pytest.approx(-4 * c * qp0)
    assert re[2].du().eval(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_frame_data_stack_layout():
    # One (2, 3, n+1, n+1) array from the initial data to the solution file:
    # [0, c] is the real and [1, c] the unit table of psi_{c+1}.
    prob = _problem("heisenberg_vertical_plane")  # c = 1
    n = prob.order
    frame0 = initial_data(prob)
    assert frame0.shape == (2, 3, n + 1, n + 1) and frame0.dtype == np.float64
    assert not frame0[..., 1:].any()  # only v = 0 comes from the data
    vel = prob.frame_velocity()
    cross = lorentz_cross(prob.normal_field, vel)
    half_sign = 0.5 * prob.kind.tangent_sign
    for c in range(3):
        assert np.array_equal(frame0[0, c, :, 0], 0.5 * vel[c].coeffs[: n + 1])
        assert np.array_equal(frame0[1, c, :, 0], half_sign * cross[c].coeffs[: n + 1])

    sol = solve_bjorling(prob)
    assert sol.frame_data.shape == frame0.shape
    assert np.array_equal(sol.frame_data[..., 0], frame0[..., 0])
    # psi1 = 0.5 e^v (sinh u + j cosh u): its real table is the sinh half
    ev = BiSeries.from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = BiSeries.from_univariate_u(USeries.variable(n).sinh(), n)
    cu = BiSeries.from_univariate_u(USeries.variable(n).cosh(), n)
    assert np.max(np.abs(sol.frame_data[0, 0] - (0.5 * (ev * su)).coeffs)) <= 1e-12
    assert np.max(np.abs(sol.frame_data[1, 0] - (0.5 * (ev * cu)).coeffs)) <= 1e-12
    assert not sol.frame_data[:, 1].any()

    payload = problemfile.solution_payload(sol)["frame_data"]
    assert len(payload) == 3
    for c, entry in enumerate(payload):
        assert np.array_equal(np.array(entry["re"]), sol.frame_data[0, c])
        assert np.array_equal(np.array(entry["im"]), sol.frame_data[1, c])


def test_initial_data_cone_condition():
    for ex in corpus.EXAMPLE_IDS:
        prob = _problem(ex)
        assert cone_series(_series(prob, initial_data(prob))).maxabs() <= 1e-11


# ---------------------------------------------------------------------------
# marching against closed-form frame data


def test_march_vertical_plane_matches_exponential_solution():
    prob = _problem("heisenberg_vertical_plane")
    marched = _series(prob, ck_march(prob.group, initial_data(prob), P))
    n = prob.order
    ev = BiSeries.from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = BiSeries.from_univariate_u(USeries.variable(n).sinh(), n)
    cu = BiSeries.from_univariate_u(USeries.variable(n).cosh(), n)
    want = (
        KSeries(0.5 * (ev * su), 0.5 * (ev * cu), P),
        KSeries(BiSeries.zeros(n), BiSeries.zeros(n), P),
        KSeries(0.5 * (ev * cu), 0.5 * (ev * su), P),
    )
    for got, target in zip(marched, want):
        assert (got - target).maxabs() <= 1e-12


def test_march_saddle_matches_profile_solution():
    prob = _problem("heisenberg_saddle")
    c, q0 = 1.0, 0.5
    from bjorling.series import ode_taylor

    marched = _series(prob, ck_march(prob.group, initial_data(prob), P))
    n = prob.order
    q = ode_taylor(lambda w: (16 * c * c * (w * w) - c * c).sqrt(), q0, n + 1)
    qd = q.deriv()
    zero = BiSeries.zeros(n)
    want = (
        KSeries(BiSeries.constant(2 * c, n), zero, P),
        KSeries(zero, BiSeries.from_univariate_v(-2.0 * qd, n), P),
        KSeries(BiSeries.from_univariate_v(-8.0 * c * q, n), zero, P),
    )
    for got, target in zip(marched, want):
        # coefficients reach ~40 here; allow a few ulps of that scale
        assert (got - target).maxabs() <= 1e-10


def test_march_desitter_is_v_independent():
    for ex in ("desitter_vertical_plane", "desitter_diagonal_plane"):
        prob = _problem(ex)
        marched = ck_march(prob.group, initial_data(prob), P)
        assert np.max(np.abs(marched[..., 1:])) <= 1e-12


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_requires_recipe():
    # Without a frame matrix there is nothing to march the immersion through.
    gen = generic_group(heisenberg().C)
    p = KSeries.constant(KScalar(1.0, 0.0, P), 4, 0.0)
    curve = tuple(USeries.variable(5) for _ in range(3))
    with pytest.raises(UnsupportedRecipe, match="no frame matrix"):
        reconstruct_surface(gen, frame_stack((p, p, p)), curve, P)


_GENERIC_FRAMES = {
    "heisenberg": [["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]],
    "desitter": [["x3", "0", "0"], ["0", "x3", "0"], ["0", "0", "x3"]],
    "h2xr": [["x2", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"]],
}


@pytest.mark.parametrize("order", [12, 30])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_builtin_declared_generic_rebuilds_the_same_surface(example_id, order):
    # The same structure constants and frame strings as a generic group: the
    # coframe becomes an adjugate inverse and the frame an expression.
    prob = _problem(example_id, order=order)
    gen = generic_group(prob.group.C, frame_exprs=_GENERIC_FRAMES[prob.group.name])
    gprob = dataclasses.replace(prob, group=gen)
    want, got = solve_bjorling(prob), solve_bjorling(gprob)
    assert not got.report.failures(gprob.tolerances)
    scale = max(1.0, max(f.maxabs() for f in want.surface))
    for f, g in zip(got.surface, want.surface):
        assert (f - g).maxabs() <= 1e-11 * scale


def test_generic_frame_entries_are_parsed_once(monkeypatch):
    # The nine entries are parsed when the group is made, not on each of the
    # hundreds of frame evaluations a solve makes.
    prob = _problem("heisenberg_vertical_plane", order=30)
    calls = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *args, **kw: calls.append(args) or parse(*args, **kw))
    gen = generic_group(prob.group.C, frame_exprs=_GENERIC_FRAMES["heisenberg"])
    assert len(calls) == 9
    solution = solve_bjorling(dataclasses.replace(prob, group=gen))
    assert not solution.report.failures(prob.tolerances)
    assert len(calls) == 9


# Per kind: the index of the curve's leading velocity direction and the
# fixed axis crossed with the velocity to make the unit field.
_L3_CASES = {
    ProblemKind.TIMELIKE_CURVE: (2, (1.0, 0.0, 0.0)),
    ProblemKind.SPACELIKE_CURVE: (0, (0.0, 0.0, 1.0)),
    ProblemKind.SPACELIKE_SURFACE: (0, (0.0, 1.0, 0.0)),
}


def _l3_problem(kind, seed, order=12, u0=0.1):
    # Minkowski space L3 as a generic group (flat: C = 0, A = I) with a
    # seeded cubic curve and V the normalized cross of its velocity with
    # the kind's axis.
    lead, axis = _L3_CASES[kind]
    coeffs = np.random.default_rng(seed).uniform(-0.1, 0.1, (3, 4))
    coeffs[lead, 1] = 2.0
    # One order more than the solve needs, so V, made from the velocity, has
    # the order + 1 of a problem file's field.
    curve = tuple(USeries(np.pad(c, (0, order + 3 - c.size)), u0) for c in coeffs)
    velocity = tuple(b.deriv() for b in curve)
    cross = lorentz_cross(velocity, axis)
    length = (kind.normal_square * lorentz_dot(cross, cross)).sqrt()
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    flat = generic_group(np.zeros((3, 3, 3)), frame_exprs=identity)
    return BjorlingProblem(
        group=flat,
        curve=curve,
        normal_field=tuple(w / length for w in cross),
        kind=kind,
        order=order,
        grid=GridSpec(u0 - 0.3, u0 + 0.3, -0.15, 0.15, 9, 5),
    )


def _bjorling_formula(prob, sign):
    # Re{beta(z) + sign * unit * int_{u0}^{z} V x beta'(w) dw}, composed in
    # KSeries arithmetic at the surface's order.
    n = prob.order + 1
    z = KSeries.variable_z(n, prob.center, prob.mode) - prob.center
    unit = KScalar(0.0, 1.0, prob.mode)

    def compose(jet):
        out = KSeries.constant(KScalar(jet.coeffs[n], 0.0, prob.mode), n, prob.center)
        for c in jet.coeffs[n - 1 :: -1]:
            out = out * z + float(c)
        return out

    integrand = lorentz_cross(prob.normal_field, prob.curve_velocity())
    out = []
    for b, g in zip(prob.curve, integrand):
        primitive = USeries(np.append(0.0, g.coeffs / np.arange(1, g.order + 2)), prob.center)
        out.append((compose(b) + (sign * compose(primitive)) * unit).re)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_l3_rebuild_matches_the_bjorling_formula(kind, seed):
    prob = _l3_problem(kind, seed)
    sol = solve_bjorling(prob)
    assert not sol.report.failures(prob.tolerances)
    us, vs = prob.grid.us(), prob.grid.vs()
    got = np.array([f.eval_grid(us, vs) for f in sol.surface])
    want, opposite = (
        np.array([f.eval_grid(us, vs) for f in _bjorling_formula(prob, sign)])
        for sign in (prob.kind.tangent_sign, -prob.kind.tangent_sign)
    )
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.max(np.abs(got - opposite)) > 1e-2


def test_perturbed_frame_data_is_not_integrable():
    # The march reads only Im psi; the compat gate checks Re psi against it.
    prob = _problem("heisenberg_vertical_plane")
    frame = ck_march(prob.group, initial_data(prob), prob.mode)
    reconstruct_surface(prob.group, frame, prob.curve, prob.mode)
    bad = frame.copy()
    re = bad[0, 0, :, 1:]  # a view: the v > 0 columns of Re psi1
    re[np.unravel_index(np.argmax(np.abs(re)), re.shape)] *= 1.0 + 1e-6
    with pytest.raises(NonIntegrable, match="f_u"):
        reconstruct_surface(prob.group, bad, prob.curve, prob.mode)


def test_reconstructed_boundary_is_the_curve():
    for ex in corpus.EXAMPLE_IDS:
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        for f, b in zip(sol.surface, prob.curve):
            row = f.coeffs[:, 0]
            k = min(row.size, b.coeffs.size)
            assert np.max(np.abs(row[:k] - b.coeffs[:k])) <= 1e-10


def test_boundary_v_derivative_sign_convention():
    # f_v(u, 0) equals the coordinate cross field with the kind's sign
    for ex in ("heisenberg_vertical_plane", "heisenberg_helicoid", "h2xr_horizontal_plane"):
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        vel = prob.frame_velocity()
        from bjorling.groups import lorentz_cross

        cross = lorentz_cross(prob.normal_field, vel)
        cross_coords = prob.group.coords_jet_from_frame(prob.curve, cross)
        sign = prob.kind.fv_sign
        for f, w in zip(sol.surface, cross_coords):
            fv_row = f.dv().coeffs[:, 0]
            k = min(fv_row.size, w.coeffs.size)
            assert np.max(np.abs(fv_row[:k] - sign * w.coeffs[:k])) <= 1e-9


def test_frame_data_closes_through_coordinates():
    # d f / dz in coordinates, mapped back by the frame matrix along the
    # curve, reproduces the marched frame data on the boundary row
    prob = _problem("heisenberg_vertical_plane")
    sol = solve_bjorling(prob)
    psi = _series(prob, sol.frame_data)
    us = np.linspace(-0.6, 0.6, 7)
    for u in us:
        x = sol.surface_point(u, 0.0)
        _, ainv = prob.group.frame_matrix(x)
        fu = np.array([f.du().eval(u, 0.0) for f in sol.surface])
        fv = np.array([f.dv().eval(u, 0.0) for f in sol.surface])
        tangent_re = 0.5 * fu
        tangent_im = 0.5 * fv
        frame_re = ainv @ tangent_re
        frame_im = ainv @ tangent_im
        for c in range(3):
            val = psi[c].eval(u, 0.0)
            assert val.re == pytest.approx(frame_re[c], abs=1e-9)
            assert val.im == pytest.approx(frame_im[c], abs=1e-9)


def test_reconstruction_closes_the_loop_coefficientwise():
    # dz of the reconstructed coordinates equals the frame data pushed
    # through the frame matrix entries along the surface, as series:
    # dz f = A(f) psi
    for ex in corpus.EXAMPLE_IDS:
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        frame = prob.group.frame(sol.surface)
        psi = _series(prob, sol.frame_data)
        tangent = [sum(row[j] * psi[j] for j in range(3)) for row in frame]
        for f, want in zip(sol.surface, tangent):
            got = KSeries.from_real(f, prob.mode).dz()
            assert (got - want.truncated(got.order)).maxabs() <= 1e-8, ex


# ---------------------------------------------------------------------------
# end-to-end guards


def test_lightlike_curve_is_characteristic():
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc["beta"] = ["u", "0", "u"]
    doc["V"] = ["0", "1", "0"]
    prob = problemfile.problem_from_dict(doc)
    with pytest.raises(CharacteristicData, match="lightlike"):
        solve_bjorling(prob)


def test_kind_mismatch_rejected():
    doc = corpus.build_problem_dict("desitter_vertical_plane")
    doc["mode"] = "timelike"  # curve is spacelike
    prob = problemfile.problem_from_dict(doc)
    with pytest.raises(CausalMismatch):
        solve_bjorling(prob)


def test_non_unit_field_rejected():
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc["V"] = ["0", "2", "0"]
    prob = problemfile.problem_from_dict(doc)
    with pytest.raises(ProblemValidationError, match=r"g\(V, V\)"):
        solve_bjorling(prob)


def test_non_orthogonal_field_rejected():
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc["V"] = ["1", "0", "0"]  # unit spacelike but not orthogonal
    prob = problemfile.problem_from_dict(doc)
    with pytest.raises(ProblemValidationError, match=r"g\(curve', V\)"):
        solve_bjorling(prob)


def test_base_point_outside_chart_rejected():
    doc = corpus.build_problem_dict("h2xr_horizontal_plane")
    doc["u0"] = 0.0  # sin(0) = 0 sits on the chart boundary
    doc["grid"]["u_min"], doc["grid"]["u_max"] = -0.5, 0.5
    prob = problemfile.problem_from_dict(doc)
    with pytest.raises(ProblemValidationError, match="chart"):
        solve_bjorling(prob)


def test_generic_group_cannot_reconstruct():
    # No frame matrix, or a frame entry equal to 1 along the curve that has
    # no polynomial series expansion in the coordinates.
    for entry in (None, "exp(x1 - x1)", "x3/x3", "x3**-1 * x3"):
        doc = {
            "schema_version": 1,
            "group": "generic",
            "structure_constants": heisenberg().C.tolist(),
            "frame_matrix": [["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]],
            "mode": "timelike",
            "u0": 0.0,
            "order": 6,
            "beta": ["cosh(u)", "1", "-cosh(u)/2 + sinh(u)"],
            "V": ["0", "1", "0"],
            "grid": {"u_min": -1, "u_max": 1, "v_min": -0.5, "v_max": 0.5, "nu": 9, "nv": 5},
        }
        if entry is None:
            del doc["frame_matrix"]
        else:
            doc["frame_matrix"][0][0] = entry
        prob = problemfile.problem_from_dict(doc)
        match = "no frame matrix" if entry is None else re.escape(repr(entry))
        with pytest.raises(UnsupportedRecipe, match=match):
            solve_bjorling(prob)


def _random_column_data(rng, count, mode, order, lead=None):
    # Frame data on v = 0 only: random u-jets, optionally with the constant
    # term drawn from +-lead so the data stays away from zero.
    def jet():
        c = rng.uniform(-0.3, 0.3, order + 1)
        if lead is not None:
            c[0] = rng.choice([-1.0, 1.0]) * rng.uniform(*lead)
        return BiSeries.from_univariate_u(USeries(c), order)

    return tuple(KSeries(jet(), jet(), mode) for _ in range(count))


def _march_cases():
    for example_id in corpus.EXAMPLE_IDS:
        for order in (8, 20):
            yield pytest.param("corpus", example_id, order, id=f"{example_id}-{order}")
    for seed in (1, 2):
        for mode in (Mode.PARACOMPLEX, Mode.COMPLEX):
            yield pytest.param("generic", (seed, mode), 12, id=f"generic{seed}-{mode.value}")


@pytest.mark.parametrize("source, case, order", list(_march_cases()))
def test_march_matches_full_product_reference(source, case, order):
    if source == "corpus":
        prob = _problem(case, order=order)
        group, mode, center = prob.group, prob.mode, prob.center
        frame0 = initial_data(prob)
    else:
        seed, mode = case
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, (3, 3, 3))
        group = generic_group(table - table.transpose(1, 0, 2))
        center = 0.0
        frame0 = frame_stack(_random_column_data(rng, 3, mode, order))
    want = reference_ck_march(group, frame_series(frame0, center, mode), mode, order)
    got = frame_series(ck_march(group, frame0, mode), center, mode)
    scale = max(w.maxabs() for w in want)
    for g, w in zip(got, want):
        assert (g - w).maxabs() <= 1e-11 * max(1.0, scale)


@pytest.mark.parametrize("group", [heisenberg(), de_sitter(), h2xr()], ids=lambda g: g.name)
@pytest.mark.parametrize("mode", [Mode.PARACOMPLEX, Mode.COMPLEX], ids=lambda m: m.value)
def test_cone_lift_matches_full_product_reference(group, mode):
    order = 6
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 3:
        p1, p2 = _random_column_data(rng, 2, mode, order, lead=(0.4, 0.9))
        s0 = (p1 * p1 + p2 * p2).eval(0.0, 0.0)
        if abs(s0.sq_mod()) < 0.05:
            continue
        try:
            s0.sqrt()
        except DegenerateSqrt:
            continue
        want = reference_cone_lift(group, p1, p2, mode, order)
        # the lift reads psi1 and psi2 only; the third slot is ignored
        got = frame_series(ck_march_cone_lift(group, frame_stack((p1, p2, p1)), mode), 0.0, mode)
        scale = max(w.maxabs() for w in want)
        for g, w in zip(got, want):
            assert (g - w).maxabs() <= 1e-11 * max(1.0, scale)
        checked += 1


def test_generic_march_agrees_with_builtin():
    base = _problem("heisenberg_vertical_plane", order=8)
    gen = generic_group(
        heisenberg().C,
        frame_exprs=[["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]],
    )
    gprob = BjorlingProblem(
        group=gen,
        curve=base.curve,
        normal_field=base.normal_field,
        kind=base.kind,
        order=base.order,
        grid=base.grid,
    )
    ma = ck_march(base.group, initial_data(base), P)
    mb = ck_march(gen, initial_data(gprob), P)
    assert np.max(np.abs(ma - mb)) <= 1e-11


def test_solve_is_deterministic():
    prob1 = _problem("heisenberg_saddle")
    prob2 = _problem("heisenberg_saddle")
    s1 = solve_bjorling(prob1)
    s2 = solve_bjorling(prob2)
    for a, b in zip(s1.surface, s2.surface):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(s1.frame_data, s2.frame_data)
    assert s1.report.as_flat_dict() == s2.report.as_flat_dict()


def test_strip_shrinks_when_series_degrades():
    # flat-limit helicoid data has a small convergence radius; on a grid
    # wider than it the report must not validate the full strip blindly
    sol = solve_bjorling(
        _problem("heisenberg_helicoid", {"c": 0.0, "rho0": 2.5, "b": 0.0})
    )
    report = sol.report
    # either a shrunken strip passed or the report flags failure; in both
    # cases every residual field is populated
    assert report.strip_halvings > 0 or not report.strip_valid
    flat = report.as_flat_dict()
    assert all(v == v for v in flat.values() if isinstance(v, float))  # no NaNs


def test_fresh_timelike_problem_without_closed_form():
    # generic analytic data in the Heisenberg group: the unit field is the
    # normalized cross of a constant frame vector with the curve velocity,
    # so orthogonality and unit norm hold by construction, and no closed
    # form exists.  The residual report is the only ground truth.
    n = 10
    order = 12
    u = USeries.variable(order + 1, 0.0)
    curve = (0.2 * u.sinh(), 0.1 * u, u)
    group = heisenberg()
    vel = group.frame_jet_from_coords(curve, tuple(c.deriv() for c in curve))
    from bjorling.groups import lorentz_cross, lorentz_dot

    e2 = tuple(USeries.constant(x, order, 0.0) for x in (0.0, 1.0, 0.0))
    w = lorentz_cross(e2, vel)
    norm = lorentz_dot(w, w).sqrt()
    field = tuple(c / norm for c in w)
    prob = BjorlingProblem(
        group=group,
        curve=curve,
        normal_field=field,
        kind=ProblemKind.TIMELIKE_CURVE,
        order=order,
        grid=GridSpec(-0.6, 0.6, -0.4, 0.4, 13, 9),
    )
    sol = solve_bjorling(prob)
    r = sol.report
    assert r.cone_residual <= 1e-10
    assert r.pde_residual <= 1e-10
    assert r.boundary_curve_residual <= 1e-10
    assert r.normal_residual <= 1e-8
    assert r.strip_valid
    assert r.minimality_residual <= 1e-4
    # the frame data genuinely depends on v here
    assert np.max(np.abs(sol.frame_data[0, :, :, 1:])) > 1e-3


def test_fresh_spacelike_surface_without_closed_form():
    # same construction over the complex numbers: spacelike curve in the
    # hyperbolic halfplane chart with a timelike unit normal field
    order = 12
    u = USeries.variable(order + 1, 0.0)
    curve = (0.2 * u, 1.0 + 0.3 * (u * u), 0.05 * u)
    group = h2xr()
    vel = group.frame_jet_from_coords(curve, tuple(c.deriv() for c in curve))
    from bjorling.groups import lorentz_cross, lorentz_dot

    e2 = tuple(USeries.constant(x, order, 0.0) for x in (0.0, 1.0, 0.0))
    w = lorentz_cross(e2, vel)
    norm = (-1.0 * lorentz_dot(w, w)).sqrt()  # w is timelike here
    field = tuple(c / norm for c in w)
    prob = BjorlingProblem(
        group=group,
        curve=curve,
        normal_field=field,
        kind=ProblemKind.SPACELIKE_SURFACE,
        order=order,
        grid=GridSpec(-0.4, 0.4, -0.3, 0.3, 11, 9),
    )
    sol = solve_bjorling(prob)
    r = sol.report
    assert r.cone_residual <= 1e-10
    assert r.pde_residual <= 1e-10
    assert r.boundary_curve_residual <= 1e-10
    assert r.normal_residual <= 1e-8
    assert r.strip_valid
    assert r.minimality_residual <= 1e-4


@pytest.mark.parametrize(
    "example_id,params",
    [
        ("heisenberg_vertical_plane", {"c": -2.0}),
        ("heisenberg_vertical_plane", {"c": 0.0}),
        ("desitter_vertical_plane", {"c": 5.0}),
        ("h2xr_horizontal_plane", {"c": -3.0}),
        ("heisenberg_saddle", {"c": 0.5, "Q0": 0.6}),
        ("heisenberg_helicoid", {"c": -0.5, "rho0": 1.2, "b": 1.0}),
    ],
)
def test_parameter_sweep_matches_references(example_id, params):
    prob = _problem(example_id, params)
    sol = solve_bjorling(prob)
    assert sol.report.strip_valid
    ref = corpus.reference_surface(example_id, params)
    from bjorling.verify import compare_to_reference

    us = np.linspace(prob.grid.u_min, prob.grid.u_max, 9)
    vs = np.linspace(sol.report.strip_v_min, sol.report.strip_v_max, 7)
    assert compare_to_reference(sol.surface, ref, us, vs) <= 1e-8


def test_deviation_shrinks_with_order():
    devs = []
    for order in (6, 9, 12):
        doc = corpus.build_problem_dict("heisenberg_vertical_plane", order=order)
        prob = problemfile.problem_from_dict(doc)
        sol = solve_bjorling(prob)
        ref = corpus.reference_surface("heisenberg_vertical_plane")
        from bjorling.verify import compare_to_reference

        devs.append(compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs()))
    assert devs[1] <= devs[0] * 1e-2
    assert devs[2] <= devs[1] * 1e-2


def test_hermitian_sign_matches_curve_character():
    # negative on the timelike-curve problem, positive on spacelike-curve
    # and spacelike-surface problems
    signs = {
        "heisenberg_vertical_plane": -1.0,
        "heisenberg_saddle": -1.0,
        "heisenberg_helicoid": 1.0,
        "desitter_vertical_plane": 1.0,
        "h2xr_horizontal_plane": 1.0,
    }
    for ex, want in signs.items():
        sol = solve_bjorling(_problem(ex))
        assert sol.report.herm_sign_consistent
        assert math.copysign(1.0, sol.report.herm_sign_max) == want
        assert math.copysign(1.0, sol.report.herm_sign_min) == want


def test_field_jet_one_order_short_is_caught_in_the_initial_data():
    prob = _problem("heisenberg_helicoid")
    v1, v2, v3 = prob.normal_field
    short = dataclasses.replace(prob, normal_field=(v1, v2.truncated(prob.order - 1), v3))
    with pytest.raises(ConstraintDrift, match="in the initial data"):
        solve_bjorling(short)
