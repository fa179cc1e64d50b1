import ast
import dataclasses
import math
import re

import numpy as np
import pytest

from bjorling import corpus, groups, problemfile
from bjorling.config import CurveClass, GridSpec, Mode, ProblemKind
from bjorling.errors import (
    CausalMismatch,
    CharacteristicData,
    ConstraintDrift,
    NonIntegrable,
    ProblemValidationError,
    UnsupportedRecipe,
)
from bjorling.groups import (
    de_sitter,
    generic_group,
    h2xr,
    heisenberg,
    lorentz_cross,
    lorentz_dot,
    mat_vec,
)
from bjorling.series import BiSeries, USeries
from bjorling.slices import FrameTape, SkewPad, TapeNode
from bjorling.solver import (
    BjorlingProblem,
    ck_march,
    classify_curve,
    initial_data,
    reconstruct_surface,
    solve_bjorling,
)
from bjorling.verify import compare_to_reference
from kalgebra import (
    KScalar,
    KSeries,
    cone_series,
    frame_jet_from_coords,
    from_univariate_u,
    from_univariate_v,
    zero_series,
)
from oracles import (
    coords_from_frame,
    frame_series,
    frame_stack,
    level_check_ck_march,
    reference_ck_march,
    reference_front_end,
    reference_invariants,
    slice_ck_march,
)

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


def _curve_only(group, curve):
    # classify_curve reads the group, the curve, the grid's u-range (the
    # default [-1, 1]) and the causal tolerance; the field is a placeholder.
    zero, one = USeries.constant(0.0, curve[0].order), USeries.constant(1.0, curve[0].order)
    return BjorlingProblem(group, curve, (zero, one, zero), ProblemKind.TIMELIKE_CURVE)


def test_classify_vertical_plane_curve_timelike():
    prob = _problem("heisenberg_vertical_plane")
    assert classify_curve(prob) is CurveClass.TIMELIKE


def test_classify_helicoid_curve_spacelike():
    prob = _problem("heisenberg_helicoid")
    assert classify_curve(prob) is CurveClass.SPACELIKE


def test_classify_desitter_curve_spacelike():
    prob = _problem("desitter_vertical_plane")
    assert classify_curve(prob) is CurveClass.SPACELIKE


@pytest.mark.parametrize("c", [1e6, 1e12])
def test_classify_timelike_through_large_cancelling_terms(c):
    # The frame velocity cancels terms of size c, yet g = -1 stays far
    # above the rounding bound of those terms.
    prob = _problem("heisenberg_vertical_plane", params={"c": c})
    assert classify_curve(prob) is CurveClass.TIMELIKE


def test_classify_lightlike():
    group = heisenberg()
    n = 9
    curve = (USeries.variable(n), USeries.constant(0.0, n), USeries.variable(n))
    assert classify_curve(_curve_only(group, curve)) is CurveClass.LIGHTLIKE


def test_classify_mixed():
    group = heisenberg()
    n = 9
    # velocity (cosh 2u, 0, sinh 2u + something) crossing causal character:
    # use beta = (u, 0, u^2) so speed^2 = 1 - 4u^2 changes sign on [-1, 1]
    u = USeries.variable(n)
    curve = (u, USeries.constant(0.0, n), u * u)
    got = classify_curve(_curve_only(group, curve))
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
    vel = tuple(USeries(w, prob.center) for w in prob.curve_jets.w)
    cross = lorentz_cross(prob.normal_field, vel)
    half_sign = 0.5 * prob.kind.tangent_sign
    for c in range(3):
        assert np.array_equal(frame0[0, c, :, 0], 0.5 * vel[c].coeffs[: n + 1])
        assert np.array_equal(frame0[1, c, :, 0], half_sign * cross[c].coeffs[: n + 1])

    sol = solve_bjorling(prob)
    assert sol.frame_data.shape == frame0.shape
    assert np.array_equal(sol.frame_data[..., 0], frame0[..., 0])
    # psi1 = 0.5 e^v (sinh u + j cosh u): its real table is the sinh half
    ev = from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = from_univariate_u(USeries.variable(n).sinh(), n)
    cu = from_univariate_u(USeries.variable(n).cosh(), n)
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
    ev = from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = from_univariate_u(USeries.variable(n).sinh(), n)
    cu = from_univariate_u(USeries.variable(n).cosh(), n)
    want = (
        KSeries(0.5 * (ev * su), 0.5 * (ev * cu), P),
        KSeries(zero_series(n), zero_series(n), P),
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
    zero = zero_series(n)
    want = (
        KSeries(BiSeries.constant(2 * c, n), zero, P),
        KSeries(zero, from_univariate_v(-2.0 * qd, n), P),
        KSeries(from_univariate_v(-8.0 * c * q, n), zero, P),
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
    # frame becomes an expression, and A^-1 is the adjugate of A for both, so
    # the frame data, surface tables and report are the built-in's bit for bit.
    prob = _problem(example_id, order=order)
    gen = generic_group(prob.group.C, frame_exprs=_GENERIC_FRAMES[prob.group.name])
    gprob = dataclasses.replace(prob, group=gen)
    want, got = solve_bjorling(prob), solve_bjorling(gprob)
    assert not got.report.failures(gprob.tolerances)
    assert np.array_equal(got.frame_data, want.frame_data)
    for f, g in zip(got.surface, want.surface):
        assert np.array_equal(f.coeffs, g.coeffs)
    assert got.report.as_flat_dict() == want.report.as_flat_dict()


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


# Heisenberg in the chart y = phi(x) = (x1, x2, x3 + x1^2 x2): the built-in
# frame pushed forward by phi, whose entries need products on the tape.
_QUADRATIC_CHART = [
    ["1", "0", "0"],
    ["0", "1", "0"],
    ["2*x1*x2 - x2/2", "x1**2 + x1/2", "1"],
]

_TAPE_GROUPS = {
    "heisenberg": heisenberg,
    "desitter": de_sitter,
    "h2xr": h2xr,
    "heisenberg-generic": lambda: generic_group(
        heisenberg().C, frame_exprs=_GENERIC_FRAMES["heisenberg"]
    ),
    "quadratic-chart": lambda: generic_group(heisenberg().C, frame_exprs=_QUADRATIC_CHART),
    # Products of products: x1*x2*x3 and x1**3 reach depth 2 on the tape.
    "cubic": lambda: generic_group(
        heisenberg().C,
        frame_exprs=[["1", "0", "0"], ["0", "1", "0"], ["1 + x1*x2*x3 - x2/2", "x1**3 + x1/2", "1"]],
    ),
}
# The products A_ij * w_j, one per frame entry that is a tape node, and
# those inside the entries: x1*x1, (2*x1)*x2; and two of each cube.
_TAPE_PRODUCTS = {"desitter": 3, "quadratic-chart": 2 + 2, "cubic": 4 + 2}


@pytest.mark.parametrize("name", list(_TAPE_GROUPS))
def test_tape_columns_match_the_frame_on_the_partly_built_series(name):
    # Column L of every tape node equals column L of the same value made
    # from whole series on f cut to its columns <= L and on the whole w: the
    # product bases by replaying the tape's products as BiSeries products,
    # and the recorded A(x) w by mat_vec over the BiSeries of group.frame
    # itself.  Components with no product base agree bit for bit; the rest
    # agree up to the kernels' summation order.
    group = _TAPE_GROUPS[name]()
    n = 10
    rng = np.random.default_rng(7)
    keep = np.add.outer(np.arange(n + 2), np.arange(n + 2)) <= n + 1
    f = np.where(keep, rng.uniform(-1.0, 1.0, (3, n + 2, n + 2)), 0.0)
    w = np.where(keep[1:, :-1], rng.uniform(-1.0, 1.0, (3, n + 1, n + 1)), 0.0)  # degrees <= n
    tape = FrameTape(group.frame, w, f.shape[1:])
    tape.tables[1:4] = f
    affine = ~tape.outputs[:, 7:].any(axis=1)  # no weight on a product base
    assert len(tape.products) == _TAPE_PRODUCTS.get(name, 2)
    given = tuple(BiSeries(t) for t in w)
    for level in range(n + 1):
        rows = n + 1 - level
        column = tape.column(level, rows)
        partial = tuple(BiSeries(np.where(np.arange(n + 2) <= level, t, 0.0)) for t in f)
        bases = [BiSeries.constant(1.0, n + 1), *partial, *given]
        for left, right in tape.products:
            bases.append(_replay(left, bases) * _replay(right, bases))
        for k, base in enumerate(bases):
            want = base.coeffs[:rows, level]
            assert np.allclose(tape.tables[k, :rows, level], want, rtol=0.0, atol=1e-13), (k, level)
        for got, entry, exact in zip(column, mat_vec(group.frame(partial), given), affine):
            want = (entry if isinstance(entry, BiSeries) else BiSeries.constant(entry, n)).coeffs
            if exact:
                assert np.array_equal(got, want[:rows, level]), level
            else:
                assert np.allclose(got, want[:rows, level], rtol=0.0, atol=1e-13), level


def _replay(terms, bases):
    return sum((w * bases[k] for k, w in terms.items()), 0.0 * bases[0])


def _quadratic_chart_problem(example_id, order):
    # The corpus problem with the curve pushed through phi; the field is in
    # frame components, which phi leaves as they are.
    prob = _problem(example_id, order=order)
    b1, b2, b3 = prob.curve
    group = generic_group(prob.group.C, frame_exprs=_QUADRATIC_CHART)
    return dataclasses.replace(prob, group=group, curve=(b1, b2, b3 + b1 * b1 * b2))


@pytest.mark.parametrize("order", [30, 44])
@pytest.mark.parametrize(
    "example_id", ["heisenberg_vertical_plane", "heisenberg_helicoid", "heisenberg_saddle"]
)
def test_quadratic_chart_matches_the_closed_form_through_the_chart(example_id, order):
    prob = _quadratic_chart_problem(example_id, order)
    sol = solve_bjorling(prob)
    assert sol.report.passes(prob.tolerances), sol.report.failures(prob.tolerances)
    ref = corpus.reference_surface(example_id)

    def phi_ref(u, v):
        x1, x2, x3 = ref(u, v)
        return x1, x2, x3 + x1 * x1 * x2

    dev = compare_to_reference(sol.surface, phi_ref, prob.grid.us(), prob.grid.vs())
    assert dev <= 1e-7


@pytest.mark.parametrize("order", [4, 12, 30, 44])
@pytest.mark.parametrize("name", ["heisenberg", "quadratic-chart"])
def test_rebuild_evaluates_the_frame_twice(name, order):
    # Once on the tape variables, once on the finished surface for the f_v
    # gate, whatever the order.
    prob = _problem("heisenberg_helicoid", order=order)
    if name == "quadratic-chart":
        prob = _quadratic_chart_problem("heisenberg_helicoid", order)
    frame = ck_march(prob.group, initial_data(prob), prob.mode)
    group, calls = prob.group, []
    raw = group.frame
    group.frame = lambda x: calls.append(type(x[0])) or raw(x)
    reconstruct_surface(group, frame, prob.curve, prob.mode)
    assert calls == [TapeNode, BiSeries]


@pytest.mark.parametrize("order", [12, 30])
@pytest.mark.parametrize("example_id", [*corpus.EXAMPLE_IDS, "saddle-chart"])
def test_rebuild_gate_makes_its_products_in_one_call(monkeypatch, example_id, order):
    # Both gates read one evaluation: every product of a frame entry that is
    # a series with a component of r or of w is made by one table_products
    # call; the numbers 0 and 1 make none.
    if example_id == "saddle-chart":
        prob = _quadratic_chart_problem("heisenberg_saddle", order)
    else:
        prob = _problem(example_id, order=order)
    frame = ck_march(prob.group, initial_data(prob), prob.mode)
    calls, real = [], groups.table_products
    monkeypatch.setattr(groups, "table_products", lambda x, y: calls.append(len(x)) or real(x, y))
    reconstruct_surface(prob.group, frame, prob.curve, prob.mode)
    series = {"heisenberg": 2, "desitter": 3, "h2xr": 2, "generic": 2}[prob.group.name]
    assert calls == [2 * series]


@pytest.mark.parametrize("order", [12, 30])
@pytest.mark.parametrize("example_id", [*corpus.EXAMPLE_IDS, "saddle-chart"])
def test_solve_makes_one_skew_buffer_per_loop(monkeypatch, example_id, order):
    # The march keeps one buffer for all its levels, and so does each run of
    # the rebuild's tape: the products A_ij w_j (two in Heisenberg and H2xR,
    # three in de Sitter); the saddle in the quadratic chart has x1*x1 and
    # (2*x1)*x2 in a run before them.  None is made per level.
    if example_id == "saddle-chart":
        prob = _quadratic_chart_problem("heisenberg_saddle", order)
    else:
        prob = _problem(example_id, order=order)
    made, init = [], SkewPad.__init__
    monkeypatch.setattr(SkewPad, "__init__", lambda pad, *args: made.append(args) or init(pad, *args))
    assert solve_bjorling(prob).report.passes(prob.tolerances)
    stages = [2, 2] if example_id == "saddle-chart" else [3 if prob.group.name == "desitter" else 2]
    assert made == [((6, 6), order + 1), *(((size,), order + 2) for size in stages)]


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


def test_nan_frame_data_are_not_integrable():
    # A NaN mismatch is not below the gate's bound: it fails the gate.
    prob = _problem("heisenberg_vertical_plane")
    frame = ck_march(prob.group, initial_data(prob), prob.mode)
    frame[0, 0, 0, 1] = np.nan
    with pytest.raises(NonIntegrable, match="f_u differs .* by nan"):
        reconstruct_surface(prob.group, frame, prob.curve, prob.mode)


@pytest.mark.parametrize("cone_tol", [None, 1e-9])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_march_refuses_a_cone_slice_that_is_not_finite(cone_tol, bad):
    prob = _problem("heisenberg_vertical_plane")
    frame0 = initial_data(prob)
    frame0[1, 2, 0, 0] = bad
    with pytest.raises(ProblemValidationError, match="^the frame data overflow at march level 0$"):
        ck_march(prob.group, frame0, prob.mode, cone_tol=cone_tol)


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
        vel = tuple(USeries(w, prob.center) for w in prob.curve_jets.w)
        from bjorling.groups import lorentz_cross

        cross = lorentz_cross(prob.normal_field, vel)
        cross_coords = coords_from_frame(prob.group, prob.curve, cross)
        sign = prob.kind.tangent_sign * prob.mode.unit_square
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
        x = np.array([f.eval(u, 0.0) for f in sol.surface])
        ainv = prob.group.frame_matrix(x)
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


@pytest.mark.parametrize(
    "grid, message",
    [
        (GridSpec(1.0, -1.0, -0.5, 0.5), "increasing"),
        (GridSpec(-1.0, 1.0, 0.5, 0.5), "increasing"),
        (GridSpec(-1.0, 1.0, -0.5, 0.5, 1, 9), "at least 2 samples"),
    ],
    ids=["u-decreasing", "v-empty", "one-u-sample"],
)
def test_bad_programmatic_grid_is_a_validation_error(grid, message):
    # Problem files stop such grids as SchemaError; a problem built in code
    # reaches BjorlingProblem.validate.
    prob = dataclasses.replace(_problem("heisenberg_vertical_plane"), grid=grid)
    with pytest.raises(ProblemValidationError, match=message):
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


def _random_column_data(rng, count, mode, order):
    # Frame data on v = 0 only: random u-jets.
    def jet():
        return from_univariate_u(USeries(rng.uniform(-0.3, 0.3, order + 1)), order)

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


@pytest.mark.parametrize("order", [12, 30])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_march_matches_the_slice_transcription(example_id, order):
    # The two fixed maps add the same two terms per conj(psi_a) psi_b slice,
    # and the built-in tables put at most two exact (+-1/2, +-1) weights on
    # each G_c: the march is the earlier per-level step bit for bit.
    prob = _problem(example_id, order=order)
    frame0 = initial_data(prob)
    want, _ = slice_ck_march(prob.group, frame0, prob.mode)
    assert np.array_equal(ck_march(prob.group, frame0, prob.mode), want)


@pytest.mark.parametrize("order", [12, 30, 44])
@pytest.mark.parametrize("chart", ["builtin", "generic"])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_march_is_the_level_checked_march_bit_for_bit(example_id, chart, order):
    # The doubled map and the division by s (level+1) after the sum give
    # the bits, zero signs included, of the march that checked each level's
    # drift before it made the next column and multiplied by s.
    prob = _problem(example_id, order=order)
    if chart == "generic":
        prob = dataclasses.replace(
            prob, group=generic_group(prob.group.C, frame_exprs=_GENERIC_FRAMES[prob.group.name])
        )
    frame0 = initial_data(prob)
    want = level_check_ck_march(prob.group, frame0, prob.mode)
    got = ck_march(prob.group, frame0, prob.mode)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("mode", [Mode.PARACOMPLEX, Mode.COMPLEX], ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_march_is_the_level_checked_march_for_any_connection_table(seed, mode):
    # A random table puts many weights on each G_c, so G's rows are sums of
    # many products whose last bits depend on the row's place in the matrix
    # product; half of the tables' entries and of the data are zeros.
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (3, 3, 3)) * (rng.uniform(size=(3, 3, 3)) < 0.5)
    group = generic_group(table - table.transpose(1, 0, 2))
    for order in (3, 12, 30):
        frame0 = np.zeros((2, 3, order + 1, order + 1))
        frame0[..., 0] = rng.uniform(-0.3, 0.3, (2, 3, order + 1)) * (rng.uniform(size=(2, 3, order + 1)) < 0.6)
        want = level_check_ck_march(group, frame0, mode)
        got = ck_march(group, frame0, mode)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), order


# The helicoid's initial data times 1e40 keep to the cone only to roundoff
# of their size: the cone slices read about 2.6e64, 5.7e104, 1.2e145,
# 1.4e185, 1.5e225 and 1.2e265 at levels 0 to 5, and level 6 overflows.
# Times 1e20 they reach about 1.9e258 at level 12 and stay finite.
@pytest.mark.parametrize(
    "scale, cone_tol, error, level",
    [
        (1e40, 1e160, ConstraintDrift, 3),
        (1e40, 1e250, ConstraintDrift, 5),
        (1e40, 1e300, ProblemValidationError, 6),
        (1e40, None, ProblemValidationError, 6),
        (1e20, None, None, None),
    ],
)
def test_march_reads_the_drift_after_its_levels_as_the_level_check_did(scale, cone_tol, error, level):
    # The first level over the tolerance is named although a later level
    # overflows; an overflow before any drift is named as an overflow; with
    # no tolerance only an overflow raises.
    prob = _problem("heisenberg_helicoid", order=12)
    frame0 = initial_data(prob) * scale
    if error is None:
        want = level_check_ck_march(prob.group, frame0, prob.mode, cone_tol)
        got = ck_march(prob.group, frame0, prob.mode, cone_tol=cone_tol)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        return
    with pytest.raises(error, match=f"at march level {level}( |$)") as want:
        level_check_ck_march(prob.group, frame0, prob.mode, cone_tol)
    with pytest.raises(error) as got:
        ck_march(prob.group, frame0, prob.mode, cone_tol=cone_tol)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", [Mode.PARACOMPLEX, Mode.COMPLEX], ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [1, 2])
def test_march_stops_where_the_slice_transcription_drifts(seed, mode):
    # Random connection tables do not keep the cone, so its drift grows
    # level by level; the march must stop at the first level the
    # transcription puts over the tolerance.
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (3, 3, 3))
    group = generic_group(table - table.transpose(1, 0, 2))
    frame0 = frame_stack(_random_column_data(rng, 3, mode, 12))
    want, drifts = slice_ck_march(group, frame0, mode)
    got = ck_march(group, frame0, mode)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for level in range(1, len(drifts)):
        tol = 0.5 * (max(drifts[:level]) + drifts[level])
        if drifts[level] > max(drifts[:level]) * (1.0 + 1e-9):
            with pytest.raises(ConstraintDrift, match=f"at march level {level} "):
                ck_march(group, frame0, mode, cone_tol=tol)


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
    vel = frame_jet_from_coords(group, curve, tuple(c.deriv() for c in curve))
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
    vel = frame_jet_from_coords(group, curve, tuple(c.deriv() for c in curve))
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


# ---------------------------------------------------------------------------
# the checks before the march, on stacked jets


def _generic_twin(prob):
    gen = generic_group(prob.group.C, frame_exprs=_GENERIC_FRAMES[prob.group.name])
    return dataclasses.replace(prob, group=gen)


def _assert_invariant_bits(prob):
    # g(w, w), which classify_curve reads in table row 0, and g(V, V) and
    # g(w, V), which validate reads, have the bits of lorentz_dot on USeries.
    jets = prob.curve_jets
    want = reference_invariants(prob)
    got = (jets.table[0, : jets.w_square.size], jets.w_square, jets.field_square, jets.w_dot_field)
    for g, w in zip(got, want[:1] + want):
        assert g.tobytes() == w.coeffs.tobytes()
    assert not jets.table[0, jets.w_square.size :].any()


def _assert_front_end_bits(prob):
    # classify_curve and initial_data read the problem's jets as coefficient
    # arrays; the USeries jets they replaced give the same class and the
    # same bits, the signs of zeros included.
    want_class, want = reference_front_end(prob)
    _assert_invariant_bits(prob)
    prob.validate()
    got = initial_data(prob)
    assert want_class is not None
    assert classify_curve(prob) is want_class
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("order", [2, 12, 30, 48])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_front_end_keeps_the_bits_of_useries_jets(example_id, order, twin):
    prob = _problem(example_id, order=order)
    _assert_front_end_bits(_generic_twin(prob) if twin else prob)


@pytest.mark.parametrize("order", [2, 12, 30])
def test_front_end_keeps_the_bits_with_a_short_coefficient_field(order):
    # The vertical plane's field as coefficient lists, V[0] and V[2] one
    # order shorter than the curve and V[1] as long: every product is made
    # at the lower order of its factors.
    n = order
    field = [{"coeffs": [0.0] * (n + 1)}, {"coeffs": [1.0] + [0.0] * (n + 1)}, {"coeffs": [-0.0] * (n + 1)}]
    prob = _problem("heisenberg_vertical_plane", order=order, V=field)
    assert [v.order for v in prob.normal_field] == [n, n + 1, n]
    _assert_front_end_bits(prob)
    _assert_front_end_bits(_generic_twin(prob))


@pytest.mark.parametrize("order", [2, 12])
def test_front_end_keeps_the_bits_of_the_helicoid_at_b_zero(order):
    _assert_front_end_bits(_problem("heisenberg_helicoid", {"b": 0.0}, order=order))


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("name", ["heisenberg", "desitter", "h2xr", "quadratic-chart"])
def test_front_end_keeps_the_bits_on_random_jets_of_mixed_orders(name, kind):
    # Random curve and field jets, each of its own order, some below the
    # problem's: every product, sum and difference at the lower order of its
    # operands, in the operand order of the USeries operations, and a row
    # shorter than the initial data's column leaves its zeros alone.  The
    # data need not satisfy the invariants: only the class (or the refusal)
    # and the initial data are compared.
    rng = np.random.default_rng([len(name), len(kind.value)])
    n = 12
    curve = tuple(USeries(rng.uniform(0.5, 1.5, n + 2 - k), 0.25) for k in (0, 1, 0))
    field = tuple(USeries(rng.uniform(-1.0, 1.0, size), 0.25) for size in (n + 1, n - 2, n + 2))
    group = generic_group(heisenberg().C, _QUADRATIC_CHART) if name == "quadratic-chart" else groups.by_name(name)
    prob = BjorlingProblem(group, curve, field, kind, order=n)
    _assert_invariant_bits(prob)
    want_class, want = reference_front_end(prob)
    if want_class is None:
        with pytest.raises(ProblemValidationError, match="lost to rounding"):
            classify_curve(prob)
    else:
        assert classify_curve(prob) is want_class
    assert initial_data(prob).tobytes() == want.tobytes()


def test_curve_jets_are_made_once_per_problem():
    prob = _problem("desitter_vertical_plane")
    jets = prob.curve_jets
    prob.validate()
    classify_curve(prob)
    initial_data(prob)
    assert prob.curve_jets is jets
    want = groups.mat_vec(prob.coframe_jets, prob.curve_velocity())
    assert [np.array_equal(w.coeffs, row) for w, row in zip(want, jets.w)] == [True] * 3


@pytest.mark.parametrize("reader", [classify_curve, initial_data])
def test_curve_jets_refuse_a_field_about_another_center(reader):
    # The readers of the stacked jets refuse a field centred away from the
    # curve, as validate does, without validate having run.
    prob = _problem("heisenberg_helicoid")
    shifted = tuple(USeries(v.coeffs, prob.center + 0.5) for v in prob.normal_field)
    prob = dataclasses.replace(prob, normal_field=shifted)
    with pytest.raises(ProblemValidationError, match="must share a center"):
        reader(prob)
