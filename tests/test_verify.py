import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

import bjorling
from bjorling import corpus, problemfile, verify
from bjorling.config import GridSpec, Mode, ProblemKind
from bjorling.errors import DomainError
from bjorling.groups import GroupModel, de_sitter, generic_group, h2xr, heisenberg
from bjorling.series import BiSeries, USeries, grid_values
from bjorling.solver import ck_march, solve_bjorling
from bjorling.verify import (
    boundary_residuals,
    compare_to_reference,
    conformality_defect,
    frame_components,
    grid_certificates,
    hermitian_sign_profile,
    weierstrass_residuals,
)
from kalgebra import (
    KScalar,
    KSeries,
    cone_series,
    from_univariate_u,
    from_univariate_v,
    graph_identity_residual,
    variable_u,
    variable_v,
    zero_series,
)
from oracles import (
    GENERIC_FRAMES,
    exact_tension_residual,
    frame_series,
    frame_stack,
    reference_build_mesh,
    reference_cone_lift,
    reference_conformality_residual,
    reference_tension_residual,
    reference_weierstrass_residuals,
    reference_write_csv,
    reference_write_obj,
    univariate_coeffs,
)

P = Mode.PARACOMPLEX


def _problem(example_id, params=None):
    return problemfile.problem_from_dict(corpus.build_problem_dict(example_id, params))


def _solved(example_id, params=None):
    return solve_bjorling(_problem(example_id, params))


def _certificates(group, surface, sigma, us, vs):
    return grid_certificates(group, grid_values(verify.report_tables(surface)[:5], surface[0].center, us, vs), sigma)


def _boundary(group, surface, curve, field, us):
    # The field's jets evaluated with the surface's, as the report does.
    tables = verify.report_tables(surface, field=field)[[0, 1, 2, -1]]
    return boundary_residuals(group, surface, curve, us, grid_values(tables, surface[0].center, us, [0.0])[..., 0])


# ---------------------------------------------------------------------------
# frame-level residuals


def test_weierstrass_residuals_on_exponential_solution():
    n = 12
    ev = from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = from_univariate_u(USeries.variable(n).sinh(), n)
    cu = from_univariate_u(USeries.variable(n).cosh(), n)
    psi = (
        KSeries(0.5 * (ev * su), 0.5 * (ev * cu), P),
        KSeries(zero_series(n), zero_series(n), P),
        KSeries(0.5 * (ev * cu), 0.5 * (ev * su), P),
    )
    cone, pde = weierstrass_residuals(heisenberg(), frame_stack(psi), P)
    assert cone <= 1e-12
    assert pde <= 1e-12


def test_weierstrass_residuals_on_constants():
    n = 6
    mk = lambda r: KSeries.constant(KScalar(r, 0.0, P), n, 0.0)
    cone, pde = weierstrass_residuals(heisenberg(), frame_stack((mk(1.0), mk(0.0), mk(1.0))), P)
    assert cone == 0.0
    assert pde == pytest.approx(1.0)  # second equation picks up Re(conj(p3) p1)

    cone2, _ = weierstrass_residuals(heisenberg(), frame_stack((mk(1.0), mk(1.0), mk(1.0))), P)
    assert cone2 == pytest.approx(1.0)


def _solved_frame(example_id, order):
    doc = corpus.build_problem_dict(example_id, order=order)
    problem = problemfile.problem_from_dict(doc)
    return problem, solve_bjorling(problem).frame_data


@pytest.mark.parametrize("order", [12, 30, 44])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_weierstrass_matches_full_product_reference(example_id, order):
    problem, frame = _solved_frame(example_id, order)
    got = weierstrass_residuals(problem.group, frame, problem.mode)
    psi = frame_series(frame, problem.center, problem.mode)
    want = reference_weierstrass_residuals(problem.group, psi)
    scale = max(1.0, float(np.max(np.abs(frame)))) ** 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * scale


# psi2 vanishes identically on the two vertical planes, so these are the
# examples with a psi2 coefficient to perturb.
@pytest.mark.parametrize("order", [12, 30, 44])
@pytest.mark.parametrize(
    "example_id",
    [
        "heisenberg_helicoid",
        "heisenberg_saddle",
        "desitter_diagonal_plane",
        "h2xr_horizontal_plane",
    ],
)
def test_weierstrass_flags_one_perturbed_psi2_coefficient(example_id, order):
    problem, frame = _solved_frame(example_id, order)
    tol = problem.tolerances.series
    assert weierstrass_residuals(problem.group, frame, problem.mode)[1] <= tol
    probe = frame.copy()
    table = probe[:, 1]  # a view: the (re, unit) tables of psi2
    table[np.unravel_index(np.argmax(np.abs(table)), table.shape)] *= 1.0 + 1e-6
    assert weierstrass_residuals(problem.group, probe, problem.mode)[1] > tol


def test_weierstrass_certificate_shares_no_code_with_the_march():
    # The certificate builds its own weights from gamma, so a slip in the
    # march's maps or slice kernel shows up as a residual instead of being
    # repeated by it.
    tree = ast.parse(Path(verify.__file__).read_text())
    nodes = list(ast.walk(tree))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
    assert not {m for m in modules if m and m.split(".")[-1] in ("slices", "solver")}
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {a.name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not names & {"_march_maps", "slice_products"}


# ---------------------------------------------------------------------------
# conformality


def test_conformality_of_vertical_plane():
    sol = _solved("heisenberg_vertical_plane")
    us = np.linspace(-0.5, 0.5, 9)
    vs = np.linspace(-0.5, 0.5, 9)
    res = _certificates(sol.group, sol.surface, 1.0, us, vs)[0]
    assert res <= 1e-9


def test_conformality_of_spacelike_plane():
    sol = _solved("h2xr_horizontal_plane")
    us = np.linspace(math.pi / 4, 3 * math.pi / 4, 9)
    vs = np.linspace(-0.5, 0.5, 9)
    res = _certificates(sol.group, sol.surface, -1.0, us, vs)[0]
    assert res <= 1e-9


def test_conformality_detects_anisotropic_scaling():
    n = 8
    center = 0.0
    # f(u, v) = (u, 2v + 3, 0) in the halfplane chart x2 > 0
    f = (
        variable_u(n, center),
        2.0 * variable_v(n, center) + 3.0,
        zero_series(n, center),
    )
    res = _certificates(h2xr(), f, -1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))[0]
    assert res > 0.1


def test_conformality_raises_outside_chart():
    n = 6
    f = (
        variable_u(n),
        variable_v(n),  # x2 = v crosses zero
        zero_series(n),
    )
    with pytest.raises(DomainError):
        _certificates(h2xr(), f, -1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))


# ---------------------------------------------------------------------------
# boundary data


def test_normal_matches_field_on_vertical_plane():
    sol = _solved("heisenberg_vertical_plane")
    prob = _problem("heisenberg_vertical_plane")
    curve_res, normal_res, flipped = _boundary(
        sol.group, sol.surface, prob.curve, prob.normal_field, np.linspace(-1, 1, 9)
    )
    assert curve_res <= 1e-12
    assert normal_res <= 1e-9
    assert not flipped


def test_normal_matches_field_on_helicoid_and_saddle():
    for ex in ("heisenberg_helicoid", "heisenberg_saddle"):
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        us = np.linspace(prob.grid.u_min, prob.grid.u_max, 9)
        curve_res, normal_res, flipped = _boundary(
            sol.group, sol.surface, prob.curve, prob.normal_field, us
        )
        assert curve_res <= 1e-10
        assert normal_res <= 1e-8
        assert not flipped


def test_orientation_flip_is_flagged_not_failed():
    prob = _problem("heisenberg_vertical_plane")
    sol = solve_bjorling(prob)
    flipped_field = tuple(-1.0 * w for w in prob.normal_field)
    _, normal_res, flipped = _boundary(
        sol.group, sol.surface, prob.curve, flipped_field, np.linspace(-1, 1, 5)
    )
    assert flipped
    assert normal_res <= 1e-9


def test_degenerate_normal_raises():
    from bjorling.errors import DegenerateFrame

    n = 5
    # f_u and f_v are parallel everywhere, so the normal vanishes
    surface = (
        variable_u(n) + variable_v(n),
        BiSeries.constant(1.0, n),
        zero_series(n),
    )
    curve = tuple(USeries.constant(0.0, n + 1) for _ in range(3))
    field = (USeries.constant(0.0, n + 1), USeries.constant(0.0, n + 1), USeries.constant(1.0, n + 1))
    with pytest.raises(DegenerateFrame):
        _boundary(h2xr(), surface, curve, field, [0.1, 0.2])


# ---------------------------------------------------------------------------
# tension (independent minimality certificate)


def _outer(u_coeffs, v_coeffs):
    # The Taylor series about (0, 0) of a(u) b(v), cut at total degree.
    return BiSeries(np.outer(u_coeffs, v_coeffs))


def _exp_v(order, sign=1.0):
    # Coefficients of exp(sign v).
    return univariate_coeffs("exp", 0.0, order) * sign ** np.arange(order + 1)


def test_tension_small_on_closed_form_vertical_plane():
    # (exp(v) cosh(u), c, exp(v) (-(c/2) cosh(u) + sinh(u))), c = 1, from
    # the factorial formulas, not from the solver.
    n = 30
    ch, sh, ev = univariate_coeffs("cosh", 0.0, n), univariate_coeffs("sinh", 0.0, n), _exp_v(n)
    surface = (_outer(ch, ev), BiSeries.constant(1.0, n), _outer(sh - 0.5 * ch, ev))
    grid = np.linspace(-0.5, 0.5, 5)
    assert _certificates(heisenberg(), surface, 1.0, grid, grid)[1] <= 1e-12


def test_tension_small_on_closed_form_desitter():
    # (exp(-v) sinh(u), c, exp(-v) cosh(u)), c = 1
    n = 30
    ch, sh = univariate_coeffs("cosh", 0.0, n), univariate_coeffs("sinh", 0.0, n)
    surface = (_outer(sh, _exp_v(n, -1.0)), BiSeries.constant(1.0, n), _outer(ch, _exp_v(n, -1.0)))
    res = _certificates(
        de_sitter(), surface, 1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.4, 0.4, 5)
    )[1]
    assert res <= 1e-12
    # A surface that is not minimal: the same plane with x1 scaled by 1.1.
    scaled = (surface[0] * 1.1,) + surface[1:]
    assert _certificates(de_sitter(), scaled, 1.0, [0.3], [0.2])[1] > 1e-2


def test_tension_shrinks_quadratically_on_helicoid():
    # The finite-difference oracle on the closed form is O(h^2).
    ref = corpus.reference_surface("heisenberg_helicoid")
    fn = lambda u, v: np.array(ref(u, v))
    us = np.linspace(-0.25, 0.25, 5)
    vs = np.linspace(-0.4, 0.4, 5)
    r1 = reference_tension_residual(heisenberg(), fn, 1.0, us, vs, step=4e-3)
    r2 = reference_tension_residual(heisenberg(), fn, 1.0, us, vs, step=2e-3)
    assert r2 <= 0.35 * r1 + 1e-9


def _plane_probe():
    # (u, 1, v + 1): exact as an order-2 series triple.
    return variable_u(2), zero_series(2) + 1.0, variable_v(2) + 1.0


def test_tension_flags_non_minimal_probe():
    # the plane x2 = c parametrized by (u, c, v + 1) in the de Sitter chart
    # is a conformal timelike minimal surface, so the timelike operator is
    # silent on it; under the spacelike operator it is far from minimal
    probe = _plane_probe()
    us = np.linspace(-0.3, 0.3, 5)
    vs = np.linspace(-0.3, 0.3, 5)
    res = _certificates(de_sitter(), probe, -1.0, us, vs)[1]
    assert res > 0.1
    res_wave = _certificates(de_sitter(), probe, 1.0, us, vs)[1]
    assert res_wave <= 1e-12


def test_tension_with_exact_christoffel_oracle():
    # The same probe, one point at a time with the symbolic Christoffel
    # symbols and metric: the library's figures, to rounding.
    probe = _plane_probe()
    us = np.linspace(-0.3, 0.3, 5)
    vs = np.linspace(-0.3, 0.3, 5)
    for sigma in (-1.0, 1.0):
        want = exact_tension_residual("desitter", probe, sigma, us, vs)
        got = _certificates(de_sitter(), probe, sigma, us, vs)[1]
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert want <= 1e-12 < 0.1 < exact_tension_residual("desitter", probe, -1.0, us, vs)


# ---------------------------------------------------------------------------
# closed-form comparison


def test_compare_to_reference_all_examples():
    budgets = {
        "heisenberg_vertical_plane": 1e-8,
        "heisenberg_helicoid": 1e-7,
        "heisenberg_saddle": 1e-8,
        "desitter_vertical_plane": 1e-8,
        "desitter_diagonal_plane": 1e-8,
        "h2xr_horizontal_plane": 1e-8,
    }
    for ex, budget in budgets.items():
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        ref = corpus.reference_surface(ex)
        res = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
        assert res <= budget, (ex, res)


def test_saddle_graph_identity():
    prob = _problem("heisenberg_saddle")
    sol = solve_bjorling(prob)
    res = graph_identity_residual(
        sol.surface,
        lambda x1, x2, x3: x3 - 0.5 * x1 * x2,
        prob.grid.us(),
        prob.grid.vs(),
    )
    assert res <= 1e-8


# ---------------------------------------------------------------------------
# whole-grid certificates and mesh against per-point references


def _assert_mesh_matches_reference(stored):
    mesh = problemfile.build_mesh(stored)
    vertices, uv, residual, faces, clipped = reference_build_mesh(stored)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.uv, uv)
    assert mesh.faces.shape == (len(faces), 4)
    assert np.array_equal(mesh.faces, np.reshape(faces, (-1, 4)))
    assert mesh.clipped == clipped
    scale = max(1.0, float(np.max(np.abs(vertices), initial=0.0)) ** 2)
    assert mesh.residual.shape == residual.shape
    assert np.max(np.abs(mesh.residual - residual), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_grid_code_matches_per_point_reference(example_id):
    prob = _problem(example_id)
    sol = solve_bjorling(prob)
    us = prob.grid.coarse().us()
    vs = np.linspace(sol.report.strip_v_min, sol.report.strip_v_max, prob.grid.coarse().nv)
    sigma = prob.kind.sigma

    conf, tension = _certificates(sol.group, sol.surface, sigma, us, vs)
    want = reference_conformality_residual(sol.group, sol.surface, sigma, us, vs)
    scale = max(1.0, max(float(np.max(np.abs(f.eval_grid(us, vs)))) for f in sol.surface) ** 2)
    assert abs(conf - want) <= 1e-12 * scale
    want = exact_tension_residual(sol.group.name, sol.surface, sigma, us, vs)
    assert abs(tension - want) <= 1e-12 * scale

    stored = problemfile.StoredSolution(sol.group, sol.kind, sol.surface, prob.grid, {})
    _assert_mesh_matches_reference(stored)

    # On the report's own grid the mesh's per-vertex residual is the defect
    # whose max the report holds, from the report's evaluation and chart call.
    strip = GridSpec(us[0], us[-1], vs[0], vs[-1], len(us), len(vs))
    mesh = problemfile.build_mesh(problemfile.StoredSolution(sol.group, sol.kind, sol.surface, strip, {}))
    grids = grid_values(verify.report_tables(sol.surface)[:5], sol.surface[0].center, us, vs)
    ainv = sol.group.christoffels(grids[0])[1]
    defect = conformality_defect(*frame_components(ainv, grids[1], grids[2]), sigma)
    assert np.array_equal(mesh.residual, defect.ravel())
    assert np.max(mesh.residual) == sol.report.conformality_residual


def _assert_mesh_defect_is_the_dense_one(stored):
    # The mesh's per-vertex residual, from the coframe nest, is the defect
    # of frame_components on the dense A^-1 stack at the grid points inside
    # the chart, bit for bit.
    us, vs = stored.grid.us(), stored.grid.vs()
    x, fu, fv = grid_values(verify.report_tables(stored.surface)[:3], stored.surface[0].center, us, vs)
    inside = stored.group.chart_mask(x)
    ainv = stored.group.frame_matrix(x[:, inside])
    defect = conformality_defect(*frame_components(ainv, fu[:, inside], fv[:, inside]), stored.kind.sigma)
    mesh = problemfile.build_mesh(stored)
    assert mesh.residual.tobytes() == defect.tobytes()
    return mesh


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_mesh_defect_is_the_dense_one_on_the_mesh_grid(example_id, twin):
    # On the problem's whole grid, for the built-in group and for the same
    # frame declared as a generic group (whose coframe entries are evaluated
    # expressions).
    prob = _problem(example_id)
    sol = solve_bjorling(prob)
    group = generic_group(sol.group.C, frame_exprs=GENERIC_FRAMES[sol.group.name]) if twin else sol.group
    _assert_mesh_defect_is_the_dense_one(problemfile.StoredSolution(group, sol.kind, sol.surface, prob.grid, {}))


def test_clipped_mesh_defect_is_the_dense_one():
    n = 6
    surface = (
        variable_u(n) + 0.3 * variable_v(n) * variable_u(n),
        variable_v(n) + 0.5,
        variable_u(n) * variable_v(n),
    )
    stored = problemfile.StoredSolution(
        h2xr(), ProblemKind.SPACELIKE_SURFACE, surface, GridSpec(-0.5, 0.5, -1.0, 1.0, 7, 13), {}
    )
    assert _assert_mesh_defect_is_the_dense_one(stored).clipped > 0


def test_certificates_make_few_frame_matrix_calls(monkeypatch):
    # A report evaluates one stack of tables in u: f, f_u, f_v, f_uu, f_vv
    # and the frame data's (re, unit) tables.  The boundary check reads its
    # v = 0 column and makes the solve's one frame-matrix call.  Each strip
    # attempt makes one product with its own powers of v and one chart call:
    # the Christoffel symbols, whose one real coframe call gives both
    # certificates Ainv and whose one complex frame call (the points and
    # their three steps at once) gives d A.
    calls = {"frame_matrix": [], "christoffels": [], "u_rows": [], "v_product": []}

    def counted(owner, name):
        raw = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(GroupModel, "frame_matrix")
    counted(GroupModel, "christoffels")
    counted(verify, "u_rows")
    counted(verify, "v_product")
    for example_id in corpus.EXAMPLE_IDS:
        prob, complex_calls, coframe_calls = _problem(example_id), [], []
        raw_frame, raw_coframe = prob.group.frame, prob.group.coframe
        prob.group.frame = lambda x: complex_calls.append(np.iscomplexobj(x)) or raw_frame(x)
        prob.group.coframe = lambda x: coframe_calls.append(type(x[0])) or raw_coframe(x)
        for made in calls.values():
            made.clear()
        sol = solve_bjorling(prob)
        attempts = sol.report.strip_halvings + 1
        counts = {name: len(made) for name, made in calls.items()}
        want = {"frame_matrix": 1, "christoffels": attempts, "u_rows": 1, "v_product": attempts}
        assert counts == want, (example_id, counts)
        n1 = sol.order + 2  # the rebuilt surface is one order above the frame data
        # f and its four derivatives, the frame data's (re, unit) and the field.
        assert calls["u_rows"][0][0].shape == (8, 3, n1, n1), example_id
        assert complex_calls.count(True) == attempts, (example_id, complex_calls)
        # The curve's jets, the boundary row, then one per attempt.
        assert coframe_calls == [USeries] + [np.ndarray] * (1 + attempts), (example_id, coframe_calls)


def test_certificates_share_one_frame_components_call(monkeypatch):
    # Each strip attempt turns the tangents of its one v-product into frame
    # components once and hands the same two arrays to both certificates,
    # and the tension reads the points and partials of that same product.
    # The tension's conformal factor is read from the components: its only
    # einsums are the two Christoffel contractions, and it forms no
    # coordinate metric.
    components, products, conformality, tension, subscripts = [], [], [], [], []
    raw_components, raw_product, raw_einsum = verify.frame_components, verify.v_product, np.einsum
    raw_conformality, raw_tension = verify.conformality_residual, verify.tension_residual

    def spy_components(ainv, *vectors):
        components.append(raw_components(ainv, *vectors))
        return components[-1]

    def spy_product(rows, vs):
        products.append(raw_product(rows, vs))
        return products[-1]

    def spy_conformality(*args):
        conformality.append(args)
        return raw_conformality(*args)

    def spy_tension(*args):
        tension.append(args)
        subscripts.append([])
        return raw_tension(*args)

    def spy_einsum(spec, *operands, **kwargs):
        if subscripts:
            subscripts[-1].append(spec)
        return raw_einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(verify, "frame_components", spy_components)
    monkeypatch.setattr(verify, "v_product", spy_product)
    monkeypatch.setattr(verify, "conformality_residual", spy_conformality)
    monkeypatch.setattr(verify, "tension_residual", spy_tension)
    monkeypatch.setattr(np, "einsum", spy_einsum)
    for example_id in corpus.EXAMPLE_IDS:
        for made in (components, products, conformality, tension, subscripts):
            made.clear()
        attempts = _solved(example_id).report.strip_halvings + 1
        # The boundary's v = 0 row, then one call per attempt.
        assert len(components) == 1 + attempts, example_id
        assert len(products) == len(conformality) == len(tension) == attempts, example_id
        for (vec_u, vec_v), values, conf_args, tension_args in zip(
            components[1:], products, conformality, tension
        ):
            assert conf_args[0] is vec_u and conf_args[1] is vec_v
            assert tension_args[2] is vec_u and tension_args[3] is vec_v
            assert tension_args[1].base is values and tension_args[1].shape[0] == 5
        assert subscripts == [["kij...,i...,j...->k..."] * 2] * attempts, (example_id, subscripts)


@pytest.mark.parametrize("order", [12, 30])
@pytest.mark.parametrize("example_id", corpus.EXAMPLE_IDS)
def test_report_values_equal_grid_values_of_each_table(example_id, order):
    # The report evaluates one stack once in u and reads column 0 for v = 0.
    # Its normal residual and Hermitian range are, bit for bit, those of
    # ``grid_values`` of the same zero-padded tables: the surface's tangents
    # at v = 0, and the frame data on the validated strip.  The frame data
    # evaluated unpadded agree bit for bit under OpenBLAS's SkylakeX and
    # Nehalem kernels.  Under its Haswell, Zen and Prescott kernels the
    # padding's zero term regroups the sums (herm_sign_min of the diagonal
    # de Sitter plane at order 30 moves by 1 ulp), so there that comparison
    # allows roundoff.
    prob = problemfile.problem_from_dict(corpus.build_problem_dict(example_id, order=order))
    sol = solve_bjorling(prob)
    report, center = sol.report, sol.center
    assert report.strip_valid, example_id
    grid = prob.grid.coarse()
    us = grid.us()
    tables = verify.report_tables(sol.surface, sol.frame_data, prob.normal_field)
    row = grid_values(tables[[0, 1, 2, -1]], center, us, [0.0])[..., 0]
    normal = boundary_residuals(sol.group, sol.surface, prob.curve, us, row)
    assert normal == (report.boundary_curve_residual, report.normal_residual, report.orientation_flipped)
    vs = grid.scaled_v(0.5**report.strip_halvings).vs()
    padded = verify.report_tables(sol.surface, sol.frame_data)[5:]
    sign = hermitian_sign_profile(grid_values(padded, center, us, vs), prob.mode)
    assert sign == (report.herm_sign_min, report.herm_sign_max)
    alone = hermitian_sign_profile(grid_values(sol.frame_data, center, us, vs), prob.mode)
    assert np.allclose(alone, sign, rtol=1e-14, atol=0.0), (alone, sign)


def test_solve_converts_the_frame_velocity_once():
    # validate, classify_curve and initial_data all read one evaluation of
    # the coframe along the curve; the certificates' grid calls are not jets.
    for example_id in corpus.EXAMPLE_IDS:
        prob, calls = _problem(example_id), []
        raw = prob.group.coframe
        prob.group.coframe = lambda x: calls.append(type(x[0])) or raw(x)
        solve_bjorling(prob)
        assert calls.count(USeries) == 1, (example_id, calls)


def test_verify_imports_without_the_solver():
    # The certificates stand apart from the code that made the data: verify,
    # loaded without the package's own imports, loads no solver.
    path = str(Path(bjorling.__file__).parent)
    script = f"""import sys, types
sys.modules['bjorling'] = pkg = types.ModuleType('bjorling')
pkg.__path__ = [{path!r}]
import bjorling.verify
print(sorted(m for m in sys.modules if m.startswith('bjorling.')))"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    loaded = run.stdout
    assert "'bjorling.verify'" in loaded and "'bjorling.solver'" not in loaded, loaded


def test_clipped_mesh_matches_per_point_reference():
    # x2 = v + 0.5 leaves the halfplane chart for v <= -0.5
    n = 6
    surface = (
        variable_u(n) + 0.3 * variable_v(n) * variable_u(n),
        variable_v(n) + 0.5,
        variable_u(n) * variable_u(n),
    )
    stored = problemfile.StoredSolution(
        h2xr(), ProblemKind.SPACELIKE_SURFACE, surface, GridSpec(-0.5, 0.5, -1.0, 1.0, 7, 13), {}
    )
    assert problemfile.build_mesh(stored).clipped > 0
    _assert_mesh_matches_reference(stored)


def _significant_digits(token: str) -> str:
    return token.lower().lstrip("-").split("e")[0].replace(".", "").strip("0")


def _assert_same_numbers(got: str, want: str) -> None:
    # The reference writes %.17g and the writers shortest round-trip text:
    # the same lines, prefixes and header, and every number reads back to
    # the same double with the digits of repr.  Only in [1e-5, 1e-4), where
    # repr switches to an exponent and the writers do not, is a token longer
    # than repr, by at most the two characters of "0.0000x" against "x.e-05".
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        got_tokens, want_tokens = re.split("[ ,]", got_line), re.split("[ ,]", want_line)
        assert len(got_tokens) == len(want_tokens), (got_line, want_line)
        for token, reference in zip(got_tokens, want_tokens):
            try:
                value = float(reference)
            except ValueError:  # a line prefix, a header name or the empty line
                assert token == reference
                continue
            assert float(token) == value and np.signbit(float(token)) == np.signbit(value)
            shortest = repr(value)
            assert _significant_digits(token) == _significant_digits(shortest), (token, shortest)
            assert len(token) <= len(shortest) + 2 * (1e-5 <= abs(value) < 1e-4), (token, shortest)


def _edge_meshes():
    values = np.array(
        [[-0.0, 1e16, 5e-324], [1.0, -2.5e-310, 3.502247957735549e-05], [0.1, 1e-7, -1e300]]
    )
    uv = np.array([[0.0, -0.0], [1e16, 1.0], [-3.5e-05, 5e-324]])
    no_faces = np.zeros((0, 4), dtype=int)
    return [
        problemfile.SurfaceMesh(values, uv, values[:, 0].copy(), np.array([[0, 1, 2, 1]]), 0),
        problemfile.SurfaceMesh(values, uv, values[:, 1].copy(), no_faces, 0),
        problemfile.SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0), no_faces, 9),
    ]


def test_mesh_writers_match_line_by_line_reference(tmp_path):
    sol = _solved("heisenberg_vertical_plane")
    full = problemfile.build_mesh(sol)
    n = 6
    clipped = problemfile.build_mesh(
        problemfile.StoredSolution(
            h2xr(),
            ProblemKind.SPACELIKE_SURFACE,
            (
                variable_u(n) + 0.3 * variable_v(n) * variable_u(n),
                variable_v(n) + 0.5,
                variable_u(n) * variable_u(n),
            ),
            GridSpec(-0.5, 0.5, -1.0, 1.0, 7, 13),
            {},
        )
    )
    assert clipped.clipped > 0
    for mesh in [full, clipped, *_edge_meshes()]:
        for write, reference in (
            (problemfile.write_obj, reference_write_obj),
            (problemfile.write_csv, reference_write_csv),
        ):
            write(mesh, tmp_path / "got")
            reference(mesh, tmp_path / "want")
            _assert_same_numbers((tmp_path / "got").read_text(), (tmp_path / "want").read_text())


def test_mesh_writers_use_shortest_round_trip_text(tmp_path):
    with_faces, no_faces, empty = _edge_meshes()
    problemfile.write_obj(with_faces, tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_text().splitlines() == [
        "v -0.0 1e16 5e-324",
        "v 1.0 -2.5e-310 0.00003502247957735549",
        "v 0.1 1e-7 -1e300",
        "f 1 2 3 2",
    ]
    problemfile.write_obj(no_faces, tmp_path / "n.obj")
    assert (tmp_path / "n.obj").read_text().count("\n") == 3
    problemfile.write_obj(empty, tmp_path / "e.obj")
    assert (tmp_path / "e.obj").read_text() == "\n"
    problemfile.write_csv(empty, tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_text() == "u,v,x1,x2,x3,residual\n"


def test_line_writer_lays_out_empty_and_one_column_tables():
    lines = problemfile._lines
    assert lines(b"v ", np.zeros((0, 3)), b" ") == b""
    assert lines(b"", np.zeros((0, 1)), b",") == b""
    assert lines(b"r ", np.array([[1.5], [-0.0], [1e-7]]), b" ") == b"r 1.5\nr -0.0\nr 1e-7\n"
    assert lines(b"", np.array([[3], [10]]), b",") == b"3\n10\n"
    assert lines(b"f ", np.array([[1, 2, 3, 4]]), b" ") == b"f 1 2 3 4\n"
    assert lines(b"", np.array([[0.5, -2.0], [1e16, 5e-324]]), b",") == b"0.5,-2.0\n1e16,5e-324\n"


def _seventeen_digit_floats(rng, count):
    # Doubles whose shortest round-trip text has 17 significant digits and no
    # exponent, so the reference writers' %.17g prints the writers' bytes.
    draws = rng.uniform(-1000.0, 1000.0, 4 * count + 64).tolist()
    out = [x for x in draws if repr(x) == f"{x:.17g}"]
    assert len(out) >= count
    return np.array(out[:count])


def _block_mesh(rows):
    # A mesh of `rows` vertices, faces and CSV rows, with random numbers.
    rng = np.random.default_rng(rows)
    values = _seventeen_digit_floats(rng, 6 * rows).reshape(rows, 6)
    faces = rng.integers(0, rows, (rows, 4))
    return problemfile.SurfaceMesh(
        np.ascontiguousarray(values[:, 2:5]), values[:, :2], values[:, 5], faces, 0
    )


@pytest.mark.parametrize(
    "rows", [problemfile.BLOCK_ROWS + k for k in (-1, 0, 1)] + [2 * problemfile.BLOCK_ROWS + 1]
)
def test_mesh_writers_match_the_reference_across_block_edges(tmp_path, rows):
    mesh = _block_mesh(rows)
    for write, reference in (
        (problemfile.write_obj, reference_write_obj),
        (problemfile.write_csv, reference_write_csv),
    ):
        write(mesh, tmp_path / "got")
        reference(mesh, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_clipped_mesh_text_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    n = 6
    mesh = problemfile.build_mesh(
        problemfile.StoredSolution(
            h2xr(),
            ProblemKind.SPACELIKE_SURFACE,
            (variable_u(n), variable_v(n) + 0.5, variable_u(n) * variable_v(n)),
            GridSpec(-0.5, 0.5, -1.0, 1.0, 61, 97),
            {},
        )
    )
    assert mesh.clipped > 0 and len(mesh.faces) > 2 * problemfile.BLOCK_ROWS
    for write, reference in (
        (problemfile.write_obj, reference_write_obj),
        (problemfile.write_csv, reference_write_csv),
    ):
        write(mesh, tmp_path / "blocks")
        with monkeypatch.context() as one_block:
            one_block.setattr(problemfile, "BLOCK_ROWS", 10**9)
            write(mesh, tmp_path / "whole")
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()
        reference(mesh, tmp_path / "want")
        _assert_same_numbers((tmp_path / "blocks").read_text(), (tmp_path / "want").read_text())


def test_mesh_writers_format_one_block_of_rows_per_call(tmp_path, monkeypatch):
    rows = 2 * problemfile.BLOCK_ROWS + 1
    mesh = _block_mesh(rows)
    raw, sizes = orjson.dumps, []

    def spy(value, *args, **kwargs):
        sizes.append(value.size)
        return raw(value, *args, **kwargs)

    monkeypatch.setattr(orjson, "dumps", spy)
    problemfile.write_obj(mesh, tmp_path / "m.obj")
    problemfile.write_csv(mesh, tmp_path / "m.csv")
    block = problemfile.BLOCK_ROWS
    per_table = [block, block, 1]
    assert sizes == [cols * k for cols in (3, 4, 6) for k in per_table]


# ---------------------------------------------------------------------------
# the cone-lift lemma


def test_lifted_third_component_satisfies_its_equation():
    # Wider jet ranges than criterion 06 (c0 in +-[0.4, 0.9], higher
    # coefficients +-0.2), with the same bounds.
    rng = np.random.default_rng(99)
    order = 8

    def random_jet(mode):
        while True:
            def jet():
                c = np.zeros(4)
                c[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.9)
                c[1:] = rng.uniform(-0.2, 0.2, 3)
                return c

            p = [
                KSeries(
                    from_univariate_u(USeries(jet()), order),
                    from_univariate_u(USeries(jet()), order),
                    mode,
                )
                for _ in range(2)
            ]
            s0 = (p[0] * p[0] + p[1] * p[1]).eval(0.0, 0.0)
            if abs(s0.sq_mod()) < 0.05:
                continue
            try:
                s0.sqrt()
            except Exception:
                continue
            return p

    for grp in (heisenberg(), de_sitter(), h2xr()):
        for mode in (Mode.PARACOMPLEX, Mode.COMPLEX):
            for _ in range(5):
                p1, p2 = random_jet(mode)
                q1, q2, q3 = reference_cone_lift(grp, p1, p2, mode, order)
                quad = grp.pde_quadratic((q1, q2, q3))
                eq12 = max(
                    (q1.dzbar() + quad[0].truncated(order - 1)).maxabs(),
                    (q2.dzbar() + quad[1].truncated(order - 1)).maxabs(),
                )
                eq3 = (q3.dzbar() + quad[2].truncated(order - 1)).maxabs()
                assert eq12 <= 1e-10
                assert eq3 <= 1e-9
                lifted = frame_stack((q1, q2, q3))
                marched = frame_series(ck_march(grp, lifted, mode), 0.0, mode)
                assert cone_series(marched).maxabs() <= 1e-9
