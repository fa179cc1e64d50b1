import math
import re

import numpy as np
import pytest

from bjorling import corpus, problemfile
from bjorling.config import GridSpec, ProblemKind
from bjorling.errors import DomainError
from bjorling.groups import de_sitter, h2xr, heisenberg
from bjorling.scalars import KScalar, Mode
from bjorling.series import BiSeries, KSeries, USeries
from bjorling.solver import ck_march_cone_lift, solve_bjorling
from bjorling.verify import (
    boundary_residuals,
    compare_to_reference,
    conformality_residual,
    graph_identity_residual,
    tension_residual,
    weierstrass_residuals,
)
from oracles import (
    exact_christoffels,
    frame_series,
    frame_stack,
    reference_build_mesh,
    reference_conformality_residual,
    reference_tension_residual,
    reference_weierstrass_residuals,
    reference_write_csv,
    reference_write_obj,
)

P = Mode.PARACOMPLEX


def _problem(example_id, params=None):
    return problemfile.problem_from_dict(corpus.build_problem_dict(example_id, params))


def _solved(example_id, params=None):
    return solve_bjorling(_problem(example_id, params))


# ---------------------------------------------------------------------------
# frame-level residuals


def test_weierstrass_residuals_on_exponential_solution():
    n = 12
    ev = BiSeries.from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = BiSeries.from_univariate_u(USeries.variable(n).sinh(), n)
    cu = BiSeries.from_univariate_u(USeries.variable(n).cosh(), n)
    psi = (
        KSeries(0.5 * (ev * su), 0.5 * (ev * cu), P),
        KSeries(BiSeries.zeros(n), BiSeries.zeros(n), P),
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


@pytest.mark.parametrize("order", [12, 30])
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
@pytest.mark.parametrize("order", [12, 30])
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


# ---------------------------------------------------------------------------
# conformality


def test_conformality_of_vertical_plane():
    sol = _solved("heisenberg_vertical_plane")
    us = np.linspace(-0.5, 0.5, 9)
    vs = np.linspace(-0.5, 0.5, 9)
    res = conformality_residual(sol.group, sol.surface, 1.0, us, vs)
    assert res <= 1e-9


def test_conformality_of_spacelike_plane():
    sol = _solved("h2xr_horizontal_plane")
    us = np.linspace(math.pi / 4, 3 * math.pi / 4, 9)
    vs = np.linspace(-0.5, 0.5, 9)
    res = conformality_residual(sol.group, sol.surface, -1.0, us, vs)
    assert res <= 1e-9


def test_conformality_detects_anisotropic_scaling():
    n = 8
    center = 0.0
    # f(u, v) = (u, 2v + 3, 0) in the halfplane chart x2 > 0
    f = (
        BiSeries.variable_u(n, center),
        2.0 * BiSeries.variable_v(n, center) + 3.0,
        BiSeries.zeros(n, center),
    )
    res = conformality_residual(h2xr(), f, -1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))
    assert res > 0.1


def test_conformality_raises_outside_chart():
    n = 6
    f = (
        BiSeries.variable_u(n),
        BiSeries.variable_v(n),  # x2 = v crosses zero
        BiSeries.zeros(n),
    )
    with pytest.raises(DomainError):
        conformality_residual(h2xr(), f, -1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))


# ---------------------------------------------------------------------------
# boundary data


def test_normal_matches_field_on_vertical_plane():
    sol = _solved("heisenberg_vertical_plane")
    prob = _problem("heisenberg_vertical_plane")
    curve_res, normal_res, flipped = boundary_residuals(
        sol.group, sol.surface, prob.curve, prob.normal_field, prob.kind, np.linspace(-1, 1, 9)
    )
    assert curve_res <= 1e-12
    assert normal_res <= 1e-9
    assert not flipped


def test_normal_matches_field_on_helicoid_and_saddle():
    for ex in ("heisenberg_helicoid", "heisenberg_saddle"):
        prob = _problem(ex)
        sol = solve_bjorling(prob)
        us = np.linspace(prob.grid.u_min, prob.grid.u_max, 9)
        curve_res, normal_res, flipped = boundary_residuals(
            sol.group, sol.surface, prob.curve, prob.normal_field, prob.kind, us
        )
        assert curve_res <= 1e-10
        assert normal_res <= 1e-8
        assert not flipped


def test_orientation_flip_is_flagged_not_failed():
    prob = _problem("heisenberg_vertical_plane")
    sol = solve_bjorling(prob)
    flipped_field = tuple(-1.0 * w for w in prob.normal_field)
    _, normal_res, flipped = boundary_residuals(
        sol.group, sol.surface, prob.curve, flipped_field, prob.kind, np.linspace(-1, 1, 5)
    )
    assert flipped
    assert normal_res <= 1e-9


def test_degenerate_normal_raises():
    from bjorling.errors import DegenerateFrame

    n = 5
    # f_u and f_v are parallel everywhere, so the normal vanishes
    surface = (
        BiSeries.variable_u(n) + BiSeries.variable_v(n),
        BiSeries.constant(1.0, n),
        BiSeries.zeros(n),
    )
    curve = tuple(USeries.constant(0.0, n + 1) for _ in range(3))
    field = (USeries.constant(0.0, n + 1), USeries.constant(0.0, n + 1), USeries.constant(1.0, n + 1))
    with pytest.raises(DegenerateFrame):
        boundary_residuals(
            h2xr(), surface, curve, field, ProblemKind.SPACELIKE_SURFACE, [0.1, 0.2]
        )


# ---------------------------------------------------------------------------
# tension (independent minimality certificate)


def test_tension_small_on_closed_form_vertical_plane():
    ref = corpus.reference_surface("heisenberg_vertical_plane")
    fn = lambda u, v: np.array(ref(u, v))
    res = tension_residual(
        heisenberg(), fn, 1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5), step=1e-3
    )
    assert res <= 1e-5


def test_tension_small_on_closed_form_desitter():
    ref = corpus.reference_surface("desitter_vertical_plane")
    fn = lambda u, v: np.array(ref(u, v))
    res = tension_residual(
        de_sitter(), fn, 1.0, np.linspace(-0.5, 0.5, 5), np.linspace(-0.4, 0.4, 5), step=1e-3
    )
    assert res <= 1e-5


def test_tension_shrinks_quadratically_on_helicoid():
    ref = corpus.reference_surface("heisenberg_helicoid")
    fn = lambda u, v: np.array(ref(u, v))
    us = np.linspace(-0.25, 0.25, 5)
    vs = np.linspace(-0.4, 0.4, 5)
    r1 = tension_residual(heisenberg(), fn, 1.0, us, vs, step=4e-3)
    r2 = tension_residual(heisenberg(), fn, 1.0, us, vs, step=2e-3)
    assert r2 <= 0.35 * r1 + 1e-9


def test_tension_flags_non_minimal_probe():
    # the plane x2 = c parametrized by (u, c, v + 1) in the de Sitter chart
    # is a conformal timelike minimal surface, so the timelike operator is
    # silent on it; under the spacelike operator it is far from minimal
    probe = lambda u, v: np.array([u, 1.0 + 0.0 * u, v + 1.0])
    us = np.linspace(-0.3, 0.3, 5)
    vs = np.linspace(-0.3, 0.3, 5)
    res = tension_residual(de_sitter(), probe, -1.0, us, vs, step=1e-3)
    assert res > 0.1
    res_wave = tension_residual(de_sitter(), probe, 1.0, us, vs, step=1e-3)
    assert res_wave <= 1e-6


def test_tension_with_exact_christoffel_oracle():
    # same probe evaluated with the symbolic Christoffels: the finite
    # difference table is not hiding the effect
    gam_exact = exact_christoffels("desitter")
    grp = de_sitter()
    u, v = 0.1, -0.2
    h = 1e-3
    probe = lambda a, b: np.array([a, 1.0, b + 1.0])
    f0 = probe(u, v)
    f_u = (probe(u + h, v) - probe(u - h, v)) / (2 * h)
    f_v = (probe(u, v + h) - probe(u, v - h)) / (2 * h)
    f_uu = (probe(u + h, v) - 2 * f0 + probe(u - h, v)) / h**2
    f_vv = (probe(u, v + h) - 2 * f0 + probe(u, v - h)) / h**2
    gam = gam_exact(f0)
    sigma = -1.0
    resid = (
        f_uu
        - sigma * f_vv
        + np.einsum("kij,i,j->k", gam, f_u, f_u)
        - sigma * np.einsum("kij,i,j->k", gam, f_v, f_v)
    )
    g = grp.metric(f0)
    conf = 0.5 * (abs(f_u @ g @ f_u) + abs(f_v @ g @ f_v))
    assert np.max(np.abs(resid)) / conf > 0.1


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

    conf = conformality_residual(sol.group, sol.surface, sigma, us, vs)
    want = reference_conformality_residual(sol.group, sol.surface, sigma, us, vs)
    scale = max(1.0, max(float(np.max(np.abs(f.eval_grid(us, vs)))) for f in sol.surface) ** 2)
    assert abs(conf - want) <= 1e-12 * scale

    tension = tension_residual(sol.group, sol.surface_point, sigma, us, vs)
    want = reference_tension_residual(sol.group, sol.surface_point, sigma, us, vs)
    assert abs(tension - want) <= 1e-8

    stored = problemfile.StoredSolution(sol.group, sol.kind, sol.surface, prob.grid, {})
    _assert_mesh_matches_reference(stored)


def test_clipped_mesh_matches_per_point_reference():
    # x2 = v + 0.5 leaves the halfplane chart for v <= -0.5
    n = 6
    surface = (
        BiSeries.variable_u(n) + 0.3 * BiSeries.variable_v(n) * BiSeries.variable_u(n),
        BiSeries.variable_v(n) + 0.5,
        BiSeries.variable_u(n) * BiSeries.variable_u(n),
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
                BiSeries.variable_u(n) + 0.3 * BiSeries.variable_v(n) * BiSeries.variable_u(n),
                BiSeries.variable_v(n) + 0.5,
                BiSeries.variable_u(n) * BiSeries.variable_u(n),
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


# ---------------------------------------------------------------------------
# the cone-lift lemma


def test_lifted_third_component_satisfies_its_equation():
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
                    BiSeries.from_univariate_u(USeries(jet()), order),
                    BiSeries.from_univariate_u(USeries(jet()), order),
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
                lifted = ck_march_cone_lift(grp, frame_stack((p1, p2, p1)), mode)
                q1, q2, q3 = frame_series(lifted, 0.0, mode)
                quad = grp.pde_quadratic((q1, q2, q3))
                eq12 = max(
                    (q1.dzbar() + quad[0].truncated(order - 1)).maxabs(),
                    (q2.dzbar() + quad[1].truncated(order - 1)).maxabs(),
                )
                eq3 = (q3.dzbar() + quad[2].truncated(order - 1)).maxabs()
                assert eq12 <= 1e-10
                assert eq3 <= 1e-9
