"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with ``pytest -v`` or ``-s`` to see them).

Expected values come from closed forms, independent integrators, and the
symbolic oracles in ``oracles.py``; nothing here reuses the solver's own
arithmetic as its own certificate.
"""

import json
import math
import time

import numpy as np
import pytest

from bjorling import corpus, problemfile
from bjorling.cli import main as cli_main
from bjorling.groups import de_sitter, h2xr, heisenberg, lorentz_cross, lorentz_dot
from bjorling.scalars import KScalar, Mode
from bjorling.series import BiSeries, KSeries, USeries, para_cr_residual
from bjorling.solver import (
    ck_march,
    ck_march_cone_lift,
    cone_series,
    solve_bjorling,
)
from bjorling.verify import (
    compare_to_reference,
    graph_identity_residual,
    tension_residual,
)
from oracles import frame_series, frame_stack, split_cosh_parts

P = Mode.PARACOMPLEX
C = Mode.COMPLEX


def _solve(example_id, params=None, grid=None, order=12):
    doc = corpus.build_problem_dict(example_id, params, order=order)
    if grid:
        doc["grid"].update(grid)
    prob = problemfile.problem_from_dict(doc)
    return prob, solve_bjorling(prob)


def _report(num, label):
    print(f"ACCEPTANCE {num:02d} ({label}): PASS")


def test_criterion_01_heisenberg_vertical_plane():
    t0 = time.perf_counter()
    prob, sol = _solve("heisenberg_vertical_plane", {"c": 1.0})
    elapsed = time.perf_counter() - t0
    ref = corpus.reference_surface("heisenberg_vertical_plane", {"c": 1.0})
    dev = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
    assert dev <= 1e-8

    n = prob.order
    ev = BiSeries.from_univariate_v(USeries.variable(n, 0.0).exp(), n)
    su = BiSeries.from_univariate_u(USeries.variable(n).sinh(), n)
    cu = BiSeries.from_univariate_u(USeries.variable(n).cosh(), n)
    closed_form = (
        KSeries(0.5 * (ev * su), 0.5 * (ev * cu), P),
        KSeries(BiSeries.zeros(n), BiSeries.zeros(n), P),
        KSeries(0.5 * (ev * cu), 0.5 * (ev * su), P),
    )
    for got, want in zip(frame_series(sol.frame_data, prob.center, P), closed_form):
        assert (got - want).maxabs() <= 1e-10

    assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
    _report(1, "vertical plane closed form, frame data, runtime")


def test_criterion_02_heisenberg_helicoid():
    prob, sol = _solve("heisenberg_helicoid", {"c": -1.0, "rho0": 1.0, "b": 0.0})
    ref = corpus.reference_surface("heisenberg_helicoid", {"c": -1.0, "rho0": 1.0, "b": 0.0})
    dev = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
    assert dev <= 1e-7

    # degenerate pitch: the surface collapses onto the plane z = b
    # (the profile equation needs rho0 > 2 once c = 0)
    b = 0.25
    _, flat = _solve(
        "heisenberg_helicoid",
        {"c": 0.0, "rho0": 2.5, "b": b},
        grid={"u_min": -0.2, "u_max": 0.2},
    )
    assert (flat.surface[2] - b).maxabs() <= 1e-9
    _report(2, "helicoid vs independent ODE reference; flat limit")


def test_criterion_03_heisenberg_saddle_graph_identity():
    prob, sol = _solve("heisenberg_saddle")
    res = graph_identity_residual(
        sol.surface, lambda x1, x2, x3: x3 - 0.5 * x1 * x2, prob.grid.us(), prob.grid.vs()
    )
    assert res <= 1e-8
    ref = corpus.reference_surface("heisenberg_saddle")
    dev = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
    assert dev <= 1e-8
    _report(3, "saddle graph identity x3 = x1 x2 / 2")


def test_criterion_04_desitter_examples():
    for ex in ("desitter_vertical_plane", "desitter_diagonal_plane"):
        prob, sol = _solve(ex)
        assert np.max(np.abs(sol.frame_data[..., 1:])) <= 1e-10
        ref = corpus.reference_surface(ex)
        dev = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
        assert dev <= 1e-8
    _report(4, "de Sitter planes: stationary frame data and closed forms")


def test_criterion_05_h2xr_plane():
    prob, sol = _solve("h2xr_horizontal_plane")
    assert prob.grid.u_min == pytest.approx(math.pi / 4)
    assert prob.grid.u_max == pytest.approx(3 * math.pi / 4)
    ref = corpus.reference_surface("h2xr_horizontal_plane")
    dev = compare_to_reference(sol.surface, ref, prob.grid.us(), prob.grid.vs())
    assert dev <= 1e-8
    _report(5, "spacelike plane in H2 x R (first-equation convention)")


def test_criterion_06_cone_lift_lemma_suite():
    order = 8
    rng = np.random.default_rng(20250810)

    def random_pair(mode):
        while True:
            def jet():
                c = np.zeros(4)
                c[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.45, 0.8)
                c[1:] = rng.uniform(-0.15, 0.15, 3)
                return c

            pair = [
                KSeries(
                    BiSeries.from_univariate_u(USeries(jet()), order),
                    BiSeries.from_univariate_u(USeries(jet()), order),
                    mode,
                )
                for _ in range(2)
            ]
            s0 = (pair[0] * pair[0] + pair[1] * pair[1]).eval(0.0, 0.0)
            if abs(s0.sq_mod()) < 0.05:
                continue
            try:
                s0.sqrt()
            except Exception:
                continue
            return pair

    worst_eq3 = worst_cone = 0.0
    for group in (heisenberg(), de_sitter(), h2xr()):
        for mode in (P, C):
            for _ in range(50):
                p1, p2 = random_pair(mode)
                lifted = ck_march_cone_lift(group, frame_stack((p1, p2, p1)), mode)
                q1, q2, q3 = frame_series(lifted, 0.0, mode)
                quad = group.pde_quadratic((q1, q2, q3))
                eq12 = max(
                    (q1.dzbar() + quad[0].truncated(order - 1)).maxabs(),
                    (q2.dzbar() + quad[1].truncated(order - 1)).maxabs(),
                )
                assert eq12 <= 1e-10  # equations 1-2 hold by construction
                eq3 = (q3.dzbar() + quad[2].truncated(order - 1)).maxabs()
                worst_eq3 = max(worst_eq3, eq3)
                marched = frame_series(ck_march(group, lifted, mode), 0.0, mode)
                worst_cone = max(worst_cone, cone_series(marched).maxabs())
    assert worst_eq3 <= 1e-9
    assert worst_cone <= 1e-9
    _report(6, f"cone lift: eq3 <= {worst_eq3:.1e}, drift <= {worst_cone:.1e}")


def test_criterion_07_cross_product_identity_suite():
    rng = np.random.default_rng(7777)
    worst = 0.0
    for _ in range(1000):
        u, y, w, v = (rng.uniform(-2.0, 2.0, 3) for _ in range(4))
        scale = max(1.0, *(float(np.max(np.abs(x))) for x in (u, y, w, v))) ** 3
        cross = lambda a, b: np.array(lorentz_cross(a, b))
        r1 = abs(
            lorentz_dot(cross(u, y), cross(w, v))
            - (lorentz_dot(u, v) * lorentz_dot(y, w) - lorentz_dot(u, w) * lorentz_dot(y, v))
        )
        r2 = float(
            np.max(
                np.abs(
                    cross(cross(u, y), w)
                    - (lorentz_dot(y, w) * u - lorentz_dot(u, w) * y)
                )
            )
        )
        worst = max(worst, r1 / scale, r2 / scale)
    assert worst <= 1e-10
    _report(7, f"cross-product identities on 1000 quadruples (worst {worst:.1e})")


def test_criterion_08_independent_minimality_certificate():
    # (a) every corpus solution passes the coordinate-level certificate
    groups = {"heisenberg": heisenberg(), "desitter": de_sitter(), "h2xr": h2xr()}
    for ex in corpus.EXAMPLE_IDS:
        prob, sol = _solve(ex)
        us = prob.grid.coarse(9, 5).us()
        vs = np.linspace(sol.report.strip_v_min, sol.report.strip_v_max, 5)
        res = tension_residual(
            sol.group, sol.surface_point, prob.kind.sigma, us, vs, step=1e-3
        )
        assert res <= 1e-4, (ex, res)

    # (b) quadratic decay under step halving on exactly minimal references
    shrink_cases = (
        ("heisenberg_helicoid", 1.0, 0.0, 0.25, 0.4),
        ("heisenberg_saddle", 1.0, 0.0, 0.4, 0.15),
        ("h2xr_horizontal_plane", -1.0, math.pi / 2, 0.5, 0.4),
    )
    for ex, sigma, u0, uh, vh in shrink_cases:
        ref = corpus.reference_surface(ex)
        fn = lambda u, v: np.array(ref(u, v))
        grp = groups[corpus.example_info(ex).group]
        us = np.linspace(u0 - uh, u0 + uh, 5)
        vs = np.linspace(-vh, vh, 5)
        r_h = tension_residual(grp, fn, sigma, us, vs, step=4e-3)
        r_half = tension_residual(grp, fn, sigma, us, vs, step=2e-3)
        assert r_half <= 0.35 * r_h + 1e-9, (ex, r_h, r_half)
    # the symmetric planes sit at the rounding floor instead
    for ex, sigma in (("heisenberg_vertical_plane", 1.0), ("desitter_vertical_plane", 1.0)):
        ref = corpus.reference_surface(ex)
        fn = lambda u, v: np.array(ref(u, v))
        grp = groups[corpus.example_info(ex).group]
        res = tension_residual(
            grp, fn, sigma, np.linspace(-0.5, 0.5, 5), np.linspace(-0.4, 0.4, 5), step=1e-3
        )
        assert res <= 1e-8

    # (c) a non-minimal probe is loudly non-minimal
    probe = lambda u, v: np.array([u, 1.0 + 0.0 * u, v + 1.0])
    res = tension_residual(
        de_sitter(), probe, -1.0, np.linspace(-0.3, 0.3, 5), np.linspace(-0.3, 0.3, 5), step=1e-3
    )
    assert res > 0.1
    _report(8, "tension certificate: corpus <= 1e-4, O(h^2), probe > 0.1")


def test_criterion_09_rejection_behavior(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc["beta"] = ["u", "0", "u"]
    path = tmp_path / "lightlike.problem.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["solve", str(path), "--out", "artifacts"])
    err = capsys.readouterr().err
    assert code == 2
    assert "characteristic (lightlike) initial curve" in err
    out_dir = tmp_path / "artifacts"
    assert not out_dir.exists() or not any(out_dir.iterdir())

    doc2 = corpus.build_problem_dict("heisenberg_vertical_plane")
    doc2["V"] = ["0", "2", "0"]
    path2 = tmp_path / "badfield.problem.json"
    path2.write_text(json.dumps(doc2))
    code2 = cli_main(["solve", str(path2)])
    err2 = capsys.readouterr().err
    assert code2 == 2
    assert "g(V, V)" in err2
    _report(9, "lightlike exits 2 with no artifacts; invariant named")


def test_criterion_10_algebra_suite():
    rng = np.random.default_rng(424242)
    n = 10_000
    for mode in (P, C):
        xs = rng.uniform(-10, 10, (n, 6))
        worst_ring = worst_mod = 0.0
        for a, b, c, d, e, f in xs:
            x, y, z = KScalar(a, b, mode), KScalar(c, d, mode), KScalar(e, f, mode)
            assoc = (x * y) * z - x * (y * z)
            dist = x * (y + z) - (x * y + x * z)
            scale = max(1.0, abs(a), abs(b), abs(c), abs(d), abs(e), abs(f)) ** 3
            worst_ring = max(
                worst_ring,
                max(abs(assoc.re), abs(assoc.im)) / scale,
                max(abs(dist.re), abs(dist.im)) / scale,
            )
            pm = (x * y).sq_mod()
            worst_mod = max(
                worst_mod, abs(pm - x.sq_mod() * y.sq_mod()) / max(1.0, abs(pm))
            )
        assert worst_ring <= 1e-12
        assert worst_mod <= 1e-10

    # split map multiplicativity and inverse round trips (paracomplex)
    xs = rng.uniform(-10, 10, (n, 4))
    worst_split = worst_inv = 0.0
    for a, b, c, d in xs:
        x, y = KScalar(a, b, P), KScalar(c, d, P)
        px, qx = x.split()
        py, qy = y.split()
        pm, qm = (x * y).split()
        scale = max(1.0, abs(pm), abs(qm))
        worst_split = max(worst_split, abs(pm - px * py) / scale, abs(qm - qx * qy) / scale)
        if abs(x.sq_mod()) > 1e-3:
            rt = x.inverse().inverse()
            worst_inv = max(
                worst_inv,
                max(abs(rt.re - x.re), abs(rt.im - x.im)) / max(1.0, abs(x.re), abs(x.im)),
            )
    assert worst_split <= 1e-12
    assert worst_inv <= 1e-12

    # split Cauchy-Riemann equations are the same thing as dzbar = 0
    z = KSeries.variable_z(8, 0.0, P)
    analytic = z * z * z + 2.0 * z
    assert para_cr_residual(analytic) <= 1e-14
    assert analytic.dzbar().maxabs() <= 1e-14
    re, im = split_cosh_parts(8)
    split_cosh = KSeries(BiSeries(re), BiSeries(im), P)
    assert para_cr_residual(split_cosh) <= 1e-14
    non_analytic = KSeries(BiSeries.variable_u(6), BiSeries.zeros(6), P)
    assert para_cr_residual(non_analytic) == pytest.approx(1.0)
    assert 2.0 * non_analytic.dzbar().maxabs() == pytest.approx(1.0)
    _report(10, "ring axioms, split isomorphism, inverses, split CR")
