import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjorling.config import Mode
from bjorling.errors import DomainError
from bjorling.groups import (
    SIGNATURE,
    by_name,
    connection_from_structure,
    de_sitter,
    generic_group,
    h2xr,
    heisenberg,
    lorentz_cross,
    lorentz_dot,
    mat_vec,
    mat_vec_tables,
)
from bjorling.series import BiSeries, USeries, table_stack
from kalgebra import KScalar, frame_jet_from_coords
from oracles import coords_from_frame, difference_christoffels, exact_christoffels

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# cross product and metric


def test_cross_frame_values():
    assert np.array_equal(lorentz_cross(E2, E1), E3)
    assert np.array_equal(lorentz_cross(E3, E1), E2)
    assert np.array_equal(lorentz_cross(E2, E3), E1)


def test_cross_antisymmetric_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        y, w = rng.standard_normal(3), rng.standard_normal(3)
        total = np.array(lorentz_cross(y, w)) + np.array(lorentz_cross(w, y))
        assert np.max(np.abs(total)) <= 1e-14


def test_metric_values():
    assert lorentz_dot(E3, E3) == -1.0
    assert lorentz_dot(E1, E2) == 0.0


def test_cross_of_orthonormal_pair_flips_causal_type():
    # unit spacelike V orthogonal to Y gives g(V x Y, V x Y) = -g(Y, Y)
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.standard_normal(3)
        if lorentz_dot(v, v) <= 0.1:
            continue
        v = v / np.sqrt(lorentz_dot(v, v))
        y = rng.standard_normal(3)
        y = y - lorentz_dot(y, v) * v  # g-orthogonal projection, g(v,v) = 1
        w = np.array(lorentz_cross(v, y))
        lhs = lorentz_dot(w, w)
        rhs = -lorentz_dot(y, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def _identity_residuals(u, y, w, v):
    cross = lambda a, b: np.array(lorentz_cross(a, b))
    r1 = lorentz_dot(cross(u, y), cross(w, v)) - (
        lorentz_dot(u, v) * lorentz_dot(y, w) - lorentz_dot(u, w) * lorentz_dot(y, v)
    )
    r2 = cross(cross(u, y), w) - (lorentz_dot(y, w) * u - lorentz_dot(u, w) * y)
    scale = max(1.0, *(float(np.max(np.abs(x))) for x in (u, y, w, v))) ** 3
    return abs(r1) / scale, float(np.max(np.abs(r2))) / scale


def test_cross_product_identities_random_quadruples():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        u, y, w, v = (rng.uniform(-2, 2, 3) for _ in range(4))
        r1, r2 = _identity_residuals(u, y, w, v)
        assert r1 <= 1e-10 and r2 <= 1e-10


# ---------------------------------------------------------------------------
# connection tables


def test_heisenberg_connection_table():
    g = heisenberg()
    gam = g.gamma
    expected = {
        (0, 1, 2): 0.5,
        (1, 0, 2): -0.5,
        (0, 2, 1): 0.5,
        (2, 0, 1): 0.5,
        (2, 1, 0): -0.5,
        (1, 2, 0): -0.5,
    }
    for idx in np.ndindex(3, 3, 3):
        assert gam[idx] == expected.get(idx, 0.0)


def test_desitter_connection_table():
    gam = de_sitter().gamma
    expected = {
        (0, 2, 0): -1.0,
        (1, 2, 1): -1.0,
        (0, 0, 2): -1.0,
        (1, 1, 2): -1.0,
    }
    for idx in np.ndindex(3, 3, 3):
        assert gam[idx] == expected.get(idx, 0.0)


def test_h2xr_connection_table():
    model = h2xr()
    expected = {(0, 1, 0): -1.0, (0, 0, 1): 1.0}
    for idx in np.ndindex(3, 3, 3):
        assert model.gamma[idx] == expected.get(idx, 0.0)
    koszul = connection_from_structure(model.C)[0]
    assert koszul[0, 1, 0] == -2.0
    assert koszul[0, 0, 1] == 2.0


def test_connection_rejects_non_antisymmetric():
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        connection_from_structure(bad)


def _koszul_zero_combinations(gamma):
    worst = 0.0
    for i in range(3):
        for k in range(3):
            worst = max(worst, abs(gamma[i, k, k]))
        worst = max(worst, abs(gamma[i, 0, 1] + gamma[i, 1, 0]))
        worst = max(worst, abs(gamma[i, 2, 0] - gamma[i, 0, 2]))
        worst = max(worst, abs(gamma[i, 2, 1] - gamma[i, 1, 2]))
    return worst


def test_koszul_combinations_vanish_for_builtins():
    for model in (heisenberg(), de_sitter(), h2xr()):
        assert _koszul_zero_combinations(model.gamma) == 0.0


@given(st.integers(0, 1000))
@settings(max_examples=60)
def test_koszul_combinations_vanish_for_random_structure(seed):
    rng = np.random.default_rng(seed)
    C = np.zeros((3, 3, 3))
    for c in range(3):
        m = rng.uniform(-2, 2, (3, 3))
        C[:, :, c] = m - m.T
    _, gamma = connection_from_structure(C)
    assert _koszul_zero_combinations(gamma) <= 1e-12


def test_metric_compatibility_of_gamma():
    rng = np.random.default_rng(5)
    C = np.zeros((3, 3, 3))
    for c in range(3):
        m = rng.uniform(-2, 2, (3, 3))
        C[:, :, c] = m - m.T
    _, gamma = connection_from_structure(C)
    e = SIGNATURE
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert abs(gamma[a, b, c] * e[c] + gamma[a, c, b] * e[b]) <= 1e-12


# ---------------------------------------------------------------------------
# frame matrices and charts


def _frame_stack(model, x):
    # A at a point (3x3) or a (3, ...) stack of points ((3, 3, ...)).
    x = np.asarray(x, dtype=float)
    return np.array([[np.broadcast_to(e, x.shape[1:]) for e in row] for row in model.frame(x)])


def test_heisenberg_frame_matrix():
    model = heisenberg()
    a, ainv = _frame_stack(model, [2.0, 4.0, 0.0]), model.frame_matrix([2.0, 4.0, 0.0])
    assert np.array_equal(a[2], [-2.0, 1.0, 1.0])
    assert np.array_equal(ainv[2], [2.0, -1.0, 1.0])
    assert np.max(np.abs(a @ ainv - np.eye(3))) <= 1e-12


def test_desitter_frame_matrix_and_guard():
    model = de_sitter()
    assert np.array_equal(_frame_stack(model, [0.0, 0.0, 2.0]), np.diag([2.0, 2.0, 2.0]))
    assert np.array_equal(model.frame_matrix([0.0, 0.0, 2.0]), np.diag([0.5, 0.5, 0.5]))
    with pytest.raises(DomainError):
        model.frame_matrix([0.0, 0.0, 0.0])


def test_frame_inverse_identity_random_points():
    rng = np.random.default_rng(13)
    curved = generic_group(
        heisenberg().C,
        frame_exprs=[["x3", "0", "x1"], ["0", "x3", "0"], ["-x2/2", "x1/2", "exp(x1)"]],
    )
    for model in (heisenberg(), de_sitter(), h2xr(), curved):
        for _ in range(25):
            x = rng.uniform(0.2, 2.0, 3)
            a, ainv = _frame_stack(model, x), model.frame_matrix(x)
            assert np.max(np.abs(a @ ainv - np.eye(3))) <= 1e-12
        # a (3, 4, 5) stack of points
        x = rng.uniform(0.2, 2.0, (3, 4, 5))
        a, ainv = _frame_stack(model, x), model.frame_matrix(x)
        assert a.shape == ainv.shape == (3, 3, 4, 5)
        eye = np.eye(3)[:, :, None, None]
        assert np.max(np.abs(np.einsum("ik...,kj...->ij...", a, ainv) - eye)) <= 1e-12
        # a jet triple: frame(x) coframe(x) is the identity jet
        coeffs = rng.uniform(-0.5, 0.5, (3, 7))
        coeffs[:, 0] = rng.uniform(0.2, 2.0, 3)
        x = tuple(USeries(c) for c in coeffs)
        a, ainv = model.frame(x), model.coframe(x)
        for i in range(3):
            for j in range(3):
                entry = sum(a[i][k] * ainv[k][j] for k in range(3)) - float(i == j)
                assert np.max(np.abs(getattr(entry, "coeffs", entry))) <= 1e-12


# ---------------------------------------------------------------------------
# PDE right side


def _kconsts(vals, mode):
    return tuple(KScalar(float(r), float(i), mode) for r, i in vals)


def test_pde_quadratic_heisenberg_structure():
    # psi = (1, 0, 1): first equation unaffected, second picks up Re conj(p3) p1
    model = heisenberg()
    psi = _kconsts([(1, 0), (0, 0), (1, 0)], Mode.PARACOMPLEX)
    G = model.pde_quadratic(psi)
    assert G[0].re == 0.0 and G[0].im == 0.0
    assert G[1].re == 1.0 and G[1].im == 0.0
    assert G[2].re == 0.0 and G[2].im == 0.0


def test_pde_quadratic_desitter_structure():
    model = de_sitter()
    psi = _kconsts([(0.3, 0.2), (-0.1, 0.4), (0.5, -0.6)], Mode.PARACOMPLEX)
    G = model.pde_quadratic(psi)
    want0 = -1.0 * (psi[0].conj() * psi[2])
    want1 = -1.0 * (psi[1].conj() * psi[2])
    assert abs(G[0].re - want0.re) + abs(G[0].im - want0.im) <= 1e-15
    assert abs(G[1].re - want1.re) + abs(G[1].im - want1.im) <= 1e-15


def test_pde_quadratic_h2xr_second_equation_balance():
    # on the horizontal-plane data at u = pi/2 the second equation balances:
    # d psi2 / dzbar = -1/4 and the quadratic term is +1/4
    import math

    model = h2xr()
    u0 = math.pi / 2
    psi = _kconsts(
        [(-0.5, -0.5 * math.cos(u0) / math.sin(u0)), (0.5 * math.cos(u0) / math.sin(u0), -0.5), (0, 0)],
        Mode.COMPLEX,
    )
    G = model.pde_quadratic(psi)
    assert G[1].re == pytest.approx(0.25, abs=1e-15)
    assert G[1].im == pytest.approx(0.0, abs=1e-15)
    # first equation carries conj(psi1) psi2, not psi1 conj(psi2)
    want0 = -1.0 * (psi[0].conj() * psi[1])
    assert abs(G[0].re - want0.re) + abs(G[0].im - want0.im) <= 1e-15


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_christoffels_match_symbolic_oracle():
    # Complex-step derivatives are exact: the symbols agree with sympy's to
    # rounding at coordinates of size up to 10, and the inverse frame matrix
    # is the one ``frame_matrix`` gives.
    rng = np.random.default_rng(17)
    inside = {"heisenberg": None, "desitter": 2, "h2xr": 1}
    for name, positive in inside.items():
        model, exact = by_name(name), exact_christoffels(name)
        pts = rng.uniform(-10.0, 10.0, (3, 40))
        if positive is not None:
            pts[positive] = np.abs(pts[positive]) + 0.05
        got, ainv = model.christoffels(pts)
        assert np.array_equal(ainv, model.frame_matrix(pts))
        for k in range(pts.shape[1]):
            want = exact(pts[:, k])
            err = np.max(np.abs(got[..., k] - want)) / max(1.0, np.max(np.abs(want)))
            assert err <= 1e-13, (name, pts[:, k], err)
    # At every scale of the halfspace coordinate the step, taken of the
    # frame matrix (linear in x), stays exact: the error relative to the
    # largest symbol is at most 1e-13, also where the step is not small next
    # to the coordinate.
    for name, axis in (("desitter", 2), ("h2xr", 1)):
        model, exact = by_name(name), exact_christoffels(name)
        for scale in (1e-18, 1e-20, 1e-60, 1e-100, 1e60, 1e100):
            x = np.array([0.3, -0.7, 0.4])
            x[axis] = scale
            got, want = model.christoffels(x)[0], exact(x)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-13, (name, scale, err)


def test_christoffels_of_a_parsed_frame_with_functions():
    # A generic frame's parsed entries (exp, sin, quotients) take the
    # complex steps too; central differences of its metric agree.
    model = generic_group(
        np.zeros((3, 3, 3)),
        frame_exprs=[["exp(x3)", "0", "0"], ["0", "1/(2 + sin(x1))", "0"], ["x2", "0", "1"]],
    )
    x = np.array([0.3, -0.4, 0.2])
    got, ainv = model.christoffels(x)
    assert np.array_equal(ainv, model.frame_matrix(x))
    assert np.max(np.abs(got - difference_christoffels(model, x))) <= 1e-8


def test_christoffel_known_desitter_value():
    model = de_sitter()
    gam = model.christoffels([0.0, 0.0, 1.0])[0]
    assert gam[0, 0, 2] == pytest.approx(-1.0, abs=1e-8)
    assert gam[0, 2, 0] == pytest.approx(-1.0, abs=1e-8)


def test_christoffels_flat_metric_vanish():
    flat = generic_group(
        np.zeros((3, 3, 3)),
        frame_exprs=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    )
    gam = flat.christoffels([0.4, -0.7, 1.1])[0]
    assert np.max(np.abs(gam)) <= 1e-9


def test_christoffels_symmetric_in_lower_indices():
    rng = np.random.default_rng(21)
    model = heisenberg()
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 3)
        gam = model.christoffels(x)[0]
        assert np.max(np.abs(gam - np.transpose(gam, (0, 2, 1)))) <= 1e-9


def test_christoffels_domain_guard():
    # The guard reads the real points: a point just inside the halfspace has
    # finite symbols, and a point outside it is refused as frame_matrix
    # refuses it.
    model = de_sitter()
    inside = np.array([0.0, 0.0, 1e-7])
    assert np.all(np.isfinite(model.christoffels(inside)[0]))
    for outside in ([0.0, 0.0, 0.0], [0.0, 0.0, -1e-7]):
        with pytest.raises(DomainError, match="outside the desitter chart"):
            model.christoffels(outside)
    with pytest.raises(DomainError, match=r"point \[0.0, 0.0, -1.0\]"):
        model.christoffels(np.stack([np.ones(3), [0.0, 0.0, -1.0]], axis=1))


# ---------------------------------------------------------------------------
# generic groups


def test_generic_group_reproduces_builtin():
    from bjorling.series import USeries

    base = heisenberg()
    gen = generic_group(
        base.C,
        frame_exprs=[["1", "0", "0"], ["0", "1", "0"], ["-x2/2", "x1/2", "1"]],
    )
    assert np.array_equal(gen.gamma, base.gamma)
    x = [2.0, 4.0, 0.5]
    assert np.array_equal(_frame_stack(gen, x), _frame_stack(base, x))
    assert np.array_equal(gen.frame_matrix(x), base.frame_matrix(x))
    curve = (
        USeries.variable(6).cosh(),
        USeries.constant(1.0, 6),
        USeries.variable(6).sinh(),
    )
    w = (USeries.variable(6).sinh(), USeries.constant(0.0, 6), USeries.variable(6).cosh())
    got = frame_jet_from_coords(gen, curve, w)
    want = frame_jet_from_coords(base, curve, w)
    assert max((g - t).maxabs() for g, t in zip(got, want)) <= 1e-12
    back = coords_from_frame(gen, curve, got)
    assert max((g - t).maxabs() for g, t in zip(back, w)) <= 1e-12


_SADDLE_CHART = [["1", "0", "0"], ["0", "1", "0"], ["2*x1*x2 - x2/2", "x1**2 + x1/2", "1"]]


@pytest.mark.parametrize("order", [0, 3, 12, 30])
@pytest.mark.parametrize("name", ["heisenberg", "desitter", "h2xr", "saddle-chart", "numbers"])
def test_mat_vec_tables_is_mat_vec_over_series(name, order):
    # Coordinates one order above w, as the rebuild's f is, and two vectors,
    # as the rebuild's gates read r and w.  The same terms summed in the
    # same order, with every series product of both vectors in one batch:
    # the bits of mat_vec over the series of each vector.  "numbers" mixes
    # the numbers 0, 1 and 2 with series and has a zero row.
    rng = np.random.default_rng(order)
    triangle = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    x = tuple(BiSeries(rng.uniform(0.5, 1.5, (order + 2, order + 2)), 0.25) for _ in range(3))
    w = rng.uniform(-1.0, 1.0, (2, 3, order + 1, order + 1)) * triangle
    if name == "numbers":
        m = ((2.0, 0.0, x[0]), (1.0, x[1] * x[2], -1.0), (0.0, 0.0, 0.0))
    elif name == "saddle-chart":
        m = generic_group(heisenberg().C, frame_exprs=_SADDLE_CHART).frame(x)
    else:
        m = by_name(name).frame(x)
    want = [table_stack(mat_vec(m, tuple(BiSeries(table, 0.25) for table in vec))) for vec in w]
    assert np.array_equal(mat_vec_tables(m, w), want)
