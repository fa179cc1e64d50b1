import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d, polyvander
from hypothesis import given, settings
from hypothesis import strategies as st

from bjorling.config import Mode
from bjorling.errors import DomainError
from bjorling.series import BiSeries, USeries, jet_product, ode_taylor, pair_products, power_table, table_products
from bjorling.slices import FrameTape, TapeNode
from kalgebra import (
    KScalar,
    KSeries,
    from_univariate_u,
    para_cr_residual,
    variable_u,
    variable_v,
    zero_series,
)
from oracles import (
    band_pair_products,
    composite_coeffs,
    dot_paired,
    horner_composition,
    naive_products,
    reference_product,
    reference_sqrt,
    split_cosh_parts,
    univariate_coeffs,
)

P = Mode.PARACOMPLEX
C = Mode.COMPLEX


# ---------------------------------------------------------------------------
# univariate jets


def test_useries_generators_match_factorial_formulas():
    for name in ("exp", "sin", "cos", "sinh", "cosh"):
        for center in (0.0, 0.7):
            jet = getattr(USeries.variable(9, center), name)()
            want = univariate_coeffs(name, center, 9)
            assert np.allclose(jet.coeffs, want, rtol=0, atol=1e-14)


_GENERATORS = ("exp", "sin", "cos", "sinh", "cosh")


def _composite_argument(order, center):
    # a(u) = 0.3 + 0.7 u + 0.2 u^2 as a jet about the center
    u = USeries.variable(order, center)
    return 0.3 + 0.7 * u + 0.2 * (u * u)


@pytest.mark.parametrize("center", ["0", "0.7"])
@pytest.mark.parametrize("name", _GENERATORS)
def test_useries_generators_of_a_composite_argument_match_sympy(name, center):
    jet = getattr(_composite_argument(12, float(center)), name)()
    want = composite_coeffs(name, ("0.3", "0.7", "0.2"), center, 12)
    np.testing.assert_allclose(jet.coeffs, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", [30, 48])
@pytest.mark.parametrize("name", _GENERATORS)
def test_useries_generators_match_the_horner_composition(name, order):
    for center in (0.0, 0.7):
        a = _composite_argument(order, center)
        want = horner_composition(a, name).coeffs
        np.testing.assert_allclose(getattr(a, name)().coeffs, want, rtol=1e-12, atol=1e-15)


_PAIRS = {  # name: (F, G, sign) of F' = G, G' = sign F, and which of the two it is
    "exp": (math.exp, math.exp, 1.0, 0),
    "sin": (math.sin, math.cos, -1.0, 0),
    "cos": (math.sin, math.cos, -1.0, 1),
    "sinh": (math.sinh, math.cosh, 1.0, 0),
    "cosh": (math.sinh, math.cosh, 1.0, 1),
}


def _dot_jet(name, a):
    fn, gn, sign, which = _PAIRS[name]
    return dot_paired(a, fn, gn, sign)[which].coeffs


@pytest.mark.parametrize("center", [0.0, 0.3])
@pytest.mark.parametrize("order", [12, 30, 48])
@pytest.mark.parametrize("name", _GENERATORS)
def test_useries_generators_keep_the_bits_of_the_dot_recurrence(name, order, center):
    # Affine arguments and a0 + a2 (u - u0)^2 have one nonzero coefficient
    # of a', so the dot product over all j < k added one product to zeros,
    # whatever the BLAS kernel's order: the float loop gives its bits, and
    # its zero signs (the zero and -u arguments make zeros of both signs).
    u = USeries.variable(order, center)
    t = u - center
    for a in (u, -u, 0.0 * u, 1.3 * u + 0.4, -2.5 * u - 0.7, 0.8 * (t * t) - 0.2, -(t * t), 0.5 * (t * t)):
        got, want = getattr(a, name)().coeffs, _dot_jet(name, a)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), a.coeffs[:3]


@pytest.mark.parametrize("center", [0.0, 0.3])
@pytest.mark.parametrize("order", [12, 30, 48])
@pytest.mark.parametrize("name", _GENERATORS)
def test_useries_generators_of_dense_arguments_agree_with_the_dot_recurrence(name, order, center):
    # With two or more nonzero coefficients of a' the float loop adds them in
    # the dot's order but rounds each product, where an FMA kernel's dot may
    # fuse one: the two agree to roundoff.
    u = USeries.variable(order, center)
    for a in (0.3 + 0.7 * u + 0.2 * (u * u), u.exp(), u.sin() + 0.5, 0.5 * u.cosh()):
        got, want = getattr(a, name)().coeffs, _dot_jet(name, a)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_useries_division_matches_a_triangular_toeplitz_solve():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(4)
    for order in range(1, 49):
        a = rng.uniform(-1.0, 1.0, order + 1)
        b = rng.uniform(-0.5, 0.5, order + 1)
        b[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        lag = np.subtract.outer(np.arange(order + 1), np.arange(order + 1))
        toeplitz = np.where(lag >= 0, b[np.maximum(lag, 0)], 0.0)
        want = solve_triangular(toeplitz, a, lower=True)
        got = (USeries(a, 0.3) / USeries(b, 0.3)).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))


def test_useries_division_and_sqrt():
    u = USeries.variable(8, 0.0)
    t = u.sinh() / u.cosh()
    # tanh coefficients: t - t^3/3 + 2 t^5 / 15 - 17 t^7 / 315
    assert np.allclose(
        t.coeffs,
        [0, 1, 0, -1 / 3, 0, 2 / 15, 0, -17 / 315, 0],
        atol=1e-14,
    )
    s = (1.0 + u * u).sqrt()
    assert np.allclose((s * s).coeffs, (1.0 + u * u).coeffs, atol=1e-14)
    with pytest.raises(DomainError, match="negative leading value"):
        (u * u - 1.0).sqrt()


# ---------------------------------------------------------------------------
# the stacked jet product


def _sequential_product(a, b):
    # 0.0 + a_0 b_k + a_1 b_(k-1) + ... + a_k b_0 on Python floats, at the lower order.
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        s = 0.0
        for j in range(k + 1):
            s += float(a[j]) * float(b[k - j])
        out.append(s)
    return np.array(out)


def _jets_with_zeros(rng, shape):
    # Coefficients over many magnitudes, with exact zeros of both signs.
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


@pytest.mark.parametrize("k", [1, 2, 14, 32, 50])
def test_jet_product_has_the_same_bits_alone_and_in_every_stack(k):
    # The sum in its documented order, zero signs included, whether a
    # product is made alone, as a USeries product, in a stack of rows (the
    # curve jets' two calls), with a broadcast operand, or from strided views.
    from bjorling.solver import _LEFT, _RIGHT

    rng = np.random.default_rng(k)
    for _ in range(4):
        a, b = _jets_with_zeros(rng, k), _jets_with_zeros(rng, k)
        want = _sequential_product(a, b)
        assert jet_product(a, b).tobytes() == want.tobytes()
        assert (USeries(a) * USeries(b)).coeffs.tobytes() == want.tobytes()
        rows = _jets_with_zeros(rng, (6, k))
        stacked = jet_product(rows[_LEFT], rows[_RIGHT])
        for got, s, t in zip(stacked, _LEFT, _RIGHT):
            assert got.tobytes() == _sequential_product(rows[s], rows[t]).tobytes()
        coframe, velocity = _jets_with_zeros(rng, (3, 3, k)), _jets_with_zeros(rng, (3, k))
        broadcast = jet_product(coframe, velocity)
        assert broadcast.shape == (3, 3, k)
        for i in range(3):
            for j in range(3):
                assert broadcast[i, j].tobytes() == _sequential_product(coframe[i, j], velocity[j]).tobytes()
        columns = np.asfortranarray(rows)  # strided rows
        assert jet_product(columns[:3], columns[3:]).tobytes() == jet_product(rows[:3], rows[3:]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 14, 32, 50])
def test_jet_product_takes_the_lower_order(k):
    # A product of jets of mixed lengths is that of both cut to the shorter
    # one, and coefficient i of a longer product, or of zero-padded rows,
    # has the bits of the product at order i: the padding is never read.
    rng = np.random.default_rng(100 + k)
    a, b = _jets_with_zeros(rng, k + 5), _jets_with_zeros(rng, k + 5)
    short = jet_product(a[:k], b[:k])
    assert jet_product(a[:k], b).tobytes() == short.tobytes()
    assert jet_product(a, b[:k]).tobytes() == short.tobytes()
    assert jet_product(a, b)[:k].tobytes() == short.tobytes()
    padded = np.zeros((2, k + 5))
    padded[0, :k], padded[1, : k + 3] = a[:k], b[: k + 3]
    assert jet_product(padded[:1], padded[1:])[0, :k].tobytes() == short.tobytes()


@pytest.mark.parametrize("k", [1, 2, 14, 32, 50])
def test_jet_product_reaches_the_coefficients_convolve_reaches(k):
    # One inf, -inf or NaN coefficient in either factor makes exactly the
    # coefficients np.convolve makes infinite or NaN, so overflowing data
    # meet the same refusal: no structural zero times a later coefficient.
    rng = np.random.default_rng(200 + k)
    a, b = _jets_with_zeros(rng, k), _jets_with_zeros(rng, k)
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(k):
            for factor in (0, 1):
                x, y = a.copy(), b.copy()
                (x, y)[factor][i] = bad
                with np.errstate(invalid="ignore"):
                    got, want = jet_product(x, y), np.convolve(x, y)[:k]
                assert np.array_equal(np.isnan(got), np.isnan(want)), (bad, i, factor)
                assert np.array_equal(np.isinf(got), np.isinf(want)), (bad, i, factor)


def test_ode_taylor_exponential():
    y = ode_taylor(lambda w: w, 1.0, 5)
    assert np.allclose(y.coeffs, [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120], atol=1e-15)


def test_ode_taylor_helicoid_profile_constraint():
    # radial profile: y' = sqrt((y^2/2 - c)^2 - y^2) with c = -1, y(0) = 1
    c = -1.0
    rho = ode_taylor(lambda y: ((0.5 * (y * y) - c) ** 2 - y * y).sqrt(), 1.0, 13)
    assert rho.coeffs[1] == pytest.approx(math.sqrt(1.25), abs=1e-15)
    # the defining constraint holds as a series identity
    rho_d = rho.deriv()
    lhs = (rho_d * rho_d + rho * rho).sqrt()
    rhs = 0.5 * (rho * rho) - c
    assert (lhs - rhs).maxabs() <= 1e-12


def test_ode_taylor_saddle_profile_slope():
    c, q0 = 1.0, 0.5
    q = ode_taylor(lambda w: (16.0 * c * c * (w * w) - c * c).sqrt(), q0, 8)
    assert q.coeffs[1] == pytest.approx(math.sqrt(3.0), abs=1e-14)


# ---------------------------------------------------------------------------
# bivariate arithmetic


def test_product_of_u_and_v():
    n = 3
    a = variable_u(n)
    b = variable_v(n)
    prod = a * b
    want = np.zeros((4, 4))
    want[1, 1] = 1.0
    assert np.array_equal(prod.coeffs, want)


def _one_hot_products(x, y):
    # Every product x[s] * y[t] as the weighted kernel's one-hot sums, (p, q, n+1, n+1).
    p, q, n1 = len(x), len(y), x.shape[-1]
    return pair_products(x, y, np.eye(p * q).reshape(p * q, p, q)).reshape(p, q, n1, n1)


@pytest.mark.parametrize("stacks", [(1, 1), (2, 3), (6, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("order", [0, 1, 2, 12, 30, 48])
def test_pair_products_match_reference(order, stacks):
    rng = np.random.default_rng(order)
    triangle = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    x, y = (rng.uniform(-1.0, 1.0, (k, order + 1, order + 1)) * triangle for k in stacks)
    got = _one_hot_products(x, y)
    assert got.shape == (*stacks, order + 1, order + 1)
    for s in range(stacks[0]):
        for t in range(stacks[1]):
            want = reference_product(x[s], y[t])
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got[s, t] - want)) <= 1e-13 * max(1.0, scale)


@pytest.mark.parametrize("stacks", [(1, 1), (2, 3), (6, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_pair_products_match_naive_product_at_every_order(stacks):
    # Orders 0 to 48 cover every band edge of the banded kernel.
    rng = np.random.default_rng(10 * stacks[0] + stacks[1])
    for order in range(49):
        degree = np.add.outer(np.arange(order + 1), np.arange(order + 1))
        shapes = [(k, order + 1, order + 1) for k in stacks]
        x, y = (rng.uniform(-1.0, 1.0, shape) * (degree <= order) for shape in shapes)
        got = _one_hot_products(x, y)
        want = naive_products(x, y)
        assert got.shape == want.shape
        assert np.all(got[..., degree > order] == 0.0), order
        scale = np.max(np.abs(want), axis=(2, 3))
        assert np.all(np.max(np.abs(got - want), axis=(2, 3)) <= 1e-13 * scale), order


# One to thirteen bands: orders 12 and 13 sit on either side of the first
# band edge, 48 is the largest order a problem may ask for.
@pytest.mark.parametrize("order", [0, 1, 2, 12, 13, 30, 44, 48])
def test_weighted_pair_products_sum_the_unweighted_products(order):
    rng = np.random.default_rng(100 + order)
    triangle = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    x = rng.uniform(-1.0, 1.0, (6, order + 1, order + 1)) * triangle
    y = rng.uniform(-1.0, 1.0, (5, order + 1, order + 1)) * triangle
    products = _one_hot_products(x, y)
    # A dense weight row, a sparse one with the certificate's kind of
    # weights (0, +-1, +-1/2), a one-hot row per chosen pair and a zero row.
    pairs = [(0, 0), (2, 3), (5, 4)]
    weights = np.zeros((3 + len(pairs), 6, 5))
    weights[0] = rng.normal(size=(6, 5))
    weights[1] = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -0.5], size=(6, 5))
    for row, pair in enumerate(pairs, start=3):
        weights[(row, *pair)] = 1.0
    got = pair_products(x, y, weights)
    assert got.shape == (len(weights), order + 1, order + 1)
    want = np.tensordot(weights, products, axes=([1, 2], [0, 1]))
    scale = np.tensordot(np.abs(weights), np.max(np.abs(products), axis=(2, 3)), axes=2)
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-15 * scale)
    assert np.all(got[2] == 0.0)
    for row, pair in enumerate(pairs, start=3):
        assert np.array_equal(got[row], products[pair])


@pytest.mark.parametrize("pairs", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 12, 13, 30, 44, 48])
def test_table_products_make_each_pair_as_if_alone(order, pairs):
    # Each pair's product has the bits of the same pair alone, and of the
    # banded kernel's two-dimensional matmul, which BiSeries products were
    # made by before; and it is the naive product to roundoff.
    rng = np.random.default_rng(200 + 3 * order + pairs)
    triangle = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    x, y = (rng.uniform(-1.0, 1.0, (pairs, order + 1, order + 1)) * triangle for _ in range(2))
    got = table_products(x, y)
    assert got.shape == x.shape and np.all(got[:, ~triangle] == 0.0)
    for k in range(pairs):
        alone = table_products(x[k : k + 1], y[k : k + 1])[0]
        assert np.array_equal(got[k], alone) and np.array_equal(np.signbit(got[k]), np.signbit(alone))
        assert np.array_equal(got[k], band_pair_products(x[k : k + 1], y[k : k + 1])[0, 0])
        want = naive_products(x[k : k + 1], y[k : k + 1])[0, 0]
        assert np.max(np.abs(got[k] - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
    product = BiSeries(x[0], 0.5) * BiSeries(y[0], 0.5)
    assert product.center == 0.5 and np.array_equal(product.coeffs, got[0])


def test_split_difference_of_squares():
    n = 3
    one_plus = KSeries(BiSeries.constant(1.0, n), variable_u(n), P)
    one_minus = KSeries(BiSeries.constant(1.0, n), -variable_u(n), P)
    prod = one_plus * one_minus
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[2, 0] = -1.0
    assert np.allclose(prod.re.coeffs, want, atol=1e-15)
    assert prod.im.maxabs() == 0.0


def test_complex_sum_of_squares():
    n = 3
    one_plus = KSeries(BiSeries.constant(1.0, n), variable_u(n), C)
    one_minus = KSeries(BiSeries.constant(1.0, n), -variable_u(n), C)
    prod = one_plus * one_minus
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[2, 0] = 1.0
    assert np.allclose(prod.re.coeffs, want, atol=1e-15)


def test_center_mismatch_rejected():
    with pytest.raises(ValueError, match="center"):
        variable_u(3, 0.0) * variable_u(3, 1.0)


def test_mode_mismatch_rejected():
    a = KSeries.variable_z(3, 0.0, P)
    b = KSeries.variable_z(3, 0.0, C)
    with pytest.raises(ValueError, match="mode"):
        a * b


# ---------------------------------------------------------------------------
# derivatives


def test_dzbar_annihilates_z_paracomplex():
    z = KSeries.variable_z(4, 0.0, P)
    assert z.dzbar().maxabs() == 0.0
    assert (z.dz() - 1.0).maxabs() == 0.0


def test_dzbar_of_conjugate_variable():
    zbar = KSeries(variable_u(4), -variable_v(4), P)
    d = zbar.dzbar()
    assert (d - 1.0).maxabs() == 0.0


def test_du_of_u_squared_v():
    f = variable_u(4) * variable_u(4) * variable_v(4)
    g = f.du()
    want = np.zeros((4, 4))
    want[1, 1] = 2.0
    assert np.array_equal(g.coeffs, want)


def test_partials_commute():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((7, 7))
    f = BiSeries(c, 0.3)
    assert (f.du().dv() - f.dv().du()).maxabs() == 0.0


# ---------------------------------------------------------------------------
# split Cauchy-Riemann


def test_para_cr_zero_for_powers_of_z():
    z = KSeries.variable_z(6, 0.0, P)
    assert para_cr_residual(z * z) == 0.0


def test_para_cr_detects_non_analytic():
    f = KSeries(variable_u(4), zero_series(4), P)
    assert para_cr_residual(f) == pytest.approx(1.0)


def test_para_cr_split_cosh_from_oracle():
    # cosh of u + j*v has parts cosh(u)cosh(v) and sinh(u)sinh(v)
    re, im = split_cosh_parts(6)
    f = KSeries(BiSeries(re), BiSeries(im), P)
    assert para_cr_residual(f) <= 1e-14


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=30)
def test_analytic_iff_dzbar_zero_on_monomials(p, q):
    z = KSeries.variable_z(8, 0.0, P)
    f = KSeries.constant(KScalar(1.0, 0.0, P), 8, 0.0)
    for _ in range(p):
        f = f * z
    assert para_cr_residual(f) <= 1e-12 * max(1.0, f.maxabs())


# ---------------------------------------------------------------------------
# bivariate arithmetic for polynomial frame entries


@pytest.mark.parametrize("exponent", [0, 1, 2, 5])
def test_biseries_integer_power_is_repeated_product(exponent):
    a = BiSeries(np.random.default_rng(exponent).uniform(-1.0, 1.0, (7, 7)), 0.2)
    want = BiSeries.constant(1.0, 6, 0.2)
    for _ in range(exponent):
        want = want * a
    assert ((a**exponent) - want).maxabs() <= 1e-14 * max(1.0, want.maxabs())


def test_biseries_division_by_a_number_only():
    a = BiSeries(np.random.default_rng(3).uniform(-1.0, 1.0, (5, 5)), 0.0)
    assert np.array_equal((a / 4).coeffs, (a * 0.25).coeffs)
    # No series quotient or negative power: a frame entry using one has no
    # expansion the rebuild can march.
    for bad in (lambda: 1.0 / a, lambda: a / a, lambda: a**-1, lambda: a**0.5):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("kind", [USeries, BiSeries, TapeNode])
def test_derived_ring_operators(kind):
    # Differences, negation, reflected operands and powers come from each
    # type's own + and *; they must equal the explicit coefficient arithmetic.
    if kind is TapeNode:
        # x ** k is x times x ** (k - 1) by repeated squaring, never 1 * x:
        # k - 1 products up to k = 4, and x * (x*x)*(x*x) for k = 5.  The
        # tape records A(x) w, so one more product takes x ** k times w1: for
        # k = 0, the constant 1 times w1.
        given = np.zeros((3, 3, 3))
        for k, count in enumerate([0, 0, 1, 2, 3, 3]):
            tape = FrameTape(lambda x: ((x[0] ** k, 0, 0), (0, 1, 0), (0, 0, 1)), given, (3, 3))
            *powers, (left, right) = tape.products
            assert len(powers) == count and right == {4: 1.0} and (left == {0: 1.0}) == (k == 0), k
            assert all(0 not in terms for pair in powers for terms in pair), k
        # The affine operators record no product; each entry that is a node
        # is one product with its w_j, whose left operand has the explicit weights.
        rows = lambda x: ((-x[0], 3 - x[1], x[2] / 2), (x[0] - x[1], 2 * x[2], 1), (0, 0, 1))
        tape = FrameTape(rows, given, (3, 3))
        want = [[0, -1, 0, 0], [3, 0, -1, 0], [0, 0, 0, 0.5], [0, 1, -1, 0], [0, 0, 0, 2]]
        assert [[left.get(k, 0.0) for k in range(4)] for left, _ in tape.products] == want
        assert [right for _, right in tape.products] == [{4: 1.0}, {5: 1.0}, {6: 1.0}, {4: 1.0}, {5: 1.0}]
        return
    d, rng = kind.NDIM, np.random.default_rng(11)
    a, b = kind(rng.uniform(-1.0, 1.0, (8,) * d), 0.25), kind(rng.uniform(-1.0, 1.0, (6,) * d), 0.25)
    c, one = b.coeffs, kind.constant(1.0, 5).coeffs
    cut = a.coeffs[(slice(6),) * d] * (np.add.outer(np.arange(6), np.arange(6)) <= 5 if d == 2 else 1)
    if d == 1:
        times = jet_product
    else:
        times = lambda x, y: table_products(x[None], y[None])[0]
    c2 = times(c, c)
    cases = [(a - b, cut - c), (b - 3, c - 3 * one), (3 - b, 3 * one - c), (-b, -c), (2 * b, 2 * c)]
    powers = [one, c, c2, times(c, c2), times(c2, c2), times(c, times(c2, c2))]
    cases += zip([b**k for k in range(6)], powers)
    for got, want in cases:
        assert type(got) is kind and got.center == 0.25 and np.array_equal(got.coeffs, want)


# ---------------------------------------------------------------------------
# square roots


def test_sqrt_of_perfect_square():
    one_plus_u = KSeries(BiSeries.constant(1.0, 4) + variable_u(4), zero_series(4), P)
    sq = one_plus_u * one_plus_u
    r = reference_sqrt(sq, KScalar(1.0, 0.0, P))
    assert (r - one_plus_u).maxabs() <= 1e-14


def test_sqrt_split_hyperbolic_target():
    # square cosh(u) + j sinh(u), then recover it from the branch at 0
    n = 6
    cu = from_univariate_u(USeries.variable(n).cosh(), n)
    su = from_univariate_u(USeries.variable(n).sinh(), n)
    target = KSeries(cu, su, P)
    sq = target * target
    r = reference_sqrt(sq, KScalar(1.0, 0.0, P))
    assert (r - target).maxabs() <= 1e-13


# ---------------------------------------------------------------------------
# constancy from vanishing derivatives


@given(st.integers(0, 30), st.sampled_from([P, C]))
@settings(max_examples=15)
def test_dz_and_dzbar_zero_imply_constant(seed, mode):
    # du = dz + dzbar and dv = +-unit (dz - dzbar), so if both vanish the
    # series has no nonconstant coefficients at all; check the identities
    rng = np.random.default_rng(seed)
    f = KSeries(
        BiSeries(rng.standard_normal((6, 6)), 0.0),
        BiSeries(rng.standard_normal((6, 6)), 0.0),
        mode,
    )
    sum_parts = f.dz() + f.dzbar()
    assert (sum_parts - f.du()).maxabs() <= 1e-13
    diff = f.dz() - f.dzbar()
    unit_mul = KSeries(diff.im, diff.re, mode) if mode is P else KSeries(
        -1.0 * diff.im, diff.re, mode
    )
    assert (unit_mul - f.dv()).maxabs() <= 1e-13
    # and a genuine constant has both derivatives identically zero
    g = KSeries.constant(KScalar(2.0, -1.0, mode), 5, 0.0)
    assert g.dz().maxabs() == 0.0 and g.dzbar().maxabs() == 0.0


def test_eval_and_grid_agree():
    rng = np.random.default_rng(3)
    f = BiSeries(rng.standard_normal((6, 6)), 0.4)
    us = np.linspace(-0.5, 0.5, 4)
    vs = np.linspace(-0.3, 0.3, 3)
    grid = f.eval_grid(us, vs)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert grid[i, j] == pytest.approx(f.eval(u, v), abs=1e-13)


@pytest.mark.parametrize("order", [0, 1, 12, 30, 48])
@pytest.mark.parametrize(
    "x",
    [
        np.linspace(-1.3, 1.3, 17),
        np.array([-0.0, 0.0, 1e-300, -2.5, 1e5]),
        np.random.default_rng(5).uniform(-2.0, 2.0, (7, 4)),
        np.array(0.7),
    ],
    ids=["grid", "edges", "2d", "0d"],
)
def test_power_table_is_polyvander_bit_for_bit_and_stride_for_stride(x, order):
    # Equal values are not enough: the strides set which transposition BLAS
    # is asked for, and so which kernel runs and the last bits of every
    # report product with the table.  A C-ordered table of the same values
    # moved report values.
    want = polyvander(x, order)
    got = power_table(x, order)
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("order", [0, 12, 30])
def test_eval_matches_polyval2d(order):
    rng = np.random.default_rng(order)
    f = BiSeries(rng.standard_normal((order + 1, order + 1)), 0.4)
    tol = 1e-13 * max(1.0, float(np.sum(np.abs(f.coeffs))))

    def want(u, v):
        return polyval2d(np.asarray(u) - 0.4, np.asarray(v), f.coeffs)

    value = f.eval(0.1, -0.2)
    assert isinstance(value, float) and not isinstance(value, np.ndarray)
    assert abs(value - want(0.1, -0.2)) <= tol

    u = rng.uniform(-0.5, 1.3, (17, 9))
    v = rng.uniform(-0.5, 0.5, (17, 9))
    got = f.eval(u, v)
    assert got.shape == (17, 9)
    assert np.max(np.abs(got - want(u, v))) <= tol

    us, vs = np.linspace(-0.5, 1.3, 17), np.linspace(-0.5, 0.5, 9)
    grid = want(*np.meshgrid(us, vs, indexing="ij"))
    for got in (f.eval(us[:, None], vs[None, :]), f.eval_grid(us, vs)):
        assert got.shape == (17, 9)
        assert np.max(np.abs(got - grid)) <= tol
