import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjorling.config import Mode
from bjorling.errors import NotInvertible
from kalgebra import KScalar, kconst, kunit

P = Mode.PARACOMPLEX
C = Mode.COMPLEX


def close(a: KScalar, b: KScalar, tol=1e-12):
    scale = max(1.0, abs(a.re), abs(a.im), abs(b.re), abs(b.im))
    return max(abs(a.re - b.re), abs(a.im - b.im)) <= tol * scale


def test_split_unit_squares_to_one():
    assert kunit(P) * kunit(P) == kconst(1.0, P)


def test_complex_unit_squares_to_minus_one():
    assert kunit(C) * kunit(C) == kconst(-1.0, C)


def test_product_expansion_paracomplex():
    assert KScalar(1, 2, P) * KScalar(3, 1, P) == KScalar(5, 7, P)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError, match="mode mismatch"):
        KScalar(1, 0, P) * KScalar(1, 0, C)


def test_conjugation_and_modulus():
    z = KScalar(1, 1, P)
    assert z.conj() == KScalar(1, -1, P)
    assert z.sq_mod() == 0.0
    assert z.is_zero_divisor()

    w = KScalar(2, 1, P)
    assert w.conj() == KScalar(2, -1, P)
    assert w.sq_mod() == 3.0
    assert not w.is_zero_divisor()

    q = KScalar(3, 4, C)
    assert q.conj() == KScalar(3, -4, C)
    assert q.sq_mod() == 25.0
    assert not q.is_zero_divisor()


def test_inverse_values():
    assert close(KScalar(2, 0, P).inverse(), KScalar(0.5, 0, P))
    assert close(KScalar(2, 1, P).inverse(), KScalar(2 / 3, -1 / 3, P))
    with pytest.raises(NotInvertible):
        KScalar(1, 1, P).inverse()
    with pytest.raises(NotInvertible):
        KScalar(0, 0, C).inverse()


def test_split_map_values():
    assert KScalar(1, 2, P).split() == (3.0, -1.0)
    assert KScalar(1, 0, P).split() == (1.0, 1.0)
    z = KScalar(1, 1, P) * KScalar(1, -1, P)
    assert z.split() == (0.0, 0.0)
    # componentwise product of the factors' images
    p1, q1 = KScalar(1, 1, P).split()
    p2, q2 = KScalar(1, -1, P).split()
    assert (p1 * p2, q1 * q2) == (0.0, 0.0)


def test_split_map_complex_mode_rejected():
    with pytest.raises(ValueError):
        KScalar(1, 2, C).split()


def test_sqrt_paracomplex_and_failure():
    z = KScalar(2, 1, P)
    r = z.sqrt()
    assert close(r * r, z, 1e-14)
    with pytest.raises(ValueError, match="no invertible"):
        KScalar(1, 1, P).sqrt()  # zero divisor
    with pytest.raises(ValueError, match="no invertible"):
        KScalar(-1, 0, P).sqrt()  # negative split components


def test_sqrt_complex():
    z = KScalar(-3, 4, C)
    r = z.sqrt()
    assert close(r * r, z, 1e-14)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
modes = st.sampled_from([P, C])


@given(finite, finite, finite, finite, finite, finite, modes)
def test_ring_axioms(a, b, c, d, e, f, mode):
    x, y, z = KScalar(a, b, mode), KScalar(c, d, mode), KScalar(e, f, mode)
    assert close((x * y) * z, x * (y * z))
    assert close(x * (y + z), x * y + x * z)
    assert close(x * y, y * x)


@given(finite, finite, finite, finite)
def test_split_is_an_isomorphism(a, b, c, d):
    x, y = KScalar(a, b, P), KScalar(c, d, P)
    px, qx = x.split()
    py, qy = y.split()
    pm, qm = (x * y).split()
    scale = max(1.0, abs(pm), abs(qm))
    assert abs(pm - px * py) <= 1e-12 * scale
    assert abs(qm - qx * qy) <= 1e-12 * scale
    ps, qs = (x + y).split()
    assert abs(ps - (px + py)) <= 1e-12 * max(1.0, abs(ps))
    assert abs(qs - (qx + qy)) <= 1e-12 * max(1.0, abs(qs))


@given(finite, finite, modes)
@settings(max_examples=200)
def test_inverse_round_trip(a, b, mode):
    z = KScalar(a, b, mode)
    if abs(z.sq_mod()) < 1e-3:
        return
    w = z.inverse()
    assert close(z * w, kconst(1.0, mode), 1e-12)
    assert close(w.inverse(), z, 1e-10)


@given(finite, finite, finite, finite, modes)
def test_sq_mod_is_multiplicative(a, b, c, d, mode):
    x, y = KScalar(a, b, mode), KScalar(c, d, mode)
    lhs = (x * y).sq_mod()
    rhs = x.sq_mod() * y.sq_mod()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
