import numpy as np
import pytest

from bjorling.slices import SkewPad, cauchy_slice, matvec_slice, product_slice
from oracles import convolve_slice


def _triangular(rng, *lead, order):
    # Random tables with every coefficient of total degree > order zero.
    tables = rng.standard_normal(lead + (order + 1, order + 1))
    degree = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    return np.where(degree <= order, tables, 0.0)


def _levels(order):
    return [(level, order + 1 - level) for level in range(order + 1)]


def _matvec_reference(a, y, level, rows):
    # Entry [k, i] is sum_j a[i, j] * y[k, j]; the second array is the same
    # sum over absolute values, the scale of its roundoff.
    out = np.zeros((2, len(y), len(a), rows))
    for k, i in np.ndindex(len(y), len(a)):
        for j in range(a.shape[1]):
            out[0, k, i] += convolve_slice(a[i, j], y[k, j], level, rows)
            out[1, k, i] += convolve_slice(abs(a[i, j]), abs(y[k, j]), level, rows)
    return out


def _close(got, want):
    assert got.shape == want[0].shape
    assert np.max(np.abs(got - want[0])) <= 1e-14 * np.max(want[1])


@pytest.mark.parametrize("order", [2, 12, 30])
def test_cauchy_slice_matches_convolutions(order):
    rng = np.random.default_rng(order)
    x, y = _triangular(rng, 4, order=order), _triangular(rng, 3, order=order)
    pad = SkewPad((4, 3), order + 1)
    for level, rows in _levels(order):
        want = _matvec_reference(x[:, None], y[:, None], level, rows).transpose(0, 2, 1, 3)
        _close(cauchy_slice(x, y, level, rows, pad), want)


@pytest.mark.parametrize("order", [2, 12, 30])
def test_matvec_slice_matches_convolutions(order):
    # The rebuild's shapes: a 3 x 3 matrix of tables times two 3-vectors.
    rng = np.random.default_rng(order)
    a, y = _triangular(rng, 3, 3, order=order), _triangular(rng, 2, 3, order=order)
    pad = SkewPad((2, 3), order + 1)
    for level, rows in _levels(order):
        _close(matvec_slice(a, y, level, rows, pad), _matvec_reference(a, y, level, rows))


@pytest.mark.parametrize("order", [2, 12, 30])
def test_product_slice_matches_convolutions(order):
    rng = np.random.default_rng(order)
    x, y = _triangular(rng, 5, order=order), _triangular(rng, 5, order=order)
    pad = SkewPad((5,), order + 1)
    for level, rows in _levels(order):
        want = _matvec_reference(x[:, None], y[:, None], level, rows)
        _close(product_slice(x, y, level, rows, pad), np.einsum("akkm->akm", want))


def _paired_stack(order):
    # Six tables with table 5 equal to table 0 and table 3 equal to table 2,
    # as the vertical plane's frame data have them.
    stack = _triangular(np.random.default_rng(7), 6, order=order)
    stack[5], stack[3] = stack[0], stack[2]
    return stack


@pytest.mark.parametrize("order", [12, 30, 44])
def test_equal_tables_give_equal_bits_in_every_position(order):
    # The vertical plane's psi2 stays exactly 0 only if a product of equal
    # tables has the same bits wherever it sits in a slice.
    t = _paired_stack(order)
    # The rebuild's shapes: row 2 of a equals row 0, and y[1] equals y[0].
    a = t[[[0, 1, 2], [4, 1, 3], [5, 1, 3]]]
    y = t[[[2, 4, 0], [3, 4, 5]]]
    march_pad, rebuild_pad = SkewPad((6, 6), order + 1), SkewPad((2, 3), order + 1)
    for level, rows in _levels(order):
        march = cauchy_slice(t, t, level, rows, march_pad)
        assert np.array_equal(march[2, 0], march[3, 5])
        assert np.array_equal(march[0, 2], march[5, 3])
        rebuild = matvec_slice(a, y, level, rows, rebuild_pad)
        for k, i in [(0, 2), (1, 0), (1, 2)]:
            assert np.array_equal(rebuild[k, i], rebuild[0, 0])


# Each kernel with the lead shapes of its two operands and of its buffer.
_KERNELS = {
    "cauchy": (cauchy_slice, (6,), (6,), (6, 6)),
    "matvec": (matvec_slice, (3, 3), (2, 3), (2, 3)),
    "product": (product_slice, (4,), (4,), (4,)),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("order", [12, 30])
def test_kept_buffer_gives_the_bits_of_a_fresh_one(kernel, order):
    # One buffer kept over rows that shrink to 1 and grow back gives the
    # bits of a fresh zeroed buffer of each call's own size.  The tables
    # are full, so a stale product read from an earlier call would show.
    fn, x_lead, y_lead, lead = _KERNELS[kernel]
    rng = np.random.default_rng(order)
    x, y = (rng.standard_normal(shape + (order + 1, order + 1)) for shape in (x_lead, y_lead))
    kept = SkewPad(lead, order + 1)
    sizes = [*range(order + 1, 0, -1), *range(2, order + 2)]
    for step, rows in enumerate(sizes):
        level = (7 * step) % (order + 1)
        want = fn(x, y, level, rows, SkewPad(lead, rows))
        assert np.array_equal(fn(x, y, level, rows, kept), want)
