import numpy as np
import pytest

from bjorling.slices import FrameTape, SkewPad, slice_products
from oracles import convolve_slice, reference_product


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
def test_slice_of_every_pair_matches_convolutions(order):
    # The march's lead: x[:, None] against y pairs every x[i] with every y[k].
    rng = np.random.default_rng(order)
    x, y = _triangular(rng, 4, order=order), _triangular(rng, 3, order=order)
    pad = SkewPad((4, 3), order + 1)
    for level, rows in _levels(order):
        want = _matvec_reference(x[:, None], y[:, None], level, rows).transpose(0, 2, 1, 3)
        _close(slice_products(x[:, None], y, level, rows, pad), want)


@pytest.mark.parametrize("order", [2, 12, 30])
def test_slice_of_paired_stacks_matches_convolutions(order):
    # The tape's lead: two stacks of one length pair x[k] with y[k].
    rng = np.random.default_rng(order)
    x, y = _triangular(rng, 5, order=order), _triangular(rng, 5, order=order)
    pad = SkewPad((5,), order + 1)
    for level, rows in _levels(order):
        want = _matvec_reference(x[:, None], y[:, None], level, rows)
        _close(slice_products(x, y, level, rows, pad), np.einsum("akkm->akm", want))


def _test_frame(x):
    # Constants, affine entries, a product of two coordinates and a product
    # of a product (x1 x1) with a coordinate, as chart frames have them.
    x1, x2, x3 = x
    return ((1.0, x1 * x2, 0.0), (x3, 1.0, x1 * x1 * x2), (2.0 * x2 - x3, 0.0, 1.0))


def _test_frame_tables(x):
    # _test_frame on whole tables, each product by the oracle's truncated product.
    one = np.zeros_like(x[0])
    one[0, 0] = 1.0
    zero = np.zeros_like(x[0])
    x1, x2, x3 = x
    return np.array([
        [one, reference_product(x1, x2), zero],
        [x3, one, reference_product(reference_product(x1, x1), x2)],
        [2.0 * x2 - x3, zero, one],
    ])


@pytest.mark.parametrize("order", [2, 12, 30])
def test_tape_column_matches_convolutions(order):
    # The rebuild's right side A(x) w, filled one v-column per level on the
    # tape, against the sums of convolutions of whole product tables; the
    # roundoff scale is the same sums over the tables' absolute values.
    rng = np.random.default_rng(order)
    x, w = _triangular(rng, 3, order=order), _triangular(rng, 3, order=order)
    tape = FrameTape(_test_frame, w, x.shape[1:])
    tape.tables[1:4] = x
    assert len(tape.products) == 7  # x1 x2, x1 x1, (x1 x1) x2 and four A_ij w_j
    signed, scale = _test_frame_tables(x), _test_frame_tables(np.abs(x))
    for level, rows in _levels(order):
        want = _matvec_reference(signed, w[None], level, rows)[0, 0]
        bound = _matvec_reference(scale, np.abs(w)[None], level, rows)[0, 0]
        got = tape.column(level, rows)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(bound)


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
    # The rebuild tape's shapes: one depth's products A_ij * w_j, the first
    # and last of equal tables, into a buffer one size larger than the tables.
    x, y = t[[0, 1, 5]], t[[2, 4, 3]]
    march_pad, rebuild_pad = SkewPad((6, 6), order + 1), SkewPad((3,), order + 2)
    for level, rows in _levels(order):
        march = slice_products(t[:, None], t, level, rows, march_pad)
        assert np.array_equal(march[2, 0], march[3, 5])
        assert np.array_equal(march[0, 2], march[5, 3])
        rebuild = slice_products(x, y, level, rows, rebuild_pad)
        assert np.array_equal(rebuild[2], rebuild[0])


# Each use of the kernel with the lead shapes of its two operands and of its
# buffer, and how many sizes its tables and kept buffer exceed the longest
# rows: the march's lead (6, 1) pairs every table with every table, and the
# rebuild tape's tables and buffers are one size larger than its rows.
_KERNELS = {
    "cauchy": ((6, 1), (6,), (6, 6), 0),
    "product": ((4,), (4,), (4,), 0),
    "tape": ((3,), (3,), (3,), 1),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("order", [12, 30])
def test_kept_buffer_gives_the_bits_of_a_fresh_one(kernel, order):
    # One buffer kept over rows that shrink to 1 and grow back gives the
    # bits of a fresh zeroed buffer of each call's own size.  The tables
    # are full, so a stale product read from an earlier call would show.
    x_lead, y_lead, lead, margin = _KERNELS[kernel]
    rng = np.random.default_rng(order)
    size = order + 1 + margin
    x, y = (rng.standard_normal(shape + (size, size)) for shape in (x_lead, y_lead))
    kept = SkewPad(lead, size)
    sizes = [*range(order + 1, 0, -1), *range(2, order + 2)]
    for step, rows in enumerate(sizes):
        level = (7 * step) % (order + 1)
        want = slice_products(x, y, level, rows, SkewPad(lead, rows))
        assert np.array_equal(slice_products(x, y, level, rows, kept), want)
