"""Closed-form algebra for the tests and oracles.

The library computes the frame system on (re, unit) coefficient tables
only.  The tests write closed forms, and the oracles their references, in
the objects here instead: one number ``a + unit*b`` (``KScalar``) and one
algebra-valued bivariate series (``KSeries``, a pair of ``BiSeries``),
where the unit squares to -1 (complex mode) or to +1 (paracomplex, also
called split-complex or Lorentz numbers).  The split-complex plane
contains zero divisors ``a +- unit*a``, so inversion and square roots
carry explicit guards instead of relying on exceptions from float
division.

It also holds the real-series constructors and the grid check that only
the tests use (the library builds its tables directly): the zero series,
the coordinates u and v, univariate jets as functions of u or of v, and
``graph_identity_residual``; and ``frame_jet_from_coords``, the coframe
applied to coordinate jets along a curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from bjorling.config import Mode
from bjorling.errors import NotInvertible
import numpy as np

from bjorling.series import BiSeries, USeries, grid_values, table_stack

# Relative band used to decide "this squared modulus is numerically zero".
ZERO_DIVISOR_RTOL = 1e-12


def _zero_band(re: float, im: float) -> float:
    return ZERO_DIVISOR_RTOL * max(1.0, re * re + im * im)


@dataclass(frozen=True)
class KScalar:
    """One number ``re + unit*im`` with an explicit mode tag.

    Values are immutable; binary operations require equal modes.
    """

    re: float
    im: float
    mode: Mode

    def _coerce(self, other) -> "KScalar":
        if isinstance(other, KScalar):
            if other.mode is not self.mode:
                raise ValueError(
                    f"mode mismatch: {self.mode.value} vs {other.mode.value}"
                )
            return other
        if isinstance(other, (int, float)):
            return KScalar(float(other), 0.0, self.mode)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return KScalar(self.re + o.re, self.im + o.im, self.mode)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return KScalar(self.re - o.re, self.im - o.im, self.mode)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        s = self.mode.unit_square
        return KScalar(
            self.re * o.re + s * self.im * o.im,
            self.re * o.im + self.im * o.re,
            self.mode,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return KScalar(-self.re, -self.im, self.mode)

    def conj(self) -> "KScalar":
        return KScalar(self.re, -self.im, self.mode)

    def sq_mod(self) -> float:
        """Squared modulus ``z * conj(z)`` as a real number.

        Nonnegative in complex mode; any sign in paracomplex mode.
        """
        return self.re * self.re - self.mode.unit_square * self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0.0 and self.im == 0.0

    def is_zero_divisor(self) -> bool:
        """True for nonzero paracomplex values on the null diagonals."""
        if self.mode is not Mode.PARACOMPLEX or self.is_zero():
            return False
        return abs(self.sq_mod()) <= _zero_band(self.re, self.im)

    def is_invertible(self) -> bool:
        return abs(self.sq_mod()) > _zero_band(self.re, self.im)

    def inverse(self) -> "KScalar":
        """Multiplicative inverse ``conj(z) / (z * conj(z))``.

        Raises NotInvertible for zero and, in paracomplex mode, for zero
        divisors (squared modulus inside the relative tolerance band).
        """
        q = self.sq_mod()
        if abs(q) <= _zero_band(self.re, self.im):
            raise NotInvertible(f"{self} has no inverse (squared modulus {q:g})")
        return KScalar(self.re / q, -self.im / q, self.mode)

    def split(self) -> tuple[float, float]:
        """Isomorphism onto R (+) R: ``a + u*b -> (a + b, a - b)``.

        Componentwise products on the right correspond to products on the
        left, which is what makes the zero divisors transparent.
        """
        if self.mode is not Mode.PARACOMPLEX:
            raise ValueError("split coordinates exist only in paracomplex mode")
        return (self.re + self.im, self.re - self.im)

    @staticmethod
    def from_split(p: float, q: float) -> "KScalar":
        return KScalar(0.5 * (p + q), 0.5 * (p - q), Mode.PARACOMPLEX)

    def sqrt(self) -> "KScalar":
        """An invertible square root, when one exists.

        Paracomplex roots exist iff both split components are positive;
        otherwise the candidate would be a zero divisor (or not exist) and
        ValueError is raised.  Complex mode uses the principal branch.
        """
        if self.mode is Mode.COMPLEX:
            w = cmath.sqrt(complex(self.re, self.im))
            out = KScalar(w.real, w.imag, Mode.COMPLEX)
            if not out.is_invertible():
                raise ValueError(f"square root of {self} is not invertible")
            return out
        p, q = self.split()
        band = _zero_band(self.re, self.im)
        if p <= band or q <= band:
            raise ValueError(f"{self} has no invertible paracomplex square root")
        return KScalar.from_split(math.sqrt(p), math.sqrt(q))

    def __repr__(self) -> str:
        unit = "j" if self.mode is Mode.PARACOMPLEX else "i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re:g} {sign} {abs(self.im):g}{unit})"


def kconst(value: float, mode: Mode) -> KScalar:
    return KScalar(float(value), 0.0, mode)


def kunit(mode: Mode) -> KScalar:
    return KScalar(0.0, 1.0, mode)


class KSeries:
    """Complex- or split-complex-valued bivariate series (a pair of tables),
    with the mode-dependent d/dz and d/dzbar operators."""

    __slots__ = ("re", "im", "mode")

    def __init__(self, re: BiSeries, im: BiSeries, mode: Mode):
        if re.center != im.center or re.order != im.order:
            raise ValueError("real and unit parts must share center and order")
        self.re = re
        self.im = im
        self.mode = mode

    @property
    def order(self) -> int:
        return self.re.order

    @property
    def center(self) -> float:
        return self.re.center

    @staticmethod
    def from_real(b: BiSeries, mode: Mode) -> "KSeries":
        return KSeries(b, zero_series(b.order, b.center), mode)

    @staticmethod
    def constant(value: KScalar, order: int, center: float = 0.0) -> "KSeries":
        return KSeries(
            BiSeries.constant(value.re, order, center),
            BiSeries.constant(value.im, order, center),
            value.mode,
        )

    @staticmethod
    def variable_z(order: int, center: float, mode: Mode) -> "KSeries":
        """The coordinate z = u + unit*v itself."""
        return KSeries(
            variable_u(order, center),
            variable_v(order, center),
            mode,
        )

    def _check(self, other: "KSeries") -> None:
        if other.mode is not self.mode:
            raise ValueError(
                f"mode mismatch: {self.mode.value} vs {other.mode.value}"
            )

    def truncated(self, order: int) -> "KSeries":
        return KSeries(self.re.truncated(order), self.im.truncated(order), self.mode)

    def __add__(self, other):
        if isinstance(other, KSeries):
            self._check(other)
            return KSeries(self.re + other.re, self.im + other.im, self.mode)
        if isinstance(other, (int, float, BiSeries)):
            return KSeries(self.re + other, self.im + 0.0 * self.im, self.mode)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return KSeries(-self.re, -self.im, self.mode)

    def __mul__(self, other):
        if isinstance(other, (int, float, BiSeries)):
            return KSeries(self.re * other, self.im * other, self.mode)
        if isinstance(other, (KSeries, KScalar)):
            self._check(other)
            s = self.mode.unit_square
            re = self.re * other.re + s * (self.im * other.im)
            im = self.re * other.im + self.im * other.re
            return KSeries(re, im, self.mode)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "KSeries":
        return KSeries(self.re, -self.im, self.mode)

    def du(self) -> "KSeries":
        return KSeries(self.re.du(), self.im.du(), self.mode)

    def dv(self) -> "KSeries":
        return KSeries(self.re.dv(), self.im.dv(), self.mode)

    def dz(self) -> "KSeries":
        """Holomorphic derivative for the mode's coordinate z = u + unit*v."""
        s = self.mode.unit_square
        a_v, b_v = self.re.dv(), self.im.dv()
        return KSeries(0.5 * (self.re.du() + b_v), 0.5 * (self.im.du() + s * a_v), self.mode)

    def dzbar(self) -> "KSeries":
        """Conjugate derivative; vanishing characterizes analyticity."""
        s = self.mode.unit_square
        a_v, b_v = self.re.dv(), self.im.dv()
        return KSeries(0.5 * (self.re.du() - b_v), 0.5 * (self.im.du() - s * a_v), self.mode)

    def eval(self, u: float, v: float) -> KScalar:
        return KScalar(self.re.eval(u, v), self.im.eval(u, v), self.mode)

    def maxabs(self) -> float:
        return max(self.re.maxabs(), self.im.maxabs())

    def __repr__(self) -> str:
        return (
            f"KSeries(order={self.order}, center={self.center:g}, "
            f"mode={self.mode.value})"
        )


def para_cr_residual(f: KSeries) -> float:
    """Largest coefficient violating the split-complex analyticity equations.

    Computed twice, once from the component equations a_u = b_v, a_v = b_u
    and once as the largest coefficient of 2*dzbar(f); the two must agree
    to working precision.
    """
    if f.mode is not Mode.PARACOMPLEX:
        raise ValueError("the split Cauchy-Riemann check is paracomplex-only")
    a_u, b_u = f.re.du(), f.im.du()
    a_v, b_v = f.re.dv(), f.im.dv()
    res_parts = max((a_u - b_v).maxabs(), (a_v - b_u).maxabs())
    g = f.dzbar()
    res_dzbar = max((2.0 * g.re).maxabs(), (2.0 * g.im).maxabs())
    assert abs(res_parts - res_dzbar) <= 1e-14 * max(1.0, res_parts)
    return res_parts


def cone_series(frame_data) -> KSeries:
    """The quadratic cone combination psi1^2 + psi2^2 - psi3^2."""
    p1, p2, p3 = frame_data
    return p1 * p1 + p2 * p2 - p3 * p3


# ---------------------------------------------------------------------------
# real series and grid checks for the tests


def zero_series(order: int, center: float = 0.0) -> BiSeries:
    return BiSeries(np.zeros((order + 1, order + 1)), center)


def variable_u(order: int, center: float = 0.0) -> BiSeries:
    """The function u itself: constant term is the center."""
    c = np.zeros((order + 1, order + 1))
    c[0, 0] = center
    if order >= 1:
        c[1, 0] = 1.0
    return BiSeries(c, center)


def variable_v(order: int, center: float = 0.0) -> BiSeries:
    c = np.zeros((order + 1, order + 1))
    if order >= 1:
        c[0, 1] = 1.0
    return BiSeries(c, center)


def from_univariate_u(jet: USeries, order: int) -> BiSeries:
    c = np.zeros((order + 1, order + 1))
    k = min(order, jet.order)
    c[: k + 1, 0] = jet.coeffs[: k + 1]
    return BiSeries(c, jet.center)


def from_univariate_v(jet: USeries, order: int, center: float = 0.0) -> BiSeries:
    """A pure function of v; the jet must be expanded about v = 0."""
    if jet.center != 0.0:
        raise ValueError("v-jets must be centered at 0")
    c = np.zeros((order + 1, order + 1))
    k = min(order, jet.order)
    c[0, : k + 1] = jet.coeffs[: k + 1]
    return BiSeries(c, center)


def graph_identity_residual(surface, relation, us, vs) -> float:
    """Grid max of |relation(x1, x2, x3)| along a series triple."""
    vals = relation(*grid_values(table_stack(surface), surface[0].center, us, vs))
    return float(np.max(np.abs(vals)))


def frame_jet_from_coords(group, curve, w):
    """Apply A^{-1}(curve(u)) to a coordinate-component jet triple."""
    return tuple(row[0] * w[0] + row[1] * w[1] + row[2] * w[2] for row in group.coframe(curve))
