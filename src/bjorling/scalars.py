"""Scalars of the two coefficient algebras.

A value is ``a + u*b`` where the unit ``u`` squares to -1 (complex mode) or
to +1 (paracomplex, also called split-complex or Lorentz numbers).  The
split-complex plane contains zero divisors ``a +- u*a``, so inversion and
square roots carry explicit guards instead of relying on exceptions from
float division.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSqrt, NotInvertible

# Relative band used to decide "this squared modulus is numerically zero".
ZERO_DIVISOR_RTOL = 1e-12


class Mode(Enum):
    COMPLEX = "complex"
    PARACOMPLEX = "paracomplex"

    @property
    def unit_square(self) -> float:
        """Square of the imaginary unit: -1 complex, +1 paracomplex."""
        return 1.0 if self is Mode.PARACOMPLEX else -1.0


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

    def norm(self) -> float:
        return math.sqrt(abs(self.sq_mod()))

    def min_gain(self) -> float:
        """Smallest factor by which multiplying by this value shrinks a vector.

        |z| in complex mode; min(|p|, |q|) of the split coordinates in
        paracomplex mode, which vanishes on the zero divisors.
        """
        if self.mode is Mode.COMPLEX:
            return math.hypot(self.re, self.im)
        return min(abs(self.re + self.im), abs(self.re - self.im))

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
        DegenerateSqrt is raised.  Complex mode uses the principal branch.
        """
        if self.mode is Mode.COMPLEX:
            w = cmath.sqrt(complex(self.re, self.im))
            out = KScalar(w.real, w.imag, Mode.COMPLEX)
            if not out.is_invertible():
                raise DegenerateSqrt(f"square root of {self} is not invertible")
            return out
        p, q = self.split()
        band = _zero_band(self.re, self.im)
        if p <= band or q <= band:
            raise DegenerateSqrt(
                f"{self} has no invertible paracomplex square root"
            )
        return KScalar.from_split(math.sqrt(p), math.sqrt(q))

    def __repr__(self) -> str:
        unit = "j" if self.mode is Mode.PARACOMPLEX else "i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re:g} {sign} {abs(self.im):g}{unit})"


def kconst(value: float, mode: Mode) -> KScalar:
    return KScalar(float(value), 0.0, mode)


def kunit(mode: Mode) -> KScalar:
    return KScalar(0.0, 1.0, mode)
