"""Shared vocabulary: algebra modes, problem kinds, curve classes, grids,
tolerances."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


# The one schema version of problem, solution and report files.
SCHEMA_VERSION = 1


class Mode(Enum):
    """The coefficient algebra: values ``a + unit*b`` with the unit squaring
    to -1 (complex) or +1 (paracomplex, also called split-complex)."""

    COMPLEX = "complex"
    PARACOMPLEX = "paracomplex"

    @property
    def unit_square(self) -> float:
        """Square of the imaginary unit: -1 complex, +1 paracomplex."""
        return 1.0 if self is Mode.PARACOMPLEX else -1.0


class CurveClass(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    MIXED = "mixed"


class ProblemKind(Enum):
    """Causal type of the prescribed data and of the surface built on it.

    TIMELIKE_CURVE and SPACELIKE_CURVE both produce timelike surfaces over
    the split-complex plane; SPACELIKE_SURFACE is the Riemannian case over
    the ordinary complex plane.
    """

    TIMELIKE_CURVE = "timelike"
    SPACELIKE_CURVE = "spacelike-curve"
    SPACELIKE_SURFACE = "spacelike-surface"

    @property
    def mode(self) -> Mode:
        if self is ProblemKind.SPACELIKE_SURFACE:
            return Mode.COMPLEX
        return Mode.PARACOMPLEX

    @property
    def sigma(self) -> float:
        """+1 for timelike surfaces (wave operator), -1 for spacelike."""
        return -1.0 if self is ProblemKind.SPACELIKE_SURFACE else 1.0

    @property
    def tangent_sign(self) -> float:
        """Sign of the unit part of the initial tangent,
        ``2 phi(u, 0) = curve' + sign * unit * (V x curve')``.

        ``f_v(u, 0)`` is this sign times the unit's square times
        ``V x curve'``: in the complex mode the v partial is minus twice
        the imaginary part.
        """
        return -1.0 if self is ProblemKind.SPACELIKE_CURVE else 1.0

    @property
    def normal_square(self) -> float:
        """Required g(V, V) of the prescribed unit field."""
        return -1.0 if self is ProblemKind.SPACELIKE_SURFACE else 1.0

    @property
    def curve_class(self) -> CurveClass:
        if self is ProblemKind.TIMELIKE_CURVE:
            return CurveClass.TIMELIKE
        return CurveClass.SPACELIKE

    @staticmethod
    def from_string(text: str) -> "ProblemKind":
        for kind in ProblemKind:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown problem kind {text!r}")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid in the parameter plane."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int = 17
    nv: int = 9

    def us(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    def vs(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    def coarse(self) -> "GridSpec":
        return replace(self, nu=min(self.nu, 17), nv=min(self.nv, 9))

    def scaled_v(self, factor: float) -> "GridSpec":
        return replace(self, v_min=self.v_min * factor, v_max=self.v_max * factor)


@dataclass(frozen=True)
class Tolerances:
    """Numerical acceptance thresholds.

    cone / compat / series are coefficient-level, conformality and
    minimality are grid-level: the conformality defect and the tension
    residual over the conformal factor.  causal is the relative band for
    "this velocity is numerically lightlike".
    """

    cone: float = 1e-9
    causal: float = 1e-10
    compat: float = 1e-9
    series: float = 1e-8
    conformality: float = 1e-6
    minimality: float = 1e-6

    def merged(self, overrides: dict | None) -> "Tolerances":
        if not overrides:
            return self
        return replace(self, **overrides)
