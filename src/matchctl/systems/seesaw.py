"""Rocking-beam fixture: unactuated rocking angle over two driven coordinates.

Coordinates: x[0] the rocking angle, x[1] a swing angle, x[2] a radial
offset.  The kinetic matrix couples all three through sin/cos of the
angle difference and through the offset; the potential combines a
radial-weighted sine with a cosine restoring term.

The ratio family here divides by sin(x0 - x1) and by the offset, so
every non-constant member lives away from that locus.  The one member
that extends everywhere is the pure scaling family, whose overlap choice
cancels both denominators; build it with scaling_solution instead of the
family evaluator.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DomainError, SingularLocusError
from ..fields import DissipationField, Field, ScalarField, per_point
from ..geometry import Box, MechanicalSystem

LOCUS_GUARD = 1e-6


def seesaw_cart(a: float = 0.5, b: float = 2.0, domain: Box | None = None,
                name: str = "seesaw-cart") -> MechanicalSystem:
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")

    def gval(x):
        d = x[0] - x[1]
        s, c = np.sin(d), np.cos(d)
        return np.array([
            [b + x[2] * x[2], a * x[2] * s, 0.0],
            [a * x[2] * s, 1.0, -a * c],
            [0.0, -a * c, 1.0]])

    def gder(x):
        d = x[0] - x[1]
        s, c = np.sin(d), np.cos(d)
        t = np.zeros((3, 3, 3))
        t[0, 0, 2] = 2.0 * x[2]
        t[0, 1] = [a * x[2] * c, -a * x[2] * c, a * s]
        t[1, 2] = [a * s, -a * s, 0.0]
        t[1, 0], t[2, 1] = t[0, 1], t[1, 2]
        return t

    if domain is None:
        domain = Box(lo=(0.6, -0.4, 0.5), hi=(1.4, 0.4, 1.5))
    return MechanicalSystem(
        n=3, m=1,
        metric=Field(per_point(gval), per_point(gder)),
        potential=ScalarField(
            per_point(lambda x: x[2] * np.sin(x[1]) + a * np.cos(x[0])),
            per_point(lambda x: np.array([-a * np.sin(x[0]),
                                          x[2] * np.cos(x[1]),
                                          np.sin(x[1])]))),
        dissipation=DissipationField.zero(3),
        params={"a": a, "b": b},
        domain=domain,
        name=name)


def seesaw_ratio_family(a: float, b: float, overlap: Callable,
                        d_rock: Callable, d_offset: Callable) -> Field:
    """Ratio rows from scalar overlap data nu(x0, x2).

    overlap, d_rock and d_offset map (x0, x2) to nu and its two partial
    derivatives.  Data depending on x1 is not solvable for this plant,
    so that argument never appears.  Evaluation raises within the guard
    band of the locus sin(x0 - x1) = 0 or x2 = 0.
    """
    a, b = float(a), float(b)

    def rval(x):
        d = x[0] - x[1]
        s, c = np.sin(d), np.cos(d)
        if abs(s) < LOCUS_GUARD or abs(x[2]) < LOCUS_GUARD:
            raise SingularLocusError(
                f"ratio family is singular at x={x} "
                f"(needs |sin(x0 - x1)| and |x2| above {LOCUS_GUARD})")
        nv = float(overlap(x[0], x[2]))
        n0 = float(d_rock(x[0], x[2]))
        n2 = float(d_offset(x[0], x[2]))
        w = x[2]
        r1 = (2.0 * nv - w * n2) / (2.0 * b)
        r2 = (-2.0 * w * nv + (b + w * w) * n2) / (2.0 * a * b * s)
        r3 = (-2.0 * w * w * c * nv + w * (b + w * w) * c * n2
              - b * s * n0) / (2.0 * b * w * s)
        return np.array([[r1, r2, r3]])

    return Field(per_point(rval))


def unit_overlap_ratio(a: float, b: float) -> Field:
    """The constant-overlap member: finite away from the locus, divergent
    rows as the locus is approached."""
    return seesaw_ratio_family(a, b, lambda x0, x2: 1.0,
                               lambda x0, x2: 0.0, lambda x0, x2: 0.0)
