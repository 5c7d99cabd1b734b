"""Three-link chain with one actuated joint and two unactuated ones.

Coordinates are the three link angles; the kinetic matrix couples link
pairs through the cosine of their angle difference with a constant
positive weight matrix, and the potential is a weighted sum of angle
cosines.  Links 0 and 1 are unactuated, the drive sits on joint 2.

This plant is the reference case where only the scaling family solves
the matching equations; the jet analysis that shows it lives in
rigidity.py.
"""
from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..fields import DissipationField, Field, ScalarField
from ..geometry import Box, MechanicalSystem


def chained_pendulums(masses, weights=(1.0, 1.0, 1.0),
                      domain: Box | None = None,
                      name: str = "chained-pendulums") -> MechanicalSystem:
    m = np.asarray(masses, dtype=float)
    w = np.asarray(weights, dtype=float)
    if m.shape != (3, 3) or not np.allclose(m, m.T, atol=0):
        raise DomainError("masses must be a symmetric 3x3 matrix")
    if np.any(m <= 0) or np.any(w <= 0):
        raise DomainError("mass entries and weights must be positive")
    np.linalg.cholesky(m)   # PD at the origin, where g equals masses

    def gval(x):
        diff = x[:, None] - x[None, :]
        return m * np.cos(diff)

    def gder(x):
        diff = x[:, None] - x[None, :]
        sm = -m * np.sin(diff)
        d = np.zeros((3, 3, 3))
        for k in range(3):
            d[k, :, k] += sm[k, :]
            d[:, k, k] -= sm[:, k]
        return d

    if domain is None:
        domain = Box(lo=(-0.5, -0.5, -0.5), hi=(0.5, 0.5, 0.5))
    return MechanicalSystem(
        n=3, m=2,
        metric=Field(gval, gder),
        potential=ScalarField(
            lambda x: float(w @ np.cos(x)),
            lambda x: -w * np.sin(x)),
        dissipation=DissipationField.zero(3),
        params={"masses": m, "weights": w},
        domain=domain,
        name=name)


def terminal_family(masses, leading_overlap: float
                    ) -> tuple[Field, Field]:
    """The one family this chain admits: both ratio rows proportional to
    coordinate directions with a common constant factor.

    leading_overlap fixes the (0,0) overlap entry; the rest of the
    overlap matrix follows from the kinetic matrix contracted with the
    constant ratio rows.
    """
    m = np.asarray(masses, dtype=float)
    scale = float(leading_overlap) / m[0, 0]
    rows = np.zeros((2, 3))
    rows[0, 0] = rows[1, 1] = scale

    def oval(x):
        c01 = np.cos(x[0] - x[1])
        return scale * np.array([
            [m[0, 0], m[0, 1] * c01],
            [m[0, 1] * c01, m[1, 1]]])

    def oder(x):
        s01 = np.sin(x[0] - x[1])
        d = np.zeros((2, 2, 3))
        off = -scale * m[0, 1] * s01
        d[0, 1, 0] = d[1, 0, 0] = off
        d[0, 1, 1] = d[1, 0, 1] = -off
        return d

    return Field.constant(rows), Field(oval, oder)
