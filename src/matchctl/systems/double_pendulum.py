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

    # Each kernel takes one point or a stack (..., 3): the differences
    # x_i - x_j and the output axes sit after the stack axes.
    def gval(x):
        diff = x[..., :, None] - x[..., None, :]
        return m * np.cos(diff)

    def gder(x):
        diff = x[..., :, None] - x[..., None, :]
        sm = -m * np.sin(diff)
        d = np.zeros(x.shape[:-1] + (3, 3, 3))
        for k in range(3):
            d[..., k, :, k] += sm[..., k, :]
            d[..., :, k, k] -= sm[..., :, k]
        return d

    if domain is None:
        domain = Box(lo=(-0.5, -0.5, -0.5), hi=(0.5, 0.5, 0.5))
    return MechanicalSystem(
        n=3, m=2,
        metric=Field(gval, gder),
        potential=ScalarField(lambda x: np.cos(x) @ w,
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

    # one point or a stack, as the plant's kernels; out.T[j, i] is entry
    # (i, j) of every output
    def oval(x):
        o = np.empty(x.shape[:-1] + (2, 2))
        ot = o.T
        ot[0, 0], ot[1, 1] = scale * m[0, 0], scale * m[1, 1]
        ot[1, 0] = ot[0, 1] = scale * (m[0, 1] * np.cos(x.T[0] - x.T[1]))
        return o

    def oder(x):
        d = np.zeros(x.shape[:-1] + (2, 2, 3))
        dt = d.T                  # dt[k, j, i] is d o_ij / d x_k
        off = -scale * m[0, 1] * np.sin(x.T[0] - x.T[1])
        dt[0, 1, 0] = dt[0, 0, 1] = off
        dt[1, 1, 0] = dt[1, 0, 1] = -off
        return d

    return Field.constant(rows), Field(oval, oder)
