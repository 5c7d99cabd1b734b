"""Configuration-space geometry of a controlled mechanical system.

A system is a kinetic-energy matrix field g, a potential V, and a
velocity-dependent force C on an n-dimensional configuration space, with the
first m coordinates unactuated: no control force can act on them.  The
equations of motion are

    g_rj xdd^j + G[j,k,r] xd^j xd^k + C_r + dV/dx^r = u_r,

where G is the symmetrized half-derivative bracket of g defined below and
u_a = 0 for a = 1..m.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, SingularMetricError
from .fields import DissipationField, Field, ScalarField


@dataclass(frozen=True)
class State:
    """Point of the tangent bundle: position x and velocity xdot."""

    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xdot", np.asarray(self.xdot, dtype=float))
        if self.x.ndim != 1 or self.xdot.shape != self.x.shape:
            raise DomainError("state needs matching 1-d position and velocity")
        if self.x.size < 2:
            raise DomainError("state dimension must be at least 2")
        if not (np.isfinite(self.x).all() and np.isfinite(self.xdot).all()):
            raise DomainError("state has non-finite entries")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Box:
    """Axis-aligned coordinate box; the declared usable domain of a system."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise DomainError("box bounds are inconsistent")

    def contains(self, x, pad: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - pad) and np.all(x <= self.hi + pad))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.lo.size))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class MechanicalSystem:
    """Kinetic matrix, potential, dissipation, and the unactuated count m."""

    n: int
    m: int
    metric: Field
    potential: ScalarField
    dissipation: DissipationField
    params: Mapping[str, float] = field(default_factory=dict)
    domain: Box | None = None
    name: str = ""

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise DomainError("need 0 < m < n unactuated coordinates")

    def metric_at(self, x) -> np.ndarray:
        g = self.metric.value(x)
        if g.shape != (self.n, self.n) or not np.isfinite(g).all():
            raise DomainError("metric evaluation failed shape/finiteness check")
        return g

    def check_metric_spd(self, x, tol: float = 1e-12) -> None:
        """Raise unless g(x) is symmetric positive definite."""
        g = self.metric_at(x)
        if np.max(np.abs(g - g.T)) > tol * max(1.0, np.max(np.abs(g))):
            raise DomainError("metric is not symmetric at the queried point")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(
                f"metric is not positive definite at x={np.asarray(x)}") from exc


def christoffel_from_derivative(d: np.ndarray) -> np.ndarray:
    """vals[i,j,k] = (d g_jk/dx^i + d g_ik/dx^j - d g_ij/dx^k) / 2.

    Input is any metric-derivative tensor d[i, j, k] = d g_ij / d x_k; works
    for the plant metric and for shaped kinetic matrices alike.
    """
    return 0.5 * (np.transpose(d, (2, 0, 1)) + np.transpose(d, (0, 2, 1)) - d)


def christoffel_first(sys: MechanicalSystem, x) -> np.ndarray:
    """First-kind symbols G[i, j, k] of the plant metric at x."""
    d = sys.metric.derivative(x)  # d[i, j, k] = d g_ij / d x_k
    if not np.isfinite(d).all():
        raise DomainError("metric derivative has non-finite entries")
    return christoffel_from_derivative(d)


def quadratic_velocity_force(gamma: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Vector with components G[j,k,r] xd^j xd^k."""
    return np.einsum("jkr,j,k->r", gamma, xdot, xdot)


def acceleration(sys: MechanicalSystem, s: State, u: np.ndarray) -> np.ndarray:
    """Solve the equations of motion for xdd at the given state and control."""
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n,) or not np.isfinite(u).all():
        raise DomainError("control vector has wrong shape or non-finite entries")
    g = sys.metric_at(s.x)
    gamma = christoffel_first(sys, s.x)
    rhs = (u - quadratic_velocity_force(gamma, s.xdot)
           - sys.dissipation(s.x, s.xdot) - sys.potential.gradient(s.x))
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(
            f"metric is singular at x={s.x}, cannot solve for acceleration") from exc


def energy(sys: MechanicalSystem, s: State) -> float:
    """Total energy xd.g.xd/2 + V at the state."""
    g = sys.metric_at(s.x)
    return float(0.5 * s.xdot @ g @ s.xdot + sys.potential(s.x))


def rescale_coordinates(sys: MechanicalSystem, scales) -> MechanicalSystem:
    """System in coordinates xt = diag(scales) x; covariant objects transform.

    Useful for invariance checks: ranks and kernel dimensions of the
    compatibility analysis must not depend on positive coordinate scalings.
    """
    d = np.asarray(scales, dtype=float)
    if d.shape != (sys.n,) or np.any(d <= 0):
        raise DomainError("need one positive scale per coordinate")
    dinv = 1.0 / d

    def back(xt):
        return np.asarray(xt, dtype=float) * dinv

    met = Field(
        lambda xt: sys.metric.value(back(xt)) * np.outer(dinv, dinv),
        lambda xt: sys.metric.derivative(back(xt))
        * np.outer(dinv, dinv)[:, :, None] * dinv[None, None, :])
    pot = ScalarField(lambda xt: sys.potential(back(xt)),
                      lambda xt: sys.potential.gradient(back(xt)) * dinv)
    dis = DissipationField(
        lambda xt, vt: sys.dissipation(back(xt), vt * dinv) * dinv,
        jac_x=lambda xt, vt: np.outer(dinv, dinv) * sys.dissipation.jac_x(back(xt), vt * dinv),
        jac_v=lambda xt, vt: np.outer(dinv, dinv) * sys.dissipation.jac_v(back(xt), vt * dinv))
    dom = None
    if sys.domain is not None:
        dom = Box(sys.domain.lo * d, sys.domain.hi * d)
    return MechanicalSystem(sys.n, sys.m, met, pot, dis, dict(sys.params), dom,
                            name=sys.name + "-rescaled")
