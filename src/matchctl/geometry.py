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

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, SingularMetricError
from .fields import DissipationField, Field, ScalarField, all_finite


@dataclass(frozen=True)
class State:
    """Point of the tangent bundle: position x and velocity xdot.

    Construction checks that both are 1-d float arrays of one shape, of
    dimension at least 2, with finite entries (fields.all_finite: one
    math.isfinite pass over the entries as Python floats, with no array
    arithmetic to overflow or warn).  Each failure is a DomainError.

    A state also memoizes what has been evaluated at it, one entry per
    model (a plant or a target, matched by identity, so the two never
    share one): the checked kinetic matrix (kinetic_matrix) and the
    summed force (force), each computed on first use and handed out
    read-only.  A closed-loop stage builds one state, so the law and the
    acceleration share one evaluation of each side.  The memo takes no
    part in comparison, hashing or repr, and dataclasses.replace starts
    a new state with an empty one.  Two states are equal when their
    positions and velocities are; a state is not hashable.
    """

    x: np.ndarray
    xdot: np.ndarray
    _memo: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xdot", np.asarray(self.xdot, dtype=float))
        if self.x.ndim != 1 or self.xdot.shape != self.x.shape:
            raise DomainError("state needs matching 1-d position and velocity")
        if self.x.size < 2:
            raise DomainError("state dimension must be at least 2")
        if not (all_finite(self.x) and all_finite(self.xdot)):
            raise DomainError("state has non-finite entries")

    def __eq__(self, other):
        # by value; the dataclass default compares the array tuples, which
        # raises for equal values held in distinct arrays
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.x, other.x)
                and np.array_equal(self.xdot, other.xdot))

    @property
    def n(self) -> int:
        return self.x.size

    def memo(self, model) -> dict:
        """The evaluations of `model` memoized at this state."""
        for owner, entry in self._memo:
            if owner is model:
                return entry
        entry = {}
        self._memo.append((model, entry))
        return entry


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


class Model:
    """What plant and shaped target share: a kinetic matrix field (metric),
    a potential and a dissipation.  Each side names its errors: metric_error
    for a kinetic matrix misshapen or not finite, singular_error for one
    that cannot be solved against."""

    metric_error = DomainError
    singular_error = SingularMetricError

    def metric_at(self, x) -> np.ndarray:
        """The kinetic matrix at x, checked to be (n, n) and finite."""
        g = self.metric.value(x)
        n = np.size(x)
        if g.shape != (n, n) or not all_finite(g):
            raise self.metric_error(
                f"kinetic matrix misshapen or not finite at x={np.asarray(x)}")
        return g


@dataclass(frozen=True)
class MechanicalSystem(Model):
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

    def check_metric_spd(self, x) -> None:
        """Raise unless g(x) is symmetric (to 1e-12 relative) and positive
        definite."""
        g = self.metric_at(x)
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
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


def metric_derivative(model: Model, x) -> np.ndarray:
    """d[i, j, k] = d g_ij / d x_k of the model's kinetic matrix at x,
    checked to be finite."""
    d = model.metric.derivative(x)
    if not all_finite(d):
        raise DomainError("metric derivative has non-finite entries")
    return d


def christoffel_first(model: Model, x) -> np.ndarray:
    """First-kind symbols G[i, j, k] of the model's kinetic matrix at x."""
    return christoffel_from_derivative(metric_derivative(model, x))


def quadratic_velocity_force(gamma: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Vector with components G[j,k,r] xd^j xd^k."""
    return np.einsum("jkr,j,k->r", gamma, xdot, xdot)


def kinetic_matrix(model: Model, s: State) -> np.ndarray:
    """The model's checked kinetic matrix model.metric_at(s.x).

    Evaluated once per state and model (see State); read-only."""
    entry = s.memo(model)
    g = entry.get("metric")
    if g is None:
        g = model.metric_at(s.x).view()  # the field may own the array
        g.setflags(write=False)
        entry["metric"] = g
    return g


def force(model: Model, s: State) -> np.ndarray:
    """Velocity-quadratic, dissipative and potential force at the state:
    G[j,k,r] xd^j xd^k + C_r + dV/dx^r, for a plant or a shaped target.

    The velocity-quadratic term is contracted straight from the metric
    derivative d[i,j,k] = d g_ij / d x_k, without forming the first-kind
    symbols: G[j,k,r] xd^j xd^k = xd^i (d[i,r,k] xd^k - d[i,j,r] xd^j / 2).
    Evaluated once per state and model (see State): one metric
    derivative, one dissipation and one potential gradient; read-only.
    A metric derivative or dissipation that is not finite, or a potential
    gradient with a NaN entry, is a DomainError.  An infinite gradient at
    a finite state is an overflow, which simulate reports as a blow-up."""
    entry = s.memo(model)
    f = entry.get("force")
    if f is None:
        x, v = s.x, s.xdot
        d = metric_derivative(model, x)
        drag = model.dissipation(x, v)
        grad = model.potential.gradient(x)
        if any(map(math.isnan, grad.ravel().tolist())):
            raise DomainError("potential gradient has non-finite entries")
        f = np.dot(v, np.dot(d, v) - 0.5 * np.dot(v, d)) + drag + grad
        f.setflags(write=False)
        entry["force"] = f
    return f


def solve(model: Model, s: State, rhs) -> np.ndarray:
    """g(x)^-1 rhs by one solve against the memoized kinetic matrix.

    A 3 x 3 system with a right-hand side of shape (3,), the size of
    the pendulum stages, is solved on Python floats (_lu_solve3).  Other
    sizes and 2-d right-hand sides go to np.linalg.solve.  Measured with
    timeit on a 2-vCPU x86 machine, the 3 x 3 float solve with its list
    conversions takes about 2.5 us against numpy's 7.7 us; an LU written
    as loops for any n was already slower than numpy at n = 4 (9.5 us
    against 7.8 us).  Either way an exactly zero pivot, which LAPACK's
    getrf reports as a singular matrix, raises model.singular_error; an
    indefinite matrix is solved."""
    g = kinetic_matrix(model, s)
    rhs = np.asarray(rhs, dtype=float)
    if len(g) == 3 and rhs.shape == (3,):
        x = _lu_solve3(g.tolist(), rhs.tolist())
        if x is not None:
            return np.array(x)
    else:
        try:
            return np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:
            pass
    raise model.singular_error(f"kinetic matrix is singular at x={s.x}")


def _lu_solve3(a: list, b: list) -> list | None:
    """The solution of the 3 x 3 system a x = b (nested lists of Python
    floats) by Gaussian elimination with partial pivoting, or None when a
    pivot is exactly zero.  Each pivot is the first entry of largest
    magnitude in its column, as LAPACK's getrf takes it."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    b0, b1, b2 = b
    m0, m1, m2 = abs(a00), abs(a10), abs(a20)
    if m1 > m0 and m1 >= m2:
        a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    elif m2 > m0 and m2 > m1:
        a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
    if a00 == 0.0:
        return None
    f = a10 / a00
    a11 -= f * a01
    a12 -= f * a02
    b1 -= f * b0
    f = a20 / a00
    a21 -= f * a01
    a22 -= f * a02
    b2 -= f * b0
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if a11 == 0.0:
        return None
    f = a21 / a11
    a22 -= f * a12
    b2 -= f * b1
    if a22 == 0.0:
        return None
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return [(b0 - a01 * x1 - a02 * x2) / a00, x1, x2]


def acceleration(sys: MechanicalSystem, s: State, u: np.ndarray) -> np.ndarray:
    """Solve the equations of motion for xdd at the given state and control.

    g and the force come from the state's memo, so after control_law at
    the same state the plant is not evaluated again."""
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n,) or not all_finite(u):
        raise DomainError("control vector has wrong shape or non-finite entries")
    return solve(sys, s, u - force(sys, s))


def energy(model: Model, s: State) -> float:
    """Total energy xd.g.xd/2 + V at the state; for a shaped target this
    is the Lyapunov candidate of the loop."""
    g = model.metric_at(s.x)
    return float(0.5 * s.xdot @ g @ s.xdot + model.potential(s.x))


def rescale_coordinates(sys: MechanicalSystem, scales) -> MechanicalSystem:
    """System in coordinates xt = diag(scales) x; covariant objects transform.

    Useful for invariance checks: ranks and kernel dimensions of the
    compatibility analysis must not depend on positive coordinate scalings.
    The drag's derivative reads the base's once, at the unscaled z.
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
    zinv = np.concatenate((dinv, dinv))       # z = zt * zinv, both halves
    dis = DissipationField(
        lambda xt, vt: sys.dissipation(back(xt), vt * dinv) * dinv,
        lambda xt, vt: np.outer(dinv, zinv) * sys.dissipation.derivative(
            np.concatenate((xt, vt), axis=-1) * zinv))
    dom = None
    if sys.domain is not None:
        dom = Box(sys.domain.lo * d, sys.domain.hi * d)
    return MechanicalSystem(sys.n, sys.m, met, pot, dis, dict(sys.params), dom,
                            name=sys.name + "-rescaled")
