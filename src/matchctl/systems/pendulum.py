"""Tilting-body fixture: an unactuated tilt angle over a fully driven base.

Coordinates: x[0] is the tilt from upright, x[1] and x[2] the two base
axes.  The rescaled kinetic matrix couples tilt rate to base motion
through a single constant a; the potential climbs the second base axis
with slope b and drops with the cosine of the tilt.  Only the base is
actuated, so the tilt row of every candidate target must satisfy the
matching equations.

The module ships the one-parameter ratio family this model admits in
closed form, the full shaped target built on the invariant chart of that
family, and the sufficient-condition checker for asymptotic stability of
the upright equilibrium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import DomainError, SingularLocusError
from ..fields import DissipationField, Field, ScalarField, per_point
from ..geometry import Box, MechanicalSystem
from ..shapes import Profile, constant_profile, quadratic_profile
from ..targets import TargetSystem

SIN_GUARD = 1e-6


def pendulum_cart(a: float = 0.5, b: float = 0.5, domain: Box | None = None,
                  name: str = "pendulum-cart") -> MechanicalSystem:
    """Plant with metric [[1, -a cos, -a sin], [., 1, 0], [., 0, 1]].

    Positive definite iff a^2 < 1; a = 1 is the degenerate massless-base
    limit, still constructible for target-side work but not integrable as
    a plant.
    """
    a, b = float(a), float(b)
    if a <= 0:
        raise DomainError("coupling constant a must be positive")

    # Each kernel takes one point or a stack: x.T[i] is coordinate i of
    # every point and out.T[j, i] entry (i, j) of every output.
    def gval(x):
        tilt = x.T[0]
        c, s = np.cos(tilt), np.sin(tilt)
        g = np.zeros(x.shape[:-1] + (3, 3))
        gt = g.T
        gt[0, 0] = gt[1, 1] = gt[2, 2] = 1.0
        gt[0, 1] = gt[1, 0] = -a * c
        gt[0, 2] = gt[2, 0] = -a * s
        return g

    def gder(x):
        tilt = x.T[0]
        c, s = np.cos(tilt), np.sin(tilt)
        d = np.zeros(x.shape[:-1] + (3, 3, 3))
        dt = d.T                  # dt[k, j, i] is d g_ij / d x_k
        dt[0, 1, 0] = dt[0, 0, 1] = a * s
        dt[0, 2, 0] = dt[0, 0, 2] = -a * c
        return d

    def vgrad(x):
        out = np.zeros(x.shape)
        out.T[0] = -np.sin(x.T[0])
        out.T[2] = b
        return out

    if domain is None:
        domain = Box(lo=(-0.4, -1.0, -1.0), hi=(0.4, 1.0, 1.0))
    return MechanicalSystem(
        n=3, m=1,
        metric=Field(gval, gder),
        potential=ScalarField(lambda x: b * x.T[2] + np.cos(x.T[0]), vgrad),
        dissipation=DissipationField.zero(3),
        params={"a": a, "b": b},
        domain=domain,
        name=name)


@dataclass(frozen=True)
class PendulumParams:
    """Model constants plus the shaping choices for the closed-form target.

    tilt_ratio is the constant tilt entry of the ratio row; sway_ratio
    weights the cosine coupling into the first base axis.  The three block
    profiles and the potential well live on the invariant chart
    (x1 - (sway/tilt) sin x0, x2); the damping gain is a function of x.
    Unset shaping entries resolve to the reference choices.
    """

    a: float = 0.5
    b: float = 0.5
    tilt_ratio: float = -1.0
    sway_ratio: float = -3.0
    block22: Profile | None = None
    block23: Profile | None = None
    block33: Profile | None = None
    well: Profile | None = None
    gain: Profile | None = None
    domain: Box | None = None

    def resolved(self) -> "PendulumParams":
        """These parameters with unset shaping entries filled in; DomainError
        for a zero tilt_ratio or a profile of the wrong dimension (2 for
        the blocks and the well, 3 for the gain).  The domain is left as
        given: pendulum_cart fills in its own box when it is None."""
        if self.tilt_ratio == 0.0:
            raise DomainError("tilt_ratio must be nonzero")
        fill = {}
        if self.block22 is None:
            fill["block22"] = constant_profile(2.0)
        if self.block23 is None:
            fill["block23"] = constant_profile(0.0)
        if self.block33 is None:
            fill["block33"] = constant_profile(1.0)
        if self.well is None:
            # offset pins the shaped potential to zero at the origin
            fill["well"] = quadratic_profile(np.eye(2),
                                             offset=-1.0 / self.tilt_ratio)
        if self.gain is None:
            fill["gain"] = constant_profile(1.0, dim=3)
        res = replace(self, **fill) if fill else self
        for name, dim in (("block22", 2), ("block23", 2), ("block33", 2),
                          ("well", 2), ("gain", 3)):
            getattr(res, name).require_dim(dim, name)
        return res

    @classmethod
    def stable_reference(cls) -> "PendulumParams":
        """The audited parameter set that passes every stability condition.

        b = 0 so the upright rest point needs no standing force and the
        closed loop has a genuine zero-control equilibrium there.
        """
        return cls(a=1.0, b=0.0, tilt_ratio=-1.0, sway_ratio=-2.0,
                   block22=constant_profile(2.0),
                   block23=constant_profile(0.0),
                   block33=constant_profile(1.0),
                   well=quadratic_profile(np.eye(2), offset=1.0),
                   gain=constant_profile(1.0, dim=3))


def pendulum_fixture(p: PendulumParams
                     ) -> tuple[MechanicalSystem, Field, TargetSystem]:
    """Closed-form matching solution for the tilting-body plant.

    Ratio row (tilt_ratio, sway_ratio cos x0, 0); target kinetic matrix
    reconstructed from the free block on the invariant chart through the
    unactuated-row identity g_0i = r^j G_ji; shaped potential
    (1/tilt_ratio) cos x0 + well; dissipation a rank-one positive form
    annihilated by the ratio row.

    The target's kernels take one point and share one evaluation of it:
    cos x0, sin x0, the chart point (u, v) = (x1 - slope sin x0, x2) of the
    ratio flow, the jets of the three blocks and the well at (u, v) and of
    the drag gain at x, all on Python floats.  The last point's evaluation is
    kept, keyed on x.tobytes(): the bytes, because -0.0 == 0.0 while
    sin(-0.0) is -0.0, and not id(x), because an array can be changed in
    place and ids are reused.  The target metric, potential and drag at
    one state, as a closed-loop stage asks for them, thus evaluate the
    chart and the profiles once.  The drag states one derivative, the
    (3, 6) block [d/dx | d/dxdot], read from the same point.
    """
    p = p.resolved()
    a, t0, m0 = p.a, p.tilt_ratio, p.sway_ratio
    sys = pendulum_cart(p.a, p.b, domain=p.domain)
    slope = m0 / t0          # chart slope, also the dissipation direction weight
    ca = a / t0

    # one point or a stack, as pendulum_cart's kernels; one point, the
    # seed-plane walk's query, is answered from math.cos in one array
    def rval(x):
        if x.ndim == 1:
            return np.array([[t0, m0 * math.cos(x[0]), 0.0]])
        r = np.zeros(x.shape[:-1] + (1, 3))
        rt = r.T
        rt[0, 0] = t0
        rt[1, 0] = m0 * np.cos(x.T[0])
        return r

    def rder(x):
        d = np.zeros(x.shape[:-1] + (1, 3, 3))
        d.T[0, 1, 0] = -m0 * np.sin(x.T[0])   # d r_01 / d x_0
        return d

    ratio = Field(rval, rder)

    block22, block23, block33 = p.block22.jet, p.block23.jet, p.block33.jet
    well, gain = p.well.jet, p.gain.jet
    last = [None]            # (key, evaluation) of the last point

    def at(x):
        """(c, s, b22, b23, b33, well, (k, dg)) at x: each b and the well a
        jet (h, (h_u, h_v)) on the chart, k = -t0 gain(x) and dg the gain's
        gradient at x."""
        key = x.tobytes()
        hit = last[0]
        if hit is not None and hit[0] == key:
            return hit[1]
        pt = tuple(x.tolist())
        x0, x1, x2 = pt
        c, s = math.cos(x0), math.sin(x0)
        y = (x1 - slope * s, x2)
        gv, dg = gain(pt)
        out = (c, s, block22(y), block23(y), block33(y), well(y),
               (-t0 * gv, dg))
        last[0] = (key, out)
        return out

    # outputs are built flat and reshaped: np.array of a flat tuple costs
    # about half as much as of a nested one
    def tmetric_val(x):
        c, s, (f22, _), (f23, _), (f33, _), _, _ = at(x)
        g01 = -ca * c - slope * c * f22
        g02 = -ca * s - slope * c * f23
        g00 = 1.0 / t0 + ca * slope * c * c + slope * slope * c * c * f22
        return np.array((g00, g01, g02, g01, f22, f23,
                         g02, f23, f33)).reshape(3, 3)

    def tmetric_der(x):
        # d[i, j] is the x-gradient of g_ij; a chart entry with partials
        # (h_u, h_v) has gradient (-slope c h_u, h_u, h_v), since
        # du = (-slope cos x0, 1, 0) and dv = (0, 0, 1)
        (c, s, (f22, (g22u, g22v)), (f23, (g23u, g23v)), (_, (g33u, g33v)),
         _, _) = at(x)
        sc = -slope * c
        d22 = (g22u * sc, g22u, g22v)
        d23 = (g23u * sc, g23u, g23v)
        d33 = (g33u * sc, g33u, g33v)
        d01 = (sc * d22[0] + (ca * s + slope * s * f22), sc * g22u, sc * g22v)
        d02 = (sc * d23[0] + (-ca * c + slope * s * f23), sc * g23u, sc * g23v)
        k00 = slope * slope * c * c
        d00 = (k00 * d22[0] + (-2.0 * ca * slope * c * s
                               - 2.0 * slope * slope * c * s * f22),
               k00 * g22u, k00 * g22v)
        return np.array(d00 + d01 + d02 + d01 + d22 + d23
                        + d02 + d23 + d33).reshape(3, 3, 3)

    def tpot_val(x):
        c, _, _, _, _, (w, _), _ = at(x)
        return c / t0 + w

    def tpot_grad(x):
        c, s, _, _, _, (_, (wu, wv)), _ = at(x)
        return np.array((-slope * c * wu - s / t0, wu, wv))

    # drag -t0 gain(x) w (w . v) along w = (-slope cos x0, 1, 1)
    def tdis_val(x, v):
        c, _, _, _, _, _, (k, _) = at(x)
        w0 = -slope * c
        v0, v1, v2 = v.tolist()
        proj = w0 * v0 + v1 + v2
        return np.array((k * w0 * proj, k * proj, k * proj))

    # [d/dx | d/dv] of the drag; the v-half on floats, as tdis_val
    def tdis_der(x, v):
        c, s, _, _, _, _, (k, dg) = at(x)
        w0 = -slope * c
        kw = k * w0
        wvec = np.array((w0, 1.0, 1.0))
        dw0 = np.array((slope * s, 0.0, 0.0))   # d wvec / d x0
        proj = wvec @ v
        out = -t0 * np.outer(wvec, dg) * proj
        out[:, 0] += k * (dw0 * proj + wvec * (dw0 @ v))
        return np.hstack((out, ((k * (w0 * w0), kw, kw), (kw, k, k),
                                (kw, k, k))))

    target = TargetSystem(
        metric=Field(tmetric_val, tmetric_der),
        potential=ScalarField(tpot_val, tpot_grad),
        dissipation=DissipationField(tdis_val, tdis_der),
        name="pendulum-cart-shaped")
    return sys, ratio, target


def pendulum_ratio_family(p: PendulumParams, overlap: Profile,
                          free3: Callable | None = None) -> Field:
    """General ratio family from scalar overlap data depending on the tilt.

    overlap is a profile on R^1 over the tilt angle, read once per point
    through its jet; free3 (a function of x, default zero) is the free
    third component.  The family divides by sin(tilt): evaluation inside
    the guard band raises, so prefer pendulum_fixture's closed form, whose
    specific overlap choice cancels the singularity.  The derivative is
    differenced (see fields.Field).
    """
    p = p.resolved()
    a = p.a
    jet = overlap.require_dim(1, "tilt overlap").jet

    def rval(x):
        c, s = np.cos(x[0]), np.sin(x[0])
        if abs(s) < SIN_GUARD:
            raise SingularLocusError(
                f"ratio family is singular at tilt {x[0]!r} (|sin| < {SIN_GUARD})")
        f3 = float(free3(x)) if free3 is not None else 0.0
        nv, (npr,) = jet((float(x[0]),))
        l2 = npr / (2.0 * a * s) + (c / s) * f3
        l1 = nv + 0.5 * (c / s) * npr + a * f3 / s
        return np.array([[l1, l2, f3]])

    return Field(per_point(rval))


@dataclass(frozen=True)
class StabilityCondition:
    name: str
    kind: str        # "positive" | "negative" | "equal"
    value: float
    reference: float
    ok: bool


@dataclass(frozen=True)
class StabilityVerdict:
    conditions: tuple
    passed: bool

    def condition(self, name: str) -> StabilityCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


EQ_TOL = 1e-12


def upright_stability_check(p: PendulumParams) -> StabilityVerdict:
    """Sufficient conditions for the upright rest point to attract locally.

    Sign conditions on the shaping data at the origin plus two coupled
    inequalities on (a, tilt_ratio, sway_ratio, block22(0)).  Every
    condition's value is reported; the verdict passes only if all hold.
    """
    p = p.resolved()
    y0 = np.zeros(2)
    b22 = p.block22(y0)
    wh = p.well.hessian(y0)
    a, t0, m0 = p.a, p.tilt_ratio, p.sway_ratio

    def cond(name, kind, value, reference=0.0):
        if kind == "positive":
            ok = value > 0.0
        elif kind == "negative":
            ok = value < 0.0
        else:
            ok = abs(value - reference) <= EQ_TOL
        return StabilityCondition(name, kind, float(value), float(reference), ok)

    conditions = (
        cond("block22_origin_positive", "positive", b22),
        cond("block23_origin_zero", "equal", p.block23(y0)),
        cond("block33_origin_unit", "equal", p.block33(y0), 1.0),
        cond("well_curv_first_positive", "positive", wh[0, 0]),
        cond("well_curv_cross_zero", "equal", wh[0, 1]),
        cond("well_curv_second_positive", "positive", wh[1, 1]),
        cond("gain_origin_positive", "positive", p.gain(np.zeros(3))),
        cond("tilt_ratio_negative", "negative", t0),
        cond("shaped_inertia_margin_positive", "positive",
             b22 * m0 * m0 + a * m0 + t0),
        cond("coupling_margin_negative", "negative",
             b22 * (a * m0 - t0) + a * a),
    )
    return StabilityVerdict(conditions=conditions,
                            passed=all(c.ok for c in conditions))
