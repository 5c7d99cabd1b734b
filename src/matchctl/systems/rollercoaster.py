"""Bead-on-a-track fixture: one unactuated swing angle and a driven
arclength coordinate along a space curve.

The track enters through three scalar functions of arclength: the angle
between tangent and vertical, the curvature, and the vertical component
of the principal normal, with the exact rates of the angle and of the
kinetic profile.  Two track classes admit closed-form ratio families and
each gets its own evaluator, its overlap data a shapes.Profile on R^1:

  planar           sin^2(angle) equals the squared vertical normal
                   component everywhere; overlap data is any function of
                   the swing angle alone.
  constant-incline the tangent angle is constant and the vertical normal
                   component vanishes; overlap data is any function of
                   the invariant chart built from a curvature integral.

Track invariants are checked on sample points when the plant is built,
since everything downstream silently produces wrong rows if the declared
class does not hold.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..errors import DomainError, SingularLocusError
from ..fields import DissipationField, Field, ScalarField, per_point
from ..geometry import Box, MechanicalSystem
from ..shapes import Profile

PLANAR = "planar"
CONSTANT_INCLINE = "constant-incline"
INVARIANT_TOL = 1e-12
LOCUS_GUARD = 1e-6
QUAD_ORDER = 48


@dataclass(frozen=True)
class TrackCurve:
    """Arclength description of the supporting curve.

    alpha, curvature and normal3 map arclength to the tangent-vertical
    angle, the curvature and the vertical normal component; height is
    the climbed height.  alpha_rate and profile_rate are the exact
    s-derivatives of alpha and of the kinetic profile
    q(s) = curvature^2 (sin^2 alpha - normal3^2)/sin^4 alpha, so the
    plant's metric derivative is exact.
    """

    alpha: Callable
    curvature: Callable
    normal3: Callable
    height: Callable
    case_tag: str
    alpha_rate: Callable
    profile_rate: Callable
    name: str = "track"

    def profile(self, s: float) -> float:
        sa = np.sin(self.alpha(s))
        if abs(sa) < LOCUS_GUARD:
            raise DomainError(f"track tangent is vertical at s={s}")
        n3 = self.normal3(s)
        return float(self.curvature(s) ** 2 * (sa * sa - n3 * n3) / sa ** 4)


def validate_curve(curve: TrackCurve, s_samples) -> None:
    """Check the declared class invariant on the samples; raise on mismatch."""
    s_samples = np.atleast_1d(np.asarray(s_samples, dtype=float))
    if curve.case_tag == PLANAR:
        worst = max(abs(np.sin(curve.alpha(s)) ** 2 - curve.normal3(s) ** 2)
                    for s in s_samples)
        if worst > INVARIANT_TOL:
            raise DomainError(
                f"curve declared planar but sin^2(alpha) - normal3^2 "
                f"reaches {worst:.2e}")
    elif curve.case_tag == CONSTANT_INCLINE:
        a0 = curve.alpha(s_samples[0])
        worst_a = max(abs(curve.alpha(s) - a0) for s in s_samples)
        worst_kn = max(abs(curve.curvature(s) * curve.normal3(s))
                       for s in s_samples)
        if worst_a > INVARIANT_TOL or worst_kn > INVARIANT_TOL:
            raise DomainError(
                "curve declared constant-incline but alpha varies by "
                f"{worst_a:.2e} or curvature*normal3 reaches {worst_kn:.2e}")
    else:
        raise DomainError(f"unknown track class {curve.case_tag!r}")


def vertical_circle_track(radius: float) -> TrackCurve:
    """Circle in a vertical plane, angle-parameterized by arclength.

    Planar class: the vertical normal component equals sin(alpha)
    identically, so the kinetic profile vanishes and the second diagonal
    metric entry is exactly one.
    """
    r = float(radius)
    if r <= 0:
        raise DomainError("radius must be positive")
    return TrackCurve(
        alpha=lambda s: 0.5 * np.pi - s / r,
        curvature=lambda s: 1.0 / r,
        normal3=lambda s: np.cos(s / r),
        height=lambda s: r * (1.0 - np.cos(s / r)),
        case_tag=PLANAR,
        alpha_rate=lambda s: -1.0 / r,
        profile_rate=lambda s: 0.0,
        name=f"vertical-circle-{r:g}")


def helix_track(radius: float, climb: float) -> TrackCurve:
    """Circular helix with unit-speed parameterization.

    climb is the constant vertical tangent component, strictly between 0
    and 1.  Constant-incline class with zero vertical normal; the
    kinetic profile is the squared angular rate, constant.
    """
    r, h = float(radius), float(climb)
    if r <= 0 or not (0.0 < h < 1.0):
        raise DomainError("need radius > 0 and 0 < climb < 1")
    omega = np.sqrt(1.0 - h * h) / r
    a0 = float(np.arccos(h))
    return TrackCurve(
        alpha=lambda s: a0,
        curvature=lambda s: r * omega * omega,
        normal3=lambda s: 0.0,
        height=lambda s: h * s,
        case_tag=CONSTANT_INCLINE,
        alpha_rate=lambda s: 0.0,
        profile_rate=lambda s: 0.0,
        name=f"helix-{r:g}-{h:g}")


def bead_on_track(curve: TrackCurve, a: float = 1.0, b: float = 0.5,
                  domain: Box | None = None) -> MechanicalSystem:
    """Two-coordinate plant: unactuated swing x[0], driven arclength x[1].

    The curve's class invariant is checked at nine arclengths spanning
    the domain."""
    a, b = float(a), float(b)
    if not (0.0 < b < 1.0):
        raise DomainError("need 0 < b < 1 for a positive kinetic matrix")
    if domain is None:
        domain = Box(lo=(0.2, -0.2), hi=(0.7, 1.0))
    validate_curve(curve, np.linspace(domain.lo[1], domain.hi[1], 9))

    def gval(x):
        phi, s = x
        al = curve.alpha(s)
        sp = np.sin(phi)
        return np.array([
            [1.0, b * np.sin(al - phi)],
            [b * np.sin(al - phi), 1.0 + curve.profile(s) * sp * sp]])

    def gder(x):
        phi, s = x
        al = curve.alpha(s)
        ca = np.cos(al - phi)
        ar = float(curve.alpha_rate(s))
        qr = float(curve.profile_rate(s))
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = -b * ca
        d[0, 1, 1] = b * ca * ar
        d[1, 0] = d[0, 1]
        d[1, 1, 0] = curve.profile(s) * np.sin(2.0 * phi)
        d[1, 1, 1] = qr * np.sin(phi) ** 2
        return d

    def vval(x):
        return a * curve.height(x[1]) + np.cos(x[0])

    def vgrad(x):
        return np.array([-np.sin(x[0]), a * np.cos(curve.alpha(x[1]))])

    return MechanicalSystem(
        n=2, m=1,
        metric=Field(per_point(gval), per_point(gder)),
        potential=ScalarField(per_point(vval), per_point(vgrad)),
        dissipation=DissipationField.zero(2),
        params={"a": a, "b": b},
        domain=domain,
        name=f"bead-{curve.name}")


def planar_ratio_family(curve: TrackCurve, b: float, overlap: Profile) -> Field:
    """Ratio rows for planar tracks from overlap data nu(swing angle).

    overlap is a profile on R^1 over the swing; each point reads its jet
    (nu, nu') once.  With th = alpha(s) - swing the rows are
    r = [nu + tan(th) nu'/2, -nu'/(2 b cos th)], and the derivative is
    exact, with nu'' from the overlap's Hessian, so it stays accurate
    next to the locus cos th = 0.
    """
    if curve.case_tag != PLANAR:
        raise DomainError("planar family needs a planar curve")
    b = float(b)
    jet = overlap.require_dim(1, "planar overlap").jet

    def angle(x):
        phi, s = x
        th = curve.alpha(s) - phi
        ca = np.cos(th)
        if abs(ca) < LOCUS_GUARD:
            raise SingularLocusError(
                f"planar family singular at x={x} (cos(alpha - swing) ~ 0)")
        return th, ca

    def rval(x):
        th, ca = angle(x)
        nv, (nr,) = jet((float(x[0]),))
        return np.array([[nv + 0.5 * np.tan(th) * nr,
                          -nr / (2.0 * b * ca)]])

    def rder(x):
        th, ca = angle(x)
        phi, s = x
        _, (nr,) = jet((float(phi),))
        nc = float(overlap.hessian(x[:1])[0, 0])
        ar = float(curve.alpha_rate(s))
        sec2 = 1.0 / (ca * ca)
        tilt = nr * np.sin(th) * sec2 / (2.0 * b)   # nu' sin th / (2b cos^2 th)
        return np.array([[[nr - 0.5 * sec2 * nr + 0.5 * np.tan(th) * nc,
                           0.5 * ar * sec2 * nr],
                          [-nc / (2.0 * b * ca) + tilt, -ar * tilt]]])

    return Field(per_point(rval), per_point(rder))


@cache
def _gauss_legendre() -> tuple:
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False   # shared
    return nodes, weights


def curvature_integral(curve: TrackCurve, b: float, s: float) -> float:
    """Integral of curvature^2/(b sin^2 alpha0) from 0 to s, by QUAD_ORDER-
    point Gauss-Legendre quadrature (exact for the constant-curvature
    tracks).  The nodes are computed on the first call and kept."""
    a0 = curve.alpha(0.0)
    sa2 = np.sin(a0) ** 2
    if sa2 < LOCUS_GUARD:
        raise DomainError("vertical tangent: chart integral undefined")
    nodes, weights = _gauss_legendre()
    half = 0.5 * s
    pts = half * (nodes + 1.0)
    vals = np.array([curve.curvature(p) ** 2 for p in pts])
    return float(half * np.dot(weights, vals) / (float(b) * sa2))


def incline_chart(curve: TrackCurve, b: float) -> ScalarField:
    """Invariant chart for constant-incline tracks.

    Constant along the characteristic direction of the solvability
    equation; overlap data for the incline family is any function of it.
    """
    if curve.case_tag != CONSTANT_INCLINE:
        raise DomainError("incline chart needs a constant-incline curve")
    a0 = curve.alpha(0.0)
    ca0, sa0 = np.cos(a0), np.sin(a0)
    b = float(b)

    def swing(phi):
        sp, cp = np.sin(phi), np.cos(phi)
        if abs(sp) < LOCUS_GUARD or abs(cp) < LOCUS_GUARD:
            raise SingularLocusError(f"chart singular at swing {phi!r}")
        return sp, cp

    def value(x):
        phi, s = x
        sp, cp = swing(phi)
        beta = curvature_integral(curve, b, s)
        return (beta + ca0 * np.log(abs(1.0 / sp + cp / sp))
                - sa0 * np.log(abs(1.0 / cp + sp / cp)))

    def gradient(x):
        phi, s = x
        sp, cp = swing(phi)
        return np.array([-ca0 / sp - sa0 / cp,
                         curve.curvature(s) ** 2 / (b * np.sin(a0) ** 2)])

    return ScalarField(value, gradient)


def incline_ratio_family(curve: TrackCurve, b: float, overlap: Profile) -> Field:
    """Ratio rows for constant-incline tracks from overlap data nu(chart).

    overlap is a profile on R^1 over the value of incline_chart; each
    point reads its jet (nu, nu') once.  The derivative is differenced
    (see fields.Field).
    """
    chart = incline_chart(curve, b)
    a0 = curve.alpha(0.0)
    b = float(b)
    jet = overlap.require_dim(1, "incline overlap").jet

    def rval(x):
        phi, _ = x
        s2 = np.sin(2.0 * phi)
        if abs(s2) < LOCUS_GUARD:
            raise SingularLocusError(
                f"incline family singular at x={x} (sin(2 swing) ~ 0)")
        nv, (nr,) = jet((chart(x),))
        return np.array([[nv - (np.sin(a0 - phi) / s2) * nr,
                          nr / (b * s2)]])

    return Field(per_point(rval))
