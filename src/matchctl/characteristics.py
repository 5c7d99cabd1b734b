"""Transport of target data along the flow of the kinetic ratio.

With one unactuated coordinate the compatibility equations for the
shaped kinetic matrix and the shaped potential become transport
equations along the integral curves of the single ratio row.  This
module integrates that transport from data prescribed on a coordinate
hyperplane, completes metric rows pointwise from an actuated block,
and audits the row identity that the transport is supposed to
propagate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AsymmetryError, DomainError, MatchctlError, ScopeError,
                     SingularFieldError, SingularLocusError,
                     TransversalityError)
from .fields import Field
from .geometry import MechanicalSystem
from .rk4 import rk4_span, rk4_step

STEP_LIMIT = 10_000_000
FIELD_FLOOR = 1e-12
TRANSVERSALITY_FLOOR = 1e-3   # radians between the flow and the seed plane
SYMMETRY_TOL = 1e-9
RESIDUAL_WARN = 1e-5
POTENTIAL_RESIDUAL_WARN = 1e-6
PLANE_HIT_TOL = 1e-10
STACK_CONTRACT = ("transport evaluates every field on a stack of points "
                  "(k, n) and needs each point's output along a leading "
                  "axis; extend a one-point kernel with fields.per_point")


def _stacked(method, xs: np.ndarray, shape: tuple) -> np.ndarray:
    """method(xs) on a stack of points xs (k, n), checked to be (k,) + shape.

    A kernel that only takes one point fails on a stack in numpy's own
    words or answers in the wrong shape; both become a DomainError that
    names the stack contract.
    """
    try:
        out = method(xs)
    except MatchctlError:
        raise
    except (ValueError, IndexError, TypeError) as exc:
        raise DomainError("a field failed on a stack of %d points (%s); %s"
                          % (xs.shape[0], exc, STACK_CONTRACT)) from exc
    if out.shape != xs.shape[:1] + shape:
        raise DomainError("a field answered a stack of %d points with shape "
                          "%s, not %s; %s" % (xs.shape[0], out.shape,
                                              xs.shape[:1] + shape,
                                              STACK_CONTRACT))
    return out


def _drive_row(ratio: Field, x: np.ndarray) -> np.ndarray:
    """First ratio row as the flow velocity, guarded against vanishing."""
    v = ratio.value(x)[0]
    norm = math.sqrt(float(v @ v))
    if not FIELD_FLOOR <= norm < math.inf:
        raise SingularFieldError(
            "transport direction vanished along the flow (|row| = %.3e)" % norm)
    return v


def _drive_rows(ratio: Field, xs: np.ndarray) -> np.ndarray:
    """_drive_row at every point of a stack (k, n), guarded the same way."""
    v = _stacked(ratio.value, xs, (1, xs.shape[1]))[:, 0]
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    lo, hi = norms.min(), norms.max()
    if not FIELD_FLOOR <= lo <= hi < np.inf:
        raise SingularFieldError(
            "transport direction vanished along the flow (|row| = %.3e)"
            % (hi if lo >= FIELD_FLOOR else lo))
    return v


def _check_steps(noun: str, span: float, dt: float) -> None:
    """DomainError unless dt is positive and finite and a span of flow
    time (finite, too) takes at most STEP_LIMIT steps of it."""
    if not 0.0 < dt < np.inf:
        raise DomainError("%s step dt must be positive and finite" % noun)
    if not span / dt <= STEP_LIMIT:
        raise DomainError("%s span %.3g needs more than %d steps at dt=%.3g"
                          % (noun, span, STEP_LIMIT, dt))


def flow_map(ratio: Field, x0, t: float, dt: float = 1e-3) -> np.ndarray:
    """Advance x0 by time t along the first ratio row.

    Classical fixed-step 4th-order integration; the final step is
    shortened so the endpoint lands exactly on t.  Raises DomainError
    for a non-finite t or dt, or when |t|/dt would exceed the step
    budget, and SingularFieldError if the row vanishes en route.
    """
    _check_steps("flow", abs(t), dt)
    return rk4_span(lambda y: _drive_row(ratio, y),
                    np.array(x0, dtype=float), t, dt)


def complete_metric_rows(sys: MechanicalSystem, ratio: Field,
                         block, x) -> np.ndarray:
    """Fill the unactuated rows of the shaped kinetic matrix at x.

    The actuated block is given; the remaining rows are forced by the
    identity g_unactuated = ratio @ ghat.  The leading m-by-m corner is
    over-determined for m > 1, and a corner that comes out asymmetric
    beyond tolerance means the (ratio, block) pair is not jointly
    admissible at x.
    """
    x = np.asarray(x, dtype=float)
    m, n = sys.m, sys.n
    block = np.asarray(block, dtype=float)
    if block.shape != (n - m, n - m):
        raise DomainError("actuated block must be %d x %d, got %s"
                          % (n - m, n - m, block.shape))
    if not np.isfinite(block).all():
        raise DomainError("actuated block has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(block))))
    if np.max(np.abs(block - block.T)) > SYMMETRY_TOL * scale:
        raise AsymmetryError("actuated block is not symmetric")

    lam = ratio.value(x)
    g = sys.metric_at(x)
    lead = lam[:, :m]
    svals = np.linalg.svd(lead, compute_uv=False)
    if svals[-1] < 1e-12 * max(1.0, svals[0]):
        raise SingularLocusError(
            "leading ratio block is singular at the queried point")

    gh = np.zeros((n, n))
    gh[m:, m:] = 0.5 * (block + block.T)
    gh[:m, m:] = np.linalg.solve(lead, g[:m, m:] - lam[:, m:] @ gh[m:, m:])
    gh[m:, :m] = gh[:m, m:].T
    corner = np.linalg.solve(lead, g[:m, :m] - lam[:, m:] @ gh[m:, :m])
    cscale = max(1.0, float(np.max(np.abs(corner))))
    if np.max(np.abs(corner - corner.T)) > SYMMETRY_TOL * cscale:
        raise AsymmetryError(
            "row completion produced an asymmetric leading corner; "
            "the ratio and block are not admissible together at this point")
    gh[:m, :m] = 0.5 * (corner + corner.T)
    return gh


@dataclass(frozen=True)
class CharacteristicGrid:
    """Per-seed flows of the ratio row with transported payload.

    states[k, j] is the position of seed k at times[j]; metric[k, j]
    and potential[k, j] are the shaped kinetic matrix and shaped
    potential transported to that node.  Immutable once built; queries
    are read-only.
    """

    seed_points: np.ndarray          # (k, n)
    times: np.ndarray                # (T,)
    states: np.ndarray               # (k, T, n)
    metric: np.ndarray               # (k, T, n, n)
    potential: np.ndarray            # (k, T)
    plane_axis: int
    plane_value: float
    seed_axes: tuple                 # coordinate axes spanning the seed lattice
    seed_values: tuple               # 1-D sorted coordinate arrays, one per axis
    field: Field
    dt: float
    residual_metric: float           # worst transport-equation defect at interior nodes
    residual_potential: float
    symmetry_defect: float
    warnings: tuple = ()

    @property
    def n(self) -> int:
        return self.seed_points.shape[1]

    @property
    def seed_count(self) -> int:
        return self.seed_points.shape[0]

    @property
    def seed_shape(self) -> tuple:
        return tuple(v.size for v in self.seed_values)

    def time_index(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[j] - t) > 1e-12:
            raise DomainError("%.6g is not a stored flow time" % t)
        return j

    def interpolate(self, x, dt: float | None = None):
        """Payload at an off-grid point: (shaped metric, shaped potential).

        The query is walked back to the seed plane along the flow, then
        the payload is combined multilinearly in the seed-plane
        coordinates and the flow time.  Seed axes carrying a single
        value admit no variation, so the query must sit on them.

        x must be a finite configuration of shape (n,).  The walk steps
        by dt (the grid's own step when None), which must be positive
        and finite, with the grid's flow-time span within STEP_LIMIT
        steps of it; any of these failing is a DomainError.  Each full
        step evaluates the ratio row four times, the first step reusing
        the transversality check's row, and each probe of the crossing
        three times.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DomainError("query must be a configuration of shape (%d,), "
                              "got %s" % (self.n, x.shape))
        if not np.isfinite(x).all():
            raise DomainError("query has non-finite entries")
        step = self.dt if dt is None else float(dt)
        _check_steps("walk", self.times[-1] - self.times[0], step)
        t_star, hit = _plane_time(self.field, x, self.plane_axis,
                                  self.plane_value, step,
                                  float(self.times[0]), float(self.times[-1]))
        if not (self.times[0] - 1e-12 <= t_star <= self.times[-1] + 1e-12):
            raise DomainError("query lies at flow time %.4g outside the grid"
                              % t_star)

        factors = []
        for axis, vals in zip(self.seed_axes, self.seed_values):
            c = hit[axis]
            if vals.size == 1:
                if abs(c - vals[0]) > 1e-8:
                    raise DomainError(
                        "no seed variation along axis %d but the query "
                        "projects to %.6g != %.6g" % (axis, c, vals[0]))
                factors.append(((0, 1.0),))
                continue
            if c < vals[0] - 1e-12 or c > vals[-1] + 1e-12:
                raise DomainError("query projects outside the seed lattice "
                                  "on axis %d" % axis)
            factors.append(_line_weights(vals, c))
        factors.append(_line_weights(self.times, t_star))

        shape = self.seed_shape
        gh = np.zeros((self.n, self.n))
        vh = 0.0
        for corner in itertools.product(*factors):
            idx = tuple(c[0] for c in corner)
            w = 1.0
            for c in corner:
                w *= c[1]
            if w == 0.0:
                continue
            flat = int(np.ravel_multi_index(idx[:-1], shape)) if shape else 0
            gh += w * self.metric[flat, idx[-1]]
            vh += w * self.potential[flat, idx[-1]]
        return gh, vh


def _line_weights(vals: np.ndarray, c: float):
    """Linear-interpolation stencil on a sorted 1-D grid, clamped to the ends."""
    i = int(np.searchsorted(vals, c))
    i = min(max(i, 1), vals.size - 1)
    w = (c - vals[i - 1]) / (vals[i] - vals[i - 1])
    w = min(max(w, 0.0), 1.0)
    return ((i - 1, 1.0 - w), (i, w))


def _plane_time(ratio: Field, x: np.ndarray, axis: int, value: float,
                dt: float, t_lo: float, t_hi: float):
    """Flow time of x measured from the seed plane, plus the plane point.

    Marches x along the flow in steps of dt in the direction that
    approaches the plane until a step brackets the crossing, then finds
    the crossing inside that step.  Each step's first slope is evaluated
    once: the transversality check's row serves the first step, and
    every probe of the bracketing step starts from the same point with
    that step's slope.  The probes follow regula falsi (Illinois
    variant) on the plane gap over [0, dt], falling back to the midpoint
    whenever the secant estimate leaves the bracket, and stop once
    |gap| <= PLANE_HIT_TOL or after 60 probes.  Returns (t_star, hit)
    with flow_map(hit, t_star) == x up to integrator error.
    """
    gap = float(x[axis] - value)
    if abs(gap) <= PLANE_HIT_TOL:
        return 0.0, x.copy()
    v = _drive_row(ratio, x)
    if abs(v[axis]) < FIELD_FLOOR:
        raise TransversalityError(
            "the flow is tangent to the seed plane at the query point")
    # Walking against the flow by u > 0 moves the gap by -v[axis] * u.
    direction = -1.0 if gap * v[axis] > 0.0 else 1.0
    budget = (t_hi - t_lo) + 2.0 * dt
    vel = lambda y: _drive_row(ratio, y)

    u, cur, g_cur = 0.0, x.copy(), gap
    while abs(u) <= budget:
        k1 = v if u == 0.0 else vel(cur)
        nxt = rk4_step(vel, cur, direction * dt, k1)
        g_nxt = float(nxt[axis] - value)
        if abs(g_nxt) <= PLANE_HIT_TOL:
            return -(u + direction * dt), nxt
        if g_cur * g_nxt < 0.0:
            lo, g_lo, hi, g_hi, kept = 0.0, g_cur, dt, g_nxt, None
            for _ in range(60):
                s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
                if not lo < s < hi:
                    s = 0.5 * (lo + hi)
                probe = rk4_step(vel, cur, direction * s, k1)
                g_s = float(probe[axis] - value)
                if abs(g_s) <= PLANE_HIT_TOL:
                    break
                # Illinois: an end kept twice in a row has its gap halved
                if g_lo * g_s < 0.0:
                    hi, g_hi = s, g_s
                    if kept == "lo":
                        g_lo *= 0.5
                    kept = "lo"
                else:
                    lo, g_lo = s, g_s
                    if kept == "hi":
                        g_hi *= 0.5
                    kept = "hi"
            return -(u + direction * s), probe
        u += direction * dt
        cur, g_cur = nxt, g_nxt
    raise DomainError("query does not reach the seed plane within the "
                      "grid horizon")


def _seed_lattice(anchor: np.ndarray, plane_axis: int, seed_values, n: int):
    axes, vals = [], []
    for axis, values in seed_values:
        axis = int(axis)
        values = np.asarray(values, dtype=float).ravel()
        if axis == plane_axis or not 0 <= axis < n:
            raise DomainError("seed axis %d is unusable for plane axis %d"
                              % (axis, plane_axis))
        if axis in axes:
            raise DomainError("seed axis %d listed twice" % axis)
        if values.size == 0 or (values.size > 1 and np.any(np.diff(values) <= 0)):
            raise DomainError("seed values on axis %d must be strictly "
                              "increasing" % axis)
        axes.append(axis)
        vals.append(values)
    shape = tuple(v.size for v in vals)
    count = int(np.prod(shape)) if shape else 1
    pts = np.tile(anchor, (count, 1))
    if vals:
        mesh = np.meshgrid(*vals, indexing="ij")
        for axis, sheet in zip(axes, mesh):
            pts[:, axis] = sheet.reshape(-1)
    return pts, tuple(axes), tuple(vals)


def transport_target_data(sys: MechanicalSystem, ratio: Field,
                          initial_block, initial_potential, *,
                          anchor, times, seed_values, plane_axis: int = 0,
                          dt: float = 1e-3) -> CharacteristicGrid:
    """Integrate the shaped metric and potential along the ratio flow.

    Seeds form a rectangular lattice on the coordinate hyperplane
    through `anchor` normal to `plane_axis`: `seed_values` is a list of
    (axis, sorted values) pairs spanning the lattice, the remaining
    coordinates are held at the anchor.  At each seed the actuated
    block from `initial_block(x)` is completed to a full matrix and
    `initial_potential(x)` sets the potential, then both are carried to
    every entry of `times` (which must contain 0, where the seeds sit).
    A non-finite block or potential at any seed is a DomainError.

    All seeds are carried together as one stacked state (k, n + n^2 + 1),
    so each RK4 stage evaluates the ratio row, its Jacobian, d g / d x_0
    and d V / d x_0 once for the whole lattice: the plant's metric and
    potential fields and the ratio must answer a stack of points (k, n)
    in kind (see fields.Field), and one that does not is a DomainError.

    Only the single-unactuated-coordinate case is defined: the
    transport direction must be one row.
    """
    if sys.m != 1:
        raise ScopeError("transport needs exactly one unactuated coordinate; "
                         "no recipe is available for m = %d" % sys.m)
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (sys.n,):
        raise DomainError("anchor must be a configuration of length %d" % sys.n)
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 2 or not np.all(np.diff(times) > 0.0):
        raise DomainError("flow times must be strictly increasing, length >= 2")
    _check_steps("transport", times[-1] - times[0], dt)
    hits = np.flatnonzero(np.abs(times) <= 1e-15)
    if hits.size != 1:
        raise DomainError("flow times must contain t = 0 exactly once "
                          "(the seeds live there)")
    j0 = int(hits[0])
    times = times.copy()
    times[j0] = 0.0

    plane_value = float(anchor[plane_axis])
    seeds, axes, vals = _seed_lattice(anchor, plane_axis, seed_values, sys.n)

    rows = _drive_rows(ratio, seeds)
    min_angle = float(np.min(np.arcsin(np.minimum(
        1.0, np.abs(rows[:, plane_axis]) / np.linalg.norm(rows, axis=1)))))
    if min_angle < TRANSVERSALITY_FLOOR:
        raise TransversalityError(
            "flow meets the seed plane at %.2e rad < %.0e rad"
            % (min_angle, TRANSVERSALITY_FLOOR))

    k, n, T = seeds.shape[0], sys.n, times.size
    states = np.zeros((k, T, n))
    metric = np.zeros((k, T, n, n))
    potential = np.zeros((k, T))

    for i, p in enumerate(seeds):
        metric[i, j0] = complete_metric_rows(sys, ratio, initial_block(p), p)
        potential[i, j0] = float(initial_potential(p))
        if not np.isfinite(potential[i, j0]):
            raise DomainError("initial potential is not finite at seed %s"
                              % (p,))
    states[:, j0] = seeds

    carry = _carry_rhs(sys, ratio)
    z0 = np.concatenate((seeds, metric[:, j0].reshape(k, n * n),
                         potential[:, j0, None]), axis=1)
    for stored in (range(j0 + 1, T), range(j0 - 1, -1, -1)):
        z, prev = z0, j0
        for j in stored:
            z = rk4_span(carry, z, times[j] - times[prev], dt)
            states[:, j], potential[:, j] = z[:, :n], z[:, -1]
            metric[:, j] = z[:, n:-1].reshape(k, n, n)
            prev = j

    res_g, res_v = _transport_defect(sys, ratio, times, states,
                                     metric, potential)
    sym = float(np.max(np.abs(metric - metric.transpose(0, 1, 3, 2))))
    warnings = []
    if not res_g <= RESIDUAL_WARN:
        warnings.append("metric transport defect %.3e exceeds %.0e; "
                        "refine the flow-time grid" % (res_g, RESIDUAL_WARN))
    if not res_v <= POTENTIAL_RESIDUAL_WARN:
        warnings.append("potential transport defect %.3e exceeds %.0e"
                        % (res_v, POTENTIAL_RESIDUAL_WARN))
    crossing = _crossing_gap(states, vals)
    if crossing is not None:
        warnings.append(crossing)

    return CharacteristicGrid(
        seed_points=seeds, times=times, states=states, metric=metric,
        potential=potential, plane_axis=int(plane_axis),
        plane_value=plane_value, seed_axes=axes, seed_values=vals,
        field=ratio, dt=float(dt), residual_metric=res_g,
        residual_potential=res_v, symmetry_defect=sym,
        warnings=tuple(warnings))


def _carry_slope(sys, ratio, xs, gh):
    """Slopes of the carried payload along the flow at a stack of points.

    d(gh)/dt = d0(g)(x) - P - P^T with P = J^T gh and J the Jacobian of
    the transport row (gh is symmetric, so P^T = gh J), and d(vh)/dt is
    the unactuated potential slope; both follow from contracting the
    compatibility equations with the row.  xs is (k, n), gh (k, n, n).
    """
    n = xs.shape[1]
    jac = _stacked(ratio.derivative, xs, (1, n, n))[:, 0]
    dg0 = _stacked(sys.metric.derivative, xs, (n, n, n))[..., 0]
    p = jac.transpose(0, 2, 1) @ gh
    slope_v = _stacked(sys.potential.gradient, xs, (n,))[:, 0]
    return dg0 - p - p.transpose(0, 2, 1), slope_v


def _carry_rhs(sys, ratio):
    """Right side of the coupled (position, metric, potential) system for
    a stack of seeds: row i of the state packs x, the rows of gh and vh
    of seed i."""
    n = sys.n

    def rhs(z):
        xs = z[:, :n]
        lam = _drive_rows(ratio, xs)
        slope_g, slope_v = _carry_slope(sys, ratio, xs,
                                        z[:, n:-1].reshape(-1, n, n))
        return np.concatenate((lam, slope_g.reshape(-1, n * n),
                               slope_v[:, None]), axis=1)

    return rhs


def _time_slopes(series, times, lo, hi):
    """FD time derivatives of stored payload at the nodes lo..hi-1 of axis 0.

    Five-point stencil where four uniformly spaced neighbors exist (the
    three-point error is quadratic in the node spacing and can swamp a
    1e-5 audit on steep data), otherwise plain centered difference.
    """
    def at(offset):
        return series[lo + offset:hi + offset]

    span = (-1,) + (1,) * (series.ndim - 1)
    t = times.reshape(span)
    slope = (at(1) - at(-1)) / (t[lo + 1:hi + 1] - t[lo - 1:hi - 1])
    if times.size >= 5:          # then lo = 2 and hi = T - 2
        gaps = np.diff(times)
        h = gaps[lo:hi]
        spread = np.max([np.abs(gaps[lo + o:hi + o] - h)
                         for o in (-2, -1, 0, 1)], axis=0)
        uniform = spread <= 1e-9 * np.maximum(np.abs(h), 1e-300)
        five = (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) \
            / (12.0 * h.reshape(span))
        slope = np.where(uniform.reshape(span), five, slope)
    return slope


def _transport_defect(sys, ratio, times, states, metric, potential):
    """Worst transport-equation residual at interior nodes.

    Along a characteristic the directional derivative in the equations
    is the plain time derivative, so differencing the stored payload
    against the local source terms measures how well the carried data
    satisfies the equations themselves, independent of the integrator.
    The slopes are evaluated over one seed's interior nodes at a time,
    and a NaN anywhere makes the residual NaN.
    """
    lo, hi = (2, times.size - 2) if times.size >= 5 else (1, times.size - 1)
    worst = np.zeros((states.shape[0], 2))
    for i in range(states.shape[0]):
        slope_g, slope_v = _carry_slope(sys, ratio, states[i, lo:hi],
                                        metric[i, lo:hi])
        worst[i] = (
            np.max(np.abs(_time_slopes(metric[i], times, lo, hi) - slope_g)),
            np.max(np.abs(_time_slopes(potential[i], times, lo, hi)
                          - slope_v)))
    worst_g, worst_v = np.max(worst, axis=0)
    return float(worst_g), float(worst_v)


def _crossing_gap(states, seed_values):
    """Warning text if two characteristics pass closer than the lattice can resolve."""
    if states.shape[0] < 2:
        return None
    spacings = [np.min(np.diff(v)) for v in seed_values if v.size > 1]
    if not spacings:
        return None
    resolution = 0.5 * min(spacings)
    for j in range(states.shape[1]):
        sheet = states[:, j, :]
        diff = sheet[:, None, :] - sheet[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        dist[np.diag_indices_from(dist)] = np.inf
        gap = float(dist.min())
        if gap < resolution:
            return ("characteristics approach within %.3e (< %.3e lattice "
                    "resolution) near stored node %d; interpolation is "
                    "unreliable there" % (gap, resolution, j))
    return None


@dataclass(frozen=True)
class RowIdentityReport:
    """Propagation audit of g_unactuated = ratio @ ghat over a grid."""

    max_defect: float
    seed_defect: float
    worst_seed: int
    worst_time: float
    tol: float
    passed: bool

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        return ("row identity %s: max defect %.3e (tol %.0e, seed rows "
                "%.3e, worst at seed %d, t=%.4g)"
                % (state, self.max_defect, self.tol, self.seed_defect,
                   self.worst_seed, self.worst_time))


def row_identity_check(sys: MechanicalSystem, ratio: Field,
                       grid: CharacteristicGrid,
                       tol: float = 1e-7) -> RowIdentityReport:
    """Evaluate the row identity at every grid node; verdict, not exception.

    The identity holds everywhere once it holds on the seed plane, so
    growth beyond integration error flags payload inconsistent with
    the plant and ratio.  Each seed's nodes are evaluated as one stack
    (the fields must answer stacks, as in transport_target_data).  A NaN
    defect anywhere is the maximum, located at its first node, and fails
    the verdict.
    """
    m, n = sys.m, grid.n
    j0 = grid.time_index(0.0)
    defect = np.empty((grid.seed_count, grid.times.size))
    for i in range(grid.seed_count):
        xs = grid.states[i]
        lam = _stacked(ratio.value, xs, (m, n))
        g = _stacked(sys.metric.value, xs, (n, n))
        defect[i] = np.max(np.abs(g[:, :m, :] - lam @ grid.metric[i]),
                           axis=(1, 2))
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    worst = float(defect[i, j])
    return RowIdentityReport(max_defect=worst,
                             seed_defect=float(np.max(defect[:, j0])),
                             worst_seed=int(i),
                             worst_time=float(grid.times[j]),
                             tol=float(tol), passed=bool(worst <= tol))


def grid_csv(grid: CharacteristicGrid, path=None) -> str:
    """Render the grid as CSV; deterministic, 17 significant digits.

    Columns: seed, t, the configuration, the upper triangle of the
    shaped kinetic matrix row-major, the shaped potential.
    """
    n = grid.n
    cols = ["seed", "t"] + ["x%d" % i for i in range(n)]
    cols += ["metric%d%d" % (i, j) for i in range(n) for j in range(i, n)]
    cols.append("potential")
    lines = [",".join(cols)]
    for i in range(grid.seed_count):
        for j in range(grid.times.size):
            vals = [float(grid.times[j])]
            vals += [float(v) for v in grid.states[i, j]]
            gh = grid.metric[i, j]
            vals += [float(gh[a, b]) for a in range(n) for b in range(a, n)]
            vals.append(float(grid.potential[i, j]))
            lines.append(str(i) + "," + ",".join("%.17g" % v for v in vals))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
