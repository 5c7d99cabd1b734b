"""Matching analysis.

The shaped system mimics the plant exactly when the ratio field
r[a, i] = (g G^{-1})_a^i, with G the target kinetic matrix, satisfies a
first-order transport system in the unactuated rows, and the shaped
potential and velocity force solve the corresponding contracted
equations: the plant's force (geometry.force) minus the r-image of the
target's vanishes on the unactuated axes.  Writing the overlap data
s_ab = g_ai r_b^i and eliminating the first m columns of r through the
invertible block h = (g_ab)^{-1}, the transport system reads

    d_k s_p = D[k, p] . s + B[k, p] . r_rest

over unactuated pairs p = (a <= b), with (D, B) in closed form from g
and its brackets (lambda_coefficients).  With row weights w (1/2 on
diagonal pairs) it is linear-algebraic in the remaining columns,

    A(x) . r_rest = F(x; s, ds),    A = w B,   F = w (ds - D s),

with one row per (direction k, pair p).  Solvability of F against the
left kernel of A is the compatibility condition the overlap data must
satisfy.  This module assembles A and F, measures residuals of
candidate solutions, recovers r from admissible overlap data, builds the
one-parameter family of scaling solutions, and closes sets of kernel
fields under commutators.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (DomainError, UnsolvableDataError, IndefiniteTargetError,
                     ScopeError, SingularMetricError)
from .fields import DissipationField, Field, ScalarField
from .geometry import (MechanicalSystem, State, christoffel_first, force,
                       kinetic_matrix, solve)
from .targets import TargetSystem

KERNEL_TOL_FACTOR = 1e-10
RECOVERY_TOL = 1e-6         # kernel projection and pin misses in recover_ratio
POSITIVITY_SAMPLES = 64     # seeded domain points of the scaling target check
SPAN_TOL = 1e-8             # residual norm of a commutator inside a span


def overlap_matrix(sys: MechanicalSystem, ratio: Field, x) -> np.ndarray:
    """Contractions s_ab = g_ai r_b^i at x; symmetric for a true ratio."""
    g = sys.metric_at(x)
    rv = ratio.value(x)
    return g[:sys.m, :] @ rv.T


# ---------------------------------------------------------------------------
# residuals

def transport_residual(sys: MechanicalSystem, ratio: Field, x) -> np.ndarray:
    """Defect R[k, a, b] of the transport equations for a candidate ratio field.

    R[k, a, b] = d_k (g_ai r_b^i) - G[k,a,i] r_b^i - G[k,b,i] r_a^i,
    which vanishes identically for an admissible field.  Symmetric in (a, b).
    """
    x = np.asarray(x, dtype=float)
    m = sys.m
    g = sys.metric_at(x)
    gam = christoffel_first(sys, x)
    rv = ratio.value(x)
    dr = ratio.derivative(x)
    if rv.shape != (m, sys.n):
        raise DomainError(f"ratio field has shape {rv.shape}, expected {(m, sys.n)}")
    # the one metric derivative, back from the brackets:
    # dg[k, a, i] = d g_ai / d x_k = G[k,a,i] + G[k,i,a]
    dg = gam[:, :m, :] + np.transpose(gam[:, :, :m], (0, 2, 1))
    # d_k s_ab = dg[k,a,i] r[b,i] + g[a,i] dr[b,i,k]
    ds = (np.einsum("kai,bi->kab", dg, rv)
          + np.einsum("ai,bik->kab", g[:m], dr))
    contraction = np.einsum("kai,bi->kab", gam[:, :m, :], rv)
    return ds - contraction - np.transpose(contraction, (0, 2, 1))


def matching_residual(sys: MechanicalSystem, ratio: Field | None,
                      target: TargetSystem, s: State) -> np.ndarray:
    """Per unactuated index, the force the law would need on an unactuated axis.

    Zero exactly when the shaped system reproduces the plant's unactuated
    dynamics with no control.  `ratio` defaults to the rows of g G^{-1};
    passing a candidate field checks that field's consistency instead.
    Each side's force, and g and G, come from the state's memo: with the
    default ratio the target's summed force is taken through one solve
    against G, as control_law does, so the result is the law's
    unactuated rows; with a given ratio neither metric value is
    evaluated.
    """
    m = sys.m
    if ratio is None:
        return (force(sys, s)[:m]
                - kinetic_matrix(sys, s)[:m] @ solve(target, s, force(target, s)))
    return force(sys, s)[:m] - ratio.value(s.x) @ force(target, s)


# ---------------------------------------------------------------------------
# the eliminated linear-algebraic system

@dataclass(frozen=True)
class PairBasis:
    """Index data of the unactuated pairs p = (a <= b) for one m.

    units stacks each pair's symmetric unit matrix E_p as rows p*m + c;
    products[(a, e), (p, q)] = (E_p E_q)[a, e] / w_p; weights w are 1/2
    on diagonal pairs and 1 elsewhere; first/second give a_p and b_p.
    """

    units: np.ndarray       # (P*m, m)
    products: np.ndarray    # (m*m, P*P)
    weights: np.ndarray     # (P,)
    first: np.ndarray       # (P,)
    second: np.ndarray      # (P,)


@functools.lru_cache(maxsize=None)
def pair_basis(m: int) -> PairBasis:
    first, second = np.triu_indices(m)
    units = np.zeros((first.size, m, m))
    units[np.arange(first.size), first, second] = 1.0
    units[np.arange(first.size), second, first] = 1.0
    weights = np.where(first == second, 0.5, 1.0)
    products = (units[:, None] @ units[None, :]) / weights[:, None, None, None]
    arrays = (units.reshape(-1, m), products.reshape(first.size ** 2, m * m).T,
              weights, first, second)
    for arr in arrays:      # shared by every caller through the cache
        arr.flags.writeable = False
    return PairBasis(*arrays)


def lambda_coefficients(g: np.ndarray, gam: np.ndarray, m: int):
    """(D, B) of d_k s_p = D[k, p] . s + B[k, p] . free at one point.

    From the metric g and its first-kind brackets gam alone; pairs
    p = (a <= b), free entries j = c * (n - m) + (rho - m).  A singular
    unactuated block g[:m, :m] is a SingularMetricError.
    """
    n = g.shape[0]
    basis = pair_basis(m)
    pp = basis.weights.size
    try:
        h = np.linalg.inv(g[:m, :m])
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("unactuated block of the metric is "
                                  "singular") from exc
    coupled = gam[:, :m, :m] @ h                             # G[k,a,b] h[b,d]
    reduced = gam[:, :m, m:] - coupled @ g[:m, m:]           # [k, a, rho]
    # entry (a_p, b_p) of C S + S C^T at S = E_q (C = coupled), and of
    # R F^T + F R^T at each unit free matrix F (R = reduced)
    D = (coupled.reshape(n, m * m) @ basis.products).reshape(n, pp, pp)
    B = (basis.units @ reduced).reshape(n, pp, m * (n - m))
    return D, B / basis.weights[:, None]


@dataclass(frozen=True)
class CompatibilitySystem:
    """Assembled linear system at one point, with its kernels.

    Rows are ordered direction-major: row(k, pair p) = k * P + p with P the
    number of unactuated pairs (a <= b, lexicographic).  Columns are ordered
    row-major over the free ratio entries: col(c, rho) = c * (n - m) + (rho - m).
    Row (k, p) is w_p B[k, p] with w = 1/2 on diagonal pairs, so in the
    single-unactuated case the transpose of A is built entrywise from the
    reduced brackets.
    """

    matrix: np.ndarray            # A
    rank: int
    tol: float
    kernel_basis: np.ndarray      # columns span ker A^T (solvability tests)
    null_basis: np.ndarray        # columns span ker A  (free directions)
    n: int
    m: int


def svd_rank(mat: np.ndarray):
    """Full SVD of mat and its numerical rank: (u, sv, vt, rank, tol).

    The rank counts the singular values above tol, KERNEL_TOL_FACTOR
    times the larger of the top singular value and 1.  Every rank and
    kernel decision in the package (A here, both jet-rigidity stages) is
    made by this one rule.
    """
    u, sv, vt = np.linalg.svd(mat)
    tol = KERNEL_TOL_FACTOR * max(sv[0], 1.0)
    return u, sv, vt, int(np.sum(sv > tol)), tol


def assemble_compatibility(sys: MechanicalSystem, x) -> CompatibilitySystem:
    """Assemble A at x; its rank and both kernels come from svd_rank."""
    _, B = lambda_coefficients(sys.metric_at(x), christoffel_first(sys, x),
                               sys.m)
    A = (pair_basis(sys.m).weights[:, None] * B).reshape(-1, B.shape[-1])
    u, _, vt, rank, tol = svd_rank(A)
    return CompatibilitySystem(matrix=A, rank=rank, tol=tol,
                               kernel_basis=u[:, rank:], null_basis=vt[rank:].T,
                               n=sys.n, m=sys.m)


def compatibility_rhs(sys: MechanicalSystem, overlap: Field, x) -> np.ndarray:
    """Right-hand side F = w (ds - D s) at x, in the row order of A."""
    m = sys.m
    sv = overlap.value(x)
    if sv.shape != (m, m):
        raise DomainError("overlap data has the wrong shape for this system")
    basis = pair_basis(m)
    D, _ = lambda_coefficients(sys.metric_at(x), christoffel_first(sys, x), m)
    ds = overlap.derivative(x)[basis.first, basis.second].T     # [k, p]
    return (basis.weights * (ds - D @ sv[basis.first, basis.second])).ravel()


def solvability_residual(sys: MechanicalSystem, overlap, x) -> np.ndarray:
    """Projections of F onto the left kernel of A: zero iff solvable at x."""
    F = compatibility_rhs(sys, overlap, x)
    return assemble_compatibility(sys, x).kernel_basis.T @ F


@dataclass(frozen=True)
class RankVerdict:
    point_rank: int
    sample_max_rank: int
    sample_ranks: tuple
    drop: bool
    radius: float
    count: int
    tol: float


def rank_condition(sys: MechanicalSystem, x0, samples, radius: float | None = None
                   ) -> RankVerdict:
    """Compare rank A(x0) with the ranks on nearby samples; flag a drop.

    A drop at x0 bars every non-scaling solution from extending through x0,
    so callers use the verdict to decide whether only scaling solutions are
    available around an equilibrium.
    """
    x0 = np.asarray(x0, dtype=float)
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise DomainError("rank_condition needs at least one sample point")
    r0 = assemble_compatibility(sys, x0).rank
    ranks = tuple(assemble_compatibility(sys, s).rank for s in samples)
    rmax = max(ranks)
    if radius is None:
        radius = float(max(np.max(np.abs(s - x0)) for s in samples))
    return RankVerdict(point_rank=r0, sample_max_rank=rmax, sample_ranks=ranks,
                       drop=rmax > r0, radius=radius, count=len(samples),
                       tol=KERNEL_TOL_FACTOR)


# ---------------------------------------------------------------------------
# recovery and the scaling family

def recover_ratio(sys: MechanicalSystem, overlap, x,
                  pins: Mapping[int, float] | None = None) -> np.ndarray:
    """Solve A r_rest = F at x and complete the eliminated column.

    Defined for a single unactuated coordinate (the only case with a
    canonical completion).  Returns the full (n,) row.  The minimum-norm
    least-squares representative is used, adjusted within ker A so pinned
    components take prescribed values, e.g. pins={2: 0.0} for a zero
    third component.
    """
    if sys.m != 1:
        raise ScopeError("recovery of a single row is defined for m = 1")
    x = np.asarray(x, dtype=float)
    comp = assemble_compatibility(sys, x)
    F = compatibility_rhs(sys, overlap, x)
    ortho = comp.kernel_basis.T @ F
    if ortho.size and np.max(np.abs(ortho)) > RECOVERY_TOL:
        raise UnsolvableDataError(
            f"overlap data violates the solvability conditions at x={x}: "
            f"max kernel projection {np.max(np.abs(ortho)):.3e}")
    rest, *_ = np.linalg.lstsq(comp.matrix, F, rcond=None)
    if pins:
        nb = comp.null_basis
        if nb.shape[1] == 0:
            raise DomainError("no free directions available to satisfy pins")
        rows = np.array([nb[rho - 1] for rho in sorted(pins)])  # rho is x-index
        want = np.array([pins[rho] - rest[rho - 1] for rho in sorted(pins)])
        coef, *_ = np.linalg.lstsq(rows, want, rcond=None)
        adjusted = rest + nb @ coef
        for rho in pins:
            if abs(adjusted[rho - 1] - pins[rho]) > RECOVERY_TOL:
                raise DomainError(f"pin on component {rho} is unreachable in ker A")
        rest = adjusted
    g = sys.metric_at(x)
    sval = overlap.value(x)[0, 0]
    row = np.empty(sys.n)
    row[1:] = rest
    row[0] = (sval - g[0, 1:] @ rest) / g[0, 0]
    return row


def actuated_block_matrix_field(sys: MechanicalSystem, block_value: Callable,
                                block_derivative: Callable | None = None) -> Field:
    """Embed a symmetric field on the actuated coordinates into full shape.

    block_value maps the actuated subvector x[m:] to an (n-m, n-m) matrix
    and block_derivative, when given, to its (n-m, n-m, n-m) derivative;
    without it the Field differences the embedded value.  Rows and columns
    touching unactuated indices are structurally zero, and the embedded
    field cannot depend on the unactuated coordinates.  This is the
    admissible shape of the extra kinetic term in a scaling solution.
    """
    m, n = sys.m, sys.n

    def val(x):
        out = np.zeros((n, n))
        out[m:, m:] = np.asarray(block_value(np.asarray(x)[m:]), dtype=float)
        return out

    deriv = None
    if block_derivative is not None:
        def deriv(x):
            out = np.zeros((n, n, n))
            out[m:, m:, m:] = np.asarray(block_derivative(np.asarray(x)[m:]),
                                         dtype=float)
            return out

    return Field(val, deriv)


def actuated_scalar_field(sys: MechanicalSystem, value: Callable,
                          gradient: Callable | None = None) -> ScalarField:
    """Scalar field depending only on the actuated coordinates.

    value and gradient, when given, map x[m:] to the value and its
    (n-m,) gradient; without a gradient the ScalarField differences the
    value."""
    m, n = sys.m, sys.n

    def val(x):
        return value(np.asarray(x, dtype=float)[m:])

    grad = None
    if gradient is not None:
        def grad(x):
            out = np.zeros(n)
            out[m:] = np.asarray(gradient(np.asarray(x, dtype=float)[m:]),
                                 dtype=float)
            return out

    return ScalarField(val, grad)


def scaling_solution(sys: MechanicalSystem, scale: float,
                     kinetic_extra: Field | None = None,
                     potential_extra: ScalarField | None = None,
                     check_positivity: bool = True
                     ) -> tuple[Field, TargetSystem]:
    """The one-parameter diagonal family: ratio = scale * [I | 0].

    Target: metric = g / scale + extra, potential = V / scale + extra,
    dissipation = C / scale, with the extras living on the actuated
    coordinates only (build them with actuated_block_matrix_field and
    actuated_scalar_field).  Solves the matching equations for any system.
    check_positivity samples the domain at POSITIVITY_SAMPLES seeded points
    and raises if the shaped kinetic matrix is indefinite at one.
    """
    if scale == 0.0:
        raise DomainError("the scaling parameter must be nonzero")
    m, n = sys.m, sys.n
    ratio = Field.constant(np.hstack([np.eye(m), np.zeros((m, n - m))]) * scale)

    if kinetic_extra is None:
        tmetric = Field(lambda x: sys.metric.value(x) / scale,
                              lambda x: sys.metric.derivative(x) / scale)
    else:
        _validate_actuated_structure(sys, kinetic_extra)
        tmetric = Field(
            lambda x: sys.metric.value(x) / scale + kinetic_extra.value(x),
            lambda x: sys.metric.derivative(x) / scale + kinetic_extra.derivative(x))
    if potential_extra is None:
        tpot = ScalarField(lambda x: sys.potential(x) / scale,
                           lambda x: sys.potential.gradient(x) / scale)
    else:
        tpot = ScalarField(
            lambda x: sys.potential(x) / scale + potential_extra(x),
            lambda x: sys.potential.gradient(x) / scale
            + potential_extra.gradient(x))
    target = TargetSystem(metric=tmetric, potential=tpot,
                          dissipation=DissipationField.scaled(sys.dissipation,
                                                              1.0 / scale),
                          name=f"{sys.name or 'system'}-scaled")

    if check_positivity:
        if sys.domain is None:
            warnings.warn("no domain declared; skipping positivity sampling")
        else:
            for p in sys.domain.sample(np.random.default_rng(0),
                                       POSITIVITY_SAMPLES):
                gt = target.metric_at(p)
                try:
                    np.linalg.cholesky(0.5 * (gt + gt.T))
                except np.linalg.LinAlgError:
                    raise IndefiniteTargetError(
                        f"shaped kinetic matrix loses positivity at x={p}")
    return ratio, target


def _validate_actuated_structure(sys: MechanicalSystem, extra: Field,
                                 tol: float = 1e-9) -> None:
    m = sys.m
    probes = [np.zeros(sys.n)]
    if sys.domain is not None:
        probes.append(sys.domain.center)
    for p in probes:
        v = extra.value(p)
        d = extra.derivative(p)
        if np.max(np.abs(v[:m, :])) > tol or np.max(np.abs(v[:, :m])) > tol:
            raise DomainError("extra kinetic term touches unactuated rows")
        if np.max(np.abs(d[:, :, :m])) > tol:
            raise DomainError("extra kinetic term depends on unactuated coordinates")


# ---------------------------------------------------------------------------
# involutive closure of kernel fields

@dataclass(frozen=True)
class ClosureResult:
    fields: tuple
    added: int
    depth: int
    closed: bool


def commutator(f1: Field, f2: Field) -> Field:
    """Lie bracket [f1, f2]^k = f1^i d_i f2^k - f2^i d_i f1^k."""

    def val(x):
        return f2.derivative(x) @ f1.value(x) - f1.derivative(x) @ f2.value(x)

    return Field(val)


def _in_span(fields, candidate: Field, points) -> bool:
    for p in points:
        S = np.stack([f.value(p) for f in fields], axis=1)
        w = candidate.value(p)
        coef, *_ = np.linalg.lstsq(S, w, rcond=None)
        if np.linalg.norm(S @ coef - w) > SPAN_TOL:
            return False
    return True


def involutive_closure(fields, points, max_depth: int = 3) -> ClosureResult:
    """Close a set of fields under pairwise commutators, testing span at points.

    Each new bracket is kept only if it escapes the pointwise span of the
    current set at some sample point.  Returns the closed set, or a result
    with closed=False if max_depth generations were not enough.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        raise DomainError("involutive_closure needs sample points")
    current = list(fields)
    added_total = 0
    for depth in range(max_depth + 1):
        new_fields = []
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                br = commutator(current[i], current[j])
                if not _in_span(current + new_fields, br, points):
                    new_fields.append(br)
        if not new_fields:
            return ClosureResult(tuple(current), added_total, depth, True)
        current.extend(new_fields)
        added_total += len(new_fields)
    return ClosureResult(tuple(current), added_total, max_depth, False)


def kernel_direction_fields(sys: MechanicalSystem, x0) -> list[Field]:
    """Coordinate-direction fields spanning the left kernel of A at the anchor.

    For one unactuated coordinate the rows of A correspond to coordinate
    directions, so each left-kernel vector is the (frozen) coefficient list
    of a constraint field on the overlap data.  These are the fields whose
    involutive closure governs how many compatibility constraints the data
    really faces.
    """
    if sys.m != 1:
        raise ScopeError("kernel direction fields are defined for m = 1")
    comp = assemble_compatibility(sys, np.asarray(x0, dtype=float))
    return [Field.constant(col) for col in comp.kernel_basis.T]
