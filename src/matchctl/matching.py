"""Matching analysis.

The shaped system mimics the plant exactly when the ratio field
r[a, i] = (g G^{-1})_a^i, with G the target kinetic matrix, satisfies a
first-order transport system in the unactuated rows, and the shaped
potential and velocity force solve the corresponding contracted equations.  Writing the overlap data
s_ab = g_ai r_b^i and eliminating the first m columns of r through the
invertible block h = (g_ab)^{-1}, the transport system becomes
linear-algebraic in the remaining columns:

    A(x) . r_rest = F(x; s, ds),

with one row per (direction k, unactuated pair a <= b).  Solvability of F
against the left kernel of A is the compatibility condition the overlap
data must satisfy.  This module assembles A and F, measures residuals of
candidate solutions, recovers r from admissible overlap data, builds the
one-parameter family of scaling solutions, and closes sets of kernel
fields under commutators.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (DomainError, UnsolvableDataError, IndefiniteTargetError,
                     ScopeError)
from .fields import Field, ScalarField, fd_derivative, scale_dissipation
from .geometry import (MechanicalSystem, christoffel_first,
                       christoffel_from_derivative, quadratic_velocity_force)
from .targets import TargetSystem

KERNEL_TOL_FACTOR = 1e-10


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
    dg = sys.metric.derivative(x)
    gam = christoffel_first(sys, x)
    rv = ratio.value(x)
    dr = ratio.derivative(x)
    if rv.shape != (m, sys.n):
        raise DomainError(f"ratio field has shape {rv.shape}, expected {(m, sys.n)}")
    # d_k s_ab = dg[a,i,k] r[b,i] + g[a,i] dr[b,i,k]
    ds = (np.einsum("aik,bi->kab", dg[:m], rv)
          + np.einsum("ai,bik->kab", g[:m], dr))
    contraction = np.einsum("kai,bi->kab", gam[:, :m, :], rv)
    return ds - contraction - np.transpose(contraction, (0, 2, 1))


def matching_residual(sys: MechanicalSystem, ratio: Field | None,
                      target: TargetSystem, s) -> np.ndarray:
    """Per unactuated index, the force the law would need on an unactuated axis.

    Zero exactly when the shaped system reproduces the plant's unactuated
    dynamics with no control.  `ratio` defaults to the rows of g G^{-1};
    passing a candidate field checks that field's consistency instead.
    """
    x, xd = s.x, s.xdot
    m = sys.m
    g = sys.metric_at(x)
    if ratio is None:
        rmat = (g @ target.metric_inv(x))[:m, :]
    else:
        rmat = ratio.value(x)
    gam = christoffel_first(sys, x)
    gamt = christoffel_from_derivative(target.metric.derivative(x))
    quad = np.einsum("jka,j,k->a", gam[:, :, :m], xd, xd)
    quad_t = quadratic_velocity_force(gamt, xd)
    cvec = sys.dissipation(x, xd)
    ctvec = target.dissipation(x, xd)
    dv = sys.potential.gradient(x)
    dvt = target.potential.gradient(x)
    return (quad - rmat @ quad_t) + (cvec[:m] - rmat @ ctvec) + (dv[:m] - rmat @ dvt)


# ---------------------------------------------------------------------------
# the eliminated linear-algebraic system

def _pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(m) for b in range(a, m)]


@dataclass(frozen=True)
class CompatibilitySystem:
    """Assembled linear system at one point, with its kernels.

    Rows are ordered direction-major: row(k, pair p) = k * P + p with P the
    number of unactuated pairs (a <= b, lexicographic).  Columns are ordered
    row-major over the free ratio entries: col(c, rho) = c * (n - m) + (rho - m).
    Diagonal-pair rows carry a 1/2 factor, so in the single-unactuated case
    the transpose of A is built entrywise from the reduced brackets.
    """

    matrix: np.ndarray            # A
    rank: int
    tol: float
    kernel_basis: np.ndarray      # columns span ker A^T (solvability tests)
    null_basis: np.ndarray        # columns span ker A  (free directions)
    n: int
    m: int

    def row_index(self, k: int, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return k * len(_pairs(self.m)) + _pairs(self.m).index((a, b))

    def col_index(self, c: int, rho: int) -> int:
        return c * (self.n - self.m) + (rho - self.m)


def _elimination_data(sys: MechanicalSystem, x):
    """Shared pieces: metric, brackets, actuated-block inverse, reduced brackets."""
    m = sys.m
    g = sys.metric_at(x)
    gam = christoffel_first(sys, x)
    h = np.linalg.inv(g[:m, :m])  # principal block of an SPD matrix: invertible
    # reduced[k, a, rho] = G[k,a,rho] - G[k,a,beta] h[beta,d] g[d,rho]
    reduced = (gam[:, :m, m:]
               - np.einsum("kab,bd,dr->kar", gam[:, :m, :m], h, g[:m, m:]))
    return g, gam, h, reduced


def _assemble_matrix(sys: MechanicalSystem, x) -> np.ndarray:
    m, n = sys.m, sys.n
    pairs = _pairs(m)
    _, _, _, reduced = _elimination_data(sys, x)
    A = np.zeros((n * len(pairs), m * (n - m)))
    for k in range(n):
        for p, (a, b) in enumerate(pairs):
            r = k * len(pairs) + p
            if a == b:
                A[r, a * (n - m):(a + 1) * (n - m)] = reduced[k, a]
            else:
                A[r, b * (n - m):(b + 1) * (n - m)] += reduced[k, a]
                A[r, a * (n - m):(a + 1) * (n - m)] += reduced[k, b]
    return A


def assemble_compatibility(sys: MechanicalSystem, x) -> CompatibilitySystem:
    """Assemble A at x and compute its rank and both kernels by SVD."""
    A = _assemble_matrix(sys, x)
    u, sv, vt = np.linalg.svd(A)
    smax = sv[0] if sv.size else 0.0
    tol = KERNEL_TOL_FACTOR * max(smax, 1.0)
    rank = int(np.sum(sv > tol))
    return CompatibilitySystem(matrix=A, rank=rank, tol=tol,
                               kernel_basis=u[:, rank:], null_basis=vt[rank:].T,
                               n=sys.n, m=sys.m)


def compatibility_rhs(sys: MechanicalSystem, overlap: Field, x) -> np.ndarray:
    """Right-hand side F at x for the overlap data (same row order and scaling as A)."""
    m, n = sys.m, sys.n
    sv = overlap.value(x)
    if sv.shape != (m, m):
        raise DomainError("overlap data has the wrong shape for this system")
    pairs = _pairs(m)
    _, gam, h, _ = _elimination_data(sys, x)
    ds = overlap.derivative(x)  # [a, b, k]
    coupled = np.einsum("kab,bd,dc->kac", gam[:, :m, :m], h, sv)  # [k, a, c]
    F = np.zeros(n * len(pairs))
    for k in range(n):
        for p, (a, b) in enumerate(pairs):
            r = k * len(pairs) + p
            if a == b:
                F[r] = 0.5 * ds[a, a, k] - coupled[k, a, a]
            else:
                F[r] = ds[a, b, k] - coupled[k, a, b] - coupled[k, b, a]
    return F


def solvability_residual(sys: MechanicalSystem, overlap, x,
                         comp: CompatibilitySystem | None = None) -> np.ndarray:
    """Projections of F onto the left kernel of A: zero iff solvable at x."""
    if comp is None:
        comp = assemble_compatibility(sys, x)
    F = compatibility_rhs(sys, overlap, x)
    return comp.kernel_basis.T @ F


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
                  kernel_shift=None, pins: Mapping[int, float] | None = None,
                  residual_tol: float = 1e-6) -> np.ndarray:
    """Solve A r_rest = F at x and complete the eliminated column.

    Defined for a single unactuated coordinate (the only case with a
    canonical completion).  Returns the full (n,) row.  The minimum-norm
    least-squares representative is used, shifted by `kernel_shift` (a
    vector checked to lie in ker A) or adjusted so pinned components take
    prescribed values, e.g. pins={2: 0.0} for a zero third component.
    """
    if sys.m != 1:
        raise ScopeError("recovery of a single row is defined for m = 1")
    x = np.asarray(x, dtype=float)
    comp = assemble_compatibility(sys, x)
    F = compatibility_rhs(sys, overlap, x)
    ortho = comp.kernel_basis.T @ F
    if ortho.size and np.max(np.abs(ortho)) > residual_tol:
        raise UnsolvableDataError(
            f"overlap data violates the solvability conditions at x={x}: "
            f"max kernel projection {np.max(np.abs(ortho)):.3e}")
    rest, *_ = np.linalg.lstsq(comp.matrix, F, rcond=None)
    if kernel_shift is not None:
        shift = np.asarray(kernel_shift, dtype=float)
        if np.max(np.abs(comp.matrix @ shift)) > residual_tol * max(
                1.0, float(np.max(np.abs(comp.matrix)))):
            raise DomainError("kernel_shift is not in the kernel of A")
        rest = rest + shift
    if pins:
        nb = comp.null_basis
        if nb.shape[1] == 0:
            raise DomainError("no free directions available to satisfy pins")
        rows = np.array([nb[rho - 1] for rho in sorted(pins)])  # rho is x-index
        want = np.array([pins[rho] - rest[rho - 1] for rho in sorted(pins)])
        coef, *_ = np.linalg.lstsq(rows, want, rcond=None)
        adjusted = rest + nb @ coef
        for rho in pins:
            if abs(adjusted[rho - 1] - pins[rho]) > residual_tol:
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

    block_value maps the actuated subvector x[m:] to an (n-m, n-m) matrix;
    rows and columns touching unactuated indices are structurally zero, and
    the embedded field cannot depend on the unactuated coordinates.  This is
    the admissible shape of the extra kinetic term in a scaling solution.
    """
    m, n = sys.m, sys.n

    def val(x):
        out = np.zeros((n, n))
        out[m:, m:] = np.asarray(block_value(np.asarray(x)[m:]), dtype=float)
        return out

    def deriv(x):
        out = np.zeros((n, n, n))
        xa = np.asarray(x)[m:]
        if block_derivative is not None:
            out[m:, m:, m:] = np.asarray(block_derivative(xa), dtype=float)
        else:
            out[m:, m:, m:] = fd_derivative(block_value, xa)
        return out

    return Field(val, deriv)


def actuated_scalar_field(sys: MechanicalSystem, value: Callable,
                          gradient: Callable | None = None) -> ScalarField:
    """Scalar field depending only on the actuated coordinates."""
    m, n = sys.m, sys.n

    def val(x):
        return value(np.asarray(x, dtype=float)[m:])

    def grad(x):
        out = np.zeros(n)
        xa = np.asarray(x, dtype=float)[m:]
        if gradient is not None:
            out[m:] = np.asarray(gradient(xa), dtype=float)
        else:
            out[m:] = fd_derivative(value, xa)
        return out

    return ScalarField(val, grad)


def scaling_solution(sys: MechanicalSystem, scale: float,
                     kinetic_extra: Field | None = None,
                     potential_extra: ScalarField | None = None,
                     check_positivity: bool = True,
                     positivity_samples: int = 64,
                     rng: np.random.Generator | None = None
                     ) -> tuple[Field, TargetSystem]:
    """The one-parameter diagonal family: ratio = scale * [I | 0].

    Target: metric = g / scale + extra, potential = V / scale + extra,
    dissipation = C / scale, with the extras living on the actuated
    coordinates only (build them with actuated_block_matrix_field and
    actuated_scalar_field).  Solves the matching equations for any system.
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
                          dissipation=scale_dissipation(sys.dissipation, 1.0 / scale),
                          name=f"{sys.name or 'system'}-scaled")

    if check_positivity:
        if sys.domain is None:
            warnings.warn("no domain declared; skipping positivity sampling")
        else:
            rng = rng or np.random.default_rng(0)
            for p in sys.domain.sample(rng, positivity_samples):
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


def _in_span(fields, candidate: Field, points, tol: float) -> bool:
    for p in points:
        S = np.stack([f.value(p) for f in fields], axis=1)
        w = candidate.value(p)
        coef, *_ = np.linalg.lstsq(S, w, rcond=None)
        if np.linalg.norm(S @ coef - w) > tol:
            return False
    return True


def involutive_closure(fields, points, max_depth: int = 3,
                       dep_tol: float = 1e-8) -> ClosureResult:
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
                if not _in_span(current + new_fields, br, points, dep_tol):
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
