"""Jet-space rigidity analysis of the overlap transport system.

The first-order matching equations force, at every point, linear
relations among the overlap entries, their first derivatives, and the
free (actuated-column) ratio components; their coefficients (D, B) are
those of matching.lambda_coefficients, the kernel the compatibility
matrix A is assembled from.  When a plant admits families
beyond the pure scaling one, the relations leave slack; when it does
not, they pin everything down to a single scale.  This module measures
that slack as the dimension of the pointwise solution set.

Two stages.  Stage A works on the 1-jet: transport rows plus the
mixed-partial relations available in directions along which the whole
transport right side vanishes (only there do the extra derivative
unknowns stay inside the jet).  If stage A annihilates the free ratio
sector, the transport system closes over the overlap entries alone and
stage B intersects the kernels of its curvature, prolonging once if the
first pass is not decisive.  The reported dimension is the stage-B
nullity in the closed case and the stage-A nullity otherwise; every rank
is decided by matching.svd_rank.  Both stages read one stencil of
transport_coefficients evaluations: x, x + 0.05 e_i (zero directions)
and x +- h e_k (rates), 3n + 1 in all; a prolongation differentiates the
curvature once more, 2n(2n + 1) more (10 and 52 in all for n = 3).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..fields import fd_derivative
from ..geometry import MechanicalSystem, christoffel_first
from ..matching import lambda_coefficients, pair_basis, svd_rank

COEFF_TOL = 1e-9
SECTOR_TOL = 1e-8
GAP_WARN = 1e-6
FD_STEP = 1e-5
LOCUS_WARN = 1e-3


def transport_coefficients(sys: MechanicalSystem, x):
    """Coefficients of the pointwise-linear transport right side.

    Returns (D, B) with the true (unscaled) relations
    d_k overlap_p = D[k, p, :] . overlap + B[k, p, :] . free
    over pairs p = (a <= b) and free components j = (row, actuated col),
    in closed form from the metric and its first-kind brackets at x
    (matching.lambda_coefficients, the kernel A and F are built from).
    """
    return lambda_coefficients(sys.metric_at(x), christoffel_first(sys, x),
                               sys.m)


@dataclass(frozen=True)
class JetReport:
    dimension: int
    stage_a_nullity: int
    free_sector_killed: bool
    stage_b_nullity: int | None
    prolonged: bool
    warnings: tuple

    def __str__(self):
        tail = "".join(f"\n  warning: {w}" for w in self.warnings)
        return (f"jet dimension {self.dimension} "
                f"(stage A {self.stage_a_nullity}, free sector "
                f"{'killed' if self.free_sector_killed else 'alive'}, "
                f"stage B {self.stage_b_nullity}){tail}")


def jet_dimension(sys: MechanicalSystem, x) -> JetReport:
    """Dimension of the pointwise solution set of the 1-jet relations at x."""
    x = np.asarray(x, dtype=float)
    n = sys.n
    warnings = []

    def packed(y):      # [D | B] along the last axis
        return np.concatenate(transport_coefficients(sys, y), axis=-1)

    here = packed(x)
    grad = fd_derivative(packed, x, FD_STEP)    # grad[..., k] = d_k here
    p2 = here.shape[1]
    f = here.shape[2] - p2
    # zero directions: every coefficient along them vanishes at x and at
    # fixed nearby offsets, so point-specific zeros don't count
    probe = [here] + [packed(y) for y in x + 0.05 * np.eye(n)]
    zdirs = np.flatnonzero(np.max(np.abs(probe), axis=(0, 2, 3)) < COEFF_TOL)
    nz = zdirs.size

    # layout: overlap (p2) | d overlap (p2*n) | free (f) | d free (f*nz);
    # transport row (k, p) reads d_k s_p - D[k, p] . s - B[k, p] . free
    fr0 = p2 + p2 * n
    cols = fr0 + f + f * nz
    value_cols = np.r_[:p2, fr0:fr0 + f]
    transport = np.zeros((n * p2, cols))
    transport[:, value_cols] -= here.reshape(n * p2, p2 + f)
    k, p = np.divmod(np.arange(n * p2), p2)
    transport[np.arange(n * p2), p2 + p * n + k] = 1.0
    # along a zero direction ell, d_ell of each live coefficient row gives
    # a mixed-partial relation whose unknowns stay inside the jet
    live_k, live_p = np.nonzero(np.abs(here).max(axis=-1) >= COEFF_TOL)
    blocks = [transport]
    for zi, ell in enumerate(zdirs):
        mixed = np.zeros((live_k.size, cols))
        mixed[:, value_cols] += grad[live_k, live_p, :, ell]
        jet_cols = np.r_[p2 + np.arange(p2) * n + ell,
                         fr0 + f + np.arange(f) * nz + zi]
        mixed[:, jet_cols] += here[live_k, live_p]
        blocks.append(mixed)

    _, sv, vt, rank, _ = svd_rank(np.vstack(blocks))
    nullity_a = vt.shape[0] - rank
    if rank and sv[rank - 1] < GAP_WARN * max(sv[0], 1.0):
        warnings.append(f"stage A rank is marginal (min/max singular value "
                        f"{sv[rank - 1] / sv[0]:.1e})")
    free_block = vt[rank:, fr0:]
    killed = bool(free_block.size == 0 or np.abs(free_block).max() < SECTOR_TOL)
    if not killed:
        return JetReport(dimension=nullity_a, stage_a_nullity=nullity_a,
                         free_sector_killed=False, stage_b_nullity=None,
                         prolonged=False, warnings=tuple(warnings))

    # stage B: closed system d_k overlap = D[k] overlap; intersect the
    # kernels of its curvature, then of its first prolongation
    # d_m C + C D[m] (pair-major, direction-minor) if that is not decisive
    first, second = np.triu_indices(n, 1)

    def curvature(coeffs, grad):  # d_k D_l - d_l D_k + [D_l, D_k], k < l
        D = coeffs[..., :p2]
        return (grad[second, :, :p2, first] - grad[first, :, :p2, second]
                + D[second] @ D[first] - D[first] @ D[second])

    curv = curvature(here, grad)
    rows_b = curv.reshape(-1, p2)
    _, svb, vtb, rb, _ = svd_rank(rows_b)
    prolonged = vtb.shape[0] - rb > 1
    if prolonged:
        d_curv = fd_derivative(
            lambda y: curvature(packed(y), fd_derivative(packed, y, FD_STEP)),
            x, FD_STEP)
        prolong = (np.moveaxis(d_curv, -1, 1)
                   + curv[:, None] @ here[None, ..., :p2])
        _, svb, vtb, rb, _ = svd_rank(np.vstack([rows_b,
                                                 prolong.reshape(-1, p2)]))
    nullity_b = vtb.shape[0] - rb
    if rb and svb[rb - 1] < GAP_WARN * max(svb[0], 1.0):
        warnings.append("stage B rank is marginal")
    return JetReport(dimension=nullity_b, stage_a_nullity=nullity_a,
                     free_sector_killed=True, stage_b_nullity=nullity_b,
                     prolonged=prolonged, warnings=tuple(warnings))


def basic_jet_residual(sys: MechanicalSystem, x, ratio, overlap) -> float:
    """Largest violation of the transport relations by a candidate
    (ratio, overlap) pair's jet at x, normalized by the coefficient scale.

    Zero (to roundoff) certifies the pair's jet solves the pointwise
    system; used to confirm the scaling family before trusting the
    dimension count."""
    x = np.asarray(x, dtype=float)
    basis = pair_basis(sys.m)
    D, B = transport_coefficients(sys, x)
    ov = overlap.value(x)[basis.first, basis.second]
    dov = overlap.derivative(x)[basis.first, basis.second].T     # [k, p]
    free = ratio.value(x)[:, sys.m:].ravel()
    worst = float(np.max(np.abs(dov - D @ ov - B @ free)))
    scale = max(1.0, np.abs(D).max(), np.abs(B).max())
    return worst / scale


def rigidity_probe(sys: MechanicalSystem, points) -> list[JetReport]:
    """Jet dimension at each sample point, with locus warnings attached.

    Points within the warning band of an angle-coincidence locus
    sin(x_i - x_j) = 0 get flagged; coefficients degenerate there and
    the dimension is not trustworthy.  No stage warning marks the chain's
    locus (jet_dimension reads 5 on it), so this band is the guard there.
    """
    reports = []
    for x in points:
        x = np.asarray(x, dtype=float)
        rep = jet_dimension(sys, x)
        prox = min(abs(np.sin(x[i] - x[j]))
                   for i in range(len(x)) for j in range(i + 1, len(x)))
        if prox < LOCUS_WARN:
            rep = replace(rep, warnings=rep.warnings + (
                f"sample is within {LOCUS_WARN} of an angle-coincidence "
                "locus",))
        reports.append(rep)
    return reports
