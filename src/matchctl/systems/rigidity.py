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
nullity in the closed case and the stage-A nullity otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..geometry import MechanicalSystem, christoffel_first
from ..matching import lambda_coefficients, pair_basis

COEFF_TOL = 1e-9
KERNEL_TOL = 1e-10
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


def _coeff_rates(sys, x, direction, step=FD_STEP):
    e = np.zeros(len(x))
    e[direction] = step
    Dp, Bp = transport_coefficients(sys, x + e)
    Dm, Bm = transport_coefficients(sys, x - e)
    return (Dp - Dm) / (2 * step), (Bp - Bm) / (2 * step)


def _nullspace(mat, tol_factor=KERNEL_TOL):
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1]), np.array([]), 0
    u, sv, vt = np.linalg.svd(mat)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > tol_factor * max(smax, 1.0)))
    return vt[rank:].T, sv, rank


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


def _zero_directions(sys, x, rng_offsets):
    """Directions along which every transport coefficient vanishes, judged
    at x and at fixed nearby offsets so point-specific zeros don't count."""
    norms = np.zeros(sys.n)
    for dx in rng_offsets:
        D, B = transport_coefficients(sys, x + dx)
        norms = np.max([norms, np.abs(D).max(axis=(1, 2)),
                        np.abs(B).max(axis=(1, 2))], axis=0)
    return [k for k in range(sys.n) if norms[k] < COEFF_TOL], norms


def jet_dimension(sys: MechanicalSystem, x) -> JetReport:
    """Dimension of the pointwise solution set of the 1-jet relations at x."""
    x = np.asarray(x, dtype=float)
    n = sys.n
    warnings = []

    offsets = [np.zeros(n)] + [0.05 * np.eye(n)[i] for i in range(n)]
    zdirs, _ = _zero_directions(sys, x, offsets)
    nz = len(zdirs)
    D, B = transport_coefficients(sys, x)
    _, p2, f = B.shape

    # layout: overlap (p2) | d overlap (p2*n) | free (f) | d free (f*nz)
    fr0 = p2 + p2 * n
    cols = fr0 + f + f * nz
    do_at = lambda p, k: p2 + p * n + k
    dfr_at = lambda j, zi: fr0 + f + j * nz + zi

    rows = []
    for k in range(n):
        for p in range(p2):
            row = np.zeros(cols)
            row[do_at(p, k)] = 1.0
            row[:p2] -= D[k, p]
            row[fr0:fr0 + f] -= B[k, p]
            rows.append(row)
    for zi, ell in enumerate(zdirs):
        dD, dB = _coeff_rates(sys, x, ell)
        for k in range(n):
            if k in zdirs:
                continue
            for p in range(p2):
                if max(np.abs(D[k, p]).max(), np.abs(B[k, p]).max()) < COEFF_TOL:
                    continue
                row = np.zeros(cols)
                row[:p2] += dD[k, p]
                for q in range(p2):
                    row[do_at(q, ell)] += D[k, p, q]
                row[fr0:fr0 + f] += dB[k, p]
                for j in range(f):
                    row[dfr_at(j, zi)] += B[k, p, j]
                rows.append(row)

    kernel, sv, rank = _nullspace(np.array(rows))
    nullity_a = kernel.shape[1]
    kept = sv[:rank]
    if kept.size and kept[-1] < GAP_WARN * max(kept[0], 1.0):
        warnings.append(f"stage A rank is marginal (min/max singular value "
                        f"{kept[-1] / kept[0]:.1e})")

    free_block = kernel[fr0:, :]
    killed = bool(free_block.size == 0 or np.abs(free_block).max() < SECTOR_TOL)
    if not killed:
        return JetReport(dimension=nullity_a, stage_a_nullity=nullity_a,
                         free_sector_killed=False, stage_b_nullity=None,
                         prolonged=False, warnings=tuple(warnings))

    # stage B: closed system d_k overlap = D[k] overlap; intersect the
    # kernels of its curvature
    def curvature_rows(prolong):
        blocks = []
        rates = [_coeff_rates(sys, x, k)[0] for k in range(n)]
        curv = {}
        for k in range(n):
            for ell in range(k + 1, n):
                c = (rates[k][ell] - rates[ell][k]
                     + D[ell] @ D[k] - D[k] @ D[ell])
                curv[k, ell] = c
                blocks.append(c)
        if prolong:
            e = np.zeros(n)
            for (k, ell), c in curv.items():
                for mdir in range(n):
                    e[:] = 0.0
                    e[mdir] = FD_STEP
                    dc = ((_curvature_at(sys, x + e, k, ell)
                           - _curvature_at(sys, x - e, k, ell))
                          / (2 * FD_STEP))
                    blocks.append(dc + c @ D[mdir])
        return np.vstack(blocks)

    def _curvature_at(s, xx, k, ell):
        Dk, _ = _coeff_rates(s, xx, k)
        Dl, _ = _coeff_rates(s, xx, ell)
        Dx, _ = transport_coefficients(s, xx)
        return Dk[ell] - Dl[k] + Dx[ell] @ Dx[k] - Dx[k] @ Dx[ell]

    kb, svb, rb = _nullspace(curvature_rows(prolong=False))
    nullity_b = kb.shape[1]
    prolonged = False
    if nullity_b > 1:
        kb, svb, rb = _nullspace(curvature_rows(prolong=True))
        nullity_b = kb.shape[1]
        prolonged = True
    keptb = svb[:rb]
    if keptb.size and keptb[-1] < GAP_WARN * max(keptb[0], 1.0):
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
    the dimension is not trustworthy.
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
