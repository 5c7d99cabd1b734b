"""Bead-on-track fixture: two track classes, charts, quadrature, guards."""
import dataclasses
import os

import numpy as np
import pytest

from matchctl import assemble_compatibility, transport_residual
from matchctl.config import load_config
from matchctl.errors import DomainError, SingularLocusError
from matchctl.fields import Field, fd_derivative
from matchctl.matching import solvability_residual
from matchctl.shapes import constant_profile, cosine_profile
from matchctl.systems import (bead_on_track, curvature_integral, helix_track,
                              incline_chart, incline_ratio_family,
                              planar_ratio_family, validate_curve,
                              vertical_circle_track)
from matchctl.systems import rollercoaster

rng = np.random.default_rng(5)

B = 0.5
CIRCLE = vertical_circle_track(2.0)
SYS1 = bead_on_track(CIRCLE, a=1.0, b=B)
PTS1 = list(SYS1.domain.sample(rng, 40))

HELIX = helix_track(radius=1.5, climb=0.6)
SYS2 = bead_on_track(HELIX, a=1.0, b=B)
PTS2 = list(SYS2.domain.sample(rng, 40))


def test_track_constructors_validate():
    with pytest.raises(DomainError):
        vertical_circle_track(0.0)
    with pytest.raises(DomainError):
        helix_track(radius=-1.0, climb=0.5)
    with pytest.raises(DomainError):
        helix_track(radius=1.0, climb=1.0)
    with pytest.raises(DomainError):
        bead_on_track(CIRCLE, b=1.0)


def test_declared_class_invariants_are_enforced():
    validate_curve(CIRCLE, np.linspace(-1, 1, 7))
    validate_curve(HELIX, np.linspace(-1, 1, 7))
    liar = dataclasses.replace(CIRCLE, normal3=lambda s: 0.0)
    with pytest.raises(DomainError):
        validate_curve(liar, np.linspace(-1, 1, 7))
    with pytest.raises(DomainError):
        validate_curve(dataclasses.replace(HELIX, alpha=lambda s: 0.3 + s),
                       np.linspace(-1, 1, 7))
    with pytest.raises(DomainError):
        validate_curve(dataclasses.replace(CIRCLE, case_tag="clothoid"),
                       np.linspace(-1, 1, 7))
    with pytest.raises(DomainError):
        bead_on_track(liar)


def test_metric_and_potential_oracles():
    for sys, pts in ((SYS1, PTS1), (SYS2, PTS2)):
        for x in pts[:10]:
            assert np.max(np.abs(
                sys.metric.derivative(x)
                - fd_derivative(sys.metric.value, x))) <= 5e-6
            assert np.max(np.abs(sys.potential.gradient(x)
                                 - fd_derivative(sys.potential, x))) <= 5e-6
            sys.check_metric_spd(x)


# 0.7 sin(swing) + 1.1
SINE = cosine_profile(0.7, [1.0], phase=-0.5 * np.pi, offset=1.1)


def test_planar_family_members():
    fam = planar_ratio_family(CIRCLE, B, SINE)
    assert max(np.max(np.abs(transport_residual(SYS1, fam, x)))
               for x in PTS1) <= 1e-9

    const = planar_ratio_family(CIRCLE, B, constant_profile(1.3, 1))
    assert max(np.max(np.abs(transport_residual(SYS1, const, x)))
               for x in PTS1) <= 1e-9

    # unit overlap collapses to the first coordinate row
    unit = planar_ratio_family(CIRCLE, B, constant_profile(1.0, 1))
    for x in PTS1[:5]:
        assert np.allclose(unit.value(x), [[1.0, 0.0]], atol=1e-15)

    with pytest.raises(DomainError):
        planar_ratio_family(HELIX, B, SINE)
    # cos(alpha - swing) = 0 at swing = alpha - pi/2
    s0 = 0.3
    bad_phi = CIRCLE.alpha(s0) - 0.5 * np.pi
    with pytest.raises(SingularLocusError):
        fam.value(np.array([bad_phi, s0]))


def test_planar_family_exact_derivative():
    pts = list(np.random.default_rng(17).uniform(SYS1.domain.lo + 0.05,
                                                 SYS1.domain.hi - 0.05,
                                                 (20, 2)))
    exact = planar_ratio_family(CIRCLE, B, SINE)
    for x in pts:
        assert np.max(np.abs(exact.derivative(x)
                             - fd_derivative(exact.value, x))) <= 5e-8


@pytest.mark.parametrize("family, curve", [
    (planar_ratio_family, CIRCLE), (incline_ratio_family, HELIX)],
    ids=["planar", "incline"])
def test_families_refuse_an_overlap_of_the_wrong_dimension(family, curve):
    for dim in (2, 3):
        with pytest.raises(DomainError):
            family(curve, B, constant_profile(1.0, dim))


def test_shipped_planar_ratio_passes_near_the_locus_corner():
    # the sample box corner (0.2, -0.2) lies on cos(alpha - swing) = 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(root, "configs", "rollercoaster.yaml"))
    bundle = cfg.fixture
    for x in ([0.20000058, -0.19964984], [0.2000001, -0.1999],
              [0.201, -0.199]):
        res = transport_residual(bundle.system, bundle.ratio, np.array(x))
        assert np.max(np.abs(res)) <= cfg.run.tolerance


def test_planar_solvability_residuals():
    def swing_overlap(nuf, nurf):
        def der(x):
            d = np.zeros((1, 1, 2))
            d[0, 0, 0] = float(nurf(x[0]))
            return d
        return Field(lambda x: np.array([[float(nuf(x[0]))]]), der)

    good = swing_overlap(lambda p: 0.7 * np.sin(p) + 1.1,
                         lambda p: 0.7 * np.cos(p))
    assert max(np.max(np.abs(solvability_residual(SYS1, good, x)))
               for x in PTS1) <= 1e-9

    arclength = Field(lambda x: np.array([[x[1]]]),
                      lambda x: np.array([[[0.0, 1.0]]]))
    assert max(np.max(np.abs(solvability_residual(SYS1, arclength, x)))
               for x in PTS1) > 1e-3


def test_curvature_integral_closed_form():
    a0 = HELIX.alpha(0.0)
    k = HELIX.curvature(0.0)
    for s in (0.3, 1.0, -0.2):
        exact = k * k * s / (B * np.sin(a0) ** 2)
        assert abs(curvature_integral(HELIX, B, s) - exact) < 1e-13


def test_curvature_integral_computes_its_nodes_once(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counted(order):
        calls.append(order)
        return leggauss(order)

    rollercoaster._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    track = helix_track(radius=1.0, climb=0.5)
    for s in (0.3, 1.0, -0.2, 0.7):
        # the per-call formula the cached nodes replace
        nodes, weights = leggauss(rollercoaster.QUAD_ORDER)
        half = 0.5 * s
        vals = np.array([track.curvature(q) ** 2 for q in half * (nodes + 1.0)])
        want = float(half * np.dot(weights, vals)
                     / (B * np.sin(track.alpha(0.0)) ** 2))
        assert curvature_integral(track, B, s) == want
    assert calls == [rollercoaster.QUAD_ORDER]


@pytest.mark.parametrize("swing", [0.0, 0.5 * np.pi])
def test_incline_chart_gradient_is_guarded_like_its_value(swing):
    chart = incline_chart(helix_track(radius=1.0, climb=0.5), B)
    x = np.array([swing, 0.3])
    with pytest.raises(SingularLocusError):
        chart(x)
    with pytest.raises(SingularLocusError):
        chart.gradient(x)


def test_incline_chart_and_family():
    chart = incline_chart(HELIX, B)
    for x in PTS2[:12]:
        kdir = assemble_compatibility(SYS2, x).kernel_basis[:, 0]
        gz = chart.gradient(x)
        assert abs(kdir @ gz) / np.linalg.norm(gz) <= 1e-9
        assert np.max(np.abs(chart.gradient(x) - fd_derivative(chart, x))) <= 5e-6

    fam = incline_ratio_family(HELIX, B,
                               cosine_profile(0.4, [1.0], offset=1.2))
    assert max(np.max(np.abs(transport_residual(SYS2, fam, x)))
               for x in PTS2) <= 1e-9

    with pytest.raises(DomainError):
        incline_chart(CIRCLE, B)
    with pytest.raises(SingularLocusError):
        chart(np.array([0.0, 0.3]))  # sin(swing) = 0
    with pytest.raises(SingularLocusError):
        fam.value(np.array([0.5 * np.pi, 0.3]))  # sin(2 swing) = 0


def test_rank_structure():
    for x in PTS1[:6]:
        comp = assemble_compatibility(SYS1, x)
        assert comp.matrix.shape == (2, 1)
        assert comp.rank == 1
        assert comp.kernel_basis.shape[1] == 1
