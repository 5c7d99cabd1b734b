"""Tilting-body fixture: closed-form solution set and stability audit."""
import numpy as np
import pytest

from matchctl import State, assemble_compatibility, matching_residual, transport_residual
from matchctl.errors import DomainError
from matchctl.fields import Field, fd_derivative
from matchctl.matching import (overlap_matrix, recover_ratio,
                               solvability_residual)
from matchctl.shapes import cosine_profile, quadratic_profile
from matchctl.systems import (PendulumParams, pendulum_cart, pendulum_fixture,
                              pendulum_ratio_family, upright_stability_check)

rng = np.random.default_rng(7)

P = PendulumParams().resolved()
SYS, RATIO, TARGET = pendulum_fixture(P)
PTS = list(SYS.domain.sample(rng, 30))

STABLE = PendulumParams.stable_reference().resolved()
SYS_S, RATIO_S, TARGET_S = pendulum_fixture(STABLE)


def _fixture_overlap(p):
    a, t0, m0 = p.a, p.tilt_ratio, p.sway_ratio

    def val(x):
        s = np.sin(x[0])
        return np.array([[a * m0 * s * s + t0 - a * m0]])

    def der(x):
        d = np.zeros((1, 1, 3))
        d[0, 0, 0] = 2 * a * m0 * np.sin(x[0]) * np.cos(x[0])
        return d

    return Field(val, der)


def test_parameter_validation():
    with pytest.raises(DomainError):
        pendulum_cart(a=0.0)
    with pytest.raises(DomainError):
        pendulum_cart(a=-0.3)
    with pytest.raises(DomainError):
        PendulumParams(tilt_ratio=0.0).resolved()


def test_stated_derivatives_agree_with_finite_differences():
    for x in PTS[:12]:
        assert np.max(np.abs(SYS.metric.derivative(x)
                             - fd_derivative(SYS.metric.value, x))) <= 2e-7
        assert np.max(np.abs(TARGET.metric.derivative(x)
                             - fd_derivative(TARGET.metric.value, x))) <= 5e-6
        assert np.max(np.abs(RATIO.derivative(x)
                             - fd_derivative(RATIO.value, x))) <= 2e-7
        assert np.max(np.abs(TARGET.potential.gradient(x)
                             - fd_derivative(TARGET.potential, x))) <= 5e-6


def test_shaped_kernels_with_curved_block_profiles():
    # non-constant blocks and well exercise the chart-gradient terms of the
    # shaped metric derivative and the shaped potential gradient
    p = PendulumParams(
        block22=quadratic_profile([[0.3, 0.1], [0.1, 0.2]], [0.1, -0.2], 2.0),
        block23=cosine_profile(0.2, [1.0, 0.5], 0.3),
        block33=quadratic_profile([[0.1, 0.0], [0.0, 0.4]], [0.0, 0.1], 1.0),
        well=cosine_profile(0.5, [0.7, -1.2], 0.1, 1.0))
    sys, ratio, target = pendulum_fixture(p)
    local = np.random.default_rng(11)
    for x in sys.domain.sample(local, 20):
        assert np.max(np.abs(target.metric.derivative(x)
                             - fd_derivative(target.metric.value, x))) <= 5e-8
        assert np.max(np.abs(target.potential.gradient(x)
                             - fd_derivative(target.potential, x))) <= 5e-8
        assert np.max(np.abs(transport_residual(sys, ratio, x))) <= 1e-9
        s = State(x, local.uniform(-1, 1, 3))
        assert np.max(np.abs(matching_residual(sys, ratio, target, s))) <= 1e-9


def test_fixture_solves_both_identity_groups():
    for sys, ratio, target in ((SYS, RATIO, TARGET), (SYS_S, RATIO_S, TARGET_S)):
        tr = max(np.max(np.abs(transport_residual(sys, ratio, x))) for x in PTS)
        assert tr <= 1e-9
        mr = max(np.max(np.abs(matching_residual(
            sys, ratio, target, State(x, rng.uniform(-1, 1, 3))))) for x in PTS)
        assert mr <= 1e-9


def test_shaped_drag_is_invisible_to_the_ratio_row():
    for x in PTS:
        v = rng.uniform(-1, 1, 3)
        assert abs(float(RATIO.value(x)[0] @ TARGET.dissipation(x, v))) <= 1e-12


def test_compatibility_operator_closed_form():
    a = P.a
    for x in PTS[:8]:
        comp = assemble_compatibility(SYS, x)
        s, c = np.sin(x[0]), np.cos(x[0])
        expected = np.zeros((3, 2))
        expected[0] = [a * s, -a * c]
        assert np.max(np.abs(comp.matrix - expected)) <= 1e-12
        assert comp.rank == 1
        assert comp.kernel_basis.shape[1] == 2


def test_overlap_matrix_and_solvability():
    ov = _fixture_overlap(P)
    for x in PTS:
        assert np.max(np.abs(overlap_matrix(SYS, RATIO, x)
                             - ov.value(x))) <= 1e-12
    worst = max(np.max(np.abs(solvability_residual(SYS, ov, x))) for x in PTS)
    assert worst <= 1e-9

    # an overlap leaking dependence on a base coordinate cannot be solvable
    def bad_der(x):
        d = np.zeros((1, 1, 3))
        d[0, 0, 0] = 2 * P.a * P.sway_ratio * np.sin(x[0]) * np.cos(x[0])
        d[0, 0, 1] = 0.3
        return d

    bad = Field(lambda x: ov.value(x), bad_der)
    assert max(np.max(np.abs(solvability_residual(SYS, bad, x)))
               for x in PTS) > 1e-3


def test_recover_ratio_reproduces_the_fixture_row():
    ov = _fixture_overlap(P)
    for x in PTS[:15]:
        row = recover_ratio(SYS, ov, x, pins={2: 0.0})
        assert np.max(np.abs(row - RATIO.value(x)[0])) <= 1e-9


def test_family_evaluator_agrees_with_the_fixture():
    ov = _fixture_overlap(P)
    fam = pendulum_ratio_family(
        P, lambda t: float(ov.value(np.array([t, 0.0, 0.0]))[0, 0]),
        lambda t: float(ov.derivative(np.array([t, 0.0, 0.0]))[0, 0, 0]))
    for x in PTS:
        if abs(np.sin(x[0])) > 1e-2:
            assert np.max(np.abs(fam.value(x) - RATIO.value(x))) <= 1e-9


def test_shaped_potential_gauge_and_origin_blocks():
    assert abs(float(TARGET.potential(np.zeros(3)))) <= 1e-12
    assert abs(float(TARGET_S.potential(np.zeros(3)))) <= 1e-12

    G0 = TARGET_S.metric.value(np.zeros(3))
    assert np.allclose(G0, [[5, -3, 0], [-3, 2, 0], [0, 0, 1]], atol=1e-12)
    assert np.all(np.linalg.eigvalsh(G0) > 0)

    # shaped potential curvature at the upright point, audited by FD
    H = np.zeros((3, 3))
    h = 1e-4
    for i in range(3):
        for j in range(3):
            ei, ej = np.eye(3)[i] * h, np.eye(3)[j] * h
            H[i, j] = (TARGET_S.potential(ei + ej) - TARGET_S.potential(ei - ej)
                       - TARGET_S.potential(-ei + ej)
                       + TARGET_S.potential(-ei - ej)) / (4 * h * h)
    assert np.allclose(H, [[9, -4, 0], [-4, 2, 0], [0, 0, 2]], atol=1e-4)


def test_shaped_metric_positivity_window():
    # the default shaping stays positive on the working box but loses
    # definiteness once the tilt leaves it
    for x1, want in [(0.0, True), (0.4, True), (0.55, False)]:
        G = TARGET.metric.value(np.array([x1, 0.3, -0.2]))
        assert bool(np.all(np.linalg.eigvalsh(G) > 0)) is want


def test_stability_audit_margins():
    v = upright_stability_check(STABLE)
    assert v.passed
    assert abs(v.condition("shaped_inertia_margin_positive").value - 5.0) < 1e-12
    assert abs(v.condition("coupling_margin_negative").value - (-1.0)) < 1e-12

    vd = upright_stability_check(P)
    assert vd.passed
    assert abs(vd.condition("shaped_inertia_margin_positive").value - 15.5) < 1e-12
    assert abs(vd.condition("coupling_margin_negative").value - (-0.75)) < 1e-12

    flipped = PendulumParams(tilt_ratio=1.0, sway_ratio=3.0).resolved()
    vb = upright_stability_check(flipped)
    assert not vb.passed
    assert any(not c.ok for c in vb.conditions)
