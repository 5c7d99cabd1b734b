"""Tilting-body fixture: closed-form solution set and stability audit."""
import math

import numpy as np
import pytest

from matchctl import State, assemble_compatibility, matching_residual, transport_residual
from matchctl.errors import DomainError
from matchctl.fields import Field, fd_derivative
from matchctl.matching import (overlap_matrix, recover_ratio,
                               solvability_residual)
from matchctl.shapes import constant_profile, cosine_profile, quadratic_profile
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
    local = np.random.default_rng(12)
    for x in PTS[:12]:
        assert np.max(np.abs(SYS.metric.derivative(x)
                             - fd_derivative(SYS.metric.value, x))) <= 2e-7
        assert np.max(np.abs(TARGET.metric.derivative(x)
                             - fd_derivative(TARGET.metric.value, x))) <= 5e-6
        assert np.max(np.abs(RATIO.derivative(x)
                             - fd_derivative(RATIO.value, x))) <= 2e-7
        assert np.max(np.abs(TARGET.potential.gradient(x)
                             - fd_derivative(TARGET.potential, x))) <= 5e-6
        z = np.concatenate((x, local.uniform(-1, 1, 3)))
        assert np.max(np.abs(
            TARGET.dissipation.derivative(z)
            - fd_derivative(TARGET.dissipation.value, z))) <= 2e-7


# non-constant blocks and well exercise the chart-gradient terms of the
# shaped metric derivative and the shaped potential gradient
CURVED = PendulumParams(
    block22=quadratic_profile([[0.3, 0.1], [0.1, 0.2]], [0.1, -0.2], 2.0),
    block23=cosine_profile(0.2, [1.0, 0.5], 0.3),
    block33=quadratic_profile([[0.1, 0.0], [0.0, 0.4]], [0.0, 0.1], 1.0),
    well=cosine_profile(0.5, [0.7, -1.2], 0.1, 1.0))


def test_shaped_kernels_with_curved_block_profiles():
    sys, ratio, target = pendulum_fixture(CURVED)
    local = np.random.default_rng(11)
    for x in sys.domain.sample(local, 20):
        assert np.max(np.abs(target.metric.derivative(x)
                             - fd_derivative(target.metric.value, x))) <= 5e-8
        assert np.max(np.abs(target.potential.gradient(x)
                             - fd_derivative(target.potential, x))) <= 5e-8
        assert np.max(np.abs(transport_residual(sys, ratio, x))) <= 1e-9
        s = State(x, local.uniform(-1, 1, 3))
        assert np.max(np.abs(matching_residual(sys, ratio, target, s))) <= 1e-9


@pytest.mark.parametrize("gain", [
    None,
    cosine_profile(0.4, [0.5, -0.3, 0.8], 0.2, 1.0),
    quadratic_profile(np.diag([0.3, 0.2, 0.1]), [0.1, -0.2, 0.05], 1.5),
], ids=["constant", "cosine", "quadratic"])
def test_float_drag_kernels_match_the_array_formula(gain):
    # the drag -t0 gain(x) w (w . v), w = (-slope cos x0, 1, 1), and its
    # velocity Jacobian as array expressions, against the float kernels
    p = PendulumParams(gain=gain).resolved()
    sys, _, target = pendulum_fixture(p)
    t0, slope = p.tilt_ratio, p.sway_ratio / p.tilt_ratio
    local = np.random.default_rng(41)
    for x in sys.domain.sample(local, 20):
        v = local.uniform(-1, 1, 3)
        w = np.array((-slope * np.cos(x[0]), 1.0, 1.0))
        want = -t0 * p.gain(x) * w * (w @ v)
        got = target.dissipation(x, v)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        want_jv = -t0 * p.gain(x) * np.outer(w, w)
        got_jv = target.dissipation.jac_v(x, v)
        assert np.max(np.abs(got_jv - want_jv)) <= 1e-15 * np.max(np.abs(want_jv))


def _reference_kernels(p):
    """The target metric, its derivative and the potential gradient as
    array formulas: each recomputes the chart and reads the profiles
    through __call__ and gradient on an array point."""
    p = p.resolved()
    a, t0, m0 = p.a, p.tilt_ratio, p.sway_ratio
    slope, ca = m0 / t0, a / t0

    def chart(x):
        c, s = math.cos(x[0]), math.sin(x[0])
        return c, s, np.array([x[1] - slope * s, x[2]])

    def metric(x):
        c, s, y = chart(x)
        f22, f23, f33 = p.block22(y), p.block23(y), p.block33(y)
        g01 = -ca * c - slope * c * f22
        g02 = -ca * s - slope * c * f23
        g00 = 1.0 / t0 + ca * slope * c * c + slope * slope * c * c * f22
        return np.array(((g00, g01, g02), (g01, f22, f23), (g02, f23, f33)))

    def metric_der(x):
        c, s, y = chart(x)
        f22, f23 = p.block22(y), p.block23(y)
        du = np.array((-slope * c, 1.0, 0.0))
        dv = np.array((0.0, 0.0, 1.0))
        grads = [q.gradient(y) for q in (p.block22, p.block23, p.block33)]
        d22, d23, d33 = (gr[0] * du + gr[1] * dv for gr in grads)
        e0 = np.array((1.0, 0.0, 0.0))
        d01 = -slope * c * d22 + (ca * s + slope * s * f22) * e0
        d02 = -slope * c * d23 + (-ca * c + slope * s * f23) * e0
        d00 = (slope * slope * c * c * d22
               + (-2.0 * ca * slope * c * s
                  - 2.0 * slope * slope * c * s * f22) * e0)
        return np.array(((d00, d01, d02), (d01, d22, d23), (d02, d23, d33)))

    def pot_grad(x):
        c, s, y = chart(x)
        wu, wv = p.well.gradient(y)
        return np.array((-slope * c * wu - s / t0, wu, wv))

    return metric, metric_der, pot_grad


@pytest.mark.parametrize("params", [P, STABLE, CURVED],
                         ids=["shipped", "stable", "curved"])
def test_one_point_target_kernels_match_the_array_formulas(params):
    sys, _, target = pendulum_fixture(params)
    metric, metric_der, pot_grad = _reference_kernels(params)
    local = np.random.default_rng(43)
    for x in sys.domain.sample(local, 25):
        for got, want in ((target.metric.value(x), metric(x)),
                          (target.metric.derivative(x), metric_der(x)),
                          (target.potential.gradient(x), pot_grad(x))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _target_outputs(target, x, v):
    """Every target kernel at (x, v), as bytes."""
    outs = (target.metric.value(x), target.metric.derivative(x),
            np.float64(target.potential(x)), target.potential.gradient(x),
            target.dissipation(x, v), target.dissipation.jac_v(x, v))
    return [np.asarray(o).tobytes() for o in outs]


def _fresh_outputs(params, x, v):
    return _target_outputs(pendulum_fixture(params)[2], x, v)


@pytest.mark.parametrize("params", [P, CURVED], ids=["shipped", "curved"])
def test_target_point_memo_follows_in_place_changes(params):
    _, _, target = pendulum_fixture(params)
    x, v = np.array([0.1, 0.2, -0.3]), np.array([0.5, -0.4, 0.2])
    before = _target_outputs(target, x, v)
    for i in range(3):
        target.metric.value(x)      # the last point seen is x itself
        x[i] += 0.125
        after = _target_outputs(target, x, v)
        assert after != before
        assert after == _fresh_outputs(params, x, v)
        before = after


def test_target_point_memo_keeps_signed_zeros_apart():
    _, _, target = pendulum_fixture(P)
    v = np.array([0.5, -0.4, 0.2])
    plus, minus = np.array([0.0, 0.0, 0.0]), np.array([-0.0, 0.0, 0.0])
    want_plus = _fresh_outputs(P, plus, v)
    want_minus = _fresh_outputs(P, minus, v)
    # the tilt's sign of zero reaches the potential gradient through sin x0
    assert want_plus != want_minus
    for x, want in ((plus, want_plus), (minus, want_minus), (plus, want_plus),
                    (minus, want_minus)):
        assert _target_outputs(target, x, v) == want


@pytest.mark.parametrize("params", [P, CURVED], ids=["shipped", "curved"])
def test_target_point_memo_alternating_points_match_fresh_fixtures(params):
    sys, _, target = pendulum_fixture(params)
    local = np.random.default_rng(44)
    x, y = sys.domain.sample(local, 2)
    v = local.uniform(-1, 1, 3)
    want = {0: _fresh_outputs(params, x, v), 1: _fresh_outputs(params, y, v)}
    for i in range(6):
        assert _target_outputs(target, (x, y)[i % 2], v) == want[i % 2]


@pytest.mark.parametrize("name, profile", [
    ("block22", quadratic_profile(np.eye(3))),
    ("block23", constant_profile(0.0, dim=3)),
    ("block33", cosine_profile(1.0, [1.0])),
    ("well", quadratic_profile(np.eye(3))),
    ("gain", constant_profile(1.0)),
    ("gain", cosine_profile(0.4, [0.5, -0.3], 0.2, 1.0)),
], ids=["block22-R3", "block23-R3", "block33-R1", "well-R3", "gain-R2",
        "gain-cosine-R2"])
def test_profiles_of_the_wrong_dimension_are_refused(name, profile):
    with pytest.raises(DomainError, match=name):
        PendulumParams(**{name: profile}).resolved()
    with pytest.raises(DomainError, match=name):
        pendulum_fixture(PendulumParams(**{name: profile}))


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
    # the fixture's overlap t0 - a m0 cos^2(tilt), a cosine of twice the tilt
    ov = _fixture_overlap(P)
    half = 0.5 * P.a * P.sway_ratio
    prof = cosine_profile(-half, [2.0], offset=P.tilt_ratio - half)
    fam = pendulum_ratio_family(P, prof)
    for x in PTS:
        assert abs(prof(x[:1]) - ov.value(x)[0, 0]) <= 1e-12
        if abs(np.sin(x[0])) > 1e-2:
            assert np.max(np.abs(fam.value(x) - RATIO.value(x))) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3])
def test_family_refuses_an_overlap_of_the_wrong_dimension(dim):
    with pytest.raises(DomainError):
        pendulum_ratio_family(P, constant_profile(1.0, dim))


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
