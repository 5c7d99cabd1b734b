"""Rocking-beam fixture: family evaluator, locus guards, rank drop."""
import numpy as np
import pytest

from matchctl import (Field, State, assemble_compatibility,
                      matching_residual, scaling_solution, transport_residual)
from matchctl.errors import DomainError, SingularLocusError
from matchctl.fields import fd_derivative
from matchctl.matching import rank_condition
from matchctl.shapes import Profile, constant_profile
from matchctl.systems import seesaw_cart, seesaw_ratio_family, unit_overlap_ratio

rng = np.random.default_rng(3)

A, B = 0.5, 2.0
SYS = seesaw_cart(A, B)
PTS = list(SYS.domain.sample(rng, 40))


def test_parameter_validation():
    with pytest.raises(DomainError):
        seesaw_cart(a=0.0)
    with pytest.raises(DomainError):
        seesaw_cart(b=-1.0)


def test_metric_derivative_and_positivity():
    for x in PTS[:12]:
        assert np.max(np.abs(SYS.metric.derivative(x)
                             - fd_derivative(SYS.metric.value, x))) <= 2e-7
        SYS.check_metric_spd(x)


def _varying_overlap_jet(y):
    """0.4 x2^2 cos x0 + 0.7 x0 + 1.3 over y = (x0, x2), with its gradient."""
    x0, x2 = y
    return (0.4 * x2 * x2 * np.cos(x0) + 0.7 * x0 + 1.3,
            (-0.4 * x2 * x2 * np.sin(x0) + 0.7, 0.8 * x2 * np.cos(x0)))


def _varying_overlap_hessian(y):
    x0, x2 = y
    return np.array([[-0.4 * x2 * x2 * np.cos(x0), -0.8 * x2 * np.sin(x0)],
                     [-0.8 * x2 * np.sin(x0), 0.8 * np.cos(x0)]])


VARYING = Profile(_varying_overlap_jet, _varying_overlap_hessian, 2)


def test_family_with_varying_overlap_is_transport_exact():
    fam = seesaw_ratio_family(A, B, VARYING)
    worst = max(np.max(np.abs(transport_residual(SYS, fam, x))) for x in PTS)
    assert worst <= 1e-9

    # dropping the rock-derivative term from the third component leaves a
    # field that fails transport wherever that derivative is nonzero
    def rval_truncated(x):
        d = x[0] - x[1]
        s, c = np.sin(d), np.cos(d)
        nv, (_, n2) = VARYING.jet((x[0], x[2]))
        w = x[2]
        return np.array([[(2 * nv - w * n2) / (2 * B),
                          (-2 * w * nv + (B + w * w) * n2) / (2 * A * B * s),
                          (-2 * w * w * c * nv
                           + w * (B + w * w) * c * n2) / (2 * B * w * s)]])

    worst_truncated = max(np.max(np.abs(
        transport_residual(SYS, Field(rval_truncated), x))) for x in PTS)
    assert worst_truncated > 0.1


def test_unit_overlap_member_row_and_residual():
    uo = unit_overlap_ratio(A, B)
    worst = max(np.max(np.abs(transport_residual(SYS, uo, x))) for x in PTS)
    assert worst <= 1e-9
    for x in PTS[:8]:
        s, c = np.sin(x[0] - x[1]), np.cos(x[0] - x[1])
        expected = [1 / B, -x[2] / (A * B * s), -x[2] * c / (B * s)]
        assert np.max(np.abs(uo.value(x)[0] - expected)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 3])
def test_family_refuses_an_overlap_of_the_wrong_dimension(dim):
    with pytest.raises(DomainError):
        seesaw_ratio_family(A, B, constant_profile(1.0, dim))


def test_locus_guard():
    uo = unit_overlap_ratio(A, B)
    with pytest.raises(SingularLocusError):
        uo.value(np.array([0.2, 0.2, 1.0]))  # rocking angle meets the swing
    with pytest.raises(SingularLocusError):
        uo.value(np.array([0.8, 0.0, 0.0]))  # offset hits zero


def test_scaling_member_extends_through_the_locus():
    ratio_s, target_s = scaling_solution(SYS, scale=0.5)
    worst = max(np.max(np.abs(transport_residual(SYS, ratio_s, x))) for x in PTS)
    assert worst <= 1e-9
    mr = max(np.max(np.abs(matching_residual(
        SYS, ratio_s, target_s, State(x, rng.uniform(-1, 1, 3)))))
        for x in PTS[:15])
    assert mr <= 1e-9
    # the scaling rows stay finite on the locus the family cannot reach
    on_locus = np.array([0.3, 0.3, 0.0])
    assert np.all(np.isfinite(ratio_s.value(on_locus)))


def test_rank_drops_at_the_symmetric_rest():
    comp = assemble_compatibility(SYS, PTS[0])
    assert comp.rank == 2
    assert comp.kernel_basis.shape[1] == 1
    assert assemble_compatibility(SYS, np.zeros(3)).rank == 0

    samples = [rng.uniform(-0.3, 0.3, 3) for _ in range(24)]
    verdict = rank_condition(SYS, np.zeros(3), samples)
    assert verdict.drop
    assert verdict.point_rank == 0
    assert verdict.sample_max_rank == 2

    far = [np.array([1.0, 0.0, 1.0]) + rng.uniform(-0.05, 0.05, 3)
           for _ in range(10)]
    steady = rank_condition(SYS, np.array([1.0, 0.0, 1.0]), far)
    assert not steady.drop
