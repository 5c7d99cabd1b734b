"""Three-link chain with two unactuated joints, plus the jet rigidity probe."""
import numpy as np
import pytest

from matchctl import (Field, State, matching_residual, scaling_solution,
                      transport_residual)
from matchctl.errors import DomainError
from matchctl.fields import fd_derivative
from matchctl.matching import overlap_matrix
from matchctl.systems import (basic_jet_residual, chained_pendulums,
                              jet_dimension, pendulum_cart, rigidity_probe,
                              terminal_family)

rng = np.random.default_rng(9)

# couplings sit on the locus m01 m12 = m02 m11 where the free jet sector
# survives; perturbing one entry leaves it
ON_LOCUS = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 3.0]])
OFF_LOCUS = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.4], [0.5, 1.4, 3.0]])

SYS = chained_pendulums(ON_LOCUS)
PTS = list(SYS.domain.sample(rng, 20))


def test_mass_matrix_validation():
    with pytest.raises(DomainError):
        chained_pendulums(np.eye(2))
    lop = ON_LOCUS.copy()
    lop[0, 1] = 0.9
    with pytest.raises(DomainError):
        chained_pendulums(lop)  # asymmetric
    neg = ON_LOCUS.copy()
    neg[0, 2] = neg[2, 0] = -0.5
    with pytest.raises(DomainError):
        chained_pendulums(neg)
    with pytest.raises(DomainError):
        chained_pendulums(ON_LOCUS, weights=(1.0, 0.0, 1.0))


def test_metric_oracles():
    for x in PTS[:10]:
        assert np.max(np.abs(SYS.metric.derivative(x)
                             - fd_derivative(SYS.metric.value, x))) <= 5e-6
        SYS.check_metric_spd(x)


def test_terminal_family_solves_transport():
    ratio, overlap = terminal_family(ON_LOCUS, leading_overlap=1.2)
    assert max(np.max(np.abs(transport_residual(SYS, ratio, x)))
               for x in PTS) <= 1e-9
    for x in PTS[:10]:
        assert np.max(np.abs(overlap_matrix(SYS, ratio, x)
                             - overlap.value(x))) <= 1e-12
    assert max(basic_jet_residual(SYS, x, ratio, overlap)
               for x in PTS[:10]) <= 1e-9


def test_scaling_target_matches():
    ratio_s, target_s = scaling_solution(SYS, scale=1.2 / ON_LOCUS[0, 0])
    worst = max(np.max(np.abs(matching_residual(
        SYS, ratio_s, target_s, State(x, rng.uniform(-1, 1, 3)))))
        for x in PTS[:10])
    assert worst <= 1e-9


def test_nonzero_free_column_violates_transport():
    bad_rows = np.zeros((2, 3))
    bad_rows[0, 0] = 0.6
    bad_rows[1, 1] = 0.6
    bad_rows[0, 2] = 0.25
    bad = Field.constant(bad_rows)
    assert max(np.max(np.abs(transport_residual(SYS, bad, x)))
               for x in PTS) > 1e-3


def test_jet_dimension_off_locus_is_rigid():
    sys_off = chained_pendulums(OFF_LOCUS)
    reps = rigidity_probe(sys_off, list(sys_off.domain.sample(rng, 8)))
    assert all(r.dimension == 1 for r in reps)
    assert all(r.free_sector_killed for r in reps)
    assert all(r.warnings == () for r in reps)

    # generic positive couplings land off the locus as well
    q = rng.uniform(0.3, 1.0, (3, 3))
    sys_rand = chained_pendulums(q @ q.T + 2.0 * np.eye(3))
    reps_rand = rigidity_probe(sys_rand, list(sys_rand.domain.sample(rng, 6)))
    assert all(r.dimension == 1 for r in reps_rand)


def test_jet_dimension_on_locus_keeps_the_free_sector():
    reps = rigidity_probe(SYS, PTS[:8])
    assert all(r.dimension == 5 for r in reps)
    assert all(r.stage_a_nullity == 5 for r in reps)
    assert all(not r.free_sector_killed for r in reps)
    rep = jet_dimension(SYS, np.array([0.3, 0.1, -0.2]))
    assert rep.dimension == 5
    assert not rep.prolonged
    assert rep.stage_b_nullity is None


def test_single_unactuated_plant_is_not_rigid():
    tilt = pendulum_cart(0.5, 0.5)
    rep = jet_dimension(tilt, np.array([0.3, 0.1, -0.2]))
    assert rep.dimension == 5
