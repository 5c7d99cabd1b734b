"""Three-link chain with two unactuated joints, plus the jet rigidity probe."""
import os

import numpy as np
import pytest

from matchctl import (DissipationField, Field, MechanicalSystem, ScalarField,
                      State, matching_residual, scaling_solution,
                      transport_residual)
from matchctl.config import load_config
from matchctl.errors import DomainError
from matchctl.fields import fd_derivative
from matchctl.matching import overlap_matrix
from matchctl.systems import (basic_jet_residual, chained_pendulums,
                              jet_dimension, pendulum_cart, rigidity,
                              rigidity_probe, terminal_family)

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


# g = diag(exp(C x)) with zero potential and dissipation: stage B's first
# pass is not decisive at most points, so the probe prolongs (30 of the 40
# points drawn below)
EXP_C = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
DIAG_EXP = MechanicalSystem(
    3, 2, Field(lambda x: np.diag(np.exp(EXP_C @ x))),
    ScalarField(lambda x: 0.0, lambda x: np.zeros(3)),
    DissipationField(lambda x, v: np.zeros(3)))
DIAG_EXP_PTS = np.random.default_rng(7).uniform(-0.3, 0.3, (40, 3))


@pytest.mark.parametrize("index,dimension,prolonged", [
    (0, 3, True),       # curvature and its prolongation vanish
    (6, 1, True),       # prolongation lowers the first-pass nullity 3 to 1
    (10, 1, False),     # the first pass already decides
])
def test_prolongation_reports(index, dimension, prolonged):
    rep = jet_dimension(DIAG_EXP, DIAG_EXP_PTS[index])
    assert rep == rigidity.JetReport(
        dimension=dimension, stage_a_nullity=3, free_sector_killed=True,
        stage_b_nullity=dimension, prolonged=prolonged, warnings=())


def test_stencil_evaluation_counts(monkeypatch):
    calls = []
    real = rigidity.transport_coefficients

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rigidity, "transport_coefficients", counted)
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "double-pendulum.yaml"))
    system = cfg.fixture.system
    for x in system.domain.sample(np.random.default_rng(3), 5):
        calls.clear()
        assert not jet_dimension(system, x).prolonged
        assert len(calls) == 3 * 3 + 1
    calls.clear()
    assert jet_dimension(DIAG_EXP, DIAG_EXP_PTS[0]).prolonged
    assert len(calls) == 10 + 2 * 3 * (2 * 3 + 1)


def test_probe_flags_angle_coincidence():
    # exactly on the locus the jet dimension reads 5 with no stage
    # warning, and 1e-8 off it 3: the locus band is the guard there
    sys_off = chained_pendulums(OFF_LOCUS)
    on_locus = np.array([0.3, 0.3, -0.2])
    near = np.array([0.3, 0.3 + 1e-8, -0.2])
    clear = np.array([0.3, 0.31, -0.2])
    assert jet_dimension(sys_off, on_locus).dimension == 5
    assert jet_dimension(sys_off, on_locus).warnings == ()
    assert jet_dimension(sys_off, near).dimension == 3
    flag = "sample is within 0.001 of an angle-coincidence locus"
    reps = rigidity_probe(sys_off, [on_locus, near, clear])
    assert [flag in r.warnings for r in reps] == [True, True, False]
    assert reps[2].dimension == 1
