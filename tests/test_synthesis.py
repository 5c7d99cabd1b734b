"""Law assembly, closed-loop integration, energy audit, linearization."""
import numpy as np
import pytest

from matchctl import (DissipationField, Field, MechanicalSystem,
                      ScalarField, State, TargetSystem, control_law,
                      matched_controller, lyapunov_audit, scaling_solution,
                      simulate, synthesis, trajectory_csv)
from matchctl.errors import (BlowUpError, DomainError, MatchctlError,
                             NotAnEquilibriumError, ScopeError,
                             SingularTargetError)
from matchctl.fields import fd_derivative
from matchctl.geometry import acceleration, christoffel_from_derivative
from matchctl.matching import actuated_scalar_field
from matchctl.rk4 import rk4_step
from matchctl.shapes import constant_profile
from matchctl.synthesis import (analytic_rest_linearization, germ_check,
                                linear_gains_from_blocks,
                                linearize_closed_loop, shaped_energy,
                                target_acceleration)
from matchctl.systems import (PendulumParams, bead_on_track, pendulum_cart,
                              pendulum_fixture, vertical_circle_track)

SYS, RATIO, TARGET = pendulum_fixture(PendulumParams().resolved())
STABLE = PendulumParams.stable_reference().resolved()
SYS_S, RATIO_S, TARGET_S = pendulum_fixture(STABLE)

S0 = State(np.array([0.1, -0.2, 0.15]), np.array([0.05, -0.1, 0.2]))
S_NEAR = State(np.array([0.05, 0.02, -0.03]), np.array([0.01, -0.04, 0.02]))


def test_law_turns_plant_acceleration_into_target_acceleration():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = State(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
        u = control_law(SYS, TARGET, s)
        a_plant = acceleration(SYS, s, u)
        a_target = target_acceleration(TARGET, s)
        assert np.max(np.abs(a_plant - a_target)) <= 1e-9
        # unactuated row carries no force for a matched pair
        assert abs(u[0]) <= 1e-10


def test_target_acceleration_solves_the_shaped_equation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        v = rng.uniform(-0.5, 0.5, 3)
        a = target_acceleration(TARGET, State(x, v))
        gam = christoffel_from_derivative(TARGET.metric.derivative(x))
        defect = (TARGET.metric.value(x) @ a
                  + np.einsum("jkr,j,k->r", gam, v, v)
                  + TARGET.dissipation(x, v)
                  + TARGET.potential.gradient(x))
        assert np.max(np.abs(defect)) <= 1e-9


def test_shaped_energy_is_the_quadratic_form_plus_potential():
    s = State(np.array([0.2, -0.1, 0.3]), np.array([0.4, 0.1, -0.2]))
    manual = (0.5 * s.xdot @ TARGET.metric.value(s.x) @ s.xdot
              + float(TARGET.potential(s.x)))
    assert abs(shaped_energy(TARGET, s) - manual) <= 1e-12


def test_singular_target_is_reported():
    degenerate = TargetSystem(
        metric=Field.constant(np.diag([1.0, 0.0, 1.0])),
        potential=ScalarField.constant(0.0),
        dissipation=DissipationField.zero(3))
    with pytest.raises(SingularTargetError):
        target_acceleration(degenerate, State(np.zeros(3), np.ones(3)))


def test_closed_loop_tracks_the_target_at_matched_steps():
    ctrl = matched_controller(SYS, TARGET)
    plant = simulate(SYS, S0, T=1.0, dt=1e-3, controller=ctrl)
    shaped = simulate(TARGET, S0, T=1.0, dt=1e-3)
    assert np.max(np.abs(plant.states - shaped.states)) <= 1e-9
    assert np.max(np.abs(plant.controls[:, 0])) <= 1e-9
    assert np.max(np.abs(shaped.controls)) == 0.0
    assert plant.n == 3
    assert np.allclose(plant.positions(), plant.states[:, :3])
    assert np.allclose(plant.velocities(), plant.states[:, 3:])


def test_step_halving_shrinks_error_fourth_order():
    ctrl = matched_controller(SYS, TARGET)
    ref = simulate(SYS, S0, T=1.0, dt=1.25e-3, controller=ctrl).states[-1]
    e1 = np.max(np.abs(
        simulate(SYS, S0, T=1.0, dt=2e-2, controller=ctrl).states[-1] - ref))
    e2 = np.max(np.abs(
        simulate(SYS, S0, T=1.0, dt=1e-2, controller=ctrl).states[-1] - ref))
    assert e2 > 0
    assert e1 / e2 > 10.0


def test_simulate_validation():
    with pytest.raises(DomainError):
        simulate(SYS, S0, T=-1.0, dt=1e-2)
    with pytest.raises(DomainError):
        simulate(SYS, S0, T=1.0, dt=0.0)
    with pytest.raises(DomainError):
        simulate(SYS, S0, T=1.0, dt=3e-3)  # not an integer multiple
    with pytest.raises(DomainError):
        simulate(SYS, S0, T=1e9, dt=1e-3)  # step budget
    with pytest.raises(DomainError):
        simulate(TARGET, S0, T=0.1, dt=1e-2,
                 controller=lambda s: np.zeros(3))
    with pytest.raises(DomainError):
        simulate(SYS, State(np.zeros(2), np.zeros(2)), T=0.1, dt=1e-2)
    with pytest.raises(DomainError):
        simulate("pendulum", S0, T=0.1, dt=1e-2)


def test_blowup_carries_the_last_good_node():
    runaway = MechanicalSystem(
        n=2, m=1, metric=Field.constant(np.eye(2)),
        potential=ScalarField(lambda x: -0.5 * float(x @ x),
                              gradient=lambda x: -np.asarray(x)),
        dissipation=DissipationField.zero(2))
    s0 = State(np.array([0.1, 0.1]), np.zeros(2))
    with pytest.raises(BlowUpError) as err:
        simulate(runaway, s0, T=20.0, dt=1e-2, blowup=1e3)
    assert 0.0 < err.value.t < 20.0
    assert np.all(np.isfinite(err.value.state.x))
    assert np.max(np.abs(err.value.state.x)) <= 1e3


def _free_plane(gradient):
    return MechanicalSystem(
        n=2, m=1, metric=Field.constant(np.eye(2)),
        potential=ScalarField(lambda x: 0.0, gradient=gradient),
        dissipation=DissipationField.zero(2))


def test_overflow_inside_a_step_is_a_blowup():
    # the first slope is infinite, so the second stage is not finite
    steep = _free_plane(lambda x: -np.exp(x ** 2))
    s0 = State(np.array([27.0, 0.0]), np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            simulate(steep, s0, T=1.0, dt=1e-2, blowup=1e3)
    assert err.value.t == 0.0
    assert np.array_equal(err.value.state.x, s0.x)
    assert np.array_equal(err.value.state.xdot, s0.xdot)


@pytest.mark.parametrize("source", ["field", "controller"])
def test_domain_error_at_a_finite_stage_stays_a_domain_error(source):
    def fence(x):
        if abs(x[0]) > 0.5:
            raise DomainError("left the chart")

    def gradient(x):
        if source == "field":
            fence(x)
        return -np.asarray(x)

    def controller(s):
        if source == "controller":
            fence(s.x)
        return np.zeros(2)

    s0 = State(np.array([0.1, 0.1]), np.zeros(2))
    with pytest.raises(DomainError):
        simulate(_free_plane(gradient), s0, T=20.0, dt=1e-2,
                 controller=controller, blowup=1e3)


def test_closed_loop_evaluates_each_node_once():
    law = matched_controller(SYS, TARGET)
    calls = []

    def counted(s):
        calls.append(s)
        return law(s)

    k = 20
    traj = simulate(SYS, S0, T=k * 1e-2, dt=1e-2, controller=counted)
    assert len(calls) == 4 * k + 1
    for i in range(k + 1):
        assert np.array_equal(traj.controls[i], law(traj.state_at(i)))


def test_target_run_evaluates_each_stage_once(monkeypatch):
    calls = []

    def counted(target, s):
        calls.append(s)
        return target_acceleration(target, s)

    monkeypatch.setattr(synthesis, "target_acceleration", counted)
    k = 20
    simulate(TARGET, S0, T=k * 1e-2, dt=1e-2)
    assert len(calls) <= 4 * k


def test_rk4_step_reuses_a_given_first_slope():
    calls = []

    def f(z):
        calls.append(z)
        return np.array([z[1], -np.sin(z[0]) - 0.3 * z[1]])

    z = np.array([0.7, -0.2])
    plain = rk4_step(f, z, 0.05)
    assert len(calls) == 4
    k1 = f(z)
    reused = rk4_step(f, z, 0.05, k1)
    assert len(calls) == 8
    assert np.array_equal(reused, plain)


def test_rest_point_holds_exactly():
    rest = State(np.zeros(3), np.zeros(3))
    traj = simulate(SYS, rest, T=0.5, dt=1e-2,
                    controller=matched_controller(SYS, TARGET))
    assert np.max(np.abs(traj.states)) == 0.0
    # the law still works at rest: it cancels the plant's standing tilt force
    assert np.allclose(traj.controls, traj.controls[0])
    assert abs(traj.controls[0, 2] - SYS.params["b"]) <= 1e-12


def test_audit_sees_the_dissipation_identity():
    # S_NEAR keeps the run inside the window where the shaped metric stays
    # positive; the audit's finite differences are meaningless outside it
    traj = simulate(SYS, S_NEAR, T=2.0, dt=1e-3,
                    controller=matched_controller(SYS, TARGET))
    audit = lyapunov_audit(TARGET, traj)
    assert audit.max_defect <= 1e-6
    assert audit.monotone_drop <= 1e-12
    assert audit.energies[-1] < audit.energies[0]
    assert audit.interior_times.shape[0] == audit.times.shape[0] - 2
    short = simulate(SYS, S0, T=0.01, dt=1e-2,
                     controller=matched_controller(SYS, TARGET))
    with pytest.raises(DomainError):
        lyapunov_audit(TARGET, short)


def test_zero_gain_loop_conserves_shaped_energy():
    p = PendulumParams(gain=constant_profile(0.0, dim=3)).resolved()
    sysc, _, targetc = pendulum_fixture(p)
    traj = simulate(sysc, S_NEAR, T=3.0, dt=1e-3,
                    controller=matched_controller(sysc, targetc))
    e0 = shaped_energy(targetc, traj.state_at(0))
    drift = max(abs(shaped_energy(targetc, traj.state_at(i)) - e0)
                for i in range(0, traj.times.shape[0], 50))
    assert drift <= 1e-9


def test_trajectory_csv_layout_and_determinism(tmp_path):
    traj = simulate(SYS, S0, T=0.05, dt=1e-2,
                    controller=matched_controller(SYS, TARGET))
    energy = lambda s: shaped_energy(TARGET, s)
    text = trajectory_csv(traj, energy)
    lines = text.splitlines()
    assert lines[0] == "t,x0,x1,x2,xd0,xd1,xd2,u0,u1,u2,energy"
    assert len(lines) == 1 + traj.times.shape[0]
    assert text.endswith("\n")
    assert trajectory_csv(traj, energy) == text
    last = lines[-1].split(",")
    assert abs(float(last[-1]) - energy(traj.state_at(-1))) <= 1e-12

    out = tmp_path / "run.csv"
    assert trajectory_csv(traj, energy, path=str(out)) is None
    assert out.read_text() == text


def test_linearization_agrees_with_the_block_form():
    lin = linearize_closed_loop(SYS_S, TARGET_S, np.zeros(3))
    ana = analytic_rest_linearization(TARGET_S, np.zeros(3))
    assert np.max(np.abs(lin.matrix - ana.matrix)) <= 1e-5
    assert np.max(np.abs(np.sort(lin.spectrum.real)
                         - np.sort(ana.spectrum.real))) <= 1e-5
    assert lin.stable
    assert np.all(np.diff(lin.spectrum.real) <= 1e-12)  # sorted descending


def test_linearize_rejects_non_equilibria_and_mismatches():
    # the default fixture holds a standing force at the origin
    with pytest.raises(NotAnEquilibriumError):
        linearize_closed_loop(SYS, TARGET, np.zeros(3))
    # a quiet rest point of an unrelated plant fails the matching gate
    other = pendulum_cart(0.3, 0.0)
    with pytest.raises(MatchctlError):
        linearize_closed_loop(other, TARGET_S, np.zeros(3))


def _shaped_bead(kappa=0.8, s_star=0.4, c2=0.9):
    circle = vertical_circle_track(2.0)
    sys2 = bead_on_track(circle, a=1.0, b=0.5)
    c1 = -np.cos(circle.alpha(s_star)) / kappa - c2 * s_star
    extra = actuated_scalar_field(
        sys2, lambda z: c1 * z[0] + 0.5 * c2 * z[0] ** 2,
        lambda z: np.array([c1 + c2 * z[0]]))
    ratio, target = scaling_solution(sys2, kappa, potential_extra=extra,
                                     check_positivity=False)
    return sys2, ratio, target, np.array([0.0, s_star])


def test_germ_of_the_law_matches_block_gains():
    sys2, _, target, x_star = _shaped_bead()
    hess = fd_derivative(target.potential.gradient, x_star)
    gains = linear_gains_from_blocks(
        sys2, x_star, target.metric.value(x_star), 0.5 * (hess + hess.T),
        target.dissipation.jac_v(x_star, np.zeros(2)))
    rep = germ_check(sys2, target, x_star, gains)
    assert rep.max_defect <= 1e-8
    assert rep.law_value.shape == (2,)
    assert rep.law_position.shape == (2, 2)


def test_germ_scope_and_rest_drag_guards():
    zeros3 = (np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ScopeError):
        germ_check(SYS, TARGET, np.zeros(3), zeros3)

    import dataclasses
    sys2, _, target, x_star = _shaped_bead()
    dragging = dataclasses.replace(
        sys2, dissipation=DissipationField(
            lambda x, v: np.array([0.1, 0.0])))
    zeros2 = (np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(MatchctlError):
        germ_check(dragging, target, x_star, zeros2)
