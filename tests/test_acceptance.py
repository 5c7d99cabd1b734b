"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints the measured figure next to its bound, so a failing run
shows how far off it landed.  The two fine closed-loop trajectories are
shared through cached helpers; everything else is cheap enough to rebuild.
"""
import functools
import time

import numpy as np
import yaml

from matchctl import (State, assemble_compatibility, matching_residual,
                      row_identity_check, scaling_solution,
                      transport_residual, transport_target_data)
from matchctl.cli import main
from matchctl.fields import (DissipationField, Field, ScalarField,
                             fd_derivative)
from matchctl.geometry import Box, MechanicalSystem, energy
from matchctl.matching import (actuated_block_matrix_field,
                               actuated_scalar_field, involutive_closure,
                               kernel_direction_fields, rank_condition,
                               solvability_residual)
from matchctl.shapes import constant_profile, cosine_profile
from matchctl.synthesis import (germ_check, linear_gains_from_blocks,
                                linearize_closed_loop, lyapunov_audit,
                                matched_controller, simulate)
from matchctl.systems import (PendulumParams, basic_jet_residual,
                              bead_on_track, chained_pendulums, helix_track,
                              incline_chart, incline_ratio_family,
                              pendulum_fixture, planar_ratio_family,
                              rigidity_probe, seesaw_cart, terminal_family,
                              unit_overlap_ratio, upright_stability_check,
                              vertical_circle_track)

S0 = State(np.array([0.05, 0.02, -0.03]), np.array([0.01, -0.04, 0.02]))


@functools.lru_cache(maxsize=None)
def default_set():
    return pendulum_fixture(PendulumParams().resolved())


@functools.lru_cache(maxsize=None)
def stable_set():
    return pendulum_fixture(PendulumParams.stable_reference().resolved())


@functools.lru_cache(maxsize=None)
def fine_closed_loop():
    # shared by criteria 3, 4 and 6: plant under the law vs. free target,
    # same initial state, fine steps
    sys, _, target = default_set()
    ctl = matched_controller(sys, target)
    plant = simulate(sys, S0, 2.0, 1e-4, controller=ctl)
    free = simulate(target, S0, 2.0, 1e-4)
    return plant, free


def test_criterion_01_pendulum_closed_forms_match_hand_coded_values():
    t_start = time.perf_counter()
    p = PendulumParams().resolved()
    _, ratio, target = default_set()
    a, t0r, m0r = p.a, p.tilt_ratio, p.sway_ratio
    slope, ca = m0r / t0r, a / t0r
    f22, f23, f33 = 2.0, 0.0, 1.0
    rng = np.random.default_rng(404)
    worst = {"ratio": 0.0, "metric": 0.0, "potential": 0.0, "drag": 0.0}
    for _ in range(1000):
        x = rng.uniform(-1.2, 1.2, 3)
        v = rng.uniform(-1, 1, 3)
        c, s = np.cos(x[0]), np.sin(x[0])
        lam = np.array([t0r, m0r * c, 0.0])
        worst["ratio"] = max(worst["ratio"],
                             np.max(np.abs(ratio.value(x)[0] - lam)))
        # shaped metric by row reconstruction: the unactuated plant row
        # g[0, j] equals lam . Ghat[:, j], the rest is the chosen block
        G = np.empty((3, 3))
        G[1, 1], G[1, 2], G[2, 2] = f22, f23, f33
        G[2, 1] = G[1, 2]
        g0 = np.array([1.0, -a * c, -a * s])
        for j in (1, 2):
            G[0, j] = (g0[j] - lam[1] * G[1, j] - lam[2] * G[2, j]) / lam[0]
        G[1, 0], G[2, 0] = G[0, 1], G[0, 2]
        G[0, 0] = (g0[0] - lam[1] * G[1, 0] - lam[2] * G[2, 0]) / lam[0]
        worst["metric"] = max(worst["metric"],
                              np.max(np.abs(target.metric.value(x) - G)))
        u = x[1] - slope * s
        vhat = c / t0r + (u * u + x[2] * x[2]) + 1.0
        worst["potential"] = max(worst["potential"],
                                 abs(float(target.potential(x)) - vhat))
        wv = np.array([-slope * c, 1.0, 1.0])
        drag = -t0r * 1.0 * wv * (wv @ v)
        worst["drag"] = max(worst["drag"],
                            np.max(np.abs(target.dissipation(x, v) - drag)))
    elapsed = time.perf_counter() - t_start
    print(f"closed forms at 1000 points: worst {max(worst.values()):.3e} "
          f"(bound 1e-12) in {elapsed:.2f}s (bound 5s)")
    assert all(e <= 1e-12 for e in worst.values()), worst
    assert elapsed < 5.0


def test_criterion_02_stated_solutions_pass_residuals_on_all_fixtures():
    t_start = time.perf_counter()
    rng = np.random.default_rng(909)
    sysp, ratiop, targetp = default_set()
    worst = 0.0
    pts = list(sysp.domain.sample(rng, 100))
    worst = max(np.max(np.abs(transport_residual(sysp, ratiop, x)))
                for x in pts)
    for x in pts:
        v = rng.uniform(-1, 1, 3)
        worst = max(worst, np.max(np.abs(
            matching_residual(sysp, ratiop, targetp, State(x, v)))))

    beam = seesaw_cart(0.5, 2.0)
    uo = unit_overlap_ratio(0.5, 2.0)
    pts_b = list(beam.domain.sample(rng, 100))
    worst = max(worst, max(np.max(np.abs(transport_residual(beam, uo, x)))
                           for x in pts_b))
    r_sc, t_sc = scaling_solution(beam, 0.5)
    for x in pts_b:
        v = rng.uniform(-1, 1, 3)
        worst = max(worst, np.max(np.abs(
            matching_residual(beam, r_sc, t_sc, State(x, v)))))

    circle = vertical_circle_track(2.0)
    bead1 = bead_on_track(circle, a=1.0, b=0.5)
    # overlap 0.7 sin(q) + 1.1
    fam1 = planar_ratio_family(circle, 0.5, cosine_profile(
        0.7, [1.0], phase=-0.5 * np.pi, offset=1.1))
    worst = max(worst, max(np.max(np.abs(transport_residual(bead1, fam1, x)))
                           for x in bead1.domain.sample(rng, 100)))
    hel = helix_track(radius=1.5, climb=0.6)
    bead2 = bead_on_track(hel, a=1.0, b=0.5)
    fam2 = incline_ratio_family(hel, 0.5,
                                cosine_profile(0.4, [1.0], offset=1.2))
    worst = max(worst, max(np.max(np.abs(transport_residual(bead2, fam2, x)))
                           for x in bead2.domain.sample(rng, 100)))

    mdp = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.4], [0.5, 1.4, 3.0]])
    chain = chained_pendulums(mdp)
    rdp, _ = terminal_family(mdp, leading_overlap=1.2)
    pts_dp = list(chain.domain.sample(rng, 100))
    worst = max(worst, max(np.max(np.abs(transport_residual(chain, rdp, x)))
                           for x in pts_dp))
    r_dp, t_dp = scaling_solution(chain, 1.2 / mdp[0, 0])
    for x in pts_dp[:50]:
        v = rng.uniform(-1, 1, 3)
        worst = max(worst, np.max(np.abs(
            matching_residual(chain, r_dp, t_dp, State(x, v)))))
    elapsed = time.perf_counter() - t_start
    print(f"residuals over four fixtures: worst {worst:.3e} (bound 1e-9) "
          f"in {elapsed:.2f}s (bound 10s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_03_controlled_plant_tracks_the_target_at_fourth_order():
    sys, _, target = default_set()
    plant, free = fine_closed_loop()
    dev = np.max(np.abs(plant.states - free.states))
    print(f"same-step deviation: {dev:.3e} (bound 1e-6)")
    assert dev <= 1e-6

    ctl = matched_controller(sys, target)
    ref = simulate(target, S0, 2.0, 1.25e-3)
    e_coarse = np.max(np.abs(
        simulate(sys, S0, 2.0, 2e-2, controller=ctl).states[-1]
        - ref.states[-1]))
    e_half = np.max(np.abs(
        simulate(sys, S0, 2.0, 1e-2, controller=ctl).states[-1]
        - ref.states[-1]))
    print(f"halving: {e_coarse:.3e} -> {e_half:.3e}, "
          f"ratio {e_coarse / e_half:.1f} (bound 12)")
    assert e_coarse / e_half >= 12.0


def test_criterion_04_unactuated_row_vanishes_and_scaling_law_is_zero():
    plant, _ = fine_closed_loop()
    u_first = np.max(np.abs(plant.controls[:, 0]))
    print(f"max |first control row|: {u_first:.3e} (bound 1e-9)")
    assert u_first <= 1e-9

    sysp, _, _ = default_set()
    _, t_sc = scaling_solution(sysp, 2.0)
    run = simulate(sysp, S0, 2.0, 1e-3,
                   controller=matched_controller(sysp, t_sc))
    u_all = np.max(np.abs(run.controls))
    print(f"scaling-family law along trajectory: {u_all:.3e} (bound 1e-12)")
    assert u_all <= 1e-12


def test_criterion_05_compliant_parameter_set_stabilizes_the_rest_point():
    ps = PendulumParams.stable_reference().resolved()
    verdict = upright_stability_check(ps)
    assert verdict.passed, [c for c in verdict.conditions if not c.ok]

    sys_s, _, target_s = stable_set()
    lin = linearize_closed_loop(sys_s, target_s, np.zeros(3))
    top = lin.spectrum.real.max()
    print(f"spectrum max real part: {top:.5f} (bound -1e-4)")
    assert lin.stable
    assert top < -1e-4

    # kick along the fastest eigendirection, radius 0.1
    w, V = np.linalg.eig(lin.matrix)
    fast = V[:, np.argmin(w.real)].real
    z = fast / np.linalg.norm(fast) * 0.1
    traj = simulate(target_s, State(z[:3], z[3:]), 60.0, 1e-3)
    H = np.array([energy(target_s, traj.state_at(i))
                  for i in range(len(traj.times))])
    rise = float(np.max(np.diff(H)))
    print(f"H(0) {H[0]:.6e}  H(60) {H[-1]:.6e}  ratio {H[-1] / H[0]:.3e} "
          f"(bound 1e-3); largest one-step rise {rise:.3e} (bound 1e-6)")
    assert H[-1] < 1e-3 * H[0]
    assert rise <= 1e-6


def test_criterion_06_energy_rate_matches_drag_and_holds_without_it():
    _, _, target = default_set()
    plant, _ = fine_closed_loop()
    audit = lyapunov_audit(target, plant)
    print(f"energy identity defect: {audit.max_defect:.3e} (bound 1e-6)")
    assert audit.max_defect <= 1e-6

    p0 = PendulumParams(gain=constant_profile(0.0, dim=3)).resolved()
    _, _, target0 = pendulum_fixture(p0)
    run = simulate(target0, S0, 10.0, 1e-3)
    E = np.array([energy(target0, run.state_at(i))
                  for i in range(0, len(run.times), 100)])
    drift = np.max(np.abs(E - E[0]))
    print(f"zero-drag energy drift over T=10: {drift:.3e} (bound 1e-8)")
    assert drift <= 1e-8


def test_criterion_07_kernel_dimensions_and_rank_drop_are_exact():
    rng = np.random.default_rng(77)
    sysp, _, _ = default_set()
    for x in sysp.domain.sample(rng, 10):
        comp = assemble_compatibility(sysp, x)
        assert comp.rank == 1
        assert comp.kernel_basis.shape[1] == 2

    beam = seesaw_cart(0.5, 2.0)
    for x in beam.domain.sample(rng, 10):
        assert assemble_compatibility(beam, x).kernel_basis.shape[1] == 1
    nearby = [rng.uniform(-0.3, 0.3, 3) for _ in range(24)]
    verdict = rank_condition(beam, np.zeros(3), nearby)
    print(f"rank at symmetric rest {verdict.point_rank} vs nearby "
          f"{verdict.sample_max_rank} (want 0 vs 2)")
    assert verdict.drop
    assert verdict.point_rank == 0
    assert verdict.sample_max_rank == 2

    M0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    const_sys = MechanicalSystem(
        n=3, m=1,
        metric=Field(lambda x: M0, lambda x: np.zeros((3, 3, 3))),
        potential=ScalarField(lambda x: 0.0, lambda x: np.zeros(3)),
        dissipation=DissipationField.zero(3),
        params={}, domain=Box(lo=(-1, -1, -1), hi=(1, 1, 1)), name="const")
    for x in const_sys.domain.sample(rng, 5):
        assert assemble_compatibility(const_sys, x).rank == 0


def test_criterion_08_characteristic_transport_reproduces_closed_forms():
    sysp, ratiop, targetp = default_set()
    times = np.linspace(-1.0, 1.0, 201)
    seed_vals = [(1, np.linspace(-0.5, 0.5, 3)),
                 (2, np.linspace(-0.5, 0.5, 3))]
    grid = transport_target_data(
        sysp, ratiop,
        initial_block=lambda x: targetp.metric.value(x)[1:, 1:],
        initial_potential=lambda x: float(targetp.potential(x)),
        anchor=np.zeros(3), times=times,
        seed_values=seed_vals, plane_axis=0, dt=2e-3)
    assert grid.warnings == ()

    err_g = 0.0
    err_v = 0.0
    cover = 0.0
    for k in range(grid.seed_count):
        for j in range(len(grid.times)):
            x = grid.states[k, j]
            cover = max(cover, abs(x[0]))
            err_g = max(err_g, np.max(np.abs(
                grid.metric[k, j] - targetp.metric.value(x))))
            err_v = max(err_v, abs(
                grid.potential[k, j] - float(targetp.potential(x))))
    print(f"node errors: metric {err_g:.3e} potential {err_v:.3e} "
          f"(bound 1e-5); first-axis coverage {cover:.2f} (want >= 1)")
    assert err_g <= 1e-5
    assert err_v <= 1e-5
    assert cover >= 1.0 - 1e-9

    report = row_identity_check(sysp, ratiop, grid, tol=1e-7)
    print(f"row identity along characteristics: {report.max_defect:.3e} "
          f"(bound 1e-7)")
    assert report.passed


def test_criterion_09_overlap_solvability_and_kernel_field_closure():
    rng = np.random.default_rng(5)
    circle = vertical_circle_track(2.0)
    bead1 = bead_on_track(circle, a=1.0, b=0.5)
    pts1 = list(bead1.domain.sample(rng, 40))

    def swing_overlap(nuf, nurf):
        def der(x):
            d = np.zeros((1, 1, 2))
            d[0, 0, 0] = float(nurf(x[0]))
            return d
        return Field(lambda x: np.array([[float(nuf(x[0]))]]), der)

    planar = swing_overlap(lambda q: 0.7 * np.sin(q) + 1.1,
                           lambda q: 0.7 * np.cos(q))
    worst1 = max(np.max(np.abs(solvability_residual(bead1, planar, x)))
                 for x in pts1)

    hel = helix_track(radius=1.5, climb=0.6)
    bead2 = bead_on_track(hel, a=1.0, b=0.5)
    pts2 = list(bead2.domain.sample(rng, 40))
    chart = incline_chart(hel, 0.5)

    def chart_overlap(nuf, nurf):
        def der(x):
            g = chart.gradient(x)
            r = float(nurf(chart(x)))
            return np.array([[[r * g[0], r * g[1]]]])
        return Field(
            lambda x: np.array([[float(nuf(chart(x)))]]), der)

    incline = chart_overlap(lambda z: 0.4 * np.cos(z) + 1.2,
                            lambda z: -0.4 * np.sin(z))
    worst2 = max(np.max(np.abs(solvability_residual(bead2, incline, x)))
                 for x in pts2)
    print(f"solvability residuals: swing family {worst1:.3e}, "
          f"incline family {worst2:.3e} (bound 1e-9)")
    assert worst1 <= 1e-9
    assert worst2 <= 1e-9

    sysp, _, _ = default_set()
    fields = kernel_direction_fields(sysp, np.array([0.2, 0.1, -0.3]))
    closure = involutive_closure(
        fields, list(sysp.domain.sample(np.random.default_rng(17), 5)),
        max_depth=2)
    print(f"kernel-field closure: closed {closure.closed} at depth "
          f"{closure.depth} (bound 2), added {closure.added}")
    assert closure.closed
    assert closure.depth <= 2


def test_criterion_10_random_mass_matrices_leave_only_the_basic_family():
    rng = np.random.default_rng(2026)
    for trial in range(3):
        q = rng.uniform(0.3, 1.0, (3, 3))
        mm = q @ q.T + 2.0 * np.eye(3)
        chain = chained_pendulums(mm)
        pts = list(chain.domain.sample(rng, 20))
        reports = rigidity_probe(chain, pts)
        dims = sorted({r.dimension for r in reports})
        ratio, overlap = terminal_family(mm, leading_overlap=0.9)
        res = max(basic_jet_residual(chain, x, ratio, overlap) for x in pts)
        print(f"trial {trial}: jet dims {dims} (want [1]), "
              f"basic-family residual {res:.3e} (bound 1e-9)")
        assert dims == [1]
        assert res <= 1e-9


def test_criterion_11_germ_of_the_law_realizes_prescribed_linear_gains():
    circle = vertical_circle_track(2.0)
    bead = bead_on_track(circle, a=1.0, b=0.5)
    kappa = 0.8
    x_star = np.array([0.0, 0.4])
    # potential extra chosen so the shaped gradient vanishes at x_star
    c2 = 0.9
    c1 = -np.cos(circle.alpha(x_star[1])) / kappa - c2 * x_star[1]
    pot_extra = actuated_scalar_field(
        bead, lambda z: c1 * z[0] + 0.5 * c2 * z[0] ** 2,
        lambda z: np.array([c1 + c2 * z[0]]))
    _, target = scaling_solution(bead, kappa, potential_extra=pot_extra,
                                 check_positivity=False)

    def gains_for(tgt):
        hess = fd_derivative(tgt.potential.gradient, x_star)
        hess = 0.5 * (hess + hess.T)
        return linear_gains_from_blocks(
            bead, x_star, tgt.metric.value(x_star), hess,
            tgt.dissipation.jac_v(x_star, np.zeros(2)))

    rep = germ_check(bead, target, x_star, gains_for(target))
    print(f"germ defect, scaled metric: {rep.max_defect:.3e} (bound 1e-6)")
    assert rep.max_defect <= 1e-6

    # a position-dependent actuated block makes the ratio non-constant
    kin_extra = actuated_block_matrix_field(
        bead, lambda z: np.array([[0.3 + 0.1 * z[0] ** 2]]),
        lambda z: np.array([[[0.2 * z[0]]]]))
    _, target2 = scaling_solution(bead, kappa, kinetic_extra=kin_extra,
                                  potential_extra=pot_extra,
                                  check_positivity=False)
    rep2 = germ_check(bead, target2, x_star, gains_for(target2))
    print(f"germ defect, shaped kinetic block: {rep2.max_defect:.3e} "
          f"(bound 1e-6)")
    assert rep2.max_defect <= 1e-6


def test_criterion_12_identical_config_and_seed_give_identical_bytes(
        tmp_path, capsys):
    sim_doc = {
        "fixture": {"name": "pendulum", "params": {"a": 0.5, "b": 0.5}},
        "run": {"dt": 0.01, "horizon": 0.5, "seed": 11,
                "initial_position": [0.1, -0.1, 0.1],
                "initial_velocity": [0.0, 0.2, 0.0]},
    }
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(yaml.safe_dump(sim_doc))
    ver_doc = {
        "fixture": {"name": "pendulum", "params": {"a": 0.5, "b": 0.5}},
        "run": {"seed": 11, "samples": 25},
    }
    ver_cfg = tmp_path / "ver.yaml"
    ver_cfg.write_text(yaml.safe_dump(ver_doc))

    for round_dir in ("first", "second"):
        out = tmp_path / round_dir
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", str(out / "sim")]) == 0
        assert main(["verify", "--config", str(ver_cfg),
                     "--out", str(out / "ver")]) == 0
    capsys.readouterr()

    artifacts = [("sim", "plant.csv"), ("sim", "target.csv"),
                 ("sim", "simulate-report.txt"),
                 ("ver", "verify-report.txt")]
    for sub, fname in artifacts:
        first = (tmp_path / "first" / sub / fname).read_bytes()
        second = (tmp_path / "second" / sub / fname).read_bytes()
        assert first == second, fname
        assert first.endswith(b"\n")
    print("four artifacts byte-identical across reruns")
