"""Flow transport of the shaped blocks: node accuracy, guards, interpolation."""
import dataclasses

import numpy as np
import pytest

import os

from matchctl import (DissipationField, Field, MechanicalSystem, ScalarField,
                      State, characteristics, complete_metric_rows, flow_map,
                      row_identity_check, scaling_solution,
                      transport_target_data)
from matchctl.characteristics import (FIELD_FLOOR, PLANE_HIT_TOL,
                                      CharacteristicGrid, grid_csv)
from matchctl.config import load_config
from matchctl.errors import (AsymmetryError, DomainError, ScopeError,
                             SingularFieldError, SingularLocusError,
                             TransversalityError)
from matchctl.fields import per_point
from matchctl.rk4 import rk4_span, rk4_step
from matchctl.shapes import cosine_profile
from matchctl.systems import (PendulumParams, bead_on_track,
                              chained_pendulums, helix_track,
                              incline_ratio_family, pendulum_fixture,
                              pendulum_ratio_family, seesaw_cart,
                              unit_overlap_ratio)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

rng = np.random.default_rng(12)

SYS, RATIO, TARGET = pendulum_fixture(PendulumParams().resolved())
P = PendulumParams().resolved()


def _closed_flow(x0, t):
    """Integral curve of the fixture ratio: tilt moves linearly, the base
    coordinate follows the sine primitive, the arm stays put."""
    t0, m0 = P.tilt_ratio, P.sway_ratio
    tilt = x0[0] + t0 * t
    base = x0[1] + (m0 / t0) * (np.sin(tilt) - np.sin(x0[0]))
    return np.array([tilt, base, x0[2]])


def test_flow_map_matches_the_closed_form():
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, 3)
        for t in (-0.8, 0.35, 1.0):
            got = flow_map(RATIO, x0, t, dt=1e-3)
            assert np.allclose(got, _closed_flow(x0, t), atol=5e-11)
    # flowing forward then back returns to the start
    x0 = np.array([0.2, -0.1, 0.4])
    there = flow_map(RATIO, x0, 0.7)
    back = flow_map(RATIO, there, -0.7)
    assert np.allclose(back, x0, atol=1e-12)


def test_flow_map_step_validation():
    x0 = np.zeros(3)
    with pytest.raises(DomainError):
        flow_map(RATIO, x0, 1.0, dt=0.0)
    with pytest.raises(DomainError):
        flow_map(RATIO, x0, 1e9, dt=1e-6)  # would need too many steps


@pytest.mark.parametrize("call", [
    lambda: flow_map(RATIO, np.zeros(3), np.nan),
    lambda: flow_map(RATIO, np.zeros(3), 1.0, dt=np.nan),
    lambda: flow_map(RATIO, np.zeros(3), 1.0, dt=np.inf),
    lambda: _fixture_grid(np.linspace(-0.5, 0.5, 5), dt=np.nan),
    lambda: _fixture_grid(np.linspace(-0.5, 0.5, 5), dt=np.inf),
    lambda: _fixture_grid(np.array([-0.5, 0.0, np.nan])),
], ids=["flow-t-nan", "flow-dt-nan", "flow-dt-inf", "transport-dt-nan",
        "transport-dt-inf", "transport-times-nan"])
def test_nonfinite_horizon_or_step_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_flow_map_takes_no_roundoff_step():
    calls = []

    def counted(x):
        calls.append(x)
        return RATIO.value(x)

    counting = Field(counted, RATIO.derivative)
    x0 = np.array([0.1, -0.2, 0.3])
    got = flow_map(counting, x0, 2.0, dt=1e-3)
    assert len(calls) == 4 * 2000
    assert np.allclose(got, _closed_flow(x0, 2.0), atol=5e-11)
    # a genuine fractional remainder still gets its shortened step
    calls.clear()
    got = flow_map(counting, x0, -0.0105, dt=1e-3)
    assert len(calls) == 4 * 11
    assert np.allclose(got, _closed_flow(x0, -0.0105), atol=5e-11)

def test_flow_map_refuses_a_dying_field():
    decaying = Field(lambda x: np.array([[0.0, -x[1], 0.0]]))
    with pytest.raises(SingularFieldError):
        flow_map(decaying, np.array([0.0, 0.2, 0.0]), 40.0, dt=1e-2)


@pytest.mark.parametrize("row", [
    [0.0, 0.0, 0.0], [np.nextafter(FIELD_FLOOR, 0.0), 0.0, 0.0],
    [0.5, np.nan, 0.0], [np.inf, 0.0, 1.0], [0.0, 1.0, -np.inf],
    [1e200, 0.0, 0.0], [0.0, -1e155, 1e155],
], ids=["zero", "below-floor", "nan", "inf", "minus-inf", "overflow",
        "overflow-split"])
def test_flow_guard_refuses_a_vanishing_or_non_finite_row(row):
    # the last two are finite rows whose squared norm overflows
    field = Field(lambda x: np.array([row]))
    with pytest.raises(SingularFieldError):
        characteristics._drive_row(field, np.zeros(3))


@pytest.mark.parametrize("row", [[FIELD_FLOOR, 0.0, 0.0],
                                 [0.0, -FIELD_FLOOR, 0.0]])
def test_flow_guard_passes_a_row_at_the_floor(row):
    got = characteristics._drive_row(Field(lambda x: np.array([row])),
                                     np.zeros(3))
    assert np.array_equal(got, row)


def test_complete_metric_rows_reproduces_the_target():
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        gh_full = TARGET.metric.value(x)
        got = complete_metric_rows(SYS, RATIO, gh_full[1:, 1:], x)
        assert np.allclose(got, gh_full, atol=1e-12)
        assert np.allclose(got, got.T, atol=0)


def test_complete_metric_rows_rejects_bad_blocks():
    x = np.array([0.3, 0.1, -0.2])
    with pytest.raises(AsymmetryError):
        complete_metric_rows(SYS, RATIO, np.array([[2.0, 0.3], [0.2, 1.0]]), x)
    with pytest.raises(DomainError):
        complete_metric_rows(SYS, RATIO, np.eye(3), x)
    sideways = Field.constant(np.array([[0.0, 1.0, 0.0]]))
    with pytest.raises(SingularLocusError):
        complete_metric_rows(SYS, sideways, np.eye(2), x)


def _fixture_grid(times, seeds_per_axis=3, dt=2e-3, span=0.5):
    vals = np.linspace(-span, span, seeds_per_axis)
    return transport_target_data(
        SYS, RATIO,
        initial_block=lambda x: TARGET.metric.value(x)[1:, 1:],
        initial_potential=lambda x: float(TARGET.potential(x)),
        anchor=np.zeros(3), times=times,
        seed_values=[(1, vals), (2, vals)], plane_axis=0, dt=dt)


def test_transport_reproduces_the_closed_form_at_nodes():
    grid = _fixture_grid(np.linspace(-1.0, 1.0, 201))
    assert grid.warnings == ()
    assert grid.symmetry_defect == 0.0
    # the self-audit differences the stored payload in time, so it carries
    # the node spacing squared; the closed-form comparison below is exact
    assert grid.residual_metric <= 1e-6
    assert grid.residual_potential <= 1e-8
    worst_g = worst_v = 0.0
    for k in range(grid.seed_count):
        for j in range(len(grid.times)):
            x = grid.states[k, j]
            worst_g = max(worst_g, np.max(np.abs(
                grid.metric[k, j] - TARGET.metric.value(x))))
            worst_v = max(worst_v, abs(
                grid.potential[k, j] - float(TARGET.potential(x))))
    assert worst_g <= 1e-10
    assert worst_v <= 1e-10


def test_row_identity_verdict_and_corruption():
    grid = _fixture_grid(np.linspace(-0.5, 0.5, 21))
    rep = row_identity_check(SYS, RATIO, grid, tol=1e-7)
    assert rep.passed and rep.max_defect <= 1e-10
    assert "pass" in str(rep)

    # pushing the payload off the solution surface away from the seed plane
    # must trip the verdict while the seed rows stay clean
    bumped = grid.metric.copy()
    mask = np.abs(grid.times) > 1e-12
    bumped[:, mask, 0, 0] += 0.01
    corrupted = dataclasses.replace(grid, metric=bumped)
    rep_bad = row_identity_check(SYS, RATIO, corrupted, tol=1e-7)
    assert not rep_bad.passed
    assert rep_bad.max_defect > 1e-3
    assert rep_bad.seed_defect <= 1e-10
    assert "FAIL" in str(rep_bad)


def test_transport_step_refinement_is_fourth_order():
    times = np.linspace(-0.25, 0.25, 3)
    coarse = _fixture_grid(times, dt=5e-2)
    fine = _fixture_grid(times, dt=2.5e-2)
    ref = _fixture_grid(times, dt=1.25e-2)
    e1 = np.max(np.abs(coarse.metric - ref.metric))
    e2 = np.max(np.abs(fine.metric - ref.metric))
    assert e1 / e2 > 12.0


def test_transport_requires_scope_and_a_zero_time():
    dp = chained_pendulums(np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.4],
                                     [0.5, 1.4, 3.0]]))
    dp_ratio, _ = scaling_solution(dp, 1.0)
    with pytest.raises(ScopeError):
        transport_target_data(dp, dp_ratio, lambda x: np.eye(1),
                              lambda x: 0.0, anchor=np.zeros(3),
                              times=[0.0, 0.1], seed_values=[(2, [0.0])])
    with pytest.raises(DomainError):
        _fixture_grid(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(DomainError):
        _fixture_grid(np.array([-0.1, 0.1, 0.05]))  # not increasing


def test_seed_lattice_validation():
    good = np.linspace(-0.2, 0.2, 3)
    with pytest.raises(DomainError):
        transport_target_data(
            SYS, RATIO, lambda x: np.eye(2), lambda x: 0.0,
            anchor=np.zeros(3), times=[-0.1, 0.0, 0.1],
            seed_values=[(0, good), (2, good)])  # axis equals the plane axis
    with pytest.raises(DomainError):
        transport_target_data(
            SYS, RATIO, lambda x: np.eye(2), lambda x: 0.0,
            anchor=np.zeros(3), times=[-0.1, 0.0, 0.1],
            seed_values=[(1, good), (1, good)])
    with pytest.raises(DomainError):
        transport_target_data(
            SYS, RATIO, lambda x: np.eye(2), lambda x: 0.0,
            anchor=np.zeros(3), times=[-0.1, 0.0, 0.1],
            seed_values=[(1, good[::-1]), (2, good)])


def test_transversality_guard():
    # the third ratio component vanishes identically, so a lattice seeded
    # across that plane never leaves it
    with pytest.raises(TransversalityError):
        transport_target_data(
            SYS, RATIO,
            initial_block=lambda x: TARGET.metric.value(x)[1:, 1:],
            initial_potential=lambda x: float(TARGET.potential(x)),
            anchor=np.zeros(3), times=[-0.1, 0.0, 0.1],
            seed_values=[(0, np.linspace(-0.2, 0.2, 3)),
                         (1, np.linspace(-0.2, 0.2, 3))],
            plane_axis=2)


def test_grid_properties_and_time_index():
    grid = _fixture_grid(np.linspace(-0.5, 0.5, 21))
    assert grid.n == 3
    assert grid.seed_count == 9
    assert grid.seed_shape == (3, 3)
    assert grid.time_index(0.0) == 10
    with pytest.raises(DomainError):
        grid.time_index(0.123)


def test_interpolation_at_nodes_and_off_grid_convergence():
    """Queries are pulled back to the seed plane and combined multilinearly,
    so each lattice axis contributes its spacing squared.  On this fixture
    the metric payload varies only with the flow time while the potential
    varies across the seed plane, so the two refinements are split."""
    coarse = _fixture_grid(np.linspace(-0.5, 0.5, 11), seeds_per_axis=5,
                           dt=5e-3)
    fine_t = _fixture_grid(np.linspace(-0.5, 0.5, 21), seeds_per_axis=5,
                           dt=5e-3)
    fine_s = _fixture_grid(np.linspace(-0.5, 0.5, 21), seeds_per_axis=9,
                           dt=5e-3)

    # node queries reproduce stored payload
    k, j = 7, 3
    node = coarse.states[k, j]
    gh, vh = coarse.interpolate(node)
    assert np.max(np.abs(gh - coarse.metric[k, j])) <= 1e-9
    assert abs(vh - coarse.potential[k, j]) <= 1e-9

    def worst_err(grid, queries):
        wg = wv = 0.0
        for q in queries:
            gh, vh = grid.interpolate(q)
            wg = max(wg, np.max(np.abs(gh - TARGET.metric.value(q))))
            wv = max(wv, abs(vh - float(TARGET.potential(q))))
        return wg, wv

    queries = []
    qrng = np.random.default_rng(3)
    for _ in range(12):
        u, v = qrng.uniform(-0.45, 0.45, 2)
        t = qrng.uniform(-0.45, 0.45)
        queries.append(flow_map(RATIO, np.array([0.0, u, v]), t))
    g_coarse, _ = worst_err(coarse, queries)
    g_fine, v_seed5 = worst_err(fine_t, queries)
    _, v_seed9 = worst_err(fine_s, queries)
    assert g_coarse < 0.2
    assert g_coarse / max(g_fine, 1e-15) > 2.5   # halved time spacing
    assert v_seed5 / max(v_seed9, 1e-15) > 2.5   # halved seed spacing

    with pytest.raises(DomainError):
        coarse.interpolate(np.array([0.0, 2.0, 0.0]))  # beyond the lattice
    far = flow_map(RATIO, np.array([0.0, 0.1, 0.1]), 0.9)
    with pytest.raises(DomainError):
        coarse.interpolate(far)  # beyond the stored flow-time range


def _refusing(x):
    raise AssertionError("the seed-plane walk started")


@pytest.mark.parametrize("query, dt", [
    (np.zeros(2), None), (np.zeros(4), None), (0.1, None),
    (np.array([0.1, np.nan, 0.0]), None), (np.array([np.inf, 0.0, 0.0]), None),
    (np.array([0.1, 0.0, 0.0]), 0.0), (np.array([0.1, 0.0, 0.0]), 1e-300),
    (np.array([0.1, 0.0, 0.0]), np.nan), (np.array([0.1, 0.0, 0.0]), -1e-3),
    (np.array([0.1, 0.0, 0.0]), np.inf),
], ids=["length-2", "length-4", "scalar", "nan", "inf", "dt-zero", "dt-tiny",
        "dt-nan", "dt-negative", "dt-inf"])
def test_malformed_query_or_walk_step_is_refused_before_walking(query, dt):
    # the grid's field refuses every evaluation, so a walk that starts
    # fails the test at once instead of hanging on a step that cannot end
    grid = dataclasses.replace(_fixture_grid(np.linspace(-0.5, 0.5, 5)),
                               field=Field(_refusing))
    with pytest.raises(DomainError):
        grid.interpolate(query, dt)


@pytest.fixture
def walk_steps(monkeypatch):
    """Sizes |h| of the RK4 steps the seed-plane walk takes, in order."""
    sizes = []

    def recording(f, z, h, k1=None):
        sizes.append(abs(h))
        return rk4_step(f, z, h, k1)

    monkeypatch.setattr(characteristics, "rk4_step", recording)
    return sizes


def test_walk_evaluates_each_stage_once(walk_steps):
    calls = []

    def counted(x):
        calls.append(x)
        return RATIO.value(x)

    dt = 1.0 / 64.0                  # stored spans of 1/4 are 16 whole steps
    grid = dataclasses.replace(
        _fixture_grid(np.linspace(-0.5, 0.5, 5), dt=dt),
        field=Field(counted, RATIO.derivative))
    for j, steps in enumerate((32, 16, 0, 16, 32)):
        calls.clear()
        walk_steps.clear()
        grid.interpolate(grid.states[4, j])
        assert walk_steps == [dt] * steps
        assert len(calls) == 4 * steps
    # off the nodes the bracketing step is probed from its start point
    calls.clear()
    walk_steps.clear()
    grid.interpolate(flow_map(RATIO, np.array([0.0, 0.1, -0.2]), 0.3))
    steps = walk_steps.count(dt)
    probes = len(walk_steps) - steps
    assert steps == 20 and probes >= 1      # the 20th step brackets t = 0.3
    assert len(calls) == 4 * steps + 3 * probes


def _bisection_plane_time(ratio, x, axis, value, dt, t_lo, t_hi):
    """The seed-plane walk as first written: four evaluations per step and
    per probe, bisection inside the bracketing step.  Returns
    (t_star, hit, probes)."""
    def vel(y):
        v = ratio.value(y)[0]
        norm = float(np.linalg.norm(v))
        if not np.isfinite(norm) or norm < FIELD_FLOOR:
            raise SingularFieldError("transport direction vanished")
        return v

    gap = float(x[axis] - value)
    if abs(gap) <= PLANE_HIT_TOL:
        return 0.0, x.copy(), 0
    v = vel(x)
    direction = -1.0 if gap * v[axis] > 0.0 else 1.0
    budget = (t_hi - t_lo) + 2.0 * dt
    u, cur, g_cur = 0.0, x.copy(), gap
    while abs(u) <= budget:
        nxt = rk4_step(vel, cur, direction * dt)
        g_nxt = float(nxt[axis] - value)
        if abs(g_nxt) <= PLANE_HIT_TOL:
            return -(u + direction * dt), nxt, 0
        if g_cur * g_nxt < 0.0:
            lo, hi = 0.0, dt
            for probes in range(1, 61):
                mid = 0.5 * (lo + hi)
                probe = rk4_step(vel, cur, direction * mid)
                g_mid = float(probe[axis] - value)
                if abs(g_mid) <= PLANE_HIT_TOL:
                    break
                if g_cur * g_mid < 0.0:
                    hi = mid
                else:
                    lo = mid
            return -(u + direction * mid), probe, probes
        u += direction * dt
        cur, g_cur = nxt, g_nxt
    raise DomainError("query does not reach the seed plane")


def test_walk_matches_the_bisection_walk(walk_steps):
    grid = _fixture_grid(np.linspace(-0.5, 0.5, 21))

    def both(ratio, x, value, dt):
        walk_steps.clear()
        t, hit = characteristics._plane_time(ratio, x, 0, value, dt,
                                             -0.5, 0.5)
        assert abs(hit[0] - value) <= PLANE_HIT_TOL
        probes = sum(1 for h in walk_steps if h < dt)
        return (t, hit, probes), _bisection_plane_time(ratio, x, 0, value,
                                                       dt, -0.5, 0.5)

    for k in range(grid.seed_count):
        for j in range(0, grid.times.size, 4):
            (t, hit, _), (t_ref, hit_ref, _) = both(RATIO, grid.states[k, j],
                                                    0.0, grid.dt)
            assert t == t_ref and np.array_equal(hit, hit_ref)
    qrng = np.random.default_rng(5)
    for _ in range(10):
        u, v, t = qrng.uniform(-0.45, 0.45, 3)
        q = flow_map(RATIO, np.array([0.0, u, v]), t)
        (t, hit, probes), (t_ref, hit_ref, _) = both(RATIO, q, 0.0, grid.dt)
        assert abs(t - t_ref) <= 1e-8
        assert np.max(np.abs(hit - hit_ref)) <= 1e-8
    # on the bead's planar ratio the plane gap is curved within a step
    bead = _bead_case()
    ratio, c = bead["ratio"], bead["anchor"]
    for _ in range(6):
        q = flow_map(ratio, c + [0.0, qrng.uniform(-0.15, 0.15)],
                     qrng.uniform(-0.08, 0.08), dt=1e-3)
        (t, hit, probes), (t_ref, hit_ref, probes_ref) = both(ratio, q, c[0],
                                                              1e-2)
        assert abs(t - t_ref) <= 1e-8
        assert np.max(np.abs(hit - hit_ref)) <= 1e-8
        assert 1 <= probes < probes_ref


def test_transport_reproduces_a_scaling_family():
    ratio_s, target_s = scaling_solution(SYS, 2.0)
    vals = np.linspace(-0.3, 0.3, 3)
    grid = transport_target_data(
        SYS, ratio_s,
        initial_block=lambda x: target_s.metric.value(x)[1:, 1:],
        initial_potential=lambda x: float(target_s.potential(x)),
        anchor=np.zeros(3), times=np.linspace(-0.3, 0.3, 7),
        seed_values=[(1, vals), (2, vals)], dt=5e-3)
    worst = max(np.max(np.abs(grid.metric[k, j]
                              - target_s.metric.value(grid.states[k, j])))
                for k in range(grid.seed_count)
                for j in range(len(grid.times)))
    assert worst <= 1e-9


def test_grid_csv_layout_and_determinism(tmp_path):
    grid = _fixture_grid(np.linspace(-0.2, 0.2, 5))
    text = grid_csv(grid)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["seed", "t"]
    assert header[2:5] == ["x0", "x1", "x2"]
    assert "potential" in header[-1]
    assert len(header) == 2 + 3 + 6 + 1  # upper-triangle metric payload
    assert len(lines) == 1 + grid.seed_count * len(grid.times)
    assert text.endswith("\n")
    assert grid_csv(grid) == text

    out = tmp_path / "grid.csv"
    grid_csv(grid, path=str(out))
    assert out.read_text() == text


def _bead_case():
    """The shipped rollercoaster plant and planar ratio (per-point kernels),
    with smooth made-up seed data on a 3-seed line."""
    b = load_config(os.path.join(ROOT, "configs", "rollercoaster.yaml")).fixture
    c = b.system.domain.center
    return dict(sys=b.system, ratio=b.ratio,
                initial_block=lambda x: np.array([[1.0 + 0.1 * x[1]]]),
                initial_potential=lambda x: float(x[1] ** 2),
                anchor=c, times=np.linspace(-0.1, 0.1, 5),
                seed_values=[(1, np.linspace(c[1] - 0.2, c[1] + 0.2, 3))],
                dt=1e-2)


def _pendulum_case():
    vals = np.linspace(-0.4, 0.4, 3)
    return dict(sys=SYS, ratio=RATIO,
                initial_block=lambda x: TARGET.metric.value(x)[1:, 1:],
                initial_potential=lambda x: float(TARGET.potential(x)),
                anchor=np.zeros(3), times=np.linspace(-0.3, 0.3, 7),
                seed_values=[(1, vals), (2, vals)], dt=1e-2)


def _reference_carry(case, grid):
    """Each seed carried on its own, one point per evaluation."""
    sys, ratio, n = case["sys"], case["ratio"], case["sys"].n

    def rhs(z):
        x, gh = z[:n], z[n:-1].reshape(n, n)
        jac = ratio.derivative(x)[0]
        slope = sys.metric.derivative(x)[:, :, 0] - jac.T @ gh - gh @ jac
        return np.concatenate((ratio.value(x)[0], slope.ravel(),
                               [sys.potential.gradient(x)[0]]))

    times, j0 = grid.times, grid.time_index(0.0)
    states, metric = np.zeros_like(grid.states), np.zeros_like(grid.metric)
    potential = np.zeros_like(grid.potential)
    for i, p in enumerate(grid.seed_points):
        gh0 = complete_metric_rows(sys, ratio, case["initial_block"](p), p)
        z0 = np.concatenate((p, gh0.ravel(), [case["initial_potential"](p)]))
        for stored in ([j0], range(j0 + 1, times.size),
                       range(j0 - 1, -1, -1)):
            z, prev = z0, j0
            for j in stored:
                z = rk4_span(rhs, z, times[j] - times[prev], case["dt"])
                states[i, j], potential[i, j] = z[:n], z[-1]
                metric[i, j] = z[n:-1].reshape(n, n)
                prev = j
    return states, metric, potential


def _transport(case, **swap):
    case = dict(case, **swap)
    return transport_target_data(
        case["sys"], case["ratio"], case["initial_block"],
        case["initial_potential"], anchor=case["anchor"],
        times=case["times"], seed_values=case["seed_values"], dt=case["dt"])


@pytest.mark.parametrize("make_case", [_pendulum_case, _bead_case],
                         ids=["pendulum-native", "bead-per-point"])
def test_stacked_carry_matches_a_per_seed_carry(make_case):
    case = make_case()
    grid = _transport(case)
    want = _reference_carry(case, grid)
    for got, ref in zip((grid.states, grid.metric, grid.potential), want):
        assert np.max(np.abs(got - ref)) <= 1e-14
    if make_case is _pendulum_case:
        for got, ref in zip((grid.states, grid.metric, grid.potential), want):
            assert np.array_equal(got, ref)


def test_stacked_carry_evaluates_the_ratio_once_per_stage():
    calls = {"value": 0, "derivative": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(RATIO, name)(x)
        return call

    counting = Field(counted("value"), counted("derivative"))
    vals = np.linspace(-0.4, 0.4, 3)
    # spans of 1/4 at dt = 1/16: exactly 4 RK4 steps per stored interval
    grid = transport_target_data(
        SYS, counting, lambda x: TARGET.metric.value(x)[1:, 1:],
        lambda x: float(TARGET.potential(x)), anchor=np.zeros(3),
        times=[-0.5, -0.25, 0.0, 0.25, 0.5],
        seed_values=[(1, vals), (2, vals)], dt=0.0625)
    k, steps = grid.seed_count, 4 * 4
    # one stacked transversality check, the k seed completions, 4 per step
    assert calls["value"] == 1 + k + 4 * steps
    # 4 per step, and one stack per seed in the self-audit
    assert calls["derivative"] == 4 * steps + k


def test_transport_carries_the_seesaw_scaling_family():
    plant = seesaw_cart()
    ratio_s, target_s = scaling_solution(plant, 2.0)
    vals = np.linspace(-0.3, 0.3, 3)
    grid = transport_target_data(
        plant, ratio_s,
        initial_block=lambda x: target_s.metric.value(x)[1:, 1:],
        initial_potential=lambda x: float(target_s.potential(x)),
        anchor=plant.domain.center, times=np.linspace(-0.1, 0.1, 11),
        seed_values=[(1, vals), (2, vals)], dt=2e-3)
    assert grid.warnings == ()
    for k in range(grid.seed_count):
        for j in range(grid.times.size):
            x = grid.states[k, j]
            assert np.max(np.abs(grid.metric[k, j]
                                 - target_s.metric.value(x))) <= 1e-9
            assert abs(grid.potential[k, j]
                       - float(target_s.potential(x))) <= 1e-9
    assert row_identity_check(plant, ratio_s, grid).passed


def _one_point_ratio(x):
    return np.array([[P.tilt_ratio, P.sway_ratio * np.cos(x[0]), 0.0]])


@pytest.mark.parametrize("swap", [
    dict(ratio=Field(_one_point_ratio, RATIO.derivative)),
    dict(ratio=Field(lambda x: RATIO.value(np.zeros(3)), RATIO.derivative)),
    dict(ratio=Field(RATIO.value, lambda x: RATIO.derivative(np.zeros(3)))),
    dict(sys=dataclasses.replace(SYS, metric=Field(
        SYS.metric.value, lambda x: SYS.metric.derivative(x[0])))),
], ids=["ratio-raises", "ratio-shape", "jacobian-shape", "metric-shape"])
def test_one_point_fields_are_refused_by_the_stack_contract(swap):
    with pytest.raises(DomainError, match="per_point"):
        _transport(_pendulum_case(), **swap)


def test_per_point_wrapped_fields_satisfy_the_stack_contract():
    case = _pendulum_case()
    plain = _transport(case)
    wrapped = _transport(case, ratio=Field(per_point(_one_point_ratio),
                                           RATIO.derivative))
    assert np.array_equal(wrapped.metric, plain.metric)
    assert np.array_equal(wrapped.potential, plain.potential)


@pytest.mark.parametrize("swap", [
    dict(initial_block=lambda x: np.array([[np.nan, 0.0], [0.0, 1.0]])),
    dict(initial_block=lambda x: np.array([[2.0, np.inf], [np.inf, 1.0]])),
    dict(initial_potential=lambda x: np.nan if x[1] > 0.1 else 0.0),
    dict(initial_potential=lambda x: -np.inf),
], ids=["block-nan", "block-inf", "potential-nan", "potential-inf"])
def test_nonfinite_seed_data_is_a_domain_error(swap):
    with pytest.raises(DomainError):
        _transport(_pendulum_case(), **swap)


def test_row_identity_fails_a_nan_grid():
    grid = _fixture_grid(np.linspace(-0.5, 0.5, 21))
    spoiled = grid.metric.copy()
    spoiled[4, 15, 0, 0] = np.nan
    rep = row_identity_check(SYS, RATIO,
                             dataclasses.replace(grid, metric=spoiled))
    assert not rep.passed and np.isnan(rep.max_defect)
    assert (rep.worst_seed, rep.worst_time) == (4, float(grid.times[15]))
    assert "FAIL" in str(rep)
    # all of it NaN: no negative "max defect" and no pass
    blank = dataclasses.replace(grid, metric=np.full_like(grid.metric, np.nan))
    rep = row_identity_check(SYS, RATIO, blank)
    assert not rep.passed and not rep.max_defect < 0.0
    assert np.isnan(rep.seed_defect)


def _reachable_fields():
    """(plant, ratio) pairs of every m = 1 fixture a transport can reach."""
    seesaw = seesaw_cart()
    helix = bead_on_track(helix_track(radius=1.5, climb=0.6))
    family = pendulum_ratio_family(P, cosine_profile(1.0, [1.0]),
                                   free3=lambda x: 0.1 * x[2])
    bead = _bead_case()
    return {"pendulum": (SYS, RATIO), "pendulum-family": (SYS, family),
            "seesaw-unit-overlap": (seesaw, unit_overlap_ratio(0.5, 2.0)),
            "seesaw-scaling": (seesaw, scaling_solution(seesaw, 2.0)[0]),
            "bead-planar": (bead["sys"], bead["ratio"]),
            "bead-incline": (helix, incline_ratio_family(
                helix_track(radius=1.5, climb=0.6), 0.5,
                cosine_profile(1.0, [1.0], phase=-0.5 * np.pi)))}


@pytest.mark.parametrize("name", sorted(_reachable_fields()))
def test_transport_fields_answer_a_stack_as_each_point(name):
    sys, ratio = _reachable_fields()[name]
    pts = sys.domain.sample(np.random.default_rng(8), 6)
    for method in (ratio.value, ratio.derivative, sys.metric.value,
                   sys.metric.derivative, sys.potential.value,
                   sys.potential.gradient):
        stacked = method(pts)
        assert stacked.shape[0] == pts.shape[0]
        for p, row in zip(pts, stacked):
            assert np.array_equal(row, method(p))


def _line_flow(rate):
    """Ratio (1, rate x1) on the flat plane: the characteristics
    x1(t) = x1(0) exp(rate t) converge for rate < 0 and spread for rate > 0."""
    plane = MechanicalSystem(n=2, m=1, metric=Field.constant(np.eye(2)),
                             potential=ScalarField.constant(0.0),
                             dissipation=DissipationField.zero(2))

    def rval(x):
        r = np.ones(x.shape[:-1] + (1, 2))
        r[..., 0, 1] = rate * x[..., 1]
        return r

    def rder(x):
        d = np.zeros(x.shape[:-1] + (1, 2, 2))
        d[..., 0, 1, 1] = rate
        return d

    return transport_target_data(
        plane, Field(rval, rder), lambda x: np.eye(1), lambda x: 0.0,
        anchor=np.zeros(2), times=np.linspace(0.0, 1.0, 11),
        seed_values=[(1, np.linspace(-0.5, 0.5, 5))], dt=1e-2)


def test_converging_characteristics_are_flagged():
    # seeds 0.25 apart close to 0.25 exp(-2t), under half the spacing
    # from t = ln 2 / 2 ~ 0.347 on: first at the stored node t = 0.4
    crossing = [w for w in _line_flow(-2.0).warnings
                if w.startswith("characteristics approach")]
    assert crossing == ["characteristics approach within 1.123e-01 "
                        "(< 1.250e-01 lattice resolution) near stored node 4; "
                        "interpolation is unreliable there"]
    assert not any(w.startswith("characteristics approach")
                   for w in _line_flow(2.0).warnings)


def test_interpolation_on_a_single_valued_seed_axis():
    # seeds on the line x1 = 0 of the plane x0 = 0: queries whose flow
    # meets the plane on that line interpolate in x2 and time only
    grid = transport_target_data(
        SYS, RATIO, initial_block=lambda x: TARGET.metric.value(x)[1:, 1:],
        initial_potential=lambda x: float(TARGET.potential(x)),
        anchor=np.zeros(3), times=np.linspace(-0.5, 0.5, 51),
        seed_values=[(1, np.array([0.0])), (2, np.linspace(-0.5, 0.5, 5))],
        dt=2e-3)
    assert grid.seed_shape == (1, 5)
    k, j = 3, 17
    gh, vh = grid.interpolate(grid.states[k, j])
    assert np.max(np.abs(gh - grid.metric[k, j])) <= 1e-9
    assert abs(vh - grid.potential[k, j]) <= 1e-9

    # off the nodes: the metric varies in time only (spacing 0.02), the
    # quadratic well across x2 (spacing 0.25, off by <= 2 * 0.25**2 / 4)
    qrng = np.random.default_rng(5)
    for _ in range(20):
        v, t = qrng.uniform(-0.45, 0.45, 2)
        q = flow_map(RATIO, np.array([0.0, 0.0, v]), t)
        gh, vh = grid.interpolate(q)
        assert np.max(np.abs(gh - TARGET.metric.value(q))) <= 2.5e-3
        assert abs(vh - float(TARGET.potential(q))) <= 3.2e-2

    off = flow_map(RATIO, np.array([0.0, 0.1, 0.2]), 0.2)
    with pytest.raises(DomainError, match="no seed variation along axis 1"):
        grid.interpolate(off)
