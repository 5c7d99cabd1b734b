"""State, box, and equation-of-motion plumbing."""
import dataclasses
import os

import numpy as np
import pytest

from matchctl import Box, MechanicalSystem, State, TargetSystem
from matchctl.config import load_config, override_key, parse_config
from matchctl.errors import (DomainError, SingularMetricError,
                             SingularTargetError)
from matchctl.fields import DissipationField, Field, ScalarField
from matchctl.geometry import (acceleration, christoffel_first,
                               christoffel_from_derivative, energy, force,
                               kinetic_matrix, quadratic_velocity_force,
                               rescale_coordinates, solve)
from matchctl.matching import assemble_compatibility
from matchctl.systems import PendulumParams, pendulum_cart, pendulum_fixture

rng = np.random.default_rng(4)


def test_state_validation():
    s = State([0.1, 0.2], [0.0, -1.0])
    assert s.n == 2
    with pytest.raises(DomainError):
        State([0.1, 0.2], [0.0])
    with pytest.raises(DomainError):
        State([0.1], [0.0])
    with pytest.raises(DomainError):
        State([np.nan, 0.0], [0.0, 0.0])


def test_box_membership_and_sampling():
    box = Box(lo=(-1.0, 0.0), hi=(1.0, 2.0))
    assert box.contains([0.0, 1.0])
    assert not box.contains([0.0, 2.1])
    assert box.contains([0.0, 2.1], pad=0.2)
    assert np.array_equal(box.center, [0.0, 1.0])
    pts = box.sample(np.random.default_rng(1), 50)
    assert pts.shape == (50, 2)
    assert np.all(pts >= box.lo) and np.all(pts <= box.hi)
    again = Box(lo=(-1.0, 0.0), hi=(1.0, 2.0)).sample(np.random.default_rng(1), 50)
    assert np.array_equal(pts, again)
    with pytest.raises(DomainError):
        Box(lo=(1.0, 0.0), hi=(-1.0, 2.0))


def test_system_requires_underactuation():
    kwargs = dict(metric=Field.constant(np.eye(2)),
                  potential=ScalarField.constant(0.0),
                  dissipation=DissipationField.zero(2))
    with pytest.raises(DomainError):
        MechanicalSystem(n=2, m=0, **kwargs)
    with pytest.raises(DomainError):
        MechanicalSystem(n=2, m=2, **kwargs)


def test_christoffel_bracket_formula():
    sys = pendulum_cart(0.5, 0.5)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        d = sys.metric.derivative(x)
        got = christoffel_from_derivative(d)
        want = np.empty((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    want[i, j, k] = 0.5 * (d[j, k, i] + d[i, k, j] - d[i, j, k])
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        assert np.allclose(got, np.swapaxes(got, 0, 1))  # symmetric in (i, j)


def test_quadratic_velocity_force_contraction():
    sys = pendulum_cart(0.5, 0.5)
    x = np.array([0.3, -0.1, 0.4])
    v = np.array([1.0, -0.5, 0.25])
    gamma = christoffel_first(sys, x)
    got = quadratic_velocity_force(gamma, v)
    want = np.array([sum(gamma[j, k, r] * v[j] * v[k]
                         for j in range(3) for k in range(3))
                     for r in range(3)])
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_acceleration_solves_the_equations_of_motion():
    sys = pendulum_cart(0.5, 0.5)
    s = State([0.2, 0.1, -0.3], [0.5, -0.2, 0.1])
    u = np.array([0.0, 0.3, -0.1])
    acc = acceleration(sys, s, u)
    g = sys.metric_at(s.x)
    lhs = g @ acc + quadratic_velocity_force(christoffel_first(sys, s.x), s.xdot)
    lhs += sys.dissipation(s.x, s.xdot) + sys.potential.gradient(s.x)
    assert np.allclose(lhs, u, atol=1e-13)
    with pytest.raises(DomainError):
        acceleration(sys, s, np.zeros(2))


def test_singular_metric_is_reported():
    degenerate = pendulum_cart(1.0, 0.5)  # det g = 1 - a^2 = 0 everywhere
    s = State(np.zeros(3), np.zeros(3))
    with pytest.raises(SingularMetricError):
        acceleration(degenerate, s, np.zeros(3))
    with pytest.raises(SingularMetricError):
        degenerate.check_metric_spd(np.zeros(3))
    pendulum_cart(0.5, 0.5).check_metric_spd(np.zeros(3))


@pytest.mark.parametrize("side, non_finite, singular", [
    ("plant", DomainError, SingularMetricError),
    ("target", SingularTargetError, SingularTargetError)])
def test_each_side_raises_its_own_metric_errors(side, non_finite, singular):
    def model(g):
        parts = dict(metric=Field.constant(g),
                     potential=ScalarField.constant(0.0),
                     dissipation=DissipationField.zero(2))
        if side == "plant":
            return MechanicalSystem(n=2, m=1, **parts)
        return TargetSystem(**parts)

    s = State(np.zeros(2), np.ones(2))
    with pytest.raises(non_finite):
        kinetic_matrix(model([[1.0, np.nan], [np.nan, 1.0]]), s)
    with pytest.raises(singular):
        solve(model(np.ones((2, 2))), s, np.ones(2))


def test_energy_formula():
    sys = pendulum_cart(0.5, 0.5)
    s = State([0.2, 0.0, 0.1], [1.0, 0.5, -0.5])
    want = 0.5 * s.xdot @ sys.metric_at(s.x) @ s.xdot + sys.potential(s.x)
    assert np.isclose(energy(sys, s), want, rtol=1e-15)


def test_rescaled_coordinates_preserve_rank_structure():
    """Positive diagonal coordinate changes must not move the rank profile."""
    sys = pendulum_cart(0.5, 0.5)
    scaled = rescale_coordinates(sys, [2.0, 0.5, 1.5])
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 3)
        xt = x * np.array([2.0, 0.5, 1.5])
        a = assemble_compatibility(sys, x)
        b = assemble_compatibility(scaled, xt)
        assert a.rank == b.rank
        assert a.kernel_basis.shape == b.kernel_basis.shape
    with pytest.raises(DomainError):
        rescale_coordinates(sys, [1.0, -1.0, 1.0])


def test_rescaled_energy_is_invariant():
    sys = pendulum_cart(0.5, 0.5)
    d = np.array([2.0, 0.5, 1.5])
    scaled = rescale_coordinates(sys, d)
    s = State([0.2, 0.1, -0.3], [0.5, -0.2, 0.1])
    st = State(s.x * d, s.xdot * d)
    assert np.isclose(energy(sys, s), energy(scaled, st), rtol=1e-14)


PLANT, _, TARGET = pendulum_fixture(PendulumParams().resolved())
X0, V0 = np.array([0.1, -0.2, 0.15]), np.array([0.05, -0.1, 0.2])


def _fill(s):
    for model in (PLANT, TARGET):
        kinetic_matrix(model, s)
        force(model, s)
    return s


def test_memo_leaves_equality_hash_and_repr_alone():
    plain = State(X0, V0)
    filled = _fill(State(X0, V0))
    assert plain == filled and filled == plain
    assert repr(plain) == repr(filled)
    keyed = [f.name for f in dataclasses.fields(State)
             if (f.compare if f.hash is None else f.hash)]
    assert keyed == ["x", "xdot"]
    errors = []
    for s in (plain, filled):   # ndarray fields: neither state is hashable
        with pytest.raises(TypeError) as err:
            hash(s)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_states_compare_by_value():
    # distinct arrays with equal values: the generated tuple comparison
    # raised "truth value of an array ... is ambiguous" here
    assert State(np.zeros(2), np.ones(2)) == State(np.zeros(2), np.ones(2))
    assert not State(np.zeros(2), np.ones(2)) != State(np.zeros(2), np.ones(2))
    assert State(X0, V0) != State(X0, 2.0 * V0)
    assert State(X0, V0) != State(X0 + 1.0, V0)
    assert State(np.zeros(2), np.zeros(2)) != State(np.zeros(3), np.zeros(3))
    assert State(X0, V0) != (X0, V0)
    assert isinstance(State(X0, V0) == State(X0, V0), bool)


def test_memo_keeps_plant_and_target_apart():
    s = _fill(State(X0, V0))
    for model in (PLANT, TARGET):
        fresh = State(X0, V0)
        assert np.array_equal(kinetic_matrix(model, s),
                              kinetic_matrix(model, fresh))
        assert np.array_equal(force(model, s), force(model, fresh))
        assert kinetic_matrix(model, s) is kinetic_matrix(model, s)
        assert force(model, s) is force(model, s)
    assert not np.array_equal(force(PLANT, s), force(TARGET, s))
    assert not np.array_equal(kinetic_matrix(PLANT, s),
                              kinetic_matrix(TARGET, s))


def test_memoized_arrays_are_read_only():
    # a constant field hands out its own array; the memo must not lock it
    flat = MechanicalSystem(n=2, m=1, metric=Field.constant(np.eye(2)),
                            potential=ScalarField.constant(0.0),
                            dissipation=DissipationField.zero(2))
    for model in (flat, PLANT):
        s = State(np.zeros(model.n), np.ones(model.n))
        with pytest.raises(ValueError):
            force(model, s)[0] = 1.0
        with pytest.raises(ValueError):
            kinetic_matrix(model, s)[0, 0] = 1.0
    assert flat.metric.value(np.zeros(2)).flags.writeable


def test_replace_starts_with_an_empty_memo():
    s = _fill(State(X0, V0))
    assert set(s.memo(PLANT)) == {"metric", "force"}
    moved = dataclasses.replace(s, xdot=2.0 * V0)
    assert moved.memo(PLANT) == {} and moved.memo(TARGET) == {}
    assert not np.array_equal(force(PLANT, moved), force(PLANT, s))
    assert dataclasses.replace(s).memo(TARGET) == {}


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIG_NAMES = ["pendulum", "pendulum-upright", "seesaw", "rollercoaster",
                "double-pendulum"]


def _shipped_bundles():
    """Every shipped fixture bundle, plus the bead on the helix track."""
    out = {name: load_config(os.path.join(CONFIGS, name + ".yaml"))
           for name in CONFIG_NAMES}
    helix = override_key(out["rollercoaster"].raw, "fixture.params.track",
                         {"shape": "helix", "radius": 1.5, "climb": 0.6})
    out["rollercoaster-helix"] = parse_config(helix)
    return {name: cfg.fixture for name, cfg in out.items()}


BUNDLES = _shipped_bundles()


def _shipped_models():
    """(label, model, box) for every shipped plant and closed-form target."""
    out = []
    for name in CONFIG_NAMES:
        fix = BUNDLES[name]
        out.append((name + ".plant", fix.system, fix.system.domain))
        if fix.target is not None:
            out.append((name + ".target", fix.target, fix.system.domain))
    return out


SHIPPED = _shipped_models()


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_shipped_kernels_answer_a_stack_as_each_point(name, k):
    """A stack (k, n) is answered as its points one by one (fields.py's
    contract), by the plant and by the fixture's ratio and overlap."""
    fix = BUNDLES[name]
    sys = fix.system
    methods = [sys.metric.value, sys.metric.derivative, sys.potential.value,
               sys.potential.gradient]
    for extra in (fix.ratio, fix.overlap):
        if extra is not None:
            methods += [extra.value, extra.derivative]
    pts = sys.domain.sample(np.random.default_rng(40 + k), k)
    for method in methods:
        stacked = method(pts)
        want = np.array([method(p) for p in pts])
        assert stacked.shape == want.shape
        assert np.allclose(stacked, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("label, model, box", SHIPPED,
                         ids=[label for label, _, _ in SHIPPED])
def test_force_without_brackets_matches_the_bracket_force(label, model, box):
    local = np.random.default_rng(31)
    for x in box.sample(local, 20):
        v = local.normal(size=x.size)
        parts = (quadratic_velocity_force(christoffel_first(model, x), v),
                 model.dissipation(x, v), model.potential.gradient(x))
        want = parts[0] + parts[1] + parts[2]
        scale = max(np.max(np.abs(p)) for p in parts)
        got = force(model, State(x, v))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_force_keeps_the_metric_derivative_check():
    bad = MechanicalSystem(
        n=2, m=1, metric=Field(lambda x: np.eye(2),
                               lambda x: np.full((2, 2, 2), np.inf)),
        potential=ScalarField.constant(0.0),
        dissipation=DissipationField.zero(2))
    with pytest.raises(DomainError, match="metric derivative has non-finite"):
        force(bad, State(np.zeros(2), np.ones(2)))


def _constant_model(side, g):
    parts = dict(metric=Field.constant(np.asarray(g, dtype=float)),
                 potential=ScalarField.constant(0.0),
                 dissipation=DissipationField.zero(len(g)))
    if side == "plant":
        return MechanicalSystem(n=len(g), m=1, **parts)
    return TargetSystem(**parts)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["spd", "indefinite"])
def test_small_solve_matches_numpy(n, kind):
    local = np.random.default_rng(100 + n)
    for _ in range(50):
        q, _ = np.linalg.qr(local.normal(size=(n, n)))
        lam = local.uniform(0.5, 2.0, n)
        if kind == "indefinite":
            lam[::2] *= -1.0
        g = (q * lam) @ q.T
        g = 0.5 * (g + g.T)
        rhs = local.normal(size=n)
        s = State(local.normal(size=n), local.normal(size=n))
        got = solve(_constant_model("target", g), s, rhs)
        want = np.linalg.solve(g, rhs)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


SINGULAR = [
    [[1, 2], [2, 4]],
    [[0, 0], [0, 3]],
    [[2, 4, 6], [1, 2, 3], [0, 0, 1]],
    [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
]


@pytest.mark.parametrize("side, error", [("plant", SingularMetricError),
                                         ("target", SingularTargetError)])
@pytest.mark.parametrize("g", SINGULAR, ids=[str(len(g)) + "x" + str(i)
                                             for i, g in enumerate(SINGULAR)])
def test_exactly_singular_kinetic_matrices_raise_each_sides_error(side, error, g):
    with pytest.raises(np.linalg.LinAlgError):   # LAPACK's verdict too
        np.linalg.solve(np.array(g, dtype=float), np.ones(len(g)))
    n = len(g)
    s = State(np.zeros(n), np.ones(n))
    with pytest.raises(error, match="kinetic matrix is singular"):
        solve(_constant_model(side, g), s, np.ones(n))


@pytest.mark.parametrize("g, rhs, want", [
    ([[0, 1], [1, 0]], [2.0, 3.0], [3.0, 2.0]),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [1.0, 2.0, 3.0], [2.0, 3.0, 1.0]),
    ([[0, 2, 0], [0, 0, 4], [1, 0, 0]], [2.0, 8.0, 5.0], [5.0, 1.0, 2.0]),
])
def test_small_solve_swaps_rows_to_a_nonzero_pivot(g, rhs, want):
    n = len(g)
    for side in ("plant", "target"):
        got = solve(_constant_model(side, g), State(np.zeros(n), np.ones(n)),
                    np.array(rhs))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("x, xdot, message", [
    ([np.nan, 0.0], [0.0, 0.0], "non-finite"),
    ([0.0, np.inf], [0.0, 0.0], "non-finite"),
    ([-np.inf, 0.0], [0.0, 0.0], "non-finite"),
    ([0.0, 0.0], [np.nan, 0.0], "non-finite"),
    ([0.0, 0.0], [0.0, np.inf], "non-finite"),
    ([0.0, 0.0], [-np.inf, 1e308], "non-finite"),
    ([np.inf, 0.0], [np.nan, 0.0], "non-finite"),
    ([0.1, 0.2], [0.0], "matching 1-d"),
    ([[0.1, 0.2]], [[0.0, 0.1]], "matching 1-d"),
    ([0.1], [0.0], "at least 2"),
])
def test_state_rejects_non_finite_and_misshapen_input(x, xdot, message):
    with pytest.raises(DomainError, match=message):
        State(x, xdot)


def test_state_accepts_huge_finite_entries():
    big = 1e308
    for x, xdot in (([big, big], [big, -big]), ([-big, 0.0], [0.0, 0.0]),
                    ([0.0, 0.0], [big, big]),
                    ([np.finfo(float).max] * 3, [-np.finfo(float).max] * 3)):
        s = State(x, xdot)
        assert np.array_equal(s.x, x) and np.array_equal(s.xdot, xdot)
