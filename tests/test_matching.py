"""Compatibility operator, residuals, rank verdicts, and the scaling family."""
import dataclasses
import os

import numpy as np
import pytest

from matchctl import (State, assemble_compatibility, control_law,
                      matching_residual, scaling_solution, transport_residual)
from matchctl.errors import (DomainError, IndefiniteTargetError, ScopeError,
                             SingularMetricError)
from matchctl.fields import DissipationField, Field, ScalarField, fd_derivative
from matchctl.geometry import Box, MechanicalSystem, christoffel_first, force
from matchctl.matching import (actuated_block_matrix_field,
                               actuated_scalar_field, commutator,
                               involutive_closure, kernel_direction_fields,
                               overlap_matrix, pair_basis, rank_condition,
                               recover_ratio, solvability_residual)
from matchctl.config import load_config
from matchctl.systems import (PendulumParams, bead_on_track, chained_pendulums,
                              pendulum_fixture, seesaw_cart,
                              vertical_circle_track)
from matchctl.systems.rigidity import transport_coefficients

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

rng = np.random.default_rng(6)

PEND = pendulum_fixture(PendulumParams().resolved())


def _const_metric_system():
    M0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    return MechanicalSystem(
        n=3, m=1, metric=Field.constant(M0),
        potential=ScalarField.constant(0.0),
        dissipation=DissipationField.zero(3),
        domain=Box(lo=(-1, -1, -1), hi=(1, 1, 1)), name="const")


def test_compatibility_matrix_closed_form():
    sys, _, _ = PEND
    a = sys.params["a"]
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        comp = assemble_compatibility(sys, x)
        want = np.zeros((3, 2))
        want[0] = [a * np.sin(x[0]), -a * np.cos(x[0])]
        assert np.allclose(comp.matrix, want, atol=1e-14)
        assert comp.rank == 1
        assert comp.kernel_basis.shape[1] == 2


def _probed_coefficients(sys, x):
    """Reference (D, B): the transport right side evaluated on unit inputs."""
    m, n = sys.m, sys.n
    g, gam = sys.metric_at(x), christoffel_first(sys, x)
    h = np.linalg.inv(g[:m, :m])
    pairs = [(a, b) for a in range(m) for b in range(a, m)]

    def rhs(overlap, free):
        lam = np.hstack(((overlap - free @ g[m:, :m]) @ h.T, free))
        blk = gam[:, :m, :] @ lam.T
        sym = blk + blk.transpose(0, 2, 1)
        return np.array([sym[:, a, b] for a, b in pairs]).T      # [k, p]

    def unit(shape, *idx):
        e = np.zeros(shape)
        for i in idx:
            e[i] = 1.0
        return e

    D = np.stack([rhs(unit((m, m), (a, b), (b, a)), np.zeros((m, n - m)))
                  for a, b in pairs], axis=-1)
    B = np.stack([rhs(np.zeros((m, m)), unit((m, n - m), divmod(j, n - m)))
                  for j in range(m * (n - m))], axis=-1)
    return D, B


@pytest.mark.parametrize("name", ["pendulum", "seesaw", "rollercoaster",
                                  "double-pendulum"])
def test_lambda_encodings_agree(name):
    """A, the rigidity coefficients (D, B) and the transport residual are
    one system: A = w B, and R = ds - D s - B free on each pair."""
    bundle = load_config(os.path.join(CONFIGS, name + ".yaml")).fixture
    sys, ratio = bundle.system, bundle.ratio
    m, basis = sys.m, pair_basis(sys.m)
    ia, ib = basis.first, basis.second
    for x in sys.domain.sample(np.random.default_rng(20), 20):
        D, B = transport_coefficients(sys, x)
        D_ref, B_ref = _probed_coefficients(sys, x)
        tol = 1e-14 * max(1.0, np.abs(D_ref).max(), np.abs(B_ref).max())
        assert np.max(np.abs(D - D_ref)) <= tol
        assert np.max(np.abs(B - B_ref)) <= tol
        A = assemble_compatibility(sys, x).matrix
        assert np.array_equal(A, (basis.weights[:, None] * B).reshape(A.shape))

        g, dg = sys.metric.value(x), sys.metric.derivative(x)
        r, dr = ratio.value(x), ratio.derivative(x)
        s = g[:m] @ r.T
        ds = (np.einsum("aik,bi->abk", dg[:m], r)
              + np.einsum("ai,bik->abk", g[:m], dr))[ia, ib].T    # [k, p]
        lin_o, lin_f = D @ s[ia, ib], B @ r[:, m:].ravel()
        res = transport_residual(sys, ratio, x)[:, ia, ib]
        scale = max(1.0, np.abs(ds).max(), np.abs(lin_o).max(),
                    np.abs(lin_f).max())
        assert np.max(np.abs(res - (ds - lin_o - lin_f))) <= 1e-12 * scale


def test_constant_metric_operator_vanishes():
    sys = _const_metric_system()
    for x in sys.domain.sample(rng, 5):
        comp = assemble_compatibility(sys, x)
        assert comp.rank == 0


def test_singular_unactuated_block_is_a_singular_metric_error():
    sys = MechanicalSystem(
        n=2, m=1, metric=Field.constant([[0.0, 1.0], [1.0, 0.0]]),
        potential=ScalarField.constant(0.0),
        dissipation=DissipationField.zero(2))
    with pytest.raises(SingularMetricError, match="unactuated block"):
        assemble_compatibility(sys, np.zeros(2))


def test_transport_residual_fixture_and_corruption():
    sys, ratio, _ = PEND
    pts = list(sys.domain.sample(rng, 30))
    worst = max(np.max(np.abs(transport_residual(sys, ratio, x))) for x in pts)
    assert worst <= 1e-9

    def bad_val(x):
        r = ratio.value(x).copy()
        r[0, 1] += 0.01
        return r

    bad = Field(bad_val)
    worst_bad = max(np.max(np.abs(transport_residual(sys, bad, x))) for x in pts)
    assert worst_bad > 1e-4


def test_matching_residual_full_target():
    sys, ratio, target = PEND
    worst = 0.0
    for x in sys.domain.sample(rng, 20):
        v = rng.uniform(-1, 1, 3)
        worst = max(worst, np.max(np.abs(
            matching_residual(sys, ratio, target, State(x, v)))))
    assert worst <= 1e-9


def test_matching_residual_derives_ratio_when_omitted():
    sys, _, target = PEND
    for x in sys.domain.sample(rng, 10):
        v = rng.uniform(-1, 1, 3)
        res = matching_residual(sys, None, target, State(x, v))
        assert res.shape == (1,)
        assert np.max(np.abs(res)) <= 1e-9


class _Counted(Field):
    """A field that counts its value and derivative evaluations."""

    def __init__(self, inner):
        super().__init__(inner.value, inner.derivative)
        self.values = self.derivatives = 0

    def value(self, x):
        self.values += 1
        return super().value(x)

    def derivative(self, x):
        self.derivatives += 1
        return super().derivative(x)


def _bracket_transport_residual(sys, ratio, x):
    """transport_residual with the metric derivative evaluated directly."""
    m = sys.m
    g, dg = sys.metric_at(x), sys.metric.derivative(x)
    gam = christoffel_first(sys, x)
    rv, dr = ratio.value(x), ratio.derivative(x)
    ds = (np.einsum("aik,bi->kab", dg[:m], rv)
          + np.einsum("ai,bik->kab", g[:m], dr))
    contraction = np.einsum("kai,bi->kab", gam[:, :m, :], rv)
    return ds - contraction - np.transpose(contraction, (0, 2, 1))


def test_transport_residual_evaluates_the_metric_derivative_once():
    sys, ratio, _ = PEND
    counted = dataclasses.replace(sys, metric=_Counted(sys.metric))
    transport_residual(counted, ratio, sys.domain.center)
    assert counted.metric.derivatives == 1


@pytest.mark.parametrize("name", ["pendulum", "seesaw", "rollercoaster",
                                  "double-pendulum"])
def test_transport_residual_matches_the_direct_derivative_formula(name):
    fix = load_config(os.path.join(CONFIGS, name + ".yaml")).fixture
    sys, ratio = fix.system, fix.ratio
    # the shipped ratio (residual at roundoff) and a skewed one (O(1))
    skewed = Field(lambda x: 1.5 * ratio.value(x) + 0.1,
                   lambda x: 1.5 * ratio.derivative(x))
    local = np.random.default_rng(23)
    for x in sys.domain.sample(local, 20):
        for r in (ratio, skewed):
            want = _bracket_transport_residual(sys, r, x)
            got = transport_residual(sys, r, x)
            assert got.shape == want.shape
            assert (np.max(np.abs(got - want))
                    <= 1e-13 * max(1.0, np.max(np.abs(want))))


def test_matching_residual_without_ratio_is_the_laws_unactuated_rows():
    sys, _, target = PEND
    counted = dataclasses.replace(target, metric=_Counted(target.metric))
    local = np.random.default_rng(29)
    for x in sys.domain.sample(local, 20):
        s = State(x, local.uniform(-1, 1, 3))
        before = counted.metric.values
        res = matching_residual(sys, None, counted, s)
        assert counted.metric.values - before == 1
        # the law at the same state reads G from the state's memo
        law = control_law(sys, counted, s)
        assert counted.metric.values - before == 1
        scale = np.max(np.abs(force(sys, s)))
        assert np.max(np.abs(res - law[:sys.m])) <= 1e-14 * scale
        fresh = control_law(sys, target, State(x, s.xdot))
        assert np.max(np.abs(res - fresh[:sys.m])) <= 1e-14 * scale


def test_overlap_matrix_is_the_unactuated_row_contraction():
    sys, ratio, _ = PEND
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        got = overlap_matrix(sys, ratio, x)
        want = sys.metric_at(x)[:1, :] @ ratio.value(x).T
        assert np.allclose(got, want, atol=1e-13)


def _pendulum_overlap(p):
    a, t0, m0 = p.a, p.tilt_ratio, p.sway_ratio

    def val(x):
        s = np.sin(x[0])
        return np.array([[a * m0 * s * s + t0 - a * m0]])

    def der(x):
        d = np.zeros((1, 1, 3))
        d[0, 0, 0] = 2 * a * m0 * np.sin(x[0]) * np.cos(x[0])
        return d

    return Field(val, der)


def test_solvability_residual_flags_bad_overlap_data():
    sys, _, _ = PEND
    p = PendulumParams().resolved()
    good = _pendulum_overlap(p)
    pts = list(sys.domain.sample(rng, 20))
    assert max(np.max(np.abs(solvability_residual(sys, good, x)))
               for x in pts) <= 1e-9

    def bad_der(x):
        d = good.derivative(x).copy()
        d[0, 0, 1] = 0.3  # pretend the data varies along a driven coordinate
        return d

    bad = Field(good.value, bad_der)
    assert max(np.max(np.abs(solvability_residual(sys, bad, x)))
               for x in pts) > 1e-3


def test_recover_ratio_with_pinned_component():
    sys, ratio, _ = PEND
    ov = _pendulum_overlap(PendulumParams().resolved())
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        row = recover_ratio(sys, ov, x, pins={2: 0.0})
        assert np.allclose(row, ratio.value(x)[0], atol=1e-9)


def test_recover_ratio_rejects_unsolvable_data():
    sys, _, _ = PEND
    good = _pendulum_overlap(PendulumParams().resolved())

    def bad_der(x):
        d = good.derivative(x).copy()
        d[0, 0, 1] = 0.5
        return d

    bad = Field(good.value, bad_der)
    from matchctl.errors import UnsolvableDataError
    with pytest.raises(UnsolvableDataError):
        recover_ratio(sys, bad, np.array([0.4, 0.1, -0.2]))


def test_rank_condition_reports_a_drop():
    sys = seesaw_cart(0.5, 2.0)
    samples = [rng.uniform(-0.3, 0.3, 3) for _ in range(16)]
    verdict = rank_condition(sys, np.zeros(3), samples)
    assert verdict.point_rank == 0
    assert verdict.sample_max_rank == 2
    assert verdict.drop
    assert verdict.count == 16
    with pytest.raises(DomainError):
        rank_condition(sys, np.zeros(3), [])


def test_rank_condition_without_drop():
    sys = seesaw_cart(0.5, 2.0)
    x0 = np.array([1.0, 0.0, 1.0])
    samples = [x0 + rng.uniform(-0.1, 0.1, 3) for _ in range(8)]
    verdict = rank_condition(sys, x0, samples)
    assert verdict.point_rank == 2 and not verdict.drop


def test_scaling_solution_matches_everywhere():
    sys = seesaw_cart(0.5, 2.0)
    ratio, target = scaling_solution(sys, 0.5)
    assert np.allclose(ratio.value(np.zeros(3)), [[0.5, 0.0, 0.0]])
    for x in sys.domain.sample(rng, 10):
        assert np.max(np.abs(transport_residual(sys, ratio, x))) <= 1e-12
        v = rng.uniform(-1, 1, 3)
        assert np.max(np.abs(matching_residual(sys, ratio, target,
                                               State(x, v)))) <= 1e-12


def test_scaling_solution_validation():
    sys = seesaw_cart(0.5, 2.0)
    with pytest.raises(DomainError):
        scaling_solution(sys, 0.0)
    with pytest.raises(IndefiniteTargetError):
        scaling_solution(sys, -1.0)  # flips the sign of the kinetic matrix

    full = Field.constant(0.1 * np.ones((3, 3)))
    with pytest.raises(DomainError):
        scaling_solution(sys, 1.0, kinetic_extra=full)


def test_actuated_extras_shape():
    sys, _, _ = PEND
    blk = actuated_block_matrix_field(
        sys, lambda z: np.diag([1.0 + z[0] ** 2, 2.0]),
        lambda z: np.array([[[2 * z[0], 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]))
    x = np.array([0.4, 0.3, -0.2])
    v = blk.value(x)
    assert v[0, 0] == 0.0 and np.all(v[:1, :] == 0.0)
    assert v[1, 1] == 1.0 + 0.09
    d = blk.derivative(x)
    assert np.all(d[:, :, 0] == 0.0)  # no unactuated dependence

    pot = actuated_scalar_field(sys, lambda z: z[0] + z[1] ** 2)
    assert pot(x) == pytest.approx(0.3 + 0.04)
    assert pot.gradient(x)[0] == 0.0


def _plants_with_actuated_blocks():
    return {"pendulum-cart": PEND[0],
            "bead": bead_on_track(vertical_circle_track(2.0), a=1.0, b=0.5)}


@pytest.mark.parametrize("name", sorted(_plants_with_actuated_blocks()))
def test_actuated_extras_without_derivatives_difference_the_block(name):
    # reference: central differences of the actuated block alone, embedded
    # into zeros; the unactuated columns difference to exact zeros, so
    # Field's differences over all of x agree bit for bit
    sys = _plants_with_actuated_blocks()[name]
    m, n = sys.m, sys.n
    block = lambda z: np.diag(1.0 + z * z) + 0.3 * np.outer(np.sin(z), z)
    scalar = lambda z: float(np.sum(np.cos(z)) + (z @ z) * z[0])
    blk = actuated_block_matrix_field(sys, block)
    pot = actuated_scalar_field(sys, scalar)
    for x in sys.domain.sample(np.random.default_rng(31), 100):
        want = np.zeros((n, n, n))
        want[m:, m:, m:] = fd_derivative(block, x[m:])
        assert np.array_equal(blk.derivative(x), want)
        grad = np.zeros(n)
        grad[m:] = fd_derivative(scalar, x[m:])
        assert np.array_equal(pot.gradient(x), grad)


def test_commutator_closed_form():
    f1 = Field(lambda x: np.array([1.0, 0.0]),
               derivative=lambda x: np.zeros((2, 2)))
    f2 = Field(lambda x: np.array([0.0, x[0]]),
               derivative=lambda x: np.array([[0.0, 0.0], [1.0, 0.0]]))
    br = commutator(f1, f2)
    assert np.allclose(br.value(np.array([0.7, -0.3])), [0.0, 1.0], atol=1e-12)


def test_involutive_closure_adds_the_missing_direction():
    f1 = Field(lambda x: np.array([1.0, 0.0]),
               derivative=lambda x: np.zeros((2, 2)))
    f2 = Field(lambda x: np.array([0.0, x[0]]),
               derivative=lambda x: np.array([[0.0, 0.0], [1.0, 0.0]]))
    pts = [np.array([0.0, 0.0]), np.array([0.5, 0.5])]
    res = involutive_closure([f1, f2], pts)
    assert res.closed and res.added == 1 and res.depth == 1
    assert len(res.fields) == 3

    res0 = involutive_closure([f1, f2], pts, max_depth=0)
    assert not res0.closed
    with pytest.raises(DomainError):
        involutive_closure([f1, f2], [])


def test_kernel_direction_fields_scope():
    sys, _, _ = PEND
    fields = kernel_direction_fields(sys, np.array([0.2, 0.1, -0.3]))
    assert len(fields) == 2
    span = np.column_stack([f.value(np.zeros(3)) for f in fields])
    assert np.linalg.matrix_rank(span) == 2
    with pytest.raises(ScopeError):
        kernel_direction_fields(chained_pendulums(np.array(
            [[2.0, 1.0, 0.5], [1.0, 2.0, 1.4], [0.5, 1.4, 3.0]])), np.zeros(3))
