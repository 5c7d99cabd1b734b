"""Fields: explicit derivatives win, central differences fill in."""
import numpy as np
import pytest

from matchctl.errors import DomainError
from matchctl.fields import (DissipationField, Field, ScalarField, all_finite,
                             fd_derivative, per_point)
from matchctl.geometry import MechanicalSystem, rescale_coordinates

rng = np.random.default_rng(2)


def _poly(x):
    return x[0] ** 2 * x[1] - 3.0 * x[2] + x[1] * x[2] ** 2


def _poly_grad(x):
    return np.array([2 * x[0] * x[1], x[0] ** 2 + x[2] ** 2,
                     -3.0 + 2 * x[1] * x[2]])


def test_fd_gradient_matches_polynomial():
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(fd_derivative(_poly, x), _poly_grad(x), atol=5e-9)


def test_fd_and_dual_jacobian():
    x = np.array([0.4, -0.7])
    want = np.array([[-0.7, 0.4], [-1.0, -1.4]])
    got = fd_derivative(lambda p: np.array([p[0] * p[1], p[1] ** 2 - p[0]]), x)
    assert np.allclose(got, want, atol=5e-9)


def test_matrix_derivative_engines():
    def mat(p):
        return np.array([[p[0] ** 2, p[0] * p[1]], [p[0] * p[1], p[1] ** 3]])

    x = np.array([0.9, -0.5])
    want = np.zeros((2, 2, 2))
    want[0, 0] = [2 * x[0], 0.0]
    want[0, 1] = want[1, 0] = [x[1], x[0]]
    want[1, 1] = [0.0, 3 * x[1] ** 2]
    assert np.allclose(fd_derivative(mat, x), want, atol=5e-9)


def test_scalar_field_prefers_explicit_gradient():
    # a deliberately wrong gradient callable must win over differentiation
    f = ScalarField(lambda x: x[0], lambda x: np.array([9.0, 9.0]))
    assert np.array_equal(f.gradient(np.zeros(2)), [9.0, 9.0])
    assert f(np.array([3.0, 0.0])) == 3.0


def test_scalar_field_dual_default_and_fd_mode():
    g = ScalarField(lambda x: x[0] ** 2 + x[1])
    assert np.allclose(g.gradient([1.5, 0.0]), [3.0, 1.0], atol=5e-9)
    c = ScalarField.constant(4.2)
    assert c([1.0, 2.0]) == 4.2
    assert np.array_equal(c.gradient([1.0, 2.0]), np.zeros(2))


def test_matrix_field_dual_value_and_derivative():
    m = Field(lambda x: np.array([[x[0], x[1] * x[0]], [x[1] * x[0], 1.0]]))
    x = np.array([0.6, -0.2])
    assert np.allclose(m.value(x), [[0.6, -0.12], [-0.12, 1.0]])
    d = m.derivative(x)
    assert d.shape == (2, 2, 2)
    assert np.allclose(d[0, 1], [-0.2, 0.6], atol=5e-9)
    cm = Field.constant(np.eye(2))
    assert np.array_equal(cm.derivative(x), np.zeros((2, 2, 2)))
    rows = Field.constant([[1.0, 2.0, 0.0]])
    assert rows.value(np.zeros(3)).shape == (1, 3)
    assert np.array_equal(rows.derivative(np.zeros(3)), np.zeros((1, 3, 3)))


def test_vector_field_jacobian_modes():
    x = np.array([0.3, 0.8])
    want = np.array([[0.0, 1.0], [-0.8, -0.3]])
    v = Field(lambda p: np.array([p[1], -p[0] * p[1]]))
    assert np.allclose(v.derivative(x), want, atol=5e-9)
    exact = Field(v.value, lambda p: np.array([[0.0, 1.0], [-p[1], -p[0]]]))
    assert np.array_equal(exact.derivative(x), want)


def test_numpy_callables_fall_back_to_differences():
    # regression: numpy ufuncs in a field callable used to raise TypeError
    # when no derivative was given
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        f = ScalarField(lambda p: np.cos(p[0]) * p[1])
        assert np.allclose(f.gradient(x), [-np.sin(x[0]) * x[1], np.cos(x[0])],
                           rtol=0.0, atol=5e-9)
        g = Field(lambda p: np.array([[np.cos(p[0]), p[1] * np.sin(p[0])],
                                      [p[1] * np.sin(p[0]), np.exp(p[1])]]))
        want = np.zeros((2, 2, 2))
        want[0, 0] = [-np.sin(x[0]), 0.0]
        want[0, 1] = want[1, 0] = [x[1] * np.cos(x[0]), np.sin(x[0])]
        want[1, 1] = [0.0, np.exp(x[1])]
        assert np.allclose(g.derivative(x), want, rtol=0.0, atol=5e-9)


def test_dissipation_field_fallback_jacobians():
    c = DissipationField(lambda x, v: np.array([x[0] * v[0] ** 2, v[1]]))
    x, v = np.array([0.5, 0.0]), np.array([2.0, -1.0])
    assert np.allclose(c.jac_x(x, v), [[4.0, 0.0], [0.0, 0.0]], atol=5e-9)
    assert np.allclose(c.jac_v(x, v), [[2.0, 0.0], [0.0, 1.0]], atol=5e-9)
    # the same force as a Field over z = (x, v)
    z = np.concatenate((x, v))
    assert np.array_equal(c.value(z), c(x, v))
    assert np.array_equal(c.derivative(z),
                          np.hstack((c.jac_x(x, v), c.jac_v(x, v))))


def test_dissipation_zero_and_linear():
    z = DissipationField.zero(3)
    assert np.array_equal(z(np.ones(3), np.ones(3)), np.zeros(3))


def test_dissipation_rejects_non_finite():
    c = DissipationField(lambda x, v: np.array([np.inf, 0.0]))
    with pytest.raises(DomainError):
        c(np.zeros(2), np.zeros(2))


def test_scale_dissipation():
    base = DissipationField(lambda x, v: 2.0 * v,
                            lambda x, v: np.hstack((np.zeros((2, 2)),
                                                    2.0 * np.eye(2))))
    half = DissipationField.scaled(base, 0.5)
    v = np.array([1.0, -3.0])
    assert np.allclose(half(np.zeros(2), v), v)
    assert np.allclose(half.jac_v(np.zeros(2), v), np.eye(2))


def _counted_drag():
    """A drag with a stated derivative, and the list its calls land in."""
    calls = []

    def der(x, v):
        calls.append(1)
        return np.hstack((np.diag(v * np.cos(x)), np.diag(np.sin(x))))

    return DissipationField(lambda x, v: np.sin(x) * v, der), calls


@pytest.mark.parametrize("wrap", [
    lambda c: DissipationField.scaled(c, 0.5),
    lambda c: DissipationField.scaled(DissipationField.scaled(c, 0.5), 3.0),
    lambda c: rescale_coordinates(
        MechanicalSystem(2, 1, Field.constant(np.eye(2)),
                         ScalarField(lambda x: 0.0, lambda x: np.zeros(2)), c),
        [0.5, 4.0]).dissipation,
], ids=["scaled", "scaled-twice", "rescaled"])
def test_wrapped_drag_reads_its_base_derivative_once(wrap):
    base, calls = _counted_drag()
    c = wrap(base)
    x, v = np.array([0.3, -0.2]), np.array([1.5, 0.7])
    for read in (lambda: c.derivative(np.concatenate((x, v))),
                 lambda: c.jac_x(x, v), lambda: c.jac_v(x, v)):
        calls.clear()
        read()
        assert len(calls) == 1


def test_fd_derivative_differences_a_stack_along_the_last_axis():
    pts = rng.uniform(-1, 1, (4, 3))
    stacked = fd_derivative(per_point(_poly), pts)
    assert stacked.shape == (4, 3)
    for p, row in zip(pts, stacked):
        assert np.array_equal(row, fd_derivative(_poly, p))


def test_constant_field_answers_a_stack_in_kind():
    rows = Field.constant([[1.0, 2.0, 0.0]])
    pts = np.zeros((5, 3))
    assert rows.value(pts).shape == (5, 1, 3)
    assert np.array_equal(rows.value(pts)[3], [[1.0, 2.0, 0.0]])
    assert np.array_equal(rows.derivative(pts), np.zeros((5, 1, 3, 3)))
    # one point still gets the field's own (writeable) array
    assert rows.value(np.zeros(3)) is rows.value(np.ones(3))
    assert rows.value(np.zeros(3)).flags.writeable
    c = ScalarField.constant(4.2)
    assert np.array_equal(c.value(pts), np.full(5, 4.2))
    assert np.array_equal(c.gradient(pts), np.zeros((5, 3)))


def test_per_point_stacks_a_one_point_kernel():
    def kernel(x):
        if abs(x[0]) < 1e-9:     # a scalar test: fails on a stack as written
            return np.eye(2)
        return np.array([[x[0], x[1]], [x[1], 1.0]])

    f = Field(per_point(kernel))
    pts = rng.uniform(0.5, 1.0, (2, 3, 2))
    got = f.value(pts)
    assert got.shape == (2, 3, 2, 2)
    assert np.array_equal(got[1, 2], kernel(pts[1, 2]))
    assert np.array_equal(f.value(pts[0, 0]), kernel(pts[0, 0]))
    with pytest.raises(ValueError):
        Field(kernel).value(pts[0])


@pytest.mark.parametrize("shape", [(2,), (3, 3), (3, 3, 3), (4, 4, 3),
                                   (4, 4, 4), (6, 6, 6)])
@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_all_finite_agrees_with_numpy(shape, bad):
    a = np.full(shape, 1e308)        # huge but finite: no overflow
    a.flat[::2] = -np.finfo(float).max
    if bad is not None:
        a.flat[-1] = bad
    assert all_finite(a) == bool(np.isfinite(a).all()) == (bad is None)
    assert all_finite(a[..., ::-1]) == (bad is None)   # a strided view
