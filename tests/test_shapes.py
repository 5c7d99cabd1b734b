"""Profile catalog: float jets against array formulas and differences."""
import numpy as np
import pytest

from matchctl.errors import DomainError
from matchctl.fields import fd_derivative
from matchctl.shapes import constant_profile, cosine_profile, quadratic_profile

rng = np.random.default_rng(23)


def _kinds(d):
    """Each kind on R^d with seeded coefficients, and its value as an
    array formula of y."""
    local = np.random.default_rng(100 + d)
    c = local.uniform(-2.0, 2.0)
    m = local.uniform(-1.0, 1.0, (d, d))
    Q, b = m + m.T, local.uniform(-1.0, 1.0, d)
    k, amp, ph = local.uniform(-1.5, 1.5, d), local.uniform(0.2, 1.0), 0.3
    return {
        "constant": (constant_profile(c, dim=d), lambda y: c),
        "quadratic": (quadratic_profile(Q, b, c),
                      lambda y: y @ Q @ y + b @ y + c),
        "cosine": (cosine_profile(amp, k, ph, c),
                   lambda y: amp * np.cos(k @ y + ph) + c),
    }


CASES = [(kind, d) for d in (1, 2, 3) for kind in ("constant", "quadratic",
                                                   "cosine")]


@pytest.mark.parametrize("kind, d", CASES, ids=[f"{k}-{d}" for k, d in CASES])
def test_jet_agrees_with_call_formula_and_differences(kind, d):
    prof, formula = _kinds(d)[kind]
    assert prof.dim == d
    for y in rng.uniform(-1.0, 1.0, (15, d)):
        value, grad = prof.jet(tuple(y.tolist()))
        assert isinstance(value, float) and len(grad) == d
        assert value == prof(y)
        assert np.array_equal(prof.gradient(y), grad)
        assert abs(value - formula(y)) <= 1e-14 * max(1.0, abs(value))
        fd = fd_derivative(lambda z: np.array(prof(z)), y)
        assert np.max(np.abs(np.array(grad) - fd)) <= 1e-8
        hess = prof.hessian(y)
        assert hess.shape == (d, d)
        fd_hess = fd_derivative(prof.gradient, y)
        assert np.max(np.abs(hess - fd_hess)) <= 1e-8


@pytest.mark.parametrize("kind", ["constant", "quadratic", "cosine"])
def test_points_of_the_wrong_size_are_refused(kind):
    prof, _ = _kinds(2)[kind]
    for y in (np.zeros(3), np.zeros(1), np.zeros((1, 2)), 0.0):
        with pytest.raises(DomainError):
            prof(y)
        with pytest.raises(DomainError):
            prof.gradient(y)
        with pytest.raises(DomainError):
            prof.hessian(y)
