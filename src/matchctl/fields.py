"""Smooth fields with derivative access.

Every geometric object the package manipulates is a field: a function of
the configuration point that can also report its first derivatives.  A
field's derivative comes from an explicit callable when one is given
(the example systems hand-code these) and from central finite
differences otherwise; the differences also serve as the cross-check
oracle in the tests.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

FD_STEP = 1e-6


def fd_derivative(fn: Callable, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences D[..., k] = d fn / d x_k; shape fn's output plus (n,)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = step
        cols.append((np.asarray(fn(x + e), dtype=float)
                     - np.asarray(fn(x - e), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


class Field:
    """x -> array of shape (...out) with derivative D[..., k] = d value / d x_k.

    Matrix fields (kinetic matrices), ratio rows (m, n), overlap data
    (m, m) and flow directions (k,) are all of this one kind.
    """

    def __init__(self, value: Callable, derivative: Callable | None = None):
        self._value = value
        self._derivative = derivative

    def value(self, x) -> np.ndarray:
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._derivative is not None:
            return np.asarray(self._derivative(x), dtype=float)
        return fd_derivative(self.value, x)

    @classmethod
    def constant(cls, value):
        value = np.array(value, dtype=float)
        return cls(lambda x: value,
                   lambda x: np.zeros(value.shape + (np.asarray(x).size,)))


class ScalarField(Field):
    """x -> float; potentials are called as f(x) and f.gradient(x)."""

    def __init__(self, value: Callable, gradient: Callable | None = None):
        super().__init__(value, gradient)

    def __call__(self, x) -> float:
        return float(self.value(x))

    def gradient(self, x) -> np.ndarray:
        return self.derivative(x)


class DissipationField:
    """(x, xdot) -> (n,) velocity-dependent force with both Jacobians."""

    def __init__(self, value: Callable, jac_x: Callable | None = None,
                 jac_v: Callable | None = None):
        self._value = value
        self._jac_x = jac_x
        self._jac_v = jac_v

    def __call__(self, x, v) -> np.ndarray:
        out = np.asarray(self._value(np.asarray(x, dtype=float),
                                     np.asarray(v, dtype=float)), dtype=float)
        if not np.isfinite(out).all():
            raise DomainError("dissipation returned non-finite values")
        return out

    def jac_x(self, x, v) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self._jac_x is not None:
            return np.asarray(self._jac_x(x, v), dtype=float)
        return fd_derivative(lambda p: self._value(p, v), x)

    def jac_v(self, x, v) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self._jac_v is not None:
            return np.asarray(self._jac_v(x, v), dtype=float)
        return fd_derivative(lambda w: self._value(x, w), v)

    @classmethod
    def zero(cls, n: int):
        z = np.zeros(n)
        zz = np.zeros((n, n))
        return cls(lambda x, v: z, lambda x, v: zz, lambda x, v: zz)

    @classmethod
    def linear(cls, matrix: Callable, matrix_dx: Callable | None = None):
        """Force of the form R(x) @ xdot from a matrix callable.

        matrix_dx, if given, returns D[i, j, k] = d R_ij / d x_k.
        """

        def val(x, v):
            return np.asarray(matrix(x), dtype=float) @ v

        def jv(x, v):
            return np.asarray(matrix(x), dtype=float)

        jx = None
        if matrix_dx is not None:
            def jx(x, v):  # noqa: F811 - deliberate rebinding
                return np.einsum("ijk,j->ik", np.asarray(matrix_dx(x), dtype=float), v)

        return cls(val, jac_x=jx, jac_v=jv)


def scale_dissipation(c: DissipationField, factor: float) -> DissipationField:
    return DissipationField(lambda x, v: factor * c(x, v),
                            jac_x=lambda x, v: factor * c.jac_x(x, v),
                            jac_v=lambda x, v: factor * c.jac_v(x, v))
