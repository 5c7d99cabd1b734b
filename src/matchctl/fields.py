"""Smooth fields with derivative access.

Every geometric object the package manipulates is a field: a function of
the configuration point (of z = (x, xdot) for a dissipation) that can
also report its first derivatives.  A field's derivative comes from an
explicit callable when one is given (the example systems hand-code
these) and from central finite differences otherwise; the differences
also serve as the cross-check oracle in the tests.

A kernel is given either one point, shape (n,), or a stack of points,
shape (k, n), and answers in kind: its output for one point, or those
outputs stacked along a leading axis.  Kernels written with x.T[i] and
trailing-axis indexing broadcast natively; a kernel that can only take
one point at a time is extended to stacks with per_point.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

FD_STEP = 1e-6


def fd_derivative(fn: Callable, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences D[..., k] = d fn / d x_k; shape fn's output plus (n,).

    x is one point or a stack of points; the differences run along its
    last axis, so fn must answer a stack in kind.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        cols.append((np.asarray(fn(x + e), dtype=float)
                     - np.asarray(fn(x - e), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def all_finite(a: np.ndarray) -> bool:
    """True when every entry of the float array a is finite.

    One math.isfinite pass over the entries as Python floats: the same
    verdict as np.isfinite(a).all(), with no array arithmetic to overflow
    or warn, and cheaper at the sizes of one point's vectors, kinetic
    matrices and n <= 3 metric derivatives (measured with timeit on a
    2-vCPU x86 machine: 0.8 against 2.8 us at 3 entries, 1.6 against
    2.8 us at 27)."""
    return all(map(math.isfinite, a.ravel().tolist()))


def per_point(kernel: Callable) -> Callable:
    """A one-point kernel extended to stacks, evaluated point by point.

    One point (n,) goes straight to the kernel; a stack (..., n) is
    answered with the kernel's outputs stacked along the same leading axes.
    """

    def stacked(x):
        if x.ndim == 1:
            return kernel(x)
        out = np.array([kernel(p) for p in x.reshape(-1, x.shape[-1])],
                       dtype=float)
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return stacked


class Field:
    """x -> array of shape (...out) with derivative D[..., k] = d value / d x_k.

    Matrix fields (kinetic matrices), ratio rows (m, n), overlap data
    (m, m) and flow directions (k,) are all of this one kind.  Given a
    stack of points (k, n), value answers (k, ...out) and derivative
    (k, ...out, n); the kernels must honour that (see per_point), and
    callers that evaluate stacks check the shape they get back.
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
        """The same value everywhere: its own array at one point, a
        read-only broadcast of it for a stack."""
        value = np.array(value, dtype=float)

        def val(x):
            if x.ndim == 1:
                return value
            return np.broadcast_to(value, x.shape[:-1] + value.shape)

        return cls(val, lambda x: np.zeros(x.shape[:-1] + value.shape
                                           + x.shape[-1:]))


class ScalarField(Field):
    """x -> float; potentials are called as f(x) and f.gradient(x)."""

    def __init__(self, value: Callable, gradient: Callable | None = None):
        super().__init__(value, gradient)

    def __call__(self, x) -> float:
        return float(self.value(x))

    def gradient(self, x) -> np.ndarray:
        return self.derivative(x)


class DissipationField(Field):
    """(x, xdot) -> (n,) velocity-dependent force, a field over z = (x, xdot).

    Called as c(x, v) on the (x, v) kernel itself; value and derivative
    take z.  derivative(x, v), when stated, returns the (n, 2n) block
    [d/dx | d/dxdot]; without it Field differences in z.  jac_x and jac_v
    are the two halves of one derivative evaluation.
    """

    def __init__(self, force: Callable, derivative: Callable | None = None):
        super().__init__(_over_z(force),
                         None if derivative is None else _over_z(derivative))
        self._force = force

    def __call__(self, x, v) -> np.ndarray:
        out = np.asarray(self._force(np.asarray(x, dtype=float),
                                     np.asarray(v, dtype=float)), dtype=float)
        if not all_finite(out):
            raise DomainError("dissipation returned non-finite values")
        return out

    def jac_x(self, x, v) -> np.ndarray:
        return self._jacobians(x, v)[0]

    def jac_v(self, x, v) -> np.ndarray:
        return self._jacobians(x, v)[1]

    def _jacobians(self, x, v) -> list:
        z = np.concatenate((x, v), axis=-1)
        return np.split(self.derivative(z), 2, axis=-1)

    @classmethod
    def zero(cls, n: int):
        z = np.zeros(n)
        zz = np.zeros((n, 2 * n))
        return cls(lambda x, v: z, lambda x, v: zz)

    @classmethod
    def scaled(cls, c: "DissipationField", factor: float):
        """factor times c; each derivative reads c's derivative once."""
        return cls(lambda x, v: factor * c(x, v),
                   lambda x, v: factor * c.derivative(
                       np.concatenate((x, v), axis=-1)))


def _over_z(kernel: Callable) -> Callable:
    """An (x, v) kernel as a kernel of the stacked z = (x, v)."""
    return lambda z: kernel(*np.split(z, 2, axis=-1))
