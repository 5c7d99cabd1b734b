"""Small catalog of smooth scalar shapes with exact derivatives.

Fixtures, ratio families and the CLI config take their free functions
(kinetic-block entries, potential wells, damping gains, overlap data) as
profiles, and the config selects them from this closed family instead of
parsing arbitrary expressions.

Each kind states its value and gradient once, as a jet on Python floats:
jet(y) takes a point as a tuple of d floats and returns (value, gradient),
the gradient a tuple of d floats.  Per-point kernels such as the pendulum
target read the jet directly; __call__ and gradient wrap it for array
points.  The Hessian is a separate array kernel.
"""
from __future__ import annotations

import math
from operator import mul
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError


class Profile:
    """Scalar function on R^d: a float jet and an array Hessian.

    jet(y) -> (value, gradient) on a tuple y of d Python floats; it trusts
    the length of y (a short tuple would be read as a shorter point), so a
    caller that builds y itself checks dim once up front.  __call__ and
    gradient take any array-like point, check that it has d entries and
    read the jet; hessian(y) checks its point the same way and returns the
    (d, d) array of second derivatives.
    """

    def __init__(self, jet: Callable, hessian: Callable, dim: int):
        self.jet = jet
        self._hessian = hessian
        self.dim = dim

    def _point(self, y) -> tuple:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DomainError(f"profile on R^{self.dim} evaluated at a point "
                              f"of shape {y.shape}")
        return tuple(y.tolist())

    def __call__(self, y) -> float:
        return self.jet(self._point(y))[0]

    def gradient(self, y) -> np.ndarray:
        return np.array(self.jet(self._point(y))[1])

    def hessian(self, y) -> np.ndarray:
        return np.asarray(self._hessian(np.array(self._point(y))), dtype=float)

    def require_dim(self, dim: int, what: str) -> "Profile":
        """This profile, or DomainError unless it lives on R^dim."""
        if self.dim != dim:
            raise DomainError(f"{what} must be a profile on R^{dim}, "
                              f"got one on R^{self.dim}")
        return self


def constant_profile(c: float, dim: int = 2) -> Profile:
    c = float(c)
    zeros = (0.0,) * dim
    return Profile(lambda y: (c, zeros), lambda y: np.zeros((dim, dim)), dim)


def quadratic_profile(quad, lin=None, offset: float = 0.0) -> Profile:
    """y^T Q y + lin . y + offset with symmetric Q; Hessian is 2Q."""
    Q = np.atleast_2d(np.asarray(quad, dtype=float))
    d = Q.shape[0]
    if Q.shape != (d, d) or np.max(np.abs(Q - Q.T)) > 0:
        raise ConfigError("quadratic profile needs a symmetric coefficient matrix")
    b = np.zeros(d) if lin is None else np.asarray(lin, dtype=float)
    if b.shape != (d,):
        raise ConfigError(f"quadratic profile needs {d} linear coefficients")
    c = float(offset)

    if d == 2:
        # unrolled: the shipped wells are planar, and the loop form below
        # costs several times as much per point
        (q00, q01), (_, q11) = Q.tolist()
        b0, b1 = b.tolist()

        def jet(y):
            y0, y1 = y
            h0 = q00 * y0 + q01 * y1
            h1 = q01 * y0 + q11 * y1
            return (y0 * h0 + y1 * h1 + (b0 * y0 + b1 * y1) + c,
                    (2.0 * h0 + b0, 2.0 * h1 + b1))
    else:
        rows, bs = Q.tolist(), b.tolist()

        def jet(y):
            h = [sum(map(mul, row, y)) for row in rows]       # Q y
            return (sum(map(mul, y, h)) + sum(map(mul, bs, y)) + c,
                    tuple(2.0 * hi + bi for hi, bi in zip(h, bs)))

    return Profile(jet, lambda y: 2.0 * Q, d)


def cosine_profile(amplitude: float, freq, phase: float = 0.0,
                   offset: float = 0.0) -> Profile:
    """amplitude * cos(freq . y + phase) + offset."""
    k = np.asarray(freq, dtype=float).ravel()
    ks = k.tolist()
    amp, ph, c = float(amplitude), float(phase), float(offset)

    def jet(y):
        arg = sum(map(mul, ks, y)) + ph
        slope = -amp * math.sin(arg)
        return amp * math.cos(arg) + c, tuple(slope * ki for ki in ks)

    def hess(y):
        return -amp * np.cos(k @ y + ph) * np.outer(k, k)

    return Profile(jet, hess, k.size)


_BUILDERS = {
    "constant": lambda spec, dim: constant_profile(spec["c"], dim),
    "quadratic": lambda spec, dim: quadratic_profile(
        spec["quad"], spec.get("lin"), spec.get("offset", 0.0)),
    "cosine": lambda spec, dim: cosine_profile(
        spec["amplitude"], spec["freq"], spec.get("phase", 0.0),
        spec.get("offset", 0.0)),
}


def profile_from_spec(spec: dict, dim: int) -> Profile:
    """Build a catalog profile from a config mapping {kind: ..., params},
    every parameter a finite number or a list of finite numbers."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("profile spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    if kind not in _BUILDERS:
        raise ConfigError(f"unknown profile kind '{kind}' "
                          f"(available: {sorted(_BUILDERS)})")
    try:
        for key, v in spec.items():
            arr = np.asarray(v)
            if key != "kind" and (arr.dtype.kind not in "iuf"
                                  or not np.isfinite(arr).all()):
                raise ConfigError(f"parameter '{key}' must be a finite "
                                  "number or a list of them")
        p = _BUILDERS[kind](spec, dim)
    except KeyError as exc:
        raise ConfigError(f"profile kind '{kind}' missing parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"profile kind '{kind}' has a malformed "
                          f"parameter: {exc}") from exc
    if p.dim != dim:
        raise ConfigError(f"profile has dimension {p.dim}, expected {dim}")
    return p
