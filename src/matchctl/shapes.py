"""Small catalog of smooth scalar shapes with exact derivatives.

Fixtures and the CLI config select free functions (kinetic-block entries,
potential wells, damping gains) from this closed family instead of parsing
arbitrary expressions.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError


class Profile:
    """Scalar function on R^d with gradient and Hessian."""

    def __init__(self, value: Callable, gradient: Callable, hessian: Callable,
                 dim: int):
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self.dim = dim

    def __call__(self, y) -> float:
        return float(self._value(np.asarray(y, dtype=float)))

    def gradient(self, y) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(y, dtype=float)), dtype=float)

    def hessian(self, y) -> np.ndarray:
        return np.asarray(self._hessian(np.asarray(y, dtype=float)), dtype=float)


def constant_profile(c: float, dim: int = 2) -> Profile:
    c = float(c)
    return Profile(lambda y: c, lambda y: np.zeros(dim),
                   lambda y: np.zeros((dim, dim)), dim)


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
    return Profile(lambda y: y @ Q @ y + b @ y + c,
                   lambda y: 2.0 * (Q @ y) + b,
                   lambda y: 2.0 * Q, d)


def cosine_profile(amplitude: float, freq, phase: float = 0.0,
                   offset: float = 0.0) -> Profile:
    """amplitude * cos(freq . y + phase) + offset."""
    k = np.atleast_1d(np.asarray(freq, dtype=float))
    amp, ph, c = float(amplitude), float(phase), float(offset)

    def val(y):
        return amp * np.cos(k @ y + ph) + c

    def grad(y):
        return -amp * np.sin(k @ y + ph) * k

    def hess(y):
        return -amp * np.cos(k @ y + ph) * np.outer(k, k)

    return Profile(val, grad, hess, k.size)


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
