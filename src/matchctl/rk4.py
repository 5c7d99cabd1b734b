"""The classical fourth-order Runge-Kutta step and its fixed-span driver.

Every integrator in the package (plant and target simulation, the ratio
flow, the transported payload, the seed-plane search) advances a flat
state vector with rk4_step.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

# a span within this fraction of a whole number of steps takes that number
SPAN_ROUNDOFF = 1e-12
# a 1-d state of at most this many entries is stepped on Python floats
SMALL_STATE = 4


def rk4_step(f: Callable, z: np.ndarray, h: float,
             k1: np.ndarray | None = None) -> np.ndarray:
    """One step of size h for dz/dt = f(z).

    k1, when given, is f(z) already evaluated by the caller; the step then
    makes three evaluations instead of four.  f takes and returns float64
    arrays of z's shape.

    A 1-d z of at most SMALL_STATE entries (a configuration of the ratio
    flow, the state of a 2-dof plant) is stepped on Python floats: the same operations in the same
    order as the array formula below, so the result is bitwise equal to
    it, since numpy's elementwise float64 arithmetic is the same IEEE
    arithmetic.  Measured with timeit on a 2-vCPU x86 machine with a
    slope that returns its argument, the float step took about 5.3
    against 6.5 us at 3 entries and 5.8 against 6.7 us at 4, was no
    faster at 5, and slower from 6 entries on (simulate's states of a
    3-dof plant).  Larger and stacked z take the array formula.
    """
    if z.ndim == 1 and z.shape[0] <= SMALL_STATE:
        return _rk4_step_floats(f, z, h, k1)
    if k1 is None:
        k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_floats(f: Callable, z: np.ndarray, h: float,
                     k1: np.ndarray | None) -> np.ndarray:
    """rk4_step's array formula entry by entry on Python floats."""
    zs = z.tolist()
    s1 = (f(z) if k1 is None else k1).tolist()
    half = 0.5 * h
    s2 = f(np.array([a + half * b for a, b in zip(zs, s1)])).tolist()
    s3 = f(np.array([a + half * b for a, b in zip(zs, s2)])).tolist()
    s4 = f(np.array([a + h * b for a, b in zip(zs, s3)])).tolist()
    w = h / 6.0
    return np.array([a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(zs, s1, s2, s3, s4)])


def rk4_span(f: Callable, z: np.ndarray, span: float, dt: float) -> np.ndarray:
    """Advance z by time `span` (either sign) in steps of at most dt > 0.

    The last step is shortened so the run lands on span.  A remainder at
    roundoff relative to the step count is not stepped.
    """
    steps = math.ceil(abs(span) / dt * (1.0 - SPAN_ROUNDOFF))
    sgn = 1.0 if span >= 0.0 else -1.0
    remaining = float(span)
    for _ in range(steps):
        h = sgn * min(dt, abs(remaining))
        z = rk4_step(f, z, h)
        remaining -= h
    return z
