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


def rk4_step(f: Callable, z: np.ndarray, h: float,
             k1: np.ndarray | None = None) -> np.ndarray:
    """One step of size h for dz/dt = f(z).

    k1, when given, is f(z) already evaluated by the caller; the step then
    makes three evaluations instead of four.
    """
    if k1 is None:
        k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
