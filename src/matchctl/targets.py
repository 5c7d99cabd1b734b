"""Shaped-system container shared by the matching and synthesis layers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTargetError
from .fields import DissipationField, Field, ScalarField
from .geometry import Model, State, solve


@dataclass(frozen=True)
class TargetSystem(Model):
    """The dynamics the feedback law makes the plant imitate.

    Mirrors the plant's shape: a kinetic matrix field, a potential, and a
    dissipation term.  The target is not required to be a physical system;
    its kinetic matrix only needs to stay invertible on the working domain.
    """

    metric: Field
    potential: ScalarField
    dissipation: DissipationField
    name: str = ""

    metric_error = SingularTargetError
    singular_error = SingularTargetError

    def metric_inv(self, x) -> np.ndarray:
        """The inverse kinetic matrix at x: the solve against the identity."""
        return solve(self, State(x, np.zeros_like(x)), np.eye(np.size(x)))
