"""Shaped-system container shared by the matching and synthesis layers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTargetError
from .fields import DissipationField, Field, ScalarField


@dataclass(frozen=True)
class TargetSystem:
    """The dynamics the feedback law makes the plant imitate.

    Mirrors the plant's shape: a kinetic matrix field, a potential, and a
    dissipation term.  The target is not required to be a physical system;
    its kinetic matrix only needs to stay invertible on the working domain.
    """

    metric: Field
    potential: ScalarField
    dissipation: DissipationField
    name: str = ""

    def metric_at(self, x) -> np.ndarray:
        g = self.metric.value(x)
        if not np.isfinite(g).all():
            raise SingularTargetError(
                f"target kinetic matrix has non-finite entries at x={np.asarray(x)}")
        return g

    def metric_inv(self, x) -> np.ndarray:
        g = self.metric_at(x)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SingularTargetError(
                f"target kinetic matrix is singular at x={np.asarray(x)}") from exc
