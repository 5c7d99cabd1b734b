"""matchctl: matching-based controller assembly for underactuated systems.

Verify candidate shaped systems, assemble the pointwise compatibility
system for the kinetic ratio field, integrate the shaping data along its
characteristics, and synthesize the feedback law that makes the plant
track the shaped dynamics.
"""

from .characteristics import (CharacteristicGrid, complete_metric_rows,
                              flow_map, row_identity_check,
                              transport_target_data)
from .errors import MatchctlError
from .fields import DissipationField, Field, ScalarField
from .geometry import Box, MechanicalSystem, State
from .matching import (CompatibilitySystem, assemble_compatibility,
                       matching_residual, scaling_solution,
                       transport_residual)
from .synthesis import (Linearization, Trajectory, control_law,
                        linearize_closed_loop, lyapunov_audit,
                        matched_controller, simulate, trajectory_csv)
from .targets import TargetSystem

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CharacteristicGrid",
    "CompatibilitySystem",
    "DissipationField",
    "Field",
    "Linearization",
    "MatchctlError",
    "MechanicalSystem",
    "ScalarField",
    "State",
    "TargetSystem",
    "Trajectory",
    "assemble_compatibility",
    "complete_metric_rows",
    "control_law",
    "flow_map",
    "linearize_closed_loop",
    "lyapunov_audit",
    "matched_controller",
    "matching_residual",
    "row_identity_check",
    "scaling_solution",
    "simulate",
    "trajectory_csv",
    "transport_residual",
    "transport_target_data",
    "__version__",
]
