"""Feedback assembly and closed-loop verification.

Given a plant and a shaped target that satisfy the matching identities,
the actuation that turns one into the other is explicit: each force
group of the plant minus the kinetic-ratio image of the target's group.
This module builds that law, integrates open- and closed-loop motion
with a fixed-step fourth-order scheme, audits the shaped energy against
its dissipation identity, linearizes about rest points, and compares
first-order germs of feedback laws.

The law needs the target's kinetic matrix only through one linear solve
per evaluation (geometry.solve, as the plant's acceleration does), on
the target's summed forces; no inverse is formed on the simulation path.
The plant metric is solved against solely when the plant itself is
integrated, so degenerate plants (singular mass matrix) still admit law
construction, germ work, and target-side simulation.  Each side's
kinetic matrix and force are memoized on the State, so a closed-loop
stage evaluates the plant once for the law and the acceleration together.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (BlowUpError, DomainError, MatchctlError,
                     NotAnEquilibriumError, ScopeError, SingularTargetError)
from .fields import fd_derivative
# christoffel_first is imported by name so perfbench/spans.py can patch it
from .geometry import (MechanicalSystem, State, acceleration,  # noqa: F401
                       christoffel_first, energy, force, kinetic_matrix,
                       solve)
from .matching import matching_residual
from .rk4 import rk4_step
from .targets import TargetSystem

EQUILIBRIUM_TOL = 1e-9
MATCH_CHECK_TOL = 1e-6
MAX_STEPS = 20_000_000


def target_acceleration(target: TargetSystem, s: State) -> np.ndarray:
    return solve(target, s, -force(target, s))


def control_law(sys: MechanicalSystem, target: TargetSystem,
                s: State) -> np.ndarray:
    """Force vector that makes the plant follow the target dynamics.

    The plant's velocity-quadratic, dissipative and potential forces are
    summed, and so are the target's; the law is the plant sum minus the
    image g(x) G(x)^-1 of the target sum, taken with one solve against
    the shaped matrix G.  For a matched pair the unactuated components
    vanish identically; they are returned as computed so callers can
    monitor the defect.

    g, G and both forces are read from the state's memo: each side's
    metric value, metric derivative and potential gradient are evaluated
    once per state, and acceleration at the same state reuses the
    plant's.
    """
    g = kinetic_matrix(sys, s)
    return force(sys, s) - g @ solve(target, s, force(target, s))


def matched_controller(sys: MechanicalSystem,
                       target: TargetSystem) -> Callable[[State], np.ndarray]:
    """State-feedback closure of control_law for use with simulate."""
    def controller(s: State) -> np.ndarray:
        return control_law(sys, target, s)
    return controller


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory record.  states stacks (x, xdot) per row."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    def positions(self) -> np.ndarray:
        return self.states[:, :self.n]

    def velocities(self) -> np.ndarray:
        return self.states[:, self.n:]

    def state_at(self, i: int) -> State:
        return State(self.states[i, :self.n], self.states[i, self.n:])


def _step_count(T: float, dt: float) -> int:
    if not (0 < T < np.inf and 0 < dt < np.inf):
        raise DomainError("T and dt must be positive and finite")
    if T / dt > MAX_STEPS + 0.5:
        raise DomainError(f"{T / dt:.6g} steps exceeds the {MAX_STEPS} "
                          "step budget")
    k = int(round(T / dt))
    if k == 0 or abs(k * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise DomainError(f"T={T} is not an integer multiple of dt={dt}")
    return k


class _NonFiniteStage(Exception):
    """A Runge-Kutta stage of simulate reached non-finite entries."""


def simulate(model: MechanicalSystem | TargetSystem, s0: State, T: float,
             dt: float, controller: Callable[[State], np.ndarray] | None = None,
             blowup: float = 1e6) -> Trajectory:
    """Integrate the model with a fixed-step classical Runge-Kutta scheme.

    A MechanicalSystem runs open loop (controller None means zero force)
    or closed loop with the controller evaluated once per stage.  Each
    node is evaluated once, as the first stage of the step leaving it, so
    the recorded controls are those first-stage values: controls[i] is
    controller(traj.state_at(i)), and k steps call the controller 4k + 1
    times.  Controller and acceleration see one State per stage and share
    its memo, so under matched_controller k steps make 4k + 1 plant
    metric values, metric derivatives and potential gradients, and as
    many of each on the target.  A TargetSystem integrates its own
    dynamics; its recorded controls are zero and passing a controller
    with one is an error.

    A stage costs one State, whose construction is the stage's one
    finiteness check of (x, xdot), the controller, and one solve per side
    against its kinetic matrix (geometry.solve, on Python floats for
    n = 3); the forces contract the metric derivative directly
    (geometry.force).  After each step one reduction, max |z|, decides
    blow-up.

    Raises BlowUpError when any state component leaves [-blowup, blowup]
    or a stage inside a step reaches non-finite entries; the exception
    carries .t and .state for the last good node.  A DomainError raised
    by a field or the controller at a finite stage propagates as is.
    """
    n = s0.n
    k = _step_count(T, dt)
    zero_u = np.zeros(n)

    def state(z):
        try:
            return State(z[:n], z[n:])
        except DomainError:  # shapes are fixed here, so the entries are not finite
            raise _NonFiniteStage from None

    def control(s):
        if controller is None:
            return zero_u
        return np.asarray(controller(s), dtype=float)

    if isinstance(model, TargetSystem):
        if controller is not None:
            raise DomainError("a target system integrates its own dynamics; "
                              "controller must be None")

        def accel(s, u):
            return target_acceleration(model, s)
    elif isinstance(model, MechanicalSystem):
        if model.n != n:
            raise DomainError("initial state dimension does not match the system")

        def accel(s, u):
            return acceleration(model, s, u)
    else:
        raise DomainError(f"cannot simulate a {type(model).__name__}")

    def evaluate(z):
        """Slope at z and the control that produced it."""
        s = state(z)
        u = control(s)
        return np.concatenate((z[n:], accel(s, u))), u

    def rhs(z):
        return evaluate(z)[0]

    times = np.linspace(0.0, k * dt, k + 1)
    states = np.empty((k + 1, 2 * n))
    controls = np.empty((k + 1, n))
    z = np.concatenate((np.asarray(s0.x, dtype=float),
                        np.asarray(s0.xdot, dtype=float)))
    states[0] = z
    for i in range(k):
        k1, controls[i] = evaluate(z)
        try:
            z = rk4_step(rhs, z, dt, k1)
            top = np.abs(z).max()      # NaN when an entry is NaN
            bad = not math.isfinite(top) or top > blowup
        except _NonFiniteStage:
            bad = True
        if bad:
            raise BlowUpError(
                f"state left the +-{blowup:g} box at t={times[i + 1]:g}",
                t=times[i],
                state=State(states[i, :n].copy(), states[i, n:].copy()))
        states[i + 1] = z
    controls[k] = control(state(z))
    return Trajectory(times=times, states=states, controls=controls)


def trajectory_csv(traj: Trajectory, energies, path=None) -> str | None:
    """Serialize a trajectory with 17-significant-digit decimal fields.

    Columns: t, positions, velocities, controls, energy, the last from
    energies, one value per node (LyapunovAudit.energies of the same
    trajectory fits; any other length is a DomainError).  Identical
    inputs produce byte-identical output.  Returns the text when path is
    None, otherwise writes the file.
    """
    if len(energies) != traj.times.shape[0]:
        raise DomainError("trajectory_csv needs one energy per node")
    n = traj.n
    header = (["t"] + [f"x{i}" for i in range(n)] + [f"xd{i}" for i in range(n)]
              + [f"u{i}" for i in range(n)] + ["energy"])
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for i in range(traj.times.shape[0]):
        row = [traj.times[i], *traj.states[i], *traj.controls[i], energies[i]]
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    text = buf.getvalue()
    if path is None:
        return text
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return None


@dataclass(frozen=True)
class LyapunovAudit:
    """Shaped-energy audit along a trajectory.

    defects[i] pairs with interior_times[i] and is the centered time
    derivative of the energy plus the dissipation power; both vanish to
    discretization error when the loop follows the target dynamics.
    """

    times: np.ndarray
    energies: np.ndarray
    powers: np.ndarray
    interior_times: np.ndarray
    defects: np.ndarray

    @property
    def max_defect(self) -> float:
        return float(np.max(np.abs(self.defects)))

    @property
    def monotone_drop(self) -> float:
        """Largest single-step energy increase (0 for non-increasing runs)."""
        return float(max(0.0, np.max(np.diff(self.energies))))


def lyapunov_audit(target: TargetSystem, traj: Trajectory) -> LyapunovAudit:
    k = traj.times.shape[0]
    if k < 3:
        raise DomainError("need at least three nodes to audit")
    dt = traj.times[1] - traj.times[0]
    energies = np.empty(k)
    powers = np.empty(k)
    for i in range(k):
        s = traj.state_at(i)
        energies[i] = energy(target, s)
        powers[i] = float(target.dissipation(s.x, s.xdot) @ s.xdot)
    ddt = (energies[2:] - energies[:-2]) / (2.0 * dt)
    return LyapunovAudit(times=traj.times, energies=energies, powers=powers,
                         interior_times=traj.times[1:-1],
                         defects=ddt + powers[1:-1])


@dataclass(frozen=True)
class Linearization:
    matrix: np.ndarray
    spectrum: np.ndarray      # eigenvalues sorted by real part, descending

    @property
    def stable(self) -> bool:
        return bool(np.all(self.spectrum.real < 0.0))


def _require_matched(sys: MechanicalSystem, target: TargetSystem,
                     x_star: np.ndarray) -> None:
    probes = np.vstack((np.eye(sys.n), np.ones((1, sys.n))))
    worst = max(np.max(np.abs(matching_residual(sys, None, target,
                                                State(x_star, v))))
                for v in probes)
    if worst > MATCH_CHECK_TOL:
        raise MatchctlError(
            "plant and target do not satisfy the matching identities near "
            f"the rest point (defect {worst:.2e}); the closed loop would not "
            "follow the target dynamics")


def linearize_closed_loop(sys: MechanicalSystem, target: TargetSystem,
                          x_star) -> Linearization:
    """First-order model of the controlled plant about a rest point.

    Preconditions: the law produces no force at (x_star, 0), the shaped
    potential is critical there, the shaped dissipation vanishes at zero
    velocity, and the pair satisfies the matching identities.  Under
    those the closed loop coincides with the target dynamics, so the
    derivative is taken through the target field; this stays valid for
    plants whose own mass matrix is degenerate.
    """
    x_star = np.asarray(x_star, dtype=float)
    n = x_star.shape[0]
    rest = State(x_star, np.zeros(n))
    u0 = control_law(sys, target, rest)
    if np.max(np.abs(u0)) > EQUILIBRIUM_TOL:
        raise NotAnEquilibriumError(
            f"law output at rest is {np.max(np.abs(u0)):.2e}, not zero")
    if np.max(np.abs(target.potential.gradient(x_star))) > EQUILIBRIUM_TOL:
        raise NotAnEquilibriumError("shaped potential is not critical at x_star")
    if np.max(np.abs(target.dissipation(x_star, np.zeros(n)))) > EQUILIBRIUM_TOL:
        raise NotAnEquilibriumError(
            "shaped dissipation does not vanish at zero velocity")
    _require_matched(sys, target, x_star)

    def field(z):
        return np.concatenate(
            (z[n:], target_acceleration(target, State(z[:n], z[n:]))))

    mat = fd_derivative(field, np.concatenate((x_star, np.zeros(n))))
    eig = np.linalg.eigvals(mat)
    order = np.argsort(-eig.real, kind="stable")
    return Linearization(matrix=mat, spectrum=eig[order])


def analytic_rest_linearization(target: TargetSystem, x_star) -> Linearization:
    """Block form [[0, I], [-G^-1 H, -G^-1 B]] of the target about rest,
    with H the shaped-potential Hessian and B the velocity Jacobian of
    the shaped dissipation.  Reference for the finite-difference path."""
    x_star = np.asarray(x_star, dtype=float)
    n = x_star.shape[0]
    ginv = target.metric_inv(x_star)
    hess = fd_derivative(target.potential.gradient, x_star)
    hess = 0.5 * (hess + hess.T)
    bmat = target.dissipation.jac_v(x_star, np.zeros(n))
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, n:] = np.eye(n)
    mat[n:, :n] = -ginv @ hess
    mat[n:, n:] = -ginv @ bmat
    eig = np.linalg.eigvals(mat)
    order = np.argsort(-eig.real, kind="stable")
    return Linearization(matrix=mat, spectrum=eig[order])


@dataclass(frozen=True)
class GermReport:
    """First-order comparison of the assembled law against linear gains.

    Gains are (hold force, position gain matrix, velocity gain matrix)
    for u(x, xd) = v + a (x - x_star) + b xd.  Defects are max-abs
    differences between those and the actual law's first-order data.
    """

    value_defect: float
    position_defect: float
    velocity_defect: float
    law_value: np.ndarray
    law_position: np.ndarray
    law_velocity: np.ndarray

    @property
    def max_defect(self) -> float:
        return max(self.value_defect, self.position_defect,
                   self.velocity_defect)


def germ_check(sys: MechanicalSystem, target: TargetSystem, x_star,
               gains) -> GermReport:
    """Compare the matching law's germ at a rest point with linear gains.

    Scope is two-degree-of-freedom systems.  The plant's dissipative
    force and its position Jacobian must vanish at (x_star, 0); without
    that the first-order data mixes in plant drag and the comparison
    identity does not hold.
    """
    if sys.n != 2:
        raise ScopeError("germ comparison is defined for two-degree-of-"
                         f"freedom systems, got n={sys.n}")
    x_star = np.asarray(x_star, dtype=float)
    zero = np.zeros(2)
    if np.max(np.abs(sys.dissipation(x_star, zero))) > EQUILIBRIUM_TOL:
        raise MatchctlError("plant dissipation does not vanish at rest")
    if np.max(np.abs(sys.dissipation.jac_x(x_star, zero))) > EQUILIBRIUM_TOL:
        raise MatchctlError(
            "plant dissipation has a position gradient at rest")
    v_ref, a_ref, b_ref = (np.asarray(g, dtype=float) for g in gains)

    value = control_law(sys, target, State(x_star, zero))
    pos = fd_derivative(lambda y: control_law(sys, target, State(y, zero)),
                        x_star)
    vel = fd_derivative(lambda w: control_law(sys, target, State(x_star, w)),
                        zero)
    return GermReport(
        value_defect=float(np.max(np.abs(value - v_ref))),
        position_defect=float(np.max(np.abs(pos - a_ref))),
        velocity_defect=float(np.max(np.abs(vel - b_ref))),
        law_value=value, law_position=pos, law_velocity=vel)


def linear_gains_from_blocks(sys: MechanicalSystem, x_star,
                             metric0: np.ndarray, potential_hess: np.ndarray,
                             dissipation_lin: np.ndarray):
    """Gains whose linear law has the same germ as the matching law built
    from the given constant target blocks at x_star.

    metric0 is the shaped kinetic matrix at x_star, potential_hess the
    shaped-potential Hessian (critical point assumed), dissipation_lin
    the shaped velocity-gain matrix.  Returns (v, a, b)."""
    x_star = np.asarray(x_star, dtype=float)
    n = x_star.shape[0]
    try:   # w = g metric0^-1, solved as metric0^T w^T = g^T
        w = np.linalg.solve(np.asarray(metric0, dtype=float).T,
                            sys.metric_at(x_star).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularTargetError(
            f"target kinetic matrix metric0 is singular at x={x_star}") from exc
    hess = fd_derivative(sys.potential.gradient, x_star)
    hess = 0.5 * (hess + hess.T)
    v = sys.potential.gradient(x_star)
    a = hess - w @ np.asarray(potential_hess, dtype=float)
    b = (sys.dissipation.jac_v(x_star, np.zeros(n))
         - w @ np.asarray(dissipation_lin, dtype=float))
    return v, a, b
