"""Temporal windows, terminal-anchored trajectories and enrichment ratios.

Trajectories live on the window [T - omega, T] and are anchored at the
prescribed terminal state: states are reconstructed backward from x(T), so the
terminal condition holds exactly and the unprescribed quantity is the start
state.  Velocities are piecewise constant on a uniform grid, which makes the
displacement constraint linear and lets the DP oracle work on the same class.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .costs import CostField, _dims, _finite, _number, _rows, eval_cost_batch
from .errors import DegenerateWindowError, MisuseError
from .extreal import INF, ExtReal

__all__ = [
    "Window",
    "Trajectory",
    "AdmissibleSpec",
    "InterestRates",
    "build_trajectory",
    "average_transaction",
    "cumulated_cost",
    "enrichment",
    "interest_rates",
    "refine_trajectory",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class Window:
    """The temporal window [T - omega, T]; zero aperture denotes an instant."""

    T: float
    omega: float

    def __post_init__(self):
        _number(T=self.T)
        _number(0, omega=self.omega)

    @property
    def start(self) -> float:
        return self.T - self.omega


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid evolution stored terminal-anchored (built backward from x(T))."""

    window: Window
    terminal_state: np.ndarray   # (l,)
    velocities: np.ndarray       # (N, l), constant on each subinterval

    @property
    def n_steps(self) -> int:
        return len(self.velocities)

    @property
    def dim(self) -> int:
        return len(self.terminal_state)

    @property
    def dt(self) -> float:
        return self.window.omega / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.window.start + self.dt * np.arange(self.n_steps + 1)

    @property
    def states(self) -> np.ndarray:
        """Node states (N+1, l): x_k = x_{k+1} - u_k * dt, backward from x(T)."""
        return _node_states(self.terminal_state, self.velocities, self.dt)

    def start_state(self) -> np.ndarray:
        return self.terminal_state - self.dt * self.velocities.sum(axis=0)

    @property
    def mid_times(self) -> np.ndarray:
        return self.window.start + self.dt * (np.arange(self.n_steps) + 0.5)

    @property
    def mid_states(self) -> np.ndarray:
        s = self.states
        return 0.5 * (s[:-1] + s[1:])


def _node_states(ends, V, dt):
    """Node states (..., N+1, l) of velocities V (..., N, l) with steps dt, backward
    from x(T) = ends (..., l); a stack of trajectories is priced row by row."""
    tail = np.cumsum(V[..., ::-1, :], axis=-2)[..., ::-1, :] * dt
    return np.concatenate([ends[..., None, :] - tail, ends[..., None, :]], axis=-2)


def build_trajectory(window: Window, terminal_state, velocities) -> Trajectory:
    terminal_state, velocities = np.atleast_1d(np.asarray(terminal_state, dtype=float)), _rows(velocities)
    if len(velocities) == 0:
        raise MisuseError("a trajectory needs at least one velocity step")
    _finite(terminal_state=terminal_state, velocities=velocities)
    _dims(len(terminal_state), "terminal_state", velocities=velocities)
    if window.omega == 0:
        raise DegenerateWindowError("zero-aperture window cannot carry velocity steps")
    return Trajectory(window=window, terminal_state=terminal_state, velocities=velocities)


def _bounds_at(bound: Union[float, Callable], t):
    """The speed bound at the times t: a float for a numeric bound; for a callable,
    an array of t's shape, the bound called once per distinct time."""
    if not callable(bound):
        return float(bound)
    times, back = np.unique(np.ravel(t), return_inverse=True)
    return np.array([float(bound(float(tv))) for tv in times])[back].reshape(np.shape(t))


def _too_fast(V: np.ndarray, limit) -> np.ndarray:
    """The one speed wall: True where the norm of V's last axis is past ``limit`` plus
    1e-12; ``limit`` broadcasts over V's leading axes."""
    return np.sqrt(np.add.reduce(V * V, axis=-1)) > limit + 1e-12


@dataclass(frozen=True)
class AdmissibleSpec:
    """Velocity-norm bound, a number or a callable of time."""

    velocity_bound: Union[float, Callable[[float], float]]

    def __post_init__(self):   # a number is finite and >= 0; a callable is read per time
        if not callable(self.velocity_bound):
            _number(0, velocity_bound=self.velocity_bound)

    def is_admissible(self, traj: Trajectory) -> bool:
        return not np.any(_too_fast(traj.velocities, _bounds_at(self.velocity_bound, traj.mid_times)))


def average_transaction(traj: Trajectory) -> np.ndarray:
    """(x(T) - x(T - omega)) / omega, the mean velocity over the window."""
    if traj.window.omega == 0:
        raise DegenerateWindowError("average transaction undefined on a zero aperture")
    return (traj.terminal_state - traj.start_state()) / traj.window.omega


def cumulated_cost(traj: Trajectory, cost: CostField) -> ExtReal:
    """Midpoint quadrature of the running cost l(t, x(t), x'(t)) over the window."""
    vals = eval_cost_batch(cost, traj.mid_times, traj.mid_states, traj.velocities)
    if np.isinf(vals).any():   # not dt * inf: a zero-aperture window has dt = 0
        return INF
    return ExtReal(traj.dt * float(vals.sum()))


def enrichment(v_start: float, v_end: float, omega: float) -> float:
    """Profit-to-duration ratio (V(T) - V(T - omega)) / omega."""
    _number(v_start=v_start, v_end=v_end)
    _number(0, above=True, omega=omega)
    return (v_end - v_start) / omega


class InterestRates(NamedTuple):
    forward: Optional[float]
    backward: Optional[float]
    symmetric: Optional[float]


def interest_rates(v_start: float, v_end: float, omega: float) -> InterestRates:
    """Forward, backward and symmetric interest rates of the window's profit.

    A rate whose denominator is zero (or, for the symmetric rate, whose
    geometric mean is undefined) is reported as None, not a global failure.
    """
    _number(v_start=v_start, v_end=v_end)
    _number(0, above=True, omega=omega)
    profit = v_end - v_start
    forward = profit / (omega * v_start) if v_start != 0 else None
    backward = profit / (omega * v_end) if v_end != 0 else None
    symmetric = (
        profit / (omega * math.sqrt(v_start * v_end)) if v_start * v_end > 0 else None
    )
    return InterestRates(forward, backward, symmetric)


def refine_trajectory(traj: Trajectory) -> Trajectory:
    """Double N by splitting each velocity step into two equal halves."""
    return Trajectory(
        window=traj.window,
        terminal_state=traj.terminal_state,
        velocities=np.repeat(traj.velocities, 2, axis=0),
    )


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` with \\r\\n line ends: a number as repr(float(v)),
    so +infinity is "inf"; None as an empty cell; an int (an exit code) as itself."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([["" if v is None else v if type(v) is int else repr(float(v)) for v in row]
                          for row in rows])


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write t, x_1..x_l, u_1..u_l rows; velocities left-aligned with step start,
    so the last row's are empty."""
    ell = traj.dim
    _write_csv(path, ["t"] + [f"x_{h + 1}" for h in range(ell)] + [f"u_{h + 1}" for h in range(ell)],
               [[t, *x, *u] for t, x, u in zip(traj.times.tolist(), traj.states.tolist(),
                                               traj.velocities.tolist() + [[None] * ell])])
