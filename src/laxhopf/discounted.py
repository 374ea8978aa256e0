"""Interest-rate variant: trajectory-dependent discounting of costs.

A rate field m(t, x, u) accumulates along each candidate trajectory; every
quantity is actualized to the terminal time T, i.e. the factor applied at time
tau is exp of the tail integral of m from tau to T along the trajectory itself.
Rate fields and their catalog live in :mod:`laxhopf.costs` (re-exported here)
and are evaluated through the same batch path as the costs; the discounts of
all cells one pricing call solves come from one rate batch over the velocity
array the inner solve returns, of which :func:`accumulate_rate` is one row.
With m identically zero every operation here reproduces its undiscounted
counterpart bit for bit under the same solver configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostField, RateField, TerminalCost, eval_rate_batch, eval_terminal, make_rate
from .errors import MisuseError, RateOverflowError
from .laxhopf_core import OuterGrid, ValueResult, _moderated_cells, _reduce
from .moderation import _EXP_CAP, SolverConfig, _cell_result, _solve_cells
from .trajectories import Trajectory, _node_states, enrichment

__all__ = [
    "RateField",
    "AccumulationProfile",
    "make_rate",
    "accumulate_rate",
    "discounted_moderate",
    "discounted_value",
    "actualized_enrichment_certificate",
]


@dataclass(frozen=True)
class AccumulationProfile:
    """Per-node factors exp(tail integral of m) along a trajectory; 1 at the terminal node."""

    times: np.ndarray
    factors: np.ndarray


def _accumulation_factors(T: float, x, omegas, V: np.ndarray, rate: RateField) -> np.ndarray:
    """Node factors (B, N+1) of the paths with velocities V (B, N, l) on the windows
    [T - omegas[b], T] that end at x, from one rate batch; every operation runs
    along a row in order, so row b is :func:`accumulate_rate` of that path bit for bit."""
    (B, n, ell), start = V.shape, T - np.asarray(omegas, dtype=float)             # (B,)
    dt = (np.asarray(omegas, dtype=float) / n)[:, None]                           # (B, 1)
    s = _node_states(np.broadcast_to(x, (B, ell)), V, dt[:, :, None])
    t = start[:, None] + dt * (np.arange(n) + 0.5)
    m = eval_rate_batch(rate, t.ravel(), (0.5 * (s[:, :-1] + s[:, 1:])).reshape(-1, ell), V.reshape(-1, ell))
    tails = np.zeros(s.shape[:2])
    tails[:, :-1] = np.cumsum((dt * m.reshape(t.shape))[:, ::-1], axis=1)[:, ::-1]
    if np.any(tails > _EXP_CAP):
        b, k = np.argwhere(tails > _EXP_CAP)[0]
        raise RateOverflowError(f"accumulated rate overflows exp at node {k} (t={start[b] + dt[b, 0] * k})")
    return np.exp(tails)


def accumulate_rate(traj: Trajectory, rate: RateField) -> AccumulationProfile:
    """Node factors D_k = exp(integral of m from t_k to T), midpoint quadrature."""
    return AccumulationProfile(times=traj.times, factors=_accumulation_factors(
        traj.window.T, traj.terminal_state, [traj.window.omega], traj.velocities[None], rate)[0])


def discounted_moderate(cost: CostField, rate: RateField, T: float, x,
                        omega: float, upsilon, cfg: SolverConfig, rng=None):
    """Moderation with the integrand weighted by the trajectory's own accumulation factor."""
    lam, V = _solve_cells(cost, rate, T, x, [omega], [upsilon], cfg, lambda c: rng)
    return _cell_result(lam[0], V[0], T, x, omega)


def discounted_value(terminal: TerminalCost, cost: CostField, rate: RateField,
                     T: float, x, grid: OuterGrid, cfg: SolverConfig) -> ValueResult:
    """Outer minimization of D * c(T - omega, x - omega*upsilon) + omega * Lambda.

    The discount D on the start cost is the accumulation factor at T - omega
    along the cell's own discounted-moderation argmin trajectory; the factors of
    all cells solved in one pricing call come from one rate batch.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _reduce(T, x, grid, _moderated_cells(terminal, cost, rate, T, x, cfg, _accumulation_factors))


def actualized_enrichment_certificate(result: ValueResult, terminal: TerminalCost,
                                      rate: RateField) -> Optional[float]:
    """|Lambda* - (V - D(T - omega*) c(T - omega*, start)) / omega*|; None at omega* = 0."""
    if result.omega_star is None or result.omega_star == 0:
        return None
    if result.trajectory is None or result.moderation_lambda is None:
        raise MisuseError("certificate needs the optimal trajectory and moderation value")
    c_start = eval_terminal(terminal, result.trajectory.window.start, result.start_state)
    if not (c_start.is_finite and result.value.is_finite and result.moderation_lambda.is_finite):
        raise MisuseError("certificate needs finite value, start cost and moderation")
    d0 = float(accumulate_rate(result.trajectory, rate).factors[0])
    return abs(
        enrichment(d0 * c_start.value, result.value.value, result.omega_star)
        - result.moderation_lambda.value
    )
