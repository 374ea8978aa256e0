"""Interest-rate variant: trajectory-dependent discounting of costs.

A rate field m(t, x, u) accumulates along each candidate trajectory; every
quantity is actualized to the terminal time T, i.e. the factor applied at time
tau is exp of the tail integral of m from tau to T along the trajectory itself.
Rate fields and their catalog live in :mod:`laxhopf.costs` (re-exported here)
and are evaluated through the same batch path as the costs.
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
from .moderation import _EXP_CAP, SolverConfig, _solve_cells
from .trajectories import Trajectory, enrichment

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


def accumulate_rate(traj: Trajectory, rate: RateField) -> AccumulationProfile:
    """Node factors D_k = exp(integral of m from t_k to T), midpoint quadrature."""
    mvals = eval_rate_batch(rate, traj.mid_times, traj.mid_states, traj.velocities)
    tails = np.zeros(traj.n_steps + 1)
    tails[:-1] = np.cumsum((traj.dt * mvals)[::-1])[::-1]
    if np.any(tails > _EXP_CAP):
        k = int(np.flatnonzero(tails > _EXP_CAP)[0])
        raise RateOverflowError(
            f"accumulated rate overflows exp at node {k} (t={traj.times[k]})"
        )
    return AccumulationProfile(times=traj.times, factors=np.exp(tails))


def discounted_moderate(cost: CostField, rate: RateField, T: float, x,
                        omega: float, upsilon, cfg: SolverConfig, rng=None):
    """Moderation with the integrand weighted by the trajectory's own accumulation factor."""
    return _solve_cells(cost, rate, T, x, [omega], [upsilon], cfg, [rng])[0]


def discounted_value(terminal: TerminalCost, cost: CostField, rate: RateField,
                     T: float, x, grid: OuterGrid, cfg: SolverConfig) -> ValueResult:
    """Outer minimization of D * c(T - omega, x - omega*upsilon) + omega * Lambda.

    The discount D on the start cost is the accumulation factor at T - omega
    along the cell's own discounted-moderation argmin trajectory.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def discount(traj):
        return float(accumulate_rate(traj, rate).factors[0])

    return _reduce(x, grid, _moderated_cells(terminal, cost, rate, T, x, cfg, discount))


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
