"""Dynamic economy: allocations, prices, patrimonial value and impetus costs.

The economic value function is the generalized Lax-Hopf reduction run on the
doubled state (allocations, prices) with the impetus cost as running cost: a
convex scalar cost of the impetus, finite only while every agent's transaction
speed and every price fluctuation stay within their bounds.  The impetus cost
has one form, the batch field of :func:`impetus_cost_field`; the scalar
:func:`impetus_cost` is one row of it.  The field carries closed-form
``partials`` (the impetus is bilinear in state and velocity), so economy
solves take the inner solver's exact adjoint gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .costs import CostField, TerminalCost, eval_cost
from .errors import MisuseError
from .extreal import ExtReal
from .laxhopf_core import OuterGrid, ValueResult, generalized_lax_hopf, optimum_certificate
from .moderation import SolverConfig

__all__ = [
    "EconomyState",
    "ImpetusCostSpec",
    "patrimonial_value",
    "impetus",
    "impact_of_price_fluctuation",
    "impetus_cost",
    "impetus_cost_field",
    "pack_economy",
    "unpack_economy",
    "economic_value",
    "economy_enrichment_certificate",
]

_SLOPE_STEP = 1e-6  # relative central-difference step for the scalar cost's slope


@dataclass(frozen=True)
class EconomyState:
    """Allocations and prices for n agents over an l-dimensional commodity space."""

    allocations: np.ndarray   # (n, l)
    prices: np.ndarray        # (n, l)

    def __post_init__(self):
        a = np.asarray(self.allocations, dtype=float)
        p = np.asarray(self.prices, dtype=float)
        if a.ndim != 2 or p.shape != a.shape:
            raise MisuseError(
                f"allocations {a.shape} and prices {p.shape} must share (n_agents, dim)"
            )
        object.__setattr__(self, "allocations", a)
        object.__setattr__(self, "prices", p)

    @property
    def n_agents(self) -> int:
        return self.allocations.shape[0]

    @property
    def dim(self) -> int:
        return self.allocations.shape[1]


def patrimonial_value(state: EconomyState) -> float:
    """Total value of the agents' allocations at current prices."""
    return float(np.sum(state.prices * state.allocations))


def impetus(state: EconomyState, x_dot, p_dot) -> float:
    """Time derivative of the patrimonial value along an evolution:
    sum_i (<p_i, x_i'> + <p_i', x_i>)."""
    x_dot = np.asarray(x_dot, dtype=float)
    p_dot = np.asarray(p_dot, dtype=float)
    if x_dot.shape != state.allocations.shape or p_dot.shape != state.prices.shape:
        raise MisuseError("velocity shapes must match the economy state")
    return float(np.sum(state.prices * x_dot) + np.sum(p_dot * state.allocations))


def impact_of_price_fluctuation(p_prime, x) -> float:
    """Inner product <p', x> of a price fluctuation with a commodity."""
    p_prime = np.atleast_1d(np.asarray(p_prime, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if p_prime.shape != x.shape:
        raise MisuseError(f"shape mismatch {p_prime.shape} vs {x.shape}")
    return float(p_prime @ x)


def _bounds_at(bound: Union[float, Callable], t: np.ndarray) -> np.ndarray:
    """The bound at every time of t (m,); a callable is called once per distinct time."""
    if not callable(bound):
        return np.full(len(t), float(bound))
    times, back = np.unique(t, return_inverse=True)
    return np.array([float(bound(float(tv))) for tv in times])[back]


@dataclass(frozen=True)
class ImpetusCostSpec:
    """Convex scalar cost of the impetus plus speed bounds on prices and transactions."""

    scalar_cost: Callable[[float], float]
    gamma_price: Union[float, Callable]            # bound on each price fluctuation norm
    gamma_agents: tuple                            # per-agent bounds on transaction norms
    shared_prices: bool = False                    # all agents quote one common price


def impetus_cost(spec: ImpetusCostSpec, t: float, state: EconomyState,
                 x_dot, p_dot) -> ExtReal:
    """scalar_cost(impetus) while every velocity-norm bound holds at t, else +infinity.

    One row of :func:`impetus_cost_field` at the packed state and velocities.
    """
    x_dot = np.asarray(x_dot, dtype=float)
    p_dot = np.asarray(p_dot, dtype=float)
    if x_dot.shape != state.allocations.shape or p_dot.shape != state.prices.shape:
        raise MisuseError("velocity shapes must match the economy state")
    field = impetus_cost_field(spec, state.n_agents, state.dim)
    return eval_cost(field, t, pack_economy(state.allocations, state.prices),
                     pack_economy(x_dot, p_dot))


def pack_economy(allocations, prices) -> np.ndarray:
    """Flatten (allocations, prices) into the doubled-state vector."""
    a = np.asarray(allocations, dtype=float)
    p = np.asarray(prices, dtype=float)
    return np.concatenate([a.ravel(), p.ravel()])


def unpack_economy(z: np.ndarray, n_agents: int, dim: int) -> EconomyState:
    z = np.asarray(z, dtype=float)
    half = n_agents * dim
    return EconomyState(
        allocations=z[:half].reshape(n_agents, dim),
        prices=z[half:].reshape(n_agents, dim),
    )


def impetus_cost_field(spec: ImpetusCostSpec, n_agents: int, dim: int) -> CostField:
    """Impetus cost as a CostField over the packed (allocations, prices) state.

    ``spec.scalar_cost`` is applied once per row; the speed bounds are checked
    here and nowhere else, as array operations (a constant bound becomes an
    array once, here).  The field's ``partials`` are closed-form in the
    impetus e: with l = s(e), dl/d(x, p) = s'(e) (p', x') and
    dl/d(x', p') = s'(e) (p, x), where s' is the central difference of
    ``spec.scalar_cost`` at e (two scalar calls per row), so the inner solver
    takes its exact adjoint gradient.
    """
    if len(spec.gamma_agents) != n_agents:
        raise MisuseError("one transaction bound per agent is required")
    half = n_agents * dim
    # a constant bound plus its 1e-12 slack becomes an array once; a callable one is
    # priced per batch at the distinct times of its rows
    agent_slack = None if any(callable(g) for g in spec.gamma_agents) else \
        np.array([float(g) for g in spec.gamma_agents]) + 1e-12
    price_slack = None if callable(spec.gamma_price) else float(spec.gamma_price) + 1e-12

    def split(Z, Zd):
        """Velocity blocks Xd, Pd (m, n_agents, dim) of the rows and their impetus e (m,)."""
        m = len(Z)
        X, P, Xd, Pd = (A.reshape(m, n_agents, dim)
                        for A in (Z[:, :half], Z[:, half:], Zd[:, :half], Zd[:, half:]))
        return Xd, Pd, np.sum(P * Xd, axis=(1, 2)) + np.sum(Pd * X, axis=(1, 2))

    def scalar_rows(e):
        return np.array([float(spec.scalar_cost(v)) for v in e])

    def norms(V):  # np.linalg.norm(V, axis=2) without its Python overhead
        return np.sqrt(np.add.reduce(V * V, axis=2))

    def batch(t, Z, Zd):
        Xd, Pd, e = split(Z, Zd)
        vals = scalar_rows(e)
        xa_slack, p_slack = agent_slack, price_slack
        if xa_slack is None or p_slack is None:
            t = np.broadcast_to(np.asarray(t, dtype=float), (len(Z),))
            if xa_slack is None:
                xa_slack = np.stack([_bounds_at(g, t) for g in spec.gamma_agents], axis=1) + 1e-12
            if p_slack is None:
                p_slack = (_bounds_at(spec.gamma_price, t) + 1e-12)[:, None]
        bad = np.any(norms(Xd) > xa_slack, axis=1)
        bad |= np.any(norms(Pd[:, :1] if spec.shared_prices else Pd) > p_slack, axis=1)
        return np.where(bad, np.inf, vals)

    def partials(t, Z, Zd):
        e = split(Z, Zd)[2]
        h = _SLOPE_STEP * np.maximum(1.0, np.abs(e))
        slope = ((scalar_rows(e + h) - scalar_rows(e - h)) / (2.0 * h))[:, None]

        def swap(A):  # (a, b) -> (b, a) in packed order
            return np.concatenate([A[:, half:], A[:, :half]], axis=1)

        return slope * swap(Zd), slope * swap(Z)

    return CostField(velocity_only=False, declared_convex_in_u=False, batch_evaluator=batch,
                     partials=partials)


def economic_value(terminal: TerminalCost, spec: ImpetusCostSpec, T: float,
                   allocations, prices, grid: OuterGrid, cfg: SolverConfig) -> ValueResult:
    """Economic value function on the doubled state via the generalized reduction.

    ``terminal`` is a cost over (t, packed state); the grid's upsilon lattice
    spans both the transaction and the price-fluctuation directions.
    """
    a = np.asarray(allocations, dtype=float)
    if a.ndim != 2:
        raise MisuseError("allocations must have shape (n_agents, dim)")
    n_agents, dim = a.shape
    z = pack_economy(a, prices)
    cost = impetus_cost_field(spec, n_agents, dim)
    if grid.normalized().upsilon_lattice.shape[1] != len(z):
        raise MisuseError(
            f"upsilon lattice dimension must be {len(z)} (doubled state), "
            f"got {grid.normalized().upsilon_lattice.shape[1]}"
        )
    return generalized_lax_hopf(terminal, cost, T, z, grid, cfg)


def economy_enrichment_certificate(result: ValueResult, terminal: TerminalCost) -> Optional[float]:
    """|(W(T) - W(T - omega*)) / omega* - Lambda*| at the optimal evolution."""
    if result.omega_star is None or result.omega_star == 0:
        return None
    if result.moderation_lambda is None:
        raise MisuseError("certificate needs the moderated impetus value")
    return optimum_certificate(result, terminal, result.moderation_lambda)
