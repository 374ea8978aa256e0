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

from .costs import CostField, TerminalCost, _as_vec, _dims, _finite, _number, eval_cost
from .errors import MisuseError
from .extreal import ExtReal
from .laxhopf_core import OuterGrid, ValueResult, generalized_lax_hopf, optimum_certificate
from .moderation import SolverConfig
from .trajectories import _bounds_at, _too_fast

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
            raise MisuseError(f"allocations {a.shape} and prices {p.shape} must share (n_agents, dim)")
        _finite(allocations=a, prices=p)
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


def _velocities(state: EconomyState, x_dot, p_dot):
    """``x_dot`` and ``p_dot`` as finite float arrays of the state's shape."""
    x_dot, p_dot = np.asarray(x_dot, dtype=float), np.asarray(p_dot, dtype=float)
    _finite(x_dot=x_dot, p_dot=p_dot)
    if not (shape := state.allocations.shape) == x_dot.shape == p_dot.shape:
        raise MisuseError(f"x_dot {x_dot.shape} and p_dot {p_dot.shape} must match the state's {shape}")
    return x_dot, p_dot


def impetus(state: EconomyState, x_dot, p_dot) -> float:
    """Time derivative of the patrimonial value along an evolution:
    sum_i (<p_i, x_i'> + <p_i', x_i>)."""
    x_dot, p_dot = _velocities(state, x_dot, p_dot)
    return float(np.sum(state.prices * x_dot) + np.sum(p_dot * state.allocations))


def impact_of_price_fluctuation(p_prime, x) -> float:
    """Inner product <p', x> of a price fluctuation with a commodity."""
    p_prime, x = _as_vec(p_prime), _as_vec(x)
    _finite(p_prime=p_prime, x=x)
    _dims(len(x), p_prime=p_prime)
    return float(p_prime @ x)


@dataclass(frozen=True)
class ImpetusCostSpec:
    """Convex scalar cost of the impetus plus speed bounds on prices and transactions."""

    scalar_cost: Callable[[float], float]
    gamma_price: Union[float, Callable]            # bound on each price fluctuation norm
    gamma_agents: tuple                            # per-agent bounds on transaction norms
    shared_prices: bool = False   # bounds only the first agent's prices; nothing ties the others' to them

    def __post_init__(self):   # as in AdmissibleSpec, a numeric bound is finite and >= 0
        for name, b in [("gamma_price", self.gamma_price), *(("gamma_agents", g) for g in self.gamma_agents)]:
            _number(0, **{} if callable(b) else {name: b})


def impetus_cost(spec: ImpetusCostSpec, t: float, state: EconomyState,
                 x_dot, p_dot) -> ExtReal:
    """scalar_cost(impetus) while every velocity-norm bound holds at t, else +infinity.

    One row of :func:`impetus_cost_field` at the packed state and velocities.
    """
    x_dot, p_dot = _velocities(state, x_dot, p_dot)
    field = impetus_cost_field(spec, state.n_agents, state.dim)
    return eval_cost(field, t, pack_economy(state.allocations, state.prices),
                     pack_economy(x_dot, p_dot))


def pack_economy(allocations, prices) -> np.ndarray:
    """Flatten (allocations, prices) into the doubled-state vector."""
    state = EconomyState(allocations, prices)
    return np.concatenate([state.allocations.ravel(), state.prices.ravel()])


def unpack_economy(z: np.ndarray, n_agents: int, dim: int) -> EconomyState:
    _number(1, integer=True, n_agents=n_agents, dim=dim)
    if (z := np.asarray(z, dtype=float)).shape != (2 * n_agents * dim,):
        raise MisuseError(f"z is {z.shape}; {n_agents} agents in dim {dim} need ({2 * n_agents * dim},)")
    _finite(z=z)
    return EconomyState(*z.reshape(2, n_agents, dim))


def impetus_cost_field(spec: ImpetusCostSpec, n_agents: int, dim: int) -> CostField:
    """Impetus cost as a CostField over the packed (allocations, prices) state.

    ``spec.scalar_cost`` is applied once per row.  A row is +infinity where an
    agent's transaction speed or a price-fluctuation speed is past its bound
    (the speed wall of :class:`AdmissibleSpec`); a constant and a callable
    bound take the same path, the callable called once per distinct time of a
    batch.  With ``spec.shared_prices`` only the first agent's price block is
    bounded, and nothing ties the other agents' prices to it.  The field's
    ``partials`` are closed-form in the impetus e: with l = s(e),
    dl/d(x, p) = s'(e) (p', x') and dl/d(x', p') = s'(e) (p, x), where s' is
    the central difference of ``spec.scalar_cost`` at e (two scalar calls per
    row), so the inner solver takes its exact adjoint gradient.
    """
    _number(1, integer=True, n_agents=n_agents, dim=dim)
    if len(spec.gamma_agents) != n_agents:
        raise MisuseError("one transaction bound per agent is required")
    half = n_agents * dim

    def split(Z, Zd):
        """Velocity blocks Xd, Pd (m, n_agents, dim) of the rows and their impetus e (m,)."""
        m = len(Z)
        X, P, Xd, Pd = (A.reshape(m, n_agents, dim)
                        for A in (Z[:, :half], Z[:, half:], Zd[:, :half], Zd[:, half:]))
        return Xd, Pd, np.sum(P * Xd, axis=(1, 2)) + np.sum(Pd * X, axis=(1, 2))

    def scalar_rows(e):
        return np.array([float(spec.scalar_cost(v)) for v in e])

    def batch(t, Z, Zd):
        Xd, Pd, e = split(Z, Zd)
        bad = np.zeros(len(Z), dtype=bool)
        for a, gamma in enumerate(spec.gamma_agents):
            bad |= _too_fast(Xd[:, a], _bounds_at(gamma, t))
        price_bound = _bounds_at(spec.gamma_price, t)
        for a in range(1 if spec.shared_prices else n_agents):
            bad |= _too_fast(Pd[:, a], price_bound)
        return np.where(bad, np.inf, scalar_rows(e))

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
    state = EconomyState(allocations, prices)
    cost = impetus_cost_field(spec, state.n_agents, state.dim)
    return generalized_lax_hopf(terminal, cost, T, pack_economy(state.allocations, state.prices), grid, cfg)


def economy_enrichment_certificate(result: ValueResult, terminal: TerminalCost) -> Optional[float]:
    """|(W(T) - W(T - omega*)) / omega* - Lambda*| at the optimal evolution."""
    return optimum_certificate(result, terminal, result.moderation_lambda)
