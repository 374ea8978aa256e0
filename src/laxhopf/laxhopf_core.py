"""Outer finite-dimensional minimization over apertures and average transactions.

The classic reduction prices each cell as c(T - omega, x - omega*upsilon) +
omega * l(upsilon); the generalized reduction replaces l(upsilon) with the
moderated cost of the inner trajectory problem.  Given an interest-rate field
m, the discounted reduction weights that moderation by the accumulation factors
of the cell's own argmin and the start cost by their value D at T - omega, all
from one rate batch per pricing call; m = 0 gives the generalized values bit
for bit.  The zero-aperture cell always contributes c(T, x), so the value never
exceeds the instantaneous cost where that is finite.  Grid optima are sharpened
by a coordinate pattern search with step halving around the incumbent.  Cells
are priced in batches: the grid pass is one batch.  The search is one function
over a plain state tuple that reads one cell at a time; at an unpriced cell,
the same search resumed from that state runs ahead, reading every unpriced cell
as no improvement, and the cells that path asks for are priced in one batch with
the missing one.  The search path is that of pricing one cell at a time.  The
search holds its point, steps and cells as tuples of Python floats: the same
double arithmetic as on arrays, without a numpy call per probe.  A priced cell
holds numbers and its velocity row; the result is built for the winner only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .costs import (CostField, RateField, TerminalCost, _box, _dims, _finite, _number, _rows, _terminal_value,
                    eval_cost_batch, eval_terminal, eval_terminal_batch)
from .errors import EvaluationFault, MisuseError, RateOverflowError
from .extreal import INF, ExtReal
from .moderation import SolverConfig, _accumulation_factors, _cell_result, _solve_cells, accumulate_rate
from .trajectories import Trajectory, Window, enrichment


def _box_lattice(box, n: int) -> np.ndarray:
    """The (n^l, l) lattice of n points along each [lo, hi] row of ``box``, the last axis fastest."""
    mesh = np.meshgrid(*[np.linspace(lo, hi, n) for lo, hi in box], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class OuterGrid:
    """Search grid over (omega, upsilon); omega = 0 is always a member.

    Construction adds the zero aperture, sorts the apertures without repeats and
    makes the lattice (m, l); apertures and lattice are finite.  ``max_rounds``,
    an integer >= 0, bounds the pattern search that follows the grid pass; 0 is
    the grid pass alone.  An integer is an int or a numpy integer, never a bool.
    """

    omega_values: np.ndarray        # sorted, 0 plus positive apertures
    upsilon_lattice: np.ndarray     # (m, l)
    max_rounds: int = 10

    def __post_init__(self):
        _number(0, integer=True, **{"OuterGrid.max_rounds": self.max_rounds})   # else the search never ends
        omegas = np.unique(np.append(0.0, np.asarray(self.omega_values, dtype=float)))
        if not np.all((omegas >= 0) & (omegas < np.inf)):
            raise MisuseError(f"OuterGrid.omega_values must be finite and nonnegative, got {omegas.tolist()}")
        lattice = _rows(self.upsilon_lattice)
        if lattice.size == 0 or not np.isfinite(lattice).all():
            raise MisuseError("OuterGrid.upsilon_lattice must be non-empty and finite")
        object.__setattr__(self, "omega_values", omegas)
        object.__setattr__(self, "upsilon_lattice", lattice)

    @staticmethod
    def build(omega_max: float, n_omega: int, upsilon_box, n_upsilon: int,
              max_rounds: int = 10) -> "OuterGrid":
        """Uniform grid: n_omega apertures in (0, omega_max] plus 0, and a box lattice."""
        _number(0, above=True, omega_max=omega_max)
        _number(1, integer=True, n_omega=n_omega, n_upsilon=n_upsilon)
        omegas = np.linspace(omega_max / n_omega, omega_max, n_omega)
        lattice = _box_lattice(_box(upsilon_box, "upsilon_box"), n_upsilon)
        return OuterGrid(omega_values=omegas, upsilon_lattice=lattice, max_rounds=max_rounds)


@dataclass(frozen=True)
class ValueResult:
    """Value, optimizers, optimal trajectory and certificate residual."""

    value: ExtReal
    omega_star: Optional[float]
    upsilon_star: Optional[np.ndarray]
    start_state: Optional[np.ndarray]
    trajectory: Optional[Trajectory]
    moderation_lambda: Optional[ExtReal] = None
    certificate_residual: Optional[float] = None
    discount_factor: Optional[float] = None


def _cell_seed(base_seed: int, omega: float, upsilon: np.ndarray):
    """Deterministic, order-independent per-cell seed material."""
    quant = [int(round(omega * 1e9)) & 0xFFFFFFFF]
    quant += [int(round(float(c) * 1e9)) & 0xFFFFFFFF for c in np.atleast_1d(upsilon)]
    return np.random.SeedSequence([int(base_seed)] + quant)


# Unpriced cells one look-ahead batch holds at most, the missing cell included.
_LOOKAHEAD_CELLS = 16
# Each pattern-search round scales the probe steps by it.
_SHRINK = 0.5


def _search(read, at, strict: bool, omega_max: float, rounds: int):
    """Greedy coordinate pattern search over y = (omega, *upsilon); its best (value, omega, upsilon).

    ``at`` is the state (y, steps, best, round, sweep, move, moved) to start or
    resume at.  Each sweep probes y + steps[d] and y - steps[d] along every
    coordinate d in turn, omega clipped to [0, omega_max] and the zero cell at
    omega = 0, and moves to a probe that beats the incumbent (``strict``: on a
    lower value only); a round repeats sweeps until one moves nowhere (at most
    50), then scales the steps by ``_SHRINK``.  ``read(cell, state)`` is the value
    of the probed (omega, upsilon) cell, ``state`` the one that probes it, or
    None to stop.
    """
    y, steps, best, rnd, sweep, move, moved = at
    while rnd < rounds:
        d, down = divmod(move, 2)
        p = list(y)
        p[d] = p[d] - steps[d] if down else p[d] + steps[d]
        om = min(max(p[0], 0.0), omega_max)
        cell = (om, tuple(p[1:])) if om > 0 else (0.0, (0.0,) * (len(p) - 1))
        value = read(cell, (y, steps, best, rnd, sweep, move, moved))
        if value is None:
            break
        if (value < best[0]) if strict else ((value, *cell) < best):
            best, y, moved = (value, *cell), (om, *cell[1]), True
        move += 1
        if move == 2 * len(y):
            move, sweep = 0, sweep + 1
            if not moved or sweep == 50:
                rnd, sweep, steps = rnd + 1, 0, tuple(s * _SHRINK for s in steps)
            moved = False
    return best


def _outer_minimize(grid: OuterGrid, cells_fn, omega_max: float):
    """Grid pass, then up to ``grid.max_rounds`` pattern-search rounds; deterministic
    smallest-(omega, upsilon) tie-break.

    When the zero-aperture cell wins the grid pass, the search walks from the
    best positive-aperture grid cell instead, moving on strict gains only, and
    its end point replaces the zero cell only if it is strictly cheaper.

    ``cells_fn`` prices a list of (omega, upsilon tuple) cells.  The grid pass is
    one batch.  Two probes are one cell when every coordinate agrees after
    ``round(., 12)``, which is exact for every finite float.  At an unpriced
    cell, ``_search`` resumes from the walk's state, reading every unpriced cell
    as +inf, and the cells it asks for, up to ``_LOOKAHEAD_CELLS``, are priced in
    one batch with the missing one, so the search path is that of pricing one
    cell at a time.  A look-ahead cell goes to ``ahead`` with the exact point it
    was priced at, and the walk takes it only at that point.
    """
    store, ahead = {}, {}   # key -> cell; key -> (exact point, cell)

    def key(om, ups):
        return round(om, 12), tuple([round(u, 12) for u in ups])

    def fill(cells, cell_keys, speculative=False):
        """Price the unstored cells in one call; with ``speculative``, all but the first
        go to ``ahead``, and a batch that raises stores nothing: the first cell is then
        priced alone, and raises as it would have."""
        todo = {}
        for k, cell in zip(cell_keys, cells):
            if k not in store:
                todo.setdefault(k, cell)
        try:
            priced = cells_fn(list(todo.values()))
        except (RateOverflowError, EvaluationFault):
            if not speculative:
                raise
            todo, priced = {cell_keys[0]: cells[0]}, cells_fn(cells[:1])
        for (k, (om, ups)), cell in zip(todo.items(), priced):
            if speculative and k != cell_keys[0]:
                ahead[k] = ((om, *ups), cell)
            else:
                store[k] = cell

    def read(cell, state):
        k = key(*cell)
        if k not in store and k in ahead:
            exact, priced = ahead.pop(k)
            if exact == (cell[0], *cell[1]):
                store[k] = priced
        if k not in store:
            batch, batch_keys = [cell], [k]

            def peek(c, _):
                if len(batch_keys) == _LOOKAHEAD_CELLS:
                    return None
                ck = key(*c)
                known = store.get(ck) or ahead.get(ck, (None, None))[1]
                if known is not None:
                    return known[0]
                if ck not in batch_keys:
                    batch.append(c)
                    batch_keys.append(ck)
                return math.inf

            _search(peek, state, strict, omega_max, grid.max_rounds)
            fill(batch, batch_keys, speculative=True)
        return store[k][0]

    ell = grid.upsilon_lattice.shape[1]
    lattice = [tuple(ups) for ups in grid.upsilon_lattice.tolist()]
    row_keys = [key(0.0, ups)[1] for ups in lattice]   # once per lattice row, not per cell
    omegas = grid.omega_values[1:].tolist()   # the positive apertures
    cells = [(0.0, (0.0,) * ell)] + [(om, ups) for om in omegas for ups in lattice]
    cell_keys = [key(*cells[0])] + [(round(om, 12), k) for om in omegas for k in row_keys]
    fill(cells, cell_keys)
    priced = [(store[k][0], *cell) for k, cell in zip(cell_keys, cells)]
    best = min(priced)

    # every probe from the zero cell ties with it or maps back to it, so when it
    # wins, walk from the best positive-aperture cell instead; the upsilon = 0
    # column ties with c(T, x) at every omega, so only strict gains move
    strict = best[1] == 0
    start = min(priced[1:], default=(math.inf,)) if strict else best
    if math.isfinite(start[0]):
        cols = [grid.omega_values[1:]] + [np.unique(col) for col in grid.upsilon_lattice.T]
        steps = tuple(float(np.min(np.diff(col))) if len(col) > 1 else s
                      for col, s in zip(cols, [omega_max / 4.0] + [0.25] * ell))
        at = ((start[1], *start[2]), steps, start, 0, 0, 0, False)
        best = min(best, _search(read, at, strict, omega_max, grid.max_rounds))
    value, omega_star, ups_star = best
    return value, omega_star, np.array(ups_star), store[key(omega_star, ups_star)][1]


def _reduce(T: float, x: np.ndarray, grid: OuterGrid, cells_fn) -> ValueResult:
    """The one outer reduction; its variants differ only in how ``cells_fn``
    prices a batch of cells: (value, (lambda, omega, velocities or None,
    c_start, D or None)) or (value, None) for each.  It builds the result from
    the winning cell's payload alone."""
    _finite(T=T, x=x)
    _dims(len(x), **{"upsilon lattice": grid.upsilon_lattice})
    value, om, ups, payload = _outer_minimize(grid, cells_fn, float(np.max(grid.omega_values)))
    if not math.isfinite(value):
        return ValueResult(INF, None, None, None, None)
    if payload is None:   # the zero-aperture cell
        return ValueResult(ExtReal(value), 0.0, None, x.copy(), None)
    lam, omega, v, c_start, d = payload
    moderation_lambda, traj = _cell_result(lam, v, T, x, omega)
    return ValueResult(
        value=ExtReal(value), omega_star=float(om), upsilon_star=ups, start_state=x - om * ups,
        trajectory=traj, moderation_lambda=moderation_lambda,
        certificate_residual=abs(enrichment((1.0 if d is None else d) * c_start, value, om) - lam),
        discount_factor=d,
    )


def _moderated_cells(terminal: TerminalCost, cost: CostField, rate: Optional[RateField],
                     T: float, x: np.ndarray, cfg: SolverConfig):
    """Cell pricer of the generalized reduction: D * c(T - omega, x - omega*upsilon)
    + omega * moderated cost, and c(T, x) at zero aperture.

    The windows of all cells with a finite start cost are solved together, each
    descent cell with its own seed.  With a rate, one rate batch gives the node
    factors (B, N+1) of the solved cells, whose first column is D (None without).
    """
    def cells_fn(cells):
        oms = [o for o, _ in cells]
        om, ups = np.array(oms), np.array([u for _, u in cells])
        starts = x - om[:, None] * ups   # the zero cell's row is x, bit for bit
        c = [_terminal_value(terminal, T - o, s) for o, s in zip(oms, starts)]
        out = [(c_i if o == 0.0 else math.inf, None) for o, c_i in zip(oms, c)]
        live = np.flatnonzero(np.isfinite(c) & (om > 0))   # the zero cell needs no solve
        if live.size:
            lam, V = _solve_cells(cost, rate, T, x, om[live], ups[live], cfg,
                                  lambda k: _cell_seed(cfg.seed, oms[live[k]], ups[live[k]]))
            done = np.flatnonzero(np.isfinite(lam))
            ds = ([None] * len(done) if rate is None or not done.size else
                  _accumulation_factors(T, x, om[live[done]], V[done], rate)[:, 0].tolist())
            for k, lam_k, d0 in zip(done.tolist(), lam[done].tolist(), ds):
                i, o = live[k], oms[live[k]]
                out[i] = ((c[i] if d0 is None else d0 * c[i]) + o * lam_k, (lam_k, o, V[k], c[i], d0))
        return out

    return cells_fn


def classic_lax_hopf(terminal: TerminalCost, cost: CostField, T: float, x,
                     grid: OuterGrid, n_steps: int = 32) -> ValueResult:
    """Classic reduction for velocity-only convex costs.

    Each positive-aperture cell costs c(T - omega, x - omega*upsilon) +
    omega * l(upsilon), priced with one terminal and one cost batch per
    aperture; the optimal trajectory is the straight line.
    """
    if not (cost.velocity_only and cost.declared_convex_in_u):
        raise MisuseError("classic_lax_hopf requires a velocity-only cost declared convex in u")
    _number(1, integer=True, n_steps=n_steps)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def cells_fn(cells):
        out = [(math.inf, None)] * len(cells)
        by_omega = {}
        for i, (om, _) in enumerate(cells):
            if om == 0.0:
                out[i] = (_terminal_value(terminal, T, x), None)
            else:
                by_omega.setdefault(om, []).append(i)
        for om, idx in by_omega.items():
            ups = np.array([cells[i][1] for i in idx])
            c_vals = eval_terminal_batch(terminal, T - om, x - om * ups)
            live = np.isfinite(c_vals)
            lvals = eval_cost_batch(cost, np.full(int(live.sum()), float(T)),
                                    np.broadcast_to(x, ups[live].shape), ups[live])
            for i, c, lval in zip(np.asarray(idx)[live], c_vals[live].tolist(), lvals.tolist()):
                out[i] = (c + lval * om, (lval, om, None, c, None))
        return out

    result = _reduce(T, x, grid, cells_fn)
    if not result.omega_star or not result.value.is_finite:
        return result
    return replace(result, trajectory=Trajectory(
        window=Window(T=float(T), omega=result.omega_star), terminal_state=x,
        velocities=np.tile(result.upsilon_star, (n_steps, 1))))


def generalized_lax_hopf(terminal: TerminalCost, cost: CostField, T: float, x,
                         grid: OuterGrid, cfg: SolverConfig) -> ValueResult:
    """Generalized reduction: omega * moderated cost replaces omega * l(upsilon)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _reduce(T, x, grid, _moderated_cells(terminal, cost, None, T, x, cfg))


def discounted_value(terminal: TerminalCost, cost: CostField, rate: RateField,
                     T: float, x, grid: OuterGrid, cfg: SolverConfig) -> ValueResult:
    """Outer minimization of D * c(T - omega, x - omega*upsilon) + omega * Lambda.

    The discount D on the start cost is the accumulation factor at T - omega
    along the cell's own discounted-moderation argmin trajectory.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _reduce(T, x, grid, _moderated_cells(terminal, cost, rate, T, x, cfg))


def _certificate(result: ValueResult, terminal: TerminalCost, moderation_lambda: Optional[ExtReal],
                 rate: Optional[RateField]) -> Optional[float]:
    """|enrichment(D c(T - omega*, start), V, omega*) - lambda*|, D the accumulation
    factor at the start of the optimal trajectory (1.0 without a rate); None at omega* = 0."""
    if result.omega_star is None or result.omega_star == 0:
        return None
    if result.trajectory is None or moderation_lambda is None:
        raise MisuseError("certificate needs the optimal trajectory and moderation value")
    c_start = _terminal_value(terminal, result.trajectory.window.start, result.start_state)
    if not (math.isfinite(c_start) and result.value.is_finite and moderation_lambda.is_finite):
        raise MisuseError("certificate needs finite value, start cost and moderation")
    d0 = 1.0 if rate is None else float(accumulate_rate(result.trajectory, rate).factors[0])
    return abs(enrichment(d0 * c_start, result.value.value, result.omega_star) - moderation_lambda.value)


def optimum_certificate(result: ValueResult, terminal: TerminalCost,
                        moderation_lambda: ExtReal) -> Optional[float]:
    """|enrichment(c(T - omega*, start), V, omega*) - lambda*|; None at omega* = 0.

    A zero-aperture optimum has no window to enrich over: flagged (None), not failed.
    """
    return _certificate(result, terminal, moderation_lambda, None)


def actualized_enrichment_certificate(result: ValueResult, terminal: TerminalCost,
                                      rate: RateField) -> Optional[float]:
    """|Lambda* - (V - D(T - omega*) c(T - omega*, start)) / omega*|; None at omega* = 0."""
    return _certificate(result, terminal, result.moderation_lambda, rate)


def dynamic_value_profile(result: ValueResult, terminal: TerminalCost, cost: CostField):
    """Running value along the optimal trajectory: V(t) from the start cost plus
    the partial cumulated transaction cost; endpoints match the start cost and
    the optimal value."""
    if result.trajectory is None or result.omega_star in (None, 0):
        raise MisuseError("dynamic_value_profile needs an optimizer with positive aperture")
    traj = result.trajectory
    c_start = _terminal_value(terminal, traj.window.start, traj.states[0])
    if not math.isfinite(c_start):
        raise MisuseError("start state leaves the departure tube")
    steps = eval_cost_batch(cost, traj.mid_times, traj.mid_states, traj.velocities)
    if not np.isfinite(steps).all():
        raise MisuseError("optimal trajectory hits an infinite-cost step")
    vals = np.cumsum(np.concatenate([[c_start], traj.dt * steps]))
    return list(zip(traj.times.tolist(), vals.tolist()))


def wtp_value(terminal: TerminalCost, velocity_bound: float, T: float, x,
              omega: float, state_grid) -> ExtReal:
    """Willingness-to-pay value: cheapest reachable start state in the window.

    Start states reachable with speed at most the bound form the ball of radius
    omega * bound around x; zero aperture returns c(T, x) exactly.
    """
    _number(0, velocity_bound=velocity_bound, omega=omega)
    x, pts = np.atleast_1d(np.asarray(x, dtype=float)), _rows(state_grid)
    _finite(T=T, x=x, state_grid=pts)
    _dims(len(x), **{"state grid": pts})
    if omega == 0 or velocity_bound == 0:
        return eval_terminal(terminal, T - omega, x)
    inside = np.linalg.norm(pts - x, axis=1) <= omega * velocity_bound + 1e-12
    vals = eval_terminal_batch(terminal, T - omega, pts[inside])
    return ExtReal(float(np.min(vals, initial=np.inf)))


def value_result_to_json(result: ValueResult) -> str:
    """Serialize the value, optimizers and certificate to a JSON document."""
    def arr(a):
        return None if a is None else [float(v) for v in np.atleast_1d(a)]

    doc = {
        "value": "inf" if not result.value.is_finite else result.value.value,
        "omega_star": result.omega_star,
        "upsilon_star": arr(result.upsilon_star),
        "start_state": arr(result.start_state),
        "certificate_residual": result.certificate_residual,
    }
    if result.discount_factor is not None:
        doc["discount_factor"] = result.discount_factor
    return json.dumps(doc, indent=2, sort_keys=True)
