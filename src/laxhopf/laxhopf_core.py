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
are priced in batches: the grid pass is one batch.  The search is a resumable
state that reads one cell at a time; at an unpriced cell, a copy of it runs
ahead, reading every unpriced cell as no improvement, and the cells that path
asks for are priced in one batch with the missing one.  The search path is that
of pricing one cell at a time.  The search holds its point, steps and cells as
tuples of Python floats: the same double arithmetic as on arrays, without a
numpy call per probe.  A priced cell holds numbers and its velocity row; the
result is built for the winner only.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .costs import (CostField, RateField, TerminalCost, _box, _rows, _terminal_value, eval_cost_batch,
                    eval_terminal, eval_terminal_batch)
from .errors import EvaluationFault, MisuseError, RateOverflowError
from .extreal import INF, ExtReal
from .moderation import SolverConfig, _accumulation_factors, _cell_result, _solve_cells, accumulate_rate
from .trajectories import Trajectory, Window, enrichment

__all__ = [
    "OuterGrid",
    "ValueResult",
    "classic_lax_hopf",
    "generalized_lax_hopf",
    "discounted_value",
    "optimum_certificate",
    "actualized_enrichment_certificate",
    "dynamic_value_profile",
    "wtp_value",
    "value_result_to_json",
]


def _box_lattice(box, n: int) -> np.ndarray:
    """The (n^l, l) lattice of n points along each [lo, hi] row of ``box``, the last axis fastest."""
    mesh = np.meshgrid(*[np.linspace(lo, hi, n) for lo, hi in box], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class OuterGrid:
    """Search grid over (omega, upsilon); omega = 0 is always a member.

    Construction adds the zero aperture, sorts the apertures without repeats and
    makes the lattice (m, l).  ``max_rounds`` bounds the pattern search that
    follows the grid pass; 0 is the grid pass alone.
    """

    omega_values: np.ndarray        # sorted, 0 plus positive apertures
    upsilon_lattice: np.ndarray     # (m, l)
    max_rounds: int = 10

    def __post_init__(self):
        if not self.max_rounds >= 0:   # the pattern search stops when its round count reaches it
            raise MisuseError(f"OuterGrid needs max_rounds >= 0, got {self.max_rounds}")
        omegas = np.unique(np.append(0.0, np.asarray(self.omega_values, dtype=float)))
        if not np.all(omegas >= 0):
            raise MisuseError("omega grid values must be nonnegative")
        lattice = _rows(self.upsilon_lattice)
        if lattice.size == 0:
            raise MisuseError("upsilon lattice must be non-empty")
        object.__setattr__(self, "omega_values", omegas)
        object.__setattr__(self, "upsilon_lattice", lattice)

    @staticmethod
    def build(omega_max: float, n_omega: int, upsilon_box, n_upsilon: int,
              max_rounds: int = 10) -> "OuterGrid":
        """Uniform grid: n_omega apertures in (0, omega_max] plus 0, and a box lattice."""
        if omega_max <= 0 or n_omega < 1:
            raise MisuseError("OuterGrid.build needs omega_max > 0 and n_omega >= 1")
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


class _CellCache:
    """Priced cells by rounded (omega, upsilon); ``fill`` prices every unseen cell in one batch.

    ``store`` holds the cells the search has read.  ``ahead`` holds the cells a
    look-ahead priced before the search read them, each with the exact point it
    priced: a read takes the entry only at that point, so a key's value is that
    of the first point the search reads under it.
    """

    def __init__(self, cells_fn):
        self.cells_fn = cells_fn
        self.store = {}
        self.ahead = {}  # rounded key -> (exact (omega, *upsilon), priced cell)
        self.keys = {}  # exact (omega, *upsilon) -> rounded key

    def key(self, omega, ups):
        exact = (omega, *ups)
        key = self.keys.get(exact)
        if key is None:
            key = self.keys[exact] = (round(omega, 12), tuple(np.array(ups).round(12).tolist()))
        return key

    def fill(self, cells, keys, ahead=False) -> None:
        """Price the unseen cells of [(omega, upsilon)], whose keys are given, in one call;
        with ``ahead``, every cell but the first goes to ``ahead``."""
        todo = {}
        for key, cell in zip(keys, cells):
            if key not in self.store and key not in todo:
                todo[key] = cell
        if todo:
            priced = self.cells_fn(list(todo.values()))
            for (key, (omega, ups)), cell in zip(todo.items(), priced):
                if ahead and key != keys[0]:
                    self.ahead[key] = ((omega, *ups), cell)
                else:
                    self.store[key] = cell

    def fill_ahead(self, cells, keys) -> None:
        """Price the asked cell ``cells[0]`` with the speculative rest.  A batch
        that raises stores nothing; the asked cell is then priced alone, and
        raises as it would have."""
        try:
            self.fill(cells, keys, ahead=True)
        except (RateOverflowError, EvaluationFault):
            self.fill(cells[:1], keys[:1])


class _PatternSearch:
    """Resumable greedy coordinate pattern search over y = (omega, *upsilon).

    Each sweep probes y +- step along every coordinate in turn and moves to a
    probe that beats the incumbent (``strict``: on a lower value only); a
    round repeats sweeps until one moves nowhere (at most 50), then scales the
    steps by ``_SHRINK``.  ``probe`` names the next cell and ``feed`` takes its
    value, so a ``copy.copy`` of the state can be run ahead of the real walk.
    """

    __slots__ = ("cells", "grid", "omega_max", "moves", "y", "steps", "round", "sweep",
                 "move", "moved", "strict", "best", "cell")

    def __init__(self, cells, grid, omega_max, steps, best, strict):
        self.cells, self.grid, self.omega_max = cells, grid, omega_max
        self.moves = [(d, sgn) for d in range(len(steps)) for sgn in (+1.0, -1.0)]
        self.y, self.steps = (best[1], *best[2]), tuple(steps)
        self.round = self.sweep = self.move = 0
        self.moved, self.strict, self.best, self.cell = False, strict, best, None

    def probe(self):
        """(key, omega, upsilon) of the next cell the search reads; None once it has ended."""
        if self.round == self.grid.max_rounds:
            return None
        d, sgn = self.moves[self.move]
        p = list(self.y)
        p[d] += sgn * self.steps[d]
        om = min(max(p[0], 0.0), self.omega_max)
        om, ups = (om, tuple(p[1:])) if om > 0 else (0.0, (0.0,) * (len(p) - 1))
        self.cell = (om, ups)
        return self.cells.key(om, ups), om, ups

    def feed(self, value) -> None:
        """The value of the cell ``probe`` named last; advances the search."""
        om, ups = self.cell
        cand = (value, om, ups)
        if (cand[0] < self.best[0]) if self.strict else (cand < self.best):
            self.best, self.y, self.moved = cand, (om, *ups), True
        self.move += 1
        if self.move < len(self.moves):
            return
        self.move, self.sweep = 0, self.sweep + 1
        if not self.moved or self.sweep == 50:
            self.round, self.sweep = self.round + 1, 0
            self.steps = tuple(s * _SHRINK for s in self.steps)
        self.moved = False


def _walk(search: _PatternSearch):
    """Run ``search`` to its end; returns its best (value, omega, upsilon).

    When the next cell is unpriced, a copy runs ahead and reads every unpriced
    cell as no improvement; the cells it asks for, up to ``_LOOKAHEAD_CELLS``,
    are priced in one batch with the missing one.
    """
    cells = search.cells
    store, priced_ahead = cells.store, cells.ahead
    while (probe := search.probe()) is not None:
        key, om, ups = probe
        if key in priced_ahead and key not in store:
            exact, cell = priced_ahead.pop(key)
            if exact == (om, *ups):
                store[key] = cell
        if key not in store:
            ahead, keys = [(om, ups)], [key]
            spec = copy.copy(search)
            spec.feed(math.inf)
            while len(keys) < _LOOKAHEAD_CELLS and (probe := spec.probe()) is not None:
                k, o, u = probe
                known = store.get(k) or priced_ahead.get(k, (None, None))[1]
                if known is not None:
                    spec.feed(known[0])
                    continue
                if k not in keys:
                    ahead.append((o, u))
                    keys.append(k)
                spec.feed(math.inf)
            cells.fill_ahead(ahead, keys)
        search.feed(store[key][0])
    return search.best


def _outer_minimize(grid: OuterGrid, cells_fn, omega_max: float):
    """Grid pass, then up to ``grid.max_rounds`` pattern-search rounds; deterministic
    smallest-(omega, upsilon) tie-break.

    When the zero-aperture cell wins the grid pass, the search walks from the
    best positive-aperture grid cell instead, moving on strict gains only, and
    its end point replaces the zero cell only if it is strictly cheaper.

    ``cells_fn`` prices a list of (omega, upsilon tuple) cells.  The grid pass is one
    batch.  The search (``_PatternSearch``) reads one cell at a time; each
    time it reaches an unpriced cell, that cell and the unpriced cells a
    look-ahead copy of the search reads next are priced as one batch, so the
    search path is that of pricing one cell at a time.
    """
    cells = _CellCache(cells_fn)
    ell = grid.upsilon_lattice.shape[1]
    zero_ups = (0.0,) * ell

    grid_cells, keys = [], []
    lattice = [tuple(ups) for ups in grid.upsilon_lattice.tolist()]
    lattice_keys = [tuple(k) for k in np.round(grid.upsilon_lattice, 12).tolist()]
    for omega in grid.omega_values.tolist():
        if omega == 0.0:
            grid_cells.append((0.0, zero_ups))
            keys.append(cells.key(0.0, zero_ups))
        else:
            grid_cells += [(omega, ups) for ups in lattice]
            keys += [(round(omega, 12), k) for k in lattice_keys]
    cells.fill(grid_cells, keys)
    priced = [(cells.store[key][0], om, ups) for key, (om, ups) in zip(keys, grid_cells)]
    best = min(priced)

    if math.isfinite(best[0]):
        pos = grid.omega_values[grid.omega_values > 0]
        d_omega = float(np.min(np.diff(pos))) if len(pos) > 1 else omega_max / 4.0
        first_steps = [d_omega]
        for h in range(ell):
            col = np.unique(grid.upsilon_lattice[:, h])
            first_steps.append(float(np.min(np.diff(col))) if len(col) > 1 else 0.25)

        if best[1] > 0:
            best = _walk(_PatternSearch(cells, grid, omega_max, first_steps, best, strict=False))
        else:
            # every probe from the zero cell ties with it or maps back to it, so
            # walk from the best positive-aperture cell instead; the upsilon = 0
            # column ties with c(T, x) at every omega, so only strict gains move
            start = min((c for c in priced if c[1] > 0), default=(math.inf,))
            if math.isfinite(start[0]):
                best = min(best, _walk(_PatternSearch(cells, grid, omega_max, first_steps,
                                                      start, strict=True)))
    value, omega_star, ups_star = best
    _, payload = cells.store[cells.key(omega_star, ups_star if omega_star > 0 else zero_ups)]
    return value, omega_star, np.array(ups_star), payload


def _reduce(T: float, x: np.ndarray, grid: OuterGrid, cells_fn) -> ValueResult:
    """The one outer reduction; its variants differ only in how ``cells_fn``
    prices a batch of cells: (value, (lambda, omega, velocities or None,
    c_start, D or None)) or (value, None) for each.  It builds the result from
    the winning cell's payload alone."""
    if (ell := grid.upsilon_lattice.shape[1]) != len(x):
        raise MisuseError(f"upsilon lattice dimension {ell} != state dimension {len(x)}")
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
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise MisuseError(f"classic_lax_hopf needs an integer n_steps >= 1, got {n_steps!r}")
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
    if omega < 0:
        raise MisuseError(f"aperture must be nonnegative, got {omega}")
    if velocity_bound < 0:
        raise MisuseError(f"velocity bound must be nonnegative, got {velocity_bound}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pts = _rows(state_grid)
    if pts.shape[1] != len(x):
        raise MisuseError(f"state grid dimension {pts.shape[1]} != state dimension {len(x)}")
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
