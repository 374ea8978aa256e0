"""Moderated transaction costs: the inner constrained trajectory problem.

The moderation of a cost field at (T, x, omega, upsilon) is the smallest
normalized cumulated cost among trajectories anchored at x(T) = x whose average
transaction over the window equals upsilon.  The inner solver is a direct
transcription into N velocity variables: projected gradient descent with an
exact closed-form projection onto the affine constraint set, finite-difference
gradients and a small multi-start sweep.  Each trial step is the two-point
(Barzilai-Borwein) step s's/s'y from the last displacement and gradient change,
capped at step_growth times the last accepted step, then Armijo backtracking.
A start stops at a small projected gradient, at an accepted decrease of at
most 1e-12 * max(|f|, 1), at a failed line search or after max_iter steps.
Infeasibility is a value (+infinity), not an exception, so the outer
minimization can fold over infeasible cells.

The same machinery serves the interest-rate variant: an optional rate field
weights each quadrature node by the accumulation factor of its own trajectory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .costs import CostField, eval_cost, eval_cost_batch
from .errors import MisuseError, RateOverflowError
from .extreal import INF, ExtReal
from .trajectories import AdmissibleSpec, Trajectory, Window

__all__ = [
    "SolverConfig",
    "ModerationProblem",
    "ModerationTable",
    "moderate",
    "build_moderation_table",
    "jensen_gap",
    "moderation_table_to_csv",
]

_EXP_CAP = 700.0  # exp overflow guard on accumulated rates
_REL_DECREASE = 1e-12  # a start stops once an accepted step gains <= this * max(|f|, 1)


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver knobs; every default is deliberate and reproducible."""

    n_steps: int = 32
    multi_starts: int = 8          # perturbed starts beyond the constant one
    max_iter: int = 200            # descent steps per start; 0 evaluates the starts only
    grad_tol: float = 1e-8         # a start stops once the projected gradient norm is below this
    armijo: float = 1e-4
    step_init: float = 1.0         # first trial step of each start
    step_growth: float = 2.0       # cap on a trial step, as a multiple of the last accepted one
    max_backtracks: int = 40
    fd_step: float = 1e-6          # relative central-difference step
    max_alternations: int = 50     # clip-then-project rounds for boxed domains
    seed: int = 0
    quadrature_tol: float = 1e-6
    solver_tol: float = 1e-6


@dataclass(frozen=True)
class ModerationProblem:
    cost: CostField
    T: float
    x: np.ndarray            # terminal state
    omega: float
    upsilon: np.ndarray      # target average transaction
    n_steps: Optional[int] = None
    admissible: Optional[AdmissibleSpec] = None


class _WindowObjective:
    """Normalized (optionally rate-weighted) cumulated cost as a function of velocities."""

    def __init__(self, cost, rate, T, omega, terminal_state, n_steps, admissible=None):
        self.cost = cost
        self.rate = rate
        self.T = float(T)
        self.omega = float(omega)
        self.terminal = np.asarray(terminal_state, dtype=float)
        self.n = int(n_steps)
        self.ell = len(self.terminal)
        self.dt = self.omega / self.n
        self.mid_times = (self.T - self.omega) + self.dt * (np.arange(self.n) + 0.5)
        self.bounds = None if admissible is None else np.array(
            [admissible.bound_at(float(t)) for t in self.mid_times]
        )

    def _mid_states(self, U: np.ndarray) -> np.ndarray:
        # U: (B, N, l); x at node k is terminal - dt * sum_{j >= k} u_j
        tail = np.cumsum(U[:, ::-1, :], axis=1)[:, ::-1, :] * self.dt
        nodes_lo = self.terminal - tail                      # x at node k
        return nodes_lo + 0.5 * self.dt * U                  # midpoint of [x_k, x_{k+1}]

    def _rate_batch(self, U, mids):
        B = len(U)
        t_flat = np.tile(self.mid_times, B)
        X_flat = mids.reshape(B * self.n, self.ell)
        U_flat = U.reshape(B * self.n, self.ell)
        if self.rate.batch_evaluator is not None:
            vals = np.asarray(self.rate.batch_evaluator(t_flat, X_flat, U_flat), dtype=float)
        else:
            vals = np.array(
                [float(self.rate.evaluator(float(t_flat[i]), X_flat[i], U_flat[i]))
                 for i in range(B * self.n)]
            )
        return vals.reshape(B, self.n)

    def values(self, U: np.ndarray) -> np.ndarray:
        """Objective for a batch of velocity matrices U (B, N, l) -> (B,) with inf."""
        U = np.asarray(U, dtype=float)
        mids = self._mid_states(U)
        B = len(U)
        lvals = eval_cost_batch(
            self.cost,
            np.tile(self.mid_times, B),
            mids.reshape(B * self.n, self.ell),
            U.reshape(B * self.n, self.ell),
        ).reshape(B, self.n)
        if self.bounds is not None:
            norms = np.linalg.norm(U, axis=2)
            lvals = np.where(norms > self.bounds + 1e-12, np.inf, lvals)
        if self.rate is not None:
            mvals = self._rate_batch(U, mids)
            # tail integral of m from each step midpoint to T (midpoint rule)
            tails = np.cumsum(mvals[:, ::-1], axis=1)[:, ::-1] * self.dt
            integ = tails - 0.5 * self.dt * mvals
            if np.any(integ > _EXP_CAP):
                _, k = np.unravel_index(int(np.argmax(integ)), integ.shape)
                raise RateOverflowError(
                    f"accumulated rate overflows exp at node {k} (t={self.mid_times[k]})"
                )
            lvals = lvals * np.exp(integ)
        return (self.dt / self.omega) * lvals.sum(axis=1)

    def value(self, U: np.ndarray) -> float:
        return float(self.values(U[None])[0])

    def gradient(self, U: np.ndarray, fd_rel: float):
        """Central finite-difference gradient; one-sided near the infinite region."""
        z = U.ravel()
        n = z.size
        h = fd_rel * np.maximum(1.0, np.abs(z))
        pert = np.broadcast_to(z, (2 * n, n)).copy()
        idx = np.arange(n)
        pert[idx, idx] += h
        pert[n + idx, idx] -= h
        vals = self.values(pert.reshape(2 * n, self.n, self.ell))
        plus, minus = vals[:n], vals[n:]
        g = np.empty(n)
        both = np.isfinite(plus) & np.isfinite(minus)
        g[both] = (plus[both] - minus[both]) / (2 * h[both])
        if not both.all():
            base = self.value(U)
            only_p = np.isfinite(plus) & ~np.isfinite(minus)
            only_m = ~np.isfinite(plus) & np.isfinite(minus)
            neither = ~np.isfinite(plus) & ~np.isfinite(minus)
            g[only_p] = (plus[only_p] - base) / h[only_p]
            g[only_m] = (base - minus[only_m]) / h[only_m]
            g[neither] = 0.0
        return g.reshape(U.shape)


def _project_affine(U: np.ndarray, upsilon: np.ndarray) -> np.ndarray:
    """Exact projection onto {mean_k u_k = upsilon} (subtract the residual mean)."""
    return U - (U.mean(axis=0) - upsilon)


def _project(U: np.ndarray, upsilon: np.ndarray, box, max_alternations: int) -> np.ndarray:
    if box is None:
        return _project_affine(U, upsilon)
    lo, hi = box[:, 0], box[:, 1]
    V = U
    for _ in range(max_alternations):
        clipped = np.clip(V, lo, hi)
        V = _project_affine(clipped, upsilon)
        if np.all(V >= lo - 1e-12) and np.all(V <= hi + 1e-12):
            break
    # repair any residual mean drift using strictly interior steps only
    V = np.clip(V, lo, hi)
    resid = V.mean(axis=0) - upsilon
    for h in range(V.shape[1]):
        if resid[h] == 0.0:
            continue
        interior = (V[:, h] > lo[h] + 1e-12) & (V[:, h] < hi[h] - 1e-12)
        m = int(interior.sum())
        if m:
            V[interior, h] -= resid[h] * V.shape[0] / m
    return V


def _solve_window_problem(cost, rate, T, x, omega, upsilon, cfg: SolverConfig,
                          rng=None, n_steps=None, admissible=None):
    """Shared inner solver; returns (ExtReal lambda, Trajectory or None)."""
    if omega <= 0:
        raise MisuseError(f"moderation needs a positive aperture, got {omega}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    upsilon = np.atleast_1d(np.asarray(upsilon, dtype=float))
    n_steps = int(n_steps or cfg.n_steps)
    if n_steps < 1:
        raise MisuseError("moderation needs at least one step")
    box = None if cost.domain_box is None else np.asarray(cost.domain_box, dtype=float)
    if box is not None and (np.any(upsilon < box[:, 0]) or np.any(upsilon > box[:, 1])):
        return INF, None  # the mean of box-constrained steps cannot leave the box

    obj = _WindowObjective(cost, rate, T, omega, x, n_steps, admissible)
    rng = np.random.default_rng(cfg.seed if rng is None else rng)

    starts = [np.tile(upsilon, (n_steps, 1))]
    scale = 0.5 * float(np.linalg.norm(upsilon)) + 0.1
    for _ in range(cfg.multi_starts):
        noise = rng.uniform(-1.0, 1.0, size=(n_steps, len(upsilon))) * scale
        starts.append(starts[0] + noise)

    best_val, best_u = math.inf, None
    for start in starts:
        u = _project(start, upsilon, box, cfg.max_alternations)
        val = obj.value(u)
        if not math.isfinite(val):
            continue
        step, prev = cfg.step_init, None   # prev: (u, g) of the previous iterate
        for _ in range(cfg.max_iter):
            g = obj.gradient(u, cfg.fd_step)
            if prev is not None:
                # two-point step s's / s'y, capped: near the +inf region of a
                # cost an uncapped step overshoots and backtracks many times
                s_vec, y_vec = u - prev[0], g - prev[1]
                sty = float(np.vdot(s_vec, y_vec))
                cap = cfg.step_growth * step
                step = min(float(np.vdot(s_vec, s_vec)) / sty, cap) if sty > 0 else cap
            pg = u - _project(u - g, upsilon, box, cfg.max_alternations)
            if np.linalg.norm(pg) < cfg.grad_tol:
                break
            s = step
            for _ in range(cfg.max_backtracks):
                cand = _project(u - s * g, upsilon, box, cfg.max_alternations)
                cval = obj.value(cand)
                move = float(np.sum((u - cand) ** 2))
                if math.isfinite(cval) and cval <= val - cfg.armijo * move / max(s, 1e-300):
                    break
                s *= 0.5
            else:
                break  # no step satisfied the Armijo test
            decrease = val - cval
            prev, step = (u, g), s
            u, val = cand, cval
            if decrease <= _REL_DECREASE * max(abs(val), 1.0):
                break
        if val < best_val:
            best_val, best_u = val, u

    if best_u is None or not math.isfinite(best_val):
        return INF, None
    traj = Trajectory(
        window=Window(T=float(T), omega=float(omega)),
        terminal_state=x,
        velocities=best_u,
    )
    return ExtReal(best_val), traj


def moderate(prob: ModerationProblem, cfg: SolverConfig, rng=None):
    """Compute the moderated cost and its argmin trajectory.

    The returned value is a certified upper bound on the discretized infimum
    (local multi-start solver); +infinity with no argmin signals an upsilon
    outside the effective domain.
    """
    return _solve_window_problem(
        prob.cost, None, prob.T, prob.x, prob.omega, prob.upsilon, cfg,
        rng=rng, n_steps=prob.n_steps, admissible=prob.admissible,
    )


def jensen_gap(cost: CostField, T, x, omega, upsilon, cfg: SolverConfig, rng=None) -> float:
    """Moderation minus the pointwise cost l(upsilon) for velocity-only convex costs.

    Zero up to quadrature/solver tolerance when the convexity declaration is
    honest (Jensen); strictly negative gaps expose non-convexity.
    """
    if not (cost.velocity_only and cost.declared_convex_in_u):
        raise MisuseError("jensen_gap requires a velocity-only cost declared convex in u")
    lam, _ = _solve_window_problem(cost, None, T, x, omega, upsilon, cfg, rng=rng)
    pointwise = eval_cost(cost, float(T), x, upsilon)
    if not lam.is_finite and not pointwise.is_finite:
        return 0.0
    return lam.to_float() - pointwise.to_float()


@dataclass(frozen=True)
class ModerationTable:
    """Off-line grid of moderated costs over (omega, upsilon) pairs."""

    omega_grid: np.ndarray       # (n,) ascending positive apertures
    upsilon_grid: np.ndarray     # (m, l)
    values: np.ndarray           # (n, m), IEEE inf for infeasible cells
    argmins: list                # list of lists of Trajectory or None
    base_point: tuple            # (T, x)

    def value_at(self, i: int, j: int) -> ExtReal:
        return ExtReal(float(self.values[i, j])) if np.isfinite(self.values[i, j]) else INF


def build_moderation_table(cost, T, x, omega_grid, upsilon_grid, cfg: SolverConfig) -> ModerationTable:
    """Fill the (omega, upsilon) grid by independent moderate calls.

    Per-entry infeasibility is data (+infinity), never an error.  Entries get
    deterministic per-cell seeds so the table is reproducible regardless of
    evaluation order.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    upsilon_grid = np.asarray(upsilon_grid, dtype=float)
    if upsilon_grid.ndim == 1:
        upsilon_grid = upsilon_grid[:, None]
    if omega_grid.size == 0 or upsilon_grid.size == 0:
        raise MisuseError("moderation table grids must be non-empty")
    n, m = len(omega_grid), len(upsilon_grid)
    values = np.full((n, m), np.inf)
    argmins = [[None] * m for _ in range(n)]
    for i, om in enumerate(omega_grid):
        for j, ups in enumerate(upsilon_grid):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i, j]))
            lam, traj = _solve_window_problem(cost, None, T, x, float(om), ups, cfg, rng=rng)
            values[i, j] = lam.to_float()
            argmins[i][j] = traj
    return ModerationTable(
        omega_grid=omega_grid, upsilon_grid=upsilon_grid, values=values,
        argmins=argmins, base_point=(float(T), np.atleast_1d(np.asarray(x, dtype=float))),
    )


def moderation_table_to_csv(table: ModerationTable, path) -> None:
    """Columns omega, upsilon_1..upsilon_l, lambda; +infinity as the literal "inf"."""
    ell = table.upsilon_grid.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega"] + [f"upsilon_{h + 1}" for h in range(ell)] + ["lambda"])
        for i, om in enumerate(table.omega_grid):
            for j, ups in enumerate(table.upsilon_grid):
                v = table.values[i, j]
                writer.writerow(
                    [repr(float(om))]
                    + [repr(float(c)) for c in ups]
                    + ["inf" if np.isinf(v) else repr(float(v))]
                )
