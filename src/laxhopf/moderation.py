"""Moderated transaction costs: the inner constrained trajectory problem.

The moderation of a cost field at (T, x, omega, upsilon) is the smallest
normalized cumulated cost among trajectories anchored at x(T) = x whose average
transaction over the window equals upsilon.  The inner solver is a direct
transcription into N velocity variables: projected gradient descent with the
exact Euclidean projection onto the constraint set (the mean constraint, inside
the cost's velocity box), exact gradients and a small multi-start sweep.  The
gradient is the discrete adjoint of the window sum (Griewank & Walther,
*Evaluating Derivatives*, 2008): the states are a reverse cumulative sum of the
velocities, so one pass over the rows and the fields' ``partials`` gives it.
Every catalog cost and rate and the economy impetus cost carry ``partials``; a
user field without them falls back to central finite differences, 2*N*l
perturbed trajectories per gradient.  Each trial step is the two-point
(Barzilai-Borwein) step s's/s'y from the last displacement and gradient change,
capped at step_growth times the last accepted step, then Armijo backtracking.
A start stops at a small projected gradient, at an accepted decrease of at
most 1e-12 * max(|f|, 1), at a failed line search or after max_iter steps.
Infeasibility is a value (+infinity), not an exception, so the outer
minimization can fold over infeasible cells.

Many cells are solved at once: every (cell, start) pair is a lane of one
(L, N, l) array, and each objective or gradient batch covers all lanes still
descending.  Every lane keeps its own step, line search, projection and stop
rule, and a lane that stops leaves the batch.  A lane's arithmetic does not
depend on the other lanes, so a cell solved in any batch gives the same bits
as the cell solved alone.

The same machinery serves the interest-rate variant: an optional rate field
weights each quadrature node by the accumulation factor of its own trajectory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostField, eval_cost, eval_cost_batch, eval_rate_batch
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
_GRADIENT_ROWS = 1 << 15  # evaluator rows per finite-difference batch (bounds memory, not results)


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
    """Normalized (optionally rate-weighted) cumulated cost as a function of velocities.

    Every lane carries its own aperture, step and quadrature times; ``values``
    and ``gradient`` take the lane of each velocity matrix they price.
    """

    def __init__(self, cost, rate, T, omegas, terminal_state, n_steps, admissible=None):
        self.cost = cost
        self.rate = rate
        self.omega = np.asarray(omegas, dtype=float)                  # (L,)
        self.terminal = np.asarray(terminal_state, dtype=float)
        self.n = int(n_steps)
        self.ell = len(self.terminal)
        self.dt = self.omega / self.n
        self.scale = self.dt / self.omega
        self.mid_times = (float(T) - self.omega)[:, None] + self.dt[:, None] * (np.arange(self.n) + 0.5)
        self.bounds = None if admissible is None else np.array(
            [[admissible.bound_at(float(t)) for t in row] for row in self.mid_times]
        )

    def _rows(self, U: np.ndarray, lanes: np.ndarray):
        """Midpoint rows (t, X, U) of velocities U (B, N, l), flattened to B*N rows; and dt (B, 1)."""
        dt = self.dt[lanes][:, None]
        # x at node k is terminal - dt * sum_{j >= k} u_j; cost and rate see the step midpoint
        tail = U[:, ::-1, :].cumsum(axis=1)[:, ::-1, :] * dt[:, :, None]
        mids = (self.terminal - tail) + (0.5 * dt)[:, :, None] * U
        flat = (-1, self.ell)
        return self.mid_times[lanes].ravel(), mids.reshape(flat), U.reshape(flat), dt

    def _weights(self, rows, lanes: np.ndarray) -> np.ndarray:
        """Accumulation weights e^{I_k} (B, N); I_k integrates the rate from step k's midpoint to T."""
        t_flat, X_flat, U_flat, dt = rows
        mvals = eval_rate_batch(self.rate, t_flat, X_flat, U_flat).reshape(len(dt), self.n)
        tails = mvals[:, ::-1].cumsum(axis=1)[:, ::-1] * dt
        integ = tails - (0.5 * dt) * mvals
        if np.any(integ > _EXP_CAP):
            b, k = np.unravel_index(int(np.argmax(integ)), integ.shape)
            raise RateOverflowError(
                f"accumulated rate overflows exp at node {k} (t={self.mid_times[lanes[b], k]})"
            )
        return np.exp(integ)

    def values(self, U: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Objective of velocity matrices U (B, N, l) on lanes (B,) -> (B,) with inf."""
        rows = self._rows(U, lanes)
        lvals = eval_cost_batch(self.cost, *rows[:3]).reshape(len(U), self.n)
        if self.bounds is not None:
            norms = np.linalg.norm(U, axis=2)
            lvals = np.where(norms > self.bounds[lanes] + 1e-12, np.inf, lvals)
        if self.rate is not None:
            lvals = lvals * self._weights(rows, lanes)
        return self.scale[lanes] * lvals.sum(axis=1)

    def gradient(self, U: np.ndarray, lanes: np.ndarray, base: np.ndarray, fd_rel: float):
        """Gradients at velocity matrices U (B, N, l) of finite objective ``base`` (B,).

        The exact discrete adjoint when the cost and the rate have partials:
        with w_k = e^{I_k}, a_k = w_k l_k, c_k = dt sum_{i<k} a_i + (dt/2) a_k
        and q_k = w_k l_x(k) + c_k m_x(k),
        df/du_j = scale [w_j l_u(j) + c_j m_u(j) - (dt/2) q_j - dt sum_{k<j} q_k].
        Otherwise central finite differences (:meth:`_fd_gradient`).
        """
        if self.cost.partials is None or (self.rate is not None and self.rate.partials is None):
            return self._fd_gradient(U, lanes, base, fd_rel)
        rows = self._rows(U, lanes)
        dt = rows[3][:, :, None]

        def partials(fld):
            return [None if d is None else np.asarray(d, dtype=float).reshape(U.shape)
                    for d in fld.partials(*rows[:3])]

        lx, lu = partials(self.cost)
        G = np.zeros(U.shape) if lu is None else lu
        q = lx
        if self.rate is not None:
            w = self._weights(rows, lanes)
            a = w * eval_cost_batch(self.cost, *rows[:3]).reshape(w.shape)
            c = dt * (_before(a) + 0.5 * a)[:, :, None]
            mx, mu = partials(self.rate)
            G = w[:, :, None] * G
            if mu is not None:
                G = G + c * mu
            if lx is not None:
                q = w[:, :, None] * lx
            if mx is not None:
                q = c * mx if q is None else q + c * mx
        if q is not None:
            G = G - dt * (_before(q) + 0.5 * q)
        return self.scale[lanes][:, None, None] * G

    def _fd_gradient(self, U: np.ndarray, lanes: np.ndarray, base: np.ndarray, fd_rel: float):
        """Central finite-difference gradients; one-sided near the infinite region.

        ``base`` holds each lane's objective at U.  The perturbed rows are
        priced in chunks of at most _GRADIENT_ROWS evaluator rows.
        """
        B, n = len(U), U[0].size
        Z = U.reshape(B, n)
        H = fd_rel * np.maximum(1.0, np.abs(Z))
        idx = np.arange(n)
        vals = np.empty((B, 2 * n))
        per_call = max(1, _GRADIENT_ROWS // (2 * n * self.n))
        for lo in range(0, B, per_call):
            z, h = Z[lo:lo + per_call], H[lo:lo + per_call]
            pert = np.repeat(z[:, None, :], 2 * n, axis=1)
            pert[:, idx, idx] += h
            pert[:, n + idx, idx] -= h
            vals[lo:lo + per_call] = self.values(
                pert.reshape(-1, self.n, self.ell), np.repeat(lanes[lo:lo + per_call], 2 * n)
            ).reshape(-1, 2 * n)
        plus, minus = vals[:, :n], vals[:, n:]
        if np.isfinite(vals).all():
            return ((plus - minus) / (2 * H)).reshape(U.shape)
        fin_p, fin_m = np.isfinite(plus), np.isfinite(minus)
        base = base[:, None]
        with np.errstate(invalid="ignore"):
            g = np.where(fin_p & fin_m, (plus - minus) / (2 * H),
                         np.where(fin_p, (plus - base) / H,
                                  np.where(fin_m, (base - minus) / H, 0.0)))
        return g.reshape(U.shape)


def _before(a: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums along the step axis: out[:, k] = sum_{i<k} a[:, i]."""
    out = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
    return out


def _project(U: np.ndarray, upsilon: np.ndarray, box) -> np.ndarray:
    """Euclidean projection of each lane of U (B, N, l) onto {mean_k u_k = upsilon_b} in the box.

    Without a box this subtracts the residual mean.  With a box every (lane,
    coordinate) is clip(U - tau, lo, hi), where tau restores the mean: a
    continuous quadratic knapsack (Helgason, Kennington & Lall 1980; Kiwiel
    2008).  phi(tau) = sum_k clip(U_k - tau, lo, hi) is piecewise linear and
    nonincreasing with breakpoints U - hi and U - lo; it is priced exactly at
    all 2N sorted breakpoints, and tau solves the linear piece that crosses
    N * upsilon.  upsilon must lie inside the box.
    """
    upsilon, n = upsilon[:, None, :], U.shape[1]
    if box is None:
        return U - (U.sum(axis=1, keepdims=True) / n - upsilon)

    def at(a, i):
        return np.take_along_axis(a, i, axis=1)

    srt = np.sort(U, axis=1)
    # a bound further than the spread of U from upsilon cannot bind; pulling it in keeps tau finite
    reach = srt[:, -1:] - srt[:, :1] + 1.0
    lo = np.maximum(box[:, 0], upsilon - reach)
    hi = np.minimum(box[:, 1], upsilon + reach)
    points = np.concatenate([srt - hi, srt - lo], axis=1)            # (B, 2N, l)
    order = np.argsort(points, axis=1, kind="stable")
    points = at(points, order)
    # past a breakpoint the n_below smallest entries are below hi and the n_low smallest at lo
    n_below = np.cumsum(order < n, axis=1)
    n_low = np.cumsum(order >= n, axis=1)
    prefix = np.concatenate([np.zeros_like(srt[:, :1]), srt.cumsum(axis=1)], axis=1)
    inner = at(prefix, n_below) - at(prefix, n_low)
    clamped = lo * n_low + hi * (n - n_below)
    n_inner = n_below - n_low
    phi = clamped + inner - points * n_inner
    target = n * upsilon
    j = np.argmax(phi <= target, axis=1)[:, None, :]                 # phi ends at n * lo <= target
    k = np.maximum(j - 1, 0)
    width = at(n_inner, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = (at(clamped, k) + at(inner, k) - target) / width
    tau = np.where((j > 0) & (width > 0), tau, at(points, j))
    return np.clip(U - tau, lo, hi)


def _solve_cells(cost, rate, T, x, omegas, upsilons, cfg: SolverConfig, rngs,
                 n_steps=None, admissible=None):
    """Solve many (omega, upsilon) cells in lockstep, one lane per start of each cell.

    ``rngs`` holds one seed or generator per cell; returns one
    (ExtReal lambda, Trajectory or None) per cell.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_steps = int(n_steps or cfg.n_steps)
    if n_steps < 1:
        raise MisuseError("moderation needs at least one step")
    omegas = [float(om) for om in omegas]
    for om in omegas:
        if om <= 0:
            raise MisuseError(f"moderation needs a positive aperture, got {om}")
    upsilons = [np.atleast_1d(np.asarray(u, dtype=float)) for u in upsilons]
    box = None if cost.domain_box is None else np.asarray(cost.domain_box, dtype=float)
    out = [(INF, None)] * len(omegas)

    cell_of, starts = [], []
    for i, (ups, rng) in enumerate(zip(upsilons, rngs)):
        if box is not None and (np.any(ups < box[:, 0]) or np.any(ups > box[:, 1])):
            continue  # the mean of box-constrained steps cannot leave the box
        rng = np.random.default_rng(cfg.seed if rng is None else rng)
        first = np.tile(ups, (n_steps, 1))
        scale = 0.5 * float(np.linalg.norm(ups)) + 0.1
        starts.append(first)
        for _ in range(cfg.multi_starts):
            starts.append(first + rng.uniform(-1.0, 1.0, size=(n_steps, len(ups))) * scale)
        cell_of += [i] * (cfg.multi_starts + 1)
    if not starts:
        return out
    cell_of = np.asarray(cell_of)
    ups = np.asarray(upsilons)[cell_of]
    obj = _WindowObjective(cost, rate, T, np.asarray(omegas)[cell_of], x, n_steps, admissible)

    def project(V, lanes):
        return _project(V, ups[lanes], box)

    def dots(V, W):  # per-lane <V, W>; matmul takes the same dot kernel as np.vdot
        return np.matmul(V.reshape(len(V), 1, -1), W.reshape(len(W), -1, 1))[:, 0, 0]

    lanes = np.arange(len(cell_of))
    U = project(np.asarray(starts), lanes)
    val = obj.values(U, lanes)
    # the lanes still descending: ids, iterate u, value v, last accepted step;
    # a lane that stops leaves its iterate and value in U and val
    ids = np.flatnonzero(np.isfinite(val))
    u, v = U[ids], val[ids]
    step = np.full(len(ids), float(cfg.step_init))
    prev_u = prev_g = None

    def keep(go):
        nonlocal ids, u, v, step, prev_u, prev_g, g
        U[ids[~go]], val[ids[~go]] = u[~go], v[~go]
        ids, u, v, step, prev_u, prev_g, g = (
            a[go] for a in (ids, u, v, step, prev_u, prev_g, g))

    for _ in range(cfg.max_iter):
        if not ids.size:
            break
        g = obj.gradient(u, ids, v, cfg.fd_step)
        if prev_u is not None:
            # two-point step s's / s'y, capped: near the +inf region of a cost
            # an uncapped step overshoots and backtracks many times
            s_vec, y_vec = u - prev_u, g - prev_g
            sty = dots(s_vec, y_vec)
            cap = cfg.step_growth * step
            curved = sty > 0
            step = np.where(curved, np.minimum(dots(s_vec, s_vec) / np.where(curved, sty, 1.0), cap), cap)
        else:
            prev_u = prev_g = u
        pg = u - project(u - g, ids)
        go = ~(np.sqrt(dots(pg, pg)) < cfg.grad_tol)
        if not go.all():
            keep(go)
        # Armijo backtracking, all searching lanes priced together
        s, cand, cval = step.copy(), u.copy(), v.copy()
        todo = np.arange(len(ids))
        for _ in range(cfg.max_backtracks):
            if not todo.size:
                break
            trial = project(u[todo] - s[todo][:, None, None] * g[todo], ids[todo])
            tval = obj.values(trial, ids[todo])
            move = np.sum(((u[todo] - trial) ** 2).reshape(len(todo), -1), axis=1)
            ok = np.isfinite(tval) & (tval <= v[todo] - cfg.armijo * move / np.maximum(s[todo], 1e-300))
            cand[todo[ok]], cval[todo[ok]] = trial[ok], tval[ok]
            s[todo[~ok]] *= 0.5
            todo = todo[~ok]
        go = v - cval > _REL_DECREASE * np.maximum(np.abs(cval), 1.0)
        go[todo] = False  # no step satisfied the Armijo test
        prev_u, prev_g, u, v, step = u, g, cand, cval, s
        if not go.all():
            keep(go)
    U[ids], val[ids] = u, v

    for i in set(cell_of.tolist()):
        own = np.flatnonzero(cell_of == i)
        best = own[int(np.argmin(val[own]))]   # first start wins ties
        if math.isfinite(val[best]):
            traj = Trajectory(window=Window(T=float(T), omega=omegas[i]),
                              terminal_state=x, velocities=U[best].copy())
            out[i] = (ExtReal(float(val[best])), traj)
    return out


def _solve_window_problem(cost, rate, T, x, omega, upsilon, cfg: SolverConfig,
                          rng=None, n_steps=None, admissible=None):
    """One cell of :func:`_solve_cells`; returns (ExtReal lambda, Trajectory or None)."""
    return _solve_cells(cost, rate, T, x, [omega], [upsilon], cfg, [rng],
                        n_steps=n_steps, admissible=admissible)[0]


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
    """Fill the (omega, upsilon) grid in one lockstep solve of every entry.

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
    cells = [(i, j) for i in range(n) for j in range(m)]
    solved = _solve_cells(
        cost, None, T, x, [omega_grid[i] for i, _ in cells], [upsilon_grid[j] for _, j in cells],
        cfg, [np.random.SeedSequence([cfg.seed, i, j]) for i, j in cells],
    )
    values = np.array([lam.to_float() for lam, _ in solved]).reshape(n, m)
    argmins = [[traj for _, traj in solved[i * m:(i + 1) * m]] for i in range(n)]
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
