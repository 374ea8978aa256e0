"""Moderated transaction costs: the inner constrained trajectory problem.

The moderation of a cost field at (T, x, omega, upsilon) is the smallest
normalized cumulated cost among trajectories anchored at x(T) = x whose average
transaction over the window equals upsilon, discretized into N velocity steps.

A separable cost (``CostField.separable``: l = a(t) sum_h psi(u_h)) with no rate
or a rate of t alone and no ``admissible`` bound prices step k at a fixed
c_k = w_k a(t_k), so the window is solved in closed form, with no starts, seeds
or iterations (:func:`_separable_argmins`), and the value returned is the
discretized minimum.  Every other window takes descent.

Descent is a direct transcription into the N velocity variables: projected
gradient descent with the exact Euclidean projection onto the constraint set
(the mean constraint, inside the cost's velocity box), exact gradients and a
small multi-start sweep.  The gradient is the discrete adjoint of the window
sum (Griewank & Walther, *Evaluating Derivatives*, 2008): the states are a
reverse cumulative sum of the velocities, so one pass over the rows and the
fields' ``partials`` gives it.  Every catalog cost and rate and the economy
impetus cost carry ``partials``; a user field without them falls back to
central finite differences (step _FD_STEP), 2*N*l perturbed trajectories per
gradient.  Each trial step is the
two-point (Barzilai-Borwein) step s's/s'y from the last displacement and
gradient change, capped at _STEP_GROWTH times the last accepted step (the first
is _STEP_INIT), then Armijo backtracking (_ARMIJO, _MAX_BACKTRACKS trials).  A
start stops at a projected gradient below _GRAD_TOL, at an accepted decrease of
at most _REL_DECREASE * max(|f|, 1), at a failed line search or after max_iter
steps.  These constants are numerical tuning, not settings of
:class:`SolverConfig`.  Infeasibility is a value (+infinity), not an exception,
so the outer minimization can fold over infeasible cells.

Many cells are solved at once: every (cell, start) pair is a lane of one
(L, N, l) array, and each objective or gradient batch covers all lanes still
descending (a closed-form cell is one lane, priced in one batch).  Every lane
keeps its own step, line search, projection and stop rule, and a lane that
stops leaves the batch.  A lane's arithmetic does not
depend on the other lanes, so a cell solved in any batch gives the same bits
as the cell solved alone.

A descent step prices the objective once when every lane's first Armijo
trial passes; the lanes that fail price their next halvings together in one
more batch (:func:`_line_search`), with the steps and points of halving one
at a time.  The gradient reuses the rows its accepted trial was priced with.

A solve of many cells returns arrays, lambda (C,) and argmin velocities
(C, N, l), inf and NaN for an infeasible cell; :func:`_cell_result` makes the
public (ExtReal, Trajectory) pair of one cell.

The same machinery serves the interest-rate variant: an optional rate field
m(t, x, u) weights each quadrature node by the accumulation factor of its own
trajectory, exp of the tail integral of m from the node to T along the
trajectory itself (:func:`accumulate_rate`).  With m identically zero every
rate-weighted operation reproduces its undiscounted counterpart bit for bit
under the same solver configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import (CostField, RateField, _dims, _domain_box, _finite, _integer, _number, _rows, eval_cost,
                    eval_cost_batch, eval_rate_batch)
from .errors import EvaluationFault, MisuseError, RateOverflowError
from .extreal import INF, ExtReal
from .trajectories import (AdmissibleSpec, Trajectory, Window, _bounds_at, _node_states, _too_fast,
                           _write_csv)

__all__ = [
    "SolverConfig",
    "ModerationProblem",
    "ModerationTable",
    "AccumulationProfile",
    "moderate",
    "discounted_moderate",
    "accumulate_rate",
    "build_moderation_table",
    "jensen_gap",
    "moderation_table_to_csv",
]

_EXP_CAP = 700.0  # exp overflow guard on accumulated rates
_REL_DECREASE = 1e-12  # a start stops once an accepted step gains <= this * max(|f|, 1)
_GRAD_TOL = 1e-8       # a start stops once its projected gradient norm is below this
_ARMIJO = 1e-4         # sufficient-decrease factor of the line search
_STEP_INIT = 1.0       # first trial step of each start
_STEP_GROWTH = 2.0     # cap on a trial step, as a multiple of the last accepted one
_MAX_BACKTRACKS = 40   # trials of one line search: the first step and its halvings
_FD_STEP = 1e-6        # relative central-difference step of a field without partials
_GRADIENT_ROWS = 1 << 15  # evaluator rows per finite-difference batch (bounds memory, not results)
# Halvings a failed Armijo trial prices in one batch (bounds wasted rows, not results).
_LADDER = 8
# SolverConfig's range rules, also read by the CLI: the least legal value of each field.
_SOLVER_AT_LEAST = {"n_steps": 1, "multi_starts": 0, "max_iter": 0, "seed": 0}


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver settings; every default is deliberate and reproducible.

    Every field is an integer (an int or a numpy integer, never a bool) at least
    its ``_SOLVER_AT_LEAST`` bound.

    The descent's constants are not settings: see _GRAD_TOL, _ARMIJO, _STEP_INIT,
    _STEP_GROWTH, _MAX_BACKTRACKS and _FD_STEP in this module.
    """

    n_steps: int = 32              # velocity steps of a window
    multi_starts: int = 8          # perturbed starts beyond the constant one
    max_iter: int = 200            # descent steps per start; 0 evaluates the starts only
    seed: int = 0

    def __post_init__(self):
        for name, low in _SOLVER_AT_LEAST.items():
            _number(low, integer=True, **{f"SolverConfig.{name}": getattr(self, name)})


@dataclass(frozen=True)
class ModerationProblem:
    cost: CostField
    T: float
    x: np.ndarray            # terminal state
    omega: float
    upsilon: np.ndarray      # target average transaction
    admissible: Optional[AdmissibleSpec] = None


class _WindowObjective:
    """Normalized (optionally rate-weighted) cumulated cost as a function of velocities.

    Every lane carries its own aperture, step and quadrature times; ``priced``,
    ``values`` and ``gradient`` take the lane of each velocity matrix they price.
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
        self.bounds = None if admissible is None else np.broadcast_to(
            _bounds_at(admissible.velocity_bound, self.mid_times), self.mid_times.shape)

    def _rows(self, U: np.ndarray, lanes: np.ndarray, mids=None):
        """Midpoint rows (t, X, U) of velocities U (B, N, l), flattened to B*N rows; and dt (B, 1).

        ``mids`` holds the midpoint states (B, N, l) when they are already known.
        """
        dt = self.dt[lanes][:, None]
        if mids is None:
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

    def priced(self, U: np.ndarray, lanes: np.ndarray):
        """Objective of velocity matrices U (B, N, l) on lanes (B,) -> (B,) with inf, and the
        rows it priced: midpoint states (B, N, l), cost rows (B, N) and weights (B, N) or None.
        """
        rows = self._rows(U, lanes)
        raw = lvals = eval_cost_batch(self.cost, *rows[:3]).reshape(len(U), self.n)
        if self.bounds is not None:
            lvals = np.where(_too_fast(U, self.bounds[lanes]), np.inf, lvals)
        w = None
        if self.rate is not None:
            w = self._weights(rows, lanes)
            lvals = lvals * w
        return self.scale[lanes] * lvals.sum(axis=1), (rows[1].reshape(U.shape), raw, w)

    def values(self, U: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Objective of velocity matrices U (B, N, l) on lanes (B,) -> (B,) with inf."""
        return self.priced(U, lanes)[0]

    def gradient(self, U: np.ndarray, lanes: np.ndarray, base: np.ndarray, rows):
        """Gradients at velocity matrices U (B, N, l) of finite objective ``base`` (B,).

        The exact discrete adjoint when the cost and the rate have partials:
        with w_k = e^{I_k}, a_k = w_k l_k, c_k = dt sum_{i<k} a_i + (dt/2) a_k
        and q_k = w_k l_x(k) + c_k m_x(k),
        df/du_j = scale [w_j l_u(j) + c_j m_u(j) - (dt/2) q_j - dt sum_{k<j} q_k],
        on the ``rows`` :meth:`priced` returned for U.  Otherwise central
        finite differences (:meth:`_fd_gradient`).
        """
        if self.cost.partials is None or (self.rate is not None and self.rate.partials is None):
            return self._fd_gradient(U, lanes, base)
        mids, raw, w = rows
        rows = self._rows(U, lanes, mids)
        dt = rows[3][:, :, None]

        def partials(fld):
            return [None if d is None else np.asarray(d, dtype=float).reshape(U.shape)
                    for d in fld.partials(*rows[:3])]

        lx, lu = partials(self.cost)
        G = np.zeros(U.shape) if lu is None else lu
        q = lx
        if self.rate is not None:
            a = w * raw
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

    def _fd_gradient(self, U: np.ndarray, lanes: np.ndarray, base: np.ndarray):
        """Central finite-difference gradients; one-sided near the infinite region.

        ``base`` holds each lane's objective at U.  The perturbed rows are
        priced in chunks of at most _GRADIENT_ROWS evaluator rows.
        """
        B, n = len(U), U[0].size
        Z = U.reshape(B, n)
        H = _FD_STEP * np.maximum(1.0, np.abs(Z))
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


def _project(U: np.ndarray, upsilon: np.ndarray, box, scale=None) -> np.ndarray:
    """Projection of each lane of U (B, N, l) onto {mean_k u_k = upsilon_b} in the box, in the
    metric sum_k |u_k - U_k|^2 / s_k of positive step scales s = ``scale`` (B, N, 1)
    (None: s = 1, the Euclidean projection).

    Every (lane, coordinate) is clip(U - tau * s, lo, hi), where tau restores
    the mean.  Without a box tau is the residual mean over the mean scale.
    With a box this is a continuous quadratic knapsack (Helgason, Kennington &
    Lall 1980; Kiwiel 2008).  phi(tau) = sum_k clip(U_k - tau s_k, lo, hi) is
    piecewise linear and nonincreasing with breakpoints (U - hi) / s and
    (U - lo) / s; it is priced exactly at all 2N sorted breakpoints, and tau
    solves the linear piece that crosses N * upsilon.  upsilon must lie inside
    the box.
    """
    upsilon, n = upsilon[:, None, :], U.shape[1]
    if box is None:
        shift = U.sum(axis=1, keepdims=True) / n - upsilon
        return U - (shift if scale is None else scale * (shift / (scale.sum(axis=1, keepdims=True) / n)))

    def at(a, i):
        return np.take_along_axis(a, i, axis=1)

    # a bound further from upsilon than the result can reach cannot bind; pulling it in keeps tau finite
    if scale is None:
        srt, s = np.sort(U, axis=1), 1.0   # clip(U - tau) spreads no wider than U; its mean is upsilon
        reach = srt[:, -1:] - srt[:, :1] + 1.0
    else:   # in the metric the result is no further from U than the constant path upsilon is
        srt, s = U, np.broadcast_to(scale, U.shape)
        d = U - upsilon
        reach = (np.abs(d).max(axis=1, keepdims=True) + 1.0
                 + np.sqrt(s.max(axis=1, keepdims=True) * (d * d / s).sum(axis=1, keepdims=True)))
    lo = np.maximum(box[:, 0], upsilon - reach)
    hi = np.minimum(box[:, 1], upsilon + reach)
    points = np.concatenate([(srt - hi) / s, (srt - lo) / s], axis=1)   # (B, 2N, l)
    order = np.argsort(points, axis=1, kind="stable")
    points = at(points, order)
    # past a breakpoint n_below entries have left hi and n_low reached lo
    leaves = order < n
    n_below = np.cumsum(leaves, axis=1)
    n_low = np.cumsum(~leaves, axis=1)
    n_inner = n_below - n_low

    def inner_sum(a):   # the sum of a over the entries strictly between lo and hi, 0 when none is
        a = at(np.concatenate([a, a], axis=1), order)
        sums = np.cumsum(np.where(leaves, a, 0.0), axis=1) - np.cumsum(np.where(leaves, 0.0, a), axis=1)
        return np.where(n_inner > 0, sums, 0.0)

    inner = inner_sum(srt)
    clamped = lo * n_low + hi * (n - n_below)
    width = n_inner if scale is None else inner_sum(s)
    phi = clamped + inner - points * width
    target = n * upsilon
    j = np.argmax(phi <= target, axis=1)[:, None, :]                 # phi ends at n * lo <= target
    k = np.maximum(j - 1, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = (at(clamped, k) + at(inner, k) - target) / at(width, k)
    tau = np.where((j > 0) & (at(n_inner, k) > 0), tau, at(points, j))
    return np.clip(U - tau * s, lo, hi)


def _cheapest_first(c: np.ndarray, upsilon: np.ndarray, box) -> np.ndarray:
    """Minimizers U (B, N, l) of sum_k c_k |u_k| per coordinate, for positive step
    prices c (B, N), under mean_k u_k = upsilon_b (B, l) inside the box.

    Each step starts where the box lets it stand nearest to zero on the side
    of upsilon, and the rest of the mean fills the cheapest steps first up to
    the box; steps of equal price share their part evenly, so equal prices
    give the constant path.
    """
    n = c.shape[1]
    sign = np.where(upsilon < 0, -1.0, 1.0)[:, None, :]
    m = np.abs(upsilon)[:, None, :]
    lo = -np.inf if box is None else np.where(sign > 0, box[:, 0], -box[:, 1])
    hi = np.inf if box is None else np.where(sign > 0, box[:, 1], -box[:, 0])
    base = np.maximum(lo, 0.0)
    per = m - base                                   # the mean each step must add to base
    cap = np.minimum(hi - base, n * per)             # finite: no step takes more than the whole
    rank = np.argsort(c, axis=1, kind="stable")
    srt = np.take_along_axis(c, rank, axis=1)

    def run_start(v):   # the position of the first of each entry's run of equal prices
        tie = np.concatenate([np.zeros((len(v), 1), bool), v[:, 1:] == v[:, :-1]], axis=1)
        return np.maximum.accumulate(np.where(tie, 0, np.arange(n)), axis=1)[:, :, None]

    first = run_start(srt)
    size = n - run_start(srt[:, ::-1])[:, ::-1] - first
    # a run of equal prices shares what the cheaper steps left, each step up to cap
    fill = np.clip(per * (n / size) - cap * (first / size), 0.0, cap)
    U = np.empty(fill.shape)
    np.put_along_axis(U, np.broadcast_to(rank[:, :, None], U.shape), base + fill, axis=1)
    return sign * np.minimum(U, hi)   # base + fill may round past hi


def _line_search(obj, project, ids, u, v, g, step):
    """Armijo backtracking of lanes ``ids`` from iterates u (values v) along -g.

    Every lane first tries its own step, all lanes in one pass.  The lanes that
    fail price their next halvings s/2, s/4, ... together, _LADDER rungs a
    pass, and each takes its first passing rung: the step and point that
    backtracking one rung a pass accepts.  If a ladder faults, the rest of the
    search goes one rung a pass, so only a trial the one-rung search prices
    can raise.  Returns the next iterates, their values and priced rows, the
    accepted steps and the positions of the lanes where no step passed (those
    keep u and v).
    """
    def trials(at, s):   # trial points of lanes ``at`` at steps s, their values, rows and Armijo test
        cand = project(u[at] - s[:, None, None] * g[at], ids[at])
        cval, crows = obj.priced(cand, ids[at])
        move = np.sum(((u[at] - cand) ** 2).reshape(len(cand), -1), axis=1)
        ok = np.isfinite(cval) & (cval <= v[at] - _ARMIJO * move / np.maximum(s, 1e-300))
        return cand, cval, crows, ok

    trial, tval, rows, ok = trials(slice(None), step)
    fail = np.flatnonzero(~ok)
    if not fail.size:
        return trial, tval, rows, step, fail
    # the ladder writes its winners into the first pass's arrays; an evaluator may own its output
    rows, step = [None if a is None else a.copy() for a in rows], step.copy()
    left, width = _MAX_BACKTRACKS - 1, _LADDER
    while fail.size and left:
        r = min(width, left)
        rungs = np.empty((len(fail), r))
        rungs[:, 0] = step[fail] * 0.5
        for j in range(1, r):
            rungs[:, j] = rungs[:, j - 1] * 0.5
        try:
            cand, cval, crows, ok = trials(np.repeat(fail, r), rungs.ravel())
        except (RateOverflowError, EvaluationFault):
            if r == 1:
                raise
            width = 1
            continue
        ok = ok.reshape(-1, r)
        found = ok.any(axis=1)
        # a lane takes its first passing rung; a lane with none carries its last to the next ladder
        pick = np.arange(len(fail)) * r + np.where(found, ok.argmax(axis=1), r - 1)
        trial[fail], tval[fail], step[fail] = cand[pick], cval[pick], rungs.ravel()[pick]
        for a, b in zip(rows, crows):
            if a is not None:
                a[fail] = b[pick]
        fail, left = fail[~found], left - r
    trial[fail], tval[fail] = u[fail], v[fail]
    return trial, tval, rows, step, fail


def _solve_cells(cost, rate, T, x, omegas, upsilons, cfg: SolverConfig, seed_of, admissible=None,
                 names=("omega", "upsilon")):
    """Solve many (omega, upsilon) cells: separable windows in closed form, the rest
    in lockstep descent with one lane per start of each cell.

    ``seed_of(c)`` gives the seed or generator of cell c (None: ``cfg.seed``),
    called only for the cells whose descent draws starts; misuse messages call the
    apertures and upsilons ``names``.  Returns lambda (C,) and the argmin
    velocities V (C, N, l): inf and a NaN row for an infeasible cell.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    omegas, upsilons, n_steps = np.asarray(omegas, dtype=float), _rows(upsilons), cfg.n_steps
    _finite(T=T, x=x, **{names[1]: upsilons})
    if len(omegas) != len(upsilons):
        raise MisuseError(f"moderation needs one upsilon per aperture, got "
                          f"{len(omegas)} apertures, {len(upsilons)} upsilons")
    if not np.all((omegas > 0) & (omegas < np.inf)):
        raise MisuseError(f"moderation needs positive finite apertures, got {names[0]} = {omegas.tolist()}")
    _dims(x.size, **{names[1]: upsilons})
    box = None if cost.domain_box is None else _domain_box(cost.domain_box, x.size)
    lam, V = np.full(len(omegas), np.inf), np.full((len(omegas), n_steps, x.size), np.nan)

    def take_best(cells, U, val, n_starts):   # each cell's best start; the first start wins ties
        best = np.arange(len(cells)) * n_starts + val.reshape(-1, n_starts).argmin(axis=1)
        fin = np.isfinite(val[best])
        lam[cells[fin]], V[cells[fin]] = val[best[fin]], U[best[fin]]

    # the mean of box-constrained steps cannot leave the box
    cells = (np.arange(len(omegas)) if box is None else
             np.flatnonzero(~np.any((upsilons < box[:, 0]) | (upsilons > box[:, 1]), axis=1)))
    if cells.size and cost.separable is not None and admissible is None and (rate is None or rate.time_only):
        obj = _WindowObjective(cost, rate, T, omegas[cells], x, n_steps)
        U, exact = _separable_argmins(obj, cost.separable, upsilons[cells], box)
        lanes = np.flatnonzero(exact)
        take_best(cells[lanes], U[lanes], obj.values(U[lanes], lanes), 1)
        cells = cells[~exact]
    if not cells.size:
        return lam, V
    # lane c * n_starts + k is start k of cell c; start 0 is the constant path
    n_starts = cfg.multi_starts + 1
    ups = np.repeat(upsilons[cells], n_starts, axis=0)                        # (L, l)
    starts = np.repeat(ups[:, None, :], n_steps, axis=1)                       # (L, N, l)
    if n_starts > 1:
        for c, i in enumerate(cells.tolist()):
            seed = seed_of(i)
            rng = np.random.default_rng(cfg.seed if seed is None else seed)
            scale = 0.5 * float(np.linalg.norm(upsilons[i])) + 0.1
            noise = rng.uniform(-1.0, 1.0, size=(n_starts - 1, n_steps, ups.shape[1]))
            starts[c * n_starts + 1:(c + 1) * n_starts] += noise * scale
    obj = _WindowObjective(cost, rate, T, np.repeat(omegas[cells], n_starts), x, n_steps, admissible)

    def project(V, lanes):
        return _project(V, ups[lanes], box)

    def dots(V, W):  # per-lane <V, W>; matmul takes the same dot kernel as np.vdot
        return np.matmul(V.reshape(len(V), 1, -1), W.reshape(len(W), -1, 1))[:, 0, 0]

    lanes = np.arange(len(ups))
    U = project(starts, lanes)
    val, rows = obj.priced(U, lanes)
    # the lanes still descending: ids, iterate u, value v, the rows priced at u,
    # last accepted step; a lane that stops leaves its iterate and value in U and val
    ids = np.flatnonzero(np.isfinite(val))
    u, v = U[ids], val[ids]
    rows = tuple(None if a is None else a[ids] for a in rows)
    step = np.full(len(ids), _STEP_INIT)
    prev_u = prev_g = None

    def keep(go):
        nonlocal ids, u, v, rows, step, prev_u, prev_g, g
        U[ids[~go]], val[ids[~go]] = u[~go], v[~go]
        ids, u, v, step, prev_u, prev_g, g = (
            a[go] for a in (ids, u, v, step, prev_u, prev_g, g))
        rows = tuple(None if a is None else a[go] for a in rows)

    for _ in range(cfg.max_iter):
        if not ids.size:
            break
        g = obj.gradient(u, ids, v, rows)
        if prev_u is not None:
            # two-point step s's / s'y, capped: near the +inf region of a cost
            # an uncapped step overshoots and backtracks many times
            s_vec, y_vec = u - prev_u, g - prev_g
            sty = dots(s_vec, y_vec)
            cap = _STEP_GROWTH * step
            curved = sty > 0
            step = np.where(curved, np.minimum(dots(s_vec, s_vec) / np.where(curved, sty, 1.0), cap), cap)
        else:
            prev_u = prev_g = u
        pg = u - project(u - g, ids)
        go = ~(np.sqrt(dots(pg, pg)) < _GRAD_TOL)
        if not go.all():
            keep(go)
            if not ids.size:
                break
        trial, tval, rows, step, fail = _line_search(obj, project, ids, u, v, g, step)
        go = v - tval > _REL_DECREASE * np.maximum(np.abs(tval), 1.0)
        go[fail] = False
        prev_u, prev_g, u, v = u, g, trial, tval
        if not go.all():
            keep(go)
    U[ids], val[ids] = u, v
    take_best(cells, U, val, n_starts)
    return lam, V


def _separable_argmins(obj: _WindowObjective, separable, ups: np.ndarray, box):
    """Closed-form window minimizers U (L, N, l) of a separable cost on the lanes of
    ``obj``, and the lanes (L,) they solve.

    With l = a(t) sum_h psi(u_h) and a rate of t alone, step k's price
    c_k = w_k a(t_k) does not depend on the path, so each coordinate is one
    resource allocation: min sum_k c_k psi(u_k) subject to mean u = upsilon
    in the box.  The square gives u_k = clip(mu / c_k, lo, hi), the weighted
    projection of 0 (Kiwiel 2008; Patriksson 2008); abs fills the cheapest
    steps first; the indicator of zero takes the constant path, feasible iff
    the cost is finite there.  A lane with a step price that is not positive
    is not solved.
    """
    shape, a = separable
    lanes = np.arange(len(ups))
    U = np.repeat(ups[:, None, :], obj.n, axis=1)          # the constant path
    c = np.asarray(a(obj.mid_times.ravel()), dtype=float).reshape(obj.mid_times.shape)
    if obj.rate is not None:   # the weights of a rate of t alone, priced on any path
        c = obj._weights(obj._rows(U, lanes), lanes) * c
    ok = np.full(len(ups), True) if shape == "zero" else np.all(np.isfinite(c) & (c > 0), axis=1)
    if shape == "square":
        U[ok] = _project(np.zeros_like(U[ok]), ups[ok], box, (1.0 / c[ok])[:, :, None])
    elif shape == "abs":
        U[ok] = _cheapest_first(c[ok], ups[ok], box)
    return U, ok


def _cell_result(lam: float, v, T, x, omega):
    """The public result of one solved cell: (ExtReal lambda, argmin Trajectory);
    (INF, None) for an infeasible cell, and no trajectory when ``v`` is None."""
    if not math.isfinite(lam):
        return INF, None
    traj = None if v is None else Trajectory(
        window=Window(T=float(T), omega=float(omega)),
        terminal_state=np.atleast_1d(np.asarray(x, dtype=float)), velocities=v)
    return ExtReal(float(lam)), traj


def moderate(prob: ModerationProblem, cfg: SolverConfig, rng=None):
    """Compute the moderated cost and its argmin trajectory.

    The returned value is the discretized minimum for a separable cost (closed
    form) and otherwise an upper bound on it (local multi-start descent);
    +infinity with no argmin signals an upsilon outside the effective domain.
    """
    lam, V = _solve_cells(prob.cost, None, prob.T, prob.x, [prob.omega], [prob.upsilon], cfg,
                          lambda c: rng, prob.admissible)
    return _cell_result(lam[0], V[0], prob.T, prob.x, prob.omega)


def discounted_moderate(cost: CostField, rate: RateField, T: float, x,
                        omega: float, upsilon, cfg: SolverConfig, rng=None):
    """Moderation with the integrand weighted by the trajectory's own accumulation factor."""
    lam, V = _solve_cells(cost, rate, T, x, [omega], [upsilon], cfg, lambda c: rng)
    return _cell_result(lam[0], V[0], T, x, omega)


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


def jensen_gap(cost: CostField, T, x, omega, upsilon, cfg: SolverConfig, rng=None) -> float:
    """Moderation minus the pointwise cost l(upsilon) for velocity-only convex costs.

    Zero up to quadrature/solver tolerance when the convexity declaration is
    honest (Jensen); strictly negative gaps expose non-convexity.
    """
    if not (cost.velocity_only and cost.declared_convex_in_u):
        raise MisuseError("jensen_gap requires a velocity-only cost declared convex in u")
    lam = float(_solve_cells(cost, None, T, x, [omega], [upsilon], cfg, lambda c: rng)[0][0])
    pointwise = eval_cost(cost, float(T), x, upsilon)
    if math.isinf(lam) and not pointwise.is_finite:
        return 0.0
    return lam - pointwise.to_float()


def _lookup(values: np.ndarray, index: tuple) -> ExtReal:
    """values[index]; a wrong count of indices, or an index that is not an integer in
    [0, size) of its axis, is misuse: a lookup never wraps."""
    if len(index) != values.ndim:
        raise MisuseError(f"a lookup needs {values.ndim} indices, got {len(index)}")
    for axis, (i, size) in enumerate(zip(index, values.shape)):
        if not (_integer(i) and 0 <= i < size):
            raise MisuseError(f"index {i} is outside axis {axis} of size {size}")
    return ExtReal(float(values[index]))


@dataclass(frozen=True)
class ModerationTable:
    """Off-line grid of moderated costs over (omega, upsilon) pairs."""

    omega_grid: np.ndarray       # (n,) ascending positive apertures
    upsilon_grid: np.ndarray     # (m, l)
    values: np.ndarray           # (n, m), IEEE inf for infeasible cells
    argmins: list                # list of lists of Trajectory or None
    base_point: tuple            # (T, x)

    def value_at(self, i: int, j: int) -> ExtReal:
        return _lookup(self.values, (i, j))


def build_moderation_table(cost, T, x, omega_grid, upsilon_grid, cfg: SolverConfig) -> ModerationTable:
    """Fill the (omega, upsilon) grid in one lockstep solve of every entry.

    Per-entry infeasibility is data (+infinity), never an error.  Entries that
    take descent get deterministic per-cell seeds so the table is reproducible
    regardless of evaluation order.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    upsilon_grid = _rows(upsilon_grid)
    if omega_grid.size == 0 or upsilon_grid.size == 0:
        raise MisuseError("moderation table grids must be non-empty")
    n, m = len(omega_grid), len(upsilon_grid)
    lam, V = _solve_cells(
        cost, None, T, x, np.repeat(omega_grid, m), np.tile(upsilon_grid, (n, 1)),
        cfg, lambda c: np.random.SeedSequence([cfg.seed, *divmod(c, m)]), names=("omega_grid", "upsilon_grid"),
    )
    argmins = [[_cell_result(lam[i * m + j], V[i * m + j], T, x, omega_grid[i])[1] for j in range(m)]
               for i in range(n)]
    return ModerationTable(
        omega_grid=omega_grid, upsilon_grid=upsilon_grid, values=lam.reshape(n, m),
        argmins=argmins, base_point=(float(T), np.atleast_1d(np.asarray(x, dtype=float))),
    )


def moderation_table_to_csv(table: ModerationTable, path) -> None:
    """Columns omega, upsilon_1..upsilon_l, lambda; +infinity as the literal "inf"."""
    ell = table.upsilon_grid.shape[1]
    _write_csv(path, ["omega"] + [f"upsilon_{h + 1}" for h in range(ell)] + ["lambda"],
               [[om, *ups, v] for om, row in zip(table.omega_grid.tolist(), table.values.tolist())
                for ups, v in zip(table.upsilon_grid.tolist(), row)])
