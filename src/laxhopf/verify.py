"""Independent ground truth: exhaustive dynamic programming and residual checks.

The DP oracle runs one forward sweep over commensurable time/state/velocity
grids with a fresh-start minimum at every node, which realizes the infimum
over apertures without enumerating windows.  Out-of-lattice transitions are
excluded, never clamped, so every value is certified by an actual lattice
trajectory.  A cost declared ``state_free`` is priced once per (time step,
velocity) into a stage table before the sweep; any other cost is priced at
every in-lattice (node, velocity) pair of every step.  The surface kernel works
on IEEE floats with inf internally (only sums and mins, so NaN cannot arise);
the accessor API speaks ExtReal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .costs import (
    CostField,
    TerminalCost,
    eval_cost_batch,
    eval_terminal_batch,
    legendre_fenchel,
)
from .errors import CommensurabilityError, MisuseError
from .extreal import INF, ExtReal
from .laxhopf_core import OuterGrid, generalized_lax_hopf
from .moderation import SolverConfig, jensen_gap

__all__ = [
    "DPGrids",
    "ValueSurface",
    "JensenReport",
    "Scenario",
    "ConvergenceRow",
    "dp_oracle",
    "hj_residual",
    "jensen_suite",
    "convergence_study",
    "surface_to_csv",
]


@dataclass(frozen=True)
class DPGrids:
    """Commensurable time/state/velocity grids for the DP sweep."""

    t0: float
    T: float
    n_t: int
    state_axes: tuple     # per-coordinate uniform node arrays
    velocity_axes: tuple  # per-coordinate velocity value arrays

    def __post_init__(self):
        object.__setattr__(self, "state_axes", tuple(np.asarray(a, float) for a in self.state_axes))
        object.__setattr__(self, "velocity_axes", tuple(np.asarray(a, float) for a in self.velocity_axes))
        if self.n_t < 1 or self.T <= self.t0:
            raise MisuseError("DPGrids needs n_t >= 1 and T > t0")
        if len(self.state_axes) != len(self.velocity_axes):
            raise MisuseError("state and velocity grids must share the dimension")
        dt = self.dt
        for d, (ax, vs) in enumerate(zip(self.state_axes, self.velocity_axes)):
            if len(ax) < 2:
                raise MisuseError(f"state axis {d} needs at least two nodes")
            h = ax[1] - ax[0]
            ratios = np.asarray(vs) * dt / h
            if np.max(np.abs(ratios - np.round(ratios))) > 1e-9:
                raise CommensurabilityError(
                    f"velocity axis {d} times dt is not a multiple of the state step {h}"
                )

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_t

    @property
    def dim(self) -> int:
        return len(self.state_axes)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_t + 1)

    def state_mesh(self) -> np.ndarray:
        mesh = np.meshgrid(*self.state_axes, indexing="ij")
        return np.stack(mesh, axis=-1)  # (*dims, l)

    @staticmethod
    def build(t0, T, n_t, state_box, state_step, velocity_box, velocity_step) -> "DPGrids":
        state_box = np.asarray(state_box, float).reshape(-1, 2)
        velocity_box = np.asarray(velocity_box, float).reshape(-1, 2)
        s_axes, v_axes = [], []
        for lo, hi in state_box:
            n = int(round((hi - lo) / state_step))
            s_axes.append(lo + state_step * np.arange(n + 1))
        for lo, hi in velocity_box:
            n = int(round((hi - lo) / velocity_step))
            v_axes.append(lo + velocity_step * np.arange(n + 1))
        return DPGrids(float(t0), float(T), int(n_t), tuple(s_axes), tuple(v_axes))

    def nearest_node(self, t: float, x) -> tuple:
        """Indices of the node nearest to (t, x); more than half a step off the grid is misuse."""
        x = np.atleast_1d(np.asarray(x, float))
        spans = [(t, self.t0, self.T, self.dt)] + [(xi, ax[0], ax[-1], ax[1] - ax[0])
                                                   for ax, xi in zip(self.state_axes, x)]
        if len(x) != self.dim or not all(lo - h / 2 <= v <= hi + h / 2 for v, lo, hi, h in spans):
            raise MisuseError(f"(t, x) = ({t}, {x}) lies more than half a step off the grid")
        j = min(max(int(round((t - self.t0) / self.dt)), 0), self.n_t)
        idx = tuple(int(np.argmin(np.abs(ax - xi))) for ax, xi in zip(self.state_axes, x))
        return j, idx


@dataclass(frozen=True)
class ValueSurface:
    """DP value surface W(time node, state node); frozen after the sweep."""

    grids: DPGrids
    values: np.ndarray   # (n_t + 1, *state dims), IEEE inf for unreachable nodes

    def value_at(self, time_index: int, state_index) -> ExtReal:
        v = float(self.values[(time_index, *np.atleast_1d(state_index))])
        return ExtReal(v) if math.isfinite(v) else INF

    def nearest_node(self, t: float, x) -> tuple:
        return self.grids.nearest_node(t, x)

    def value_near(self, t: float, x) -> ExtReal:
        j, idx = self.nearest_node(t, x)
        return self.value_at(j, idx)

    def obstacle_defect(self, terminal: TerminalCost) -> float:
        """max over nodes of W - c (should be <= 0: fresh-start option)."""
        mesh = self.grids.state_mesh().reshape(-1, self.grids.dim)
        worst = -math.inf
        for j, t in enumerate(self.grids.times):
            c = eval_terminal_batch(terminal, float(t), mesh).reshape(self.values.shape[1:])
            both = np.isfinite(self.values[j]) & np.isfinite(c)
            if both.any():
                worst = max(worst, float((self.values[j] - c)[both].max()))
            # W must be finite wherever c is: the fresh start is always available
            if np.any(np.isinf(self.values[j]) & np.isfinite(c)):
                return math.inf
        return worst


def dp_oracle(terminal: TerminalCost, cost: CostField, grids: DPGrids) -> ValueSurface:
    """Forward value sweep with a fresh-start minimum at every node.

    W(t, y) = min(c(t, y), min_u W(t - dt, y - u dt) + dt * l(t - dt/2, y - u dt/2, u)),
    starting from W(t0, y) = c(t0, y).  Boundary states whose predecessor would
    leave the lattice take only the fresh-start branch.

    When ``cost.state_free`` is set, l is priced once per (step, velocity) in
    one batch, at the midpoint of that velocity's first in-lattice destination,
    and every node of the step shares the row; the sweep runs the same float
    operations on the same operands as the per-node pricing of other fields.
    """
    dt = grids.dt
    mesh = grids.state_mesh()                       # (*dims, l)
    dims = mesh.shape[:-1]
    flat_states = mesh.reshape(-1, grids.dim)
    steps = np.array([ax[1] - ax[0] for ax in grids.state_axes])

    moves = []   # (u, destination slices, source slices) of each velocity that stays in the lattice
    for u in itertools.product(*grids.velocity_axes):
        u = np.asarray(u, float)
        k = np.round(u * dt / steps).astype(int)
        lo, hi = np.maximum(k, 0), np.array(dims) + np.minimum(k, 0)
        if np.all(lo < hi):
            moves.append((u, tuple(map(slice, lo, hi)), tuple(map(slice, lo - k, hi - k))))

    t_mids = grids.times[1:] - dt / 2.0
    table = None   # (step, velocity) stage costs of a state-free field
    if cost.state_free and moves:
        U = np.array([u for u, _, _ in moves])
        X = np.array([mesh[tuple(s.start for s in dest)] for _, dest, _ in moves]) - U * (dt / 2.0)
        n = len(moves)
        table = eval_cost_batch(
            cost, np.repeat(t_mids, n), np.tile(X, (grids.n_t, 1)), np.tile(U, (grids.n_t, 1))
        ).reshape(grids.n_t, n)

    values = np.empty((grids.n_t + 1, *dims))
    values[0] = eval_terminal_batch(terminal, float(grids.times[0]), flat_states).reshape(dims)
    for j in range(1, grids.n_t + 1):
        best = eval_terminal_batch(terminal, float(grids.times[j]), flat_states).reshape(dims)
        prev = values[j - 1]
        with np.errstate(invalid="ignore"):
            for v, (u, dest, src) in enumerate(moves):
                if table is not None:
                    stage = table[j - 1, v]
                else:
                    mid = mesh[dest] - u * (dt / 2.0)
                    m = mid.reshape(-1, grids.dim)
                    stage = eval_cost_batch(
                        cost, np.full(len(m), t_mids[j - 1]), m, np.broadcast_to(u, m.shape)
                    ).reshape(mid.shape[:-1])
                np.minimum(best[dest], prev[src] + dt * stage, out=best[dest])
        values[j] = best
    return ValueSurface(grids=grids, values=values)


def hj_residual(surface, cost: CostField, node, velocity_grid, step: Optional[float] = None):
    """Hamilton-Jacobi residual dV/dt + l*(t, y, dV/dx) by central differences.

    ``surface`` is either a callable V(t, y) probed with stencil ``step``, or a
    ValueSurface probed at grid node ``node = (time_index, state_index)``.
    Returns None when the stencil touches an infinite value (residual
    undefined at that node).
    """
    if callable(surface):
        if step is None or step <= 0:
            raise MisuseError("a callable surface needs a positive stencil step")
        t, y = node
        y = np.atleast_1d(np.asarray(y, float))
        v_t = (surface(t + step, y) - surface(t - step, y)) / (2 * step)
        grad = np.empty(len(y))
        for d in range(len(y)):
            e = np.zeros(len(y))
            e[d] = step
            grad[d] = (surface(t, y + e) - surface(t, y - e)) / (2 * step)
        conj = legendre_fenchel(cost, float(t), y, grad, velocity_grid)
        return float(v_t) + conj.to_float()

    if not isinstance(surface, ValueSurface):
        raise MisuseError("surface must be a callable or a ValueSurface")
    j, idx = node
    idx = tuple(np.atleast_1d(idx))
    g = surface.grids
    if not (1 <= j <= g.n_t - 1):
        raise MisuseError("node must be interior in time")
    for d, i in enumerate(idx):
        if not (1 <= i <= len(g.state_axes[d]) - 2):
            raise MisuseError("node must be interior in state")
    W = surface.values
    stencil = [W[(j - 1, *idx)], W[(j + 1, *idx)], W[(j, *idx)]]
    neighbors = []
    for d in range(g.dim):
        up = list(idx); up[d] += 1
        dn = list(idx); dn[d] -= 1
        neighbors.append((W[(j, *up)], W[(j, *dn)]))
        stencil += [W[(j, *up)], W[(j, *dn)]]
    if not all(math.isfinite(v) for v in stencil):
        return None
    grad = np.empty(g.dim)
    for d, (w_up, w_dn) in enumerate(neighbors):
        h = g.state_axes[d][1] - g.state_axes[d][0]
        grad[d] = (w_up - w_dn) / (2 * h)
    v_t = (W[(j + 1, *idx)] - W[(j - 1, *idx)]) / (2 * g.dt)
    y = np.array([g.state_axes[d][idx[d]] for d in range(g.dim)])
    conj = legendre_fenchel(cost, float(g.times[j]), y, grad, velocity_grid)
    return float(v_t) + conj.to_float()


@dataclass(frozen=True)
class JensenReport:
    """Moderation-vs-pointwise gaps over sampled (omega, upsilon) pairs."""

    samples: list                 # (omega, upsilon, gap)
    max_abs_gap: float
    positive_failures: list       # solver failed to reach the pointwise bound
    nonconvex_evidence: list      # moderation strictly undercuts l(upsilon)

    @property
    def consistent(self) -> bool:
        return not self.positive_failures and not self.nonconvex_evidence


def jensen_suite(cost: CostField, n_samples: int, omega_range, upsilon_box,
                 cfg: SolverConfig, tol: float = 1e-6, seed: int = 0) -> JensenReport:
    """Run jensen_gap over random samples; flags where the convexity claim breaks.

    Positive gaps beyond ``tol`` mean the solver missed the constant-velocity
    optimum; negative gaps beyond the quadrature floor 1e-6 mean velocity
    mixing beats the pointwise cost, i.e. the declared convexity is not real.
    """
    rng = np.random.default_rng(seed)
    upsilon_box = np.asarray(upsilon_box, float).reshape(-1, 2)
    samples, pos, neg = [], [], []
    worst = 0.0
    for i in range(n_samples):
        omega = float(rng.uniform(*omega_range))
        ups = rng.uniform(upsilon_box[:, 0], upsilon_box[:, 1])
        gap = jensen_gap(cost, T=1.0, x=np.zeros(len(upsilon_box)), omega=omega,
                         upsilon=ups, cfg=cfg, rng=np.random.default_rng(seed * 1000 + i))
        samples.append((omega, ups, gap))
        if math.isfinite(gap):
            worst = max(worst, abs(gap))
            if gap > tol:
                pos.append((omega, ups, gap))
            elif gap < -1e-6:   # the quadrature floor, whatever tol is
                neg.append((omega, ups, gap))
    return JensenReport(samples=samples, max_abs_gap=worst,
                        positive_failures=pos, nonconvex_evidence=neg)


@dataclass(frozen=True)
class Scenario:
    """A terminal/cost pair with a query point and formula-solver settings."""

    terminal: TerminalCost
    cost: CostField
    T: float
    x: np.ndarray
    outer_grid: OuterGrid
    solver_cfg: SolverConfig
    reference: Optional[float] = None


@dataclass(frozen=True)
class ConvergenceRow:
    dt: float
    oracle_value: float
    formula_value: float
    error: float
    surface: ValueSurface = field(repr=False, compare=False)  # this level's oracle surface


def convergence_study(scenario: Scenario, levels: Sequence[DPGrids]):
    """|formula value - oracle value| across DP refinement levels.

    The formula value comes from one generalized Lax-Hopf run; each level runs
    the DP oracle on its own grids and reads the nearest node to (T, x).  Each
    row keeps its level's surface, so callers need not sweep a level again.
    """
    if len(levels) < 2:
        raise MisuseError("convergence_study needs at least two refinement levels")
    nodes = [grids.nearest_node(scenario.T, scenario.x) for grids in levels]   # misuse before any run
    formula = generalized_lax_hopf(
        scenario.terminal, scenario.cost, scenario.T, scenario.x,
        scenario.outer_grid, scenario.solver_cfg,
    ).value.to_float()
    rows = []
    for grids, node in zip(levels, nodes):
        surface = dp_oracle(scenario.terminal, scenario.cost, grids)
        oracle = surface.value_at(*node).to_float()
        rows.append(ConvergenceRow(
            dt=grids.dt, oracle_value=oracle, formula_value=formula,
            error=abs(formula - oracle), surface=surface,
        ))
    return rows


def surface_to_csv(surface: ValueSurface, path) -> None:
    """Columns t, x_1..x_l, W; an infinite W as the literal "inf"; \\r\\n line ends.

    Each state prefix is joined once and each time slice is written as one string.
    """
    g = surface.grids
    prefixes = [",".join(map(repr, row)) + "," for row in g.state_mesh().reshape(-1, g.dim).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"x_{h + 1}" for h in range(g.dim)] + ["W"]) + "\r\n")
        for t, slab in zip(g.times.tolist(), surface.values.reshape(g.n_t + 1, -1).tolist()):
            t = repr(t) + ","
            fh.write("".join([f"{t}{x}{'inf' if math.isinf(w) else repr(w)}\r\n"
                              for x, w in zip(prefixes, slab)]))
