"""Independent ground truth: exhaustive dynamic programming and residual checks.

The DP oracle runs one forward sweep over commensurable time/state/velocity
grids with a fresh-start minimum at every node, which realizes the infimum
over apertures without enumerating windows.  Out-of-lattice transitions are
excluded, never clamped, so every value is certified by an actual lattice
trajectory.  A cost declared ``state_free`` is priced once per (time step,
velocity) into a stage table before the sweep; any other cost is priced at
every in-lattice (node, velocity) pair of every step.

The sweep keeps W of the previous and the current step in two flat buffers
padded with +inf: each state axis d >= 1 gets a halo of max |k_d| nodes on
both sides (k: the nodes an in-lattice velocity moves per step), and each
buffer a margin of sum_d halo_d * stride_d at both ends.  A move is then one
contiguous shift by k . strides over the destination rows [lo_0, hi_0) of
axis 0, and a source off the lattice reads +inf.  The halo entries those rows
cover take throwaway values and are reset after each step.  The views of
every move are built once per sweep: slicing per move and step costs as much
as the add and the min themselves on a 1-D lattice.

NaN and -inf cost and terminal rows are rejected, so the kernel adds only
reals and +inf: NaN cannot arise.
The accessor API speaks ExtReal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .costs import (CostField, TerminalCost, _box, _finite, _integer, _number, eval_cost_batch,
                    eval_terminal_batch, legendre_fenchel)
from .errors import CommensurabilityError, MisuseError
from .extreal import ExtReal
from .laxhopf_core import OuterGrid, generalized_lax_hopf
from .moderation import SolverConfig, _lookup, jensen_gap

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
        _number(t0=self.t0)
        _number(self.t0, above=True, T=self.T)
        _number(1, integer=True, n_t=self.n_t)
        object.__setattr__(self, "state_axes", tuple(np.asarray(a, float) for a in self.state_axes))
        object.__setattr__(self, "velocity_axes", tuple(np.asarray(a, float) for a in self.velocity_axes))
        if len(self.state_axes) != len(self.velocity_axes):
            raise MisuseError("state and velocity grids must share the dimension")
        dt = self.dt
        for d, (ax, vs) in enumerate(zip(self.state_axes, self.velocity_axes)):
            _finite(state_axes=ax, velocity_axes=vs)
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
        _number(0, above=True, state_step=state_step, velocity_step=velocity_step)

        def axes(box, name, step):   # the nodes lo + k * step of each [lo, hi] row
            return tuple(lo + step * np.arange(int(round((hi - lo) / step)) + 1) for lo, hi in _box(box, name))
        return DPGrids(float(t0), float(T), n_t, axes(state_box, "state_box", state_step),
                       axes(velocity_box, "velocity_box", velocity_step))

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
        return _lookup(self.values, (time_index, *np.atleast_1d(state_index)))

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

    Each velocity is one add and one min on precomputed views of the padded
    buffers (see the module docstring); the step loop slices and allocates nothing.
    When ``cost.state_free`` is set, l is priced once per (step, velocity) in
    one batch, at the midpoint of that velocity's first in-lattice destination,
    and every node of the step shares dt * l as a Python float.  Any other field
    is priced at the in-lattice destinations of each (step, velocity) into that
    block of a padded stage buffer, whose other entries meet only +inf sources
    or halo destinations.  Each node adds the operands of a per-node sum.

    Raises EvaluationFault, naming (t, x, u), for a NaN or -inf cost row.
    """
    dt = grids.dt
    mesh = grids.state_mesh()                       # (*dims, l)
    dims = mesh.shape[:-1]
    flat_states = mesh.reshape(-1, grids.dim)
    steps = np.array([ax[1] - ax[0] for ax in grids.state_axes])

    moves = []   # (u, k) of each velocity with an in-lattice destination
    for u in itertools.product(*grids.velocity_axes):
        u = np.asarray(u, float)
        k = np.round(u * dt / steps).astype(int)
        if np.all(np.abs(k) < dims):
            moves.append((u, k))

    halo = np.max([np.abs(k) for _, k in moves], axis=0) if moves else np.zeros(grids.dim, int)
    halo[0] = 0                                     # axis 0 is cut to the destination rows
    padded = np.array(dims) + 2 * halo
    strides = np.cumprod(np.concatenate(([1], padded[:0:-1])))[::-1]
    margin, size = int(halo @ strides), int(np.prod(padded))
    bufs = [np.full(size + 2 * margin, np.inf) for _ in range(2)]
    cores = [b[margin:margin + size].reshape(padded) for b in bufs]
    inner = tuple(map(slice, halo, halo + dims))
    outside = np.ones(padded, bool)
    outside[inner] = False
    outside = margin + np.flatnonzero(outside)      # the halo entries of a buffer
    scratch = np.empty(size)
    if not cost.state_free:
        stage_buf = np.zeros(size + 2 * margin)
        stage_core = stage_buf[margin:margin + size].reshape(padded)

    shifts = [[], []]   # per parity of the step: (destination, source, scratch) views of each move
    blocks = []         # per move: mesh block, its stage buffer view, the flat stage view
    for u, k in moves:
        lo, hi = np.maximum(k, 0), np.array(dims) + np.minimum(k, 0)
        a, b = margin + lo[0] * strides[0], margin + hi[0] * strides[0]
        off = int(k @ strides)
        for p in (0, 1):
            shifts[p].append((bufs[p][a:b], bufs[1 - p][a - off:b - off], scratch[:b - a]))
        if not cost.state_free:
            blocks.append((mesh[tuple(map(slice, lo, hi))],
                           stage_core[tuple(map(slice, lo + halo, hi + halo))], stage_buf[a:b]))

    t_mids = grids.times[1:] - dt / 2.0
    stages = [[]] * grids.n_t   # dt * l of each (step, move) of a state-free field, as floats
    if cost.state_free and moves:
        U = np.array([u for u, _ in moves])
        X = np.array([mesh[tuple(np.maximum(k, 0))] for _, k in moves]) - U * (dt / 2.0)
        n = len(moves)
        table = eval_cost_batch(
            cost, np.repeat(t_mids, n), np.tile(X, (grids.n_t, 1)), np.tile(U, (grids.n_t, 1))
        ).reshape(grids.n_t, n)
        stages = (dt * table).tolist()

    def priced(j):
        """dt * l of each move at step j, written into the stage buffer."""
        for (u, _), (block, view, flat) in zip(moves, blocks):
            m = (block - u * (dt / 2.0)).reshape(-1, grids.dim)
            vals = eval_cost_batch(cost, np.full(len(m), t_mids[j - 1]), m, np.broadcast_to(u, m.shape))
            np.multiply(dt, vals.reshape(view.shape), out=view)
            yield flat

    add, minimum = np.add, np.minimum
    values = np.empty((grids.n_t + 1, *dims))
    values[0] = cores[0][inner] = eval_terminal_batch(
        terminal, float(grids.times[0]), flat_states).reshape(dims)
    for j in range(1, grids.n_t + 1):
        p = j & 1
        cores[p][inner] = eval_terminal_batch(terminal, float(grids.times[j]), flat_states).reshape(dims)
        for (dst, src, tmp), stage in zip(shifts[p], stages[j - 1] if cost.state_free else priced(j)):
            add(src, stage, out=tmp)
            minimum(dst, tmp, out=dst)
        values[j] = cores[p][inner]
        bufs[p][outside] = np.inf
    return ValueSurface(grids=grids, values=values)


def hj_residual(surface, cost: CostField, node, velocity_grid, step: Optional[float] = None):
    """Hamilton-Jacobi residual dV/dt + l*(t, y, dV/dx) by central differences.

    ``surface`` is either a callable V(t, y) probed with stencil ``step``, or a
    ValueSurface probed at grid node ``node = (time_index, state_index)``.
    Returns None when the stencil touches an infinite value (residual
    undefined at that node).
    """
    if callable(surface):
        _number(0, above=True, step=step)
        t, y = float(node[0]), np.atleast_1d(np.asarray(node[1], float))
        _finite(node=[t, *y])
        steps = [step] * (1 + len(y))

        def at(axis, k):   # the value k steps along axis (0: time, d + 1: state d) from the node
            if axis == 0:
                return surface(t + k * step, y)
            e = np.zeros(len(y))
            e[axis - 1] = k * step
            return surface(t, y + e)
    elif isinstance(surface, ValueSurface):
        j, idx = node
        idx = tuple(np.atleast_1d(idx))
        g, W = surface.grids, surface.values
        if len(idx) != g.dim or not all(_integer(i) and 1 <= i <= n - 2 for i, n in zip((j, *idx), W.shape)):
            raise MisuseError(f"node must be interior integer indices (time, {g.dim} states), got {node!r}")
        t, y = float(g.times[j]), np.array([g.state_axes[d][idx[d]] for d in range(g.dim)])
        steps = [g.dt] + [ax[1] - ax[0] for ax in g.state_axes]

        def at(axis, k):
            p = [j, *idx]
            p[axis] += k
            return W[tuple(p)]
    else:
        raise MisuseError("surface must be a callable or a ValueSurface")
    pairs = [(at(a, 1), at(a, -1)) for a in range(len(steps))]
    if not (math.isfinite(at(0, 0)) and np.isfinite(pairs).all()):
        return None
    diffs = [(up - dn) / (2 * h) for (up, dn), h in zip(pairs, steps)]
    return float(diffs[0]) + legendre_fenchel(cost, t, y, np.array(diffs[1:]), velocity_grid).to_float()


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
    _number(1, integer=True, n_samples=n_samples)
    _number(0, integer=True, seed=seed)
    _finite(omega_range=omega_range, tol=tol)
    rng = np.random.default_rng(seed)
    upsilon_box = _box(upsilon_box, "upsilon_box")
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
    _finite(T=scenario.T, x=scenario.x)
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
