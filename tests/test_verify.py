import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxhopf import (
    DPGrids,
    OuterGrid,
    Scenario,
    SolverConfig,
    convergence_study,
    dp_oracle,
    hj_residual,
    jensen_suite,
    make_cost,
    make_terminal,
    surface_to_csv,
)
from laxhopf.costs import CostField, TerminalCost, eval_cost_batch, eval_terminal_batch
from laxhopf.errors import CommensurabilityError, EvaluationFault, MisuseError
from laxhopf.verify import ValueSurface

QUAD = make_cost("quadratic")          # u^2/2
QUAD1 = make_cost("quadratic", a=1.0)  # u^2
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
IND = make_terminal("indicator_origin")
QTERM = make_terminal("quadratic_state")


def grids(n_t=50, state_step=0.002, velocity_step=0.1, box=2.0):
    return DPGrids.build(0.0, 1.0, n_t, [[-box, box]], state_step,
                         [[-box, box]], velocity_step)


class TestDPGrids:
    def test_commensurability_violation(self):
        with pytest.raises(CommensurabilityError):
            DPGrids.build(0.0, 1.0, 50, [[-2, 2]], 0.03, [[-2, 2]], 0.1)

    def test_commensurable_ok(self):
        g = grids()
        assert g.dt == pytest.approx(0.02)

    def test_dimension_mismatch(self):
        with pytest.raises(MisuseError):
            DPGrids(0.0, 1.0, 10, (np.linspace(-1, 1, 11),), ())

    @pytest.mark.parametrize("box", [[-1, 1, 0], [[1, -1]], [[-1, math.inf]], [[math.nan, 1]], [], "wide"])
    def test_state_box_needs_finite_ordered_pairs(self, box):
        with pytest.raises(MisuseError, match="state_box"):
            DPGrids.build(0.0, 1.0, 10, box, 0.1, [[-1, 1]], 0.1)

    @pytest.mark.parametrize("box", [[[0.5, 0.5]], [[0.5, 0.54]]])
    def test_degenerate_state_box(self, box):
        with pytest.raises(MisuseError, match="state axis 0 needs at least two nodes"):
            DPGrids.build(0.0, 1.0, 10, box, 0.1, [[-1, 1]], 0.1)

    @pytest.mark.parametrize("box", [[-1, 1, 0], [[1, -1]], [[-1, math.inf]], [[math.nan, 1]]])
    def test_velocity_box_needs_finite_ordered_pairs(self, box):
        with pytest.raises(MisuseError, match="velocity_box"):
            DPGrids.build(0.0, 1.0, 10, [[-1, 1]], 0.1, box, 0.1)

    def test_single_velocity(self):
        assert DPGrids.build(0.0, 1.0, 10, [[-1, 1]], 0.1, [[0, 0]], 0.1).velocity_axes[0].tolist() == [0.0]


class TestDpOracle:
    def test_quadratic_benchmark(self):
        surface = dp_oracle(QTERM, QUAD1, grids())
        v = surface.value_near(1.0, 1.0)
        assert v.value == pytest.approx(0.5, abs=0.02)

    def test_indicator_benchmark(self):
        surface = dp_oracle(IND, QUAD, grids())
        v = surface.value_near(1.0, 1.0)
        assert v.value == pytest.approx(0.5, abs=0.02)

    def test_free_transport(self):
        zero_l = make_cost("quadratic", a=0.0)
        surface = dp_oracle(QTERM, zero_l, grids(n_t=10, state_step=0.01))
        assert surface.value_near(1.0, 1.0).value == pytest.approx(0.0, abs=1e-9)

    def test_obstacle_invariant(self):
        surface = dp_oracle(QTERM, QUAD1, grids(n_t=10, state_step=0.01, box=1.0))
        assert surface.obstacle_defect(QTERM) <= 1e-12

    def test_monotone_in_cost(self):
        g = grids(n_t=10, state_step=0.01, box=1.0)
        lo = dp_oracle(QTERM, QUAD, g)          # u^2/2
        hi = dp_oracle(QTERM, QUAD1, g)         # u^2
        assert np.all(hi.values >= lo.values - 1e-12)


DUAL_GRID = np.linspace(-8, 8, 3201)


class TestHjResidual:
    def test_analytic_hopf_lax_surface(self):
        surf = lambda t, y: float(y @ y) / (2.0 * t)
        r = hj_residual(surf, QUAD, (1.0, 1.0), DUAL_GRID, step=1e-3)
        assert abs(r) <= 1e-3

    def test_constant_surface(self):
        surf = lambda t, y: 7.0
        r = hj_residual(surf, QUAD, (1.0, 1.0), DUAL_GRID, step=1e-3)
        assert abs(r) <= 1e-9

    def test_linear_surface_detects_non_solution(self):
        p = 1.5
        surf = lambda t, y: p * float(y[0])
        r = hj_residual(surf, QUAD, (1.0, 1.0), DUAL_GRID, step=1e-3)
        assert r == pytest.approx(p * p / 2.0, abs=1e-2)

    def test_grid_surface_stencil(self):
        surface = dp_oracle(QTERM, QUAD1, grids(n_t=20, state_step=0.005, box=1.0))
        j, idx = surface.nearest_node(0.5, 0.0)
        r = hj_residual(surface, QUAD1, (j, idx), DUAL_GRID)
        assert r is not None and math.isfinite(r)

    def test_infinite_stencil_marker(self):
        surface = dp_oracle(IND, QUAD, grids(n_t=10, state_step=0.01, box=1.0))
        # far corner stays unreachable: residual undefined there
        j, idx = surface.nearest_node(0.1, 0.9)
        assert hj_residual(surface, QUAD, (j, idx), DUAL_GRID) is None

    def test_callable_infinite_stencil_marker(self):
        # V = y^2 up to y = 1, +inf beyond: the stencil at y = 1 reaches y = 1.01
        surf = lambda t, y: float(y @ y) if y[0] <= 1.0 else math.inf
        assert hj_residual(surf, QUAD, (0.5, [1.0]), DUAL_GRID, step=0.01) is None

    @pytest.mark.parametrize("node", [(2, (3,)), (2, (3, 3, 3)), (2.0, (3, 3)), (2, (3, 0)), (4, (3, 3))])
    def test_node_of_a_surface_is_named(self, node):
        # a node with one state index too few on a 2-D surface raised a raw IndexError
        g = DPGrids.build(0.0, 1.0, 4, [[-1, 1], [-1, 1]], 0.25, [[-1, 1], [-1, 1]], 1.0)
        surface = ValueSurface(g, np.zeros((5, 9, 9)))
        velocities = list(itertools.product([-1.0, 0.0, 1.0], repeat=2))
        assert hj_residual(surface, QUAD, (2, (3, 3)), velocities) == 0.0
        with pytest.raises(MisuseError, match="node"):
            hj_residual(surface, QUAD, node, velocities)


class TestValueSurfaceLookup:
    @pytest.mark.parametrize("t, x", [(-0.5, 0.0), (1.5, 0.0), (0.5, 5.0), (0.5, -1.2)])
    def test_lookup_off_the_grid_is_misuse(self, t, x):
        surface = dp_oracle(QTERM, QUAD, grids(n_t=10, state_step=0.01, box=1.0))
        with pytest.raises(MisuseError):
            surface.value_near(t, x)
        with pytest.raises(MisuseError):
            surface.nearest_node(t, x)

    def test_lookup_within_half_a_step(self):
        surface = dp_oracle(QTERM, QUAD, grids(n_t=10, state_step=0.01, box=1.0))
        assert surface.nearest_node(1.04, 1.004) == (10, (200,))
        assert surface.nearest_node(-0.04, -1.004) == (0, (0,))

    @pytest.mark.parametrize("time_index, state_index, match", [
        (-1, -1, "index -1 is outside axis 0 of size 3"),
        (0, -1, "index -1 is outside axis 1 of size 5"),
        (3, 0, "index 3 is outside axis 0 of size 3"),
        (0, 5, "index 5 is outside axis 1 of size 5"),
        (0, (1, 1), "a lookup needs 2 indices, got 3"),
        (0, (), "a lookup needs 2 indices, got 1"),
    ])
    def test_index_lookup_never_wraps(self, time_index, state_index, match):
        g = DPGrids.build(0.0, 1.0, 2, [[-1, 1]], 0.5, [[-1, 1]], 1.0)
        surface = ValueSurface(g, np.arange(15.0).reshape(3, 5))
        assert surface.value_at(2, 4).value == 14.0 and surface.value_at(1, (2,)).value == 7.0
        with pytest.raises(MisuseError, match=match):
            surface.value_at(time_index, state_index)


class TestJensenSuite:
    def test_quadratic(self, fast_cfg):
        report = jensen_suite(QUAD, 20, (0.2, 2.0), [[-2, 2]], fast_cfg)
        assert report.consistent
        assert report.max_abs_gap <= 1e-6

    def test_abs(self, fast_cfg):
        report = jensen_suite(make_cost("abs"), 20, (0.2, 2.0), [[-2, 2]], fast_cfg)
        assert report.consistent
        assert report.max_abs_gap <= 1e-6

    def test_nonconvex_detected(self, fast_cfg):
        # two-well cost dishonestly declared convex: moderation undercuts l(0) = 1
        twowell = CostField(
            evaluator=lambda t, x, u: float(min((u[0] - 1) ** 2, (u[0] + 1) ** 2)),
            velocity_only=True,
            declared_convex_in_u=True,
        )
        report = jensen_suite(twowell, 8, (0.5, 1.5), [[-0.3, 0.3]], fast_cfg)
        assert report.nonconvex_evidence


class TestConvergenceStudy:
    def scenario(self):
        return Scenario(
            terminal=IND, cost=WQ, T=1.0, x=np.array([1.0]),
            outer_grid=OuterGrid.build(1.0, 8, [[-2, 2]], 21),
            solver_cfg=SolverConfig(n_steps=32, multi_starts=2, seed=0),
        )

    def test_decreasing_errors(self):
        levels = [
            grids(n_t=10, state_step=0.01),
            grids(n_t=25, state_step=0.004),
            grids(n_t=50, state_step=0.002),
        ]
        rows = convergence_study(self.scenario(), levels)
        assert rows[-1].error <= rows[-2].error
        assert rows[-1].error <= 0.02 * abs(rows[-1].oracle_value)
        ref = 1.0 / (2.0 * math.log(2.0))
        assert abs(rows[-1].formula_value - ref) <= 2e-3

    def test_needs_two_levels(self):
        with pytest.raises(MisuseError):
            convergence_study(self.scenario(), [grids(n_t=10, state_step=0.01)])


@st.composite
def small_grids(draw):
    """Small commensurable 1-3-D grids with their own box per axis (2 to 7 nodes);
    velocity boxes may be a single velocity, one-sided, miss 0, or leave the
    lattice in some or every move."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n_t = draw(st.integers(1, 4))
    h = draw(st.sampled_from([0.125, 0.25, 0.5]))
    v_step = draw(st.integers(1, 2)) * h * n_t       # moves 1 or 2 nodes per step (T = 1)
    state_box, velocity_box = [], []
    for _ in range(dim):
        n_lo = draw(st.integers(-3, 0))
        state_box.append([n_lo * h, (n_lo + draw(st.integers(1, 6))) * h])
        v_lo = draw(st.integers(-4, 2))
        velocity_box.append([v_lo * v_step, (v_lo + draw(st.integers(0, 8))) * v_step])
    return DPGrids.build(0.0, 1.0, n_t, state_box, h, velocity_box, v_step)


CATALOG = [("quadratic", {}), ("quadratic", {"a": 2.0}), ("abs", {}),
           ("weighted_quadratic", {"a0": 0.5, "a1": 1.5}), ("indicator_zero", {})]


def counting(cost):
    """The same cost, counting batch calls and rows."""
    seen = {"calls": 0, "rows": 0}
    inner = cost.batch_evaluator

    def batch(t, X, U):
        seen["calls"] += 1
        seen["rows"] += len(U)
        return inner(t, X, U)

    return dataclasses.replace(cost, batch_evaluator=batch), seen


def in_lattice_moves(g):
    """Per velocity, the number of nodes whose predecessor stays in the lattice."""
    counts = []
    for u in itertools.product(*g.velocity_axes):
        n = 1
        for ax, ud in zip(g.state_axes, u):
            k = abs(round(ud * g.dt / (ax[1] - ax[0])))
            n *= max(len(ax) - k, 0)
        counts.append(n)
    return counts


class TestStateFreeStageTable:
    @settings(max_examples=60, deadline=None)
    @given(g=small_grids(), which=st.integers(0, len(CATALOG) - 1), boxed=st.booleans(),
           indicator=st.booleans(), node=st.integers(0, 6))
    def test_table_equals_per_node_pricing(self, g, which, boxed, indicator, node):
        name, params = CATALOG[which]
        cost = make_cost(name, domain=[[-1.0, 0.5]] * g.dim if boxed else None, **params)
        origin = np.array([ax[node % len(ax)] for ax in g.state_axes])
        term = make_terminal("indicator_origin" if indicator else "quadratic_state", x0=origin)
        fast = dp_oracle(term, cost, g).values
        slow = dp_oracle(term, dataclasses.replace(cost, state_free=False), g).values
        assert fast.tobytes() == slow.tobytes()
        assert np.array_equal(np.isinf(fast), np.isinf(slow))

    def test_row_counts(self):
        g = DPGrids.build(0.0, 1.0, 2, [[-0.25, 0.25], [-0.125, 0.25]], 0.125,
                          [[-1.5, 1.5], [-0.5, 0.5]], 0.25)
        counts = in_lattice_moves(g)
        assert len(counts) == 65 and counts.count(0) == 20   # |k_1| >= 5 leaves the lattice
        flagged, seen = counting(QUAD)
        dp_oracle(QTERM, flagged, g)
        assert seen == {"calls": 1, "rows": g.n_t * sum(c > 0 for c in counts)}

        user = CostField(batch_evaluator=lambda t, X, U: np.sum(U * U + X * X, axis=1))
        counted, seen = counting(user)
        dp_oracle(QTERM, counted, g)
        assert seen["rows"] == g.n_t * sum(counts)

    def test_row_counts_full_lattice(self):
        g = grids(n_t=8, state_step=0.0125)
        flagged, seen = counting(WQ)
        dp_oracle(IND, flagged, g)
        assert seen == {"calls": 1, "rows": g.n_t * len(g.velocity_axes[0])}

    def test_nan_names_a_lattice_row(self):
        nan = CostField(batch_evaluator=lambda t, X, U: np.where(U[:, 0] > 0, np.nan, 0.0),
                        state_free=True)
        with pytest.raises(EvaluationFault, match=r"x=\[-1\.995\], u=\[0\.1\]"):
            dp_oracle(QTERM, nan, grids(n_t=10, state_step=0.01))

    @pytest.mark.parametrize("state_free", [True, False])
    def test_minus_inf_is_a_fault(self, state_free):
        # -inf + inf is NaN: it would spread through the sweep instead of bounding it
        neg = CostField(batch_evaluator=lambda t, X, U: np.where(U[:, 0] > 0, -np.inf, 0.0),
                        state_free=state_free)
        g = DPGrids.build(0, 1, 4, [[-0.4, 0.4]], 0.05, [[-0.2, 0.2]], 0.2)
        with pytest.raises(EvaluationFault, match=r"-inf at t=0\.125, x=\[-0\.375\], u=\[0\.2\]"):
            dp_oracle(IND, neg, g)

    def test_minus_inf_terminal_is_misuse(self):
        # a -inf node plus a +inf stage (a velocity outside the domain box) would be NaN
        neg = TerminalCost(evaluator=lambda t, x: 0.0,
                           batch_evaluator=lambda t, X: np.where(np.abs(X[:, 0]) < 0.01, -np.inf, 0.0))
        g = DPGrids.build(0, 1, 4, [[-0.4, 0.4]], 0.05, [[-0.2, 0.2]], 0.2)
        with pytest.raises(MisuseError, match=r"-inf at t=0\.0, x=\[0\.\]"):
            dp_oracle(neg, make_cost("quadratic", domain=[[-0.1, 0.1]]), g)


def _slice_loop_oracle(terminal, cost, grids):
    """Reference sweep, one sliced add and min per (step, velocity); dp_oracle must equal it bitwise."""
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
    return values


USER = CostField(batch_evaluator=lambda t, X, U: np.sum(U * U + X * X, axis=1) + t)


@settings(max_examples=100, deadline=None)
@given(g=small_grids(), which=st.integers(0, len(CATALOG)), boxed=st.booleans(),
       indicator=st.booleans(), node=st.integers(0, 6))
@example(g=DPGrids.build(0.0, 1.0, 2, [[0.0, 0.5]], 0.5, [[2.0, 2.0]], 2.0),   # no in-lattice move
         which=0, boxed=False, indicator=False, node=0)
def test_sweep_equals_slice_loop(g, which, boxed, indicator, node):
    if which == len(CATALOG):
        cost = USER if not boxed else dataclasses.replace(USER, domain_box=np.array([[-1.0, 0.5]] * g.dim))
    else:
        name, params = CATALOG[which]
        cost = make_cost(name, domain=[[-1.0, 0.5]] * g.dim if boxed else None, **params)
    origin = np.array([ax[node % len(ax)] for ax in g.state_axes])
    term = make_terminal("indicator_origin" if indicator else "quadratic_state", x0=origin)
    assert dp_oracle(term, cost, g).values.tobytes() == _slice_loop_oracle(term, cost, g).tobytes()


def _old_surface_csv(surface, path):
    """Reference writer, one csv row per node; its bytes define the file format."""
    g = surface.grids
    mesh = g.state_mesh().reshape(-1, g.dim)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{h + 1}" for h in range(g.dim)] + ["W"])
        for j, t in enumerate(g.times):
            flat = surface.values[j].reshape(-1)
            for row, w in zip(mesh, flat):
                writer.writerow(
                    [repr(float(t))] + [repr(float(v)) for v in row]
                    + ["inf" if np.isinf(w) else repr(float(w))]
                )


def test_surface_csv_golden_bytes(tmp_path):
    g = DPGrids.build(0.0, 1.0, 4, [[-0.375, 0.375], [-0.25, 0.25]], 0.125, [[-0.5, 0.5]] * 2, 0.5)
    values = dp_oracle(IND, QUAD, g).values.copy()
    values[1, 0, 0], values[2, 1, 1], values[3, 2, 2] = -math.inf, 1.0 / 3.0, 1e-300
    surface = ValueSurface(grids=g, values=values)
    assert np.isinf(values).sum() > 2
    surface_to_csv(surface, tmp_path / "new.csv")
    _old_surface_csv(surface, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_surface_csv(tmp_path):
    surface = dp_oracle(IND, QUAD, grids(n_t=5, state_step=0.02, box=0.5))
    path = tmp_path / "surface.csv"
    surface_to_csv(surface, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,W"
    assert any(line.endswith(",inf") for line in lines[1:])
