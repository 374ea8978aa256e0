import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxhopf import (
    DPGrids,
    OuterGrid,
    SolverConfig,
    TerminalCost,
    Window,
    build_trajectory,
    classic_lax_hopf,
    cumulated_cost,
    dp_oracle,
    dynamic_value_profile,
    generalized_lax_hopf,
    make_cost,
    make_terminal,
    optimum_certificate,
    value_result_to_json,
    wtp_value,
)
from laxhopf.errors import MisuseError

QUAD = make_cost("quadratic")                   # u^2/2
QUAD1 = make_cost("quadratic", a=1.0)           # u^2
ABS = make_cost("abs")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
IND = make_terminal("indicator_origin")         # 0 at (0, 0)
QTERM = make_terminal("quadratic_state")        # y^2, time-independent
REF_WQ = 1.0 / (2.0 * math.log(2.0))


class TestZeroApertureGridOptimum:
    """Near x = 0 every grid cell ties with or exceeds c(T, x); the search must still refine."""

    GRID = OuterGrid.build(1.0, 10, [[-2, 2]], 21)

    def test_classic(self):
        res = classic_lax_hopf(QTERM, QUAD, 1.0, 0.05, self.GRID)
        assert res.value.value == pytest.approx(0.05 ** 2 / 3.0, abs=1e-5)
        assert res.omega_star > 0

    def test_generalized(self):
        k = REF_WQ
        res = generalized_lax_hopf(QTERM, WQ, 1.0, 0.05, self.GRID,
                                   SolverConfig(n_steps=16, multi_starts=1))
        assert res.value.value == pytest.approx(0.05 ** 2 * k / (1.0 + k), abs=1e-5)
        assert res.omega_star > 0

    def test_zero_cell_kept_when_it_is_optimal(self):
        # at x = 0 the fresh start c(T, 0) = 0 cannot be beaten
        res = classic_lax_hopf(QTERM, QUAD, 1.0, 0.0, self.GRID)
        assert res.value.value == 0.0
        assert res.omega_star == 0.0


class TestClassic:
    def test_indicator_quadratic(self, scalar_grid):
        res = classic_lax_hopf(IND, QUAD, 1.0, 1.0, scalar_grid)
        assert res.value.value == pytest.approx(0.5, abs=1e-9)
        assert res.omega_star == pytest.approx(1.0)
        assert res.upsilon_star[0] == pytest.approx(1.0)
        assert res.start_state[0] == pytest.approx(0.0)

    def test_indicator_abs(self):
        grid = OuterGrid.build(omega_max=2.0, n_omega=8, upsilon_box=[[-2, 2]],
                               n_upsilon=17)
        res = classic_lax_hopf(IND, ABS, 2.0, 1.0, grid)
        assert res.value.value == pytest.approx(1.0, abs=1e-9)
        assert res.omega_star == pytest.approx(2.0)
        assert res.upsilon_star[0] == pytest.approx(0.5)

    def test_quadratic_terminal(self, scalar_grid):
        # V = inf_omega x^2/(1+omega) at x=1, omega_max=1 -> 0.5 at omega=1, ups=0.5
        res = classic_lax_hopf(QTERM, QUAD1, 1.0, 1.0, scalar_grid)
        assert res.value.value == pytest.approx(0.5, abs=1e-6)
        assert res.omega_star == pytest.approx(1.0, abs=1e-6)
        assert res.upsilon_star[0] == pytest.approx(0.5, abs=1e-4)

    def test_misuse_on_general_cost(self, scalar_grid):
        with pytest.raises(MisuseError):
            classic_lax_hopf(IND, WQ, 1.0, 1.0, scalar_grid)

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5])
    def test_n_steps_checked_before_the_search(self, scalar_grid, n_steps):
        # 0 returned a trajectory whose states divided by zero; -3 and 2.5 searched, then failed in np.tile
        def never(*args):
            raise AssertionError("the search ran")

        with pytest.raises(MisuseError, match="n_steps"):
            classic_lax_hopf(TerminalCost(evaluator=never, batch_evaluator=never), QUAD, 1.0, 1.0,
                             scalar_grid, n_steps=n_steps)

    def test_all_infeasible(self):
        grid = OuterGrid.build(omega_max=0.5, n_omega=2, upsilon_box=[[-1, 1]],
                               n_upsilon=3)
        res = classic_lax_hopf(IND, QUAD, 1.0, 5.0, grid)
        assert not res.value.is_finite
        assert res.omega_star is None


class TestGeneralized:
    def test_agrees_with_classic(self, scalar_grid, fast_cfg):
        a = classic_lax_hopf(QTERM, QUAD, 1.0, 1.0, scalar_grid)
        b = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, scalar_grid, fast_cfg)
        assert abs(a.value.value - b.value.value) <= 1e-6

    def test_time_dependent_reference(self, scalar_grid, fast_cfg):
        res = generalized_lax_hopf(IND, WQ, 1.0, 1.0, scalar_grid, fast_cfg)
        assert res.value.value == pytest.approx(REF_WQ, abs=2e-3)
        assert res.omega_star == pytest.approx(1.0)

    def test_zero_evolution(self, scalar_grid, fast_cfg):
        res = generalized_lax_hopf(IND, WQ, 0.0, 0.0,
                                   OuterGrid.build(omega_max=1e-9, n_omega=1,
                                                   upsilon_box=[[-1, 1]], n_upsilon=3),
                                   fast_cfg)
        assert res.value.value == pytest.approx(0.0)

    def test_specialized_optimizers_indicator(self, scalar_grid, fast_cfg):
        # with c = indicator of (0,0): upsilon* = x/omega* and lambda* = V/omega*
        res = generalized_lax_hopf(IND, WQ, 1.0, 1.0, scalar_grid, fast_cfg)
        assert res.upsilon_star[0] == pytest.approx(1.0 / res.omega_star, abs=1e-6)
        assert res.moderation_lambda.value == pytest.approx(
            res.value.value / res.omega_star, abs=1e-6)


class TestCertificate:
    def test_quadratic_benchmark(self, scalar_grid):
        res = classic_lax_hopf(QTERM, QUAD1, 1.0, 1.0, scalar_grid)
        r = optimum_certificate(res, QTERM, res.moderation_lambda)
        assert r <= 1e-6

    def test_indicator_benchmark(self, scalar_grid):
        res = classic_lax_hopf(IND, QUAD, 1.0, 1.0, scalar_grid)
        assert optimum_certificate(res, IND, res.moderation_lambda) <= 1e-6

    def test_zero_aperture_flagged(self):
        grid = OuterGrid.build(omega_max=1.0, n_omega=2, upsilon_box=[[-1, 1]],
                               n_upsilon=3)
        zero_l = make_cost("quadratic", a=0.0)
        res = classic_lax_hopf(QTERM, zero_l, 1.0, 0.0, grid)
        assert res.omega_star == 0.0
        from laxhopf import ExtReal
        assert optimum_certificate(res, QTERM, ExtReal(0.0)) is None


class TestDynamicProfile:
    def test_monotone_quadratic(self, scalar_grid):
        res = classic_lax_hopf(QTERM, QUAD1, 1.0, 1.0, scalar_grid)
        profile = dynamic_value_profile(res, QTERM, QUAD1)
        vals = [v for _, v in profile]
        assert vals[0] == pytest.approx(0.25, abs=1e-3)
        assert vals[-1] == pytest.approx(res.value.value, abs=1e-6)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_start_is_terminal_cost_exactly(self, scalar_grid):
        res = classic_lax_hopf(QTERM, QUAD1, 1.0, 1.0, scalar_grid)
        t0, v0 = dynamic_value_profile(res, QTERM, QUAD1)[0]
        assert t0 == pytest.approx(res.trajectory.window.start)
        start = res.trajectory.states[0]
        assert v0 == float(start @ start)

    def test_constant_for_zero_cost(self, scalar_grid, fast_cfg):
        zero_l = make_cost("quadratic", a=0.0)
        res = classic_lax_hopf(QTERM, zero_l, 1.0, 1.0, scalar_grid)
        profile = dynamic_value_profile(res, QTERM, zero_l)
        vals = [v for _, v in profile]
        assert max(vals) - min(vals) <= 1e-12


class TestWtp:
    def test_zero_aperture_boundary(self):
        assert wtp_value(QTERM, 1.0, 1.0, 2.0, 0.0, np.linspace(-3, 3, 7)).value == 4.0

    def test_reachable_ball(self):
        v = wtp_value(QTERM, 1.0, 1.0, 2.0, 1.0, np.linspace(-3, 3, 601))
        assert v.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_bound(self):
        assert wtp_value(QTERM, 0.0, 1.0, 2.0, 0.5, np.linspace(-3, 3, 7)).value == 4.0

    def test_empty_intersection(self):
        v = wtp_value(QTERM, 1.0, 1.0, 10.0, 0.5, np.linspace(-3, 3, 7))
        assert not v.is_finite

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_grid_of_the_wrong_width(self, omega):
        # the points of a 2-D grid would broadcast against x and price a 2-D terminal
        grid = np.array([[0.0, 0.0], [1.0, 0.5]])
        with pytest.raises(MisuseError, match="state grid dimension 2 != state dimension 1"):
            wtp_value(QTERM, 1.0, 1.0, [1.0], omega, grid)
        with pytest.raises(MisuseError, match="state grid dimension 1 != state dimension 2"):
            wtp_value(QTERM, 1.0, 1.0, [1.0, 0.0], omega, np.linspace(-1, 1, 5))


class TestDomainWidth:
    """A cost domain with more rows than x has coordinates is misuse in every reduction."""

    BOXED = make_cost("quadratic", domain=[[-1, 1], [-0.1, 0.1]])
    GRID = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
    MATCH = "cost domain has 2 \\[lo, hi\\] rows, velocity dimension is 1"

    def test_classic(self):
        with pytest.raises(MisuseError, match=self.MATCH):
            classic_lax_hopf(QTERM, self.BOXED, 1.0, [1.0], self.GRID)

    def test_generalized(self, fast_cfg):
        with pytest.raises(MisuseError, match=self.MATCH):
            generalized_lax_hopf(QTERM, self.BOXED, 1.0, [1.0], self.GRID, fast_cfg)

    def test_dp_oracle_and_cumulated_cost(self):
        grids = DPGrids.build(0.0, 1.0, 10, [[-2, 2]], 0.01, [[-2, 2]], 0.1)
        with pytest.raises(MisuseError, match=self.MATCH):
            dp_oracle(QTERM, self.BOXED, grids)
        with pytest.raises(MisuseError, match=self.MATCH):
            cumulated_cost(build_trajectory(Window(T=1.0, omega=1.0), [1.0], [0.5, 0.5]), self.BOXED)


class TestProperties:
    def test_obstacle_bound(self, scalar_grid, fast_cfg):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1.5, 1.5, size=20):
            res = generalized_lax_hopf(QTERM, QUAD, 1.0, x, scalar_grid, fast_cfg)
            assert res.value.to_float() <= x * x + 1e-9

    def test_grid_monotonicity(self, fast_cfg):
        coarse = OuterGrid.build(1.0, 4, [[-2, 2]], 9, max_rounds=0)
        fine = OuterGrid.build(1.0, 8, [[-2, 2]], 17, max_rounds=0)
        a = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, coarse, fast_cfg)
        b = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, fine, fast_cfg)
        assert b.value.to_float() <= a.value.to_float() + 1e-9

    def test_deterministic_tie_break(self, fast_cfg):
        # flat landscape: every cell has the same value; smallest omega then ups wins
        zero_term = make_terminal("zero")
        zero_l = make_cost("quadratic", a=0.0)
        grid = OuterGrid.build(1.0, 4, [[-1, 1]], 5, max_rounds=0)
        res = classic_lax_hopf(zero_term, zero_l, 1.0, 1.0, grid)
        assert res.value.value == 0.0
        assert res.omega_star == 0.0


def test_json_export(scalar_grid):
    res = classic_lax_hopf(IND, QUAD, 1.0, 1.0, scalar_grid)
    doc = json.loads(value_result_to_json(res))
    assert doc["value"] == pytest.approx(0.5)
    assert doc["omega_star"] == pytest.approx(1.0)
    assert doc["upsilon_star"] == [pytest.approx(1.0)]
    assert doc["certificate_residual"] <= 1e-9


def _sequential_outer_minimize(grid, cells_fn, omega_max, reads):
    """Reference outer search with no look-ahead: one cell priced per read,
    each read of the pattern search appended to ``reads``."""
    store = {}
    ell = grid.upsilon_lattice.shape[1]
    zero_ups = np.zeros(ell)

    def key(omega, ups):
        return (round(float(omega), 12), tuple(np.round(np.atleast_1d(ups), 12)))

    def get(omega, ups):
        k = key(omega, ups)
        if k not in store:
            store[k] = cells_fn([(float(omega), np.atleast_1d(ups))])[0]
        return store[k]

    grid_cells = [(0.0, zero_ups) if omega == 0.0 else (float(omega), ups)
                  for omega in grid.omega_values
                  for ups in (grid.upsilon_lattice[:1] if omega == 0.0 else grid.upsilon_lattice)]
    priced = [(get(om, ups)[0], float(om), tuple(np.atleast_1d(ups))) for om, ups in grid_cells]
    best = min(priced)
    if math.isfinite(best[0]):
        pos = np.asarray(grid.omega_values)[np.asarray(grid.omega_values) > 0]
        d_omega = float(np.min(np.diff(pos))) if len(pos) > 1 else omega_max / 4.0
        first_steps = [d_omega]
        for h in range(ell):
            col = np.unique(grid.upsilon_lattice[:, h])
            first_steps.append(float(np.min(np.diff(col))) if len(col) > 1 else 0.25)
        moves = [(d, sgn) for d in range(1 + ell) for sgn in (+1.0, -1.0)]

        def search(best, strict):
            steps, y = np.asarray(first_steps), np.array([best[1], *best[2]])
            for _ in range(grid.max_rounds):
                for _ in range(50):
                    moved = False
                    for d, sgn in moves:
                        p = y.copy()
                        p[d] += sgn * steps[d]
                        om = min(max(p[0], 0.0), omega_max)
                        om, ups = (om, p[1:]) if om > 0 else (0.0, zero_ups)
                        reads.append((float(om), tuple(ups.tolist())))
                        cand = (get(om, ups)[0], om, tuple(ups))
                        if (cand[0] < best[0]) if strict else (cand < best):
                            best, y, moved = cand, np.array([om, *ups]), True
                    if not moved:
                        break
                steps = steps * 0.5
            return best

        if best[1] > 0:
            best = search(best, strict=False)
        else:
            start = min((c for c in priced if c[1] > 0), default=(math.inf,))
            if math.isfinite(start[0]):
                best = min(best, search(start, strict=True))
    value, omega_star, ups_star = best[0], best[1], np.asarray(best[2])
    _, payload = get(omega_star, ups_star if omega_star > 0 else zero_ups)
    return value, omega_star, ups_star, payload


def make_bowl(center, weights, wall):
    """Cell pricer 0.01 + weights . (y - center)^2 at y = (omega, *upsilon),
    infinite where |upsilon_1| > wall."""
    center, weights = np.asarray(center, dtype=float), np.asarray(weights, dtype=float)

    def bowl(om, ups):
        y = np.array([om, *ups])
        return math.inf if abs(y[1]) > wall else 0.01 + float(weights @ (y - center) ** 2)

    return bowl


@st.composite
def bowl_searches(draw):
    """A grid, a bowl-shaped cell pricer with an infeasible band, and a
    zero-aperture value that beats every grid cell about half the time."""
    ell = draw(st.sampled_from([1, 2]))
    unit = st.floats(-1.5, 1.5, allow_nan=False)
    grid = OuterGrid.build(draw(st.floats(0.5, 2.0)), draw(st.integers(1, 4)),
                           [[-1, 1]] * ell, draw(st.integers(2, 5)), max_rounds=draw(st.integers(1, 12)))
    center = [draw(st.floats(-0.5, 2.5))] + [draw(unit) for _ in range(ell)]
    weights = [draw(st.floats(0.1, 3.0)) for _ in range(1 + ell)]
    bowl = make_bowl(center, weights, draw(st.floats(0.5, 3.0)))
    grid_min = min(bowl(om, ups) for om in grid.omega_values[1:] for ups in grid.upsilon_lattice)
    zero_value = grid_min * draw(st.floats(0.5, 1.5))
    return grid, bowl, zero_value


class TestOuterSearch:
    @pytest.mark.parametrize("box", [
        [-1, 1, -2, 2],            # flat: not read as a 2-D box
        [-1, 1, 0],                # no [lo, hi] pairs
        [[1, -1]],                 # reversed
        [[-1, math.inf]],
        [[math.nan, 1]],
        [],
        [[-1, "a"]],
    ])
    def test_upsilon_box_needs_finite_ordered_pairs(self, box):
        with pytest.raises(MisuseError, match="upsilon_box"):
            OuterGrid.build(1.0, 2, box, 3)

    def test_degenerate_upsilon_box(self):
        grid = OuterGrid.build(1.0, 2, [[0.5, 0.5], [-1, 1]], 3)
        assert grid.upsilon_lattice[:, 0].tolist() == [0.5] * 9

    def test_negative_max_rounds_misuse(self):
        # the search stops when its round count reaches max_rounds, so a negative one never stops
        with pytest.raises(MisuseError, match="max_rounds"):
            OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=-1)
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=0)
        with pytest.raises(MisuseError, match="max_rounds"):
            OuterGrid(grid.omega_values, grid.upsilon_lattice, max_rounds=-1)

    @pytest.mark.parametrize("make, field", [
        (lambda: OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=2.5), "max_rounds"),
        (lambda: OuterGrid([0.5, 1.0], [1.0], max_rounds=math.inf), "max_rounds"),
        (lambda: OuterGrid([0.5, 1.0], [1.0], max_rounds=True), "max_rounds"),
        (lambda: OuterGrid([0.5, math.inf], [1.0]), "omega_values"),
        (lambda: OuterGrid([0.5, 1.0], [[0.5], [math.nan]]), "upsilon_lattice"),
        (lambda: OuterGrid([0.5, 1.0], [[0.5], [math.inf]]), "upsilon_lattice"),
        (lambda: OuterGrid.build(1.0, 2.5, [[-1, 1]], 3), "n_omega"),
        (lambda: OuterGrid.build(1.0, 2, [[-1, 1]], 2.5), "n_upsilon"),
        (lambda: OuterGrid.build(math.nan, 2, [[-1, 1]], 3), "omega_max"),
        (lambda: OuterGrid.build(math.inf, 2, [[-1, 1]], 3), "omega_max"),
    ])
    def test_construction_checks_its_numbers(self, make, field):
        # a fractional or infinite max_rounds searched forever; an infinite aperture or a
        # NaN upsilon failed late in pricing, and an infinite upsilon was priced
        with pytest.raises(MisuseError, match=field):
            make()
        assert OuterGrid.build(1.0, np.int64(2), [[-1, 1]], np.int32(3), max_rounds=np.int64(1)).max_rounds == 1

    def test_construction_normalizes(self):
        grid = OuterGrid([0.5, 0.25, 0.5], [1.0, -1.0])
        assert grid.omega_values.tolist() == [0.0, 0.25, 0.5]
        assert grid.upsilon_lattice.tolist() == [[1.0], [-1.0]]
        assert OuterGrid([0.0, 1.0], [[0.0]]).omega_values.tolist() == [0.0, 1.0]
        for omegas, lattice, match in (([-0.5, 1.0], [1.0], "nonnegative"), ([math.nan], [1.0], "nonnegative"),
                                       ([1.0], [], "non-empty")):
            with pytest.raises(MisuseError, match=match):
                OuterGrid(omegas, lattice)

    def test_failed_speculative_batch_stores_nothing(self):
        from laxhopf.errors import RateOverflowError
        from laxhopf.laxhopf_core import _outer_minimize

        batches, stored = [], []

        def cells_fn(cells):
            batches.append(len(cells))
            if any(ups[0] > 1.5 for _, ups in cells):
                raise RateOverflowError("bad cell")
            stored.extend(cells)
            return [(5.0 if om == 0.0 else (om - 1.0) ** 2 + (ups[0] - 0.9) ** 2, None) for om, ups in cells]

        # The grid pass is (0, 0), (1, -1) and (1, 1); the search walks from (1, 1).  The
        # look-ahead at the good miss (0.75, 1) asks for the bad cell (1, 3) too: that batch
        # stores nothing, and the good cell is priced alone.  When the walk reaches (1, 3),
        # its batch and then the cell alone raise.
        grid = OuterGrid.build(1.0, 1, [[-1, 1]], 2, max_rounds=1)
        good, bad = (0.75, (1.0,)), (1.0, (3.0,))
        with pytest.raises(RateOverflowError):
            _outer_minimize(grid, cells_fn, 1.0)
        assert stored[3:] == [good] and bad not in stored
        assert batches == [3] + [2, 1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(bowl_searches())
    # the look-ahead prices a point one ulp off one the search reads later under
    # the same key; the search must price its own point, as the sequential one does
    @example((OuterGrid.build(1.1, 1, [[-1, 1]], 2, max_rounds=4),
              make_bowl([0.5, 0.0], [1.0, 1.0], 1.0), 1.37))
    def test_search_path_is_the_sequential_one(self, case):
        from laxhopf import laxhopf_core

        grid, bowl, zero_value = case

        def cells_fn(cells):
            return [(bowl(om, ups) if om > 0 else zero_value, (om, tuple(ups)))
                    for om, ups in cells]

        reads, want_reads = [], []
        want = _sequential_outer_minimize(grid, cells_fn, grid.omega_values[-1], want_reads)
        search, walking = laxhopf_core._search, []

        def record_search(read, *args):
            if walking:   # a look-ahead, run from a read of the walk
                return search(read, *args)

            def record(cell, state):
                om, ups = cell
                reads.append((float(om), tuple(map(float, ups))))
                return read(cell, state)

            walking.append(True)
            return search(record, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laxhopf_core, "_search", record_search)
            got = laxhopf_core._outer_minimize(grid, cells_fn, grid.omega_values[-1])
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2]) and got[3] == want[3]
        assert reads == want_reads

    def test_search_leaves_no_reference_cycle(self, fast_cfg):
        # a nested function that calls itself is a cycle, which keeps every priced
        # cell of the query alive until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            generalized_lax_hopf(QTERM, WQ, 1.0, 0.9, OuterGrid.build(1.0, 2, [[-1, 1]], 5), fast_cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def batch_sizes(monkeypatch, query):
        """The size of each pricing batch of ``query``'s outer search."""
        from laxhopf import laxhopf_core

        calls = []
        inner = laxhopf_core._outer_minimize

        def counted(grid, cells_fn, omega_max):
            def count(cells):
                calls.append(len(cells))
                return cells_fn(cells)
            return inner(grid, count, omega_max)

        monkeypatch.setattr(laxhopf_core, "_outer_minimize", counted)
        assert query().value.is_finite
        return calls

    def test_gen1d_batches(self, monkeypatch):
        # the gen1d query of bench/workloads.py at x = 0.9: the grid pass plus
        # look-ahead batches of up to 16 cells
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        cfg = SolverConfig(n_steps=8, multi_starts=0, max_iter=30, seed=0)
        calls = self.batch_sizes(monkeypatch, lambda: generalized_lax_hopf(QTERM, WQ, 1.0, 0.9, grid, cfg))
        assert calls == [11, 16, 16, 9, 1]

    @pytest.mark.parametrize("name, sizes", [
        ("classic1d", [11, 16, 16, 15, 9, 3]),
        ("const_rate", [11, 16, 16, 16, 12, 1]),
        ("gen1d", [11, 16, 16, 8]),
        ("gen1d_negative", [11, 16, 16, 16, 11, 3]),
        ("gen2d", [26, 16, 16, 16, 16, 16, 4]),
        ("quickstart", [137, 16, 11]),
        ("run_moving", [10, 16, 16, 16, 16, 16, 16, 11, 3]),
        ("velocity_rate", [11, 16, 16, 16, 9, 1]),
        ("gen1d_tenths", [211, 16, 16, 16, 12, 6, 1]),
    ])
    def test_golden_query_batches(self, monkeypatch, name, sizes):
        # the grid pass, then one batch per look-ahead: these change only with the search
        from test_golden import queries

        assert self.batch_sizes(monkeypatch, queries()[name]) == sizes
