"""Cell pricing of the outer search against the per-cell forms it replaced.

The discount factors of a pricing call come from one rate batch, seeds are
drawn only for descent cells, the inner solve returns arrays whose rows are
the single-cell results, and the pattern search runs on Python floats.
Each reference below is the earlier per-cell or array form, written out here,
and every comparison is bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxhopf import (
    ModerationProblem,
    OuterGrid,
    RateField,
    SolverConfig,
    Trajectory,
    Window,
    accumulate_rate,
    build_moderation_table,
    classic_lax_hopf,
    discounted_moderate,
    discounted_value,
    generalized_lax_hopf,
    make_cost,
    make_rate,
    make_terminal,
    moderate,
)
from laxhopf import laxhopf_core
from laxhopf.costs import eval_rate_batch, eval_terminal
from laxhopf.errors import MisuseError, RateOverflowError
from laxhopf.laxhopf_core import _outer_minimize, _reduce, _search
from laxhopf.moderation import _EXP_CAP, _accumulation_factors, _solve_cells

QTERM = make_terminal("quadratic_state")
QUAD = make_cost("quadratic")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
ABS = make_cost("abs")
DESCENT_QUAD = dataclasses.replace(QUAD, separable=None)
RATES = {"none": None, "constant": make_rate("constant", r=0.6), "velocity": make_rate("velocity")}
# a rate of t, x and u, so that the midpoint times and states are checked as well
TXU_RATE = RateField(batch_evaluator=lambda t, X, U: 0.3 * t - 0.5 * X.sum(axis=1) + 0.2 * U.sum(axis=1))


# ---------------------------------------------------------------------------
# references: the per-cell and array forms
# ---------------------------------------------------------------------------

def per_trajectory_factors(traj, rate):
    """Node factors of one trajectory: states rebuilt backward from x(T), the rate at
    the step midpoints, the reversed cumulative sum of dt * m, then exp."""
    n, dt, start = len(traj.velocities), traj.window.omega / len(traj.velocities), traj.window.start
    tail = np.cumsum(traj.velocities[::-1], axis=0)[::-1] * dt
    states = np.empty((n + 1, len(traj.terminal_state)))
    states[-1] = traj.terminal_state
    states[:-1] = traj.terminal_state - tail
    mid_times = start + dt * (np.arange(n) + 0.5)
    mvals = eval_rate_batch(rate, mid_times, 0.5 * (states[:-1] + states[1:]), traj.velocities)
    tails = np.zeros(n + 1)
    tails[:-1] = np.cumsum((dt * mvals)[::-1])[::-1]
    if np.any(tails > _EXP_CAP):
        k = int(np.flatnonzero(tails > _EXP_CAP)[0])
        times = start + dt * np.arange(n + 1)
        raise RateOverflowError(f"accumulated rate overflows exp at node {k} (t={times[k]})")
    return np.exp(tails)


def per_cell_seed(base_seed, omega, upsilon):
    quant = [int(round(omega * 1e9)) & 0xFFFFFFFF]
    quant += [int(round(float(c) * 1e9)) & 0xFFFFFFFF for c in np.atleast_1d(upsilon)]
    return np.random.SeedSequence([int(base_seed)] + quant)


def per_cell_pricer(terminal, cost, rate, T, x, cfg):
    """The generalized (rate None) or discounted cell pricer, one discount and one
    seed per cell, every cell seeded when there are starts to draw."""
    def cells_fn(cells):
        out, live = [], []
        for om, ups in cells:
            if om == 0.0:
                out.append((eval_terminal(terminal, T, x).to_float(), None))
                continue
            ups = np.array(ups)
            c_val = eval_terminal(terminal, T - om, x - om * ups)
            if c_val.is_finite:
                live.append((len(out), om, ups, c_val.value))
            out.append((math.inf, None))
        if live:
            seeds = ([per_cell_seed(cfg.seed, om, ups) for _, om, ups, _ in live] if cfg.multi_starts
                     else [None] * len(live))
            lam, V = _solve_cells(cost, rate, T, x, [om for _, om, _, _ in live],
                                  [ups for _, _, ups, _ in live], cfg, lambda k: seeds[k])
            for (i, om, _, c), lam_k, v in zip(live, lam.tolist(), V):
                if math.isfinite(lam_k):
                    traj = trajectory(T, om, x, v)
                    d0 = None if rate is None else float(per_trajectory_factors(traj, rate)[0])
                    out[i] = ((c if d0 is None else d0 * c) + om * lam_k, (lam_k, om, v, c, d0))
        return out

    return cells_fn


class ArraySearch:
    """The pattern search with y, the steps and the probed cell as numpy arrays."""

    def __init__(self, grid, omega_max, steps, best, strict):
        self.grid, self.omega_max = grid, omega_max
        self.moves = [(d, sgn) for d in range(len(steps)) for sgn in (+1.0, -1.0)]
        self.y, self.steps = np.array([best[1], *best[2]]), np.asarray(steps)
        self.round = self.sweep = self.move = 0
        self.moved, self.strict, self.best, self.cell = False, strict, best, None

    def probe(self):
        if self.round == self.grid.max_rounds:
            return None
        d, sgn = self.moves[self.move]
        p = self.y.copy()
        p[d] += sgn * self.steps[d]
        om = min(max(p[0], 0.0), self.omega_max)
        om, ups = (om, p[1:]) if om > 0 else (0.0, np.zeros(len(p) - 1))
        self.cell = (om, ups)
        return om, ups

    def feed(self, value):
        om, ups = self.cell
        cand = (value, om, tuple(ups))
        if (cand[0] < self.best[0]) if self.strict else (cand < self.best):
            self.best, self.y, self.moved = cand, np.array([om, *ups]), True
        self.move += 1
        if self.move < len(self.moves):
            return
        self.move, self.sweep = 0, self.sweep + 1
        if not self.moved or self.sweep == 50:
            self.round, self.sweep, self.steps = self.round + 1, 0, self.steps * 0.5
        self.moved = False


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def bits(v):
    """A bit-exact, comparable form of a result and everything it holds."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return ("f", v.hex())
    if isinstance(v, np.ndarray):
        return ("a", v.dtype.str, v.shape, v.tobytes())
    if hasattr(v, "to_float"):
        return ("x", v.to_float().hex())
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple(bits(getattr(v, f.name)) for f in dataclasses.fields(v))
    raise TypeError(type(v))


def trajectory(T, omega, x, velocities):
    return Trajectory(window=Window(T=T, omega=omega), terminal_state=np.asarray(x, float),
                      velocities=np.asarray(velocities, float))


# ---------------------------------------------------------------------------
# one discount batch per pricing call
# ---------------------------------------------------------------------------

@st.composite
def trajectory_batches(draw, speed=3.0):
    """Trajectories of one step count, dimension, end time and end state, with their own apertures."""
    ell, n, b = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 6))
    num = st.floats(-speed, speed, allow_nan=False, allow_subnormal=False)
    T = draw(st.floats(-1.0, 2.0, allow_subnormal=False))
    x = [draw(st.floats(-2.0, 2.0, allow_subnormal=False)) for _ in range(ell)]
    return [trajectory(T, draw(st.floats(0.01, 2.0)), x, [[draw(num) for _ in range(ell)] for _ in range(n)])
            for _ in range(b)]


def factors(trajs, rate):
    """_accumulation_factors of a batch of trajectories that share T and x."""
    T, x = trajs[0].window.T, trajs[0].terminal_state
    return _accumulation_factors(T, x, [tr.window.omega for tr in trajs],
                                 np.stack([tr.velocities for tr in trajs]), rate)


class TestDiscountBatch:
    @settings(max_examples=80, deadline=None)
    @given(trajs=trajectory_batches(), rate=st.sampled_from(["constant", "velocity", "txu"]),
           r=st.floats(-2.0, 2.0, allow_subnormal=False))
    def test_rows_equal_the_per_trajectory_factors(self, trajs, rate, r):
        field = {"constant": make_rate("constant", r=r), "velocity": RATES["velocity"], "txu": TXU_RATE}[rate]
        got = factors(trajs, field)
        assert got.shape == (len(trajs), len(trajs[0].velocities) + 1)
        for row, traj in zip(got, trajs):
            want = per_trajectory_factors(traj, field)
            assert row.tobytes() == want.tobytes()
            assert accumulate_rate(traj, field).factors.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(trajs=trajectory_batches(speed=2000.0))
    def test_first_overflowing_lane_raises_its_message(self, trajs):
        rate = RATES["velocity"]
        want = None
        for traj in trajs:
            try:
                per_trajectory_factors(traj, rate)
            except RateOverflowError as exc:
                want = str(exc)
                break
        if want is None:
            factors(trajs, rate)
            return
        with pytest.raises(RateOverflowError) as info:
            factors(trajs, rate)
        assert str(info.value) == want

    def test_overflow_in_a_later_lane(self):
        calm = trajectory(2.0, 0.5, [0.2, 0.1], [[0.3, -0.2]] * 4)
        wild = trajectory(2.0, 1.0, [0.2, 0.1], [[900.0, 1.0]] * 4)
        with pytest.raises(RateOverflowError) as info:
            factors([calm, wild, calm], RATES["velocity"])
        with pytest.raises(RateOverflowError) as alone:
            per_trajectory_factors(wild, RATES["velocity"])
        assert str(info.value) == str(alone.value)
        assert "node 0 (t=1.0)" in str(info.value)


# ---------------------------------------------------------------------------
# the reductions against the per-cell pricer
# ---------------------------------------------------------------------------

COSTS = {"quadratic": QUAD, "weighted_quadratic": WQ, "abs": ABS, "descent_quadratic": DESCENT_QUAD}


@st.composite
def reductions(draw):
    ell = draw(st.sampled_from([1, 2]))
    if ell == 1:
        x = [draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))]
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5, max_rounds=draw(st.integers(0, 4)))
    else:
        radius, angle = draw(st.floats(0.9, 1.4)), draw(st.floats(0.0, 2.0 * math.pi))
        x = [radius * math.cos(angle), radius * math.sin(angle)]
        grid = OuterGrid.build(1.0, 1, [[-1, 1], [-1, 1]], 3, max_rounds=draw(st.integers(0, 2)))
    cost = draw(st.sampled_from(sorted(COSTS)))
    rate = draw(st.sampled_from(sorted(RATES)))
    cfg = SolverConfig(n_steps=draw(st.integers(2, 6)), multi_starts=draw(st.integers(0, 2)),
                       max_iter=draw(st.integers(0, 12)), seed=draw(st.integers(0, 3)))
    return cost, rate, np.array(x), grid, cfg


class TestReductionsMatchPerCellPricing:
    @settings(max_examples=40, deadline=None)
    @given(case=reductions())
    def test_value_results_bitwise(self, case):
        cost, rate, x, grid, cfg = case
        field = RATES[rate]
        if field is None:
            got = generalized_lax_hopf(QTERM, COSTS[cost], 1.0, x, grid, cfg)
        else:
            got = discounted_value(QTERM, COSTS[cost], field, 1.0, x, grid, cfg)
        want = _reduce(1.0, x, grid, per_cell_pricer(QTERM, COSTS[cost], field, 1.0, x, cfg))
        assert bits(got) == bits(want)

    def test_velocity_rate_with_starts(self):
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        cfg = SolverConfig(n_steps=8, multi_starts=1, max_iter=30, seed=0)
        x = np.array([0.95])
        got = discounted_value(QTERM, QUAD, RATES["velocity"], 1.0, x, grid, cfg)
        want = _reduce(1.0, x, grid, per_cell_pricer(QTERM, QUAD, RATES["velocity"], 1.0, x, cfg))
        assert got.discount_factor is not None and bits(got) == bits(want)

    def test_trajectory_window_takes_the_priced_aperture(self, monkeypatch):
        # the search can read a cell priced at 0.3 under the rounded key of its probe 0.1 + 0.2
        priced_at, probed_at = 0.3, 0.1 + 0.2
        payload = (0.5, priced_at, np.full((4, 1), 0.25), 0.1, None)
        monkeypatch.setattr(laxhopf_core, "_outer_minimize",
                            lambda grid, cells_fn, omega_max: (0.4, probed_at, np.array([0.25]), payload))
        got = _reduce(1.0, np.array([1.0]), OuterGrid.build(1.0, 2, [[-1, 1]], 5), None)
        assert got.trajectory.window.omega == priced_at != got.omega_star == probed_at


class TestSeedsOnlyForDescent:
    def count_seeds(self, monkeypatch, run):
        seeded, solved = [], []
        seed, solve = laxhopf_core._cell_seed, laxhopf_core._solve_cells

        def counted_seed(base, omega, ups):
            seeded.append((omega, tuple(ups.tolist())))
            return seed(base, omega, ups)

        def counted_solve(cost, rate, T, x, omegas, upsilons, cfg, seed_of, admissible=None):
            solved.extend((om, tuple(u.tolist())) for om, u in zip(omegas, upsilons))
            return solve(cost, rate, T, x, omegas, upsilons, cfg, seed_of, admissible)

        monkeypatch.setattr(laxhopf_core, "_cell_seed", counted_seed)
        monkeypatch.setattr(laxhopf_core, "_solve_cells", counted_solve)
        run()
        return seeded, solved

    def test_separable_query_draws_no_seed(self, monkeypatch):
        grid = OuterGrid.build(omega_max=1.0, n_omega=8, upsilon_box=[[-2, 2]], n_upsilon=17)
        seeded, solved = self.count_seeds(monkeypatch, lambda: generalized_lax_hopf(
            make_terminal("indicator_origin"), WQ, 1.0, 1.0, grid, SolverConfig(seed=0)))
        assert solved and seeded == []

    def test_constant_rate_query_draws_no_seed(self, monkeypatch):
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        cfg = SolverConfig(n_steps=8, multi_starts=1, max_iter=30, seed=0)
        seeded, solved = self.count_seeds(monkeypatch, lambda: discounted_value(
            QTERM, QUAD, RATES["constant"], 1.0, 1.0, grid, cfg))
        assert solved and seeded == []

    @pytest.mark.parametrize("rate", ["none", "velocity"])
    def test_one_seed_per_descent_cell(self, monkeypatch, rate):
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        cfg = SolverConfig(n_steps=6, multi_starts=2, max_iter=10, seed=0)
        cost = QUAD if rate == "velocity" else DESCENT_QUAD
        seeded, solved = self.count_seeds(monkeypatch, lambda: discounted_value(
            QTERM, cost, RATES[rate], 1.0, 0.9, grid, cfg) if RATES[rate] else
            generalized_lax_hopf(QTERM, cost, 1.0, 0.9, grid, cfg))
        assert solved and seeded == solved

    def test_single_start_draws_no_seed(self, monkeypatch):
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        cfg = SolverConfig(n_steps=6, multi_starts=0, max_iter=10, seed=0)
        seeded, solved = self.count_seeds(monkeypatch, lambda: generalized_lax_hopf(
            QTERM, DESCENT_QUAD, 1.0, 0.9, grid, cfg))
        assert solved and seeded == []


    def test_moderation_table_seeds_only_descent_entries(self, monkeypatch):
        cfg = SolverConfig(n_steps=6, multi_starts=2, max_iter=10, seed=3)
        omegas, ups = [0.5, 1.0], [[-0.5], [0.0], [0.5]]
        got = build_moderation_table(DESCENT_QUAD, 1.0, [1.0], omegas, ups, cfg)
        seeds = [np.random.SeedSequence([3, i, j]) for i in range(2) for j in range(3)]
        lam, V = _solve_cells(DESCENT_QUAD, None, 1.0, [1.0], [om for om in omegas for _ in ups],
                              [u for _ in omegas for u in ups], cfg, lambda k: seeds[k])
        assert got.values.tobytes() == lam.reshape(2, 3).tobytes()
        assert all(got.argmins[i][j].velocities.tobytes() == V[3 * i + j].tobytes()
                   for i in range(2) for j in range(3))

        def no_seed(*args, **kwargs):
            raise AssertionError("a separable entry drew a seed")

        monkeypatch.setattr(np.random, "SeedSequence", no_seed)
        assert np.isfinite(build_moderation_table(WQ, 1.0, [1.0], omegas, ups, SolverConfig()).values).all()


# ---------------------------------------------------------------------------
# the array results of the inner solve against the public single-cell calls
# ---------------------------------------------------------------------------

SOLVE_COSTS = {"quadratic": QUAD, "weighted_quadratic": WQ, "abs": ABS,
               "indicator_zero": make_cost("indicator_zero"), "descent_quadratic": DESCENT_QUAD,
               "descent_weighted_quadratic": dataclasses.replace(WQ, separable=None)}


@st.composite
def cell_batches(draw):
    """(cost, rate, x, cells, seeds): mixed apertures, upsilons in and out of the box."""
    ell = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(sorted(SOLVE_COSTS)))
    cost = SOLVE_COSTS[name]
    if draw(st.booleans()):
        cost = dataclasses.replace(cost, domain_box=np.array([[-1.0, 1.0]] * ell))
    coord = st.sampled_from([-1.5, -0.6, 0.0, 0.4, 1.0, 1.3])   # +-1.5, 1.3 leave the box
    cells = draw(st.lists(st.tuples(st.sampled_from([0.25, 0.5, 1.0]), st.tuples(*[coord] * ell)),
                          min_size=1, max_size=5))
    seeds = [draw(st.integers(0, 9)) for _ in cells]
    return cost, RATES[draw(st.sampled_from(sorted(RATES)))], [0.8] * ell, cells, seeds


class TestArrayResults:
    @settings(max_examples=60, deadline=None)
    @given(case=cell_batches(), starts=st.integers(0, 2))
    def test_rows_equal_the_single_cell_calls(self, case, starts):
        cost, rate, x, cells, seeds = case
        cfg = SolverConfig(n_steps=5, multi_starts=starts, max_iter=15, seed=1)
        lam, V = _solve_cells(cost, rate, 1.0, x, [om for om, _ in cells], [u for _, u in cells], cfg,
                              lambda c: seeds[c])
        assert lam.shape == (len(cells),) and V.shape == (len(cells), cfg.n_steps, len(x))
        for c, (om, ups) in enumerate(cells):
            if rate is None:
                one, traj = moderate(ModerationProblem(cost, 1.0, np.array(x), om, np.array(ups)), cfg, seeds[c])
            else:
                one, traj = discounted_moderate(cost, rate, 1.0, x, om, ups, cfg, seeds[c])
            if not one.is_finite:
                assert lam[c] == math.inf and traj is None and np.isnan(V[c]).all()
                continue
            assert lam[c].hex() == one.value.hex()
            assert V[c].tobytes() == traj.velocities.tobytes()
            assert (traj.window.T, traj.window.omega) == (1.0, om)

    def test_infeasible_rows(self):
        # upsilon outside the box, and the indicator of zero away from zero
        cfg = SolverConfig(n_steps=4, multi_starts=1, max_iter=5)
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        lam, V = _solve_cells(boxed, None, 1.0, [1.0], [0.5, 1.0], [[1.5], [0.5]], cfg, lambda c: c)
        assert lam[0] == math.inf and np.isnan(V[0]).all()
        assert lam[1] == 0.125 and np.array_equal(V[1], np.full((4, 1), 0.5))
        lam, V = _solve_cells(make_cost("indicator_zero"), None, 1.0, [1.0], [0.5, 0.5], [[0.0], [0.3]],
                              cfg, lambda c: c)
        assert lam.tolist() == [0.0, math.inf] and np.isnan(V[1]).all() and not np.isnan(V[0]).any()


# ---------------------------------------------------------------------------
# the pattern search on floats against the array form
# ---------------------------------------------------------------------------

@st.composite
def searches(draw):
    ell = draw(st.sampled_from([1, 2]))
    omega_max = draw(st.floats(0.25, 2.0))
    grid = OuterGrid.build(omega_max, 2, [[-1, 1]] * ell, 3, max_rounds=draw(st.integers(1, 8)))
    unit = st.floats(-1.0, 1.0)
    start = (draw(st.floats(0.0, omega_max)), tuple(draw(unit) for _ in range(ell)))
    steps = [draw(st.floats(0.01, 1.5)) for _ in range(1 + ell)]
    center = [draw(st.floats(-0.5, 2.5))] + [draw(unit) for _ in range(ell)]
    weights = [draw(st.floats(0.1, 3.0)) for _ in range(1 + ell)]
    return grid, omega_max, start, steps, center, weights, draw(st.booleans())


def walk(search, value):
    """Every cell the array ``search`` reads, in order, and its end point."""
    reads = []
    while (probe := search.probe()) is not None:
        om, ups = probe
        reads.append((float(om), tuple(map(float, ups))))
        search.feed(value(om, ups))
    return reads, (search.best[0], float(search.best[1]), tuple(map(float, search.best[2])))


def float_walk(grid, omega_max, steps, best, strict, value):
    """Every cell ``_search`` reads from ``best``, in order, and its end point."""
    reads = []

    def read(cell, state):
        reads.append(cell)
        return value(*cell)

    at = ((best[1], *best[2]), tuple(steps), best, 0, 0, 0, False)
    return reads, _search(read, at, strict, omega_max, grid.max_rounds)


class TestFloatPatternSearch:
    @settings(max_examples=100, deadline=None)
    @given(case=searches())
    # a probe past omega_max clips to it
    @example((OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=3), 1.0, (0.9, (0.5,)), [0.7, 0.5],
              [3.0, 0.4], [1.0, 1.0], False))
    # the strict walk from the zero cell's best positive neighbour: low probes map to the zero cell
    @example((OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=4), 1.0, (0.5, (0.0,)), [0.5, 0.5],
              [0.0, 0.0], [1.0, 1.0], True))
    def test_reads_the_cells_of_the_array_search(self, case):
        grid, omega_max, (om0, ups0), steps, center, weights, strict = case
        center, weights = np.asarray(center), np.asarray(weights)

        def value(om, ups):
            if om == 0.0:
                return 0.05
            y = np.array([om, *ups])
            return 0.01 + float(weights @ (y - center) ** 2)

        best = (value(om0, ups0), om0, ups0)
        got = float_walk(grid, omega_max, steps, best, strict, value)
        want = walk(ArraySearch(grid, omega_max, steps, best, strict), value)
        assert got == want
        assert all(0.0 <= om <= omega_max for om, _ in got[0])

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(0.0, 10.0), ups=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3))
    def test_keys_are_numpy_rounding(self, omega, ups):
        # The grid pass stores the cell (omega, ups) under its round(., 12) key.
        # The search's first probe clips back to that very point, and finds it stored
        # only if the key of a probe is the same rounding; else it is priced again.
        batches = []

        def cells_fn(cells):
            batches.append(cells)
            return [(2.0 if om == 0.0 else 1.0, None) for om, _ in cells]

        _outer_minimize(OuterGrid([omega], [ups], max_rounds=1), cells_fn, omega)
        assert all((omega, tuple(ups)) not in cells for cells in batches[1:])


# ---------------------------------------------------------------------------
# dimension misuse
# ---------------------------------------------------------------------------

class TestDimensionMisuse:
    CFG = SolverConfig(n_steps=4, multi_starts=0, max_iter=5)

    @pytest.mark.parametrize("x, ups", [([1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0])])
    def test_moderate_names_both_dimensions(self, x, ups):
        prob = ModerationProblem(cost=QUAD, T=1.0, x=np.array(x), omega=1.0, upsilon=np.array(ups))
        with pytest.raises(MisuseError, match=f"upsilon dimension {len(ups)} != state dimension {len(x)}"):
            moderate(prob, self.CFG)

    def test_reductions_name_both_dimensions(self):
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 3)
        match = "upsilon lattice dimension 1 != state dimension 2"
        with pytest.raises(MisuseError, match=match):
            generalized_lax_hopf(QTERM, QUAD, 1.0, [1.0, 0.5], grid, self.CFG)
        with pytest.raises(MisuseError, match=match):
            classic_lax_hopf(QTERM, QUAD, 1.0, [1.0, 0.5], grid)
        with pytest.raises(MisuseError, match=match):
            discounted_value(QTERM, QUAD, RATES["velocity"], 1.0, [1.0, 0.5], grid, self.CFG)
        grid2 = OuterGrid.build(1.0, 2, [[-1, 1], [-1, 1]], 3)
        with pytest.raises(MisuseError, match="upsilon lattice dimension 2 != state dimension 1"):
            generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, grid2, self.CFG)


NONFINITE_GRID = OuterGrid.build(1, 2, [[-1, 1]], 5)
NONFINITE_CFG = SolverConfig(n_steps=4, multi_starts=0, max_iter=5)


@pytest.mark.parametrize("name, call", [
    ("T", lambda: classic_lax_hopf(QTERM, QUAD, math.nan, 0.5, NONFINITE_GRID)),
    ("T", lambda: generalized_lax_hopf(QTERM, QUAD, math.nan, 0.5, NONFINITE_GRID, NONFINITE_CFG)),
    ("T", lambda: generalized_lax_hopf(QTERM, QUAD, math.inf, 0.5, NONFINITE_GRID, NONFINITE_CFG)),
    ("x", lambda: generalized_lax_hopf(QTERM, QUAD, 1.0, math.nan, NONFINITE_GRID, NONFINITE_CFG)),
    ("T", lambda: discounted_value(QTERM, QUAD, make_rate("constant", r=0.6), math.nan, 0.5,
                                   NONFINITE_GRID, NONFINITE_CFG)),
    ("T", lambda: moderate(ModerationProblem(QUAD, math.nan, [1.0], 0.5, [0.5]), NONFINITE_CFG)),
    ("x", lambda: moderate(ModerationProblem(QUAD, 1.0, [math.nan], 0.5, [0.5]), NONFINITE_CFG)),
    ("upsilon", lambda: moderate(ModerationProblem(QUAD, 1.0, [1.0], 0.5, [math.nan]), NONFINITE_CFG)),
    ("upsilon", lambda: moderate(ModerationProblem(QUAD, 1.0, [1.0], 0.5, [math.inf]), NONFINITE_CFG)),
    ("T", lambda: build_moderation_table(QUAD, math.nan, [1.0], [0.5], [[0.5]], NONFINITE_CFG)),
], ids=["classic-T-nan", "generalized-T-nan", "generalized-T-inf", "generalized-x-nan",
        "discounted-T-nan", "moderate-T-nan", "moderate-x-nan", "moderate-upsilon-nan",
        "moderate-upsilon-inf", "table-T-nan"])
def test_nonfinite_input_is_misuse(name, call):
    # each of these once returned a value, blamed the terminal or the cost, or warned
    with pytest.raises(MisuseError, match=f"^{name} must be finite"):
        call()
