import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxhopf import (
    ModerationProblem,
    SolverConfig,
    average_transaction,
    build_moderation_table,
    cumulated_cost,
    jensen_gap,
    make_cost,
    make_rate,
    moderate,
    moderation_table_to_csv,
)
from laxhopf.costs import CostField, RateField
from laxhopf.errors import MisuseError
from laxhopf.moderation import _solve_cells, _WindowObjective

QUAD = make_cost("quadratic")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
REF_WQ = 1.0 / (2.0 * math.log(2.0))  # minimal normalized cost at T=1, omega=1, upsilon=1


def prob(cost, omega=1.0, upsilon=2.0, T=1.0, x=1.0):
    return ModerationProblem(cost=cost, T=T, x=np.atleast_1d(float(x)),
                             omega=omega, upsilon=np.atleast_1d(float(upsilon)))


class TestModerate:
    def test_jensen_closed_form(self, fast_cfg):
        lam, traj = moderate(prob(QUAD, upsilon=2.0), fast_cfg)
        assert lam.value == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(traj.velocities, 2.0, atol=1e-4)

    def test_time_weighted_euler_lagrange(self):
        cfg = SolverConfig(n_steps=64, multi_starts=2, max_iter=300, seed=0)
        lam, traj = moderate(prob(WQ, upsilon=1.0), cfg)
        assert lam.value == pytest.approx(REF_WQ, abs=1e-3)
        # argmin velocity is proportional to 1/(1+t): decreasing over the window
        u = traj.velocities[:, 0]
        assert u[0] > u[-1]
        expected = 1.0 / ((1.0 + traj.mid_times) * math.log(2.0))
        np.testing.assert_allclose(u, expected, atol=5e-3)

    def test_zero_transaction_zero_cost(self, fast_cfg):
        lam, traj = moderate(prob(QUAD, upsilon=0.0), fast_cfg)
        assert lam.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(traj.velocities, 0.0, atol=1e-6)

    def test_infeasible_upsilon_outside_box(self, fast_cfg):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        lam, traj = moderate(prob(boxed, upsilon=2.0), fast_cfg)
        assert not lam.is_finite
        assert traj is None

    def test_nonpositive_aperture_misuse(self, fast_cfg):
        with pytest.raises(MisuseError):
            moderate(prob(QUAD, omega=0.0), fast_cfg)


def counted(cost):
    """The cost with its batch evaluator wrapped to record one entry per call."""
    calls = []

    def batch(t, X, U):
        calls.append(len(U))
        return cost.batch_evaluator(t, X, U)

    return dataclasses.replace(cost, batch_evaluator=batch), calls


class TestStopRule:
    def test_quick_start_stops_early(self):
        # README quick-start cell; a descent run to max_iter makes 4,482 calls
        cost, calls = counted(WQ)
        lam, _ = moderate(prob(cost, upsilon=1.0), SolverConfig(seed=0))
        assert len(calls) <= 600
        assert lam.value == pytest.approx(REF_WQ, abs=2e-3)

    def test_no_iterations_no_gradient(self):
        # all starts are priced together: one row per step of each start, no gradient rows
        cost, calls = counted(WQ)
        cfg = SolverConfig(max_iter=0, seed=0)
        moderate(prob(cost, upsilon=1.0), cfg)
        assert sum(calls) == (cfg.multi_starts + 1) * cfg.n_steps


# state-dependent user fields with partials, so the adjoint's l_x and m_x terms are exercised
STATE_COST = CostField(
    batch_evaluator=lambda t, X, U: np.sum((1.0 + X * X) * U * U, axis=1) / 2.0,
    partials=lambda t, X, U: (X * U * U, (1.0 + X * X) * U),
)
STATE_RATE = RateField(
    batch_evaluator=lambda t, X, U: 0.3 * np.sum(np.sin(X), axis=1) + 0.2 * np.sum(U, axis=1) + t,
    partials=lambda t, X, U: (0.3 * np.cos(X), np.full(U.shape, 0.2)),
)
GRADIENT_COSTS = {
    "quadratic": lambda ell: make_cost("quadratic", a=0.7),
    "boxed": lambda ell: make_cost("quadratic", domain=[[-3, 3]] * ell),
    "abs": lambda ell: make_cost("abs"),
    "weighted_quadratic": lambda ell: make_cost("weighted_quadratic", a0=0.5, a1=2.0),
    "indicator_zero": lambda ell: make_cost("indicator_zero"),
    "state": lambda ell: STATE_COST,
}
GRADIENT_RATES = {
    "none": None,
    "zero": make_rate("zero"),
    "constant": make_rate("constant", r=0.6),
    "velocity": make_rate("velocity"),
    "state": STATE_RATE,
}


@st.composite
def gradient_lanes(draw):
    """(ell, T, omegas, x, U): lanes of velocities at least 0.05 from the kink of abs."""
    ell = draw(st.sampled_from([1, 2]))
    n_lanes, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    omegas = draw(st.lists(st.floats(0.1, 2.0), min_size=n_lanes, max_size=n_lanes))
    x = draw(st.lists(st.floats(-2.0, 2.0), min_size=ell, max_size=ell))
    mags = draw(st.lists(st.floats(0.05, 2.0), min_size=n_lanes * n * ell,
                         max_size=n_lanes * n * ell))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(mags), max_size=len(mags)))
    U = (np.array(mags) * np.array(signs)).reshape(n_lanes, n, ell)
    return ell, draw(st.floats(0.0, 2.0)), np.array(omegas), np.array(x), U


class TestGradient:
    @pytest.mark.parametrize("cost", sorted(GRADIENT_COSTS))
    @pytest.mark.parametrize("rate", sorted(GRADIENT_RATES))
    @settings(max_examples=10, deadline=None)
    @given(drawn=gradient_lanes())
    def test_adjoint_equals_finite_differences(self, cost, rate, drawn):
        ell, T, omegas, x, U = drawn
        if cost == "indicator_zero":
            U = np.zeros_like(U)   # its only finite point
        obj = _WindowObjective(GRADIENT_COSTS[cost](ell), GRADIENT_RATES[rate], T, omegas, x,
                               U.shape[1])
        lanes = np.arange(len(U))
        base = obj.values(U, lanes)
        assert np.isfinite(base).all()
        fd = obj._fd_gradient(U, lanes, base, 1e-6)
        adjoint = obj.gradient(U, lanes, base, 1e-6)
        np.testing.assert_allclose(adjoint, fd, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(fd).max()))

    @pytest.mark.parametrize("ell", [1, 2])
    def test_field_without_partials_takes_finite_differences(self, ell):
        cost, calls = counted(dataclasses.replace(WQ, partials=None))
        n, lanes = 5, np.arange(3)
        obj = _WindowObjective(cost, None, 1.0, [0.5, 1.0, 0.8], [1.0] * ell, n)
        U = np.random.default_rng(0).uniform(-1, 1, (3, n, ell))
        base = obj.values(U, lanes)
        calls.clear()
        obj.gradient(U, lanes, base, 1e-6)
        assert sum(calls) == len(lanes) * 2 * n * ell * n

    def test_catalog_gradient_prices_no_perturbed_rows(self):
        cost, calls = counted(WQ)
        n, lanes = 8, np.arange(2)
        obj = _WindowObjective(cost, make_rate("velocity"), 1.0, [0.5, 1.0], [1.0], n)
        U = np.random.default_rng(0).uniform(-1, 1, (2, n, 1))
        obj.gradient(U, lanes, obj.values(U, lanes), 1e-6)
        assert sum(calls) == 2 * (len(lanes) * n)   # the objective once, the adjoint once

    def test_replace_keeps_partials(self):
        wrapped, _ = counted(WQ)
        assert wrapped.partials is WQ.partials


class TestInvariants:
    def test_constraint_exactness(self, fast_cfg):
        for ups in (-1.5, 0.3, 2.0):
            _, traj = moderate(prob(WQ, upsilon=ups), fast_cfg)
            assert average_transaction(traj)[0] == pytest.approx(ups, abs=1e-12)

    def test_upper_bound_soundness(self, fast_cfg):
        # any feasible hand-made trajectory has normalized cost >= lambda - 1e-9
        lam, _ = moderate(prob(WQ, upsilon=1.0, omega=1.0), fast_cfg)
        rng = np.random.default_rng(7)
        from laxhopf import Window, build_trajectory
        for _ in range(10):
            u = rng.uniform(-1, 3, size=16)
            u = u - u.mean() + 1.0
            traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, u)
            val = cumulated_cost(traj, WQ).value / 1.0
            assert val >= lam.value - 1e-9

    def test_value_matches_argmin_cost(self, fast_cfg):
        # stored lambda equals the recomputed normalized cumulated cost of the argmin
        lam, traj = moderate(prob(WQ, upsilon=1.3, omega=0.8), fast_cfg)
        recomputed = cumulated_cost(traj, WQ).value / 0.8
        assert lam.value == pytest.approx(recomputed, abs=1e-12)

    def test_base_point_invariance_velocity_only(self, fast_cfg):
        a, _ = moderate(prob(QUAD, upsilon=1.2, x=0.0), fast_cfg)
        b, _ = moderate(prob(QUAD, upsilon=1.2, x=5.0), fast_cfg)
        assert a.value == pytest.approx(b.value, abs=1e-6)


def lane_cost(name, ell):
    """(cost, rate): quadratic boxed to [-1, 1], or weighted_quadratic with or without a rate."""
    if name == "boxed":
        return make_cost("quadratic", domain=[[-1, 1]] * ell), None
    return WQ, make_rate("velocity") if name == "wq_velocity" else None


@st.composite
def lane_batches(draw):
    """Distinct (omega, upsilon) cells and a random subset of them in random order."""
    ell = draw(st.sampled_from([1, 2]))
    coord = st.sampled_from([-1.5, -1.0, -0.4, 0.0, 0.3, 0.95, 1.2])   # +-1.5, 1.2 leave the box
    cell = st.tuples(st.sampled_from([0.25, 0.5, 1.0]), st.tuples(*[coord] * ell))
    cells = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    batch = draw(st.permutations(cells))[: draw(st.integers(1, len(cells)))]
    return ell, cells, batch


class TestLockstep:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["boxed", "wq", "wq_velocity"]), drawn=lane_batches(),
           starts=st.integers(0, 2))
    def test_cell_in_any_batch_equals_cell_alone(self, name, drawn, starts):
        ell, cells, batch = drawn
        cost, rate = lane_cost(name, ell)
        cfg = SolverConfig(n_steps=6, multi_starts=starts, max_iter=25, seed=0)

        def solve(part):
            seeds = [np.random.SeedSequence([3, cells.index(c)]) for c in part]
            return _solve_cells(cost, rate, 1.0, [1.0] * ell, [om for om, _ in part],
                                [ups for _, ups in part], cfg, seeds)

        for c, (lam, traj) in zip(batch, solve(batch)):
            alone, alone_traj = solve([c])[0]
            assert lam.to_float() == alone.to_float()
            if traj is None:
                assert alone_traj is None
            else:
                assert np.array_equal(traj.velocities, alone_traj.velocities)


class TestModerationTable:
    def test_jensen_grid(self, fast_cfg):
        table = build_moderation_table(QUAD, 1.0, 0.0, [0.5, 1.0, 2.0],
                                       [[-1.0], [0.0], [2.0]], fast_cfg)
        for i in range(3):
            for j, ups in enumerate([-1.0, 0.0, 2.0]):
                assert table.values[i, j] == pytest.approx(0.5 * ups * ups, abs=1e-6)

    def test_infeasible_entries(self, fast_cfg):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        table = build_moderation_table(boxed, 1.0, 0.0, [1.0], [[0.5], [2.0]], fast_cfg)
        assert math.isfinite(table.values[0, 0])
        assert math.isinf(table.values[0, 1])

    def test_single_entry_delegation(self, fast_cfg):
        lam, _ = moderate(prob(WQ, upsilon=1.0), fast_cfg,
                          rng=np.random.default_rng(np.random.SeedSequence([0, 0, 0])))
        table = build_moderation_table(WQ, 1.0, 1.0, [1.0], [[1.0]], fast_cfg)
        assert table.values[0, 0] == lam.value

    def test_csv_byte_identical_across_runs(self, tmp_path, fast_cfg):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            table = build_moderation_table(boxed, 1.0, 0.5, [0.5, 1.0], [[-0.5], [0.4], [1.5]],
                                           fast_cfg)
            moderation_table_to_csv(table, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_grid_misuse(self, fast_cfg):
        with pytest.raises(MisuseError):
            build_moderation_table(QUAD, 1.0, 0.0, [], [[1.0]], fast_cfg)

    def test_csv_serializes_inf(self, tmp_path, fast_cfg):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        table = build_moderation_table(boxed, 1.0, 0.0, [1.0], [[2.0]], fast_cfg)
        path = tmp_path / "table.csv"
        moderation_table_to_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "omega,upsilon_1,lambda"
        assert lines[1].split(",")[-1] == "inf"


class TestJensenGap:
    def test_quadratic(self, fast_cfg):
        assert abs(jensen_gap(QUAD, 1.0, 0.0, 1.0, 3.0, fast_cfg)) <= 1e-6

    def test_abs(self, fast_cfg):
        gap = jensen_gap(make_cost("abs"), 1.0, 0.0, 2.0, -1.0, fast_cfg)
        assert abs(gap) <= 1e-6

    def test_zero_exact(self, fast_cfg):
        assert jensen_gap(QUAD, 1.0, 0.0, 1.0, 0.0, fast_cfg) == 0.0

    def test_precondition_misuse(self, fast_cfg):
        with pytest.raises(MisuseError):
            jensen_gap(WQ, 1.0, 0.0, 1.0, 1.0, fast_cfg)  # not velocity-only
