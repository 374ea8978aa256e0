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
from laxhopf.errors import MisuseError
from laxhopf.moderation import _solve_cells

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
