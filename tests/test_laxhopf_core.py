import json
import math

import numpy as np
import pytest

from laxhopf import (
    OuterGrid,
    SolverConfig,
    classic_lax_hopf,
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


class TestProperties:
    def test_obstacle_bound(self, scalar_grid, fast_cfg):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1.5, 1.5, size=20):
            res = generalized_lax_hopf(QTERM, QUAD, 1.0, x, scalar_grid, fast_cfg)
            assert res.value.to_float() <= x * x + 1e-9

    def test_grid_monotonicity(self, fast_cfg):
        coarse = OuterGrid.build(1.0, 4, [[-2, 2]], 9, refine=False)
        fine = OuterGrid.build(1.0, 8, [[-2, 2]], 17, refine=False)
        a = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, coarse, fast_cfg)
        b = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, fine, fast_cfg)
        assert b.value.to_float() <= a.value.to_float() + 1e-9

    def test_deterministic_tie_break(self, fast_cfg):
        # flat landscape: every cell has the same value; smallest omega then ups wins
        zero_term = make_terminal("zero")
        zero_l = make_cost("quadratic", a=0.0)
        grid = OuterGrid.build(1.0, 4, [[-1, 1]], 5, refine=False)
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


class TestCellCache:
    def test_failed_prefetch_stores_nothing(self):
        from laxhopf.errors import RateOverflowError
        from laxhopf.laxhopf_core import _CellCache

        batches = []

        def cells_fn(cells):
            batches.append(len(cells))
            if any(om > 1.0 for om, _ in cells):
                raise RateOverflowError("bad cell")
            return [(om, None) for om, _ in cells]

        cache = _CellCache(cells_fn)
        good, bad = (0.5, np.array([1.0])), (2.0, np.array([1.0]))
        keys = cache.prefetch([good, bad])
        assert cache.store == {}
        assert cache.get(keys[0], *good) == (0.5, None)
        with pytest.raises(RateOverflowError):
            cache.get(keys[1], *bad)
        assert batches == [2, 1, 1]

    def test_prefetch_leaves_the_search_path(self, scalar_grid, monkeypatch):
        from laxhopf.laxhopf_core import _CellCache, _outer_minimize

        def run():
            asked = []

            def cells_fn(cells):
                asked.append(len(cells))
                return [((om - 0.37) ** 2 + (ups[0] - 0.61) ** 2 if om > 0 else 1.0, None)
                        for om, ups in cells]

            return _outer_minimize(scalar_grid, cells_fn, 1.0), asked

        (value, om, ups, _), asked = run()
        monkeypatch.setattr(_CellCache, "prefetch",
                            lambda self, cells: [self.key(*c) for c in cells])
        (value_1, om_1, ups_1, _), asked_1 = run()
        assert (value, om) == (value_1, om_1) and np.array_equal(ups, ups_1)
        assert max(asked[1:]) > 1 and max(asked_1[1:]) == 1
