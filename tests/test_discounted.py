import dataclasses
import math

import numpy as np
import pytest

from laxhopf import (
    RateField,
    SolverConfig,
    Window,
    accumulate_rate,
    actualized_enrichment_certificate,
    build_trajectory,
    discounted_moderate,
    discounted_value,
    generalized_lax_hopf,
    make_cost,
    make_rate,
    make_terminal,
    moderate,
    ModerationProblem,
)
from laxhopf.errors import MisuseError, RateOverflowError

QUAD = make_cost("quadratic")
IND = make_terminal("indicator_origin")
QTERM = make_terminal("quadratic_state")
ZERO_RATE = make_rate("zero")


class TestAccumulateRate:
    def test_zero_rate_unit_factors(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 4)
        prof = accumulate_rate(traj, ZERO_RATE)
        np.testing.assert_array_equal(prof.factors, 1.0)

    def test_scalar_only_rate_matches_batch_twin(self):
        traj = build_trajectory(Window(T=1.0, omega=0.8), 0.3,
                                np.linspace(-1.0, 1.5, 12))
        scalar = RateField(evaluator=lambda t, x, u: 0.2 * t - float(u[0]) + float(x[0]))
        batch = RateField(batch_evaluator=lambda t, X, U: 0.2 * t - U[:, 0] + X[:, 0])
        np.testing.assert_array_equal(accumulate_rate(traj, scalar).factors,
                                      accumulate_rate(traj, batch).factors)

    def test_constant_rate_exponential(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 50)
        prof = accumulate_rate(traj, make_rate("constant", r=0.1))
        assert prof.factors[0] == pytest.approx(math.exp(0.1), abs=1e-6)
        assert prof.factors[-1] == 1.0

    def test_velocity_rate(self):
        ups = 0.7
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [ups] * 20)
        prof = accumulate_rate(traj, make_rate("velocity"))
        assert prof.factors[0] == pytest.approx(math.exp(ups * 1.0), rel=1e-9)

    def test_overflow_guard(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 4)
        with pytest.raises(RateOverflowError, match="node"):
            accumulate_rate(traj, make_rate("constant", r=1e5))

    def test_positivity(self):
        traj = build_trajectory(Window(T=1.0, omega=1.0), 1.0, [1.0] * 8)
        prof = accumulate_rate(traj, make_rate("constant", r=-3.0))
        assert np.all(prof.factors > 0)

    def test_unknown_rate(self):
        with pytest.raises(MisuseError):
            make_rate("stochastic")


class TestDiscountedModerate:
    def test_zero_rate_equals_moderate_bitwise(self, fast_cfg):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        lam_a, traj_a = moderate(
            ModerationProblem(cost=QUAD, T=1.0, x=np.array([1.0]), omega=1.0,
                              upsilon=np.array([1.5])), fast_cfg, rng=rng_a)
        lam_b, traj_b = discounted_moderate(QUAD, ZERO_RATE, 1.0, [1.0], 1.0, [1.5],
                                            fast_cfg, rng=rng_b)
        assert lam_a.value == lam_b.value
        np.testing.assert_array_equal(traj_a.velocities, traj_b.velocities)

    def test_constant_rate_upper_bound(self, fast_cfg):
        # the constant-velocity candidate gives l(ups) * (e^{r*omega} - 1) / (r*omega)
        r = 0.5
        bound = 0.5 * (math.exp(r) - 1.0) / r
        lam, _ = discounted_moderate(QUAD, make_rate("constant", r=r),
                                     1.0, [1.0], 1.0, [1.0], fast_cfg)
        assert lam.value <= bound + 1e-6

    def test_constant_rate_quadrature_closed_form(self):
        # force the constant trajectory (single start, zero iterations of descent, which
        # the cost takes without its separable declaration)
        cfg = SolverConfig(n_steps=200, multi_starts=0, max_iter=0, seed=0)
        r = 0.5
        descent_quad = dataclasses.replace(QUAD, separable=None)
        lam, _ = discounted_moderate(descent_quad, make_rate("constant", r=r),
                                     1.0, [1.0], 1.0, [1.0], cfg)
        ref = 0.5 * (math.exp(r) - 1.0) / r
        assert lam.value == pytest.approx(ref, abs=1e-4)

    def test_infeasible_upsilon(self, fast_cfg):
        boxed = make_cost("quadratic", domain=[[-1, 1]])
        lam, traj = discounted_moderate(boxed, ZERO_RATE, 1.0, [0.0], 1.0, [2.0],
                                        fast_cfg)
        assert not lam.is_finite and traj is None


class TestDiscountedValue:
    def test_zero_rate_reduction_bitwise(self, scalar_grid, fast_cfg):
        a = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, scalar_grid, fast_cfg)
        b = discounted_value(QTERM, QUAD, ZERO_RATE, 1.0, 1.0, scalar_grid, fast_cfg)
        assert a.value.value == b.value.value
        assert a.omega_star == b.omega_star
        np.testing.assert_array_equal(a.upsilon_star, b.upsilon_star)
        np.testing.assert_array_equal(a.trajectory.velocities,
                                      b.trajectory.velocities)
        assert b.discount_factor == 1.0

    def test_monotone_in_rate(self, fast_cfg):
        from laxhopf import OuterGrid
        grid = OuterGrid.build(1.0, 4, [[-2, 2]], 11, refine=False)
        vals = []
        for r in (0.0, 0.1, 0.5):
            res = discounted_value(QTERM, QUAD, make_rate("constant", r=r),
                                   1.0, 1.0, grid, fast_cfg)
            vals.append(res.value.value)
        assert vals[0] <= vals[1] + 1e-6
        assert vals[1] <= vals[2] + 1e-6

    def test_indicator_anchor_at_zero_rate(self, scalar_grid, fast_cfg):
        res = discounted_value(IND, QUAD, ZERO_RATE, 1.0, 1.0, scalar_grid, fast_cfg)
        assert res.value.value == pytest.approx(0.5, abs=1e-6)

    def test_nonnegative_values(self, scalar_grid, fast_cfg):
        res = discounted_value(QTERM, QUAD, make_rate("constant", r=0.3),
                               1.0, 1.0, scalar_grid, fast_cfg)
        assert res.value.value >= 0.0


class TestActualizedCertificate:
    def test_zero_rate_matches_undiscounted(self, scalar_grid, fast_cfg):
        from laxhopf import optimum_certificate
        res = discounted_value(QTERM, QUAD, ZERO_RATE, 1.0, 1.0, scalar_grid, fast_cfg)
        a = actualized_enrichment_certificate(res, QTERM, ZERO_RATE)
        b = optimum_certificate(res, QTERM, res.moderation_lambda)
        assert a == b

    def test_quadratic_benchmark_small_residual(self, scalar_grid, fast_cfg):
        res = discounted_value(QTERM, QUAD, make_rate("constant", r=0.1),
                               1.0, 1.0, scalar_grid, fast_cfg)
        assert actualized_enrichment_certificate(
            res, QTERM, make_rate("constant", r=0.1)) <= 1e-4

    def test_zero_aperture_none(self, fast_cfg):
        from laxhopf import OuterGrid
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 3, refine=False)
        zero_l = make_cost("quadratic", a=0.0)
        res = discounted_value(make_terminal("zero"), zero_l, ZERO_RATE, 1.0, 1.0,
                               grid, fast_cfg)
        assert res.omega_star == 0.0
        assert actualized_enrichment_certificate(res, make_terminal("zero"),
                                                 ZERO_RATE) is None
