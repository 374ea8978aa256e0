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
        grid = OuterGrid.build(1.0, 4, [[-2, 2]], 11, max_rounds=0)
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
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 3, max_rounds=0)
        zero_l = make_cost("quadratic", a=0.0)
        res = discounted_value(make_terminal("zero"), zero_l, ZERO_RATE, 1.0, 1.0,
                               grid, fast_cfg)
        assert res.omega_star == 0.0
        assert actualized_enrichment_certificate(res, make_terminal("zero"),
                                                 ZERO_RATE) is None


class TestVelocityRateClosedForm:
    """The benchmark's ``velocity_rate`` query against a closed form that shares no code with it.

    With m = u the accumulation factor from t to T is e^{x(T) - x(t)}, and y = e^{-x/2}
    turns e^{-x} |x'|^2 / 2 into 2 |y'|^2, so on the window [0, 1] that the query picks
    V(x) = min_{x0} e^{x - x0} x0^2 + 2 e^x (e^{-x/2} - e^{-x0/2})^2.
    """

    @staticmethod
    def closed_form(x: float) -> float:
        def f(x0):
            return np.exp(x - x0) * x0 ** 2 + 2.0 * np.exp(x) * (np.exp(-x / 2) - np.exp(-x0 / 2)) ** 2
        grid = np.linspace(-3.0, 3.0, 60001)
        i = int(np.argmin(f(grid)))
        lo, hi = grid[i - 1], grid[i + 1]
        for _ in range(60):   # golden section on the bracket of the grid minimum
            a, b = lo + 0.382 * (hi - lo), hi - 0.382 * (hi - lo)
            lo, hi = (lo, b) if f(a) < f(b) else (a, hi)
        return float(f(0.5 * (lo + hi)))

    @pytest.mark.parametrize("x, value", [(-1.1, 0.2530037350), (1.0, 0.5293717521), (1.1, 0.6721453064)])
    def test_the_reference(self, x, value):
        assert self.closed_form(x) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("x", [-1.1, 1.0, 1.1])
    def test_second_order_in_n_steps(self, x):
        # |error| * N^2 measured 1.1e-3 to 4.3e-3 at N = 8, 16, 32, 64 on these three
        # points; 5e-3 / N^2 pins the order with room for the search's resolution
        from laxhopf import OuterGrid
        grid, ref = OuterGrid.build(1, 2, [[-1, 1]], 5), self.closed_form(x)
        for n in (8, 16, 32, 64):
            cfg = SolverConfig(n_steps=n, multi_starts=1, max_iter=30)
            res = discounted_value(QTERM, QUAD, make_rate("velocity"), 1.0, [x], grid, cfg)
            assert abs(res.value.value - ref) <= 5e-3 / n ** 2, n
