import math

import numpy as np
import pytest

from laxhopf import (
    EconomyState,
    ImpetusCostSpec,
    OuterGrid,
    SolverConfig,
    economic_value,
    economy_enrichment_certificate,
    generalized_lax_hopf,
    impact_of_price_fluctuation,
    impetus,
    impetus_cost,
    impetus_cost_field,
    make_cost,
    make_terminal,
    pack_economy,
    patrimonial_value,
    unpack_economy,
)
from laxhopf.costs import TerminalCost
from laxhopf.errors import MisuseError


def spec_with(scalar=lambda e: e * e, gp=10.0, ga=(10.0,), shared=False):
    return ImpetusCostSpec(scalar_cost=scalar, gamma_price=gp, gamma_agents=ga,
                           shared_prices=shared)


class TestPatrimonialValue:
    def test_single_product(self):
        assert patrimonial_value(EconomyState([[2.0]], [[3.0]])) == 6.0

    def test_hand_sum(self):
        s = EconomyState([[1, 0], [0, 1]], [[1, 1], [2, 2]])
        assert patrimonial_value(s) == 3.0

    def test_zero_prices(self):
        assert patrimonial_value(EconomyState([[1, 2]], [[0, 0]])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(MisuseError):
            EconomyState([[1.0]], [[1.0, 2.0]])


class TestImpetus:
    def test_hand_value(self):
        s = EconomyState([[1.0]], [[1.0]])
        assert impetus(s, [[2.0]], [[3.0]]) == 5.0

    def test_zero_velocities(self):
        s = EconomyState([[1.0, 2.0]], [[3.0, 4.0]])
        assert impetus(s, [[0, 0]], [[0, 0]]) == 0.0

    def test_product_rule_point(self):
        # x(t) = t, p(t) = t: d/dt (t^2) = 2t; at t = 1 the impetus is 2
        s = EconomyState([[1.0]], [[1.0]])
        assert impetus(s, [[1.0]], [[1.0]]) == 2.0

    def test_shape_mismatch(self):
        s = EconomyState([[1.0]], [[1.0]])
        with pytest.raises(MisuseError):
            impetus(s, [[1.0, 2.0]], [[1.0]])


class TestImpactOfPriceFluctuation:
    def test_product(self):
        assert impact_of_price_fluctuation([0.1], [10.0]) == pytest.approx(1.0)

    def test_zero(self):
        assert impact_of_price_fluctuation([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_orthogonal(self):
        assert impact_of_price_fluctuation([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_mismatch(self):
        with pytest.raises(MisuseError):
            impact_of_price_fluctuation([1.0], [1.0, 2.0])


class TestImpetusCost:
    def test_quadratic_of_impetus(self):
        s = EconomyState([[0.0]], [[1.0]])
        v = impetus_cost(spec_with(), 0.0, s, [[1.0]], [[0.0]])
        assert v.value == 1.0

    def test_bound_violation(self):
        s = EconomyState([[0.0]], [[1.0]])
        v = impetus_cost(spec_with(ga=(0.5,)), 0.0, s, [[1.0]], [[0.0]])
        assert not v.is_finite

    def test_price_bound_violation(self):
        s = EconomyState([[0.0]], [[1.0]])
        v = impetus_cost(spec_with(gp=0.1), 0.0, s, [[0.0]], [[1.0]])
        assert not v.is_finite

    def test_one_bound_per_agent(self):
        s = EconomyState([[0.0]], [[1.0]])
        with pytest.raises(MisuseError):
            impetus_cost(spec_with(ga=(1.0, 1.0)), 0.0, s, [[1.0]], [[0.0]])

    def test_zero_velocities_zero_cost(self):
        s = EconomyState([[1.0]], [[1.0]])
        assert impetus_cost(spec_with(), 0.0, s, [[0.0]], [[0.0]]).value == 0.0


class TestProductRule:
    def test_finite_difference_matches_impetus(self):
        # d/dt patrimonial = impetus along random smooth (linear-in-t) evolutions
        rng = np.random.default_rng(0)
        delta = 1e-3
        for _ in range(10):
            x0, p0 = rng.uniform(-2, 2, (1, 2)), rng.uniform(-2, 2, (1, 2))
            xd, pd = rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2))
            u_plus = patrimonial_value(EconomyState(x0 + delta * xd, p0 + delta * pd))
            u0 = patrimonial_value(EconomyState(x0, p0))
            fd = (u_plus - u0) / delta
            mid = EconomyState(x0 + 0.5 * delta * xd, p0 + 0.5 * delta * pd)
            assert abs(fd - impetus(mid, xd, pd)) <= 1e-3


class TestPacking:
    def test_round_trip(self):
        z = pack_economy([[1.0, 2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(z, [1, 2, 3, 4])
        s = unpack_economy(z, 1, 2)
        np.testing.assert_array_equal(s.allocations, [[1, 2]])
        np.testing.assert_array_equal(s.prices, [[3, 4]])

    def test_field_matches_scalar(self):
        spec = spec_with()
        field = impetus_cost_field(spec, 1, 1)
        z = pack_economy([[1.0]], [[2.0]])
        zd = np.array([0.5, -0.3])
        from laxhopf import eval_cost
        direct = impetus_cost(spec, 0.0, unpack_economy(z, 1, 1), [[0.5]], [[-0.3]])
        assert eval_cost(field, 0.0, z, zd).value == pytest.approx(direct.value)


ECON_GRID = OuterGrid.build(omega_max=1.0, n_omega=3,
                            upsilon_box=[[-1, 1], [-1, 1]], n_upsilon=5,
                            max_rounds=4)
# cheap settings for scenarios whose terminal cost is finite everywhere
CHEAP_GRID = OuterGrid.build(omega_max=1.0, n_omega=3,
                             upsilon_box=[[-1, 1], [-1, 1]], n_upsilon=5,
                             refine=False)
ECON_CFG = SolverConfig(n_steps=8, multi_starts=1, max_iter=60, seed=0)
CHEAP_CFG = SolverConfig(n_steps=6, multi_starts=0, max_iter=30, seed=0)


def origin_terminal_packed():
    # indicator of the zero economy at t = 0 over the packed 2-vector
    return make_terminal("indicator_origin", x0=[0.0, 0.0], tol=1e-9)


class TestEconomicValue:
    def test_upper_bound_soundness(self):
        spec = spec_with()
        res = economic_value(origin_terminal_packed(), spec, 1.0,
                             [[1.0]], [[1.0]], ECON_GRID, ECON_CFG)
        # constant-velocity candidate: x(t)=t, p(t)=t, E=2t, cost = int (2t)^2 = 4/3
        assert res.value.is_finite
        assert res.value.value <= 4.0 / 3.0 + 1e-6

    def test_all_bounds_zero_infeasible(self):
        spec = spec_with(gp=0.0, ga=(0.0,))
        res = economic_value(origin_terminal_packed(), spec, 1.0,
                             [[1.0]], [[1.0]], ECON_GRID, ECON_CFG)
        assert not res.value.is_finite

    def test_obstacle_bound(self):
        term = make_terminal("quadratic_state", x0=[1.0, 1.0])
        spec = spec_with()
        res = economic_value(term, spec, 1.0, [[1.0]], [[1.0]], CHEAP_GRID, CHEAP_CFG)
        assert res.value.to_float() <= 0.0 + 1e-9  # c(T, (1,1)) = 0 via omega = 0

    def test_lattice_dimension_validated(self):
        bad_grid = OuterGrid.build(1.0, 2, [[-1, 1]], 3)
        with pytest.raises(MisuseError):
            economic_value(origin_terminal_packed(), spec_with(), 1.0,
                           [[1.0]], [[1.0]], bad_grid, ECON_CFG)


class TestFrozenPriceReduction:
    def test_matches_commodity_only_problem(self):
        # gamma_price = 0 freezes prices at p0; with l(E) = E^2 and p0 = 1 the
        # induced commodity problem has running cost (x')^2
        spec = spec_with(gp=0.0, ga=(10.0,))
        term2 = TerminalCost(
            evaluator=lambda t, z: 0.0
            if abs(t) <= 1e-9 and abs(z[0]) <= 1e-9 and abs(z[1] - 1.0) <= 1e-9
            else math.inf)
        res = economic_value(term2, spec, 1.0, [[1.0]], [[1.0]], ECON_GRID, ECON_CFG)
        quad1 = make_cost("quadratic", a=1.0)
        ind = make_terminal("indicator_origin")
        grid1 = OuterGrid.build(1.0, 3, [[-1, 1]], 5, max_rounds=4)
        ref = generalized_lax_hopf(ind, quad1, 1.0, 1.0, grid1, ECON_CFG)
        assert res.value.value == pytest.approx(ref.value.value, abs=1e-3)

    def test_certificates_agree(self):
        spec = spec_with(gp=0.0, ga=(10.0,))
        term2 = TerminalCost(
            evaluator=lambda t, z: 0.0
            if abs(t) <= 1e-9 and abs(z[0]) <= 1e-9 and abs(z[1] - 1.0) <= 1e-9
            else math.inf)
        res = economic_value(term2, spec, 1.0, [[1.0]], [[1.0]], ECON_GRID, ECON_CFG)
        assert economy_enrichment_certificate(res, term2) <= 1e-4


class TestBoundMonotonicity:
    def test_larger_bounds_never_increase_value(self):
        term = make_terminal("quadratic_state", x0=[0.0, 0.0])
        tight = spec_with(gp=0.5, ga=(0.5,))
        loose = spec_with(gp=2.0, ga=(2.0,))
        a = economic_value(term, tight, 1.0, [[1.0]], [[1.0]], CHEAP_GRID, CHEAP_CFG)
        b = economic_value(term, loose, 1.0, [[1.0]], [[1.0]], CHEAP_GRID, CHEAP_CFG)
        assert b.value.to_float() <= a.value.to_float() + 1e-6
