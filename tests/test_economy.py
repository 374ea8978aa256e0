import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    make_rate,
    make_terminal,
    pack_economy,
    patrimonial_value,
    unpack_economy,
)
from laxhopf.costs import TerminalCost
from laxhopf.errors import MisuseError
from laxhopf.moderation import _WindowObjective


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


def reference_impetus_rows(spec, n_agents, dim, t, Z, Zd):
    """The impetus kernel before constant bounds became arrays at build time."""
    half = n_agents * dim

    def bounds_at(bound, t):
        if not callable(bound):
            return np.full(len(t), float(bound))
        times, back = np.unique(t, return_inverse=True)
        return np.array([float(bound(float(tv))) for tv in times])[back]

    m = len(Z)
    X = Z[:, :half].reshape(m, n_agents, dim)
    P = Z[:, half:].reshape(m, n_agents, dim)
    Xd = Zd[:, :half].reshape(m, n_agents, dim)
    Pd = Zd[:, half:].reshape(m, n_agents, dim)
    e = np.sum(P * Xd, axis=(1, 2)) + np.sum(Pd * X, axis=(1, 2))
    vals = np.array([float(spec.scalar_cost(v)) for v in e])
    t = np.broadcast_to(np.asarray(t, dtype=float), (m,))
    xa_bounds = np.stack([bounds_at(g, t) for g in spec.gamma_agents], axis=1)
    bad = np.any(np.linalg.norm(Xd, axis=2) > xa_bounds + 1e-12, axis=1)
    g0 = bounds_at(spec.gamma_price, t)
    p_rows = Pd[:, :1] if spec.shared_prices else Pd
    bad |= np.any(np.linalg.norm(p_rows, axis=2) > g0[:, None] + 1e-12, axis=1)
    return np.where(bad, np.inf, vals)


def bound_strategy():
    """A constant speed bound or one that grows with t."""
    level = st.floats(0.2, 2.0)
    return st.one_of(level, level.map(lambda g: (lambda t: g + 0.25 * t)))


# offsets of a velocity norm from its bound: inside, on it, inside the 1e-12 slack, past it
NORM_OFFSETS = [-1e-3, -1e-13, 0.0, 5e-13, 1e-12, 2e-12, 1e-3]


@st.composite
def impetus_rows(draw):
    n_agents, dim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    spec = ImpetusCostSpec(scalar_cost=lambda e: 0.5 * e * e,
                           gamma_price=draw(bound_strategy()),
                           gamma_agents=tuple(draw(bound_strategy()) for _ in range(n_agents)),
                           shared_prices=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = 40
    t = rng.choice([0.0, 0.25, 0.5, 1.0], size=m)
    Z = rng.uniform(-2, 2, (m, 2 * n_agents * dim))
    V = rng.normal(size=(m, 2 * n_agents, dim))
    V /= np.linalg.norm(V, axis=2, keepdims=True)
    gammas = list(spec.gamma_agents) + [spec.gamma_price] * n_agents
    for i in range(m):
        for k, g in enumerate(gammas):
            bound = g(t[i]) if callable(g) else g
            V[i, k] *= bound + NORM_OFFSETS[rng.integers(len(NORM_OFFSETS))]
    return spec, n_agents, dim, t, Z, V.reshape(m, -1)


class TestLeanKernel:
    @settings(max_examples=60, deadline=None)
    @given(drawn=impetus_rows())
    def test_rows_bitwise_equal_reference(self, drawn):
        spec, n_agents, dim, t, Z, Zd = drawn
        got = impetus_cost_field(spec, n_agents, dim).batch_evaluator(t, Z, Zd)
        want = reference_impetus_rows(spec, n_agents, dim, t, Z, Zd)
        assert np.isinf(want).any() and np.isfinite(want).any()   # both sides of the bounds
        assert got.tobytes() == want.tobytes()


@st.composite
def impetus_lanes(draw):
    """An impetus objective and velocities whose every row lies strictly inside the bounds."""
    n_agents, dim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        a = draw(st.floats(0.1, 3.0))
        scalar = lambda e: a * e * e  # noqa: E731
    else:
        scalar = abs
    spec = ImpetusCostSpec(scalar_cost=scalar, gamma_price=draw(st.floats(2.0, 5.0)),
                           gamma_agents=tuple(draw(st.floats(2.0, 5.0)) for _ in range(n_agents)),
                           shared_prices=draw(st.booleans()))
    rate = draw(st.sampled_from([None, make_rate("constant", r=0.6)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B, n, ell = draw(st.integers(1, 3)), draw(st.integers(2, 5)), 2 * n_agents * dim
    obj = _WindowObjective(impetus_cost_field(spec, n_agents, dim), rate, 1.0,
                           rng.uniform(0.3, 1.0, B), rng.uniform(-2, 2, ell), n)
    U = rng.uniform(-1, 1, (B, n, ell))
    if scalar is abs:
        lanes = np.arange(B)
        _, Z, Zd, _ = obj._rows(U, lanes)
        half = ell // 2
        e = np.sum(Z[:, half:] * Zd[:, :half] + Zd[:, half:] * Z[:, :half], axis=1)
        assume(np.abs(e).min() >= 0.05)   # away from the kink of abs
    return obj, U


def counted_impetus(spec, n_agents, dim):
    """The impetus field with its batch evaluator and scalar cost counting their calls."""
    batches, scalars = [], []

    def scalar(e):
        scalars.append(e)
        return spec.scalar_cost(e)

    field = impetus_cost_field(dataclasses.replace(spec, scalar_cost=scalar), n_agents, dim)

    def batch(t, X, U):
        batches.append(len(U))
        return field.batch_evaluator(t, X, U)

    return dataclasses.replace(field, batch_evaluator=batch), batches, scalars


class TestImpetusGradient:
    @settings(max_examples=60, deadline=None)
    @given(drawn=impetus_lanes())
    def test_adjoint_equals_finite_differences(self, drawn):
        obj, U = drawn
        lanes = np.arange(len(U))
        base = obj.values(U, lanes)
        assert np.isfinite(base).all()
        fd = obj._fd_gradient(U, lanes, base, 1e-6)
        adjoint = obj.gradient(U, lanes, base, 1e-6)
        np.testing.assert_allclose(adjoint, fd, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(fd).max()))

    def test_gradient_prices_no_perturbed_trajectories(self):
        spec = ImpetusCostSpec(scalar_cost=lambda e: e * e, gamma_price=5.0,
                               gamma_agents=(5.0, 5.0))
        cost, batches, scalars = counted_impetus(spec, 2, 1)
        n, lanes = 6, np.arange(3)
        obj = _WindowObjective(cost, None, 1.0, [0.5, 1.0, 0.8], [1.0, -0.5, 0.8, 1.2], n)
        U = np.random.default_rng(0).uniform(-1, 1, (3, n, 4))
        base = obj.values(U, lanes)
        batches.clear()
        scalars.clear()
        obj.gradient(U, lanes, base, 1e-6)
        assert batches == []
        assert len(scalars) == 2 * (len(lanes) * n)
