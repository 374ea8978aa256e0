"""The closed-form window solve of separable cells, checked by its dual and against descent."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxhopf import (
    AdmissibleSpec,
    ImpetusCostSpec,
    ModerationProblem,
    OuterGrid,
    SolverConfig,
    discounted_moderate,
    discounted_value,
    economic_value,
    generalized_lax_hopf,
    make_cost,
    make_rate,
    make_terminal,
    moderate,
)
from laxhopf.costs import CostField
from laxhopf.moderation import _cheapest_first

T = 1.0
N_STEPS = 32


def cell(cost, rate, omega, upsilon, cfg=SolverConfig(seed=0)):
    """lambda of one window ending at (T, x = 1)."""
    ups = np.atleast_1d(np.asarray(upsilon, dtype=float))
    if rate is None:
        lam, _ = moderate(ModerationProblem(cost=cost, T=T, x=np.ones(len(ups)), omega=omega,
                                            upsilon=ups), cfg)
    else:
        lam, _ = discounted_moderate(cost, rate, T, np.ones(len(ups)), omega, ups, cfg)
    return lam.to_float()


def mid_times(omega):
    dt = omega / N_STEPS
    return T - omega + dt * (np.arange(N_STEPS) + 0.5)


def dual_value(name, params, r, omega, upsilon, box):
    """max_mu [mu.upsilon - (1/N) sum_k w_k l*(t_k, mu / w_k)], one coordinate at a time.

    l(t, u) = a(t) sum_h psi(u_h) on the box; its conjugate is a sum over
    coordinates of the conjugate of a psi restricted to [lo, hi].
    """
    t = mid_times(omega)
    w = np.exp(r * (T - t))
    if name == "quadratic":
        a = np.full(N_STEPS, params.get("a", 0.5))
    elif name == "weighted_quadratic":
        a = (params["a0"] + params["a1"] * t) / 2.0
    else:
        a = np.ones(N_STEPS)
    c = w * a
    total = 0.0
    for h, m in enumerate(upsilon):
        lo, hi = (-math.inf, math.inf) if box is None else box[h]
        if name == "indicator_zero":   # l* = max(p lo', p hi') on [lo', hi'] = [-tol, tol] in the box
            lo, hi = max(lo, -1e-12), min(hi, 1e-12)
            if not lo <= m <= hi:
                return math.inf
            continue
        if name == "abs":
            # piecewise linear: the maximum sits at a kink mu = +-c_k (or mu = 0)
            def dual(mu):
                p = mu / w
                if box is None:
                    return mu * m if np.all(np.abs(p) <= a) else -math.inf
                z = min(max(0.0, lo), hi)
                conj = np.max([p * v - a * abs(v) for v in (lo, hi, z)], axis=0)
                return mu * m - np.sum(w * conj) / N_STEPS

            total += max(dual(mu) for mu in np.concatenate([c, -c, [0.0]]))
            continue

        def response(mu):   # the maximizer of p u - a u^2 on [lo, hi] at p = mu / w
            return np.clip(mu / (2.0 * c), lo, hi)

        left, right = -1e3, 1e3   # the mean response crosses upsilon in between: bisect
        for _ in range(200):
            mid = 0.5 * (left + right)
            if mid in (left, right):
                break
            if np.mean(response(mid)) < m:
                left = mid
            else:
                right = mid
        mu = 0.5 * (left + right)
        u = response(mu)
        total += mu * m - np.sum(mu * u - c * u * u) / N_STEPS
    return total


@st.composite
def separable_cells(draw):
    """(catalog name, params, rate r or None, omega, upsilon, box) with upsilon in the box."""
    name = draw(st.sampled_from(["quadratic", "weighted_quadratic", "abs", "indicator_zero"]))
    params = {}
    if name == "quadratic":
        params["a"] = draw(st.floats(0.1, 2.0))
    elif name == "weighted_quadratic":   # a0 + a1 t > 0 on t in [0, 1]
        params = {"a0": draw(st.floats(0.5, 2.0)), "a1": draw(st.floats(-0.4, 2.0))}
    ell = draw(st.sampled_from([1, 2]))
    box = None
    if draw(st.booleans()):
        box = [sorted([draw(st.floats(-2.0, 0.5)), draw(st.floats(-0.5, 2.0))]) for _ in range(ell)]
        box = [[lo, max(hi, lo + 0.1)] for lo, hi in box]
        params["domain"] = box
    spans = box or [[-2.0, 2.0]] * ell
    shares = [draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)) for _ in range(ell)]
    upsilon = [min(max(lo + s * (hi - lo), lo), hi) for (lo, hi), s in zip(spans, shares)]
    if name == "indicator_zero" and draw(st.booleans()):
        upsilon = [min(max(0.0, lo), hi) for lo, hi in spans]   # the one feasible mean, if any
    r = draw(st.none() | st.floats(-1.0, 1.0))
    omega = draw(st.floats(0.1, 1.0))
    return name, params, r, omega, upsilon, box


class TestDualCertificate:
    @settings(max_examples=200, deadline=None)
    @given(drawn=separable_cells())
    def test_exact_value_meets_its_dual(self, drawn):
        name, params, r, omega, upsilon, box = drawn
        cost = make_cost(name, **params)
        rate = None if r is None else make_rate("constant", r=r)
        lam = cell(cost, rate, omega, upsilon)
        want = dual_value(name, params, 0.0 if r is None else r, omega, upsilon, box)
        if math.isinf(want):
            assert math.isinf(lam)
        else:
            assert abs(lam - want) <= 1e-12


SMOOTH = {"quadratic": make_cost("quadratic"),
          "weighted_quadratic": make_cost("weighted_quadratic", a0=1.0, a1=1.0)}
CELLS = [(om, ups) for om in (0.25, 0.5, 1.0) for ups in (-0.9, 0.3, 0.95)]


class TestAgainstDescent:
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    @pytest.mark.parametrize("r", [None, 0.6])
    def test_descent_lands_on_the_exact_value(self, name, r):
        cost = SMOOTH[name]
        rate = None if r is None else make_rate("constant", r=r)
        descent = dataclasses.replace(cost, separable=None)
        for omega, ups in CELLS:
            assert abs(cell(cost, rate, omega, ups) - cell(descent, rate, omega, ups)) <= 1e-9

    def test_abs_under_a_constant_rate_takes_the_cheapest_step(self):
        # descent stopped 4-15% above these vertex values
        abs_cost, rate = make_cost("abs"), make_rate("constant", r=0.6)
        for omega, ups in CELLS:
            vertex = np.min(np.exp(0.6 * (T - mid_times(omega)))) * abs(ups)
            assert abs(cell(abs_cost, rate, omega, ups) - vertex) <= 1e-12
        assert cell(abs_cost, rate, 1.0, 0.95) == pytest.approx(0.95895, abs=5e-6)

    def test_abs_at_zero_rate_is_the_straight_line(self):
        _, traj = discounted_moderate(make_cost("abs"), make_rate("zero"), T, [1.0], 0.5, [0.3],
                                      SolverConfig(seed=0))
        assert np.all(traj.velocities == 0.3)

    def test_equal_prices_share_their_part_evenly(self):
        # the two cheap steps share a mean of 0.25 inside [0, 1]; at 0.75 they fill and the others share
        prices, box = np.array([[2.0, 1.0, 2.0, 1.0]]), np.array([[0.0, 1.0]])
        assert _cheapest_first(prices, np.array([[0.25]]), box)[0, :, 0].tolist() == [0, 0.5, 0, 0.5]
        assert _cheapest_first(prices, np.array([[0.75]]), box)[0, :, 0].tolist() == [0.5, 1, 0.5, 1]

    def test_nonpositive_step_price_keeps_descent(self):
        # a0 + a1 t < 0 early in the window: not convex there, so the cell is left to descent
        wq = make_cost("weighted_quadratic", a0=-0.3, a1=1.0)
        cfg = SolverConfig(n_steps=8, multi_starts=0, max_iter=5, seed=0)
        descent = dataclasses.replace(wq, separable=None)
        assert cell(wq, None, 1.0, 0.5, cfg) == cell(descent, None, 1.0, 0.5, cfg)


class TestUnchangedPaths:
    @pytest.mark.parametrize("cost", [make_cost("quadratic"), make_cost("abs"),
                                      make_cost("weighted_quadratic", a0=1.0, a1=0.5),
                                      make_cost("quadratic", domain=[[-1.5, 1.5]])])
    def test_zero_rate_reduction_bitwise(self, cost, scalar_grid, fast_cfg):
        term = make_terminal("quadratic_state")
        a = generalized_lax_hopf(term, cost, T, 1.0, scalar_grid, fast_cfg)
        b = discounted_value(term, cost, make_rate("zero"), T, 1.0, scalar_grid, fast_cfg)
        assert a.value.value == b.value.value and a.omega_star == b.omega_star
        np.testing.assert_array_equal(a.trajectory.velocities, b.trajectory.velocities)

    def test_descent_fields_bitwise_as_before(self):
        # values recorded before separable cells left descent: the fields that keep it
        cfg = SolverConfig(n_steps=8, multi_starts=1, max_iter=30, seed=0)
        quad, wq = make_cost("quadratic"), make_cost("weighted_quadratic")
        qs = make_terminal("quadratic_state")
        user = CostField(batch_evaluator=lambda t, X, U: (1.0 + t) * np.sum(U * U, axis=1) / 2.0,
                         partials=lambda t, X, U: (None, (1.0 + t)[:, None] * U))
        grid = OuterGrid.build(1.0, 2, [[-1, 1]], 5)
        spec = ImpetusCostSpec(scalar_cost=lambda e: e * e, gamma_price=0.5, gamma_agents=(2.0,))
        got = {
            "velocity_value": discounted_value(qs, quad, make_rate("velocity"), T, 0.8, grid, cfg).value,
            "velocity_moderate": discounted_moderate(quad, make_rate("velocity"), T, [1.0], 0.5, [0.7],
                                                     cfg)[0],
            "economy_value": economic_value(
                qs, spec, T, [[0.9]], [[0.85]], OuterGrid.build(1.0, 1, [[-1, 1], [-0.5, 0.5]], 3),
                SolverConfig(n_steps=4, multi_starts=0, max_iter=20)).value,
            "admissible": moderate(ModerationProblem(
                cost=wq, T=T, x=np.array([1.0]), omega=1.0, upsilon=np.array([1.0]),
                admissible=AdmissibleSpec(velocity_bound=1.2)), cfg)[0],
            "user_field": moderate(ModerationProblem(
                cost=user, T=T, x=np.array([1.0]), omega=1.0, upsilon=np.array([0.6])), cfg)[0],
            "user_field_constant_rate": discounted_moderate(
                user, make_rate("constant", r=0.6), T, [1.0], 1.0, [0.6], cfg)[0],
        }
        want = {
            "velocity_value": "0x1.3b5de3ae6ce28p-2",
            "velocity_moderate": "0x1.2b9c829410c1ep-2",
            "economy_value": "0x1.592c9bedac70cp-1",
            "admissible": "0x1.73a270a2bdd22p-1",
            "user_field": "0x1.0a1ab7f56006dp-2",
            "user_field_constant_rate": "0x1.6e16909db7f8ap-2",
        }
        assert {k: v.to_float().hex() for k, v in got.items()} == want
