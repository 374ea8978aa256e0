import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxhopf import (
    AdmissibleSpec,
    ImpetusCostSpec,
    ModerationProblem,
    SolverConfig,
    average_transaction,
    build_moderation_table,
    cumulated_cost,
    impetus_cost_field,
    jensen_gap,
    make_cost,
    make_rate,
    moderate,
    moderation_table_to_csv,
)
from laxhopf import moderation
from laxhopf.cli import main
from laxhopf.costs import CostField, RateField
from laxhopf.errors import MisuseError
from laxhopf.moderation import _line_search, _project, _solve_cells, _WindowObjective

REL_DECREASE = 1e-12   # the solver's stop rule on an accepted decrease

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
        # all starts are priced together: one row per step of each start, no gradient rows;
        # without its separable declaration the cost takes descent
        cost, calls = counted(dataclasses.replace(WQ, separable=None))
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
        fd = obj._fd_gradient(U, lanes, base)
        adjoint = obj.gradient(U, lanes, base)
        np.testing.assert_allclose(adjoint, fd, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(fd).max()))

    @pytest.mark.parametrize("ell", [1, 2])
    def test_field_without_partials_takes_finite_differences(self, ell):
        cost, calls = counted(dataclasses.replace(WQ, partials=None))
        n, lanes = 5, np.arange(3)
        obj = _WindowObjective(cost, None, 1.0, [0.5, 1.0, 0.8], [1.0] * ell, n)
        U = np.random.default_rng(0).uniform(-1, 1, (3, n, ell))
        base = obj.values(U, lanes)
        calls.clear()
        obj.gradient(U, lanes, base)
        assert sum(calls) == len(lanes) * 2 * n * ell * n

    def test_catalog_gradient_prices_no_perturbed_rows(self):
        # the adjoint reuses the rows the objective priced: each cost row is priced once
        cost, calls = counted(WQ)
        n, lanes = 8, np.arange(2)
        obj = _WindowObjective(cost, make_rate("velocity"), 1.0, [0.5, 1.0], [1.0], n)
        U = np.random.default_rng(0).uniform(-1, 1, (2, n, 1))
        base, rows = obj.priced(U, lanes)
        warm = obj.gradient(U, lanes, base, rows)
        assert sum(calls) == len(lanes) * n
        cold = obj.gradient(U, lanes, base)   # without the rows: the cost is priced again
        assert sum(calls) == 2 * (len(lanes) * n)
        assert np.array_equal(warm, cold)

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


def one_rung_solve(cost, rate, T, x, omegas, upsilons, cfg, rngs, log):
    """The lockstep solver as it was with Armijo backtracking one rung a pass.

    Appends (ids, values, accepted steps, next values, failed positions) per
    line search to ``log``; returns the (lambda, velocities) of each cell and
    the stop reason of each lane.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_steps, omegas = cfg.n_steps, [float(om) for om in omegas]
    upsilons = [np.atleast_1d(np.asarray(u, dtype=float)) for u in upsilons]
    box = None if cost.domain_box is None else np.asarray(cost.domain_box, dtype=float)
    cell_of, starts = [], []
    for i, (ups, rng) in enumerate(zip(upsilons, rngs)):
        if box is not None and (np.any(ups < box[:, 0]) or np.any(ups > box[:, 1])):
            continue
        rng = np.random.default_rng(cfg.seed if rng is None else rng)
        first = np.tile(ups, (n_steps, 1))
        scale = 0.5 * float(np.linalg.norm(ups)) + 0.1
        starts.append(first)
        for _ in range(cfg.multi_starts):
            starts.append(first + rng.uniform(-1.0, 1.0, size=(n_steps, len(ups))) * scale)
        cell_of += [i] * (cfg.multi_starts + 1)
    out = [(math.inf, None)] * len(omegas)
    if not starts:
        return out, {}
    cell_of = np.asarray(cell_of)
    ups = np.asarray(upsilons)[cell_of]
    obj = _WindowObjective(cost, rate, T, np.asarray(omegas)[cell_of], x, n_steps)

    def project(V, lanes):
        return _project(V, ups[lanes], box)

    def dots(V, W):
        return np.matmul(V.reshape(len(V), 1, -1), W.reshape(len(W), -1, 1))[:, 0, 0]

    lanes = np.arange(len(cell_of))
    U = project(np.asarray(starts), lanes)
    val = obj.values(U, lanes)
    reason = {int(i): "infeasible" for i in np.flatnonzero(~np.isfinite(val))}
    ids = np.flatnonzero(np.isfinite(val))
    u, v = U[ids], val[ids]
    step = np.full(len(ids), moderation._STEP_INIT)
    prev_u = prev_g = g = None

    def keep(go, why):
        nonlocal ids, u, v, step, prev_u, prev_g, g
        U[ids[~go]], val[ids[~go]] = u[~go], v[~go]
        reason.update({int(i): why(k) for k, i in zip(np.flatnonzero(~go), ids[~go])})
        ids, u, v, step, prev_u, prev_g, g = (a[go] for a in (ids, u, v, step, prev_u, prev_g, g))

    for _ in range(cfg.max_iter):
        if not ids.size:
            break
        g = obj.gradient(u, ids, v)
        if prev_u is not None:
            s_vec, y_vec = u - prev_u, g - prev_g
            sty = dots(s_vec, y_vec)
            cap = moderation._STEP_GROWTH * step
            curved = sty > 0
            step = np.where(curved, np.minimum(dots(s_vec, s_vec) / np.where(curved, sty, 1.0), cap), cap)
        else:
            prev_u = prev_g = u
        pg = u - project(u - g, ids)
        go = ~(np.sqrt(dots(pg, pg)) < moderation._GRAD_TOL)
        if not go.all():
            keep(go, lambda k: "grad_tol")
        s, cand, cval = step.copy(), u.copy(), v.copy()
        todo = np.arange(len(ids))
        for _ in range(moderation._MAX_BACKTRACKS):
            if not todo.size:
                break
            trial = project(u[todo] - s[todo][:, None, None] * g[todo], ids[todo])
            tval = obj.values(trial, ids[todo])
            move = np.sum(((u[todo] - trial) ** 2).reshape(len(todo), -1), axis=1)
            ok = np.isfinite(tval) & (tval <= v[todo] - moderation._ARMIJO * move / np.maximum(s[todo], 1e-300))
            cand[todo[ok]], cval[todo[ok]] = trial[ok], tval[ok]
            s[todo[~ok]] *= 0.5
            todo = todo[~ok]
        if ids.size:
            log.append((ids.copy(), v.copy(), s.copy(), cval.copy(), todo.copy()))
        go = v - cval > REL_DECREASE * np.maximum(np.abs(cval), 1.0)
        go[todo] = False
        prev_u, prev_g, u, v, step = u, g, cand, cval, s
        if not go.all():
            failed = set(todo.tolist())
            keep(go, lambda k: "no_accept" if k in failed else "rel_decrease")
    U[ids], val[ids] = u, v
    reason.update({int(i): "max_iter" for i in ids})
    for i in set(cell_of.tolist()):
        own = np.flatnonzero(cell_of == i)
        best = own[int(np.argmin(val[own]))]
        if math.isfinite(val[best]):
            out[i] = (float(val[best]), U[best].copy())
    return out, reason


def stop_reasons(log, finite, max_iter):
    """The stop reason of each lane, read off the line searches of a solve."""
    last = {}
    for k, (ids, v, _, tval, fail) in enumerate(log):
        for pos, lane in enumerate(ids.tolist()):
            last[lane] = (k, pos in set(fail.tolist()),
                          not v[pos] - tval[pos] > REL_DECREASE * max(abs(tval[pos]), 1.0))
    reason = {}
    for lane, ok in enumerate(finite):
        if not ok:
            reason[lane] = "infeasible"
        elif lane not in last:
            reason[lane] = "grad_tol" if max_iter else "max_iter"
        else:
            k, failed, flat = last[lane]
            reason[lane] = ("no_accept" if failed else "rel_decrease" if flat
                            else "max_iter" if k == max_iter - 1 else "grad_tol")
    return reason


ECONOMY_FIELD = impetus_cost_field(
    ImpetusCostSpec(scalar_cost=lambda e: e * e, gamma_price=0.5, gamma_agents=(2.0,)), 1, 1)


@st.composite
def search_cases(draw):
    """(cost, rate, x, cells): boxed abs, the economy near its price-speed bound,
    and weighted_quadratic under a constant or a velocity rate."""
    name = draw(st.sampled_from(["boxed_abs", "economy", "constant", "velocity"]))
    omega = st.sampled_from([0.25, 0.5, 1.0])
    if name == "economy":   # |p'| <= 0.5: means near 0.5 put most trials past the bound
        ups = st.tuples(st.floats(-1.0, 1.0), st.floats(0.35, 0.5))
        cost, rate, x = ECONOMY_FIELD, None, [0.9, 0.85]
    else:
        ell = draw(st.sampled_from([1, 2]))
        ups = st.tuples(*[st.floats(-1.2, 1.2)] * ell)
        x = [1.0] * ell
        if name == "boxed_abs":
            cost, rate = make_cost("abs", domain=[[-1, 1]] * ell), None
        else:
            rate = make_rate("constant", r=0.6) if name == "constant" else make_rate("velocity")
            cost = WQ
    cells = draw(st.lists(st.tuples(omega, ups), min_size=1, max_size=3))
    # without a separable declaration abs and a constant rate take descent, not the closed form
    return dataclasses.replace(cost, separable=None), rate, x, cells


class TestLineSearch:
    @settings(max_examples=40, deadline=None)
    @given(case=search_cases(), starts=st.integers(0, 2), n_steps=st.integers(2, 6),
           max_backtracks=st.sampled_from([1, 5, 9, 40]), step_init=st.sampled_from([1.0, 64.0]))
    def test_ladder_equals_one_rung_search(self, case, starts, n_steps, max_backtracks, step_init):
        cost, rate, x, cells = case
        cfg = SolverConfig(n_steps=n_steps, multi_starts=starts, max_iter=25, seed=0)
        seeds = [np.random.SeedSequence([5, k]) for k in range(len(cells))]
        args = (cost, rate, 1.0, x, [om for om, _ in cells], [ups for _, ups in cells], cfg, seeds)
        want_log, got_log, finite = [], [], []

        def logged(obj, project, ids, u, v, g, step):
            trial, tval, rows, new_step, fail = _line_search(obj, project, ids, u, v, g, step)
            got_log.append((ids.copy(), v.copy(), new_step.copy(), tval.copy(), fail.copy()))
            return trial, tval, rows, new_step, fail

        def starts_priced(self, U, lanes):
            out = priced(self, U, lanes)
            if not finite:
                finite.extend(np.isfinite(out[0]).tolist())
            return out

        priced = _WindowObjective.priced
        with mock.patch.object(moderation, "_MAX_BACKTRACKS", max_backtracks), \
                mock.patch.object(moderation, "_STEP_INIT", step_init):
            want, want_reason = one_rung_solve(*args, want_log)
            with mock.patch.object(moderation, "_line_search", logged), \
                    mock.patch.object(_WindowObjective, "priced", starts_priced):
                got = _solve_cells(*args)
        for (lam, traj), (want_lam, want_u) in zip(got, want):
            assert lam.to_float() == want_lam
            assert (traj is None) == (want_u is None)
            if traj is not None:
                assert np.array_equal(traj.velocities, want_u)
        assert len(got_log) == len(want_log)
        for got_search, want_search in zip(got_log, want_log):
            (ids, v, step, tval, fail), (w_ids, w_v, w_step, w_tval, w_fail) = got_search, want_search
            assert np.array_equal(ids, w_ids) and np.array_equal(v, w_v)
            assert np.array_equal(fail, w_fail) and np.array_equal(tval, w_tval)
            passed = np.setdiff1d(np.arange(len(ids)), fail)
            assert np.array_equal(step[passed], w_step[passed])   # the accepted steps
        assert stop_reasons(got_log, finite, cfg.max_iter) == want_reason

    def test_nan_past_the_first_passing_rung(self):
        # f(u) = (u1^2 + u2^2) / 4 from u = (1, -1) along g = u / 2 with step 64: the
        # rungs 32, ..., 4 fail and 2 passes; the ladder also prices 1, 0.5 and 0.25,
        # and the poisoned cost is NaN at step 0.5, where |u| = 0.75
        def poisoned(t, X, U):
            u = U[:, 0]
            return np.where(np.abs(u) == 0.75, np.nan, 0.5 * u * u)

        u = np.array([[[1.0], [-1.0]]])
        ids = np.arange(1)

        def search(batch):
            cost, calls = counted(CostField(batch_evaluator=batch, partials=QUAD.partials))
            obj = _WindowObjective(cost, None, 1.0, [1.0], [0.0], 2)
            v, rows = obj.priced(u, ids)
            g = obj.gradient(u, ids, v, rows)
            project = lambda V, lanes: _project(V, np.zeros((len(lanes), 1)), None)  # noqa: E731
            return _line_search(obj, project, ids, u, v, g, np.array([64.0])), calls

        (trial, tval, _, step, fail), calls = search(poisoned)
        (c_trial, c_tval, _, c_step, c_fail), _ = search(lambda t, X, U: 0.5 * U[:, 0] ** 2)
        assert step[0] == c_step[0] == 2.0 and not fail.size and not c_fail.size
        assert np.array_equal(trial, c_trial) and np.array_equal(tval, c_tval)
        assert 16 in calls   # the 8-rung ladder ran and faulted; the search went on one rung a pass

    def test_run_moving_batches(self, tmp_path, monkeypatch):
        # the benchmark's moving-price economy at x = 0.9, p = 0.85: one rung a pass
        # made 1,004 objective batches and 153 gradient calls
        counts = {"priced": 0, "gradient": 0}
        for name in counts:
            orig = getattr(_WindowObjective, name)

            def wrapped(self, *a, _orig=orig, _name=name):
                counts[_name] += 1
                return _orig(self, *a)

            monkeypatch.setattr(_WindowObjective, name, wrapped)
        cfg = {"schema": 1, "seed": 0, "T": 1.0, "kind": "economy",
               "terminal": {"name": "quadratic_state"},
               "economy": {"scalar_cost": "quadratic", "gamma_price": 0.5, "gamma_agents": [2.0],
                           "allocations": [[0.9]], "prices": [[0.85]]},
               "outer": {"omega_max": 1.0, "n_omega": 1, "upsilon_box": [[-1, 1], [-0.5, 0.5]],
                         "n_upsilon": 3},
               "solver": {"n_steps": 4, "multi_starts": 0, "max_iter": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert counts["priced"] <= 340
        assert counts["gradient"] == 153


class TestConfigChecks:
    @pytest.mark.parametrize("field, bad", [
        ("n_steps", 0), ("multi_starts", -1), ("max_iter", -1), ("seed", -1),
    ])
    def test_out_of_range_misuse(self, field, bad):
        with pytest.raises(MisuseError, match=field):
            SolverConfig(**{field: bad})

    def test_least_legal_values(self):
        cfg = SolverConfig(n_steps=1, multi_starts=0, max_iter=0, seed=0)
        lam, traj = moderate(prob(QUAD, upsilon=0.5), cfg)
        assert lam.value == 0.125 and np.array_equal(traj.velocities, [[0.5]])   # l = u^2 / 2

    def test_one_seed_per_cell(self, fast_cfg):
        with pytest.raises(MisuseError, match="seed"):
            _solve_cells(QUAD, None, 1.0, [0.0], [1.0, 0.5, 0.25], [[0.1], [0.2], [0.3]],
                         fast_cfg, [0])


class TestAdmissible:
    """The speed bound of ``ModerationProblem.admissible`` (a +inf wall on |u_k| > b(t_k))."""

    def test_argmin_is_admissible(self, fast_cfg):
        # the unbounded argmin of weighted_quadratic at upsilon = 1 runs at 1/((1+t) ln 2) > 1.2
        spec = AdmissibleSpec(1.2)
        free, free_traj = moderate(prob(WQ, upsilon=1.0), fast_cfg)
        lam, traj = moderate(dataclasses.replace(prob(WQ, upsilon=1.0), admissible=spec), fast_cfg)
        assert not spec.is_admissible(free_traj)
        assert spec.is_admissible(traj) and lam.value >= free.value

    def test_slack_bound_changes_nothing(self, fast_cfg):
        free, free_traj = moderate(prob(QUAD, upsilon=0.5), fast_cfg)
        lam, traj = moderate(dataclasses.replace(prob(QUAD, upsilon=0.5),
                                                 admissible=AdmissibleSpec(10.0)), fast_cfg)
        assert lam.value == free.value and np.array_equal(traj.velocities, free_traj.velocities)

    def test_mean_past_the_bound_is_infeasible(self, fast_cfg):
        lam, traj = moderate(dataclasses.replace(prob(QUAD, upsilon=1.5),
                                                 admissible=AdmissibleSpec(1.0)), fast_cfg)
        assert not lam.is_finite and traj is None

    def test_callable_bound_equals_constant(self, fast_cfg):
        solved = [moderate(dataclasses.replace(prob(WQ, upsilon=1.0), admissible=AdmissibleSpec(b)),
                           fast_cfg) for b in (1.2, lambda t: 1.2)]
        (lam, traj), (c_lam, c_traj) = solved
        assert lam.value == c_lam.value and np.array_equal(traj.velocities, c_traj.velocities)


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
