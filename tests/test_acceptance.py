"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines inline;
under plain ``pytest`` they appear for failing tests only (captured output).
"""

import hashlib
import json
import math
import time

import numpy as np

from laxhopf import (
    DPGrids,
    OuterGrid,
    Scenario,
    SolverConfig,
    classic_lax_hopf,
    convergence_study,
    discounted_moderate,
    discounted_value,
    dp_oracle,
    economic_value,
    economy_enrichment_certificate,
    generalized_lax_hopf,
    hj_residual,
    impetus,
    jensen_suite,
    make_cost,
    make_rate,
    make_terminal,
    moderate,
    ModerationProblem,
    actualized_enrichment_certificate,
    optimum_certificate,
    patrimonial_value,
    value_result_to_json,
    wtp_value,
    EconomyState,
    ImpetusCostSpec,
)
from laxhopf.costs import TerminalCost, eval_terminal

QUAD = make_cost("quadratic")                 # u^2/2
QUAD1 = make_cost("quadratic", a=1.0)         # u^2
ABS = make_cost("abs")
WQ = make_cost("weighted_quadratic", a0=1.0, a1=1.0)
IND = make_terminal("indicator_origin")
QTERM = make_terminal("quadratic_state")
REF_WQ = 1.0 / (2.0 * math.log(2.0))
CFG = SolverConfig(n_steps=32, multi_starts=2, seed=0)
GRID17 = OuterGrid.build(omega_max=1.0, n_omega=8, upsilon_box=[[-2, 2]],
                         n_upsilon=17)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_classic_benchmark():
    ok = True
    for x in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        res = classic_lax_hopf(IND, QUAD, 1.0, x, GRID17)
        elapsed = time.perf_counter() - t0
        ok &= abs(res.value.value - 0.5 * x * x) <= 1e-6
        ok &= abs(res.omega_star - 1.0) <= 1e-9
        ok &= abs(res.upsilon_star[0] - x) <= 1e-9
        ok &= elapsed < 1.0
    _report(1, "classic closed-form benchmark", ok)


def test_criterion_2_jensen_coincidence():
    t0 = time.perf_counter()
    cfg = SolverConfig(n_steps=16, multi_starts=2, seed=0)
    ok = True
    for cost in (QUAD, ABS):
        report = jensen_suite(cost, 20, (0.2, 2.0), [[-2, 2]], cfg, tol=1e-5)
        ok &= report.max_abs_gap <= 1e-5
        ok &= not report.positive_failures and not report.nonconvex_evidence
    ok &= (time.perf_counter() - t0) < 10.0
    _report(2, "Jensen coincidence of moderation", ok)


def test_criterion_3_generalized_vs_oracle():
    t0 = time.perf_counter()
    scenario = Scenario(terminal=IND, cost=WQ, T=1.0, x=np.array([1.0]),
                        outer_grid=GRID17, solver_cfg=CFG)
    levels = [
        DPGrids.build(0.0, 1.0, 10, [[-2, 2]], 0.01, [[-2, 2]], 0.1),
        DPGrids.build(0.0, 1.0, 25, [[-2, 2]], 0.004, [[-2, 2]], 0.1),
        DPGrids.build(0.0, 1.0, 50, [[-2, 2]], 0.002, [[-2, 2]], 0.1),
    ]
    rows = convergence_study(scenario, levels)
    ok = rows[-1].error <= 0.02 * abs(rows[-1].oracle_value)
    ok &= rows[-1].error <= rows[-2].error
    ok &= abs(rows[-1].formula_value - REF_WQ) <= 2e-3
    ok &= (time.perf_counter() - t0) < 60.0
    _report(3, "generalized formula vs DP oracle", ok)


def _frozen_price_economy():
    spec = ImpetusCostSpec(scalar_cost=lambda e: e * e, gamma_price=0.0,
                           gamma_agents=(10.0,))
    term = TerminalCost(
        evaluator=lambda t, z: 0.0
        if abs(t) <= 1e-9 and abs(z[0]) <= 1e-9 and abs(z[1] - 1.0) <= 1e-9
        else math.inf)
    grid = OuterGrid.build(1.0, 3, [[-1, 1], [-1, 1]], 5, max_rounds=4)
    cfg = SolverConfig(n_steps=8, multi_starts=1, max_iter=60, seed=0)
    return economic_value(term, spec, 1.0, [[1.0]], [[1.0]], grid, cfg), term


def test_criterion_4_enrichment_certificates():
    ok = True
    # exact benchmarks (closed-form cells): residual <= 1e-6
    classic_ind = classic_lax_hopf(IND, QUAD, 1.0, 1.0, GRID17)
    ok &= optimum_certificate(classic_ind, IND, classic_ind.moderation_lambda) <= 1e-6
    classic_quad = classic_lax_hopf(QTERM, QUAD1, 1.0, 1.0, GRID17)
    ok &= optimum_certificate(classic_quad, QTERM,
                              classic_quad.moderation_lambda) <= 1e-6
    # solver-based scenarios: residual <= 1e-4
    gen = generalized_lax_hopf(IND, WQ, 1.0, 1.0, GRID17, CFG)
    ok &= optimum_certificate(gen, IND, gen.moderation_lambda) <= 1e-4
    disc = discounted_value(QTERM, QUAD, make_rate("constant", r=0.1),
                            1.0, 1.0, GRID17, CFG)
    ok &= actualized_enrichment_certificate(
        disc, QTERM, make_rate("constant", r=0.1)) <= 1e-4
    econ, term = _frozen_price_economy()
    ok &= economy_enrichment_certificate(econ, term) <= 1e-4
    _report(4, "enrichment identity certificates", ok)


def test_criterion_5_obstacle_and_boundary():
    ok = True
    cheap_grid = OuterGrid.build(1.0, 4, [[-2, 2]], 9, max_rounds=0)
    cheap_cfg = SolverConfig(n_steps=4, multi_starts=0, max_iter=0, seed=0)
    for x in np.linspace(-2.0, 2.0, 100):
        res = generalized_lax_hopf(QTERM, QUAD, 1.0, x, cheap_grid, cheap_cfg)
        c = eval_terminal(QTERM, 1.0, x)
        ok &= res.value.to_float() <= c.value + 1e-9
    # instantaneous boundary: zero aperture returns c(T, x) exactly
    for x in (-1.5, 0.0, 2.0):
        w = wtp_value(QTERM, 1.0, 1.0, x, 0.0, np.linspace(-3, 3, 11))
        ok &= w.value == eval_terminal(QTERM, 1.0, x).value
    _report(5, "obstacle bound and instantaneous boundary", ok)


def test_criterion_6_zero_rate_bitwise():
    zero = make_rate("zero")
    gen = generalized_lax_hopf(QTERM, QUAD, 1.0, 1.0, GRID17, CFG)
    disc = discounted_value(QTERM, QUAD, zero, 1.0, 1.0, GRID17, CFG)
    ok = gen.value.value == disc.value.value
    ok &= gen.omega_star == disc.omega_star
    ok &= np.array_equal(gen.upsilon_star, disc.upsilon_star)
    ok &= np.array_equal(gen.trajectory.velocities, disc.trajectory.velocities)
    lam_a, _ = moderate(ModerationProblem(cost=QUAD, T=1.0, x=np.array([1.0]),
                                          omega=0.8, upsilon=np.array([1.2])),
                        CFG, rng=np.random.default_rng(3))
    lam_b, _ = discounted_moderate(QUAD, zero, 1.0, [1.0], 0.8, [1.2], CFG,
                                   rng=np.random.default_rng(3))
    ok &= lam_a.value == lam_b.value
    _report(6, "zero-rate bit-for-bit reduction", ok)


def _max_hj_residual(step: float) -> float:
    surf = lambda t, y: float(y @ y) / (2.0 * t)
    dual_velocities = np.linspace(-8, 8, 3201)
    worst = 0.0
    for t in np.linspace(0.5, 1.5, 20):
        for x in np.linspace(0.5, 1.5, 20):
            r = hj_residual(surf, QUAD, (float(t), float(x)), dual_velocities,
                            step=step)
            worst = max(worst, abs(r))
    return worst


def test_criterion_7_hj_residual():
    coarse = _max_hj_residual(1e-2)
    fine = _max_hj_residual(1e-3)
    ok = fine <= 1e-3 and fine <= coarse + 1e-12
    _report(7, "Hamilton-Jacobi residual on the analytic surface", ok)


def test_criterion_8_economy_product_rule():
    rng = np.random.default_rng(0)
    delta = 1e-3
    ok = True
    for _ in range(10):
        x0, p0 = rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, (2, 2))
        xd, pd = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
        u1 = patrimonial_value(EconomyState(x0 + delta * xd, p0 + delta * pd))
        u0 = patrimonial_value(EconomyState(x0, p0))
        mid = EconomyState(x0 + 0.5 * delta * xd, p0 + 0.5 * delta * pd)
        ok &= abs((u1 - u0) / delta - impetus(mid, xd, pd)) <= 1e-3
    econ, _ = _frozen_price_economy()
    grid1 = OuterGrid.build(1.0, 3, [[-1, 1]], 5, max_rounds=4)
    cfg = SolverConfig(n_steps=8, multi_starts=1, max_iter=60, seed=0)
    ref = generalized_lax_hopf(IND, QUAD1, 1.0, 1.0, grid1, cfg)
    ok &= abs(econ.value.value - ref.value.value) <= 1e-3
    _report(8, "economy product rule and frozen-price reduction", ok)


def _pipeline_digest() -> str:
    blobs = []
    blobs.append(value_result_to_json(
        classic_lax_hopf(IND, QUAD, 1.0, 1.0, GRID17)))
    blobs.append(value_result_to_json(
        generalized_lax_hopf(IND, WQ, 1.0, 1.0, GRID17, CFG)))
    blobs.append(value_result_to_json(
        discounted_value(QTERM, QUAD, make_rate("constant", r=0.1),
                         1.0, 1.0, GRID17, CFG)))
    gen = generalized_lax_hopf(IND, WQ, 1.0, 1.0, GRID17, CFG)
    blobs.append(repr(gen.trajectory.velocities.tobytes()))
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()


def test_criterion_9_determinism():
    ok = _pipeline_digest() == _pipeline_digest()
    _report(9, "deterministic artifacts under a fixed seed", ok)
