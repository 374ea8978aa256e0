"""The library's one argument rule, walked over the public surface.

Every public callable of ``tests/test_public_surface.py`` that takes a number has
one valid set of arguments here.  The walk puts one bad value into one numeric
argument at a time: NaN or +-inf; for a count also a float or a bool; for a state
also a wrong length.  Each must raise a MisuseError (a ParameterError is one)
whose message names that argument.  A returned value, any other exception or a
warning fails the walk.  Every check runs before any solve, so the walk is cheap.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxhopf as lh
from laxhopf.errors import MisuseError, ParameterError
from test_public_surface import SURFACE

NUMBER, COUNT, ARRAY, STATE = "number", "count", "array", "state"

CFG = lh.SolverConfig(n_steps=2, multi_starts=0, max_iter=2)
GRID = lh.OuterGrid.build(1.0, 1, [[-1, 1]], 2, max_rounds=0)
GRID2 = lh.OuterGrid.build(1.0, 1, [[-1, 1], [-1, 1]], 2, max_rounds=0)
QUAD = lh.make_cost("quadratic")
BOXED = lh.make_cost("quadratic", domain=[[-1, 1]])
QTERM = lh.make_terminal("quadratic_state")
RATE = lh.make_rate("constant", r=0.1)
VGRID = np.linspace(-2.0, 2.0, 9)
DP = lh.DPGrids.build(0.0, 1.0, 2, [[-1, 1]], 0.5, [[-1, 1]], 1.0)
LEVELS = [DP, lh.DPGrids.build(0.0, 1.0, 4, [[-1, 1]], 0.25, [[-1, 1]], 1.0)]
SPEC = lh.ImpetusCostSpec(lambda e: e * e, 1.0, (1.0,))
STATE_1 = lh.EconomyState([[1.0]], [[1.0]])

# name -> (call, one valid set of keyword arguments, the kind of each numeric argument)
ENTRIES = {
    "AdmissibleSpec": (lh.AdmissibleSpec, dict(velocity_bound=1.0), {"velocity_bound": NUMBER}),
    "CostField": (lh.CostField, dict(batch_evaluator=lambda t, X, U: np.sum(U * U, axis=1),
                                     domain_box=[[-1.0, 1.0]]), {"domain_box": ARRAY}),
    "DPGrids": (lh.DPGrids, dict(t0=0.0, T=1.0, n_t=2, state_axes=(np.linspace(-1, 1, 5),),
                                 velocity_axes=(np.array([-1.0, 0.0, 1.0]),)),
                {"t0": NUMBER, "T": NUMBER, "n_t": COUNT, "state_axes": ARRAY, "velocity_axes": ARRAY}),
    "DPGrids.build": (lh.DPGrids.build, dict(t0=0.0, T=1.0, n_t=2, state_box=[[-1, 1]], state_step=0.5,
                                             velocity_box=[[-1, 1]], velocity_step=1.0),
                      {"t0": NUMBER, "T": NUMBER, "n_t": COUNT, "state_box": ARRAY, "state_step": NUMBER,
                       "velocity_box": ARRAY, "velocity_step": NUMBER}),
    "EconomyState": (lh.EconomyState, dict(allocations=[[1.0]], prices=[[1.0]]),
                     {"allocations": STATE, "prices": STATE}),
    "ImpetusCostSpec": (lh.ImpetusCostSpec, dict(scalar_cost=abs, gamma_price=1.0, gamma_agents=(1.0,)),
                        {"gamma_price": NUMBER, "gamma_agents": ARRAY}),
    # a record whose numbers moderate checks
    "ModerationProblem": (lambda **kw: lh.moderate(lh.ModerationProblem(**kw), CFG),
                          dict(cost=QUAD, T=1.0, x=[0.0], omega=0.5, upsilon=[0.5]),
                          {"T": NUMBER, "x": STATE, "omega": NUMBER, "upsilon": STATE}),
    "OuterGrid": (lh.OuterGrid, dict(omega_values=[0.5, 1.0], upsilon_lattice=[[-1.0], [1.0]], max_rounds=1),
                  {"omega_values": ARRAY, "upsilon_lattice": ARRAY, "max_rounds": COUNT}),
    "OuterGrid.build": (lh.OuterGrid.build, dict(omega_max=1.0, n_omega=1, upsilon_box=[[-1, 1]], n_upsilon=2,
                                                 max_rounds=0),
                        {"omega_max": NUMBER, "n_omega": COUNT, "upsilon_box": ARRAY, "n_upsilon": COUNT,
                         "max_rounds": COUNT}),
    # a record whose numbers convergence_study checks
    "Scenario": (lambda **kw: lh.convergence_study(lh.Scenario(**kw), LEVELS),
                 dict(terminal=QTERM, cost=QUAD, T=1.0, x=[0.0], outer_grid=GRID, solver_cfg=CFG),
                 {"T": NUMBER, "x": STATE}),
    "SolverConfig": (lh.SolverConfig, dict(n_steps=2, multi_starts=0, max_iter=2, seed=0),
                     {"n_steps": COUNT, "multi_starts": COUNT, "max_iter": COUNT, "seed": COUNT}),
    "Window": (lh.Window, dict(T=1.0, omega=0.5), {"T": NUMBER, "omega": NUMBER}),
    "build_conjugate_table": (lh.build_conjugate_table, dict(cost=QUAD, t=0.0, x=[0.0], dual_grid=[-1.0, 1.0],
                                                             velocity_grid=VGRID),
                              {"t": NUMBER, "x": STATE, "dual_grid": ARRAY, "velocity_grid": ARRAY}),
    "build_moderation_table": (lh.build_moderation_table, dict(cost=QUAD, T=1.0, x=[0.0], omega_grid=[0.5],
                                                               upsilon_grid=[[0.5]], cfg=CFG),
                               {"T": NUMBER, "x": STATE, "omega_grid": ARRAY, "upsilon_grid": STATE}),
    "build_trajectory": (lh.build_trajectory, dict(window=lh.Window(1.0, 1.0), terminal_state=[0.5],
                                                   velocities=[[0.5], [0.5]]),
                         {"terminal_state": STATE, "velocities": STATE}),
    "check_marchaud": (lh.check_marchaud, dict(cost=BOXED, c_const=10.0, t_range=(0.0, 1.0), x_box=[[-1, 1]],
                                               n_samples=1, rng=0, convexity_tol=1e-9),
                       {"c_const": NUMBER, "t_range": ARRAY, "x_box": ARRAY, "n_samples": COUNT,
                        "convexity_tol": NUMBER}),
    "classic_lax_hopf": (lh.classic_lax_hopf, dict(terminal=QTERM, cost=QUAD, T=1.0, x=[0.5], grid=GRID,
                                                   n_steps=2),
                         {"T": NUMBER, "x": STATE, "n_steps": COUNT}),
    "discounted_moderate": (lh.discounted_moderate, dict(cost=QUAD, rate=RATE, T=1.0, x=[0.0], omega=0.5,
                                                         upsilon=[0.5], cfg=CFG),
                            {"T": NUMBER, "x": STATE, "omega": NUMBER, "upsilon": STATE}),
    "discounted_value": (lh.discounted_value, dict(terminal=QTERM, cost=QUAD, rate=RATE, T=1.0, x=[0.5],
                                                   grid=GRID, cfg=CFG),
                         {"T": NUMBER, "x": STATE}),
    "economic_value": (lh.economic_value, dict(terminal=QTERM, spec=SPEC, T=1.0, allocations=[[0.5]],
                                               prices=[[0.5]], grid=GRID2, cfg=CFG),
                       {"T": NUMBER, "allocations": STATE, "prices": STATE}),
    "enrichment": (lh.enrichment, dict(v_start=1.0, v_end=2.0, omega=0.5),
                   {"v_start": NUMBER, "v_end": NUMBER, "omega": NUMBER}),
    "eval_cost": (lh.eval_cost, dict(cost=QUAD, t=0.0, x=[0.0], u=[0.5]), {"t": NUMBER, "x": STATE, "u": STATE}),
    "eval_terminal": (lh.eval_terminal, dict(term=QTERM, t=0.0, x=[0.5]), {"t": NUMBER, "x": ARRAY}),
    "generalized_lax_hopf": (lh.generalized_lax_hopf, dict(terminal=QTERM, cost=QUAD, T=1.0, x=[0.5], grid=GRID,
                                                           cfg=CFG),
                             {"T": NUMBER, "x": STATE}),
    "hj_residual": (lh.hj_residual, dict(surface=lambda t, y: t + float(y @ y), cost=QUAD, node=(0.5, [0.5]),
                                         velocity_grid=VGRID, step=1e-3),
                    {"node": ARRAY, "velocity_grid": ARRAY, "step": NUMBER}),
    "hj_residual on a ValueSurface": (
        lh.hj_residual, dict(surface=lh.ValueSurface(LEVELS[1], np.zeros((5, 9))), cost=QUAD, node=(2, (3,)),
                             velocity_grid=VGRID),
        {"node": ARRAY}),   # a wrong length is an example below
    "impact_of_price_fluctuation": (lh.impact_of_price_fluctuation, dict(p_prime=[1.0], x=[1.0]),
                                    {"p_prime": STATE, "x": STATE}),
    "impetus": (lh.impetus, dict(state=STATE_1, x_dot=[[0.5]], p_dot=[[0.5]]), {"x_dot": STATE, "p_dot": STATE}),
    "impetus_cost": (lh.impetus_cost, dict(spec=SPEC, t=0.0, state=STATE_1, x_dot=[[0.5]], p_dot=[[0.5]]),
                     {"t": NUMBER, "x_dot": STATE, "p_dot": STATE}),
    "impetus_cost_field": (lh.impetus_cost_field, dict(spec=SPEC, n_agents=1, dim=1),
                           {"n_agents": COUNT, "dim": COUNT}),
    "interest_rates": (lh.interest_rates, dict(v_start=1.0, v_end=2.0, omega=0.5),
                       {"v_start": NUMBER, "v_end": NUMBER, "omega": NUMBER}),
    "jensen_gap": (lh.jensen_gap, dict(cost=QUAD, T=1.0, x=[0.0], omega=0.5, upsilon=[0.5], cfg=CFG),
                   {"T": NUMBER, "x": STATE, "omega": NUMBER, "upsilon": STATE}),
    "jensen_suite": (lh.jensen_suite, dict(cost=QUAD, n_samples=1, omega_range=(0.5, 1.0), upsilon_box=[[-1, 1]],
                                           cfg=CFG, tol=1e-6, seed=0),
                     {"n_samples": COUNT, "omega_range": ARRAY, "upsilon_box": ARRAY, "tol": NUMBER,
                      "seed": COUNT}),
    "legendre_fenchel": (lh.legendre_fenchel, dict(cost=QUAD, t=0.0, x=[0.0], p=[0.5], velocity_grid=VGRID),
                         {"t": NUMBER, "x": STATE, "p": STATE, "velocity_grid": ARRAY}),
    "make_cost": (lambda **kw: lh.make_cost("quadratic", **kw), dict(a=0.5), {"a": NUMBER}),
    "make_rate": (lambda **kw: lh.make_rate("constant", **kw), dict(r=0.1), {"r": NUMBER}),
    "make_terminal": (lambda **kw: lh.make_terminal("quadratic_state", **kw), dict(a=1.0, x0=[0.0]),
                      {"a": NUMBER, "x0": ARRAY}),
    "pack_economy": (lh.pack_economy, dict(allocations=[[1.0]], prices=[[1.0]]),
                     {"allocations": STATE, "prices": STATE}),
    "subdifferential_check": (lh.subdifferential_check, dict(cost=QUAD, t=0.0, x=[0.0], u=[0.5], p=[0.5],
                                                             grid=VGRID, tol=1e-3),
                              {"t": NUMBER, "x": STATE, "u": STATE, "p": STATE, "grid": ARRAY, "tol": NUMBER}),
    "unpack_economy": (lh.unpack_economy, dict(z=[1.0, 1.0], n_agents=1, dim=1),
                       {"z": STATE, "n_agents": COUNT, "dim": COUNT}),
    "wtp_value": (lh.wtp_value, dict(terminal=QTERM, velocity_bound=1.0, T=1.0, x=[0.5], omega=0.5,
                                     state_grid=np.linspace(-1.0, 1.0, 5)),
                  {"velocity_bound": NUMBER, "T": NUMBER, "x": STATE, "omega": NUMBER, "state_grid": ARRAY}),
}
# Public callables without a numeric argument of their own.
NO_NUMBERS = {
    "RateField", "TerminalCost", "accumulate_rate", "actualized_enrichment_certificate", "average_transaction",
    "convergence_study",   # its numbers come in its Scenario
    "cumulated_cost", "dp_oracle", "dynamic_value_profile", "economy_enrichment_certificate",
    "moderate",            # its numbers come in its ModerationProblem
    "moderation_table_to_csv", "optimum_certificate", "patrimonial_value", "refine_trajectory", "surface_to_csv",
    "trajectory_to_csv", "value_result_to_json",
}
# Records the library fills from checked arguments (build_trajectory makes a checked Trajectory).
RECORDS = {"AccumulationProfile", "ConjugateTable", "JensenReport", "MarchaudReport", "ModerationTable",
           "Trajectory", "ValueResult", "ValueSurface"}
# Extended-real arithmetic, where +inf is a value and NaN an EvaluationFault.
VALUES = {"ExtReal", "ext_min", "ext_sum"}

ARGS = [(name, arg) for name, (_, _, kinds) in ENTRIES.items() for arg in kinds]
NONFINITE = [math.nan, math.inf, -math.inf]


def _leaves(value) -> list:
    return ([leaf for item in value for leaf in _leaves(item)] if isinstance(value, (list, tuple, np.ndarray))
            else [value])


def _spoil(value, bad, at: int = 0):
    """``value`` with its leaf number ``at`` (modulo their count, in row-major order) set to ``bad``."""
    left = [at % len(_leaves(value))]

    def walk(v):
        if isinstance(v, (list, tuple, np.ndarray)):
            out = [walk(item) for item in v]
            return tuple(out) if isinstance(v, tuple) else out
        left[0] -= 1
        return bad if left[0] == -1 else v

    return walk(value)


def _longer(value):
    """``value`` with its last axis one entry longer."""
    arr = np.asarray(value, dtype=float)
    return np.concatenate([arr, arr[..., :1]], axis=-1).tolist()


def bad_values(name: str, arg: str) -> list:
    """The deterministic bad values of one argument."""
    _, kwargs, kinds = ENTRIES[name]
    kind, good = kinds[arg], kwargs[arg]
    if kind in (ARRAY, STATE):
        return [_spoil(good, bad) for bad in NONFINITE] + ([_longer(good)] if kind == STATE else [])
    return NONFINITE + ([float(good), True] if kind == COUNT else [])


def failure(name: str, arg: str, value):
    """None if the call with ``arg`` set to ``value`` raises a MisuseError that names ``arg``,
    else what happened instead."""
    call, kwargs, _ = ENTRIES[name]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(**{**kwargs, arg: value})
    except MisuseError as exc:
        if isinstance(exc, ParameterError):
            named = exc.param == arg
        else:
            named = re.search(rf"\b{re.escape(arg)}\b", str(exc))
        return None if named else f"{name}({arg}={value!r}): the message does not name {arg}: {exc}"
    except Exception as exc:   # a raw TypeError, ValueError, IndexError, OverflowError or a warning
        return f"{name}({arg}={value!r}) raised {type(exc).__name__}: {exc}"
    return f"{name}({arg}={value!r}) returned {out!r}"


def test_the_walk_covers_the_public_surface():
    callables = {name for name, sig in SURFACE.items() if sig is not None}
    walked = {name for name in ENTRIES if name in SURFACE}
    assert walked | NO_NUMBERS | RECORDS | VALUES == callables
    assert not walked & (NO_NUMBERS | RECORDS | VALUES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_the_valid_arguments_run(name):
    call, kwargs, _ = ENTRIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**kwargs)


def test_every_numeric_argument_names_each_bad_value():
    failures = [f for name, arg in ARGS for value in bad_values(name, arg) if (f := failure(name, arg, value))]
    assert not failures, "\n".join(failures)


@st.composite
def spoiled(draw):
    """One numeric argument of one entry, with one bad value drawn for its kind."""
    name, arg = draw(st.sampled_from(ARGS))
    kind, good = ENTRIES[name][2][arg], ENTRIES[name][1][arg]
    bad = draw(st.sampled_from(NONFINITE))
    if kind == COUNT:
        bad = draw(st.one_of(st.just(bad), st.booleans(),
                             st.floats(-1e6, 1e6).map(lambda f: f if f != int(f) else float(good))))
    elif kind in (ARRAY, STATE):
        grow = kind == STATE and draw(st.booleans())
        bad = _longer(good) if grow else _spoil(good, bad, draw(st.integers(0, 63)))
    return name, arg, bad


# the holes each example shows were found by calling the entries with these values
@settings(deadline=None)
@given(case=spoiled())
@example(case=("Window", "T", math.nan))
@example(case=("Window", "omega", math.inf))
@example(case=("wtp_value", "T", math.nan))
@example(case=("interest_rates", "omega", math.nan))
@example(case=("DPGrids.build", "state_step", math.nan))
@example(case=("DPGrids.build", "state_step", 0.0))
@example(case=("DPGrids.build", "n_t", 2.5))
@example(case=("DPGrids", "T", math.nan))
@example(case=("jensen_suite", "n_samples", -1))
@example(case=("jensen_suite", "omega_range", (math.nan, 1.0)))
@example(case=("check_marchaud", "n_samples", True))
@example(case=("check_marchaud", "c_const", math.inf))
@example(case=("check_marchaud", "t_range", (math.nan, 1.0)))
@example(case=("build_conjugate_table", "t", math.nan))
@example(case=("legendre_fenchel", "p", [math.nan]))
@example(case=("build_trajectory", "velocities", [[math.nan], [0.5]]))
@example(case=("EconomyState", "allocations", [[math.nan]]))
@example(case=("impetus", "x_dot", [[math.nan]]))
@example(case=("pack_economy", "prices", [[math.nan]]))
@example(case=("unpack_economy", "z", [1.0, 1.0, 1.0]))
@example(case=("hj_residual on a ValueSurface", "node", (2, (3, 3))))
def test_a_bad_argument_is_named(case):
    assert (found := failure(*case)) is None, found
