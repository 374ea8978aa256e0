"""The public surface of ``laxhopf``: every exported name and the signature of each callable.

A change that drops, adds or reshapes a public name updates this table in the
same commit, so the change is visible in review.
"""

import inspect

import laxhopf

# name -> str(inspect.signature(...)), None for a name that is not callable
SURFACE = {
    'AccumulationProfile': "(times: 'np.ndarray', factors: 'np.ndarray') -> None",
    'AdmissibleSpec': "(velocity_bound: 'Union[float, Callable[[float], float]]') -> None",
    'ConjugateTable': "(dual_grid: 'np.ndarray', values: 'np.ndarray', base_point: 'tuple') -> None",
    'CostField': "(evaluator: 'Optional[Callable]' = None, velocity_only: 'bool' = False, state_free: 'bool' = False, declared_convex_in_u: 'bool' = False, domain_box: 'Optional[np.ndarray]' = None, batch_evaluator: 'Optional[Callable]' = None, partials: 'Optional[Callable]' = None, separable: 'Optional[tuple]' = None) -> None",
    'DPGrids': "(t0: 'float', T: 'float', n_t: 'int', state_axes: 'tuple', velocity_axes: 'tuple') -> None",
    'EconomyState': "(allocations: 'np.ndarray', prices: 'np.ndarray') -> None",
    'ExtReal': '(value)',
    'INF': None,
    'ImpetusCostSpec': "(scalar_cost: 'Callable[[float], float]', gamma_price: 'Union[float, Callable]', gamma_agents: 'tuple', shared_prices: 'bool' = False) -> None",
    'JensenReport': "(samples: 'list', max_abs_gap: 'float', positive_failures: 'list', nonconvex_evidence: 'list') -> None",
    'MarchaudReport': "(violations: 'list' = <factory>, n_samples: 'int' = 0) -> None",
    'ModerationProblem': "(cost: 'CostField', T: 'float', x: 'np.ndarray', omega: 'float', upsilon: 'np.ndarray', admissible: 'Optional[AdmissibleSpec]' = None) -> None",
    'ModerationTable': "(omega_grid: 'np.ndarray', upsilon_grid: 'np.ndarray', values: 'np.ndarray', argmins: 'list', base_point: 'tuple') -> None",
    'OuterGrid': "(omega_values: 'np.ndarray', upsilon_lattice: 'np.ndarray', max_rounds: 'int' = 10) -> None",
    'RateField': "(evaluator: 'Optional[Callable]' = None, batch_evaluator: 'Optional[Callable]' = None, partials: 'Optional[Callable]' = None, time_only: 'bool' = False) -> None",
    'Scenario': "(terminal: 'TerminalCost', cost: 'CostField', T: 'float', x: 'np.ndarray', outer_grid: 'OuterGrid', solver_cfg: 'SolverConfig') -> None",
    'SolverConfig': "(n_steps: 'int' = 32, multi_starts: 'int' = 8, max_iter: 'int' = 200, seed: 'int' = 0) -> None",
    'TerminalCost': "(evaluator: 'Callable', batch_evaluator: 'Optional[Callable]' = None) -> None",
    'Trajectory': "(window: 'Window', terminal_state: 'np.ndarray', velocities: 'np.ndarray') -> None",
    'ValueResult': "(value: 'ExtReal', omega_star: 'Optional[float]', upsilon_star: 'Optional[np.ndarray]', start_state: 'Optional[np.ndarray]', trajectory: 'Optional[Trajectory]', moderation_lambda: 'Optional[ExtReal]' = None, certificate_residual: 'Optional[float]' = None, discount_factor: 'Optional[float]' = None) -> None",
    'ValueSurface': "(grids: 'DPGrids', values: 'np.ndarray') -> None",
    'Window': "(T: 'float', omega: 'float') -> None",
    'accumulate_rate': "(traj: 'Trajectory', rate: 'RateField') -> 'AccumulationProfile'",
    'actualized_enrichment_certificate': "(result: 'ValueResult', terminal: 'TerminalCost', rate: 'RateField') -> 'Optional[float]'",
    'average_transaction': "(traj: 'Trajectory') -> 'np.ndarray'",
    'build_conjugate_table': "(cost: 'CostField', t: 'float', x, dual_grid, velocity_grid) -> 'ConjugateTable'",
    'build_moderation_table': "(cost, T, x, omega_grid, upsilon_grid, cfg: 'SolverConfig') -> 'ModerationTable'",
    'build_trajectory': "(window: 'Window', terminal_state, velocities) -> 'Trajectory'",
    'check_marchaud': "(cost: 'CostField', c_const: 'float', t_range: 'tuple', x_box, n_samples: 'int', rng=None, convexity_tol: 'float' = 1e-09) -> 'MarchaudReport'",
    'classic_lax_hopf': "(terminal: 'TerminalCost', cost: 'CostField', T: 'float', x, grid: 'OuterGrid', n_steps: 'int' = 32) -> 'ValueResult'",
    'convergence_study': "(scenario: 'Scenario', levels: 'Sequence[DPGrids]')",
    'cumulated_cost': "(traj: 'Trajectory', cost: 'CostField') -> 'ExtReal'",
    'discounted_moderate': "(cost: 'CostField', rate: 'RateField', T: 'float', x, omega: 'float', upsilon, cfg: 'SolverConfig', rng=None)",
    'discounted_value': "(terminal: 'TerminalCost', cost: 'CostField', rate: 'RateField', T: 'float', x, grid: 'OuterGrid', cfg: 'SolverConfig') -> 'ValueResult'",
    'dp_oracle': "(terminal: 'TerminalCost', cost: 'CostField', grids: 'DPGrids') -> 'ValueSurface'",
    'dynamic_value_profile': "(result: 'ValueResult', terminal: 'TerminalCost', cost: 'CostField')",
    'economic_value': "(terminal: 'TerminalCost', spec: 'ImpetusCostSpec', T: 'float', allocations, prices, grid: 'OuterGrid', cfg: 'SolverConfig') -> 'ValueResult'",
    'economy_enrichment_certificate': "(result: 'ValueResult', terminal: 'TerminalCost') -> 'Optional[float]'",
    'enrichment': "(v_start: 'float', v_end: 'float', omega: 'float') -> 'float'",
    'errors': None,
    'eval_cost': "(cost: 'CostField', t: 'float', x, u) -> 'ExtReal'",
    'eval_terminal': "(term: 'TerminalCost', t: 'float', x) -> 'ExtReal'",
    'ext_min': "(values) -> 'ExtReal'",
    'ext_sum': "(values) -> 'ExtReal'",
    'generalized_lax_hopf': "(terminal: 'TerminalCost', cost: 'CostField', T: 'float', x, grid: 'OuterGrid', cfg: 'SolverConfig') -> 'ValueResult'",
    'hj_residual': "(surface, cost: 'CostField', node, velocity_grid, step: 'Optional[float]' = None)",
    'impact_of_price_fluctuation': "(p_prime, x) -> 'float'",
    'impetus': "(state: 'EconomyState', x_dot, p_dot) -> 'float'",
    'impetus_cost': "(spec: 'ImpetusCostSpec', t: 'float', state: 'EconomyState', x_dot, p_dot) -> 'ExtReal'",
    'impetus_cost_field': "(spec: 'ImpetusCostSpec', n_agents: 'int', dim: 'int') -> 'CostField'",
    'interest_rates': "(v_start: 'float', v_end: 'float', omega: 'float') -> 'InterestRates'",
    'jensen_gap': "(cost: 'CostField', T, x, omega, upsilon, cfg: 'SolverConfig', rng=None) -> 'float'",
    'jensen_suite': "(cost: 'CostField', n_samples: 'int', omega_range, upsilon_box, cfg: 'SolverConfig', tol: 'float' = 1e-06, seed: 'int' = 0) -> 'JensenReport'",
    'legendre_fenchel': "(cost: 'CostField', t: 'float', x, p, velocity_grid) -> 'ExtReal'",
    'make_cost': "(name: 'str', /, **params) -> 'CostField'",
    'make_rate': "(name: 'str', /, **params) -> 'RateField'",
    'make_terminal': "(name: 'str', /, **params) -> 'TerminalCost'",
    'moderate': "(prob: 'ModerationProblem', cfg: 'SolverConfig', rng=None)",
    'moderation_table_to_csv': "(table: 'ModerationTable', path) -> 'None'",
    'optimum_certificate': "(result: 'ValueResult', terminal: 'TerminalCost', moderation_lambda: 'ExtReal') -> 'Optional[float]'",
    'pack_economy': "(allocations, prices) -> 'np.ndarray'",
    'patrimonial_value': "(state: 'EconomyState') -> 'float'",
    'refine_trajectory': "(traj: 'Trajectory') -> 'Trajectory'",
    'subdifferential_check': "(cost: 'CostField', t: 'float', x, u, p, grid, tol: 'float') -> 'bool'",
    'surface_to_csv': "(surface: 'ValueSurface', path) -> 'None'",
    'trajectory_to_csv': "(traj: 'Trajectory', path) -> 'None'",
    'unpack_economy': "(z: 'np.ndarray', n_agents: 'int', dim: 'int') -> 'EconomyState'",
    'value_result_to_json': "(result: 'ValueResult') -> 'str'",
    'wtp_value': "(terminal: 'TerminalCost', velocity_bound: 'float', T: 'float', x, omega: 'float', state_grid) -> 'ExtReal'",
}


def exported():
    """Every public name of the package but its submodules; ``errors`` is exported on purpose."""
    return {name: value for name, value in vars(laxhopf).items()
            if not name.startswith("_") and (name == "errors" or not inspect.ismodule(value))}


def test_exported_names():
    assert sorted(exported()) == sorted(SURFACE)


def test_signatures():
    got = {name: str(inspect.signature(value)) if callable(value) and not inspect.ismodule(value) else None
           for name, value in exported().items()}
    assert got == SURFACE
