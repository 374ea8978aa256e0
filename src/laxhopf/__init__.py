"""Generalized Lax-Hopf evaluation of intertemporal transaction-cost problems.

Value functions over temporal windows [T - omega, T] with an unprescribed
start state, reduced to finite-dimensional minimization over apertures and
average transactions via moderated transaction costs, together with an
independent dynamic-programming oracle and residual verifiers.
"""

from .extreal import INF, ExtReal, ext_min, ext_sum
from .costs import (
    ConjugateTable,
    CostField,
    MarchaudReport,
    RateField,
    TerminalCost,
    build_conjugate_table,
    check_marchaud,
    eval_cost,
    eval_terminal,
    legendre_fenchel,
    make_cost,
    make_rate,
    make_terminal,
    subdifferential_check,
)
from .trajectories import (
    AdmissibleSpec,
    Trajectory,
    Window,
    average_transaction,
    build_trajectory,
    cumulated_cost,
    enrichment,
    interest_rates,
    refine_trajectory,
    trajectory_to_csv,
)
from .moderation import (
    AccumulationProfile,
    ModerationProblem,
    ModerationTable,
    SolverConfig,
    accumulate_rate,
    build_moderation_table,
    discounted_moderate,
    jensen_gap,
    moderate,
    moderation_table_to_csv,
)
from .laxhopf_core import (
    OuterGrid,
    ValueResult,
    actualized_enrichment_certificate,
    classic_lax_hopf,
    discounted_value,
    dynamic_value_profile,
    generalized_lax_hopf,
    optimum_certificate,
    value_result_to_json,
    wtp_value,
)
from .economy import (
    EconomyState,
    ImpetusCostSpec,
    economic_value,
    economy_enrichment_certificate,
    impact_of_price_fluctuation,
    impetus,
    impetus_cost,
    impetus_cost_field,
    pack_economy,
    patrimonial_value,
    unpack_economy,
)
from .verify import (
    DPGrids,
    JensenReport,
    Scenario,
    ValueSurface,
    convergence_study,
    dp_oracle,
    hj_residual,
    jensen_suite,
    surface_to_csv,
)
from . import errors

__version__ = "0.1.0"
