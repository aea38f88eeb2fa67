"""Simulation engine for outcome-coding choice in violence-reduction trials.

Builds zero-inflated multi-act count outcomes (single-act marginals, a
Gaussian-copula joint model), potential-outcome schedules under program
response types, difference-in-means estimation with HC2 standard errors,
and a Monte Carlo harness that scores each outcome coding's bias, RMSE,
power, and coverage.
"""

__version__ = "0.1.0"

from .coding import categorize, code_binary, code_chronicity, code_sum
from .estimation import EstimateResult, estimate_ols_hc2, reject_null
from .harness import (
    SCENARIO_PRESETS,
    CellResult,
    PerformanceStats,
    Replications,
    SimulationConfig,
    latent_summary,
    mc_standard_errors,
    run_cell,
    run_replication,
    run_simulation,
    scenario_grid,
    scenario_preset,
    summarize,
)
from .ingest import (
    EmpiricalResampler,
    SurveyTable,
    fit_model,
    latent_correlation_matrix,
    load_model,
    read_survey,
    save_model,
    write_survey,
)
from .joint import ActSpec, MultiActModel, nearest_psd, sample_joint
from .marginals import (
    FitResult,
    MarginalParams,
    fit_mle_censored,
    fit_mle_exact,
    zi_cdf,
    zi_loglik,
    zi_pmf,
    zi_quantile,
    zi_sample,
)
from .outcomes import (
    EffectScenario,
    PotentialOutcomeTable,
    ResponseType,
    apply_effects,
    assign_response_types,
    randomize,
    true_estimands,
)

__all__ = [
    "ActSpec",
    "CellResult",
    "EffectScenario",
    "EmpiricalResampler",
    "EstimateResult",
    "FitResult",
    "MarginalParams",
    "MultiActModel",
    "PerformanceStats",
    "PotentialOutcomeTable",
    "Replications",
    "ResponseType",
    "SCENARIO_PRESETS",
    "SimulationConfig",
    "SurveyTable",
    "apply_effects",
    "assign_response_types",
    "categorize",
    "code_binary",
    "code_chronicity",
    "code_sum",
    "estimate_ols_hc2",
    "fit_mle_censored",
    "fit_mle_exact",
    "fit_model",
    "latent_correlation_matrix",
    "latent_summary",
    "load_model",
    "mc_standard_errors",
    "nearest_psd",
    "randomize",
    "read_survey",
    "reject_null",
    "run_cell",
    "run_replication",
    "run_simulation",
    "sample_joint",
    "save_model",
    "scenario_grid",
    "scenario_preset",
    "summarize",
    "true_estimands",
    "write_survey",
    "zi_cdf",
    "zi_loglik",
    "zi_pmf",
    "zi_quantile",
    "zi_sample",
]
