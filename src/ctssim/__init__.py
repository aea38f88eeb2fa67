"""Simulation engine for outcome-coding choice in violence-reduction trials.

Builds zero-inflated multi-act count outcomes (single-act marginals, a
Gaussian-copula joint model), potential-outcome schedules under program
response types, difference-in-means estimation with HC2 standard errors,
and a Monte Carlo harness that scores each outcome coding's bias, RMSE,
power, and coverage.
"""

import os

# One OpenBLAS thread unless the caller chose otherwise; this must run before
# anything imports numpy.  ctssim's largest BLAS call, one (n, K) @ (K, K)
# product per replication, is already below OpenBLAS's own threshold for
# using threads, yet each of the two OpenBLAS libraries numpy and scipy load
# would start a worker thread at import, and scipy's busy-spins through the
# L-BFGS-B fits.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .coding import categorize
from .harness import (
    SCENARIO_PRESETS,
    CellResult,
    PerformanceStats,
    Replications,
    SimulationConfig,
    latent_summary,
    run_cell,
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
)
from .outcomes import EffectScenario

__all__ = [
    "ActSpec",
    "CellResult",
    "EffectScenario",
    "EmpiricalResampler",
    "FitResult",
    "MarginalParams",
    "MultiActModel",
    "PerformanceStats",
    "Replications",
    "SCENARIO_PRESETS",
    "SimulationConfig",
    "SurveyTable",
    "categorize",
    "fit_mle_censored",
    "fit_mle_exact",
    "fit_model",
    "latent_correlation_matrix",
    "latent_summary",
    "load_model",
    "nearest_psd",
    "read_survey",
    "run_cell",
    "sample_joint",
    "save_model",
    "scenario_grid",
    "scenario_preset",
    "summarize",
    "write_survey",
]
