"""Fixtures the tests share: direct draws from a margin, its moments, a
fit report's total log-likelihood, and one replication of a cell kernel.
They are test code, not part of the ctssim package."""

from __future__ import annotations

import numpy as np

from ctssim.harness import CODINGS, CellKernel
from ctssim.ingest import FitReport
from ctssim.marginals import ZIP, MarginalParams


def zi_sample(params: MarginalParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws of a zero-inflated margin with numpy's own samplers,
    independent of the CDF tables the copula draw inverts; deterministic
    given the generator state."""
    violent = rng.random(n) >= params.zero_prob
    if params.family == ZIP:
        counts = rng.poisson(params.rate, size=n)
    else:
        k = params.dispersion
        counts = rng.negative_binomial(k, k / (k + params.rate), size=n)
    return np.where(violent, counts, 0).astype(np.int64)


def zi_mean(params: MarginalParams) -> float:
    return (1.0 - params.zero_prob) * params.rate


def zi_variance(params: MarginalParams) -> float:
    p, lam = params.zero_prob, params.rate
    count_var = lam if params.family == ZIP else lam + lam * lam / params.dispersion
    return (1.0 - p) * count_var + p * (1.0 - p) * lam * lam


def report_loglik(report: FitReport) -> float:
    """The summed log-likelihood of a fit report's margins."""
    return float(sum(a.fit.loglik for a in report.per_act))


def replicate(kernel: CellKernel, rep_index: int, return_schedule: bool = False) -> dict:
    """Replication ``rep_index`` of ``kernel``'s cell, run as a block of
    one; deterministic given (seed, rep_index).

    Returns {"binary": {...}, "sum": {...}} with estimate, se, p_value,
    ci_low, ci_high and true_ate per coding as floats, the mean latent
    count change under "latent_sum_true", and the PotentialOutcomeTable
    under "schedule" when requested.
    """
    rngs, y0, score0 = kernel.draw(range(rep_index, rep_index + 1))
    block = kernel.respond(kernel.share(y0, score0, rngs), return_schedule)
    record = {c: {f: float(v[0]) for f, v in block[c].items()} for c in CODINGS}
    record["latent_sum_true"] = float(block["latent_sum_true"][0])
    if return_schedule:
        record["schedule"] = block["schedule"][0]
    return record
