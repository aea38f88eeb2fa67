"""Fixtures the tests share: direct draws from a margin, its moments, a
fit report's total log-likelihood, two counts-mode surveys, and one
replication of a cell kernel.  They are test code, not part of the ctssim
package."""

from __future__ import annotations

import os

import numpy as np

from ctssim import harness
from ctssim.harness import CODINGS, CellKernel
from ctssim.datasets import example_model
from ctssim.ingest import FitReport, SurveyTable, write_survey
from ctssim.joint import ActSpec, CopulaSampler, MultiActModel, sample_joint
from ctssim.marginals import ZIP, MarginalParams

from reference import DRAWN_TYPES, PotentialOutcomeTable, apply_effects


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


def write_example_counts_survey(directory) -> tuple[str, str]:
    """(data, descriptor) paths of a counts-mode survey of 8000 rows drawn
    from the example model at seed 0, written into ``directory``.  The
    counts of act 10 are capped at 2, so its positives are under-dispersed."""
    model = example_model()
    values = sample_joint(model, 8000, np.random.default_rng(0))
    values[:, 9] = np.minimum(values[:, 9], 2)
    data, descriptor = os.path.join(directory, "counts.csv"), os.path.join(directory, "counts.json")
    write_survey(SurveyTable(model.acts, values, "counts"), data, descriptor)
    return data, descriptor


def far_from_zero_counts_table() -> SurveyTable:
    """A counts survey of 2000 rows (seed 0) whose acts a ~ Poisson(900) and
    b ~ Poisson(900) * Bernoulli(0.5) put no mass on low counts: their low
    cells have latent bounds of -inf, and the zero-truncated NB's zero share
    underflows.  Act c ~ Poisson(1) * Bernoulli(0.3)."""
    rng = np.random.default_rng(0)
    n = 2000
    a = rng.poisson(900, n)
    b = rng.poisson(900, n) * rng.binomial(1, 0.5, n)
    c = rng.poisson(1, n) * rng.binomial(1, 0.3, n)
    acts = tuple(ActSpec(i + 1, label, "physical", "moderate") for i, label in enumerate("abc"))
    return SurveyTable(acts, np.column_stack([a, b, c]), "counts")


def control_draw(config, copula: CopulaSampler | None, reps: range) -> tuple:
    """The control draw of the replications ``reps`` as a grid makes it, all
    on this thread: each one's generator, its standard normals
    (``fill_normals``) when ``copula`` is not None, then ``finish_draw``.
    Returns the generators as the draw left them, y0 and score0."""
    rngs = [harness._replication_rng(config.seed, i) for i in reps]
    normals = None
    if copula is not None:
        normals = np.empty((len(reps), config.n_units, len(config.model.acts)))
        harness.fill_normals(rngs, normals)
    return rngs, *harness.finish_draw(config, copula, reps, rngs, normals)


def replicate(kernel: CellKernel, rep_index: int, return_schedule: bool = False) -> dict:
    """Replication ``rep_index`` of ``kernel``'s cell, run as a block of
    one (``control_draw``, ``share``, ``hits`` and ``CellKernel.respond``);
    deterministic given (seed, rep_index).

    Returns {"binary": {...}, "sum": {...}} with estimate, se, p_value,
    ci_low, ci_high and true_ate per coding as floats, and the mean latent
    count change under "latent_sum_true".  When requested, "schedule"
    holds the replication's PotentialOutcomeTable, rebuilt from ``share``'s
    output: the response types from the kernel's CDF and the treated
    counts from ``reference.apply_effects``.
    """
    config = kernel.config
    model = config.model
    copula = CopulaSampler(model) if isinstance(model, MultiActModel) else None
    rngs, y0, score0 = control_draw(config, copula, range(rep_index, rep_index + 1))
    shared = harness.share(y0, score0, rngs, kernel.cols)
    treated, truth, latent = kernel.respond(
        shared, harness.hits(shared, float(kernel.cdf[0]), kernel.span))
    reps = harness._replications(np.stack([*treated, *shared.control, truth]), latent, config)
    record = {c: {f: float(v[0]) for f, v in reps.data[c].items()} for c in CODINGS}
    record["latent_sum_true"] = float(reps.latent_sum_true[0])
    if return_schedule:
        n = config.n_units
        s = np.zeros(n, dtype=np.int8)
        drawn = kernel.cdf.searchsorted(shared.u, side="right")
        s[shared.violent] = DRAWN_TYPES.take(drawn)
        z = np.zeros(n, dtype=np.int8)
        z[shared.arm1] = 1
        y1 = apply_effects(shared.y0[0], s, kernel.scenario, kernel.target, model.acts)
        record["schedule"] = PotentialOutcomeTable(shared.y0[0], y1, s, z)
    return record
