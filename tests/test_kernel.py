"""Bit-identity guard of the count kernel against scipy.stats.

ctssim computes count-distribution values with the special-function ufuncs
that scipy.stats dispatches to, some of them private to scipy.  These tests
require exact equality with the scipy.stats calls they replace, over a grid
that reaches the fit's parameter bounds, so a scipy release that renames or
changes those ufuncs fails here instead of silently moving fitted models.
The negative binomial log-pmf is the exception: past dispersion 1e4 scipy's
form cancels, so it is checked against a 40-digit mpmath evaluation instead.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from ctssim import ingest, marginals
from ctssim.marginals import (
    CDF_TAIL_MASS,
    FitResult,
    MarginalParams,
    _count,
    _exact_loglik,
    category_probs,
    cdf_table,
)

from reference import estimate_ols_hc2

# corners of the fit's bounds: log rate in [-10, 15], log dispersion in
# [-10, 20], logit zero_prob in [-30, 30]
RATES = (math.exp(-10.0), 0.05, 1.0, 2.36, 30.0, math.exp(15.0))
ZERO_PROBS = (0.0, 1.0 / (1.0 + math.exp(30.0)), 0.5, 0.84, 1.0 / (1.0 + math.exp(-30.0)), 1.0)
DISPERSIONS = (math.exp(-10.0), 0.3, 1.2, 50.0, math.exp(20.0))


def grid():
    for rate, theta in itertools.product(RATES, ZERO_PROBS):
        yield MarginalParams("zip", rate, theta)
        for k in DISPERSIONS:
            yield MarginalParams("zinb", rate, theta, dispersion=k)


def random_params(n, seed=3):
    """Draws over the fit's bounds; a last-bit disagreement shows on a
    fraction of a percent of parameter sets, which a grid can miss."""
    rng = np.random.default_rng(seed)
    out = []
    for log_rate, log_k, logit in zip(
        rng.uniform(-10, 15, n), rng.uniform(-10, 20, n), rng.uniform(-30, 30, n)
    ):
        theta = 1.0 / (1.0 + math.exp(-logit))
        out.append(MarginalParams("zip", math.exp(log_rate), theta))
        out.append(MarginalParams("zinb", math.exp(log_rate), theta, dispersion=math.exp(log_k)))
    return out


GRID = list(grid())
DRAWS = GRID + random_params(1000)
# cdf tables up to a few thousand entries
TABLE_GRID = [
    p for p in GRID
    if p.rate <= 30.0 and (p.dispersion is None or p.dispersion >= 0.3)
]


def frozen(params):
    if params.family == "zip":
        return stats.poisson(params.rate)
    k = params.dispersion
    return stats.nbinom(k, k / (k + params.rate))


def test_category_probs():
    for params in DRAWS:
        theta, dist = params.zero_prob, frozen(params)
        expected = np.array([
            theta + (1.0 - theta) * dist.pmf(0),
            (1.0 - theta) * dist.pmf(1),
            (1.0 - theta) * (dist.sf(1) - dist.sf(4)),
            (1.0 - theta) * dist.sf(4),
        ])
        assert np.array_equal(category_probs(params), expected), params


def test_pmf_and_cdf():
    counts = np.concatenate([np.arange(0, 40), [1e3, 1e5]])
    # the cdf of a non-integer is that of its floor
    y = np.concatenate([counts, [0.5, 3.5]])
    for params in GRID:
        dist = frozen(params)
        assert np.array_equal(_count(params, "pmf", counts), dist.pmf(counts)), params
        assert np.array_equal(_count(params, "cdf", y), dist.cdf(y)), params


def test_cdf_table():
    for params in TABLE_GRID:
        theta, dist = params.zero_prob, frozen(params)
        table = cdf_table(params)
        if theta >= 1.0:
            assert np.array_equal(table, [1.0]), params
            continue
        q = CDF_TAIL_MASS / (1.0 - theta)
        y_max = int(dist.isf(q)) + 1 if q < 1.0 else 0
        expected = theta + (1.0 - theta) * dist.cdf(np.arange(y_max + 1))
        assert len(table) == y_max + 1, params
        assert np.array_equal(table, expected), params


def test_logliks(monkeypatch):
    rng = np.random.default_rng(5)
    y = np.concatenate([np.zeros(30, dtype=np.int64), rng.integers(1, 60, 200), [1000, 10**6]])
    w = rng.uniform(0.5, 2.0, y.size)
    zip_draws = [p for p in DRAWS if p.family == "zip"]

    def logliks():
        # the log-likelihood fit_mle_exact reports, at each ZIP parameter draw
        return [_exact_loglik(p, y, w) for p in zip_draws]

    got = logliks()
    called = []

    def logpmf(*args):
        called.append(args)
        return stats.poisson.logpmf(*args)

    monkeypatch.setattr(marginals, "_poisson_logpmf", logpmf)
    assert np.array_equal(got, logliks(), equal_nan=True)
    # the log-likelihood looks the log-pmf up when called, so the patch reaches it
    assert len(called) == len(zip_draws)


def nbinom_logpmf_mpmath(y: int, rate: float, k: float) -> float:
    """The NB log-pmf at mean ``rate`` and dispersion ``k``, to 40 digits."""
    y, rate, k = mpmath.mpf(y), mpmath.mpf(rate), mpmath.mpf(k)
    with mpmath.workdps(40):
        return float(mpmath.loggamma(k + y) - mpmath.loggamma(k) - mpmath.loggamma(y + 1)
                     + k * mpmath.log(k / (k + rate)) + y * mpmath.log(rate / (k + rate)))


def test_nbinom_logpmf_matches_mpmath():
    # not scipy.stats.nbinom.logpmf, which loses up to 4e-7 relative at large dispersion
    counts = np.unique(np.r_[0:12, np.geomspace(12, 1e6, 13).round()]).astype(np.int64)
    worst = 0.0
    for rate in np.geomspace(0.05, 1e4, 9):
        # both sides of the switch of form at k = 1e4
        for k in np.r_[np.geomspace(1e-3, math.exp(20.0), 11), 1e4, 1.0001e4]:
            got = marginals._nbinom_logpmf(counts, rate, k)
            want = np.array([nbinom_logpmf_mpmath(int(y), rate, k) for y in counts])
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-9


def hc2_datasets():
    rng = np.random.default_rng(11)
    for n, shift, scale in [(8, 0.0, 1.0), (40, 0.3, 2.0), (500, 0.05, 0.5), (60, 5.0, 0.01)]:
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[: n // 3]] = 1
        yield rng.normal(0.0, scale, n) + shift * z, z
    z = np.array([1, 1, 1, 0, 0, 0])
    yield np.array([1.0, 1.0, 1.0, 0.0, 0.5, 1.0]), z  # one arm without variance


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.2])
def test_hc2_inference(alpha):
    for y, z in hc2_datasets():
        for df in ("normal", "welch"):
            res = estimate_ols_hc2(y, z, alpha=alpha, df=df)
            t_stat = res.estimate / res.se
            if df == "normal":
                crit = float(stats.norm.ppf(1.0 - alpha / 2.0))
                p = float(2.0 * stats.norm.sf(abs(t_stat)))
            else:
                n1, n0 = res.n_treated, res.n_control
                v1, v0 = float(y[z == 1].var(ddof=1)), float(y[z == 0].var(ddof=1))
                dof = (v1 / n1 + v0 / n0) ** 2 / (
                    (v1 / n1) ** 2 / (n1 - 1) + (v0 / n0) ** 2 / (n0 - 1)
                )
                crit = float(stats.t.ppf(1.0 - alpha / 2.0, dof))
                p = float(2.0 * stats.t.sf(abs(t_stat), dof))
            assert res.ci_low == res.estimate - crit * res.se
            assert res.ci_high == res.estimate + crit * res.se
            assert res.p_value == p


def test_category_gof_p_value():
    histograms = ([700.0, 120.0, 130.0, 50.0], [1000.0, 0.0, 0.0, 0.0], [0.0, 5.0, 5.0, 990.0])
    for params in GRID:
        if params.family != "zip":
            continue  # a ZINB fit saturates the table: no p-value
        fit = FitResult(params, 0.0, True, False, False, 1)
        for observed in histograms:
            observed = np.array(observed)
            expected = category_probs(params) * observed.sum()
            mask = expected > 0
            stat = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
            p = ingest._category_gof(fit, observed)
            assert p == float(stats.chi2.sf(stat, 1)), (params, observed)
