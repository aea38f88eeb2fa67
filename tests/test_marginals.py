"""Tests for the single-act zero-inflated distributions and MLE fitting."""

import functools
import itertools
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from scipy import optimize, special
from scipy.optimize._numdiff import _adjust_scheme_to_bounds

from ctssim import marginals
from ctssim.marginals import (
    ZINB,
    ZIP,
    MarginalParams,
    _count,
    _exact_loglik,
    _multinomial_loglik,
    CDF_TABLE_MAX,
    cdf_table,
    cdf_table_size,
    category_masses,
    category_probs,
    censored_loglik,
    fit_mle_censored,
    fit_mle_censored_batch,
    fit_mle_exact,
)

from helpers import zi_mean, zi_sample, zi_variance
from reference import (
    counts_from_uniforms,
    fit_zinb,
    fit_zinb_exact_three_starts,
    zinb_censored_loglik,
)

FIG_PARAMS = MarginalParams("zip", 2.36, 0.84)


def zi_pmf(params, y):
    """The zero-inflated mass at the non-negative integers ``y``."""
    theta = params.zero_prob
    return theta * (np.asarray(y) == 0) + (1.0 - theta) * _count(params, "pmf", y)


def zi_cdf(params, y):
    """P(Y <= y) at the non-negative integers ``y``."""
    return params.zero_prob + (1.0 - params.zero_prob) * _count(params, "cdf", y)


def zi_loglik(params, y, weights=None):
    """The weighted log-likelihood fit_mle_exact maximizes."""
    y = np.asarray(y, dtype=np.int64)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    return _exact_loglik(params, y, w)

PARAM_GRID = [
    MarginalParams("zip", 0.5, 0.2),
    MarginalParams("zip", 2.36, 0.84),
    MarginalParams("zip", 8.0, 0.5),
    MarginalParams("zinb", 2.36, 0.84, dispersion=0.5),
    MarginalParams("zinb", 1.2, 0.3, dispersion=3.0),
    MarginalParams("zinb", 6.0, 0.6, dispersion=0.8),
]


class TestParams:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            MarginalParams("zip", -1.0, 0.5)
        with pytest.raises(ValueError):
            MarginalParams("zip", 1.0, 1.5)
        with pytest.raises(ValueError):
            MarginalParams("zinb", 1.0, 0.5)  # missing dispersion
        with pytest.raises(ValueError):
            MarginalParams("zip", 1.0, 0.5, dispersion=1.0)
        with pytest.raises(ValueError):
            MarginalParams("poisson", 1.0, 0.5)

    @pytest.mark.parametrize("key", ["rate", "zero_prob", "dispersion"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_rejects_bools(self, key, value):
        # a bool would pass as 1 or 0 and be written back as true or false
        fields = {"family": "zinb", "rate": 1.0, "zero_prob": 0.5, "dispersion": 2.0, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be a number, got a bool$"):
            MarginalParams(**fields)

    def test_mean_formula(self):
        assert zi_mean(FIG_PARAMS) == pytest.approx((1 - 0.84) * 2.36)


class TestPmf:
    def test_zero_mass_matches_mixture_formula(self):
        # direct evaluation of the mixture: theta + (1-theta)*exp(-rate)
        expected = 0.84 + 0.16 * math.exp(-2.36)
        assert zi_pmf(FIG_PARAMS, 0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.85510, abs=1e-5)

    def test_degenerate_all_zero(self):
        assert zi_pmf(MarginalParams("zip", 5.0, 1.0), 0) == 1.0

    def test_normalization_fig_params(self):
        total = np.sum(zi_pmf(FIG_PARAMS, np.arange(201)))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_normalization_grid(self, params):
        table = cdf_table(params)
        y_max = len(table) + 20
        total = np.sum(zi_pmf(params, np.arange(y_max)))
        assert 1.0 - 1e-10 < total <= 1.0 + 1e-12

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_table_size_is_the_tables_length(self, params):
        assert cdf_table_size(params) == len(cdf_table(params))

    @pytest.mark.parametrize("params, entries", [
        (MarginalParams("zip", 4.3e6, 0.5), "4.3144e+06"),
        (MarginalParams("zip", 1e11, 0.0), "1.00002e+11"),
        (MarginalParams("zinb", 3.3e6, 1e-9, dispersion=1e-4), "5.15263e+11"),
        (MarginalParams("zip", 1e300, 0.0), None),  # scipy's quantile is NaN there
    ])
    def test_table_past_the_limit_is_refused(self, params, entries):
        # the size is found before any table is built
        if entries is None:
            message = (f"{params} needs a CDF table to tail mass 1e-12 longer than the limit "
                       f"of {CDF_TABLE_MAX}: its tail quantile cannot be computed")
        else:
            message = (f"{params} needs a CDF table of {entries} entries to tail mass 1e-12, "
                       f"more than the limit of {CDF_TABLE_MAX}")
        for call in (cdf_table_size, cdf_table):
            with pytest.raises(ValueError) as info:
                call(params)
            assert str(info.value) == message

    def test_huge_negative_binomial_rates_are_refused_at_once(self):
        # scipy's negative binomial quantile stalls at these rates; the
        # subprocess bounds the wait if it is asked again
        script = (
            "import time, warnings\n"
            "from ctssim.marginals import MarginalParams, cdf_table_size\n"
            "warnings.simplefilter('error')\n"
            "for rate, k in [(1e300, 1e-4), (1e300, 1e8), (1e200, 1.0)]:\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        cdf_table_size(MarginalParams('zinb', rate, 0.0, dispersion=k))\n"
            "    except ValueError as exc:\n"
            "        print(time.perf_counter() - start, exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(marginals.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        refusals = proc.stdout.splitlines()
        assert len(refusals) == 3, proc.stdout
        for refusal in refusals:
            seconds, message = refusal.split(" ", 1)
            assert float(seconds) < 1.0
            assert message.endswith(f"longer than the limit of {CDF_TABLE_MAX}: "
                                    "its tail quantile cannot be computed")

    def test_largest_fitted_poisson_rate_fits_the_limit(self):
        assert cdf_table_size(MarginalParams("zip", math.exp(15.0), 0.0)) < CDF_TABLE_MAX

    def test_zinb_converges_to_zip(self):
        huge = MarginalParams("zinb", 2.36, 0.84, dispersion=1e6)
        y = np.arange(51)
        assert np.max(np.abs(zi_pmf(huge, y) - zi_pmf(FIG_PARAMS, y))) < 1e-6


class TestCdfQuantile:
    """counts_from_uniforms on a cdf_table is the generalized inverse of the
    cdf, capped at the table's last entry."""

    def test_median_is_zero_at_fig_params(self):
        # cdf(0) ~ 0.855 > 0.5, so the generalized inverse at 0.5 is 0
        assert zi_cdf(FIG_PARAMS, 0) > 0.5
        assert counts_from_uniforms(cdf_table(FIG_PARAMS), 0.5) == 0

    def test_quantile_at_zero(self):
        assert counts_from_uniforms(cdf_table(FIG_PARAMS), 0.0) == 0

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_generalized_inverse_round_trip(self, params):
        u = np.linspace(0.01, 0.99, 99)
        q = counts_from_uniforms(cdf_table(params), u)
        assert np.all(zi_cdf(params, q) >= u)
        # minimality: the next-smaller count falls short of u
        positive = q > 0
        assert np.all(zi_cdf(params, q[positive] - 1) < u[positive])

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_quantile_of_cdf_round_trip(self, params):
        y = np.arange(0, 12)
        u = np.minimum(zi_cdf(params, y), 1.0 - 1e-12)
        assert np.all(counts_from_uniforms(cdf_table(params), u) >= y)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_table_agrees_with_quantile(self, params):
        # the smallest y with cdf(y) >= u by direct search, or the table's
        # last count for the u above its last entry
        table = cdf_table(params)
        assert 1.0 - 1e-12 <= table[-1] < 1.0
        u = np.append(np.linspace(0.0, 0.9999, 600), [np.nextafter(table[-1], 1.0), 1.0 - 2**-53])
        hits = zi_cdf(params, np.arange(len(table))) >= u[:, None]
        expected = np.where(hits.any(axis=1), hits.argmax(axis=1), len(table) - 1)
        assert not hits[-2:].any()
        assert np.array_equal(counts_from_uniforms(table, u), expected)


class TestSampling:
    def test_all_zero_when_fully_inflated(self):
        y = zi_sample(MarginalParams("zip", 3.0, 1.0), 100, np.random.default_rng(0))
        assert np.all(y == 0)

    def test_deterministic_given_seed(self):
        a = zi_sample(FIG_PARAMS, 1000, np.random.default_rng(42))
        b = zi_sample(FIG_PARAMS, 1000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_mean_fig_params(self):
        n = 1_000_000
        y = zi_sample(FIG_PARAMS, n, np.random.default_rng(3))
        se = math.sqrt(zi_variance(FIG_PARAMS) / n)
        assert abs(y.mean() - 0.3776) <= 3 * se

    def test_zinb_variance_oracle(self):
        params = MarginalParams("zinb", 2.36, 0.84, dispersion=0.5)
        lam, theta, phi = 2.36, 0.84, 0.5
        expected = (1 - theta) * (lam + lam**2 / phi) + theta * (1 - theta) * lam**2
        assert zi_variance(params) == pytest.approx(expected, rel=1e-12)
        n = 1_000_000
        y = zi_sample(params, n, np.random.default_rng(4)).astype(float)
        s2 = y.var(ddof=1)
        m4 = np.mean((y - y.mean()) ** 4)
        se = math.sqrt(max(m4 - s2**2, 0.0) / n)
        assert abs(s2 - expected) <= 3 * se

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_moments_grid(self, params):
        n = 200_000
        y = zi_sample(params, n, np.random.default_rng(99)).astype(float)
        se_mean = math.sqrt(zi_variance(params) / n)
        assert abs(y.mean() - zi_mean(params)) <= 4 * se_mean
        m4 = np.mean((y - y.mean()) ** 4)
        se_var = math.sqrt(max(m4 - y.var() ** 2, 0.0) / n)
        assert abs(y.var(ddof=1) - zi_variance(params)) <= 4 * se_var


def zip_loglik_oracle(rate, theta, n_zero, n_pos, sum_pos, sum_gammaln):
    """ZIP log-likelihood from sufficient statistics, derived independently."""
    p0 = theta + (1 - theta) * math.exp(-rate)
    out = n_zero * math.log(p0)
    out += n_pos * math.log(1 - theta) if n_pos else 0.0
    out += sum_pos * math.log(rate) - n_pos * rate - sum_gammaln
    return out


class TestFitExact:
    def test_recovery_at_fig_params(self):
        y = zi_sample(FIG_PARAMS, 50_000, np.random.default_rng(12))
        fit = fit_mle_exact(y, "zip")
        assert fit.converged and not fit.degenerate
        assert abs(fit.params.rate - 2.36) <= 0.05
        assert abs(fit.params.zero_prob - 0.84) <= 0.01

    def test_all_zero_degenerate(self):
        fit = fit_mle_exact(np.zeros(50, dtype=int), "zip")
        assert fit.degenerate
        assert fit.params.zero_prob == 1.0
        assert fit.loglik == 0.0

    def test_grid_search_oracle(self):
        y = zi_sample(FIG_PARAMS, 200, np.random.default_rng(5))
        n_zero = int(np.sum(y == 0))
        pos = y[y > 0]
        stats_tuple = (n_zero, len(pos), float(pos.sum()), float(special.gammaln(pos + 1).sum()))
        rates = np.arange(0.5, 5.0, 0.02)
        thetas = np.arange(0.0, 0.995, 0.005)
        best = (-np.inf, None, None)
        for r in rates:
            for t in thetas:
                ll = zip_loglik_oracle(r, t, *stats_tuple)
                if ll > best[0]:
                    best = (ll, r, t)
        fit = fit_mle_exact(y, "zip")
        assert abs(fit.params.rate - best[1]) <= 0.02 + 1e-9
        assert abs(fit.params.zero_prob - best[2]) <= 0.005 + 1e-9
        assert fit.loglik >= best[0] - 1e-6

    def test_loglik_at_fit_beats_truth(self):
        y = zi_sample(FIG_PARAMS, 2000, np.random.default_rng(6))
        fit = fit_mle_exact(y, "zip")
        assert fit.loglik >= zi_loglik(FIG_PARAMS, y) - 1e-9

    @pytest.mark.parametrize(
        "truth",
        [
            MarginalParams("zip", 1.0, 0.3),
            MarginalParams("zip", 2.36, 0.84),
            MarginalParams("zip", 4.0, 0.6),
        ],
    )
    def test_recovery_within_asymptotic_ses(self, truth):
        n = 20_000
        # a fixed per-case seed: hash(truth) includes a string, whose hash
        # Python randomizes per process
        y = zi_sample(truth, n, np.random.default_rng(zlib.crc32(repr(truth).encode())))
        fit = fit_mle_exact(y, "zip")
        se_rate, se_theta = self._observed_information_ses(fit.params, y)
        assert abs(fit.params.rate - truth.rate) <= 3 * se_rate
        assert abs(fit.params.zero_prob - truth.zero_prob) <= 3 * se_theta

    @staticmethod
    def _observed_information_ses(params, y):
        # numeric Hessian of the log-likelihood in (rate, zero_prob)
        x0 = np.array([params.rate, params.zero_prob])
        h = np.array([1e-4 * max(params.rate, 1.0), 1e-5])

        def ll(x):
            return zi_loglik(MarginalParams("zip", x[0], x[1]), y)

        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                shift_i = np.eye(2)[i] * h[i]
                shift_j = np.eye(2)[j] * h[j]
                hess[i, j] = (
                    ll(x0 + shift_i + shift_j)
                    - ll(x0 + shift_i - shift_j)
                    - ll(x0 - shift_i + shift_j)
                    + ll(x0 - shift_i - shift_j)
                ) / (4 * h[i] * h[j])
        cov = np.linalg.inv(-hess)
        return math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])

    def test_zinb_recovery(self):
        truth = MarginalParams("zinb", 2.36, 0.84, dispersion=0.5)
        y = zi_sample(truth, 50_000, np.random.default_rng(13))
        fit = fit_mle_exact(y, "zinb")
        assert not fit.degenerate
        assert abs(fit.params.rate - 2.36) <= 0.2
        assert abs(fit.params.zero_prob - 0.84) <= 0.02
        assert abs(fit.params.dispersion - 0.5) <= 0.1

    def test_zinb_dominates_zip_on_overdispersed_data(self):
        truth = MarginalParams("zinb", 2.0, 0.5, dispersion=0.7)
        y = zi_sample(truth, 3000, np.random.default_rng(14))
        assert fit_mle_exact(y, "zinb").loglik >= fit_mle_exact(y, "zip").loglik - 1e-6

    def test_weight_duplication_equivalence(self):
        y = zi_sample(FIG_PARAMS, 400, np.random.default_rng(15))
        doubled = np.concatenate([y, y])
        weighted = fit_mle_exact(y, "zip", weights=np.full(len(y), 2.0))
        duplicated = fit_mle_exact(doubled, "zip")
        assert weighted.params.rate == pytest.approx(duplicated.params.rate, abs=1e-8)
        assert weighted.params.zero_prob == pytest.approx(duplicated.params.zero_prob, abs=1e-8)
        assert zi_loglik(weighted.params, y, np.full(len(y), 2.0)) == pytest.approx(
            zi_loglik(duplicated.params, doubled), abs=1e-10
        )

    def test_boundary_flag_for_sparse_positives(self):
        y = np.zeros(1000, dtype=int)
        y[:3] = [1, 2, 1]
        fit = fit_mle_exact(y, "zip")
        assert fit.boundary_flag

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_largest_int64_count_has_a_finite_loglik(self, family):
        # the log-likelihood takes gammaln(y + 1), which must not wrap to a negative count
        y = np.array([0, 0, 1, 2, 3, 2**63 - 1], dtype=np.int64)
        fit = fit_mle_exact(y, family)
        assert math.isfinite(fit.loglik)


class TestFitCensored:
    @staticmethod
    def categorize_counts(y):
        return np.digitize(y, [1, 2, 5])

    def test_censor_then_refit_recovers(self):
        y = zi_sample(FIG_PARAMS, 50_000, np.random.default_rng(16))
        hist = np.bincount(self.categorize_counts(y), minlength=4).astype(float)
        fit = fit_mle_censored(hist, "zip")
        assert fit.converged
        assert abs(fit.params.rate - 2.36) <= 0.1
        assert abs(fit.params.zero_prob - 0.84) <= 0.01

    def test_converged_when_best_start_ends_abnormally(self):
        # On this survey column, the start that reaches the lowest objective
        # ends in an abnormal line search at the optimum, while two other
        # starts converge to within 1e-13 relative of it.
        from ctssim.datasets import build_example_survey
        column = build_example_survey(8000, 2148111748).values[:, 1]
        hist = np.bincount(column, minlength=4).astype(float)
        fit = fit_mle_censored(hist, "zinb")
        assert fit.converged
        # the model is saturated, so the optimum reproduces the frequencies
        assert np.max(np.abs(category_probs(fit.params) - hist / hist.sum())) < 1e-6

    @pytest.mark.parametrize("hist", [
        # ZINB ends inside its bounds with masses 0.078 off the frequencies
        [700.0, 300.0, 0.0, 0.0],
        # ZINB's rate ends on its bound e^15, and with only category 3, its dispersion on e^20
        [700.0, 0.0, 0.0, 300.0], [0.0, 0.0, 0.0, 300.0],
    ])
    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_no_interior_maximum_is_on_the_boundary(self, hist, family):
        assert fit_mle_censored(hist, family).boundary_flag

    def test_bundled_survey_zinb_fits_are_interior(self):
        from ctssim.datasets import example_survey_paths
        from ctssim.ingest import fit_model, read_survey
        _, report = fit_model(read_survey(*example_survey_paths()), "zinb")
        assert not any(act.fit.boundary_flag for act in report.per_act)

    def test_all_mass_in_zero_is_degenerate(self):
        fit = fit_mle_censored([120.0, 0.0, 0.0, 0.0], "zip")
        assert fit.degenerate
        assert fit.params.zero_prob == 1.0

    def test_fit_beats_generating_parameters(self):
        y = zi_sample(FIG_PARAMS, 5000, np.random.default_rng(17))
        hist = np.bincount(self.categorize_counts(y), minlength=4).astype(float)
        fit = fit_mle_censored(hist, "zip")
        assert fit.loglik >= censored_loglik(FIG_PARAMS, hist) - 1e-9

    def test_interval_probabilities_match_pmf_sums(self):
        p = category_probs(FIG_PARAMS)
        y = np.arange(0, 400)
        pmf = zi_pmf(FIG_PARAMS, y)
        cats = self.categorize_counts(y)
        for c in range(4):
            assert p[c] == pytest.approx(pmf[cats == c].sum(), abs=1e-10)

    def test_zinb_censored_recovery(self):
        truth = MarginalParams("zinb", 2.36, 0.84, dispersion=1.2)
        y = zi_sample(truth, 50_000, np.random.default_rng(18))
        hist = np.bincount(self.categorize_counts(y), minlength=4).astype(float)
        fit = fit_mle_censored(hist, "zinb")
        assert abs(fit.params.zero_prob - 0.84) <= 0.02
        assert abs(fit.params.rate - 2.36) <= 0.35

    def test_bad_histogram_errors(self):
        with pytest.raises(ValueError):
            fit_mle_censored([1.0, 2.0], "zip")
        with pytest.raises(ValueError):
            fit_mle_censored([0.0, 0.0, 0.0, 0.0], "zip")
        with pytest.raises(ValueError):
            fit_mle_censored([-1.0, 2.0, 1.0, 0.0], "zip")

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    @pytest.mark.parametrize("bad", [[np.nan, 1.0, 2.0, 3.0], [1.0, np.nan, 2.0, 3.0],
                                     [np.inf, 1.0, 2.0, 3.0], [10.0, 1.0, 2.0, np.inf]])
    def test_non_finite_histogram_errors(self, family, bad):
        with pytest.raises(ValueError, match="category counts must be finite"):
            fit_mle_censored(bad, family)
        with pytest.raises(ValueError, match="category counts must be finite"):  # a batch refuses it before any fit
            fit_mle_censored_batch([[50.0, 10.0, 5.0, 2.0], bad, [40.0, 8.0, 6.0, 1.0]], family)


class TestLoglik:
    def test_matches_pointwise_pmf_log(self):
        y = zi_sample(FIG_PARAMS, 500, np.random.default_rng(19))
        direct = float(np.sum(np.log(zi_pmf(FIG_PARAMS, y))))
        assert zi_loglik(FIG_PARAMS, y) == pytest.approx(direct, abs=1e-8)

    def test_zinb_matches_pointwise(self):
        params = MarginalParams("zinb", 1.5, 0.4, dispersion=0.8)
        y = zi_sample(params, 500, np.random.default_rng(20))
        direct = float(np.sum(np.log(zi_pmf(params, y))))
        assert zi_loglik(params, y) == pytest.approx(direct, abs=1e-8)


# (rate, dispersion, zero_prob) over and past the ZINB fits' bounds
ZINB_GRID = [
    (float(rate), float(disp), theta)
    for rate, disp, theta in itertools.product(
        np.logspace(-4, 4, 17), np.logspace(-3, 8, 23), (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0)
    )
]
HISTOGRAMS = [np.array([5000.0, 1000.0, 1500.0, 500.0]), np.array([0.0, 3.0, 0.0, 7.5])]


def zinb_objective(n, rate, disp, theta):
    """The ZINB fit's objective at arrays of points, as ``fit_mle_censored``
    evaluates it: the category masses at every point at once."""
    return _multinomial_loglik(category_masses(ZINB, rate, theta, disp), n)


class TestZinbCensoredObjective:
    """The ZINB fit's objective equals ``censored_loglik`` of the margin it
    stands for (``reference.zinb_censored_loglik``) bit for bit."""

    @staticmethod
    def assert_matches_reference():
        # the grid in batches of 4 points, the last one filled with its first point
        for batch in np.array(ZINB_GRID + ZINB_GRID[:1]).reshape(-1, 4, 3):
            rate, disp, theta = batch.T
            for n in HISTOGRAMS:
                got = zinb_objective(n, rate, disp, theta)
                expected = [zinb_censored_loglik(n, *point) for point in batch.tolist()]
                assert got.tolist() == expected, (batch, n)
                one_row = [zinb_objective(n, *point[:, None]) for point in batch]
                assert np.array_equal(got, np.concatenate(one_row)), (batch, n)

    def test_grid(self):
        floored = [
            np.any(category_probs(MarginalParams(ZINB, rate, theta, disp)) < 1e-300)
            for rate, disp, theta in ZINB_GRID
        ]
        assert any(floored) and not all(floored)  # the grid reaches the 1e-300 floor
        self.assert_matches_reference()

    def test_grid_where_the_clip_acts(self, monkeypatch):
        # scipy's ufuncs stay in [0, 1] at valid parameters; stretched copies
        # leave it on both sides, so the clip to [0, 1] changes values
        def stretched(ufunc):
            return lambda y, n, p: 1.5 * ufunc(y, n, p) - 0.25

        pmf, sf = stretched(marginals._nbinom_pmf), stretched(marginals._nbinom_sf)
        raw = np.array([
            [*pmf(np.array([0.0, 1.0]), disp, disp / (disp + rate)),
             *sf(np.array([1.0, 4.0]), disp, disp / (disp + rate))]
            for rate, disp, _ in ZINB_GRID
        ])
        assert np.any(raw < 0.0) and np.any(raw > 1.0)
        monkeypatch.setattr(marginals, "_nbinom_sf", sf)
        monkeypatch.setitem(marginals._COUNT_UFUNCS, (ZINB, "pmf"), pmf)
        self.assert_matches_reference()


@functools.cache
def _survey_histograms():
    """The act histograms of build_example_survey(8000, seed) for seeds 1-30,
    20260801 and 4242: 320 histograms."""
    from ctssim.datasets import build_example_survey
    from ctssim.ingest import _category_hist

    hists = []
    for seed in [*range(1, 31), 20260801, 4242]:
        values = build_example_survey(8000, seed).values
        hists += [_category_hist(values[:, j], None) for j in range(values.shape[1])]
    return tuple(hists)


@functools.cache
def _sparse_histograms(count=300):
    """Seeded small histograms with empty categories, some of whose ZINB fits
    end on the upper bound of the log rate or the log dispersion."""
    rng = np.random.default_rng(16)
    hists = []
    while len(hists) < count:
        n = (rng.integers(0, 40, 4) * (rng.random(4) < 0.8)).astype(float)
        n[0] += rng.integers(0, 200)
        if n[1:].sum() > 0:
            hists.append(n)
    return tuple(hists)


class TestZinbFitMatchesReference:
    """Censored ZINB fits run every start of every histogram through one
    ``_lbfgsb_lockstep`` call, evaluate the objective over 4 points per
    waiting run and form the finite-difference gradient themselves.  Their
    results equal ``reference.fit_zinb``'s, per histogram a scalar objective
    under scipy's ``minimize`` with scipy's own ``approx_derivative``, in
    every field: the same starts, paths and iteration counts."""

    @staticmethod
    def reference_fits(monkeypatch, hists):
        """``fit_mle_censored`` of each histogram, its L-BFGS-B runs those of
        ``reference.fit_zinb``."""

        def on_boundary(n, params) -> bool:  # FitResult's censored ZINB rule, from the parameters
            ends = [(params.rate, math.exp), (params.dispersion, math.exp),
                    (params.zero_prob, lambda x: 1.0 / (1.0 + math.exp(-x)))]
            on_bound = any(end in (f(lo), f(hi)) for (end, f), (lo, hi) in zip(ends, marginals._ZINB_BOUNDS))
            return on_bound or np.max(np.abs(category_probs(params) - n / n.sum())) > 1e-6

        def fit_each(live):
            fits = (fit_zinb(functools.partial(zinb_censored_loglik, n), marginals._zinb_starts(n))
                    for n in live)
            return [(params, loglik, converged, on_boundary(n, params), n_iter)
                    for n, (params, loglik, converged, n_iter) in zip(live, fits)]

        with monkeypatch.context() as patch:
            patch.setattr(marginals, "_fit_zinb", fit_each)
            return [fit_mle_censored(n, ZINB) for n in hists]

    @pytest.mark.parametrize("source", ["survey", "sparse"])
    def test_censored(self, monkeypatch, source):
        hists = _survey_histograms() if source == "survey" else _sparse_histograms()
        fits = fit_mle_censored_batch(hists, ZINB)
        for n, fit, expected in zip(hists, fits, self.reference_fits(monkeypatch, hists)):
            assert fit == expected, n
        on_upper = np.array([[fit.params.rate == math.exp(15.0),
                              fit.params.dispersion == math.exp(20.0)] for fit in fits])
        if source == "sparse":  # fits that end where the step flips
            assert on_upper.any(axis=0).all()

    def test_step_flips_where_scipy_flips(self):
        lower, upper = np.array(marginals._ZINB_BOUNDS).T
        inside = (lower + upper) / 2.0
        for i in range(3):
            for xi, flipped in [(upper[i], True), (upper[i] - 1e-9, True), (upper[i] - 1e-7, False),
                                (lower[i], False)]:
                x = inside.copy()
                x[i] = xi
                expected, _ = _adjust_scheme_to_bounds(x, np.full(3, 1e-8), 1, "1-sided", lower, upper)
                assert np.array_equal(marginals._fd_step(x), expected), x
                assert (expected[i] < 0) == flipped


def _minimize(fun_and_grad, start, bounds, row=0):
    """scipy's ``minimize`` on run ``row`` of a ``_lbfgsb_lockstep`` objective
    alone, one point per call, with the fits' options."""

    def one_point(x):
        f, g = fun_and_grad(x[None, :], np.array([row]))
        return f[0], g[0]

    options = {"ftol": 1e-12, "gtol": 1e-10, "maxiter": marginals._LBFGS_MAXITER}
    return optimize.minimize(one_point, start, jac=True, method="L-BFGS-B", bounds=bounds,
                             options=options)


def assert_runs_match(runs, expected):
    assert len(runs) == len(expected)
    for i, (run, res) in enumerate(zip(runs, expected)):
        assert np.array_equal(run.x, res.x), i
        assert (run.fun, run.nit, run.nfev, run.success) == (res.fun, res.nit, res.nfev,
                                                             res.success), i


class TestLbfgsbLockstep:
    """``_lbfgsb_lockstep`` runs every start as scipy's ``minimize`` runs it
    alone: x, fun, nit, nfev and success equal bit for bit."""

    def test_every_histogram_in_one_batch(self):
        hists = _survey_histograms() + _sparse_histograms()
        x0 = [x for n in hists for x in marginals._zinb_starts(n)]
        fun_and_grad = marginals._zinb_fun_and_grad(np.repeat(hists, 3, axis=0))
        runs = marginals._lbfgsb_lockstep(fun_and_grad, x0, marginals._ZINB_BOUNDS)
        expected = [_minimize(fun_and_grad, x, marginals._ZINB_BOUNDS, row)
                    for row, x in enumerate(x0)]
        assert_runs_match(runs, expected)
        # the runs end at many different rounds, some short of CONVERGENCE
        assert len({run.nfev for run in runs}) > 20
        assert {run.success for run in runs} == {False, True}

    @pytest.mark.parametrize("maxiter", [500, 3])
    def test_starts_outside_the_bounds(self, monkeypatch, maxiter):
        # Rosenbrock's function with its analytic gradient, in a box without its minimum
        bounds = [(-2.0, 0.5), (-1.0, 2.0), (0.0, 3.0)]
        x0 = [[-5.0, 0.0, 1.0], [0.3, 4.0, -1.0], [0.0, 0.0, 0.0], [-1.2, 1.0, 1.0]]
        lower, upper = np.array(bounds).T
        assert sum(np.any(np.clip(x, lower, upper) != x) for x in x0) == 2

        def fun_and_grad(x, rows):
            return [optimize.rosen(p) for p in x], [optimize.rosen_der(p) for p in x]

        monkeypatch.setattr(marginals, "_LBFGS_MAXITER", maxiter)
        runs = marginals._lbfgsb_lockstep(fun_and_grad, x0, bounds)
        assert_runs_match(runs, [_minimize(fun_and_grad, x, bounds) for x in x0])
        if maxiter == 3:
            assert all(run.nit == 3 and not run.success for run in runs)
        else:  # runs that converge, on the bound that cuts the minimum off
            assert all(run.success and run.x[0] == 0.5 for run in runs)

    def test_a_histogram_alone_equals_it_in_a_batch(self):
        hists = list(_survey_histograms() + _sparse_histograms())
        hists.insert(7, np.array([120.0, 0.0, 0.0, 0.0]))  # degenerate: no L-BFGS-B runs
        batch = fit_mle_censored_batch(hists, ZINB)
        assert batch == [fit_mle_censored(n, ZINB) for n in hists]
        assert [fit.degenerate for fit in batch].count(True) == 1 and batch[7].degenerate

    def test_zip_batch_equals_one_fit_per_histogram(self):
        hists = list(_survey_histograms())
        hists.insert(3, np.array([120.0, 0.0, 0.0, 0.0]))
        assert fit_mle_censored_batch(hists, ZIP) == [fit_mle_censored(n, ZIP) for n in hists]


def _em_loglik(y):
    """Log-likelihood at the EM estimate that fit_mle_exact used for ZIP
    before zero_prob was profiled out (same start and stopping rule)."""
    zero = y == 0
    rate = max(float(y[~zero].mean()), 1e-3)
    g0 = math.exp(-rate)
    theta = min(max((zero.mean() - g0) / (1.0 - g0), 1e-6), 1.0 - 1e-6)
    ll_prev = zi_loglik(MarginalParams("zip", rate, theta), y)
    for _ in range(500):
        struct = zero.sum() * theta / (theta + (1.0 - theta) * math.exp(-rate))
        theta, rate = struct / len(y), y.sum() / (len(y) - struct)
        ll = zi_loglik(MarginalParams("zip", rate, theta), y)
        if ll - ll_prev < 1e-8:
            return ll
        ll_prev = ll
    return ll_prev


def _lbfgs_loglik(hist):
    """Log-likelihood at the two-start L-BFGS-B estimate that
    fit_mle_censored used for ZIP before zero_prob was profiled out."""
    rate0 = max(float(hist @ [0.0, 1.0, 3.0, 7.0] / hist[1:].sum()), 1e-3)
    g0 = math.exp(-rate0)
    theta0 = min(max((hist[0] / hist.sum() - g0) / (1.0 - g0), 1e-6), 1.0 - 1e-6)

    def nll(x):
        return -censored_loglik(MarginalParams("zip", math.exp(x[0]), special.expit(x[1])), hist)

    runs = [
        optimize.minimize(nll, [math.log(r), special.logit(theta0)], method="L-BFGS-B",
                          bounds=[(-10.0, 15.0), (-30.0, 30.0)],
                          options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": 500})
        for r in (rate0, 2.0 * rate0)
    ]
    return -min(run.fun for run in runs)


def _example_counts(seed):
    from ctssim.datasets import example_model
    from ctssim.joint import sample_joint

    return sample_joint(example_model(), 8000, np.random.default_rng(seed))


class TestProfiledZip:
    """ZIP fits profile zero_prob out: q = P(Y > 0) is the positive share in
    closed form, and the rate is one root."""

    @pytest.mark.parametrize("seed", [20260801, 1, 2, 3, 4, 5])
    def test_at_least_the_replaced_optimizers_on_example_surveys(self, seed):
        from ctssim.coding import categorize
        from ctssim.datasets import EXAMPLE_SEED, build_example_survey

        counts = _example_counts(seed)
        cats = categorize(counts)
        if seed == EXAMPLE_SEED:  # the counts behind the bundled survey
            assert np.array_equal(cats, build_example_survey().values)
        for j in range(counts.shape[1]):
            y = counts[:, j]
            hist = np.bincount(cats[:, j], minlength=4).astype(float)
            exact, censored = fit_mle_exact(y, "zip"), fit_mle_censored(hist, "zip")
            assert exact.loglik >= _em_loglik(y) - 1e-9
            assert censored.loglik >= _lbfgs_loglik(hist) - 1e-9
            q = np.mean(y > 0)
            for fit in (exact, censored):
                assert fit.converged and not fit.boundary_flag and fit.params.zero_prob > 0
                rate, theta = fit.params.rate, fit.params.zero_prob
                assert (1.0 - theta) * -math.expm1(-rate) == pytest.approx(q, abs=1e-12)

    def test_bundled_survey(self):
        from ctssim.datasets import example_survey_paths
        from ctssim.ingest import read_survey

        table = read_survey(*example_survey_paths())
        for j in range(table.n_acts):
            hist = np.bincount(table.values[:, j], minlength=4).astype(float)
            fit = fit_mle_censored(hist, "zip")
            assert fit.loglik >= _lbfgs_loglik(hist) - 1e-9
            q = 1.0 - hist[0] / hist.sum()
            assert (1.0 - fit.params.zero_prob) * -math.expm1(-fit.params.rate) == pytest.approx(
                q, abs=1e-12
            )

    def test_exact_rate_solves_truncated_mean_equation(self):
        y = zi_sample(FIG_PARAMS, 5000, np.random.default_rng(21))
        rate = fit_mle_exact(y, "zip").params.rate
        mean_pos = y[y > 0].mean()
        assert rate == pytest.approx(mean_pos * -math.expm1(-rate), rel=1e-13)

    def test_zero_share_below_poisson_zero_is_clipped_to_poisson(self):
        # a Poisson(1.5) histogram with half its zeros removed
        hist = 1000.0 * category_probs(MarginalParams("zip", 1.5, 0.0))
        hist[0] *= 0.5
        fit = fit_mle_censored(hist, "zip")
        assert fit.params.zero_prob == 0.0
        assert fit.boundary_flag and fit.converged
        best = optimize.minimize_scalar(
            lambda r: -censored_loglik(MarginalParams("zip", r, 0.0), hist),
            bounds=(0.5, 5.0), method="bounded", options={"xatol": 1e-10},
        )
        assert fit.params.rate == pytest.approx(best.x, abs=1e-6)
        assert fit.loglik >= -best.fun - 1e-9
        assert fit.loglik >= _lbfgs_loglik(hist) - 1e-9

    def test_all_positive_mass_in_category_one(self):
        fit = fit_mle_censored([100.0, 40.0, 0.0, 0.0], "zip")
        assert fit.boundary_flag and fit.converged and not fit.degenerate
        # the Poisson maximum of n0 log e^-lam + n1 log(lam e^-lam)
        assert fit.params.rate == pytest.approx(40.0 / 140.0, rel=1e-15)
        assert fit.params.zero_prob == 0.0

    def test_exact_positives_all_one(self):
        y = np.array([0] * 10 + [1] * 5)
        fit = fit_mle_exact(y, "zip")
        assert fit.boundary_flag and fit.converged and not fit.degenerate
        assert math.isfinite(fit.params.rate)
        assert fit.params.rate == pytest.approx(y.mean(), rel=1e-15)
        assert fit.params.zero_prob == 0.0
        assert fit.loglik >= _em_loglik(y) - 1e-9

    def test_positives_only_in_open_category_end_at_the_rate_cap(self):
        # no finite maximum: the likelihood rises with the rate forever
        fit = fit_mle_censored([50.0, 0.0, 0.0, 100.0], "zip")
        assert not fit.converged and fit.boundary_flag
        assert fit.params.rate == pytest.approx(math.exp(15.0))
        assert fit.params.zero_prob == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("hist", [[10.0, 1.0, 1.0, 1e-9], [0.0, 3.0, 2.0, 1.0], [5.0, 1e-9, 4.0, 0.0]])
    def test_sparse_histograms_finite(self, hist):
        fit = fit_mle_censored(hist, "zip")
        assert fit.converged and math.isfinite(fit.params.rate) and math.isfinite(fit.loglik)
        assert fit.loglik >= _lbfgs_loglik(np.asarray(hist)) - 1e-9


def _exact_zinb_cases(source):
    """(counts, weights or None) for the exact ZINB fit: the samples that
    pinned the replaced three-start fit, with three further families, or the
    10 acts of the example model's 8000-row counts survey at seed ``source``."""
    if source != "samples":
        counts = _example_counts(source)
        return [(counts[:, j], None) for j in range(counts.shape[1])]
    rng = np.random.default_rng(17)
    further = [MarginalParams(ZINB, 12.0, 0.2, dispersion=0.8),
               MarginalParams(ZINB, 0.8, 0.0, dispersion=2.0),
               MarginalParams(ZINB, 30.0, 0.6, dispersion=5.0)]
    cases = [
        (zi_sample(params, size, rng), weighted)
        for params in PARAM_GRID[3:] + [MarginalParams(ZINB, 0.4, 0.5, dispersion=50.0)] + further
        for size in (40, 400)
        for weighted in (False, True)
    ]
    cases.append((np.array([0] * 20 + [1] * 12 + [2] * 3), False))  # under-dispersed positives
    return [(y, rng.uniform(0.5, 2.0, y.size) if weighted else None) for y, weighted in cases]


class TestProfiledZinb:
    """Exact-count ZINB fits profile zero_prob out as ZIP's do: q = P(Y > 0)
    is the positive share, and (rate, dispersion) maximize the zero-truncated
    likelihood of the positives in one L-BFGS-B run."""

    @pytest.mark.parametrize("source", ["samples", 0, 1, 2, 3])
    def test_at_least_the_replaced_optimizer(self, source):
        for y, weights in _exact_zinb_cases(source):
            fit = fit_mle_exact(y, ZINB, weights)
            w = np.ones(y.size) if weights is None else weights
            # both fits scored by the one log-likelihood
            replaced = zi_loglik(fit_zinb_exact_three_starts(y, w)[0], y, w)
            assert fit.loglik >= replaced - 1e-9 * abs(replaced), (y, weights)
            assert fit.loglik == pytest.approx(zi_loglik(fit.params, y, w), rel=1e-12)
            if source != "samples":
                assert fit.converged and not fit.boundary_flag

    def test_interior_fit_reproduces_the_positive_share(self):
        y = _example_counts(0)[:, 0]
        p = fit_mle_exact(y, ZINB).params
        g0 = (p.dispersion / (p.dispersion + p.rate)) ** p.dispersion
        assert (1.0 - p.zero_prob) * (1.0 - g0) == pytest.approx(np.mean(y > 0), abs=1e-12)

    @pytest.mark.parametrize("y", [
        np.array([0] * 20 + [1] * 12 + [2] * 3),
        zi_sample(MarginalParams(ZINB, 0.4, 0.5, dispersion=50.0), 40, np.random.default_rng(17)),
        np.array([0] * 10 + [1] * 5),  # no truncated Poisson root: rate 0
    ])
    def test_positives_not_over_dispersed_take_the_zip_fit(self, y):
        fit, zip_fit = fit_mle_exact(y, ZINB), fit_mle_exact(y, "zip")
        assert fit.params == MarginalParams(ZINB, zip_fit.params.rate, zip_fit.params.zero_prob,
                                            math.exp(20.0))
        assert fit.converged and fit.boundary_flag
        assert fit.n_iter == zip_fit.n_iter
        # a negative binomial at dispersion e^20 is a Poisson to about 1e-8
        assert fit.loglik == pytest.approx(zip_fit.loglik, rel=1e-6)

    def test_rule_is_the_sign_of_the_dispersion_score(self):
        # the derivative in 1 / dispersion at 0 of the zero-truncated log-likelihood
        # of the positives, at the zero-truncated Poisson rate lam
        rng = np.random.default_rng(8)
        signs = set()
        for _ in range(100):
            pos = rng.choice([1, 2, 3, 4, 6], size=rng.integers(5, 30), p=rng.dirichlet(np.ones(5)))
            ybar, ones = pos.mean(), np.ones(pos.size)
            if ybar == 1.0:
                continue
            lam = optimize.brentq(lambda r: ybar * -math.expm1(-r) - r, 1e-9, ybar)
            truncated_poisson = _exact_loglik(MarginalParams("zip", lam, 0.0), pos, ones) - (
                pos.size * math.log(-math.expm1(-lam)))
            k = 1e5
            g0 = (k / (k + lam)) ** k
            truncated_nb = _exact_loglik(MarginalParams(ZINB, lam, 0.0, k), pos, ones) - (
                pos.size * math.log1p(-g0))
            score = (truncated_nb - truncated_poisson) * k
            if abs(score) < 0.1:
                continue
            y = np.concatenate([np.zeros(20, dtype=np.int64), pos])
            over_dispersed = fit_mle_exact(y, ZINB).params.dispersion < math.exp(20.0)
            assert over_dispersed == (score > 0), (pos, score)
            signs.add(over_dispersed)
        assert signs == {False, True}

    def test_negative_zero_prob_fits_the_plain_nb(self):
        # an NB(2, 1) sample with most of its zeros removed
        truth = MarginalParams(ZINB, 2.0, 0.0, dispersion=1.0)
        y = zi_sample(truth, 2000, np.random.default_rng(3))
        y = np.concatenate([y[y > 0], y[y == 0][:50]])
        fit = fit_mle_exact(y, ZINB)
        assert fit.params.zero_prob == 0.0 and fit.boundary_flag and fit.converged
        # the plain NB's rate estimate is the sample mean
        assert fit.params.rate == pytest.approx(y.mean(), rel=1e-6)
        _, replaced, _, _ = fit_zinb_exact_three_starts(y, np.ones(y.size))
        assert fit.loglik >= replaced - 1e-9 * abs(replaced)

    @pytest.mark.parametrize("weights", [None, np.linspace(0.5, 2.0, 40)])
    def test_negative_zero_prob_without_over_dispersion_is_the_poisson_fit(self, weights):
        # 40 draws of ZINB(0.8, 0, 2): the positives are over-dispersed
        # against the truncated Poisson, all the counts are not (variance
        # below the mean), so the plain NB's optimum is the Poisson limit
        y = np.repeat([0, 1, 2, 3], [17, 19, 2, 2])
        w = np.ones(y.size) if weights is None else weights
        mean = float(w @ y) / float(np.sum(w))
        assert float(w @ (y - mean) ** 2) < float(w @ y)
        fit = fit_mle_exact(y, ZINB, weights)
        assert fit.params.rate == pytest.approx(mean, rel=1e-15)
        assert (fit.params.zero_prob, fit.params.dispersion) == (0.0, math.exp(20.0))
        assert fit.converged and fit.boundary_flag
        # a negative binomial at dispersion e^20 is a Poisson to about 1e-8
        poisson = _exact_loglik(MarginalParams("zip", mean, 0.0), y, w)
        assert fit.loglik == pytest.approx(poisson, rel=1e-6)


def _example_act_counts(seeds):
    """The act columns of example_model() draws of 8000 rows, per seed."""
    from ctssim.datasets import example_model
    from ctssim.joint import sample_joint

    return [y for seed in seeds
            for y in sample_joint(example_model(), 8000, np.random.default_rng(seed)).T]


class TestExactConverged:
    """An exact ZINB fit whose L-BFGS-B run ends short of CONVERGENCE is
    converged still where its projected gradient is within
    _EXACT_PGTOL_PER_WEIGHT per unit of weight; a negative tolerance leaves
    L-BFGS-B's own ``success`` alone to decide."""

    def test_an_abnormal_end_at_the_optimum_is_converged(self, monkeypatch):
        y = _example_act_counts([2])[6]
        logpmf = marginals._nbinom_logpmf
        # the NB log-pmf one ulp off in relative terms: the objective's
        # rounding noise moves, and the line search ends abnormally
        monkeypatch.setattr(marginals, "_nbinom_logpmf",
                            lambda *args: logpmf(*args) * np.nextafter(1.0, 2.0))
        fit = fit_mle_exact(y, ZINB)
        monkeypatch.setattr(marginals, "_EXACT_PGTOL_PER_WEIGHT", -1.0)
        by_success = fit_mle_exact(y, ZINB)
        assert fit.converged and not by_success.converged
        assert (fit.params, fit.loglik, fit.n_iter) == (by_success.params, by_success.loglik,
                                                        by_success.n_iter)

    def test_no_successful_fit_stops_converging(self, monkeypatch):
        cases = [(y, None) for y in _example_act_counts(range(1, 7))]
        cases += [case for source in ("samples", 0, 1) for case in _exact_zinb_cases(source)]
        fits = [fit_mle_exact(y, ZINB, w) for y, w in cases]
        monkeypatch.setattr(marginals, "_EXACT_PGTOL_PER_WEIGHT", -1.0)
        by_success = [fit_mle_exact(y, ZINB, w) for y, w in cases]
        for fit, old in zip(fits, by_success):
            assert fit.converged or not old.converged
            assert (fit.params, fit.loglik, fit.n_iter) == (old.params, old.loglik, old.n_iter)
        # seed 5's first act ends abnormally at its optimum
        assert sum(fit.converged for fit in fits) > sum(fit.converged for fit in by_success)
