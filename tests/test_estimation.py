"""Tests for the difference-in-means estimator with HC2 robust SEs."""

import numpy as np
import pytest
from scipy import stats

from ctssim.estimation import _mean_var, hc2_from_moments, z_critical

from reference import (
    EstimateResult,
    InferenceUndefinedError,
    estimate_ols_hc2,
    hc2_from_arms,
    reject_null,
)


def hc2_sandwich_oracle(y, z):
    """Full matrix-form HC2 slope SE: (X'X)^-1 X' diag(e^2/(1-h)) X (X'X)^-1."""
    n = len(y)
    x = np.column_stack([np.ones(n), z])
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ x.T @ y
    resid = y - x @ beta
    leverage = np.sum((x @ xtx_inv) * x, axis=1)
    meat = x.T @ (x * (resid**2 / (1.0 - leverage))[:, None])
    cov = xtx_inv @ meat @ xtx_inv
    return float(beta[1]), float(np.sqrt(cov[1, 1]))


def random_dataset(rng, n=50):
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[: n // 2]] = 1
    y = rng.normal(0, 1, n) + 0.4 * z + rng.exponential(1.0, n) * z
    return y, z


class TestEstimate:
    def test_arm_means_difference(self):
        res = estimate_ols_hc2(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1, 1, 0, 0]))
        assert res.estimate == pytest.approx(0.5)
        assert res.n_treated == 2 and res.n_control == 2

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        y, z = random_dataset(rng)
        a = estimate_ols_hc2(y, z)
        b = estimate_ols_hc2(y, 1 - z)
        assert b.estimate == pytest.approx(-a.estimate, abs=1e-14)
        assert b.se == pytest.approx(a.se, abs=1e-14)

    def test_matches_sandwich_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            y, z = random_dataset(rng)
            res = estimate_ols_hc2(y, z)
            slope, se = hc2_sandwich_oracle(y, z)
            assert res.estimate == pytest.approx(slope, abs=1e-10)
            assert res.se == pytest.approx(se, abs=1e-10)

    def test_neyman_identity(self):
        # HC2 for a binary regressor is exactly s1^2/n1 + s0^2/n0
        rng = np.random.default_rng(2)
        for _ in range(50):
            y, z = random_dataset(rng, n=37)
            res = estimate_ols_hc2(y, z)
            y1, y0 = y[z == 1], y[z == 0]
            neyman = np.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
            assert res.se == pytest.approx(neyman, abs=1e-12)

    def test_ci_uses_normal_critical_value(self):
        rng = np.random.default_rng(3)
        y, z = random_dataset(rng)
        res = estimate_ols_hc2(y, z)
        crit = stats.norm.ppf(0.975)
        assert res.ci_high - res.ci_low == pytest.approx(2 * crit * res.se, rel=1e-12)
        assert res.ci_low <= res.estimate <= res.ci_high

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        y, z = random_dataset(rng)
        base = estimate_ols_hc2(y, z)
        shifted = estimate_ols_hc2(y + 7.3, z)
        assert shifted.estimate == pytest.approx(base.estimate, abs=1e-12)
        assert shifted.se == pytest.approx(base.se, abs=1e-12)
        scaled = estimate_ols_hc2(-2.5 * y, z)
        assert scaled.estimate == pytest.approx(-2.5 * base.estimate, abs=1e-12)
        assert scaled.se == pytest.approx(2.5 * base.se, abs=1e-12)

    def test_small_arm_errors(self):
        with pytest.raises(InferenceUndefinedError):
            estimate_ols_hc2(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0]))

    def test_degenerate_zero_variance_null(self):
        res = estimate_ols_hc2(np.ones(6), np.array([1, 1, 1, 0, 0, 0]))
        assert res.degenerate
        assert res.se == 0.0
        assert res.p_value == 1.0

    def test_degenerate_zero_variance_with_effect(self):
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        res = estimate_ols_hc2(y, np.array([1, 1, 1, 0, 0, 0]))
        assert res.degenerate
        assert res.p_value == 0.0
        assert res.estimate == 1.0

    def test_welch_option(self):
        rng = np.random.default_rng(5)
        y, z = random_dataset(rng, n=20)
        normal = estimate_ols_hc2(y, z, df="normal")
        welch = estimate_ols_hc2(y, z, df="welch")
        assert welch.se == pytest.approx(normal.se, abs=1e-14)
        assert welch.p_value > normal.p_value  # t reference is heavier-tailed
        assert welch.ci_high - welch.ci_low > normal.ci_high - normal.ci_low

    def test_estimate_and_se_equal_numpy_moments(self):
        # the shared-mean moments reproduce ndarray.mean and var(ddof=1) bit
        # for bit, on continuous, binary and sum-coded outcomes
        rng = np.random.default_rng(17)
        for n in (4, 7, 301, 1680, 5001):
            z = np.zeros(n, dtype=int)
            z[rng.permutation(n)[: n // 2]] = 1
            for y in (rng.normal(0.3, 2.0, n), (rng.random(n) < 0.2).astype(float),
                      rng.integers(0, 28, n) / 27.0):
                y1, y0 = y[z == 1], y[z == 0]
                res = estimate_ols_hc2(y, z)
                assert res.estimate == float(y1.mean() - y0.mean())
                v1, v0 = float(y1.var(ddof=1)), float(y0.var(ddof=1))
                assert res.se == float(np.sqrt(v1 / len(y1) + v0 / len(y0)))

    def test_rejects_nonbinary_assignment(self):
        with pytest.raises(ValueError):
            estimate_ols_hc2(np.arange(4.0), np.array([0, 1, 2, 1]))


def arm_pairs():
    rng = np.random.default_rng(17)
    for n1, n0 in [(2, 2), (25, 26), (840, 840)]:
        yield rng.normal(0.3, 1.0, n1), rng.normal(0.0, 2.0, n0)
        yield (rng.random(n1) < 0.4).astype(float), (rng.random(n0) < 0.3).astype(float)
    yield np.full(4, 0.5), np.full(3, 0.5)  # se 0, estimate 0: p 1
    yield np.ones(5), np.zeros(5)  # se 0, estimate 1: p 0


class TestMomentsForm:
    """The kernel estimates from each arm's moments; hc2_from_arms, which
    the reference pipeline uses, composes the same two steps."""

    def test_mean_var_is_numpys(self):
        for y1, y0 in arm_pairs():
            for y in (y1, y0):
                mean, var = _mean_var(y)
                assert (mean, var) == (y.mean(), float(y.var(ddof=1)))

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.3])
    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_moments_equal_arms(self, df, alpha):
        zero_se = []
        for y1, y0 in arm_pairs():
            want = hc2_from_arms(y1, y0, alpha, df)
            moments = (*_mean_var(y1), len(y1), *_mean_var(y0), len(y0))
            for z_crit in (None, z_critical(alpha)):
                got = hc2_from_moments(*moments, alpha, df, z_crit)
                assert got == want
                assert all(type(v) is float for v in got)
            zero_se.append(want[1] == 0.0)
        assert zero_se[-2:] == [True, True] and False in zero_se
        assert hc2_from_arms(np.full(4, 0.5), np.full(3, 0.5), alpha, df) == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert hc2_from_arms(np.ones(5), np.zeros(5), alpha, df) == (1.0, 0.0, 1.0, 1.0, 0.0)


class TestRejectNull:
    def make(self, p):
        return EstimateResult(0.1, 0.05, 0.0, 0.2, p, 10, 10)

    def test_below_alpha(self):
        assert reject_null(self.make(0.049), 0.05)

    def test_above_alpha(self):
        assert not reject_null(self.make(0.051), 0.05)

    def test_boundary_is_not_rejected(self):
        assert not reject_null(self.make(0.05), 0.05)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            reject_null(self.make(0.01), 0.0)
        with pytest.raises(ValueError):
            reject_null(self.make(0.01), 1.0)
