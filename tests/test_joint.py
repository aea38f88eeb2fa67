"""Tests for the multi-act copula model and PSD projection."""

import math

import numpy as np
import pytest
from scipy import stats

from ctssim.ingest import SurveyTable, latent_correlation_matrix
from ctssim.joint import ActSpec, MultiActModel, nearest_psd, sample_joint
from ctssim.marginals import MarginalParams, category_probs

from helpers import zi_sample

FIG_MARGIN = MarginalParams("zip", 2.36, 0.84)


def make_acts(k, category="physical"):
    return tuple(ActSpec(i + 1, f"act {i + 1}", category, "severe") for i in range(k))


def pair_model(rho, margin=FIG_MARGIN):
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    return MultiActModel(make_acts(2), (margin, margin), sigma)


class TestMarginTables:
    def test_margin_needing_a_huge_table_names_its_act(self):
        margins = (FIG_MARGIN, MarginalParams("zinb", 1e7, 0.5, dispersion=0.5))
        with pytest.raises(ValueError, match=r"^act 2 \('act 2'\): MarginalParams\(family='zinb', "
                                             r"rate=10000000\.0.* more than the limit of 4194304$"):
            MultiActModel(make_acts(2), margins, np.eye(2))


class TestActSpec:
    def test_rejects_bad_category(self):
        with pytest.raises(ValueError):
            ActSpec(1, "x", "financial", "severe")

    @pytest.mark.parametrize("index", [True, np.True_])
    def test_rejects_bool_index(self, index):
        # True == 1 would pass the index checks and be written back as true
        with pytest.raises(ValueError, match=r"act index must be an integer >= 1, got (np\.)?True"):
            ActSpec(index, "x", "physical", "severe")
        doc = pair_model(0.3).to_dict()
        doc["acts"][0]["index"] = index
        with pytest.raises(ValueError, match="act index must be an integer >= 1"):
            MultiActModel.from_dict(doc)

    def test_indices_must_be_contiguous(self):
        acts = (ActSpec(1, "a", "physical", "severe"), ActSpec(3, "b", "physical", "severe"))
        with pytest.raises(ValueError):
            MultiActModel(acts, (FIG_MARGIN, FIG_MARGIN), np.eye(2))


class TestModelValidation:
    def test_margin_length_mismatch(self):
        with pytest.raises(ValueError, match="margins"):
            MultiActModel(make_acts(2), (FIG_MARGIN,), np.eye(2))

    def test_non_symmetric_sigma(self):
        sigma = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MultiActModel(make_acts(2), (FIG_MARGIN, FIG_MARGIN), sigma)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_sigma(self, value):
        # eigvalsh gives NaN here, which no eigenvalue bound catches
        sigma = np.array([[1.0, value], [value, 1.0]])
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            MultiActModel(make_acts(2), (FIG_MARGIN, FIG_MARGIN), sigma)

    def test_non_unit_diagonal(self):
        sigma = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            MultiActModel(make_acts(2), (FIG_MARGIN, FIG_MARGIN), sigma)

    def test_non_psd_error_names_eigenvalue(self):
        sigma = np.array([[1.0, 0.0, 0.99], [0.0, 1.0, -0.99], [0.99, -0.99, 1.0]])
        min_eig = np.linalg.eigvalsh(sigma)[0]
        assert min_eig < -1e-10
        with pytest.raises(ValueError, match=f"{min_eig:.6g}"):
            MultiActModel(make_acts(3), (FIG_MARGIN,) * 3, sigma)


class TestNearestPsd:
    def test_identity_unchanged(self):
        assert np.array_equal(nearest_psd(np.eye(4)), np.eye(4))

    def test_overcorrelated_pair_clipped(self):
        out = nearest_psd(np.array([[1.0, 1.2], [1.2, 1.0]]))
        assert out[0, 1] < 1.0
        assert np.linalg.eigvalsh(out)[0] >= 0.0
        assert np.allclose(np.diag(out), 1.0)

    def test_random_indefinite_projected(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, size=(5, 5))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 1.0)
        assert np.linalg.eigvalsh(a)[0] < 0  # genuinely indefinite input
        out = nearest_psd(a)
        assert np.linalg.eigvalsh(out)[0] >= 0.0
        assert np.allclose(np.diag(out), 1.0)

    def test_idempotent_on_valid_input(self):
        valid = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.5], [0.2, 0.5, 1.0]])
        once = nearest_psd(valid)
        assert np.array_equal(once, valid)
        projected = nearest_psd(np.array([[1.0, 1.2], [1.2, 1.0]]))
        assert np.array_equal(nearest_psd(projected), projected)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            nearest_psd(np.array([[1.0, 0.3], [0.1, 1.0]]))


class TestSampleJoint:
    def test_deterministic_given_seed(self):
        model = pair_model(0.5)
        a = sample_joint(model, 500, np.random.default_rng(1))
        b = sample_joint(model, 500, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_independence_at_identity(self):
        n = 100_000
        y = sample_joint(pair_model(0.0), n, np.random.default_rng(7))
        r = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(n)

    def test_single_act_matches_marginal_sampler(self):
        n = 100_000
        model = MultiActModel(make_acts(1), (FIG_MARGIN,), np.eye(1))
        joint = sample_joint(model, n, np.random.default_rng(8))[:, 0]
        direct = zi_sample(FIG_MARGIN, n, np.random.default_rng(9))
        d = stats.ks_2samp(joint, direct).statistic
        critical_1pct = 1.6276 * math.sqrt(2.0 / n)
        assert d < critical_1pct

    def test_latent_correlation_recovered(self):
        n = 100_000
        y = sample_joint(pair_model(0.6), n, np.random.default_rng(10))
        table = SurveyTable(make_acts(2), y, mode="counts")
        sigma_hat = latent_correlation_matrix(table, (FIG_MARGIN, FIG_MARGIN))
        assert abs(sigma_hat[0, 1] - 0.6) <= 0.03

    @pytest.mark.parametrize(
        "margin",
        [
            FIG_MARGIN,
            MarginalParams("zinb", 2.0, 0.6, dispersion=0.8),
            MarginalParams("zip", 0.8, 0.3),
        ],
    )
    def test_marginal_preservation_chisq(self, margin):
        n = 100_000
        other = MarginalParams("zip", 1.0, 0.5)
        model = MultiActModel(make_acts(2), (margin, other), np.array([[1.0, 0.5], [0.5, 1.0]]))
        y = sample_joint(model, n, np.random.default_rng(11))
        cats = np.digitize(y[:, 0], [1, 2, 5])
        observed = np.bincount(cats, minlength=4)
        expected = category_probs(margin) * n
        p = stats.chisquare(observed, expected).pvalue
        assert p > 0.01

    def test_monotone_dependence(self):
        n = 100_000
        rhos = [0.2, 0.5, 0.8]
        spearman = []
        for rho in rhos:
            y = sample_joint(pair_model(rho), n, np.random.default_rng(12))
            spearman.append(stats.spearmanr(y[:, 0], y[:, 1]).statistic)
        assert spearman[0] < spearman[1] < spearman[2]

    def test_positive_dependence_raises_joint_zeros(self):
        n = 100_000
        margins = (FIG_MARGIN, MarginalParams("zip", 1.5, 0.7), MarginalParams("zip", 1.0, 0.6))
        sigma = np.full((3, 3), 0.5)
        np.fill_diagonal(sigma, 1.0)
        model = MultiActModel(make_acts(3), margins, sigma)
        y = sample_joint(model, n, np.random.default_rng(13))
        frac_all_zero = np.mean((y == 0).all(axis=1))
        independent = np.prod([float(category_probs(m)[0]) for m in margins])
        assert frac_all_zero >= independent

    def test_semidefinite_sigma_accepted(self):
        # perfectly correlated pair: PSD but singular
        model = pair_model(1.0)
        y = sample_joint(model, 2000, np.random.default_rng(14))
        assert np.array_equal(y[:, 0], y[:, 1])


class TestSerialization:
    def test_dict_round_trip(self):
        model = pair_model(0.37, MarginalParams("zinb", 1.7, 0.55, dispersion=2.0))
        clone = MultiActModel.from_dict(model.to_dict())
        assert clone.margins == model.margins
        assert clone.acts == model.acts
        assert np.array_equal(clone.sigma, model.sigma)
