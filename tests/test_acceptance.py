"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Heavy Monte Carlo cells are shared through module fixtures.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from ctssim.cli import main as cli_main
from ctssim.coding import categorize
from ctssim.datasets import example_survey_paths
from ctssim.harness import SimulationConfig, run_cell, scenario_preset
from ctssim.ingest import SurveyTable, fit_model, read_survey
from ctssim.joint import ActSpec, MultiActModel, sample_joint
from ctssim.marginals import MarginalParams, category_probs, fit_mle_censored, fit_mle_exact

from helpers import zi_sample
from reference import (
    PotentialOutcomeTable,
    ResponseType,
    apply_effects,
    check_schedule,
    estimate_ols_hc2,
)

N_UNITS = 1680
N_REPS = 1000
BASE_SEED = 20260801


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number:>2} {label}: PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def fitted_model():
    """Model calibrated to the bundled ~40%-prevalence synthetic survey."""
    table = read_survey(*example_survey_paths())
    model, _ = fit_model(table, family="zinb")
    return model


def run_scenario(model, name, target, seed=BASE_SEED):
    config = SimulationConfig(
        model=model,
        scenario=scenario_preset(name, target=target),
        n_units=N_UNITS,
        n_reps=N_REPS,
        seed=seed,
    )
    return run_cell(config)


@pytest.fixture(scope="module")
def null_cell_and_runtime(fitted_model):
    start = time.monotonic()
    cell = run_scenario(fitted_model, "null", "all")
    return cell, time.monotonic() - start


@pytest.fixture(scope="module")
def all_target_cells(fitted_model):
    names = ["cessation_only", "cessation_reduction", "reduction_only",
             "cessation_reduction_increase"]
    return {name: run_scenario(fitted_model, name, "all") for name in names}


@pytest.fixture(scope="module")
def sexual_target_cells(fitted_model):
    names = ["cessation_only", "cessation_reduction", "reduction_only",
             "cessation_reduction_increase"]
    return {name: run_scenario(fitted_model, name, "sexual") for name in names}


@criterion(1, "null calibration and runtime")
def test_criterion_1_null_calibration(null_cell_and_runtime):
    cell, elapsed = null_cell_and_runtime
    for coding in ("binary", "sum"):
        s = cell.stats[coding]
        assert 0.03 <= s.power <= 0.07, f"{coding} rejection {s.power}"
        assert 0.93 <= s.coverage <= 0.97, f"{coding} coverage {s.coverage}"
        assert abs(s.bias) < 3 * s.mc_se["bias"], f"{coding} bias {s.bias}"
        assert s.true_ate_is_zero
    assert elapsed < 60.0, f"null cell took {elapsed:.1f}s"


@criterion(2, "unbiasedness and coverage under effects")
def test_criterion_2_effect_scenarios(all_target_cells):
    for name, cell in all_target_cells.items():
        for coding in ("binary", "sum"):
            s = cell.stats[coding]
            assert abs(s.bias) < 3 * s.mc_se["bias"], f"{name}/{coding} bias {s.bias}"
            assert 0.93 <= s.coverage <= 0.97, f"{name}/{coding} coverage {s.coverage}"


@criterion(3, "cessation-only favors the binary coding")
def test_criterion_3_cessation_ordering(all_target_cells):
    cell = all_target_cells["cessation_only"]
    assert cell.stats["binary"].power > cell.stats["sum"].power, (
        f"binary {cell.stats['binary'].power} vs sum {cell.stats['sum'].power}"
    )


@criterion(4, "reduction-only favors the sum coding")
def test_criterion_4_reduction_ordering(all_target_cells):
    cell = all_target_cells["reduction_only"]
    binary, total = cell.stats["binary"], cell.stats["sum"]
    assert binary.true_ate_is_zero  # the floor rule keeps prevalence fixed
    assert 0.03 <= binary.power <= 0.07, f"binary type-I rate {binary.power}"
    assert total.power >= binary.power + 0.05, (
        f"sum {total.power} vs binary {binary.power}"
    )


@criterion(5, "sexual-only targeting shrinks gaps; sum not dominated")
def test_criterion_5_sexual_targeting(sexual_target_cells):
    for name, cell in sexual_target_cells.items():
        for coding in ("binary", "sum"):
            power = cell.stats[coding].power
            assert 0.03 <= power <= 0.20, f"{name}/{coding} rejection {power}"
    cess = sexual_target_cells["cessation_only"]
    assert cess.stats["sum"].power >= cess.stats["binary"].power, (
        f"sum {cess.stats['sum'].power} vs binary {cess.stats['binary'].power}"
    )


@criterion(6, "HC2 matches the sandwich oracle and the Neyman form")
def test_criterion_6_hc2_oracle():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(20, 80))
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[: n // 2]] = 1
        y = rng.normal(size=n) + 0.5 * z + rng.exponential(1.0, n) * (1 - z)
        res = estimate_ols_hc2(y, z)

        x = np.column_stack([np.ones(n), z])
        xtx_inv = np.linalg.inv(x.T @ x)
        beta = xtx_inv @ x.T @ y
        resid = y - x @ beta
        leverage = np.sum((x @ xtx_inv) * x, axis=1)
        meat = x.T @ (x * (resid**2 / (1.0 - leverage))[:, None])
        sandwich_se = math.sqrt((xtx_inv @ meat @ xtx_inv)[1, 1])
        assert abs(res.se - sandwich_se) < 1e-10

        y1, y0 = y[z == 1], y[z == 0]
        neyman_se = math.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
        assert res.se == pytest.approx(neyman_se, abs=1e-12)


@criterion(7, "MLE recovery and nested-family dominance")
def test_criterion_7_mle_recovery():
    truth = MarginalParams("zip", 2.36, 0.84)
    y = zi_sample(truth, 50_000, np.random.default_rng(707))
    exact = fit_mle_exact(y, "zip")
    assert abs(exact.params.rate - 2.36) <= 0.1
    assert abs(exact.params.zero_prob - 0.84) <= 0.01
    hist = np.bincount(categorize(y), minlength=4).astype(float)
    censored = fit_mle_censored(hist, "zip")
    assert abs(censored.params.rate - 2.36) <= 0.1
    assert abs(censored.params.zero_prob - 0.84) <= 0.01

    zinb_truth = MarginalParams("zinb", 2.0, 0.6, dispersion=0.7)
    wins = 0
    for trial in range(100):
        sample = zi_sample(zinb_truth, 2000, np.random.default_rng(10_000 + trial))
        if fit_mle_exact(sample, "zinb").loglik >= fit_mle_exact(sample, "zip").loglik - 1e-9:
            wins += 1
    assert wins == 100, f"ZINB beat ZIP in only {wins}/100 trials"


@criterion(8, "copula marginal fidelity and dependence recovery")
def test_criterion_8_copula_fidelity():
    model_grid = [
        (MarginalParams("zip", 2.36, 0.84), 0.5),
        (MarginalParams("zip", 0.8, 0.3), 0.2),
        (MarginalParams("zinb", 2.0, 0.6, dispersion=0.8), 0.6),
        (MarginalParams("zinb", 4.0, 0.75, dispersion=1.5), 0.4),
        (MarginalParams("zip", 6.0, 0.5), 0.0),
    ]
    acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(2))
    n = 100_000
    for seed, (margin, rho) in enumerate(model_grid, start=800):
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        model = MultiActModel(acts, (margin, margin), sigma)
        draws = sample_joint(model, n, np.random.default_rng(seed))
        expected = category_probs(margin) * n
        for column in range(2):
            observed = np.bincount(categorize(draws[:, column]), minlength=4)
            assert sps.chisquare(observed, expected).pvalue > 0.01

    margins = (
        MarginalParams("zip", 2.36, 0.84),
        MarginalParams("zip", 1.5, 0.6),
        MarginalParams("zip", 1.0, 0.5),
        MarginalParams("zip", 2.5, 0.7),
    )
    sigma = np.array([
        [1.0, 0.5, 0.3, 0.4],
        [0.5, 1.0, 0.45, 0.35],
        [0.3, 0.45, 1.0, 0.25],
        [0.4, 0.35, 0.25, 1.0],
    ])
    acts4 = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(4))
    truth = MultiActModel(acts4, margins, sigma)
    counts = sample_joint(truth, 20_000, np.random.default_rng(801))
    table = SurveyTable(acts4, categorize(counts), mode="categories")
    refit, _ = fit_model(table, family="zip")
    upper = np.triu_indices(4, 1)
    worst = np.max(np.abs((refit.sigma - sigma)[upper]))
    assert worst <= 0.05, f"largest latent-correlation error {worst:.4f}"


@criterion(9, "byte-identical outputs across reruns and thread counts")
def test_criterion_9_determinism(tmp_path, fitted_model):
    from ctssim.ingest import save_model

    save_model(fitted_model, str(tmp_path / "model.json"))
    config = {
        "model": {"file": "model.json"},
        "scenarios": ["null", "cessation_only"],
        "targets": ["all", "sexual"],
        "n_units": 240,
        "n_reps": 50,
        "n_bootstrap": 30,
        "seed": 99,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = cli_main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                         "--threads", threads])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1], "rerun changed machine-readable output"
    assert outputs[0] == outputs[2], "thread count changed machine-readable output"


@criterion(10, "reference potential-outcome schedule reproduced exactly")
def test_criterion_10_reference_schedule():
    act = (ActSpec(1, "slapped you", "physical", "moderate"),)
    y0 = np.array([[0], [3], [5], [4], [1]])
    s = np.array(
        [
            ResponseType.NEVER_VIOLENT,
            ResponseType.NO_EFFECT,
            ResponseType.CESSATION,
            ResponseType.REDUCTION,
            ResponseType.INCREASE,
        ],
        dtype=np.int8,
    )
    z = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    from ctssim.outcomes import EffectScenario

    scenario = EffectScenario((0.25, 0.25, 0.25, 0.25), magnitude=2)
    y1 = apply_effects(y0, s, scenario, act)
    assert np.array_equal(y1, [[0], [3], [0], [2], [3]])
    assert np.array_equal(categorize(y1), [[0], [2], [0], [2], [2]])
    assert np.array_equal(categorize(y0), [[0], [2], [3], [2], [1]])
    table = PotentialOutcomeTable(y0, y1, s, z)
    assert np.array_equal(categorize(table.observed()), [[0], [2], [0], [2], [2]])
    check_schedule(table, scenario, act)
