"""Tests for the Monte Carlo harness."""

import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from ctssim import harness, joint
from ctssim.coding import categorize
from ctssim.datasets import default_acts, example_model, example_survey_paths
from ctssim.harness import (
    CODINGS,
    REPLICATION_FIELDS,
    SCENARIO_PRESETS,
    _BLOCK_ROWS,
    CellKernel,
    ReplicationError,
    Replications,
    SimulationConfig,
    latent_summary,
    run_cell,
    scenario_grid,
    scenario_preset,
    summarize,
)
from ctssim.ingest import EmpiricalResampler, SurveyTable, read_survey
from ctssim.joint import ActSpec, CopulaSampler, MultiActModel, _latent_transform, sample_joint
from ctssim.marginals import MarginalParams, cdf_table
from ctssim.outcomes import TARGET_PRESETS, EffectScenario

from helpers import replicate
from reference import (
    DRAWN_TYPES,
    PotentialOutcomeTable,
    apply_effects,
    assign_response_types,
    check_schedule,
    code_binary,
    code_sum,
    counts_from_uniforms,
    estimate_ols_hc2,
    randomize,
    true_estimands,
)


def small_model(k=3):
    acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(k))
    margins = tuple(MarginalParams("zip", 2.0, 0.6) for _ in range(k))
    sigma = np.full((k, k), 0.4)
    np.fill_diagonal(sigma, 1.0)
    return MultiActModel(acts, margins, sigma)


def config(scenario_name="cessation_only", n_units=300, n_reps=200, seed=5, **kw):
    return SimulationConfig(
        model=small_model(),
        scenario=scenario_preset(scenario_name),
        n_units=n_units,
        n_reps=n_reps,
        seed=seed,
        **kw,
    )


# 4 replications a block: n_reps of 1, B - 1, B and B + 1 fill a block in
# part, in full, and spill into a second one
BLOCK_UNITS = 2000
B = _BLOCK_ROWS // BLOCK_UNITS
BLOCK_CASES = [
    (BLOCK_UNITS, 1), (BLOCK_UNITS, B - 1), (BLOCK_UNITS, B), (BLOCK_UNITS, B + 1),
    (_BLOCK_ROWS + 1, 2),  # one replication a block
    (4, 3),
]


class TestPresets:
    def test_standard_probability_vectors(self):
        assert SCENARIO_PRESETS["cessation_only"] == (0.70, 0.30, 0.0, 0.0)
        assert SCENARIO_PRESETS["cessation_reduction"] == (0.70, 0.10, 0.20, 0.0)
        assert SCENARIO_PRESETS["reduction_only"] == (0.70, 0.0, 0.30, 0.0)
        assert SCENARIO_PRESETS["cessation_reduction_increase"] == (0.70, 0.10, 0.15, 0.05)
        assert SCENARIO_PRESETS["null"] == (1.0, 0.0, 0.0, 0.0)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            scenario_preset("everything_works")

    def test_preset_carries_target(self):
        s = scenario_preset("cessation_only", target="sexual")
        assert s.target == "sexual" and s.name == "cessation_only"


class TestReplicate:
    def test_deterministic(self):
        cfg = config()
        a = replicate(CellKernel(cfg), 3)
        b = replicate(CellKernel(cfg), 3)
        assert a == b

    def test_distinct_replications_differ(self):
        kernel = CellKernel(config())
        assert replicate(kernel, 0) != replicate(kernel, 1)

    def test_null_scenario_true_ate_zero(self):
        rec = replicate(CellKernel(config("null")), 0)
        assert rec["binary"]["true_ate"] == 0.0
        assert rec["sum"]["true_ate"] == 0.0

    def test_reduction_only_binary_ate_zero_every_rep(self):
        kernel = CellKernel(config("reduction_only", n_reps=30))
        for m in range(30):
            rec = replicate(kernel, m)
            assert rec["binary"]["true_ate"] == 0.0

    def test_schedule_reproduces_binary_estimate(self):
        # the stored statistics really are functions of the stored schedule
        cfg = config()
        reps = run_cell(cfg).reps
        rec = replicate(CellKernel(cfg), 7, return_schedule=True)
        table = rec["schedule"]
        recomputed = estimate_ols_hc2(
            code_binary(categorize(table.observed())), table.z, alpha=cfg.alpha
        )
        assert recomputed.estimate == reps.data["binary"]["estimate"][7]
        assert recomputed.se == reps.data["binary"]["se"][7]
        assert recomputed.p_value == reps.data["binary"]["p_value"][7]


def edge_model():
    """The example act table with edge-case margins: zero probabilities of
    1 - 9e-14 (the fit's logit bound), 0 and 1, and a rate of 40."""
    base = example_model()
    margins = list(base.margins)
    margins[0] = MarginalParams("zinb", 2.6, 1.0 / (1.0 + math.exp(-30.0)), dispersion=1.2)
    margins[3] = MarginalParams("zip", 1.8, 0.0)
    margins[7] = MarginalParams("zinb", 40.0, 0.5, dispersion=50.0)
    margins[8] = MarginalParams("zip", 2.0, 1.0)
    return MultiActModel(default_acts(), tuple(margins), base.sigma)


def counts_survey():
    """A counts-mode survey of the example acts: mostly small counts, some
    in the thousands, and counts of 10**6 and 3 * 10**9."""
    rng = np.random.default_rng(17)
    values = rng.negative_binomial(0.4, 0.1, size=(500, 10)) * (rng.random((500, 10)) < 0.4)
    values[rng.integers(500, size=20), rng.integers(10, size=20)] = rng.integers(1000, 5000, 20)
    values[3, 2], values[40, 0], values[41, 7] = 10**6, 3 * 10**9, 10**6 + 1
    return SurveyTable(default_acts(), values, "counts")


@pytest.fixture(scope="module")
def kernel_models():
    return {
        "example": example_model(),
        "edge": edge_model(),
        "resample": EmpiricalResampler(read_survey(*example_survey_paths())),
        "counts": EmpiricalResampler(counts_survey()),
    }


def reference_draw(model, n, rng):
    """The Gaussian-copula draw in its plain form: ndtr of every latent
    value, then counts_from_uniforms on each act's CDF table."""
    u = ndtr(rng.standard_normal((n, model.n_acts)) @ _latent_transform(model.sigma).T)
    return np.column_stack(
        [counts_from_uniforms(cdf_table(m), u[:, j]) for j, m in enumerate(model.margins)]
    )


def reference_replication(config, rep_index):
    """One replication through the public stage functions, on the same stream."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, rep_index]))
    model, scenario, n = config.model, config.scenario, config.n_units
    if isinstance(model, MultiActModel):
        y0 = reference_draw(model, n, rng)
    else:
        y0 = model.sample_control(n, rng)
    s = assign_response_types(y0, scenario, model.acts, rng)
    y1 = apply_effects(y0, s, scenario, model.acts)
    return PotentialOutcomeTable(y0, y1, s, randomize(n, rng))


def reference_record(config, table):
    """A replication's record, from its schedule through the stage functions."""
    truth = true_estimands(table)
    observed = categorize(table.observed())
    record = {}
    for key, code in (("binary", code_binary), ("sum", code_sum)):
        est = estimate_ols_hc2(code(observed), table.z, alpha=config.alpha, df=config.df)
        record[key] = {"estimate": est.estimate, "se": est.se, "p_value": est.p_value,
                       "ci_low": est.ci_low, "ci_high": est.ci_high, "true_ate": truth[key]}
    record["latent_sum_true"] = float(np.mean(table.y1.sum(axis=1) - table.y0.sum(axis=1)))
    return record


class TestKernelMatchesReference:
    """The replication kernel reproduces the plain copula draw and the stage
    functions of the reference pipeline (``reference``) bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 4001])
    @pytest.mark.parametrize("model_name", ["example", "edge"])
    def test_sample_joint_equals_reference_draw(self, kernel_models, model_name, n):
        model = kernel_models[model_name]
        for seed in range(5):
            drawn = sample_joint(model, n, np.random.default_rng(seed))
            assert np.array_equal(drawn, reference_draw(model, n, np.random.default_rng(seed)))
        # a block of the five seeds' draws: each replication's counts, and
        # the entries that may be positive, row by row of the block
        normals = np.stack([np.random.default_rng(seed).standard_normal((n, model.n_acts))
                            for seed in range(5)])
        counts, rows, values = CopulaSampler(model).counts(normals)
        for seed in range(5):
            expected = reference_draw(model, n, np.random.default_rng(seed))
            assert np.array_equal(counts[seed], expected)
        flat = counts.reshape(-1, model.n_acts)
        assert np.array_equal(np.sort(rows[values > 0]), np.nonzero(flat)[0])
        assert values.sum() == flat.sum()

    @pytest.mark.parametrize("df", ["normal", "welch"])
    @pytest.mark.parametrize("target", TARGET_PRESETS)
    @pytest.mark.parametrize("scenario_name", sorted(SCENARIO_PRESETS))
    @pytest.mark.parametrize("model_name", ["example", "edge", "resample"])
    def test_replications_equal_stage_functions(
        self, kernel_models, model_name, scenario_name, target, df
    ):
        model = kernel_models[model_name]
        floor = {"all": 1, "physical": 0, "sexual": 1, "moderate": 0}[target]
        cfg = SimulationConfig(
            model, scenario_preset(scenario_name, target=target, floor=floor),
            n_units=301, n_reps=3, seed=23, df=df,
        )
        kernel = CellKernel(cfg)
        for i in range(cfg.n_reps):
            rec = replicate(kernel, i, return_schedule=True)
            table = rec["schedule"]
            check_schedule(table, cfg.scenario, model.acts)
            ref = reference_replication(cfg, i)
            for name in ("y0", "y1", "s", "z"):
                assert np.array_equal(getattr(table, name), getattr(ref, name)), name
            del rec["schedule"]
            assert rec == reference_record(cfg, ref)

    @pytest.mark.parametrize("df", ["normal", "welch"])
    @pytest.mark.parametrize("floor", [0, 1])
    @pytest.mark.parametrize("magnitude", [1, 2, 7, 10**9])
    @pytest.mark.parametrize("model_name", ["example", "edge", "resample", "counts"])
    def test_magnitudes_and_floors_equal_stage_functions(
        self, kernel_models, model_name, magnitude, floor, df
    ):
        # every response type, on counts below, inside and above each
        # class of the effect tables, up to 3 * 10**9 in the counts survey
        model = kernel_models[model_name]
        cfg = SimulationConfig(
            model, EffectScenario((0.25, 0.25, 0.25, 0.25), magnitude, "all", floor),
            n_units=301, n_reps=3, seed=31, alpha=0.1, df=df,
        )
        kernel = CellKernel(cfg)
        for i in range(cfg.n_reps):
            rec = replicate(kernel, i)
            assert rec == reference_record(cfg, reference_replication(cfg, i))

    def test_counts_survey_reaches_the_large_counts(self, kernel_models):
        cfg = SimulationConfig(kernel_models["counts"], scenario_preset("cessation_only"),
                               n_units=301, n_reps=3, seed=31)
        drawn = np.concatenate([reference_replication(cfg, i).y0 for i in range(3)])
        assert drawn.max() >= 10**6 and ((drawn >= 6) & (drawn <= 1000)).any()

    @pytest.mark.parametrize("df", ["normal", "welch"])
    @pytest.mark.parametrize("model_name", ["example", "edge", "resample"])
    @pytest.mark.parametrize("n_units, n_reps", BLOCK_CASES)
    def test_blocks_equal_stage_functions(self, kernel_models, model_name, n_units, n_reps, df):
        assert B > 1
        cfg = SimulationConfig(
            kernel_models[model_name], scenario_preset("cessation_reduction_increase", floor=0),
            n_units=n_units, n_reps=n_reps, seed=29, df=df,
        )
        reps = run_cell(cfg).reps
        for i in range(n_reps):
            ref = reference_record(cfg, reference_replication(cfg, i))
            for c in CODINGS:
                for f in REPLICATION_FIELDS:
                    assert reps.data[c][f][i] == ref[c][f], (i, c, f)
            assert reps.latent_sum_true[i] == ref["latent_sum_true"], i

    def test_simulation_matches_fresh_kernels(self):
        # run_cell shares one kernel across the cell's replications
        cfg = config("cessation_reduction_increase", n_reps=6, df="welch")
        reps = run_cell(cfg).reps
        for i in range(cfg.n_reps):
            rec = replicate(CellKernel(cfg), i)
            for c in CODINGS:
                for f in REPLICATION_FIELDS:
                    assert reps.data[c][f][i] == rec[c][f]

    @pytest.mark.parametrize("run, hit_sets", [
        (run_cell, 1),
        # "all" and "physical" are the same 3 columns; null and
        # cessation_only each have a hit set on each of the 2 column sets
        (lambda cfg: scenario_grid(cfg, [scenario_preset("null"), scenario_preset("cessation_only")],
                                   ["all", "physical", (1, 3)]), 4),
    ], ids=["cell", "grid"])
    def test_per_cell_work_runs_once(self, monkeypatch, run, hit_sets):
        # a grid's cells share one copula sampler, so it too validates once,
        # and each block's hit sets are gathered once
        calls = {"validate": 0, "latent": 0, "hits": 0}
        validate, latent, hits = MultiActModel.validate, joint._latent_transform, harness.hits

        def counted_validate(model):
            calls["validate"] += 1
            return validate(model)

        def counted_latent(sigma):
            calls["latent"] += 1
            return latent(sigma)

        def counted_hits(shared, no_effect, span):
            calls["hits"] += 1
            return hits(shared, no_effect, span)

        cfg = config(n_reps=12)
        assert cfg.n_reps * cfg.n_units <= _BLOCK_ROWS  # one block
        monkeypatch.setattr(MultiActModel, "validate", counted_validate)
        monkeypatch.setattr(joint, "_latent_transform", counted_latent)
        monkeypatch.setattr(harness, "hits", counted_hits)
        run(cfg)
        assert calls == {"validate": 1, "latent": 1, "hits": hit_sets}

    def test_bad_sampler_output_rejected(self):
        class NegativeModel:
            acts = small_model().acts

            def sample_control(self, n, rng):
                return -np.ones((n, 3), dtype=np.int64)

        cfg = SimulationConfig(NegativeModel(), scenario_preset("null"), 100, n_reps=2)
        with pytest.raises(ReplicationError, match="non-negative counts"):
            run_cell(cfg)


def random_probs(rng):
    """A probability vector with zero entries in random places."""
    p = rng.dirichlet(np.ones(4)) * (rng.random(4) < 0.6)
    if not p.any():
        p[rng.integers(4)] = 1.0
    return tuple(p / p.sum())


class TestSamplingRule:
    """The kernel maps one uniform per violent unit through the scenario's
    CDF; the reference draws the types with rng.choice.  numpy 2.4.6's
    choice(p=...) is that rule, on the same uniforms."""

    PROBS = [SCENARIO_PRESETS[name] for name in sorted(SCENARIO_PRESETS)] + [
        random_probs(np.random.default_rng(seed)) for seed in range(40)
    ]

    @pytest.mark.parametrize("n", [0, 1, 17, 1680])
    def test_searchsorted_equals_choice(self, n):
        assert (1.0, 0.0, 0.0, 0.0) in self.PROBS
        assert any(0.0 in p[:3] and p[3] > 0 for p in self.PROBS[5:])
        for seed, probs in enumerate(self.PROBS):
            cfg = replace(config(n_units=4), scenario=EffectScenario(probs))
            cdf = CellKernel(cfg).cdf
            kernel_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = DRAWN_TYPES.take(cdf.searchsorted(kernel_rng.random(n), side="right"))
            chosen = choice_rng.choice(DRAWN_TYPES, size=n, p=probs)
            assert np.array_equal(drawn, chosen), probs
            assert drawn.dtype == chosen.dtype
            assert kernel_rng.random() == choice_rng.random(), probs


def per_cell_reference(config):
    """A cell run alone: its kernel's replications one at a time, each on
    a fresh generator, collected as a cell's run collects them."""
    kernel = CellKernel(config)
    records = [replicate(kernel, i) for i in range(config.n_reps)]
    data = {c: {f: np.array([r[c][f] for r in records]) for f in REPLICATION_FIELDS}
            for c in CODINGS}
    latent = np.array([r["latent_sum_true"] for r in records])
    return data, latent


class TestReplicationMajorGrid:
    """scenario_grid draws each replication's control counts once for all of
    its cells; every cell must still equal that cell run alone."""

    @staticmethod
    def assert_cells_match_reference(base, scenarios, targets):
        """The grid's cells, each checked against its per-cell reference."""
        cells = scenario_grid(base, scenarios, targets)
        assert len(cells) == len(scenarios) * len(targets)
        for cell in cells:
            assert cell.config == replace(base, scenario=cell.config.scenario)
            data, latent = per_cell_reference(cell.config)
            for c in CODINGS:
                for f in REPLICATION_FIELDS:
                    assert np.array_equal(cell.reps.data[c][f], data[c][f]), (cell.config.scenario, c, f)
            assert np.array_equal(cell.reps.latent_sum_true, latent), cell.config.scenario
        return cells

    def test_copula_model_welch(self):
        base = SimulationConfig(
            example_model(), scenario_preset("null"), n_units=240, n_reps=12, seed=41,
            df="welch",
        )
        scenarios = [scenario_preset(name) for name in sorted(SCENARIO_PRESETS)]
        self.assert_cells_match_reference(base, scenarios, ["all", "sexual", (2, 5, 9)])

    def test_weighted_survey_resampler_floor_0(self):
        table = read_survey(*example_survey_paths())
        weighted = SurveyTable(
            table.acts, table.values, table.mode, weights=np.linspace(0.2, 3.0, table.n_rows)
        )
        base = SimulationConfig(
            EmpiricalResampler(weighted), scenario_preset("null"), n_units=301, n_reps=10,
            seed=7,
        )
        scenarios = [
            scenario_preset(name, floor=0)
            for name in ("cessation_only", "reduction_only", "cessation_reduction_increase")
        ]
        self.assert_cells_match_reference(base, scenarios, ["physical", "moderate", (1, 10)])

    def test_index_list_targets(self):
        base = config(n_reps=9)
        scenarios = [scenario_preset("cessation_reduction"), scenario_preset("reduction_only")]
        self.assert_cells_match_reference(base, scenarios, [(3,), (1, 2), "all"])

    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_aliased_targets_share_target_work(self, monkeypatch, df):
        # "all" and the full index list resolve to the same columns, so their
        # cells share each block's target work; the reversed list is a
        # column set of its own
        calls = []
        share = harness.share

        def counted_share(y0, score0, rngs, cols):
            calls.append(tuple(cols))
            return share(y0, score0, rngs, cols)

        monkeypatch.setattr(harness, "share", counted_share)
        base = config(n_units=BLOCK_UNITS, n_reps=2 * B, df=df)
        scenarios = [scenario_preset("cessation_reduction_increase"), scenario_preset("null")]
        self.assert_cells_match_reference(base, scenarios, ["all", (1, 2, 3), (2,), (3, 2, 1)])
        # the grid shares 3 column sets over 2 blocks; then the reference runs
        # each of the 8 cells alone, a block of one per replication
        assert calls[:3 * 2] == [(0, 1, 2), (1,), (2, 1, 0)] * 2
        assert len(calls) == 3 * 2 + 8 * base.n_reps

    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_scenarios_share_hit_sets(self, monkeypatch, df):
        # the three presets leave the same 70% of violent rows alone and
        # have one span, so they share each block's hit set; null leaves
        # every row alone, and the custom scenario has a span of its own
        calls = []
        hits = harness.hits

        def counted_hits(shared, no_effect, span):
            calls.append((no_effect, span))
            return hits(shared, no_effect, span)

        monkeypatch.setattr(harness, "hits", counted_hits)
        base = config(n_units=BLOCK_UNITS, n_reps=2 * B, df=df)
        scenarios = [scenario_preset(name) for name in
                     ("cessation_only", "cessation_reduction", "reduction_only", "null")]
        scenarios.append(EffectScenario((0.7, 0.1, 0.2, 0.0), magnitude=3, name="m3"))
        self.assert_cells_match_reference(base, scenarios, [(2, 3)])
        # the grid gathers 3 hit sets over 2 blocks; then the reference runs
        # each of the 5 cells alone, a block of one per replication
        assert calls[:3 * 2] == [(0.7, (3, 7)), (1.0, (3, 7)), (0.7, (4, 8))] * 2
        assert len(calls) == 3 * 2 + 5 * base.n_reps

    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_empty_hit_sets(self, df):
        # a scenario that leaves every row alone acts on no row; "none", at
        # another magnitude, has a hit set of its own, as empty as null's
        base = config(n_units=BLOCK_UNITS, n_reps=B + 1, df=df)
        scenarios = [scenario_preset("null"),
                     EffectScenario((1.0, 0.0, 0.0, 0.0), magnitude=5, name="none")]
        for cell in self.assert_cells_match_reference(base, scenarios, ["all", (2,)]):
            for values in (*(cell.reps.data[c]["true_ate"] for c in CODINGS),
                           cell.reps.latent_sum_true):
                assert np.all(values == 0.0) and not np.signbit(values).any()
        # the two cells' treated moments, block by block
        copula = CopulaSampler(base.model)
        rngs, block = harness.draw_streams(base, copula, range(B))
        y0, score0 = harness.finish_draw(copula, block)
        for target in ("all", (2,)):
            kernels = [CellKernel(replace(base, scenario=replace(s, target=target)))
                       for s in scenarios]
            shared = harness.share(y0, score0, rngs, kernels[0].cols)
            null, none = (k.respond(shared, harness.hits(shared, float(k.cdf[0]), k.span))[0]
                          for k in kernels)
            assert all(np.array_equal(a, b) for a, b in zip(null, none))

    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_custom_magnitude_and_floor_on_one_target(self, df):
        base = config(n_units=250, n_reps=8, df=df)
        probs = (0.4, 0.1, 0.3, 0.2)
        scenarios = [
            EffectScenario(probs, magnitude=1, floor=0, name="m1f0"),
            EffectScenario(probs, magnitude=3, floor=1, name="m3f1"),
            EffectScenario(probs, magnitude=6, floor=0, name="m6f0"),
            EffectScenario((0.0, 0.0, 0.5, 0.5), magnitude=2, floor=1, name="split"),
        ]
        self.assert_cells_match_reference(base, scenarios, [(2, 3)])

    @pytest.mark.parametrize("model_name", ["example", "counts"])
    def test_several_blocks_magnitudes_and_floors(self, kernel_models, model_name):
        # every field of every cell, over three blocks, equals (==, entry by
        # entry) the cell's replications run one at a time
        base = SimulationConfig(kernel_models[model_name], scenario_preset("null"),
                                n_units=BLOCK_UNITS, n_reps=2 * B + 1, seed=43, alpha=0.1,
                                df="welch")
        probs = (0.1, 0.3, 0.3, 0.3)
        scenarios = [EffectScenario(probs, magnitude, floor=floor, name=f"m{magnitude}f{floor}")
                     for magnitude, floor in ((1, 0), (2, 1), (7, 0), (10**9, 1))]
        self.assert_cells_match_reference(base, scenarios, ["all", (2, 5)])

    @pytest.mark.parametrize("df", ["normal", "welch"])
    def test_replications_without_violent_units(self, df):
        # at n_units 4, some replications have no violence on act 1 alone
        base = config(n_units=4, n_reps=40, seed=3, df=df)
        copula = CopulaSampler(base.model)
        y0 = harness.finish_draw(copula, harness.draw_streams(base, copula, range(base.n_reps))[1])[0]
        violent = np.count_nonzero(y0[:, :, 0], axis=1)
        assert 0 in violent and max(violent) > 0
        scenarios = [scenario_preset(name) for name in sorted(SCENARIO_PRESETS)]
        self.assert_cells_match_reference(base, scenarios, [(1,), "all"])

    @pytest.mark.parametrize("n_units, failing", [
        (100, 3),  # inside the one block
        (BLOCK_UNITS, B + 1),  # the second replication of the second block
    ])
    @pytest.mark.parametrize("grid", [False, True], ids=["cell", "grid"])
    def test_sampler_error_carries_replication_index(self, grid, n_units, failing):
        class FailsAtOne:
            acts = small_model().acts

            def sample_control(self, n, rng):
                if rng.bit_generator.seed_seq.entropy == [1, failing]:
                    raise RuntimeError("sampler exploded")
                return np.zeros((n, 3), dtype=np.int64)

        cfg = SimulationConfig(FailsAtOne(), scenario_preset("null"), n_units, n_reps=2 * B, seed=1)
        threads = threading.active_count()
        with pytest.raises(ReplicationError) as info:
            if grid:
                scenario_grid(cfg, [scenario_preset("null"), scenario_preset("cessation_only")],
                              ["all", (2,)])
            else:
                run_cell(cfg)
        assert info.value.rep_index == failing
        assert "sampler exploded" in str(info.value)
        assert threading.active_count() == threads

    def test_block_work_error_names_the_blocks_first_replication(self, monkeypatch):
        share = harness.share

        def fails_in_second_block(y0, score0, rngs, cols):
            if rngs[0].bit_generator.seed_seq.entropy[1] == B:
                raise FloatingPointError("block work failed")
            return share(y0, score0, rngs, cols)

        monkeypatch.setattr(harness, "share", fails_in_second_block)
        threads = threading.active_count()
        with pytest.raises(ReplicationError, match="block work failed") as info:
            run_cell(config(n_units=BLOCK_UNITS, n_reps=2 * B))
        assert info.value.rep_index == B
        assert threading.active_count() == threads

    @pytest.mark.parametrize("model_name", ["example", "resample"])
    def test_one_helper_thread_draws_and_is_joined(self, kernel_models, monkeypatch, model_name):
        # every block's own draws run on one thread other than the caller's,
        # and that thread has ended when the grid returns; a short switch
        # interval interleaves the two threads finely, and every cell must
        # still equal its replications run one at a time
        drawn_on = []
        draw_streams = harness.draw_streams

        def recorded(config, copula, reps):
            drawn_on.append(threading.current_thread())
            return draw_streams(config, copula, reps)

        monkeypatch.setattr(harness, "draw_streams", recorded)
        base = SimulationConfig(kernel_models[model_name], scenario_preset("null"),
                                n_units=BLOCK_UNITS, n_reps=2 * B + 1, seed=5)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_cells_match_reference(base, [scenario_preset("cessation_only")], ["all"])
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        # the grid's 3 blocks, then the reference's 2B + 1 blocks of one
        assert len(drawn_on) == 3 + base.n_reps
        assert len(set(drawn_on[:3])) == 1 and drawn_on[0] is not threading.current_thread()
        assert not drawn_on[0].is_alive()

    @pytest.mark.parametrize("df", ["normal", "welch"])
    @pytest.mark.parametrize("model_name", ["example", "resample"])
    @pytest.mark.parametrize("n_units, n_reps", BLOCK_CASES)
    def test_block_boundaries(self, kernel_models, model_name, n_units, n_reps, df):
        base = SimulationConfig(kernel_models[model_name], scenario_preset("null"),
                                n_units=n_units, n_reps=n_reps, seed=13, df=df)
        scenarios = [scenario_preset("cessation_reduction"), scenario_preset("reduction_only")]
        self.assert_cells_match_reference(base, scenarios, ["physical", "all"])


class TestRunCell:
    def test_rerun_bit_identical(self):
        cfg = config(n_reps=25)
        a, b = run_cell(cfg).reps, run_cell(cfg).reps
        assert np.array_equal(a.data["sum"]["estimate"], b.data["sum"]["estimate"])


def handmade_reps(estimates, trues, p_values=None, half_width=0.1):
    m = len(estimates)
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(trues, dtype=float)
    p = np.asarray(p_values, dtype=float) if p_values is not None else np.full(m, 0.5)
    data = {}
    for c in CODINGS:
        data[c] = {
            "estimate": est,
            "se": np.full(m, half_width / 1.96),
            "p_value": p,
            "ci_low": est - half_width,
            "ci_high": est + half_width,
            "true_ate": tru,
        }
    return Replications(data, np.zeros(m))


def mc_ses(reps, alpha=0.05):
    """Each coding's Monte Carlo SEs, as summarize stores them."""
    return {c: stats.mc_se for c, stats in summarize(reps, alpha).items()}


class TestSummarize:
    def test_exact_estimates(self):
        reps = handmade_reps([0.2, 0.2], [0.2, 0.2])
        stats = summarize(reps)["binary"]
        assert stats.bias == 0.0
        assert stats.rmse == 0.0
        assert stats.coverage == 1.0
        assert not stats.true_ate_is_zero

    def test_symmetric_errors(self):
        reps = handmade_reps([0.3, 0.1], [0.2, 0.2])
        stats = summarize(reps)["sum"]
        assert stats.bias == pytest.approx(0.0, abs=1e-15)
        assert stats.rmse == pytest.approx(0.1)

    def test_power_counts_rejections(self):
        reps = handmade_reps([0.0] * 4, [0.0] * 4, p_values=[0.01, 0.04, 0.06, 0.5])
        stats = summarize(reps, alpha=0.05)["binary"]
        assert stats.power == 0.5
        assert stats.true_ate_is_zero

    def test_rmse_at_least_abs_bias(self):
        reps = run_cell(config(n_reps=50)).reps
        for s in summarize(reps).values():
            assert s.rmse >= abs(s.bias)


def paired_reps(m=200, seed=3):
    """Handmade records whose codings differ: errors of both signs, and
    rejection indicators that agree in part."""
    rng = np.random.default_rng(seed)
    reps = handmade_reps(rng.normal(0.1, 0.05, m), rng.normal(0.1, 0.01, m),
                         p_values=rng.uniform(0, 0.3, m))
    reps.data["sum"] = dict(reps.data["sum"], p_value=np.where(
        rng.uniform(size=m) < 0.5, reps.data["binary"]["p_value"], rng.uniform(0, 0.3, m)))
    return reps


class TestMCStandardErrors:
    def test_constant_records_zero_se(self):
        reps = handmade_reps([0.2] * 20, [0.2] * 20, p_values=[0.01] * 20)
        for per_coding in mc_ses(reps).values():
            assert per_coding == dict.fromkeys(("bias", "rmse", "power", "coverage", "power_diff"), 0.0)

    def test_each_se_matches_its_formula(self):
        reps = paired_reps()
        m, alpha = reps.n_reps, 0.05
        ses = mc_ses(reps, alpha)
        rejected = {}
        for c in CODINGS:
            fields = reps.data[c]
            err = fields["estimate"] - fields["true_ate"]
            rmse = math.sqrt(np.mean(err**2))
            power = np.mean(fields["p_value"] < alpha)
            coverage = np.mean((fields["ci_low"] <= fields["true_ate"])
                               & (fields["true_ate"] <= fields["ci_high"]))
            rejected[c] = fields["p_value"] < alpha
            expected = {
                "bias": np.std(err, ddof=1) / math.sqrt(m),
                "rmse": np.std(err**2, ddof=1) / math.sqrt(m) / (2 * rmse),
                "power": math.sqrt(power * (1 - power) / m),
                "coverage": math.sqrt(coverage * (1 - coverage) / m),
            }
            assert 0 < power < 1 and 0 < coverage < 1
            for stat, value in expected.items():
                assert ses[c][stat] == pytest.approx(value, rel=1e-15, abs=0), (c, stat)
        diff = rejected["binary"].astype(float) - rejected["sum"]
        assert 0 < np.std(diff)
        for c in CODINGS:
            assert ses[c]["power_diff"] == pytest.approx(np.std(diff) / math.sqrt(m), rel=1e-15, abs=0)

    def test_summarize_stores_the_ses(self):
        stats = summarize(paired_reps())
        for c in CODINGS:
            assert set(stats[c].mc_se) == {"bias", "rmse", "power", "coverage", "power_diff"}
        assert stats["binary"].mc_se["power_diff"] == stats["sum"].mc_se["power_diff"]

    def test_power_diff_reduces_to_binary_power_se(self):
        # the sum coding never rejects, so the difference is the binary
        # indicator alone
        reps = paired_reps()
        reps.data["sum"]["p_value"] = np.full(reps.n_reps, 0.9)
        ses = mc_ses(reps)
        assert ses["sum"]["power"] == 0.0
        assert ses["binary"]["power"] > 0.0
        assert ses["binary"]["power_diff"] == pytest.approx(ses["binary"]["power"], rel=1e-15, abs=0)

    def test_power_diff_is_paired(self):
        # se_diff^2 = se_b^2 + se_s^2 - 2 cov(rej_b, rej_s) / m, covariance at ddof 0
        reps = paired_reps()
        m, alpha = reps.n_reps, 0.05
        ses = mc_ses(reps, alpha)
        rej_b, rej_s = (reps.data[c]["p_value"] < alpha for c in CODINGS)
        cov = np.cov(rej_b, rej_s, ddof=0)[0, 1]
        assert cov > 0
        expected = ses["binary"]["power"] ** 2 + ses["sum"]["power"] ** 2 - 2 * cov / m
        assert ses["binary"]["power_diff"] ** 2 == pytest.approx(expected, rel=1e-12)

    def test_one_replication_gives_nan_without_warning(self):
        reps = handmade_reps([0.3], [0.2], p_values=[0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = summarize(reps)
        for c in CODINGS:
            assert set(stats[c].mc_se) == {"bias", "rmse", "power", "coverage", "power_diff"}
            assert all(math.isnan(v) for v in stats[c].mc_se.values())

    def test_zero_rmse_gives_zero_rmse_se(self):
        # errors all 0 although the estimates vary
        reps = handmade_reps([0.1, 0.2, 0.4], [0.1, 0.2, 0.4], p_values=[0.01, 0.5, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = summarize(reps)
        for c in CODINGS:
            assert stats[c].rmse == 0.0
            assert stats[c].mc_se["rmse"] == 0.0
            assert stats[c].mc_se["power"] > 0.0

    def test_doubling_reps_shrinks_se(self):
        small = run_cell(config(n_reps=400, seed=21)).reps
        large = run_cell(config(n_reps=800, seed=21)).reps
        se_small = mc_ses(small)["sum"]
        se_large = mc_ses(large)["sum"]
        for stat in ("bias", "rmse"):
            ratio = se_small[stat] / se_large[stat]
            assert ratio == pytest.approx(math.sqrt(2.0), rel=0.25)


class TestScenarioGrid:
    def test_grid_shape_and_names(self):
        cfg = config(n_reps=10)
        scenarios = [scenario_preset("null"), scenario_preset("cessation_only")]
        cells = scenario_grid(cfg, scenarios, ["all", "physical"])
        assert len(cells) == 4
        assert {(c.config.scenario.name, c.config.scenario.target) for c in cells} == {
            ("null", "all"), ("null", "physical"),
            ("cessation_only", "all"), ("cessation_only", "physical"),
        }

    def test_cells_independent_of_grid_composition(self):
        cfg = config(n_reps=15)
        lone = scenario_grid(cfg, [scenario_preset("cessation_only")], ["all"])[0]
        in_grid = scenario_grid(
            cfg, [scenario_preset("null"), scenario_preset("cessation_only")], ["all"]
        )[1]
        assert np.array_equal(
            lone.reps.data["sum"]["estimate"], in_grid.reps.data["sum"]["estimate"]
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scenario_grid(config(), [], ["all"])

    def test_power_monotone_in_sample_size(self):
        powers, ses = [], []
        for n_units in (150, 400, 1000):
            cell = run_cell(config("cessation_only", n_units=n_units, n_reps=300, seed=31))
            powers.append(cell.stats["sum"].power)
            ses.append(cell.stats["sum"].mc_se["power"])
        assert powers[1] >= powers[0] - ses[0]
        assert powers[2] >= powers[1] - ses[1]


class TestOrderingRobustness:
    @pytest.mark.parametrize("zero_prob,label", [(0.87, "low"), (0.72, "high")])
    def test_orderings_across_prevalence(self, zero_prob, label):
        # binary wins under cessation-only, sum wins under reduction-only,
        # for any-act prevalence anywhere in roughly [0.2, 0.6]
        k = 4
        acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(k))
        margins = tuple(MarginalParams("zinb", 2.2, zero_prob, dispersion=1.0) for _ in range(k))
        sigma = np.full((k, k), 0.5)
        np.fill_diagonal(sigma, 1.0)
        model = MultiActModel(acts, margins, sigma)
        from ctssim.joint import sample_joint

        draws = sample_joint(model, 50_000, np.random.default_rng(0))
        prevalence = (draws > 0).any(axis=1).mean()
        assert 0.2 <= prevalence <= 0.6

        def powers(scenario_name, n_units):
            cfg = SimulationConfig(
                model, scenario_preset(scenario_name), n_units, n_reps=400, seed=17
            )
            stats = run_cell(cfg).stats
            return stats["binary"].power, stats["sum"].power

        cess_binary, cess_sum = powers("cessation_only", 700)
        assert cess_binary > cess_sum
        red_binary, red_sum = powers("reduction_only", 2000)
        assert red_sum > red_binary


class TestLatentDiagnostics:
    def test_latent_sum_recorded(self):
        cfg = config("reduction_only", n_reps=20)
        reps = run_cell(cfg).reps
        assert np.all(reps.latent_sum_true <= 0.0)

    # latent changes whose row sums pass the int64 range keep their sign
    def test_huge_cessations_stay_non_positive(self):
        acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(2))
        big = 5 * 10**18
        table = SurveyTable(acts, np.array([[big, big], [0, 0], [big, 3], [1, 2]]), "counts")
        cfg = SimulationConfig(EmpiricalResampler(table), EffectScenario((0.0, 1.0, 0.0, 0.0)),
                               n_units=40, n_reps=4, seed=3)
        latent = run_cell(cfg).reps.latent_sum_true
        assert np.all(latent <= 0.0) and np.any(latent < -10**18)

    def test_huge_increases_stay_non_negative(self):
        cfg = SimulationConfig(example_model(), EffectScenario((0.0, 0.0, 0.0, 1.0), 2**61),
                               n_units=40, n_reps=4, seed=3)
        latent = run_cell(cfg).reps.latent_sum_true
        assert np.all(latent >= 0.0) and np.any(latent > 2**61)

    def test_latent_report_shows_count_scale_bias(self):
        # reductions of 2 inside the "a few times" category are invisible to
        # the coded sum, so the denormalized estimate understates the latent
        # count change
        cfg = config("reduction_only", n_units=900, n_reps=300)
        reps = run_cell(cfg).reps
        report = latent_summary(reps, n_items=3)
        assert report["mean_latent_count_ate"] < 0.0
        assert report["denormalized_sum_bias"] > 0.0
        assert report["denormalized_sum_coverage"] < 0.93
