"""Property tests (hypothesis) of three invariants the simulation rests on.

* ``EmpiricalResampler`` imputes a latent count that categorizes back to
  the survey row it drew, for any category table and fitted margin.
* ``nearest_psd`` returns a valid correlation matrix, keeps a valid one
  unchanged, and returns its own output unchanged.
* Every potential-outcome schedule, from the replication kernel or from
  the reference stage functions, satisfies ``reference.check_schedule``.

The examples are derandomized, so a run tests the same cases every time.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctssim.coding import categorize
from ctssim.harness import CellKernel, SimulationConfig
from ctssim.ingest import EmpiricalResampler, SurveyTable
from ctssim.joint import ACT_CATEGORIES, SEVERITIES, ActSpec, MultiActModel, nearest_psd
from ctssim.marginals import MarginalParams
from ctssim.outcomes import TARGET_PRESETS, EffectScenario, target_columns

from helpers import replicate
from reference import (
    PotentialOutcomeTable,
    apply_effects,
    assign_response_types,
    check_schedule,
    randomize,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def margins(draw):
    rate = draw(st.floats(1e-3, 30.0))
    zero_prob = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return MarginalParams("zip", rate, zero_prob)
    return MarginalParams("zinb", rate, zero_prob, dispersion=draw(st.floats(0.2, 10.0)))


@st.composite
def act_lists(draw, max_acts=5):
    k = draw(st.integers(1, max_acts))
    return tuple(
        ActSpec(i + 1, f"act {i + 1}", draw(st.sampled_from(ACT_CATEGORIES)),
                draw(st.sampled_from(SEVERITIES)))
        for i in range(k)
    )


@st.composite
def symmetric_unit_diagonal(draw, k):
    upper = draw(arrays(np.float64, (k, k), elements=st.floats(-1.0, 1.0)))
    a = np.triu(upper, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return a


@st.composite
def scenarios(draw, acts):
    weights = draw(arrays(np.float64, 4, elements=st.floats(0.0, 1.0)))
    assume(weights.sum() > 0)
    target = draw(st.one_of(
        st.sampled_from(TARGET_PRESETS),
        st.lists(st.integers(1, len(acts)), min_size=1, max_size=len(acts)),
    ))
    scenario = EffectScenario(
        tuple(weights / weights.sum()),
        magnitude=draw(st.integers(1, 6)),
        target=target,
        floor=draw(st.sampled_from((0, 1))),
    )
    try:
        target_columns(acts, scenario.target)
    except ValueError:
        assume(False)  # a preset that selects none of these acts
    return scenario


class TestResamplerProperty:
    @PROPERTY
    @given(data=st.data(), k=st.integers(1, 4), n_rows=st.integers(1, 40),
           n=st.integers(1, 200), weighted=st.booleans(), seed=seeds)
    def test_imputation_recategorizes_to_drawn_row(self, data, k, n_rows, n, weighted, seed):
        values = data.draw(arrays(np.int64, (n_rows, k), elements=st.integers(0, 3)))
        weights = None
        if weighted:
            weights = data.draw(arrays(np.float64, n_rows, elements=st.floats(0.0, 10.0)))
            assume(weights.sum() > 0)
        acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(k))
        table = SurveyTable(acts, values, "categories", weights=weights)
        fitted = [data.draw(margins()) for _ in range(k)]
        drawn = EmpiricalResampler(table, margins=fitted).sample_control(
            n, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        if weights is None:
            rows = rng.integers(0, n_rows, size=n)
        else:
            rows = rng.choice(n_rows, size=n, p=weights / weights.sum())
        assert drawn.shape == (n, k) and drawn.min() >= 0
        assert np.array_equal(categorize(drawn), values[rows])


class TestNearestPsdProperty:
    @PROPERTY
    @given(data=st.data(), k=st.integers(2, 7))
    def test_output_valid_and_reprojection_stays_put(self, data, k):
        projected = nearest_psd(data.draw(symmetric_unit_diagonal(k)))
        assert np.array_equal(projected, projected.T)
        assert np.array_equal(np.diag(projected), np.ones(k))
        assert np.all(np.abs(projected) <= 1.0)
        MultiActModel(tuple(ActSpec(i + 1, "a", "physical", "severe") for i in range(k)),
                      (MarginalParams("zip", 1.0, 0.5),) * k, projected)
        assert np.array_equal(nearest_psd(projected), projected)

    @PROPERTY
    @given(factors=st.integers(2, 6).flatmap(
        lambda k: arrays(np.float64, (k, k + 2), elements=st.floats(-1.0, 1.0))))
    def test_valid_correlation_matrix_is_a_fixed_point(self, factors):
        cov = factors @ factors.T
        d = np.sqrt(np.diag(cov))
        assume(np.all(d > 1e-3))
        corr = cov / np.outer(d, d)
        corr = (corr + corr.T) / 2.0
        np.fill_diagonal(corr, 1.0)
        assume(np.linalg.eigvalsh(corr)[0] >= 1e-8)
        once = nearest_psd(corr)
        assert np.array_equal(once, corr)
        assert np.array_equal(nearest_psd(once), once)


class TestScheduleProperty:
    @PROPERTY
    @given(data=st.data(), acts=act_lists(), n_units=st.integers(4, 60), seed=seeds)
    def test_kernel_and_stage_schedules_pass_check(self, data, acts, n_units, seed):
        k = len(acts)
        scenario = data.draw(scenarios(acts))
        sigma = nearest_psd(data.draw(symmetric_unit_diagonal(k)))
        model = MultiActModel(acts, tuple(data.draw(margins()) for _ in acts), sigma)
        cfg = SimulationConfig(model, scenario, n_units=n_units, n_reps=1, seed=seed)
        rec = replicate(CellKernel(cfg), 0, return_schedule=True)
        check_schedule(rec["schedule"], scenario, acts)

        rng = np.random.default_rng(seed)
        y0 = data.draw(arrays(np.int64, (n_units, k),
                              elements=st.one_of(st.just(0), st.integers(0, 40))))
        s = assign_response_types(y0, scenario, acts, rng)
        y1 = apply_effects(y0, s, scenario, acts)
        check_schedule(PotentialOutcomeTable(y0, y1, s, randomize(n_units, rng)), scenario, acts)
