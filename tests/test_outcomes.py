"""Tests for potential-outcome schedules, response types, and randomization."""

import numpy as np
import pytest
from scipy import stats

from ctssim.coding import categorize
from ctssim.joint import ActSpec
from ctssim.outcomes import MAX_MAGNITUDE, EffectScenario, target_columns

from reference import (
    PotentialOutcomeTable,
    ResponseType,
    apply_effects,
    assign_response_types,
    check_schedule,
    randomize,
    true_estimands,
)

SINGLE_ACT = (ActSpec(1, "slapped you", "physical", "moderate"),)

MIXED_ACTS = (
    ActSpec(1, "slapped you", "physical", "moderate"),
    ActSpec(2, "pushed you", "physical", "moderate"),
    ActSpec(3, "hit you with a fist", "physical", "severe"),
    ActSpec(4, "forced sex", "sexual", "severe"),
    ActSpec(5, "coerced sex", "sexual", "severe"),
)


def scenario(probs=(0.7, 0.3, 0.0, 0.0), **kw):
    return EffectScenario(probs, **kw)


class TestScenarioValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EffectScenario((0.5, 0.2, 0.2, 0.2))

    def test_probs_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            EffectScenario((1.2, -0.2, 0.0, 0.0))

    def test_probs_must_not_be_nan(self):
        # NaN passes both a "< 0" test and a NaN sum's tolerance test
        with pytest.raises(ValueError):
            EffectScenario((np.nan, 0.0, 0.0, 1.0))

    def test_magnitude_positive_integer(self):
        with pytest.raises(ValueError):
            EffectScenario((1, 0, 0, 0), magnitude=0)

    def test_magnitude_bounded(self):
        assert EffectScenario((1, 0, 0, 0), magnitude=MAX_MAGNITUDE).magnitude == MAX_MAGNITUDE
        # the effect tables reach 2 * magnitude + 6, the int64 maximum at the bound
        assert 2 * MAX_MAGNITUDE + 6 <= np.iinfo(np.int64).max < 2 * (MAX_MAGNITUDE + 1) + 6
        with pytest.raises(ValueError, match=f"must be an integer from 1 to {MAX_MAGNITUDE}, got"):
            EffectScenario((1, 0, 0, 0), magnitude=MAX_MAGNITUDE + 1)

    @pytest.mark.parametrize("kw", [
        {"magnitude": True, "floor": True}, {"magnitude": True}, {"floor": True},
        {"floor": False}, {"magnitude": np.True_},
    ])
    def test_bool_magnitude_or_floor_rejected(self, kw):
        with pytest.raises(ValueError, match="got a bool"):
            EffectScenario((1, 0, 0, 0), **kw)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            EffectScenario((1, 0, 0, 0), target="verbal")

    def test_explicit_index_target(self):
        s = EffectScenario((1, 0, 0, 0), target=[1, 3])
        assert s.target == (1, 3)


class TestTargetColumns:
    def test_all(self):
        assert np.array_equal(target_columns(MIXED_ACTS, "all"), [0, 1, 2, 3, 4])

    def test_sexual(self):
        assert np.array_equal(target_columns(MIXED_ACTS, "sexual"), [3, 4])

    def test_moderate(self):
        assert np.array_equal(target_columns(MIXED_ACTS, "moderate"), [0, 1])

    def test_explicit_indices_are_one_based(self):
        assert np.array_equal(target_columns(MIXED_ACTS, (1, 5)), [0, 4])

    def test_unknown_index_errors(self):
        with pytest.raises(ValueError):
            target_columns(MIXED_ACTS, (9,))

    def test_repeated_index_errors(self):
        # a repeated act would count its effect twice in the replication kernel
        with pytest.raises(ValueError, match="repeats an act index"):
            target_columns(MIXED_ACTS, (2, 5, 2))

    def test_empty_selection_errors(self):
        with pytest.raises(ValueError):
            target_columns(SINGLE_ACT, "sexual")


class TestExamplePotentialOutcomes:
    """The canonical single-act example schedule with change magnitude 2."""

    Y0 = np.array([[0], [3], [5], [4], [1]])
    S = np.array(
        [
            ResponseType.NEVER_VIOLENT,
            ResponseType.NO_EFFECT,
            ResponseType.CESSATION,
            ResponseType.REDUCTION,
            ResponseType.INCREASE,
        ],
        dtype=np.int8,
    )
    Z = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    EXPECTED_Y1 = np.array([[0], [3], [0], [2], [3]])
    EXPECTED_CAT_Y1 = np.array([[0], [2], [0], [2], [2]])
    EXPECTED_CAT_Y0 = np.array([[0], [2], [3], [2], [1]])
    EXPECTED_CAT_OBSERVED = np.array([[0], [2], [0], [2], [2]])

    def test_reproduces_example_rows(self):
        y1 = apply_effects(self.Y0, self.S, scenario((0.25, 0.25, 0.25, 0.25)), SINGLE_ACT)
        assert np.array_equal(y1, self.EXPECTED_Y1)
        assert np.array_equal(categorize(y1), self.EXPECTED_CAT_Y1)
        assert np.array_equal(categorize(self.Y0), self.EXPECTED_CAT_Y0)
        table = PotentialOutcomeTable(self.Y0, y1, self.S, self.Z)
        assert np.array_equal(categorize(table.observed()), self.EXPECTED_CAT_OBSERVED)


class TestApplyEffects:
    def test_reduction_floors_at_one(self):
        y0 = np.array([[2]])
        s = np.array([ResponseType.REDUCTION], dtype=np.int8)
        y1 = apply_effects(y0, s, scenario((0, 0, 1, 0), magnitude=5), SINGLE_ACT)
        assert y1[0, 0] == 1

    def test_floor_zero_configurable(self):
        y0 = np.array([[2]])
        s = np.array([ResponseType.REDUCTION], dtype=np.int8)
        y1 = apply_effects(y0, s, scenario((0, 0, 1, 0), magnitude=5, floor=0), SINGLE_ACT)
        assert y1[0, 0] == 0

    def test_zero_entries_never_initiated(self):
        y0 = np.array([[0, 4, 0, 2, 0]])
        s = np.array([ResponseType.INCREASE], dtype=np.int8)
        y1 = apply_effects(y0, s, scenario((0, 0, 0, 1)), MIXED_ACTS)
        assert np.array_equal(y1, [[0, 6, 0, 4, 0]])

    def test_untargeted_acts_unchanged(self):
        y0 = np.array([[2, 3, 1, 4, 2], [1, 0, 0, 0, 3]])
        s = np.array([ResponseType.CESSATION, ResponseType.CESSATION], dtype=np.int8)
        y1 = apply_effects(y0, s, scenario((0, 1, 0, 0), target="sexual"), MIXED_ACTS)
        assert np.array_equal(y1[:, :3], y0[:, :3])
        assert np.all(y1[:, 3:] == 0)

    def test_inconsistent_labels_rejected(self):
        y0 = np.array([[0]])
        s = np.array([ResponseType.CESSATION], dtype=np.int8)
        with pytest.raises(ValueError, match="inconsistent"):
            apply_effects(y0, s, scenario((0, 1, 0, 0)), SINGLE_ACT)

    def test_no_initiation_invariant_random(self):
        rng = np.random.default_rng(21)
        y0 = rng.poisson(1.2, size=(400, 5)) * rng.integers(0, 2, size=(400, 5))
        sc = scenario((0.4, 0.2, 0.2, 0.2), target="physical")
        s = assign_response_types(y0, sc, MIXED_ACTS, rng)
        y1 = apply_effects(y0, s, sc, MIXED_ACTS)
        cols = target_columns(MIXED_ACTS, "physical")
        assert not np.any((y1[:, cols] > 0) & (y0[:, cols] == 0))
        table = PotentialOutcomeTable(y0, y1, s, np.zeros(len(y0), dtype=np.int8))
        check_schedule(table, sc, MIXED_ACTS)


class TestAssignResponseTypes:
    def test_all_no_effect(self):
        y0 = np.array([[1], [2], [0]])
        s = assign_response_types(y0, scenario((1, 0, 0, 0)), SINGLE_ACT, np.random.default_rng(0))
        assert list(s) == [ResponseType.NO_EFFECT, ResponseType.NO_EFFECT, ResponseType.NEVER_VIOLENT]

    def test_zero_rows_always_never_violent(self):
        y0 = np.zeros((50, 1), dtype=int)
        s = assign_response_types(y0, scenario((0, 0, 0, 1)), SINGLE_ACT, np.random.default_rng(1))
        assert np.all(s == ResponseType.NEVER_VIOLENT)

    def test_cessation_fraction_binomial(self):
        n = 100_000
        y0 = np.ones((n, 1), dtype=int)
        s = assign_response_types(y0, scenario((0.70, 0.30, 0, 0)), SINGLE_ACT, np.random.default_rng(2))
        frac = np.mean(s == ResponseType.CESSATION)
        assert abs(frac - 0.30) <= 0.006

    def test_type_frequencies_chisq(self):
        n = 100_000
        probs = (0.5, 0.2, 0.2, 0.1)
        y0 = np.ones((n, 1), dtype=int)
        s = assign_response_types(y0, scenario(probs), SINGLE_ACT, np.random.default_rng(3))
        observed = np.bincount(s, minlength=5)[1:]
        p = stats.chisquare(observed, np.array(probs) * n).pvalue
        assert p > 0.01

    def test_untargeted_violence_does_not_trigger_types(self):
        y0 = np.array([[3, 0, 0, 0, 0]])  # physical only
        sc = scenario((0, 1, 0, 0), target="sexual")
        s = assign_response_types(y0, sc, MIXED_ACTS, np.random.default_rng(4))
        assert s[0] == ResponseType.NEVER_VIOLENT


class TestTrueEstimands:
    def build_table(self, probs, rng_seed=5, target="all", floor=1):
        rng = np.random.default_rng(rng_seed)
        y0 = rng.poisson(1.5, size=(2000, 5)) * (rng.random((2000, 5)) < 0.45)
        sc = scenario(probs, target=target, floor=floor)
        s = assign_response_types(y0, sc, MIXED_ACTS, rng)
        y1 = apply_effects(y0, s, sc, MIXED_ACTS)
        z = randomize(2000, rng)
        return PotentialOutcomeTable(y0.astype(int), y1, s, z), s

    def test_no_effect_scenario_is_exact_zero(self):
        table, _ = self.build_table((1, 0, 0, 0))
        ates = true_estimands(table)
        assert ates["binary"] == 0.0
        assert ates["sum"] == 0.0

    def test_reduction_only_binary_zero(self):
        table, _ = self.build_table((0.7, 0, 0.3, 0))
        ates = true_estimands(table)
        assert ates["binary"] == 0.0
        assert ates["sum"] < 0.0

    def test_cessation_only_counting_oracle(self):
        table, s = self.build_table((0.7, 0.3, 0, 0))
        ates = true_estimands(table)
        expected = -np.mean(s == ResponseType.CESSATION)
        assert ates["binary"] == pytest.approx(expected, abs=1e-12)

    def test_sexual_target_leaves_physical_untouched(self):
        table, _ = self.build_table((0.5, 0.5, 0, 0), target="sexual")
        assert np.array_equal(table.y1[:, :3], table.y0[:, :3])

    def test_monotone_in_cessation_mass(self):
        # moving mass from no-effect to cessation weakly increases both |ATE|s
        rng = np.random.default_rng(6)
        y0 = rng.poisson(1.5, size=(3000, 5)) * (rng.random((3000, 5)) < 0.45)
        magnitudes = []
        for p_cess in (0.1, 0.3, 0.5):
            sc = scenario((1 - p_cess, p_cess, 0, 0))
            s = assign_response_types(y0, sc, MIXED_ACTS, np.random.default_rng(77))
            y1 = apply_effects(y0, s, sc, MIXED_ACTS)
            table = PotentialOutcomeTable(y0.astype(int), y1, s, np.zeros(3000, dtype=np.int8))
            ates = true_estimands(table)
            magnitudes.append((abs(ates["binary"]), abs(ates["sum"])))
        assert magnitudes[0][0] <= magnitudes[1][0] <= magnitudes[2][0]
        assert magnitudes[0][1] <= magnitudes[1][1] <= magnitudes[2][1]


class TestRandomize:
    def test_exact_split_even(self):
        z = randomize(4, np.random.default_rng(0))
        assert z.sum() == 2

    def test_design_size_half_treated(self):
        z = randomize(1680, np.random.default_rng(1))
        assert z.sum() == 840

    def test_odd_n_floors(self):
        z = randomize(7, np.random.default_rng(2))
        assert z.sum() == 3

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            randomize(1, np.random.default_rng(3))

    def test_each_unit_treated_half_the_time(self):
        n, reps = 10, 10_000
        rng = np.random.default_rng(4)
        totals = np.zeros(n)
        for _ in range(reps):
            totals += randomize(n, rng)
        freq = totals / reps
        assert np.all(np.abs(freq - 0.5) <= 0.02)


class TestReveal:
    def test_reveal_rule(self):
        y0 = np.array([[1], [2], [3], [4]])
        y1 = np.array([[0], [0], [0], [0]])
        z = np.array([1, 0, 1, 0], dtype=np.int8)
        s = np.full(4, ResponseType.CESSATION, dtype=np.int8)
        table = PotentialOutcomeTable(y0, y1, s, z)
        assert np.array_equal(table.observed(), [[0], [2], [0], [4]])
