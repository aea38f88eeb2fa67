"""Tests for survey categorization, and for the reference outcome codings
that the replication kernel is pinned to."""

import numpy as np
import pytest

from ctssim.coding import categorize

from reference import code_binary, code_sum


class TestCategorize:
    @pytest.mark.parametrize(
        "count,category",
        [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (17, 3)],
    )
    def test_breakpoints(self, count, category):
        assert categorize(count) == category

    def test_vectorized(self):
        assert np.array_equal(categorize([0, 1, 4, 5]), [0, 1, 2, 3])

    def test_monotone(self):
        y = np.arange(0, 40)
        c = categorize(y)
        assert np.all(np.diff(c) >= 0)

    def test_idempotent_on_low_categories(self):
        # only categories 0 and 1 are fixed points of re-coding; 2 and 3
        # describe count ranges, not counts
        assert categorize(0) == 0
        assert categorize(1) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            categorize(-1)


class TestCodeBinary:
    def test_all_zero(self):
        assert code_binary(np.zeros(10, dtype=int)) == 0.0

    def test_any_positive(self):
        v = np.zeros(10, dtype=int)
        v[2] = 2
        assert code_binary(v) == 1.0

    def test_table_fixture_cessation_arm(self):
        # a treated respondent whose violence fully ceased scores 0
        assert code_binary(np.array([0])) == 0.0

    def test_matrix_input(self):
        m = np.array([[0, 0, 0], [1, 0, 0], [0, 3, 2]])
        assert np.array_equal(code_binary(m), [0.0, 1.0, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            code_binary(np.array([0, 4]))
        with pytest.raises(ValueError):
            code_binary(np.array([-1, 2]))


class TestCodeSum:
    def test_all_zero(self):
        assert code_sum(np.zeros(10, dtype=int)) == 0.0

    def test_maximum_score(self):
        assert code_sum(np.full(10, 3)) == 1.0

    def test_partial_score(self):
        v = np.zeros(10, dtype=int)
        v[0], v[1] = 2, 1
        assert code_sum(v) == pytest.approx(3 / 30)

    def test_normalization_adapts_to_k(self):
        assert code_sum(np.full(5, 3)) == 1.0
        assert code_sum(np.array([3])) == 1.0


class TestInvariants:
    @pytest.fixture
    def random_category_matrix(self):
        rng = np.random.default_rng(3)
        return rng.integers(0, 4, size=(500, 10))

    def test_binary_is_indicator_of_sum(self, random_category_matrix):
        b = code_binary(random_category_matrix)
        s = code_sum(random_category_matrix)
        assert np.array_equal(b, (s > 0).astype(float))

    def test_zero_equivalence(self, random_category_matrix):
        b = code_binary(random_category_matrix)
        s = code_sum(random_category_matrix)
        assert np.array_equal(s == 0, b == 0)

    def test_monotonicity(self, random_category_matrix):
        rng = np.random.default_rng(4)
        v = random_category_matrix
        w = np.minimum(v + rng.integers(0, 2, size=v.shape), 3)
        assert np.all(code_sum(w) >= code_sum(v))
        assert np.all(code_binary(w) >= code_binary(v))

    def test_positive_preserving_changes_leave_binary_fixed(self):
        # a reduction that floors at 1 keeps every positive item positive
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=(300, 10))
        reduced = np.where(counts > 0, np.maximum(counts - 2, 1), 0)
        assert np.array_equal(
            code_binary(categorize(counts)), code_binary(categorize(reduced))
        )
