"""Survey categorization of latent counts and outcome coding strategies.

Counts are measured on the survey's frequency scale (0 = never, 1 = once,
2 = a few times (2-4), 3 = many times (5+)).  Two codings collapse the
K-item category vector to a single outcome per respondent:

* binary: indicator that any item is positive ("prevalence").
* sum: total of the K category scores, divided by the maximum 3K so the
  outcome lies in [0, 1] regardless of instrument length.
"""

from __future__ import annotations

import numpy as np

CATEGORY_BINS = (1, 2, 5)  # count thresholds for categories 1, 2, 3
MAX_CATEGORY = 3


def categorize(y) -> np.ndarray | int:
    """Collapse counts to categories: 0->0, 1->1, 2-4->2, >=5->3."""
    ya = np.asarray(y)
    if np.any(ya < 0):
        raise ValueError("counts must be non-negative")
    out = np.digitize(ya, CATEGORY_BINS)
    return int(out) if np.isscalar(y) else out


def _check_categories(values) -> np.ndarray:
    v = np.asarray(values)
    if v.size == 0:
        raise ValueError("empty category vector")
    if np.any((v < 0) | (v > MAX_CATEGORY)):
        raise ValueError(f"categories must lie in 0..{MAX_CATEGORY}")
    return v


def code_binary(categories) -> np.ndarray | float:
    """1.0 if any item category is positive, else 0.0.

    Accepts a length-K vector (one respondent) or an n x K matrix; the item
    axis is always the last one.
    """
    v = _check_categories(categories)
    out = np.any(v > 0, axis=-1).astype(float)
    return float(out) if out.ndim == 0 else out


def code_sum(categories) -> np.ndarray | float:
    """Sum of item categories normalized by the maximum score 3K."""
    v = _check_categories(categories)
    k = v.shape[-1]
    out = v.sum(axis=-1) / (MAX_CATEGORY * k)
    return float(out) if out.ndim == 0 else out
