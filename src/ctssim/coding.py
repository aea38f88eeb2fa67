"""Survey categorization of latent counts.

Counts are measured on the survey's frequency scale (0 = never, 1 = once,
2 = a few times (2-4), 3 = many times (5+)).  The two outcome codings,
binary (any item positive) and sum (the K category scores over their
maximum 3K), are computed from these categories by ``harness``.
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

