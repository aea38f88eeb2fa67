"""Difference-in-means estimation with HC2-robust standard errors.

The average treatment effect is estimated by least squares of the outcome
on the assignment indicator; the slope equals the difference in arm means.
For a binary regressor the HC2 sandwich variance reduces exactly to the
two-sample Neyman form s1^2/n1 + s0^2/n0 with (n-1)-denominator arm
variances, which ``hc2_from_moments`` computes from each arm's moments,
for a whole block of replications and codings in one call: every moment
and result is an array with one entry per replication and coding.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit


def _mean_var(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y.mean(-1)`` and ``y.var(-1, ddof=1)``, row by row along the last
    axis, computed as numpy computes them for one row (one pairwise sum
    for the mean, one for the squared deviations), but sharing the mean."""
    n = y.shape[-1]
    mean = y.sum(axis=-1) / n
    dev = y - mean[..., None]
    dev *= dev
    return mean, dev.sum(axis=-1) / (n - 1)


def hc2_from_moments(m1: np.ndarray, v1: np.ndarray, n1: int, m0: np.ndarray, v0: np.ndarray,
                     n0: int, alpha: float = 0.05, df: str = "normal") -> tuple[np.ndarray, ...]:
    """(estimate, se, ci_low, ci_high, p_value) from pairs of arms'
    ``_mean_var``: treated (m1, v1) of size n1 and control (m0, v0) of size
    n0, each size >= 2.  The moments are arrays of one shape, one entry per
    pair, and so are the results.

    The CI level is 1 - alpha.  ``df`` is "normal" for z critical values,
    or "welch" for a t reference with Welch-Satterthwaite degrees of
    freedom.  Where both arm variances are zero the se is 0, the CI
    collapses to the estimate, and p is 1 for a zero estimate and 0
    otherwise.
    """
    tau = m1 - m0
    w1, w0 = v1 / n1, v0 / n0
    var = w1 + w0
    se = np.sqrt(var)
    degenerate = se == 0.0
    # the degenerate rows divide by zero here; np.where replaces them below
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = tau / se
        if df == "welch":
            # float_power is C pow, as a Python float's ** is; x * x can
            # differ from it in the last bit
            dof = np.float_power(var, 2.0) / (
                np.float_power(w1, 2.0) / (n1 - 1) + np.float_power(w0, 2.0) / (n0 - 1))
            crit = stdtrit(dof, 1.0 - alpha / 2.0)
            p = 2.0 * stdtr(dof, -np.abs(t_stat))
        else:
            crit = ndtri(1.0 - alpha / 2.0)
            p = 2.0 * ndtr(-np.abs(t_stat))
        half = crit * se
    return (tau, se, np.where(degenerate, tau, tau - half), np.where(degenerate, tau, tau + half),
            np.where(degenerate, tau == 0.0, p))
