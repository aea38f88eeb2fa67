"""Difference-in-means estimation with HC2-robust standard errors.

The average treatment effect is estimated by least squares of the outcome
on the assignment indicator; the slope equals the difference in arm means.
For a binary regressor the HC2 sandwich variance reduces exactly to the
two-sample Neyman form s1^2/n1 + s0^2/n0 with (n-1)-denominator arm
variances, which ``hc2_from_moments`` computes from each arm's moments.
"""

from __future__ import annotations

import math

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


def z_critical(alpha: float) -> float:
    """The two-sided normal critical value at level 1 - alpha."""
    return float(ndtri(1.0 - alpha / 2.0))


def hc2_from_moments(m1: float, v1: float, n1: int, m0: float, v0: float, n0: int,
                     alpha: float = 0.05, df: str = "normal",
                     z_crit: float | None = None) -> tuple[float, float, float, float, float]:
    """(estimate, se, ci_low, ci_high, p_value) from each arm's ``_mean_var``
    and size: treated (m1, v1, n1) and control (m0, v0, n0), each n >= 2.

    The CI level is 1 - alpha.  ``df`` is "normal" for z critical values,
    or "welch" for a t reference with Welch-Satterthwaite degrees of
    freedom.  ``z_crit``, when given, is ``z_critical(alpha)``, which a
    caller with many estimates at one alpha computes once.
    With both arm variances zero the se is 0, the CI collapses to the
    estimate, and p is 1 for a zero estimate and 0 otherwise.
    """
    tau = float(m1 - m0)
    se = math.sqrt(v1 / n1 + v0 / n0)
    if se == 0.0:
        return tau, 0.0, tau, tau, (1.0 if tau == 0.0 else 0.0)

    t_stat = tau / se
    # Python-float arithmetic throughout: numpy's array ** 2 can differ
    # from a float's ** 2 in the last bit
    if df == "welch":
        num = (v1 / n1 + v0 / n0) ** 2
        den = (v1 / n1) ** 2 / (n1 - 1) + (v0 / n0) ** 2 / (n0 - 1)
        dof = num / den
        crit = float(stdtrit(dof, 1.0 - alpha / 2.0))
        p = float(2.0 * stdtr(dof, -abs(t_stat)))
    else:
        crit = z_critical(alpha) if z_crit is None else z_crit
        p = float(2.0 * ndtr(-abs(t_stat)))
    return tau, se, tau - crit * se, tau + crit * se, p

