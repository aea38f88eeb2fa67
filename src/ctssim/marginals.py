"""Single-act zero-inflated count margins: CDF tables, category masses, fits.

A marginal is a two-part mixture: with probability ``zero_prob`` the count is
a structural zero (a "nonviolent" relationship), otherwise it is drawn from a
Poisson or negative-binomial count distribution with mean ``rate``.

Negative-binomial parameterization: mean ``rate``, dispersion ``dispersion``,
variance ``rate + rate**2 / dispersion``.  As ``dispersion`` grows the
negative binomial converges to the Poisson with the same mean.

``fit`` and ``simulate`` use a margin's CDF table (``cdf_table``), its survey
category masses (``category_masses``) and its fits (``fit_mle_*``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import digamma, gammaln, pdtr, pdtrc, pdtrik, xlog1py, xlogy

# The Boost negative-binomial ufuncs that scipy.stats.nbinom dispatches to.
# scipy exposes them only privately; tests/test_kernel.py pins every value
# computed from them to scipy.stats bit for bit.
from scipy.special._ufuncs import _nbinom_cdf, _nbinom_isf, _nbinom_pmf, _nbinom_sf

ZIP = "zip"
ZINB = "zinb"
FAMILIES = (ZIP, ZINB)

# The longest CDF table ``cdf_table`` builds: 32 MiB of float64.  A Poisson
# margin at the fit's largest rate, exp(15), needs about 3.3e6 entries.
CDF_TABLE_MAX = 2**22
# A CDF table ends where the tail beyond its last count holds less than this mass
CDF_TAIL_MASS = 1e-12

COUNT_CELLS_MAX = 64  # bounds a pair's latent correlation quadrature at 12 * 64 * 64 entries

# Interval-censored survey categories: 0 -> {0}, 1 -> {1}, 2 -> {2..4}, 3 -> {5+}
N_CATEGORIES = 4

# A censored ZINB fit is converged when a start that L-BFGS-B reports successful
# ends this close (relative) to the best objective; the best start itself may
# end in an abnormal line search at the optimum.
_CONVERGED_RTOL = 1e-10


@dataclass(frozen=True)
class MarginalParams:
    """Parameters of a single-act zero-inflated count distribution.

    Attributes:
        family: "zip" (zero-inflated Poisson) or "zinb" (zero-inflated
            negative binomial).
        rate: mean count among the non-structural-zero ("violent")
            subpopulation; must be positive.
        zero_prob: probability of a structural zero, in [0, 1].
        dispersion: negative-binomial dispersion, required iff family is
            "zinb"; variance among the violent subpopulation is
            rate + rate**2 / dispersion.
    """

    family: str
    rate: float
    zero_prob: float
    dispersion: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not (0.0 <= self.zero_prob <= 1.0):
            raise ValueError(f"zero_prob must be in [0, 1], got {self.zero_prob}")
        if self.family == ZINB:
            if self.dispersion is None or not (
                math.isfinite(self.dispersion) and self.dispersion > 0
            ):
                raise ValueError(f"zinb requires positive dispersion, got {self.dispersion}")
        elif self.dispersion is not None:
            raise ValueError("dispersion is only meaningful for family 'zinb'")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``degenerate`` marks data with no positive counts: ``zero_prob`` is pinned
    at 1 and ``rate`` is NOT identified (the reported value is a placeholder).
    ``boundary_flag`` marks fits with zero_prob > 0.999 or fewer than 5
    positives, where estimates are unreliable; fits with zero_prob clipped to
    0; ZIP fits with no finite rate; and exact ZINB fits that take ZIP's
    estimate.  ``converged`` and ``n_iter`` describe ZIP's rate roots (all
    bracketed; Brent iterations), an exact ZINB fit's L-BFGS-B runs (all
    successful; their iterations), or a censored ZINB fit's three starts (one
    successful within _CONVERGED_RTOL of the best objective; the best's).
    """

    params: MarginalParams
    loglik: float
    converged: bool
    degenerate: bool
    boundary_flag: bool
    n_iter: int


def _as_counts(values) -> np.ndarray:
    y = np.asarray(values)
    if y.size == 0:
        raise ValueError("empty sample")
    if not np.issubdtype(y.dtype, np.integer):
        yi = np.asarray(values, dtype=np.int64)
        if not np.array_equal(yi, y):
            raise ValueError("counts must be integers")
        y = yi
    if np.any(y < 0):
        raise ValueError("counts must be non-negative")
    return y.astype(np.int64)


# ---------------------------------------------------------------------------
# Count-part kernel
#
# pmf, cdf, sf and isf of the Poisson / negative-binomial count part, from the
# special-function ufuncs that scipy.stats.poisson and scipy.stats.nbinom
# dispatch to, combined the way scipy combines them: every value equals the
# frozen-distribution call bit for bit, at a small fraction of its cost.


# gammaln(y + 1.0), not y + 1: an int64 count of 2**63 - 1 plus 1 wraps to a negative
def _poisson_logpmf(y, mu):
    return xlogy(y, mu) - gammaln(y + 1.0) - mu


def _nbinom_logpmf(y, n, p):
    coeff = gammaln(n + y) - gammaln(y + 1.0) - gammaln(n)
    return coeff + n * np.log(p) + xlog1py(y, -p)


def _poisson_isf(q, mu):
    # scipy's poisson._ppf at 1 - q
    q = 1.0 - q
    vals = np.ceil(pdtrik(q, mu))
    vals1 = np.maximum(vals - 1, 0)
    return np.where(pdtr(vals1, mu) >= q, vals1, vals)


def _quiet_nbinom_isf(q, n, p):
    with np.errstate(over="ignore"):
        return _nbinom_isf(q, n, p)


_COUNT_UFUNCS = {
    (ZIP, "pmf"): lambda y, mu: np.exp(_poisson_logpmf(y, mu)),
    (ZIP, "cdf"): lambda y, mu: pdtr(np.floor(y), mu),
    (ZIP, "sf"): lambda y, mu: pdtrc(np.floor(y), mu),
    (ZIP, "isf"): _poisson_isf,
    (ZINB, "pmf"): _nbinom_pmf,
    (ZINB, "cdf"): lambda y, n, p: _nbinom_cdf(np.floor(y), n, p),
    (ZINB, "sf"): lambda y, n, p: _nbinom_sf(np.floor(y), n, p),
    (ZINB, "isf"): _quiet_nbinom_isf,
}


def _count_shape(family: str, rate, dispersion):
    """scipy's shape arguments of a count part: scalars or arrays."""
    return (rate,) if family == ZIP else (dispersion, dispersion / (dispersion + rate))


def _unit_clip(p: np.ndarray) -> np.ndarray:  # as scipy.stats clips pmf, cdf and sf
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _count(params: MarginalParams, kind: str, y):
    """``kind`` ("pmf", "cdf", "sf" or "isf") of the count part at ``y``.

    pmf, cdf and sf take non-negative integer counts and are clipped to
    [0, 1]; isf takes tail probabilities in (0, 1).
    """
    shape = _count_shape(params.family, params.rate, params.dispersion)
    out = _COUNT_UFUNCS[params.family, kind](np.asarray(y, dtype=float), *shape)
    return out if kind == "isf" else _unit_clip(out)


def cdf_table_size(params: MarginalParams) -> int:
    """The number of entries of ``cdf_table(params)``.  Raises ValueError,
    naming ``params``, when it would pass CDF_TABLE_MAX."""
    theta = params.zero_prob
    if theta >= 1.0:
        return 1
    q = CDF_TAIL_MASS / (1.0 - theta)
    # a count part whose whole mass is below the tail keeps only y = 0 (scipy's
    # isf(1) is -1).  Far past the limit scipy's quantile turns NaN (Poisson rate
    # 1e12) or stalls (NB rate 1e150): a tail that reaches 2**53 fails as NaN.
    if q >= 1.0:
        isf = -1.0
    else:
        isf = math.nan if _count(params, "sf", 2.0**53) > q else _count(params, "isf", q)
    if not math.isfinite(isf):
        raise ValueError(f"{params} needs a CDF table to tail mass {CDF_TAIL_MASS:g} longer than "
                         f"the limit of {CDF_TABLE_MAX}: its tail quantile cannot be computed")
    if isf + 2 > CDF_TABLE_MAX:
        raise ValueError(f"{params} needs a CDF table of {isf + 2:.6g} entries to tail mass "
                         f"{CDF_TAIL_MASS:g}, more than the limit of {CDF_TABLE_MAX}")
    return int(isf) + 2


def cdf_table(params: MarginalParams) -> np.ndarray:
    """CDF values [cdf(0), cdf(1), ...] truncated where the tail is below
    CDF_TAIL_MASS.  Entry i is P(Y <= i); the last entry is ~1.  A table
    longer than CDF_TABLE_MAX entries is refused (``cdf_table_size``).

    Used for O(1) inverse-transform sampling via ``np.searchsorted``.
    """
    size = cdf_table_size(params)
    theta = params.zero_prob
    if theta >= 1.0:
        return np.array([1.0])
    return theta + (1.0 - theta) * _count(params, "cdf", np.arange(size))


def count_cells(params: MarginalParams, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell of each of an act's ``counts``, and each cell's probability.
    Each count up to 5 has its own cell, and so does each count up to the
    largest when that is below COUNT_CELLS_MAX; otherwise cells past 5 start
    at quantiles geometric in tail mass down to the largest count, floor 1e-10.
    The largest count's cell holds the tail."""
    largest = int(counts.max())
    if largest < COUNT_CELLS_MAX:
        starts = np.arange(largest + 1.0)
    else:
        tail = np.maximum(_count(params, "sf", [5, largest]), 1e-10)
        levels = np.geomspace(*tail, COUNT_CELLS_MAX - 6, endpoint=False)[1:]
        starts = np.unique(np.r_[0:7, np.minimum(_count(params, "isf", levels) + 1, largest)])
    cum = params.zero_prob + (1.0 - params.zero_prob) * _count(params, "cdf", starts[1:] - 1)
    return np.searchsorted(starts, counts, side="right") - 1, np.diff(cum, prepend=0.0, append=1.0)


# ---------------------------------------------------------------------------
# Log-likelihoods


def _exact_loglik(params: MarginalParams, values: np.ndarray, weights: np.ndarray) -> float:
    """The log-likelihood of the counts ``values``, each weighted by ``weights``."""
    shape = _count_shape(params.family, params.rate, params.dispersion)
    log_pmf = (_poisson_logpmf if params.family == ZIP else _nbinom_logpmf)(values, *shape)
    with np.errstate(divide="ignore"):  # log 0 at zero_prob 0 or 1
        log_mass = np.log1p(-params.zero_prob) + log_pmf
        zero = values == 0
        log_mass[zero] = np.logaddexp(np.log(params.zero_prob), log_mass[zero])
    return float(weights @ log_mass)


_PMF_POINTS, _SF_POINTS = np.array([0.0, 1.0]), np.array([1.0, 4.0])


def category_masses(family: str, rate, zero_prob, dispersion=None) -> np.ndarray:
    """Interval masses of the 4 survey categories, {0}, {1}, {2..4} and {5+},
    at each point of the scalars or 1-D arrays ``rate``, ``zero_prob`` and,
    for ZINB, ``dispersion``: a 4-array per point, in the last axis."""
    k = None if dispersion is None else np.asarray(dispersion, dtype=float)[..., None]
    shape = _count_shape(family, np.asarray(rate, dtype=float)[..., None], k)
    g0, g1 = _unit_clip(_COUNT_UFUNCS[family, "pmf"](_PMF_POINTS, *shape)).T
    sf1, sf4 = _unit_clip(_COUNT_UFUNCS[family, "sf"](_SF_POINTS, *shape)).T
    w = 1.0 - zero_prob
    # survival-form difference keeps the {2..4} cell accurate for small rates
    return np.array([zero_prob + w * g0, w * g1, w * (sf1 - sf4), w * sf4]).T


def category_probs(params: MarginalParams) -> np.ndarray:
    """``category_masses`` of one margin: a 4-array."""
    return category_masses(params.family, params.rate, params.zero_prob, params.dispersion)


def _multinomial_loglik(masses: np.ndarray, n: np.ndarray):
    """The log-likelihood of the histogram ``n`` at each row of ``masses``."""
    return (n * np.log(np.maximum(masses, 1e-300))).sum(axis=-1)


def censored_loglik(params: MarginalParams, category_counts) -> float:
    """Multinomial log-likelihood of a histogram over the 4 categories."""
    n = np.asarray(category_counts, dtype=float)
    if n.shape != (N_CATEGORIES,):
        raise ValueError(f"expected {N_CATEGORIES} category counts, got shape {n.shape}")
    return float(_multinomial_loglik(category_probs(params), n))


# ---------------------------------------------------------------------------
# Fitting


# The ZINB fits' bound on log rate, where a ZIP rate with no finite maximum
# (positive counts only in category 3, {5+}) ends.
_MAX_RATE = math.exp(15.0)


def _rate_root(score, lo: float, hi: float | None) -> tuple[float, bool, int]:
    """(root, converged, iterations) of a score that is positive below its
    roots and negative above them, all of which lie in [lo, hi].  A bracket
    end where the score already has the far side's sign is a root to
    rounding; lo <= 0 means no positive root (0), and ``hi`` None a score
    that stays positive (_MAX_RATE, unconverged)."""
    if lo <= 0.0 or not score(lo) > 0.0:
        return max(lo, 0.0), True, 0
    if hi is None:
        return _MAX_RATE, False, 0
    if not score(hi) < 0.0:
        return hi, True, 0
    # relative tolerance alone: rates span many orders of magnitude
    rate, res = optimize.brentq(score, lo, hi, xtol=1e-300, full_output=True, disp=False)
    return rate, res.converged, res.iterations


def _fit_zip(q: float, positive_mean, mean_lo: float, mean_hi: float, slope: float):
    """ZIP maximum likelihood, zero_prob profiled out: (params, converged,
    boundary, root iterations).

    With q = P(Y > 0) = (1 - zero_prob)(1 - e^-rate), the log-likelihood is
    n_0 log(1 - q) + n_+ log q plus the zero-truncated Poisson log-likelihood
    of the positive data, which depends on the rate alone (Mullahy, J
    Econometrics 33:341-365, 1986).  So q-hat is the positive share ``q``,
    and zero_prob = 1 - q / (1 - e^-rate).  As d/dlam log P(lo <= Y <= hi)
    = (pmf(lo - 1) - pmf(hi)) / P(lo <= Y <= hi) = E[Y | lo <= Y <= hi] / lam
    - 1, the truncated score vanishes where lam = ybar(lam) (1 - e^-lam), for
    ybar = ``positive_mean`` the mean of the positive counts: observed for
    exact counts (singleton cells), expected given the categories for a
    histogram.  As mean_lo <= ybar(lam) <= mean_hi + slope * lam, its roots
    lie in [mean_lo - 1, mean_hi / (1 - slope)].  Where zero_prob would be
    negative, the maximum is the plain Poisson (zero_prob = 0), whose roots
    of lam = q ybar(lam) lie in [q mean_lo, q mean_hi / (1 - q slope)];
    ``boundary`` is set then, and for a rate left at _MAX_RATE.
    """

    def upper(c: float) -> float | None:
        return c * mean_hi / (1.0 - c * slope) if c * slope < 1.0 else None

    rate, converged, n_iter = _rate_root(
        lambda lam: positive_mean(lam) * -math.expm1(-lam) / lam - 1.0, mean_lo - 1.0, upper(1.0)
    )
    share = -math.expm1(-rate)
    if q <= share:
        return MarginalParams(ZIP, rate, 1.0 - q / share), converged, not converged, n_iter
    rate, poisson_converged, more = _rate_root(
        lambda lam: q * positive_mean(lam) / lam - 1.0, q * mean_lo, upper(q)
    )
    return MarginalParams(ZIP, rate, 0.0), converged and poisson_converged, True, n_iter + more


# L-BFGS-B bounds on (log rate, log dispersion, logit zero_prob)
_ZINB_BOUNDS = [(-10.0, 15.0), (-10.0, 20.0), (-30.0, 30.0)]
_ZINB_UPPER = np.array([hi for _, hi in _ZINB_BOUNDS])
_LBFGS_OPTIONS = {"ftol": 1e-12, "gtol": 1e-10, "maxiter": 500}

# L-BFGS-B's default finite-difference step, ``minimize``'s ``eps``
_FD_STEP = 1e-8


def _fd_step(x: np.ndarray) -> np.ndarray:
    """The forward-difference step scipy takes at ``x`` within _ZINB_BOUNDS:
    +eps, or -eps where x + eps would pass the upper bound."""
    return np.where(x + _FD_STEP > _ZINB_UPPER, -_FD_STEP, _FD_STEP)


def _fit_zinb(n: np.ndarray, x0: list) -> tuple[MarginalParams, float, bool, int]:
    """Maximize the ZINB log-likelihood of the category histogram ``n`` by
    L-BFGS-B over (log rate, log dispersion, logit zero_prob) from each start
    in ``x0``.

    Each L-BFGS-B step evaluates the category masses once, on (4,) arrays:
    at x and at x + h_i e_i for i = 0, 1, 2.  It takes the forward-difference
    gradient g_i = (f(x + h_i e_i) - f(x)) / ((x_i + h_i) - x_i).  That is
    bit for bit the gradient scipy computes when ``minimize`` gets no
    ``jac``: ``scipy/optimize/_numdiff.py::approx_derivative`` with the
    absolute step eps = 1e-8, adjusted to the bounds by
    ``_adjust_scheme_to_bounds``, from four scalar calls.  Within
    _ZINB_BOUNDS that rule is ``_fd_step``.  Its other branches cannot occur
    here: a zero step needs |x| > 1e8, and a step that fits on neither side
    needs a bound width below 1e-8, but every bound is at most 30 in
    magnitude and every width at least 25.

    The gradient is not analytic, and the starts stay, on purpose: either
    change moves the L-BFGS-B path, and with it the tie-break between the
    starts that the benchmark's reference fit pins (ROADMAP).
    """
    axis = np.arange(3)

    def objective_and_gradient(x):
        h = _fd_step(x)
        points = np.repeat(x[None, :], 4, axis=0)
        points[axis + 1, axis] = x + h
        rate, dispersion, zero_prob = np.array(
            [(math.exp(a), math.exp(b), _expit(c)) for a, b, c in points.tolist()]
        ).T
        f = -_multinomial_loglik(category_masses(ZINB, rate, zero_prob, dispersion), n)
        return f[0], (f[1:] - f[0]) / ((x + h) - x)

    results = [
        optimize.minimize(
            objective_and_gradient,
            np.asarray(start, dtype=float),
            jac=True,
            method="L-BFGS-B",
            bounds=_ZINB_BOUNDS,
            options=_LBFGS_OPTIONS,
        )
        for start in x0
    ]
    best = min(results, key=lambda res: res.fun)
    converged = any(
        res.success and res.fun - best.fun <= _CONVERGED_RTOL * abs(best.fun) for res in results
    )
    x = best.x
    params = MarginalParams(ZINB, math.exp(x[0]), 1.0 / (1.0 + math.exp(-x[2])), math.exp(x[1]))
    return params, -float(best.fun), converged, int(best.nit)


def _fit_nb(values: np.ndarray, weights: np.ndarray, truncated: bool):
    """(rate, dispersion k, converged, iterations) maximizing the weighted NB
    log-likelihood of ``values``, zero-truncated when ``truncated``: one L-BFGS-B
    run in (log rate, log k) from the moment start, with the analytic gradient.
    Truncation adds g0 / (1 - g0) times the gradient of log g0 = k log(k / (k + rate))."""
    total = float(np.sum(weights))
    mean = float(weights @ values) / total
    var = float(weights @ (values - mean) ** 2) / total
    disp0 = min(max(mean * mean / max(var - mean, 0.1 * mean), 1e-2), 1e4)

    def objective_and_gradient(x):
        rate, k = math.exp(x[0]), math.exp(x[1])
        log_p, share = -math.log1p(rate / k), rate / (k + rate)
        ll = _exact_loglik(MarginalParams(ZINB, rate, 0.0, k), values, weights)
        psi = float(weights @ (digamma(values + k) - digamma(k))) / total
        grad = total * k * np.array([(mean - rate) / (k + rate),
                                     psi + log_p + share - mean / (k + rate)])
        if truncated:
            log_g0 = k * log_p
            ll -= total * math.log(-math.expm1(log_g0))
            grad -= total * k / math.expm1(-log_g0) * np.array([share, -log_p - share])
        return -ll, -grad

    res = optimize.minimize(objective_and_gradient, [math.log(mean), math.log(disp0)], jac=True,
                            method="L-BFGS-B", bounds=_ZINB_BOUNDS[:2], options=_LBFGS_OPTIONS)
    return math.exp(res.x[0]), math.exp(res.x[1]), bool(res.success), int(res.nit)


def fit_mle_exact(values, family: str = ZIP, weights=None) -> FitResult:
    """Maximum-likelihood fit of a zero-inflated model to exact counts.

    All-zero data yield a degenerate result (zero_prob = 1, rate not
    identified) rather than a silent estimate.  Optional ``weights`` scale
    each observation's log-likelihood contribution.

    Both families profile zero_prob out as ``_fit_zip`` describes, ZINB by
    ``_fit_nb``.  Where the positives are not over-dispersed, ZINB takes the
    ZIP fit with dispersion e^20: where the score in 1 / dispersion at 0 and
    the truncated Poisson rate lam, n_+ (m2 - ybar (1 + lam)) / 2 for the
    positives' mean ybar and mean square m2, is <= 0, that is where the
    truncated Poisson score (falling in lam) is >= 0 at m2 / ybar - 1.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    y = _as_counts(values)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape or np.any(w < 0) or np.sum(w) <= 0:
        raise ValueError("weights must be non-negative with positive total")
    n_pos = float(np.sum(w[y > 0]))
    if n_pos == 0:
        params = MarginalParams(family, 1.0, 1.0, dispersion=1.0 if family == ZINB else None)
        return FitResult(params, 0.0, True, True, True, 0)

    q, mean_pos = n_pos / float(np.sum(w)), float(np.sum(w * y)) / n_pos
    params, converged, boundary, n_iter = _fit_zip(q, lambda lam: mean_pos, mean_pos, mean_pos, 0.0)
    values, rows = np.unique(y[w > 0], return_inverse=True)  # summed weights, all positive
    weights = np.bincount(rows, weights=w[w > 0])
    if family == ZINB:
        c = float(weights @ np.square(values, dtype=float)) / n_pos / mean_pos - 1.0
        if c > 0.0 and mean_pos * -math.expm1(-c) < c:  # over-dispersed positives
            rate, k, converged, n_iter = _fit_nb(values[values > 0], weights[values > 0], True)
            share = -math.expm1(-k * math.log1p(rate / k))  # 1 - g0
            boundary = q > share
            if boundary:
                rate, k, nb_converged, more = _fit_nb(values, weights, False)
                converged, n_iter = converged and nb_converged, n_iter + more
            params = MarginalParams(ZINB, rate, 0.0 if boundary else 1.0 - q / share, k)
        else:
            params = MarginalParams(ZINB, params.rate, params.zero_prob, math.exp(20.0))
            boundary = True
    ll = _exact_loglik(params, values, weights)
    boundary = boundary or params.zero_prob > 0.999 or n_pos < 5
    return FitResult(params, ll, converged, False, boundary, n_iter)


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x > -700 else 0.0


def fit_mle_censored(category_counts, family: str = ZIP) -> FitResult:
    """Fit a zero-inflated model to an interval-censored category histogram.

    ``category_counts`` is a length-4 histogram over the survey categories
    (counts may be non-integer when rows are weighted).  A histogram with all
    mass in category 0 is degenerate.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n = np.asarray(category_counts, dtype=float)
    if n.shape != (N_CATEGORIES,):
        raise ValueError(f"expected {N_CATEGORIES} category counts")
    if np.any(n < 0) or np.sum(n) <= 0:
        raise ValueError("category counts must be non-negative with positive total")
    n_pos = float(np.sum(n[1:]))
    if n_pos == 0:
        params = MarginalParams(family, 1.0, 1.0, dispersion=1.0 if family == ZINB else None)
        return FitResult(params, 0.0, True, True, True, 0)

    boundary = False
    if family == ZIP:
        def positive_mean(lam):  # E[Y | category] of Poisson(lam), over categories 1..3
            # {2..4}: (2 p2 + 3 p3 + 4 p4) / (p2 + p3 + p4), p3 / p2 = lam / 3, p4 / p2 = lam^2 / 12
            mid = (2.0 + lam + lam * lam / 3.0) / (1.0 + lam / 3.0 + lam * lam / 12.0)
            top = lam * pdtrc(3, lam) / pdtrc(4, lam)  # {5+}: lam P(Y >= 4) / P(Y >= 5)
            return float(n[1] + n[2] * mid + n[3] * top) / n_pos

        # the conditional means of {1}, {2..4} and {5+} lie in [1, 1], [2, 4], [5, 5 + lam]
        params, converged, boundary, n_iter = _fit_zip(
            n_pos / float(np.sum(n)),
            positive_mean,
            float(n[1] + 2.0 * n[2] + 5.0 * n[3]) / n_pos,
            float(n[1] + 4.0 * n[2] + 5.0 * n[3]) / n_pos,
            float(n[3]) / n_pos,
        )
        ll = censored_loglik(params, n)
    else:
        # start from category midpoints (0, 1, 3, 7) among positives
        rate0 = max(float(np.sum(n * [0.0, 1.0, 3.0, 7.0]) / n_pos), 1e-3)
        g0 = math.exp(-rate0)
        theta0 = min(max((float(n[0] / np.sum(n)) - g0) / (1.0 - g0), 1e-6), 1.0 - 1e-6)
        logit0 = math.log(theta0 / (1.0 - theta0))
        starts = [
            [math.log(rate0), 0.0, logit0],
            [math.log(rate0), math.log(1e4), logit0],
            [math.log(rate0 * 2), math.log(0.3), logit0],
        ]
        params, ll, converged, n_iter = _fit_zinb(n, starts)
    boundary = boundary or params.zero_prob > 0.999 or n_pos < 5
    return FitResult(params, ll, converged, False, boundary, n_iter)
