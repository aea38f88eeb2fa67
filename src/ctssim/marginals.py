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
from scipy.special import digamma, gammaln, pdtr, pdtrc, pdtrik, xlog1py, xlogy

# scipy's L-BFGS-B routine (Byrd, Lu, Nocedal & Zhu, SIAM J Sci Comput
# 16:1190-1208, 1995): the exact NB fit runs it through ``minimize``, the
# censored ZINB fit through ``_lbfgsb_lockstep``, which drives the private
# ``setulb`` in reverse communication so that one objective call serves every
# run that waits.  ``setulb``'s signature has changed between releases (the
# Fortran to C port dropped ``csave`` and added ``ln_task``), so a scipy that
# changes it again breaks every censored ZINB fit with a TypeError;
# pyproject.toml caps scipy at the minor release tested.  TestLbfgsbLockstep
# and TestZinbFitMatchesReference in tests/test_marginals.py pin every
# lockstep run to ``minimize`` bit for bit.  Both fits set ``converged`` by
# one rule, ``_converged``; a censored fit is also on the boundary when a
# category of its histogram is empty (FitResult).
from scipy.optimize import OptimizeResult, _lbfgsb, brentq, minimize

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

COUNT_CELLS_MAX = 64  # bounds a pair's score-correlation grid at 63 * 63 cell bounds

# Interval-censored survey categories: 0 -> {0}, 1 -> {1}, 2 -> {2..4}, 3 -> {5+}
N_CATEGORIES = 4

# An L-BFGS-B fit's run (a censored fit's best start) that ends short of
# CONVERGENCE, say in an abnormal line search at the optimum, is converged when
# its projected gradient max |clip(x - g, lower, upper) - x| is at most this
# per unit of weight: a mean score, as the objectives are weighted sums.  On
# the example model's 8000-row surveys, runs that L-BFGS-B reports converged
# end at up to 6.5e-8 (exact, seeds 1-12) and 5.7e-8 (censored, seeds 1-40);
# the abnormal ends at the optimum seen there reach 7e-9 and 1.1e-8.
_PGTOL_PER_WEIGHT = 1e-7


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
        for key in ("rate", "zero_prob", "dispersion"):  # a bool would pass the checks below
            if isinstance(getattr(self, key), (bool, np.bool_)):
                raise ValueError(f"{key} must be a number, got a bool")
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
    0; ZIP fits with no finite rate; exact ZINB fits that take ZIP's
    estimate; and censored ZINB fits with no interior maximum: a category is
    empty (every interior point gives all four positive mass), the best
    start ends on a bound of _ZINB_BOUNDS, or its category masses miss the
    histogram's frequencies by more than 1e-6 (three parameters saturate four
    categories, so an interior maximum reproduces them).  ``converged`` and
    ``n_iter`` describe ZIP's rate roots (all bracketed; Brent iterations) or
    a ZINB fit's L-BFGS-B runs, for a censored fit its best start's (each
    ended in CONVERGENCE or with a projected gradient of at most
    _PGTOL_PER_WEIGHT per unit of weight; their iterations).  Exact fits run
    scipy's ``minimize``; only censored ZINB fits call its private ``setulb``,
    so only they break where a scipy release changes it.
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
# dispatch to, combined the way scipy combines them: every value but the NB
# log-pmf's equals the frozen-distribution call bit for bit, at a fraction of its cost.


# gammaln(y + 1.0), not y + 1: an int64 count of 2**63 - 1 plus 1 wraps to a negative
def _poisson_logpmf(y, mu):
    return xlogy(y, mu) - gammaln(y + 1.0) - mu


def _nbinom_logpmf(y, rate, k):
    """The NB log-pmf from the mean ``rate`` and dispersion ``k``: scipy's form,
    within 2e-11 relative up to k = 1e4, then Stirling's, as scipy's cancels
    (4e-7 at e^20): the Poisson log-pmf plus terms that do not grow with k."""
    if k <= 1e4:
        p = k / (k + rate)
        return gammaln(k + y) - gammaln(y + 1.0) - gammaln(k) + k * np.log(p) + xlog1py(y, -p)
    return ((k + y) * np.log1p((y - rate) / (k + rate)) - 0.5 * np.log1p(y / k)
            + xlogy(y, rate) - y - gammaln(y + 1.0) + (1.0 / (k + y) - 1.0 / k) / 12.0)


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
    theta = params.zero_prob
    return theta + (1.0 - theta) * _count(params, "cdf", np.arange(cdf_table_size(params)))


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
    log_pmf = (_poisson_logpmf(values, params.rate) if params.family == ZIP
               else _nbinom_logpmf(values, params.rate, params.dispersion))
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
    rate, res = brentq(score, lo, hi, xtol=1e-300, full_output=True, disp=False)
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

# The fits' L-BFGS-B settings: ``minimize``'s options ftol, gtol and maxiter
# as the fits set them, and its defaults for the corrections kept (maxcor),
# the line-search steps per iteration (maxls) and the evaluations (maxfun)
_LBFGS_FTOL, _LBFGS_GTOL, _LBFGS_MAXITER = 1e-12, 1e-10, 500
_LBFGS_MAXCOR, _LBFGS_MAXLS, _LBFGS_MAXFUN = 10, 20, 15000
# setulb's task codes (status_messages in scipy/optimize/_lbfgsb_py.py), and
# the reasons minimize gives a STOP: too many evaluations, too many iterations
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5
_MAXFUN_REACHED, _MAXITER_REACHED = 502, 504


class _LbfgsbState:
    """One run's ``setulb`` workspace, as ``minimize`` allocates it, and its counts."""

    __slots__ = ("row", "x", "f", "g", "wa", "iwa", "task", "ln_task", "lsave", "isave",
                 "dsave", "nit", "nfev", "at", "g_at")

    def __init__(self, row: int, x: np.ndarray):
        n, m = x.size, _LBFGS_MAXCOR
        self.row, self.x, self.f, self.g = row, x, np.array(0.0), np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task, self.ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
        self.lsave, self.isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.nit = self.nfev = 0
        self.at = self.g_at = None  # the point last evaluated, and the gradient there

    def advance(self, lower: np.ndarray, upper: np.ndarray, nbd: np.ndarray, factr: float) -> bool:
        """Call ``setulb`` until it wants f and g at ``x`` (True) or the run ends (False)."""
        while True:
            _lbfgsb.setulb(_LBFGS_MAXCOR, self.x, lower, upper, nbd, self.f, self.g, factr,
                           _LBFGS_GTOL, self.wa, self.iwa, self.task, self.lsave, self.isave,
                           self.dsave, _LBFGS_MAXLS, self.ln_task)
            if self.task[0] == _FG:
                return True
            if self.task[0] != _NEW_X:
                return False
            self.nit += 1
            if self.nit >= _LBFGS_MAXITER:
                self.task[:] = _STOP, _MAXITER_REACHED
            elif self.nfev > _LBFGS_MAXFUN:
                self.task[:] = _STOP, _MAXFUN_REACHED


def _lbfgsb_lockstep(fun_and_grad, x0, bounds) -> list[OptimizeResult]:
    """L-BFGS-B within ``bounds`` (a (lower, upper) pair per coordinate) from
    each start in ``x0``, all runs in lockstep.

    ``fun_and_grad(x, rows)`` returns the objective and its gradient at the
    points ``x``, a (k, d) array, of the runs ``rows`` (indices into ``x0``):
    k values and k gradients.  Each round takes every live run to its next
    request for f and g, and answers them all with one call.

    Each run repeats scipy's ``minimize(fun_and_grad, start, jac=True,
    method="L-BFGS-B", bounds=bounds, options={"ftol": _LBFGS_FTOL, "gtol":
    _LBFGS_GTOL, "maxiter": _LBFGS_MAXITER})`` step for step, as
    ``scipy/optimize/_lbfgsb_py.py::_minimize_lbfgsb`` runs it: the start
    clipped to the bounds, maxcor 10, factr = ftol / eps, pgtol = gtol, maxls
    20, f and g reused at the point evaluated last, one iteration counted per
    NEW_X, the maxiter and maxfun stops, and success on CONVERGENCE alone.  So
    its x, fun, nit, nfev and success equal ``minimize``'s, and so does the
    result type.
    """
    lower, upper = (np.array(side, dtype=float) for side in zip(*bounds))
    nbd = np.full(lower.size, 2, dtype=np.int32)  # every coordinate bounded on both sides
    factr = _LBFGS_FTOL / np.finfo(float).eps
    starts = np.clip(np.array(x0, dtype=float).reshape(-1, lower.size), lower, upper)
    states = [_LbfgsbState(row, x.copy()) for row, x in enumerate(starts)]
    live = states
    while live:
        live = [s for s in live if s.advance(lower, upper, nbd, factr)]
        fresh = []
        for s in live:
            point = s.x.tolist()
            if point != s.at:
                s.at = point
                fresh.append(s)
        if fresh:
            f, g = fun_and_grad(np.array([s.at for s in fresh]), np.array([s.row for s in fresh]))
            for s, f_s, g_s in zip(fresh, f, g):
                s.f, s.g_at = f_s, g_s
                s.nfev += 1
        for s in live:
            s.g[:] = s.g_at
    return [OptimizeResult(x=s.x, fun=float(s.f), nit=s.nit, nfev=s.nfev,
                           success=bool(s.task[0] == _CONVERGENCE)) for s in states]


def _converged(runs, gradient, bounds, weights) -> list[bool]:
    """Per L-BFGS-B result in ``runs``: it ended in CONVERGENCE, or its projected
    gradient is at most _PGTOL_PER_WEIGHT times its entry of ``weights``.
    ``gradient(x, short)`` gives g at the x of the runs ``short`` (indices into
    ``runs``) that did not succeed, in one call."""
    converged = np.array([run.success for run in runs], dtype=bool)
    short = np.flatnonzero(~converged)
    if short.size:
        x = np.array([runs[i].x for i in short])
        projected = np.clip(x - gradient(x, short), *np.array(bounds).T) - x
        converged[short] = np.max(np.abs(projected), axis=1) <= _PGTOL_PER_WEIGHT * weights[short]
    return converged.tolist()


# L-BFGS-B's default finite-difference step, ``minimize``'s ``eps``
_FD_STEP = 1e-8


def _fd_step(x: np.ndarray) -> np.ndarray:
    """The forward-difference step scipy takes at ``x`` within _ZINB_BOUNDS:
    +eps, or -eps where x + eps would pass the upper bound."""
    return np.where(x + _FD_STEP > _ZINB_UPPER, -_FD_STEP, _FD_STEP)


def _zinb_starts(n: np.ndarray) -> list[list[float]]:
    """The censored ZINB fit's three starts for the histogram ``n``: the rate
    from category midpoints (0, 1, 3, 7) among positives, zero_prob the
    excess zeros at that rate."""
    rate0 = max(float(np.sum(n * [0.0, 1.0, 3.0, 7.0]) / np.sum(n[1:])), 1e-3)
    g0 = math.exp(-rate0)
    theta0 = min(max((float(n[0] / np.sum(n)) - g0) / (1.0 - g0), 1e-6), 1.0 - 1e-6)
    logit0 = math.log(theta0 / (1.0 - theta0))
    return [[math.log(rate0), 0.0, logit0], [math.log(rate0), math.log(1e4), logit0],
            [math.log(rate0 * 2), math.log(0.3), logit0]]


_ZINB_N_STARTS = 3


def _zinb_fun_and_grad(run_hists: np.ndarray):
    """The censored ZINB fit's objective for ``_lbfgsb_lockstep``, run i
    fitting the histogram ``run_hists[i]``: minus its log-likelihood, and the
    forward-difference gradient of that.

    One call evaluates the category masses once, on 1-D arrays: for each run
    that asks, at x and at x + h_i e_i for i = 0, 1, 2.  A run's gradient is
    g_i = (f(x + h_i e_i) - f(x)) / ((x_i + h_i) - x_i).  That is bit for bit
    the gradient scipy computes when ``minimize`` gets no ``jac``:
    ``scipy/optimize/_numdiff.py::approx_derivative`` with the absolute step
    eps = 1e-8, adjusted to the bounds by ``_adjust_scheme_to_bounds``, from
    four scalar calls.  Within _ZINB_BOUNDS that rule is ``_fd_step``.  Its
    other branches cannot occur here: a zero step needs |x| > 1e8, and a step
    that fits on neither side needs a bound width below 1e-8, but every bound
    is at most 30 in magnitude and every width at least 25.  Each point's
    (log rate, log dispersion, logit zero_prob) is mapped with ``math.exp``,
    one element at a time, as the scalar objective maps it: ``np.exp``
    differs from ``math.exp`` in the last bit on about 4.6% of uniform
    inputs over the bounds (numpy 2.4.6 on an x86-64 Xeon), which would move
    the paths.
    """
    axis = np.arange(3)

    def fun_and_grad(x, rows):
        h = _fd_step(x)
        points = np.repeat(x[:, None, :], 4, axis=1)
        points[:, axis + 1, axis] = x + h
        rate, dispersion, zero_prob = np.array(
            [(math.exp(a), math.exp(b), _expit(c)) for a, b, c in points.reshape(-1, 3).tolist()]
        ).T
        masses = category_masses(ZINB, rate, zero_prob, dispersion).reshape(-1, 4, N_CATEGORIES)
        f = -_multinomial_loglik(masses, run_hists[rows, None, :])
        return f[:, 0], (f[:, 1:] - f[:, :1]) / ((x + h) - x)

    return fun_and_grad


def _fit_zinb(hists: np.ndarray) -> list[tuple[MarginalParams, float, bool, bool, int]]:
    """Maximize the ZINB log-likelihood of each category histogram, a row of
    ``hists``, by L-BFGS-B over (log rate, log dispersion, logit zero_prob)
    from each of its ``_zinb_starts``: (params, loglik, converged, boundary,
    iterations) per histogram.  The runs of every start of every
    histogram share one ``_lbfgsb_lockstep`` call, on ``_zinb_fun_and_grad``.
    Of a histogram's runs the lowest objective wins, the first on a tie; the
    fit is ``_converged`` by that run, its weight the histogram's total, and
    on the boundary by FitResult's rule.

    The gradient is not analytic, and the three starts stay, on purpose:
    either change moves the L-BFGS-B paths, and with them the tie-break
    between the starts that the benchmark's reference fit pins (ROADMAP).
    """
    fun_and_grad = _zinb_fun_and_grad(np.repeat(hists, _ZINB_N_STARTS, axis=0))
    runs = _lbfgsb_lockstep(fun_and_grad, [x for n in hists for x in _zinb_starts(n)], _ZINB_BOUNDS)
    rows = [i + min(range(_ZINB_N_STARTS), key=lambda s: runs[i + s].fun)
            for i in range(0, len(runs), _ZINB_N_STARTS)]
    best = [runs[row] for row in rows]
    converged = _converged(best, lambda x, short: fun_and_grad(x, np.take(rows, short))[1],
                           _ZINB_BOUNDS, hists.sum(axis=1))
    fits = []
    for run, n, run_converged in zip(best, hists, converged):
        x = run.x
        params = MarginalParams(ZINB, math.exp(x[0]), 1.0 / (1.0 + math.exp(-x[2])), math.exp(x[1]))
        missed = np.max(np.abs(category_probs(params) - n / n.sum()))
        boundary = bool(np.any(n == 0) or np.any(x[:, None] == _ZINB_BOUNDS) or missed > 1e-6)
        fits.append((params, -run.fun, run_converged, boundary, run.nit))
    return fits


def _fit_nb(values: np.ndarray, weights: np.ndarray, truncated: bool):
    """(rate, dispersion k, converged, iterations) maximizing the weighted NB
    log-likelihood of ``values``, zero-truncated when ``truncated``: one L-BFGS-B
    run in (log rate, log k) from the moment start, with the analytic gradient.
    Truncation adds g0 / (1 - g0) times the gradient of log g0 = k log(k / (k + rate)).
    The run is ``_converged`` with the weight ``weights``' total."""
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
            # g0 / (1 - g0) = 1 / expm1(-log g0), capped where it falls below 1e-304
            grad -= total * k / math.expm1(min(-log_g0, 700.0)) * np.array([share, -log_p - share])
        return -ll, -grad

    bounds = _ZINB_BOUNDS[:2]
    options = {"ftol": _LBFGS_FTOL, "gtol": _LBFGS_GTOL, "maxiter": _LBFGS_MAXITER}
    run = minimize(objective_and_gradient, [math.log(mean), math.log(disp0)], jac=True,
                   method="L-BFGS-B", bounds=bounds, options=options)
    (converged,) = _converged([run], lambda x, _: [objective_and_gradient(x[0])[1]], bounds,
                              np.array([total]))
    return math.exp(run.x[0]), math.exp(run.x[1]), converged, run.nit


def _fit_result(family: str, n_pos: float, fit, *args) -> FitResult:
    """The result rule of both fits: degenerate (zero_prob 1, a placeholder rate)
    without positive weight ``n_pos``; else ``fit(n_pos, *args)``'s (params, loglik,
    converged, boundary, n_iter), on the boundary also at zero_prob > 0.999 or n_pos < 5."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n_pos == 0:
        params = MarginalParams(family, 1.0, 1.0, dispersion=1.0 if family == ZINB else None)
        return FitResult(params, 0.0, True, True, True, 0)
    params, loglik, converged, boundary, n_iter = fit(n_pos, *args)
    boundary = boundary or params.zero_prob > 0.999 or n_pos < 5
    return FitResult(params, loglik, converged, False, boundary, n_iter)


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
    Where the NB fit of the positives leaves zero_prob below 0, ZINB
    refits the plain NB to all the counts, with zero_prob 0; where those
    are not over-dispersed either, that is the Poisson fit (rate the mean,
    dispersion e^20), as the plain NB's score in 1 / dispersion at 0 and
    rate = mean, sum w ((y - mean)^2 - y), is <= 0 there.
    """
    y = _as_counts(values)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape or np.any(w < 0) or np.sum(w) <= 0:
        raise ValueError("weights must be non-negative with positive total")
    return _fit_result(family, float(np.sum(w[y > 0])), _fit_exact, y, w, family)


def _fit_exact(n_pos: float, y: np.ndarray, w: np.ndarray, family: str):
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
                mean = float(weights @ values) / float(np.sum(weights))
                if weights @ ((values - mean) ** 2 - values) <= 0.0:
                    rate, k, converged = mean, math.exp(20.0), True
                else:
                    rate, k, nb_converged, more = _fit_nb(values, weights, False)
                    converged, n_iter = converged and nb_converged, n_iter + more
            params = MarginalParams(ZINB, rate, 0.0 if boundary else 1.0 - q / share, k)
        else:
            params = MarginalParams(ZINB, params.rate, params.zero_prob, math.exp(20.0))
            boundary = True
    return params, _exact_loglik(params, values, weights), converged, boundary, n_iter


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x > -700 else 0.0


def fit_mle_censored(category_counts, family: str = ZIP) -> FitResult:
    """Fit a zero-inflated model to an interval-censored category histogram.

    ``category_counts`` is a length-4 histogram over the survey categories
    (counts may be non-integer when rows are weighted).  A histogram with all
    mass in category 0 is degenerate.
    """
    return fit_mle_censored_batch([category_counts], family)[0]


def fit_mle_censored_batch(histograms, family: str = ZIP) -> list[FitResult]:
    """``fit_mle_censored`` of each of ``histograms``.  ZIP fits each by its
    rate root; ZINB fits all the non-degenerate ones together, every
    L-BFGS-B run of every histogram in one ``_lbfgsb_lockstep`` call."""
    hists = [_category_counts(h) for h in histograms]
    n_pos = [float(np.sum(n[1:])) for n in hists]
    if family == ZINB:
        live = np.array([n for n, p in zip(hists, n_pos) if p != 0]).reshape(-1, N_CATEGORIES)
        fitted = iter(_fit_zinb(live))  # _fit_result asks for them in order, where n_pos != 0
        return [_fit_result(family, p, lambda _p: next(fitted)) for p in n_pos]
    return [_fit_result(family, p, _fit_zip_censored, n) for n, p in zip(hists, n_pos)]


def _category_counts(category_counts) -> np.ndarray:
    n = np.asarray(category_counts, dtype=float)
    if n.shape != (N_CATEGORIES,):
        raise ValueError(f"expected {N_CATEGORIES} category counts")
    if not np.all(np.isfinite(n)) or np.any(n < 0) or np.sum(n) <= 0:
        raise ValueError("category counts must be finite, non-negative with positive total")
    return n


def _fit_zip_censored(n_pos: float, n: np.ndarray):
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
    return params, censored_loglik(params, n), converged, boundary, n_iter
