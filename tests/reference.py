"""The reference replication pipeline: one stage function per step.

``harness`` runs a replication as one fused kernel (``fill_normals``,
``finish_draw``, ``share``, ``hits`` and ``CellKernel.respond``).  These
are the same steps written plainly, one function each, as the
specification the kernel is pinned to: ``test_harness`` checks that a
replication of the kernel equals these functions run on the same random
stream, bit for bit.
``counts_from_uniforms`` is the inverse-transform rule of the copula draw,
``hc2_from_moments`` the HC2 estimate of one replication on Python floats,
``hc2_from_arms`` that estimate from the arms' outcome vectors, and
``check_schedule`` the invariants every potential-outcome schedule keeps.
A schedule is a ``PotentialOutcomeTable``, its units labelled with
``ResponseType``; ``code_binary`` and ``code_sum`` are the two outcome
codings of a category vector, which the kernel computes from its score
table instead.

The fit path has its own plain forms: ``read_survey`` validates each
cell of a survey file in turn, ``zinb_censored_loglik`` builds the
``MarginalParams`` the ZINB fit's objective evaluates, ``fit_zinb`` runs
L-BFGS-B on a scalar objective with scipy's own finite-difference
gradient and judges its convergence by that gradient,
``score_corr_theory`` computes a pair's score correlation
from its rectangle probabilities, each row of them by scipy's adaptive
quadrature of the normal density times a conditional normal CDF (no
Owen's T), and ``latent_correlation_matrix`` searches each pair's
latent correlation on its own with scipy's ``brentq``.
``test_ingest`` and ``test_marginals`` pin the fit path to them: bit for
bit, except the score correlations, which ``ingest`` computes in Owen's
closed form and which must agree to 1e-12, and the latent correlations,
which ``ingest`` finds with another root method and which must agree to
within the root tolerance, 1e-6.
``fit_zinb_exact_three_starts`` is the exact-count ZINB fit that the
profiled fit replaced; ``test_marginals`` requires the profiled fit to
match or beat its log-likelihood.  They are test code, not part of the
ctssim package.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np
from scipy import integrate, optimize
from scipy.optimize._numdiff import approx_derivative
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from ctssim import coding
from ctssim.estimation import _mean_var
from ctssim.ingest import (
    MISSING_TOKENS,
    SurveyFormatError,
    SurveyTable,
    _cell_structure,
    _empirical_scores,
    _parse_descriptor,
)
from ctssim.joint import ActSpec
from ctssim.marginals import (
    _PGTOL_PER_WEIGHT,
    _ZINB_BOUNDS,
    ZINB,
    MarginalParams,
    _expit,
    _nbinom_logpmf,
    category_probs,
    censored_loglik,
    count_cells,
)
from ctssim.outcomes import EffectScenario, target_columns

# ---------------------------------------------------------------------------
# Surveys and fits


def read_survey(data_path: str, descriptor_path: str) -> SurveyTable:
    """``ingest.read_survey`` with every cell checked on its own: the same
    table, or the same ``SurveyFormatError`` text, for every file.  The
    file is decoded whole before any row is split."""
    desc = _parse_descriptor(descriptor_path)
    acts = tuple(
        ActSpec(i + 1, a["label"], a["category"], a["severity"])
        for i, a in enumerate(desc["acts"])
    )
    columns = [a["column"] for a in desc["acts"]]
    weight_col = desc.get("weight_column")
    if desc["mode"] == "categories":
        kind, max_allowed = "category", coding.MAX_CATEGORY
    else:
        kind, max_allowed = "count", int(np.iinfo(np.int64).max)

    rows: list[list[int]] = []
    weights: list[float] = []
    n_dropped = 0
    with open(data_path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise SurveyFormatError(
            f"{data_path}:{line}: not UTF-8: byte {data[exc.start]:#04x} at offset "
            f"{exc.start} ({exc.reason})"
        ) from None
    with io.StringIO(text, newline="") as fh:
        reader = _records(data_path, csv.reader(fh))
        try:
            _, header = next(reader)
        except StopIteration:
            raise SurveyFormatError(f"{data_path}: file is empty") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in columns if c not in header]
        if missing_cols:
            raise SurveyFormatError(f"{data_path}: header lacks act columns {missing_cols}")
        if weight_col is not None and weight_col not in header:
            raise SurveyFormatError(f"{data_path}: header lacks weight column {weight_col!r}")
        read = columns + ([weight_col] if weight_col is not None else [])
        repeated = [c for c in read if header.count(c) > 1]
        if repeated:
            raise SurveyFormatError(f"{data_path}: header repeats columns {repeated}")
        col_idx = [header.index(c) for c in columns]
        w_idx = header.index(weight_col) if weight_col is not None else None

        for line_no, raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            # trailing empty fields are accepted
            if len(raw) < len(header) or any(cell.strip() for cell in raw[len(header):]):
                raise SurveyFormatError(
                    f"{data_path}:{line_no}: expected {len(header)} fields, got {len(raw)}"
                )
            cells = [raw[i].strip() for i in col_idx]
            if any(c.lower() in MISSING_TOKENS for c in cells):
                n_dropped += 1
                continue
            parsed = []
            for name, cell in zip(columns, cells):
                digits = cell[1:] if cell[:1] in ("+", "-") else cell
                if not (digits.isascii() and digits.isdigit()):
                    raise SurveyFormatError(
                        f"{data_path}:{line_no}: column {name!r} has non-integer value {cell!r}"
                    )
                # a value of more digits than max_allowed is out of range
                # unread (int() refuses over 4300 digits); a message shows
                # at most 40 of them
                digits = digits.lstrip("0") or "0"
                shown = digits if len(digits) <= 40 else f"{digits[:40]}... ({len(digits)} digits)"
                if cell[:1] == "-" and digits != "0":
                    raise SurveyFormatError(
                        f"{data_path}:{line_no}: column {name!r} is negative (-{shown})"
                    )
                if len(digits) > len(str(max_allowed)) or int(digits) > max_allowed:
                    raise SurveyFormatError(
                        f"{data_path}:{line_no}: column {name!r} has {kind} {shown} "
                        f"outside 0..{max_allowed}"
                    )
                parsed.append(int(digits))
            if w_idx is not None:
                cell = raw[w_idx].strip()
                if cell.lower() in MISSING_TOKENS:
                    n_dropped += 1
                    continue
                try:
                    if "_" in cell or not cell.isascii():
                        raise ValueError(cell)
                    weights.append(float(cell))
                except ValueError:
                    raise SurveyFormatError(f"{data_path}:{line_no}: weight column "
                                            f"{weight_col!r} has non-numeric value {cell!r}"
                                            ) from None
                if not 0.0 <= weights[-1] < np.inf:
                    raise SurveyFormatError(f"{data_path}:{line_no}: weight {cell!r} is not "
                                            "a finite, non-negative number")
            rows.append(parsed)

    if not rows:
        raise SurveyFormatError(f"{data_path}: no complete rows")
    if weight_col is not None and sum(weights) <= 0.0:
        raise SurveyFormatError(f"{data_path}: weight column {weight_col!r} sums to zero")
    return SurveyTable(
        acts=acts,
        values=np.asarray(rows, dtype=np.int64),
        mode=desc["mode"],
        weights=np.asarray(weights) if weight_col is not None else None,
        n_dropped=n_dropped,
    )


def _records(data_path: str, reader):
    """(first file line, row) for each row of ``reader``; a row the csv
    module cannot split raises a ``SurveyFormatError`` naming the file and
    line."""
    try:
        line = 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise SurveyFormatError(f"{data_path}:{reader.line_num}: {exc}") from None


def zinb_censored_loglik(category_counts, rate: float, dispersion: float,
                         zero_prob: float) -> float:
    """The objective of a ZINB fit to a category histogram, as the
    composition of the margin's public parts."""
    return censored_loglik(MarginalParams(ZINB, rate, zero_prob, dispersion), category_counts)


def fit_zinb(loglik, x0: list, weight: float) -> tuple[MarginalParams, float, bool, int]:
    """Maximize ``loglik(rate, dispersion, zero_prob)``, a sum of ``weight``
    units, by L-BFGS-B over (log rate, log dispersion, logit zero_prob) from
    each start in ``x0``.  The fit is converged when the best start ends in
    CONVERGENCE, or when the gradient scipy's ``approx_derivative`` takes at
    its x, projected on the bounds, is at most _PGTOL_PER_WEIGHT per unit of
    ``weight``."""

    def objective(x):
        return -loglik(math.exp(x[0]), math.exp(x[1]), _expit(x[2]))

    results = [
        optimize.minimize(
            objective,
            np.asarray(start, dtype=float),
            method="L-BFGS-B",
            bounds=_ZINB_BOUNDS,
            options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": 500},
        )
        for start in x0
    ]
    best = min(results, key=lambda res: res.fun)
    converged = bool(best.success)
    if not converged:
        lower, upper = np.array(_ZINB_BOUNDS).T
        g = approx_derivative(objective, best.x, method="2-point", abs_step=1e-8,
                              bounds=(lower, upper))
        projected = np.clip(best.x - g, lower, upper) - best.x
        converged = float(np.max(np.abs(projected))) <= _PGTOL_PER_WEIGHT * weight
    x = best.x
    params = MarginalParams(ZINB, math.exp(x[0]), 1.0 / (1.0 + math.exp(-x[2])), math.exp(x[1]))
    return params, -float(best.fun), converged, int(best.nit)


def zinb_exact_loglik(values, weights, rate: float, dispersion: float,
                      zero_prob: float) -> float:
    """The weighted ZINB log-likelihood of exact counts, row by row: the
    objective of the replaced three-start exact fit."""
    k = dispersion
    p_nb = k / (k + rate)
    zero = values == 0
    log_g0 = k * math.log(p_nb)
    # log(theta + (1-theta) * g0), stable for tiny components
    if zero_prob <= 0.0:
        log_p0 = log_g0
    elif zero_prob >= 1.0:
        log_p0 = 0.0
    else:
        log_p0 = np.logaddexp(math.log(zero_prob), math.log1p(-zero_prob) + log_g0)
    ll = np.sum(weights[zero]) * log_p0
    pos = ~zero
    if np.any(pos):
        if zero_prob >= 1.0:
            return -math.inf
        ll += math.log1p(-zero_prob) * np.sum(weights[pos])
        ll += np.sum(weights[pos] * _nbinom_logpmf(values[pos], rate, k))
    return float(ll)


def fit_zinb_exact_three_starts(values, weights) -> tuple[MarginalParams, float, bool, int]:
    """The exact-count ZINB fit before zero_prob was profiled out: ``fit_zinb``
    of ``zinb_exact_loglik`` from three starts, all at the positives' mean
    rate and a Poisson's zero share, with the moment, 1e4 and 1 dispersions."""
    y = np.asarray(values, dtype=np.int64)
    w = np.asarray(weights, dtype=float)
    pos = y > 0
    mean_pos = float(np.sum(w[pos] * y[pos]) / np.sum(w[pos]))
    var_pos = float(np.sum(w[pos] * (y[pos] - mean_pos) ** 2) / np.sum(w[pos]))
    rate0 = max(mean_pos, 1e-3)
    g0 = math.exp(-rate0)
    theta0 = min(max((float(np.sum(w[~pos]) / np.sum(w)) - g0) / (1.0 - g0), 1e-6), 1.0 - 1e-6)
    logit0 = math.log(theta0 / (1.0 - theta0))
    disp0 = rate0 * rate0 / max(var_pos - rate0, rate0 * 0.1)
    starts = [
        [math.log(rate0), math.log(min(max(disp0, 1e-2), 1e4)), logit0],
        [math.log(rate0), math.log(1e4), logit0],
        [math.log(rate0), 0.0, logit0],
    ]
    return fit_zinb(lambda rate, disp, theta: zinb_exact_loglik(y, w, rate, disp, theta), starts,
                    float(np.sum(w)))


def score_corr_theory(rho: float, cell_j, cell_k) -> float:
    """Correlation of the two acts' discretized normal scores implied by a
    Gaussian copula with latent correlation ``rho``; ``cell_j`` and
    ``cell_k`` are ``ingest._cell_structure`` results.  E[s_j s_k] is the
    double sum of the scores over the pair's rectangle probabilities, each
    row of which is one adaptive quadrature over a cell of act j:
    P(x in cell a, y <= k_b) integrates phi(x) Phi((k_b - rho x) / sqrt(1 - rho^2))
    over the cell, for every finite upper bound k_b of act k at once."""
    pj, _, bj, sj = cell_j
    pk, _, bk, sk = cell_k
    mu_j, mu_k = float(pj @ sj), float(pk @ sk)
    sd_j = float(np.sqrt(pj @ (sj * sj) - mu_j * mu_j))
    sd_k = float(np.sqrt(pk @ (sk * sk) - mu_k * mu_k))
    tau = math.sqrt(1.0 - rho * rho)
    upper = bk[:-1]
    rectangles = np.zeros((len(bj), len(bk)))
    for a, (lo, hi) in enumerate(zip(np.concatenate([[-np.inf], bj[:-1]]), bj)):
        if not lo < hi:
            continue
        # the integrand steps where a conditional bound (k_b - rho x) / tau crosses 0
        steps = [x for x in (upper / rho if rho else ()) if lo < x < hi]
        below, _ = integrate.quad_vec(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ndtr((upper - rho * x) / tau),
            lo, hi, epsabs=1e-15, epsrel=1e-13, points=steps or None)
        rectangles[a] = np.diff(below, prepend=0.0, append=ndtr(hi) - ndtr(lo))
    cross = float(sj @ rectangles @ sk)
    return (cross - mu_j * mu_k) / (sd_j * sd_k)


def weighted_corr(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None) -> float:
    """The weighted Pearson correlation of two acts' empirical scores."""
    w = np.ones(len(a)) if weights is None else weights
    w = w / w.sum()
    am, bm = a - w @ a, b - w @ b
    return float((w * am) @ bm / np.sqrt(((w * am) @ am) * ((w * bm) @ bm)))


def latent_correlation_matrix(table: SurveyTable, margins) -> np.ndarray:
    """``ingest.latent_correlation_matrix`` one pair at a time: each pair's
    gaps at the limits +-0.9995, then, for a root between them, scipy's
    ``brentq`` on ``score_corr_theory``."""
    k = table.n_acts
    coded = [count_cells(m, c) if table.mode == "counts" else (c, category_probs(m))
             for c, m in zip(table.values.T, margins)]
    positive = slice(None) if table.weights is None else table.weights > 0
    scores = [_empirical_scores(c, table.weights) for c, _ in coded]
    degenerate = [m.zero_prob >= 1 or np.ptp(c[positive]) == 0 for m, (c, _) in zip(margins, coded)]
    cells = [_cell_structure(p) for _, p in coded]
    sigma = np.eye(k)
    for j in range(k):
        for l in range(j + 1, k):
            if degenerate[j] or degenerate[l]:
                continue
            r_obs = weighted_corr(scores[j], scores[l], table.weights)

            def gap(rho):
                return score_corr_theory(rho, cells[j], cells[l]) - r_obs

            if gap(0.9995) <= 0.0:
                rho = 0.9995
            elif gap(-0.9995) >= 0.0:
                rho = -0.9995
            else:
                rho = optimize.brentq(gap, -0.9995, 0.9995, xtol=1e-6)
            sigma[j, l] = sigma[l, j] = rho
    return sigma


# ---------------------------------------------------------------------------
# Control counts


def counts_from_uniforms(table: np.ndarray, u) -> np.ndarray:
    """Map uniforms in [0, 1) to counts through a CDF table: the smallest
    count y with table[y] >= u, capped at the table's last entry."""
    idx = np.searchsorted(table, u, side="left")
    return np.minimum(idx, len(table) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Outcome codings


def _check_categories(values) -> np.ndarray:
    v = np.asarray(values)
    if v.size == 0:
        raise ValueError("empty category vector")
    if np.any((v < 0) | (v > coding.MAX_CATEGORY)):
        raise ValueError(f"categories must lie in 0..{coding.MAX_CATEGORY}")
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
    out = v.sum(axis=-1) / (coding.MAX_CATEGORY * k)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Potential-outcome schedules


class ResponseType(IntEnum):
    NEVER_VIOLENT = 0
    NO_EFFECT = 1
    CESSATION = 2
    REDUCTION = 3
    INCREASE = 4


# the four types a violent unit draws, in the order of EffectScenario.probs
DRAWN_TYPES = np.array(
    [ResponseType.NO_EFFECT, ResponseType.CESSATION, ResponseType.REDUCTION, ResponseType.INCREASE],
    dtype=np.int8,
)


@dataclass
class PotentialOutcomeTable:
    """Per-unit latent schedule: counts under control/treatment, response
    type, and treatment assignment."""

    y0: np.ndarray
    y1: np.ndarray
    s: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=np.int64)
        self.y1 = np.asarray(self.y1, dtype=np.int64)
        self.s = np.asarray(self.s, dtype=np.int8)
        self.z = np.asarray(self.z, dtype=np.int8)
        n = self.y0.shape[0]
        if self.y0.ndim != 2 or self.y1.shape != self.y0.shape:
            raise ValueError("y0 and y1 must be matching n x K matrices")
        if self.s.shape != (n,) or self.z.shape != (n,):
            raise ValueError("s and z must be length-n vectors")
        if not np.isin(self.z, (0, 1)).all():
            raise ValueError("z must be binary")

    def observed(self) -> np.ndarray:
        """Revealed counts: treated units show y1, controls show y0."""
        return np.where(self.z[:, None] == 1, self.y1, self.y0)


def assign_response_types(
    y0: np.ndarray,
    scenario: EffectScenario,
    target,
    acts: Sequence[ActSpec],
    rng: np.random.Generator,
) -> np.ndarray:
    """Label each unit: never-violent, or one of the four drawn types.

    A unit is "violent" (eligible for a type draw) if any act of ``target``
    is positive under control; untargeted violence never triggers effects.
    ``rng.choice`` is the specification: the kernel draws the uniforms
    itself and maps them through the scenario's CDF, which
    ``test_harness.TestSamplingRule`` pins to this call.
    """
    cols = target_columns(acts, target)
    violent = (np.asarray(y0)[:, cols] > 0).any(axis=1)
    s = np.full(y0.shape[0], ResponseType.NEVER_VIOLENT, dtype=np.int8)
    n_violent = int(violent.sum())
    if n_violent:
        s[violent] = rng.choice(DRAWN_TYPES, size=n_violent, p=scenario.probs)
    return s


def apply_effects(
    y0: np.ndarray,
    s: np.ndarray,
    scenario: EffectScenario,
    target,
    acts: Sequence[ActSpec],
) -> np.ndarray:
    """Build treated counts from control counts and response types.

    Only positive entries of ``target``'s acts change; zero entries within
    a violent unit's row stay zero (treatment never initiates an act).
    Reductions stop at ``scenario.floor`` rather than silently becoming
    cessations.
    """
    y0 = np.asarray(y0, dtype=np.int64)
    s = np.asarray(s)
    cols = target_columns(acts, target)
    violent = (y0[:, cols] > 0).any(axis=1)
    if np.any(violent != (s != ResponseType.NEVER_VIOLENT)):
        raise ValueError("response-type labels inconsistent with y0 and target")
    y1 = y0.copy()
    x = int(scenario.magnitude)

    sub = y1[np.ix_(s == ResponseType.CESSATION, cols)]
    sub[:] = 0
    y1[np.ix_(s == ResponseType.CESSATION, cols)] = sub

    sub = y1[np.ix_(s == ResponseType.REDUCTION, cols)]
    pos = sub > 0
    sub[pos] = np.maximum(sub[pos] - x, scenario.floor)
    y1[np.ix_(s == ResponseType.REDUCTION, cols)] = sub

    sub = y1[np.ix_(s == ResponseType.INCREASE, cols)]
    pos = sub > 0
    sub[pos] = sub[pos] + x
    y1[np.ix_(s == ResponseType.INCREASE, cols)] = sub
    return y1


def true_estimands(table: PotentialOutcomeTable) -> dict[str, float]:
    """Finite-sample coded average treatment effects of a schedule.

    Means of coded(y1) - coded(y0) over all units, for the binary and
    normalized-sum codings applied to categorized counts.  Exact (no
    sampling involved).
    """
    c0 = coding.categorize(table.y0)
    c1 = coding.categorize(table.y1)
    return {
        "binary": float(np.mean(code_binary(c1) - code_binary(c0))),
        "sum": float(np.mean(code_sum(c1) - code_sum(c0))),
    }


def check_schedule(table: PotentialOutcomeTable, scenario: EffectScenario, target,
                   acts: Sequence[ActSpec]) -> None:
    """Verify a schedule's invariants under ``scenario`` on ``target``;
    raises on violation."""
    cols = target_columns(acts, target)
    t0, t1 = table.y0[:, cols], table.y1[:, cols]
    never = table.s == ResponseType.NEVER_VIOLENT
    if np.any(t0[never].sum(axis=1) > 0):
        raise AssertionError("never-violent unit has targeted violence under control")
    if not np.array_equal(table.y1[never], table.y0[never]):
        raise AssertionError("never-violent unit changed under treatment")
    if np.any((t1 > 0) & (t0 == 0)):
        raise AssertionError("treatment initiated a previously-zero targeted act")
    cess = table.s == ResponseType.CESSATION
    if np.any(t1[cess] != 0):
        raise AssertionError("cessation unit keeps targeted violence")
    red = table.s == ResponseType.REDUCTION
    r0, r1 = t0[red], t1[red]
    # entries already at the floor cannot drop further
    if np.any(r1[r0 > scenario.floor] >= r0[r0 > scenario.floor]):
        raise AssertionError("reduction did not lower a positive targeted count")
    at_floor = (r0 > 0) & (r0 <= scenario.floor)
    if np.any(r1[at_floor] != r0[at_floor]):
        raise AssertionError("reduction changed a count already at the floor")
    inc = table.s == ResponseType.INCREASE
    pos = t0[inc] > 0
    if np.any(t1[inc][pos] <= t0[inc][pos]):
        raise AssertionError("increase did not raise a positive targeted count")
    untargeted = np.setdiff1d(np.arange(table.y0.shape[1]), cols)
    if not np.array_equal(table.y1[:, untargeted], table.y0[:, untargeted]):
        raise AssertionError("untargeted acts changed under treatment")


def randomize(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complete randomization: exactly floor(n/2) treated, uniformly."""
    if n < 2:
        raise ValueError("need at least 2 units to randomize")
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[: n // 2]] = 1
    return z


# ---------------------------------------------------------------------------
# Estimation


def hc2_from_moments(
    m1: float, v1: float, n1: int, m0: float, v0: float, n0: int, alpha: float = 0.05,
    df: str = "normal",
) -> tuple[float, float, float, float, float]:
    """(estimate, se, ci_low, ci_high, p_value) of one replication, on
    Python floats, from each arm's ``_mean_var`` and size: treated
    (m1, v1, n1) and control (m0, v0, n0), each n >= 2.  The array form
    ``estimation.hc2_from_moments`` is pinned to it.

    The CI level is 1 - alpha.  ``df`` is "normal" for z critical values,
    or "welch" for a t reference with Welch-Satterthwaite degrees of
    freedom.  With both arm variances zero the se is 0, the CI collapses
    to the estimate, and p is 1 for a zero estimate and 0 otherwise.
    """
    tau = float(m1 - m0)
    se = math.sqrt(v1 / n1 + v0 / n0)
    if se == 0.0:
        return tau, 0.0, tau, tau, (1.0 if tau == 0.0 else 0.0)

    t_stat = tau / se
    if df == "welch":
        num = (v1 / n1 + v0 / n0) ** 2
        den = (v1 / n1) ** 2 / (n1 - 1) + (v0 / n0) ** 2 / (n0 - 1)
        dof = num / den
        crit = float(stdtrit(dof, 1.0 - alpha / 2.0))
        p = float(2.0 * stdtr(dof, -abs(t_stat)))
    else:
        crit = float(ndtri(1.0 - alpha / 2.0))
        p = float(2.0 * ndtr(-abs(t_stat)))
    return tau, se, tau - crit * se, tau + crit * se, p


def hc2_from_arms(
    y1: np.ndarray, y0: np.ndarray, alpha: float = 0.05, df: str = "normal"
) -> tuple[float, float, float, float, float]:
    """``hc2_from_moments`` of the treated and control float outcome
    vectors, each of length >= 2."""
    (m1, v1), (m0, v0) = _mean_var(y1), _mean_var(y0)
    return hc2_from_moments(m1, float(v1), len(y1), m0, float(v0), len(y0), alpha, df)


class InferenceUndefinedError(ValueError):
    """Raised when an arm has too few units for a variance estimate."""


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    n_treated: int
    n_control: int
    degenerate: bool = False  # both arms had zero variance


def estimate_ols_hc2(y, z, alpha: float = 0.05, df: str = "normal") -> EstimateResult:
    """Difference in arm means with HC2 standard error, CI, and p-value.

    Args:
        y: outcome vector.
        z: binary assignment vector (1 = treated).
        alpha: CI level is 1 - alpha.
        df: "normal" for z critical values (default), "welch" for a t
            reference with Welch-Satterthwaite degrees of freedom.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("y and z must be matching vectors")
    if not np.isin(z, (0, 1)).all():
        raise ValueError("z must be binary")
    if df not in ("normal", "welch"):
        raise ValueError(f"unknown df rule {df!r}")
    treated = z == 1
    n1, n0 = int(treated.sum()), int((~treated).sum())
    if n1 < 2 or n0 < 2:
        raise InferenceUndefinedError(
            f"need >= 2 units per arm for HC2 inference (treated={n1}, control={n0})"
        )
    tau, se, ci_low, ci_high, p = hc2_from_arms(y[treated], y[~treated], alpha, df)
    return EstimateResult(tau, se, ci_low, ci_high, p, n1, n0, degenerate=se == 0.0)


def reject_null(result: EstimateResult, alpha: float = 0.05) -> bool:
    """Two-sided test decision: p strictly below alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    return result.p_value < alpha
