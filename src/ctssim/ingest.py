"""Survey data ingestion, model calibration, and model-file serialization.

Surveys arrive as a delimited text file (comma-separated, UTF-8, header row)
plus a JSON descriptor declaring, for each act column, its label, category
(emotional/physical/sexual), and severity, whether the columns hold raw
counts or the 4-level survey categories, and an optional weight column.

``fit_model`` estimates each act's zero-inflated marginal by maximum
likelihood (exact or interval-censored, per the table's mode) and the
latent correlation matrix pairwise from normal scores, then projects it to
a valid correlation matrix.  ``EmpiricalResampler`` instead bootstraps
whole respondent rows, imputing latent counts inside each reported
category so count-scale effect magnitudes stay meaningful.
"""

from __future__ import annotations

import csv
import functools
import json
import operator
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.optimize.elementwise import find_root
from scipy.special import chdtrc, ndtri, owens_t

from . import coding
from .joint import ActSpec, MultiActModel, nearest_psd, validate_acts, validate_margins
from .marginals import (
    ZINB,
    FitResult,
    MarginalParams,
    category_probs,
    cdf_table,
    cdf_table_size,
    count_cells,
    fit_mle_censored_batch,
    fit_mle_exact,
)

MODEL_SCHEMA_VERSION = 1

MISSING_TOKENS = {"", "na", "nan", "none", "null", "."}
_MAX_COUNT = int(np.iinfo(np.int64).max)
# an act cell, once stripped: ASCII digits with an optional sign; ``int``
# alone would also read "1_0" as 10 and a full-width digit as its value
_INTEGER = re.compile(r"[+-]?[0-9]+")


class SurveyFormatError(ValueError):
    """Malformed survey file or descriptor."""


@dataclass
class SurveyTable:
    """Validated respondent-by-act response matrix.

    ``values`` holds either raw counts or categories in 0..3 depending on
    ``mode``; rows with any missing act value were dropped and counted in
    ``n_dropped``.
    """

    acts: tuple[ActSpec, ...]
    values: np.ndarray
    mode: str  # "categories" | "counts"
    weights: np.ndarray | None = None
    n_dropped: int = 0

    def __post_init__(self):
        self.acts = validate_acts(self.acts)
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.acts):
            raise ValueError("values must be an n x K matrix matching the act list")
        if self.mode not in ("categories", "counts"):
            raise ValueError(f"mode must be 'categories' or 'counts', got {self.mode!r}")
        if np.any(self.values < 0):
            raise ValueError("responses must be non-negative")
        if self.mode == "categories" and np.any(self.values > coding.MAX_CATEGORY):
            raise ValueError("category responses must lie in 0..3")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.values.shape[0],) or not np.all(
                np.isfinite(self.weights) & (self.weights >= 0)
            ):
                raise ValueError("weights must be a finite, non-negative length-n vector")
            if not np.any(self.weights):
                raise ValueError("weights must have a positive total")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_acts(self) -> int:
        return len(self.acts)


def _parse_descriptor(descriptor_path: str) -> dict:
    """The survey descriptor at ``descriptor_path``, checked; each error
    names the path."""
    try:
        with open(descriptor_path, encoding="utf-8-sig") as fh:
            return _check_descriptor(json.load(fh))
    except FileNotFoundError:
        error = "descriptor file not found"
    except json.JSONDecodeError as exc:
        error = f"descriptor is not valid JSON: {exc}"
    except UnicodeDecodeError as exc:
        error = f"descriptor is not UTF-8: {exc}"
    except SurveyFormatError as exc:
        error = str(exc)
    raise SurveyFormatError(f"{descriptor_path}: {error}")


def _check_descriptor(desc) -> dict:
    if not isinstance(desc, dict):
        raise SurveyFormatError(f"descriptor must be a JSON object, got {json.dumps(desc)[:80]}")
    if desc.get("mode") not in ("categories", "counts"):
        raise SurveyFormatError("descriptor 'mode' must be 'categories' or 'counts'")
    acts = desc.get("acts")
    if not isinstance(acts, list) or not acts:
        raise SurveyFormatError("descriptor 'acts' must be a non-empty list")
    act_of_column: dict[str, int] = {}
    for i, a in enumerate(acts):
        if not isinstance(a, dict):
            raise SurveyFormatError(
                f"descriptor act {i + 1} must be an object, got {json.dumps(a)[:80]}"
            )
        for key in ("column", "label", "category", "severity"):
            if key not in a:
                raise SurveyFormatError(f"descriptor act {i + 1} is missing {key!r}")
            if not isinstance(a[key], str):
                raise SurveyFormatError(
                    f"descriptor act {i + 1} {key!r} must be a string, got {json.dumps(a[key])[:80]}"
                )
        if a["column"] in act_of_column:
            raise SurveyFormatError(
                f"descriptor acts {act_of_column[a['column']]} and {i + 1} "
                f"both read column {a['column']!r}"
            )
        act_of_column[a["column"]] = i + 1
    weight = desc.get("weight_column")
    if weight is not None and not isinstance(weight, str):
        raise SurveyFormatError(
            f"descriptor 'weight_column' must be a string, got {json.dumps(weight)[:80]}"
        )
    if weight in act_of_column:
        raise SurveyFormatError(
            f"descriptor weight_column {weight!r} is also the column of act {act_of_column[weight]}"
        )
    return desc


def read_survey(data_path: str, descriptor_path: str) -> SurveyTable:
    """Read and validate a survey file against its descriptor.

    Rows with any missing act value are dropped (and counted); a row with
    fewer fields than the header, or more that are not empty, and a
    non-integer cell are parse errors reporting the file line; a negative
    cell, a category outside 0..3, or a count above the int64 maximum is a
    validation error naming the row and column.  An act cell is an integer
    when, stripped, it is ASCII digits with an optional sign; a weight cell
    is a number that ``float`` reads and that holds no underscore or
    non-ASCII character.  Weights must have a positive total.  A header
    must name each column the descriptor reads exactly once.  A file that
    is not UTF-8, or that the csv module cannot split, is an error naming
    the file and line.

    Respondents repeat each other's answers, so two memos check each act
    answer once.  A row first passes the checks that need all of it: one
    join finds a blank row or non-empty trailing fields.  Its act cells, as
    read, then key a memo that holds the index of their values in the
    distinct tuples, or -1 when one of them is missing; ``values`` is
    gathered from the distinct tuples.  The first row with a new tuple looks
    each cell up in a second memo, keyed by the cell string, that holds what
    ``_act_value`` returns for it.  A missing token drops the row; otherwise
    the first bad cell in column order raises, with that row's line, so the
    tuple memo never holds an error.  The weight cell is checked on every
    row whose acts are not missing.
    """
    desc = _parse_descriptor(descriptor_path)
    acts = tuple(
        ActSpec(i + 1, a["label"], a["category"], a["severity"])
        for i, a in enumerate(desc["acts"])
    )
    columns = [a["column"] for a in desc["acts"]]
    weight_col = desc.get("weight_column")
    max_allowed = coding.MAX_CATEGORY if desc["mode"] == "categories" else _MAX_COUNT

    distinct: list[list[int]] = []  # each valid tuple of act values, once
    picks: list[int] = []  # per kept row, the index of its values in ``distinct``
    weights: list[float] = []
    n_dropped = 0
    try:
        with open(data_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SurveyFormatError(f"{data_path}: file is empty")
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
            n_fields = len(header)
            act_cells = _row_key(col_idx)
            index_of: dict[tuple, int] = {}
            act_value = functools.cache(functools.partial(_act_value, max_allowed=max_allowed))

            last = reader.line_num
            for raw in reader:
                # the record's first file line: a quoted field may span lines
                line_no, last = last + 1, reader.line_num
                if not "".join(raw).strip():
                    continue
                # trailing empty fields are accepted
                if len(raw) != n_fields and (
                    len(raw) < n_fields or "".join(raw[n_fields:]).strip()
                ):
                    raise SurveyFormatError(
                        f"{data_path}:{line_no}: expected {n_fields} fields, got {len(raw)}"
                    )
                key = act_cells(raw)
                index = index_of.get(key)
                if index is None:
                    values = list(map(act_value, key))
                    if None in values:
                        index = -1
                    elif str in map(type, values):
                        name, end = next((c, v) for c, v in zip(columns, values) if type(v) is str)
                        raise SurveyFormatError(f"{data_path}:{line_no}: column {name!r} {end}")
                    else:
                        index = len(distinct)
                        distinct.append(values)
                    index_of[key] = index
                if index < 0:
                    n_dropped += 1
                    continue
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
                        raise SurveyFormatError(
                            f"{data_path}:{line_no}: weight column {weight_col!r} has "
                            f"non-numeric value {cell!r}") from None
                    if not 0.0 <= weights[-1] < np.inf:
                        raise SurveyFormatError(f"{data_path}:{line_no}: weight {cell!r} is not "
                                                "a finite, non-negative number")
                picks.append(index)
    except csv.Error as exc:
        raise SurveyFormatError(f"{data_path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(data_path) from None

    if not picks:
        raise SurveyFormatError(f"{data_path}: no complete rows")
    if weight_col is not None and not any(weights):
        raise SurveyFormatError(f"{data_path}: weight column {weight_col!r} sums to zero")
    return SurveyTable(
        acts=acts,
        values=np.asarray(distinct, dtype=np.int64)[picks],
        mode=desc["mode"],
        weights=np.asarray(weights) if weight_col is not None else None,
        n_dropped=n_dropped,
    )


def _row_key(col_idx: list[int]):
    """The function that takes a row to its act cells, as a tuple."""
    cells = operator.itemgetter(*col_idx)
    return cells if len(col_idx) > 1 else lambda raw: (cells(raw),)


def _act_value(cell: str, max_allowed: int) -> int | str | None:
    """An act cell's value, or None when it is a missing token, or, when it
    is not an integer in 0..``max_allowed`` (the top category, or the int64
    maximum in counts mode), the end of its error message.  A cell is an
    integer when ``_INTEGER`` matches it stripped.  Its digits are read only
    when they are no more than ``max_allowed``'s (``int`` refuses over 4300)."""
    cell = cell.strip()
    if not _INTEGER.fullmatch(cell):
        return None if cell.lower() in MISSING_TOKENS else f"has non-integer value {cell!r}"
    digits = cell.lstrip("+-").lstrip("0") or "0"
    negative = cell[0] == "-" and digits != "0"
    if not negative and len(digits) <= len(str(max_allowed)) and int(digits) <= max_allowed:
        return int(digits)
    if len(digits) > 40:  # a message shows 40 digits at most
        digits = f"{digits[:40]}... ({len(digits)} digits)"
    if negative:
        return f"is negative (-{digits})"
    kind = "category" if max_allowed == coding.MAX_CATEGORY else "count"
    return f"has {kind} {digits} outside 0..{max_allowed}"


def _not_utf8(data_path: str) -> SurveyFormatError:
    """The error of a survey file that is not UTF-8, naming the line and the
    file offset of its first bad byte (the codec's own position counts from
    the chunk the text reader was decoding)."""
    with open(data_path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return SurveyFormatError(
            f"{data_path}:{line}: not UTF-8: byte {data[exc.start]:#04x} at offset "
            f"{exc.start} ({exc.reason})"
        )
    return SurveyFormatError(f"{data_path}: not UTF-8")


def write_survey(table: SurveyTable, data_path: str, descriptor_path: str):
    """Write a table and matching descriptor (inverse of ``read_survey``)."""
    columns = [f"act_{a.index:02d}" for a in table.acts]
    desc = {
        "mode": table.mode,
        "acts": [
            {"column": col, "label": a.label, "category": a.category, "severity": a.severity}
            for col, a in zip(columns, table.acts)
        ],
    }
    if table.weights is not None:
        desc["weight_column"] = "weight"
        columns = columns + ["weight"]
    _atomic_write_text(descriptor_path, json.dumps(desc, indent=2) + "\n")
    lines = [",".join(columns)]
    for i in range(table.n_rows):
        cells = [str(int(v)) for v in table.values[i]]
        if table.weights is not None:
            cells.append(repr(float(table.weights[i])))
        lines.append(",".join(cells))
    _atomic_write_text(data_path, "\n".join(lines) + "\n")


def _atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Latent correlation estimation


def _mid_rank_scores(cum: np.ndarray) -> np.ndarray:
    """The normal scores of the mid-distribution ranks of cells whose
    cumulative probabilities are ``cum``."""
    low = np.concatenate([[0.0], cum[:-1]])
    return ndtri(np.clip((cum + low) / 2.0, 1e-12, 1.0 - 1e-12))


def _cell_structure(p: np.ndarray):
    """Cell probabilities ``p``, cumulative probabilities, upper latent-normal
    bounds, and model-implied mid-distribution normal scores for one act's
    cells.  A bound is -inf where no mass lies below it, and +inf where none
    lies above."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    bounds = np.where(cum >= 1.0, np.inf, ndtri(np.minimum(cum, 1.0 - 1e-16)))
    return p, cum, bounds, _mid_rank_scores(cum)


def _bvn_cdf(h, k, rho, cdf_h, cdf_k):
    """The bivariate standard normal CDF Phi2(h, k; rho), |rho| < 1, at the
    broadcast arrays ``h`` and ``k``, given Phi(h) and Phi(k).

    Owen (1956): Phi2 = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
    with Owen's T, a_h = (k / h - rho) / sqrt(1 - rho^2) (and a_k likewise),
    and beta = 1/2 when h and k lie on opposite sides of 0 (0 on the
    positive side).  At h = k = 0 the two T terms sum to 1/4 - asin(rho) / (2 pi);
    where a bound is infinite, Phi2 = min(Phi(h), Phi(k)), and no T is
    evaluated there."""
    h, k, rho, cdf_h, cdf_k = np.broadcast_arrays(h, k, rho, cdf_h, cdf_k)
    out = np.minimum(cdf_h, cdf_k)
    finite = np.isfinite(h) & np.isfinite(k)
    h, k, rho = h[finite], k[finite], rho[finite]
    r = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):  # k / h at h = 0
        t = owens_t(h, (k / h - rho) / r) + owens_t(k, (h / k - rho) / r)
    origin = (h == 0.0) & (k == 0.0)
    t[origin] = 0.25 - np.arcsin(rho[origin]) / (2.0 * np.pi)
    out[finite] = 0.5 * (cdf_h[finite] + cdf_k[finite]) - t - 0.5 * ((h < 0.0) != (k < 0.0))
    return out


class _ScoreCorrelation:
    """The correlation of two acts' discretized normal scores implied by a
    Gaussian copula, as a function of its latent correlation rho, for many
    pairs of acts at once.

    Summation by parts writes an act's score as its last cell's score plus
    the steps d[a] = s[a] - s[a + 1] of the cells at or above a, so that,
    with the means subtracted, the covariance of acts j and l is one
    contraction over the upper bounds h and k of all their cells but the
    last: sum_ab d_j[a] d_l[b] (Phi2(h[a], k[b]; rho) - C_j[a] C_l[b]), C
    the cumulative probabilities, which also give Phi(h) and Phi(k).  Every
    act is padded to one number of bounds with zero steps (at +inf,
    cumulative probability 1), so a call is one ``_bvn_cdf`` over every
    pair's grid.
    """

    def __init__(self, cells):
        n = max(len(p) for p, *_ in cells) - 1
        self.cum = np.ones((len(cells), n))
        self.bounds = np.full((len(cells), n), np.inf)
        self.steps = np.zeros((len(cells), n))
        self.sd = np.empty(len(cells))
        for a, (p, cum, bounds, scores) in enumerate(cells):
            m = len(p) - 1
            self.cum[a, :m], self.bounds[a, :m] = cum[:-1], bounds[:-1]
            self.steps[a, :m] = scores[:-1] - scores[1:]
            mu = p @ scores
            self.sd[a] = np.sqrt(p @ (scores * scores) - mu * mu)

    def __call__(self, j: np.ndarray, l: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """The score correlation of each act pair (j[i], l[i]) at rho[i]."""
        cum_j, cum_l = self.cum[j][:, :, None], self.cum[l][:, None, :]
        phi2 = _bvn_cdf(self.bounds[j][:, :, None], self.bounds[l][:, None, :],
                        rho[:, None, None], cum_j, cum_l)
        cov = np.einsum("pa,pab,pb->p", self.steps[j], phi2 - cum_j * cum_l, self.steps[l])
        return cov / (self.sd[j] * self.sd[l])


def _empirical_scores(codes: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Normal scores of mid-distribution ranks of one act's cell codes."""
    counts = np.bincount(codes, weights)
    return _mid_rank_scores(np.cumsum(counts) / counts.sum())[codes]


def _score_correlations(scores: list[np.ndarray], weights: np.ndarray | None,
                        j: np.ndarray, l: np.ndarray) -> np.ndarray:
    """The weighted Pearson correlation of the empirical scores of each act
    pair (j[i], l[i]): each act's centred scores, weighted scores and
    weighted variance once, then one dot product per pair."""
    w = np.ones(len(scores[0])) if weights is None else weights
    w = w / w.sum()
    centred = [a - w @ a for a in scores]
    weighted = [w * a for a in centred]
    variance = np.array([wa @ a for wa, a in zip(weighted, centred)])
    cross = np.array([weighted[a] @ centred[b] for a, b in zip(j.tolist(), l.tolist())])
    return cross / np.sqrt(variance[j] * variance[l])


_RHO_LIMIT = 0.9995
_ROOT_XTOL = 1e-6


def latent_correlation_matrix(table: SurveyTable, margins) -> np.ndarray:
    """Pairwise latent-normal correlations of the acts.

    The plain Pearson correlation of mid-rank normal scores is attenuated
    by the discreteness of the responses.  Each pair's rho instead inverts
    the score correlation that the fitted marginals imply under the
    Gaussian copula: a root within +-_RHO_LIMIT, each step of which
    evaluates the pair's score correlation exactly, from the bivariate
    normal CDF at the acts' cell bounds (their categories, or
    ``count_cells``, which also bin the survey; ``_ScoreCorrelation``).
    scipy's ``find_root`` (Chandrupatla's method) searches every pair's
    root at once, to within _ROOT_XTOL, with one evaluation of every pair
    still searching per round.
    A pair whose gap has one sign at both limits takes the limit its root
    lies at or past.  An act with zero_prob = 1, or with its rows of
    positive weight in one cell, gets zero correlation.  A NaN score
    correlation raises ValueError.  The result is symmetric but not
    necessarily PSD; project with ``nearest_psd``.
    """
    k = table.n_acts
    margins = tuple(margins)
    validate_margins(table.acts, margins)
    coded = [count_cells(m, c) if table.mode == "counts" else (c, category_probs(m))
             for c, m in zip(table.values.T, margins)]
    positive = slice(None) if table.weights is None else table.weights > 0
    acts = [a for a, (m, (c, _)) in enumerate(zip(margins, coded))
            if not (m.zero_prob >= 1 or np.ptp(c[positive]) == 0)]
    sigma = np.eye(k)
    if len(acts) < 2:
        return sigma
    index = np.array(acts)
    j, l = np.triu_indices(len(acts), 1)
    observed = _score_correlations([_empirical_scores(coded[a][0], table.weights) for a in acts],
                                   table.weights, j, l)
    corr = _ScoreCorrelation([_cell_structure(coded[a][1]) for a in acts])
    res = find_root(lambda x, j, l, obs: corr(j, l, x) - obs, (-_RHO_LIMIT, _RHO_LIMIT),
                    args=(j, l, observed), tolerances={"xatol": _ROOT_XTOL, "xrtol": 0.0})
    nan = np.flatnonzero(res.status == -3)
    if nan.size:
        labels = [table.acts[index[a]].label for a in (j[nan[0]], l[nan[0]])]
        raise ValueError(f"the score correlation of acts {labels} is NaN")
    if np.any((res.status != 0) & (res.status != -1)):
        raise RuntimeError(f"latent correlation root search failed: status {res.status.min()}")
    rho = np.where(res.status == 0, res.x,
                   np.where(res.f_bracket[1] <= 0.0, _RHO_LIMIT, -_RHO_LIMIT))
    sigma[index[j], index[l]] = sigma[index[l], index[j]] = rho
    return sigma


# ---------------------------------------------------------------------------
# Model fitting


@dataclass
class ActFit:
    """Per-act fit diagnostics for the report."""

    label: str
    fit: FitResult
    chi2_p: float | None  # None when the fit saturates the category table


@dataclass
class FitReport:
    per_act: list[ActFit]
    sigma_psd_distance: float  # Frobenius norm of nearest_psd(sigma) - sigma
    # act pairs (table positions j < l) whose latent correlation is at +-_RHO_LIMIT:
    # their root lies at or past the limit
    clamped: list[tuple[int, int]]


def _category_gof(fit: FitResult, observed: np.ndarray) -> float | None:
    """The p-value of Pearson's chi-squared test of the fitted category
    probabilities against ``observed``: one degree of freedom for ZIP's two
    parameters, and None for ZINB, whose three saturate the four categories."""
    if fit.params.family == ZINB:
        return None
    expected = category_probs(fit.params) * observed.sum()
    mask = expected > 0
    stat = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
    return float(chdtrc(1, stat))


def _fit_acts(table: SurveyTable, family: str) -> list[ActFit]:
    """Each act's margin fit to its counts or categories, per the table's
    mode, and its category GOF.  A counts-mode margin whose CDF table would
    pass the limit is refused, naming the act and its largest count.  A
    categories-mode table's acts are fitted in one ``fit_mle_censored_batch``
    call."""
    if table.mode == "counts":
        fits, observed = [], []
        for act, column in zip(table.acts, table.values.T):
            fit = fit_mle_exact(column, family, weights=table.weights)
            try:
                cdf_table_size(fit.params)
            except ValueError as exc:
                raise ValueError(f"act {act.index} ({act.label!r}), largest count "
                                 f"{column.max()}: {exc}") from None
            fits.append(fit)
            observed.append(_category_hist(coding.categorize(column), table.weights))
    else:
        observed = [_category_hist(column, table.weights) for column in table.values.T]
        fits = fit_mle_censored_batch(observed, family)
    return [ActFit(act.label, fit, _category_gof(fit, n))
            for act, fit, n in zip(table.acts, fits, observed)]


def fit_model(table: SurveyTable, family: str = "zip"):
    """Calibrate a MultiActModel to a survey table.

    Returns (model, report).  Acts with no positive responses are flagged
    degenerate (zero_prob pinned at 1, rate not identified) and carry zero
    latent correlation.
    """
    if table.n_acts < 2:
        raise ValueError("need at least 2 acts to fit a joint model")
    per_act = _fit_acts(table, family)
    margins = tuple(act_fit.fit.params for act_fit in per_act)
    sigma = latent_correlation_matrix(table, margins)
    projected = nearest_psd(sigma)
    clamped = [(int(j), int(l)) for j, l in zip(*np.triu_indices(table.n_acts, 1))
               if abs(sigma[j, l]) == _RHO_LIMIT]
    return (MultiActModel(table.acts, margins, projected),
            FitReport(per_act, float(np.linalg.norm(projected - sigma)), clamped))


def _category_hist(categories: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    return np.bincount(categories, weights, minlength=coding.MAX_CATEGORY + 1).astype(float)


# ---------------------------------------------------------------------------
# Empirical resampling


# Categories 0 and 1 hold one count each and impute to themselves; 2 and 3
# span counts 2..4 and 5.. and are imputed from the fitted margin.
_IMPUTED_INTERVALS = ((2, 4), (5, None))
# Key of entry i of imputation group g: g * 2**54 + floor(cdf_i * 2**53).
# A conditional CDF ends within rounding of 1, so its scaled entries stay
# below 2**54 and the groups cannot overlap; int64 keys allow 512 groups.
_KEY_SHIFT = 54
_U_SCALE = 2.0**53
_MAX_IMPUTED_ACTS = 2 ** (63 - _KEY_SHIFT) // len(_IMPUTED_INTERVALS)


class EmpiricalResampler:
    """Draws control-arm latent counts by bootstrapping survey rows.

    Rows are resampled with replacement (with probability proportional to
    the weights, if any), preserving the joint empirical distribution of
    responses.  For category-mode tables each reported category is
    converted to a latent count by sampling the fitted marginal conditional
    on the category's count interval, so the categorization of the imputed
    count always reproduces the observed category.

    Imputation is one vectorized lookup.  Each (act, category 2 or 3)
    group g has a conditional CDF over the contiguous counts lo, lo+1, ...
    (just [lo] when the margin gives the interval no mass).  All groups'
    CDFs are stored once as one sorted int64 key table, entry i of group g
    holding ``g * 2**54 + floor(cdf_i * 2**53)``.  A uniform u imputes the
    count ``lo + min(#{i : cdf_i < u}, len - 1)``; that count of entries
    is ``searchsorted(keys, g * 2**54 + u * 2**53) - start[g]``.  The rule
    is exact: ``Generator.random`` returns u = k / 2**53 for an integer k,
    scaling by 2**53 is exact, and cdf * 2**53 < k exactly when its floor
    is, so the result is the count a per-group ``searchsorted(cdf, u)``
    gives.  An int16 copy of the table holds, per entry, its category (0
    or 1) or 2 + its group, so a call gathers the drawn rows once and
    touches only the category-2/3 entries after that.
    """

    def __init__(self, table: SurveyTable, margins=None, family: str = "zip"):
        self.table = table
        self.acts = table.acts
        self._codes = None
        if table.mode == "categories":
            if table.n_acts > _MAX_IMPUTED_ACTS:
                raise ValueError(
                    f"category-mode resampling supports at most {_MAX_IMPUTED_ACTS} acts, "
                    f"got {table.n_acts}"
                )
            if margins is None:
                margins = [act_fit.fit.params for act_fit in _fit_acts(table, family)]
            self.margins = tuple(margins)
            validate_margins(table.acts, self.margins)
            groups = [g for m in self.margins for g in self._conditional_cdfs(m)]
            sizes = np.array([len(cdf) for _, cdf in groups])
            start = np.cumsum(sizes) - sizes
            self._keys = np.concatenate([
                (g << _KEY_SHIFT) + np.floor(cdf * _U_SCALE).astype(np.int64)
                for g, (_, cdf) in enumerate(groups)
            ])
            # imputed count = lo + min(position - start, len - 1)
            self._last = start + sizes - 1
            self._value_shift = np.array([lo for lo, _ in groups]) - start
            # per table entry: category 0 or 1 as is, or 2 + its imputation
            # group; the group of category c >= 2 in column j is 2 * j + c - 2
            values = table.values
            self._codes = np.where(
                values >= 2, values + 2 * np.arange(table.n_acts), values
            ).astype(np.int16)
        self._row_cdf = None
        if table.weights is not None:
            # the CDF that Generator.choice(p=weights / total) builds per call
            self._row_cdf = (table.weights / table.weights.sum()).cumsum()
            self._row_cdf /= self._row_cdf[-1]

    @staticmethod
    def _conditional_cdfs(margin: MarginalParams) -> list[tuple[int, np.ndarray]]:
        """Per imputed category: (lowest count, conditional CDF over lo, lo+1, ...)."""
        pmf = np.diff(np.concatenate([[0.0], cdf_table(margin)]))
        out = []
        for lo, hi in _IMPUTED_INTERVALS:
            mass = pmf[lo : (None if hi is None else hi + 1)]
            if mass.size == 0 or mass.sum() <= 0:
                # category unobservable under the fitted margin: impute the
                # interval's smallest count
                out.append((lo, np.array([1.0])))
            else:
                out.append((lo, np.cumsum(mass) / mass.sum()))
        return out

    def sample_control(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n latent count rows resampled (and imputed) from the table."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._row_cdf is None:
            idx = rng.integers(0, self.table.n_rows, size=n)
        else:
            idx = self._row_cdf.searchsorted(rng.random(n), side="right")
        if self._codes is None:
            return self.table.values[idx]
        n_acts = self.table.n_acts
        code = self._codes[idx]
        # row j holds act j's uniforms: the stream of n_acts calls rng.random(n)
        u = rng.random((n_acts, n))
        flat = np.flatnonzero(code >= 2)
        row, act = np.divmod(flat, n_acts)
        g = code.take(flat).astype(np.int64) - 2
        position = self._keys.searchsorted((g << _KEY_SHIFT) + (u[act, row] * _U_SCALE).astype(np.int64))
        out = code.astype(np.int64)
        out.put(flat, self._value_shift[g] + np.minimum(position, self._last[g]))
        return out


# ---------------------------------------------------------------------------
# Model files


def save_model(model: MultiActModel, path: str):
    """Write a model to a versioned, human-readable JSON file."""
    payload = {"schema_version": MODEL_SCHEMA_VERSION, **model.to_dict()}
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str) -> MultiActModel:
    """Read a model file; a malformed one raises ValueError naming ``path``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
        version = payload.get("schema_version")
        if type(version) is not int or version != MODEL_SCHEMA_VERSION:
            raise ValueError(f"model file schema version {version!r} not supported "
                             f"(expected {MODEL_SCHEMA_VERSION})")
        return MultiActModel.from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None
