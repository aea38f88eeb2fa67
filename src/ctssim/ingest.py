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
import json
import operator
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import chdtrc, ndtr, ndtri

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
        with open(descriptor_path, encoding="utf-8") as fh:
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
    validation error naming the row and column.  A header must name each
    column the descriptor reads exactly once.  A file that is not UTF-8,
    or that the csv module cannot split, is an error naming the file and
    line.

    Each distinct tuple of act cells, as read, is checked once.  A row
    first passes the checks that need all of it: one join finds a blank row
    or non-empty trailing fields.  Its act cells then key a memo that holds
    the index of their parsed values, or -1 when one of them is missing.
    The first row with a key checks its cells whole (``_parse_acts``) and
    raises, with its own line, if one is bad, so the memo never holds an
    error; later rows with the key reuse the entry.  The weight cell is
    checked on every row whose acts are not missing.  Respondents repeat
    each other's answers, so a survey parses each answer pattern once and
    ``values`` is gathered from the distinct patterns.
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
        with open(data_path, newline="", encoding="utf-8") as fh:
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
                    parsed = _parse_acts(key, columns, max_allowed, f"{data_path}:{line_no}")
                    index = index_of[key] = -1 if parsed is None else len(distinct)
                    if parsed is not None:
                        distinct.append(parsed)
                if index < 0:
                    n_dropped += 1
                    continue
                if w_idx is not None:
                    cell = raw[w_idx].strip()
                    if cell.lower() in MISSING_TOKENS:
                        n_dropped += 1
                        continue
                    try:
                        weights.append(float(cell))
                    except ValueError:
                        raise SurveyFormatError(
                            f"{data_path}:{line_no}: weight column has non-numeric value {cell!r}"
                        ) from None
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


def _parse_acts(cells: tuple, columns, max_allowed: int, where: str) -> list[int] | None:
    """A row's act cells as integers, or None when one is a missing token;
    raises the error of the first bad cell.

    ``int`` ignores the whitespace that ``str.strip`` removes, and no
    missing token parses as an integer, so a row that parses and lies in
    range has no missing token; only one that does not is stripped and
    tested for a missing token, then reported.
    """
    try:
        parsed = list(map(int, cells))
    except ValueError:
        parsed = None
    if parsed is not None and min(parsed) >= 0 and max(parsed) <= max_allowed:
        return parsed
    cells = [c.strip() for c in cells]
    if not MISSING_TOKENS.isdisjoint(map(str.lower, cells)):
        return None
    raise _cell_error(where, columns, cells, max_allowed)


def _cell_error(where: str, columns, cells, max_allowed: int) -> SurveyFormatError:
    """The error of the first act cell of a row that is not an integer, is
    negative, or is above ``max_allowed`` (the top category, or the int64
    maximum in counts mode)."""
    kind = "category" if max_allowed == coding.MAX_CATEGORY else "count"
    for name, cell in zip(columns, cells):
        try:
            value = int(cell)
        except ValueError:
            return SurveyFormatError(f"{where}: column {name!r} has non-integer value {cell!r}")
        if value < 0:
            return SurveyFormatError(f"{where}: column {name!r} is negative ({value})")
        if value > max_allowed:
            return SurveyFormatError(
                f"{where}: column {name!r} has {kind} {value} outside 0..{max_allowed}"
            )
    raise ValueError(f"{where}: no bad cell in {cells}")


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


def _cell_structure(p: np.ndarray):
    """Cell probabilities ``p``, upper latent-normal bounds, and model-implied
    mid-distribution normal scores for one act's cells."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    low = np.concatenate([[0.0], cum[:-1]])
    scores = ndtri(np.clip((cum + low) / 2.0, 1e-12, 1.0 - 1e-12))
    bounds = np.where(cum >= 1.0, np.inf, ndtri(np.minimum(cum, 1.0 - 1e-16)))
    return p, bounds, scores


_GL_NODES, _GL_WEIGHTS = leggauss(12)
_Z_LIMIT = 8.5


def _score_corr_theory(cell_j, cell_k):
    """The correlation of two acts' discretized normal scores implied by a
    Gaussian copula, as a function of its latent correlation rho.

    E[s_j s_k] integrates act j's latent value over each of its cells by
    Gauss-Legendre quadrature, with act k's cell probabilities given that
    value.  ``cell_j`` and ``cell_k`` are ``_cell_structure`` results.
    Everything but act k's conditional probabilities (the score moments,
    the nodes, weights and normal densities) is free of rho and computed
    here, once per pair; the returned function does the rest.
    """
    pj, bj, sj = cell_j
    pk, bk, sk = cell_k
    mu_j, mu_k = float(pj @ sj), float(pk @ sk)
    sd_j = float(np.sqrt(pj @ (sj * sj) - mu_j * mu_j))
    sd_k = float(np.sqrt(pk @ (sk * sk) - mu_k * mu_k))
    mu_jk, sd_jk = mu_j * mu_k, sd_j * sd_k
    lo = np.concatenate([[-_Z_LIMIT], bj[:-1]])
    hi = np.minimum(bj, _Z_LIMIT)
    lo = np.minimum(lo, hi)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    z = nodes.ravel()
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    z = z[:, None]
    bk_low = np.concatenate([[-np.inf], bk[:-1]])

    def corr(rho: float) -> float:
        tau = np.sqrt(max(1.0 - rho * rho, 1e-12))
        cond = (ndtr((bk - rho * z) / tau) - ndtr((bk_low - rho * z) / tau)) @ sk
        per_cell = np.sum((density * cond).reshape(weights.shape) * weights, axis=1)
        return (float(sj @ per_cell) - mu_jk) / sd_jk

    return corr


def _empirical_scores(codes: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Normal scores of mid-distribution ranks of one act's cell codes."""
    counts = np.bincount(codes, weights)
    cum = np.cumsum(counts) / counts.sum()
    low = np.concatenate([[0.0], cum[:-1]])
    return ndtri(np.clip((cum + low) / 2.0, 1e-12, 1.0 - 1e-12))[codes]


def _weighted_corr(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None) -> float:
    w = np.ones(len(a)) if weights is None else weights
    w = w / w.sum()
    am, bm = a - w @ a, b - w @ b
    return float((w * am) @ bm / np.sqrt(((w * am) @ am) * ((w * bm) @ bm)))


_RHO_LIMIT = 0.9995


def latent_correlation_matrix(table: SurveyTable, margins) -> np.ndarray:
    """Pairwise latent-normal correlations of the acts.

    The plain Pearson correlation of mid-rank normal scores is attenuated
    by the discreteness of the responses.  Each pair's rho instead inverts
    the score correlation that the fitted marginals imply under the
    Gaussian copula: a root search over rho, each step of which evaluates
    the pair's score correlation by quadrature over the acts' cells (their
    categories, or ``count_cells``, which also bin the survey).  The rho-free
    part (score moments, nodes, weights, normal densities) is computed once
    per pair, before the search starts.  An act with zero_prob = 1, or with
    its rows of positive weight in one cell, gets zero correlation.  The
    result is symmetric but not necessarily PSD; project with ``nearest_psd``.
    """
    k = table.n_acts
    margins = tuple(margins)
    validate_margins(table.acts, margins)
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
            r_obs = _weighted_corr(scores[j], scores[l], table.weights)
            corr = _score_corr_theory(cells[j], cells[l])
            at_limit = {r: corr(r) - r_obs for r in (-_RHO_LIMIT, _RHO_LIMIT)}
            if at_limit[_RHO_LIMIT] <= 0.0:
                rho = _RHO_LIMIT
            elif at_limit[-_RHO_LIMIT] >= 0.0:
                rho = -_RHO_LIMIT
            else:  # brentq starts from the limits: their gaps are reused
                rho = brentq(lambda r: at_limit[r] if r in at_limit else corr(r) - r_obs,
                             -_RHO_LIMIT, _RHO_LIMIT, xtol=1e-6)
            sigma[j, l] = sigma[l, j] = rho
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
    return (MultiActModel(table.acts, margins, projected),
            FitReport(per_act, float(np.linalg.norm(projected - sigma))))


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
            total = table.weights.sum()
            if total <= 0:
                raise ValueError("weights sum to zero")
            # the CDF that Generator.choice(p=weights / total) builds per call
            self._row_cdf = (table.weights / total).cumsum()
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
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise ValueError(f"model file schema version {version!r} not supported "
                             f"(expected {MODEL_SCHEMA_VERSION})")
        return MultiActModel.from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None
