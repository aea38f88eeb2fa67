"""Joint model for K correlated act counts.

Each act has its own zero-inflated marginal; dependence across acts is
induced by a Gaussian copula: a latent multivariate-normal draw with
correlation matrix ``sigma`` is pushed through the standard-normal CDF and
then through each marginal's quantile function.  This preserves every
marginal exactly while coupling structural zeros and counts through the
single latent draw (a low latent score lands in the zero region), so acts
tend to co-occur when ``sigma`` is positive.

``sigma`` is therefore a correlation on the latent-normal scale, not the
covariance of the counts themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .marginals import MarginalParams, cdf_table

ACT_CATEGORIES = ("emotional", "physical", "sexual")
SEVERITIES = ("moderate", "severe")

_PSD_TOL = -1e-10


@dataclass(frozen=True)
class ActSpec:
    """One survey item: a specific act with its category and severity."""

    index: int  # 1-based position in the instrument
    label: str
    category: str
    severity: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("act index must be >= 1")
        if self.category not in ACT_CATEGORIES:
            raise ValueError(f"unknown act category {self.category!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


def validate_acts(acts) -> tuple[ActSpec, ...]:
    acts = tuple(acts)
    if not acts:
        raise ValueError("act list is empty")
    if sorted(a.index for a in acts) != list(range(1, len(acts) + 1)):
        raise ValueError("act indices must be unique and contiguous from 1")
    return acts


@dataclass
class MultiActModel:
    """K act specs, their marginals, and the latent correlation matrix."""

    acts: tuple[ActSpec, ...]
    margins: tuple[MarginalParams, ...]
    sigma: np.ndarray

    def __post_init__(self):
        self.acts = validate_acts(self.acts)
        self.margins = tuple(self.margins)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.validate()

    @property
    def n_acts(self) -> int:
        return len(self.acts)

    def validate(self):
        k = len(self.acts)
        if len(self.margins) != k:
            raise ValueError(f"{len(self.margins)} margins for {k} acts")
        if self.sigma.shape != (k, k):
            raise ValueError(f"sigma shape {self.sigma.shape} does not match K={k}")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        if not np.allclose(np.diag(self.sigma), 1.0, atol=1e-12):
            raise ValueError("sigma must have unit diagonal")
        eigvals = np.linalg.eigvalsh(self.sigma)
        if eigvals[0] < _PSD_TOL:
            raise ValueError(
                f"sigma is not positive semi-definite: smallest eigenvalue {eigvals[0]:.6g}"
            )

    def to_dict(self) -> dict:
        return {
            "acts": [
                {"index": a.index, "label": a.label, "category": a.category, "severity": a.severity}
                for a in self.acts
            ],
            "margins": [
                {
                    "family": m.family,
                    "rate": m.rate,
                    "zero_prob": m.zero_prob,
                    **({"dispersion": m.dispersion} if m.dispersion is not None else {}),
                }
                for m in self.margins
            ],
            "sigma": self.sigma.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultiActModel":
        acts = tuple(
            ActSpec(a["index"], a["label"], a["category"], a["severity"]) for a in d["acts"]
        )
        margins = tuple(
            MarginalParams(m["family"], m["rate"], m["zero_prob"], m.get("dispersion"))
            for m in d["margins"]
        )
        return cls(acts, margins, np.asarray(d["sigma"], dtype=float))


def nearest_psd(matrix: np.ndarray, eig_floor: float = 1e-8) -> np.ndarray:
    """Project a symmetric matrix to a PSD correlation matrix.

    A matrix that already is one (unit diagonal, smallest eigenvalue within
    the tolerance ``MultiActModel.validate`` allows) is returned unchanged.
    Otherwise eigenvalues below ``eig_floor`` are clipped up, the matrix is
    rebuilt, and the diagonal is rescaled to 1; a second call returns that.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("expected a symmetric matrix")
    eigvals, eigvecs = np.linalg.eigh((a + a.T) / 2.0)
    if eigvals[0] >= _PSD_TOL and np.allclose(np.diag(a), 1.0, atol=1e-12):
        return a.copy()
    fixed = (eigvecs * np.maximum(eigvals, eig_floor)) @ eigvecs.T
    d = np.sqrt(np.diag(fixed))
    out = fixed / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return (out + out.T) / 2.0


def _latent_transform(sigma: np.ndarray) -> np.ndarray:
    """Matrix A with A @ A.T = sigma, tolerant of semi-definite input."""
    eigvals, eigvecs = np.linalg.eigh(sigma)
    return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))


class CopulaSampler:
    """The Gaussian-copula draw of one model, its fixed work done once.

    Construction validates the model, factors ``sigma`` and fetches each
    margin's CDF table.  ``counts`` maps a block of replications' standard
    normals to counts: each replication's ``(n, K)`` draw is correlated
    through the factor (one matrix product per replication, so a block
    gives each replication the values it gets alone), and each act's
    latent values are mapped to counts by inverse-transform lookup: the
    count is the smallest y with cdf(y) >= ndtr(z), capped at the table's
    last entry.

    Most latent values of a zero-inflated act fall in its zero entry, so
    ``ndtr`` and the table search run only on the values above that entry's
    threshold.  The lookup is act-major: one comparison finds every such
    value of the block, grouped by act, one ``ndtr`` call maps them all,
    and each act searches its own table once, on its contiguous share.
    """

    def __init__(self, model: MultiActModel):
        model.validate()
        self.n_acts = model.n_acts
        self.latent_t = _latent_transform(model.sigma).T
        tables = [cdf_table(m) for m in model.margins]
        # every z at or below its threshold has ndtr(z) <= table[0], a zero
        # count: the relative margin of 1e-9 dwarfs ndtr's rounding error,
        # even where table[0] is within an ulp of 1
        self.z_zero = np.array([ndtri(table[0] * (1.0 - 1e-9)) for table in tables])
        # a last entry of inf makes searchsorted return at most the last
        # index: a u above the table's last entry maps to its count
        self.tables = [np.append(table[:-1], np.inf) for table in tables]

    def counts(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The counts of a block of B replications' standard normals.

        ``normals`` is (B, n, K).  Returns the (B, n, K) integer counts and
        the entries above their act's zero threshold, the only ones that
        can be positive: each one's row in the (B * n, K) view of the
        counts, and its count.
        """
        z = np.matmul(normals, self.latent_t)
        k = self.n_acts
        m = z.size // k
        # act-major: entry a * m + r is row r of act a
        flat = np.flatnonzero(z.reshape(m, k).T > self.z_zero[:, None])
        act, row = np.divmod(flat, m)
        index = row * k + act
        u = ndtr(z.reshape(-1)[index])
        values = np.empty(len(flat), dtype=np.int64)
        start = 0
        for table, end in zip(self.tables, flat.searchsorted(np.arange(1, k + 1) * m)):
            values[start:end] = table.searchsorted(u[start:end])
            start = end
        out = np.zeros(z.shape, dtype=np.int64)
        out.reshape(-1)[index] = values
        return out, row, values


def sample_joint(model: MultiActModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n joint draws of the K act counts (n x K integer matrix)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CopulaSampler(model).counts(rng.standard_normal((1, n, model.n_acts)))[0][0]
