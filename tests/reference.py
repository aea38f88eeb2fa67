"""The reference replication pipeline: one stage function per step.

``harness.CellKernel`` runs a replication as one fused kernel.  These are
the same steps written plainly, one function each, as the specification
the kernel is pinned to: ``test_harness`` checks that a replication of the
kernel equals these functions run on the same random stream, bit for bit.
``counts_from_uniforms`` is the inverse-transform rule of the copula draw,
``hc2_from_arms`` the HC2 estimate from the arms' outcome vectors, and
``check_schedule`` the invariants every potential-outcome schedule keeps.
They are test code, not part of the ctssim package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ctssim import coding
from ctssim.estimation import _mean_var, hc2_from_moments
from ctssim.joint import ActSpec
from ctssim.outcomes import EffectScenario, PotentialOutcomeTable, ResponseType, target_columns

# ---------------------------------------------------------------------------
# Control counts


def counts_from_uniforms(table: np.ndarray, u) -> np.ndarray:
    """Map uniforms in [0, 1) to counts through a CDF table: the smallest
    count y with table[y] >= u, capped at the table's last entry."""
    idx = np.searchsorted(table, u, side="left")
    return np.minimum(idx, len(table) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Potential-outcome schedules


def assign_response_types(
    y0: np.ndarray,
    scenario: EffectScenario,
    acts: Sequence[ActSpec],
    rng: np.random.Generator,
) -> np.ndarray:
    """Label each unit: never-violent, or one of the four drawn types.

    A unit is "violent" (eligible for a type draw) if any targeted act is
    positive under control; untargeted violence never triggers effects.
    ``rng.choice`` is the specification: the kernel draws the uniforms
    itself and maps them through the scenario's CDF, which
    ``test_harness.TestSamplingRule`` pins to this call.
    """
    cols = target_columns(acts, scenario.target)
    violent = (np.asarray(y0)[:, cols] > 0).any(axis=1)
    s = np.full(y0.shape[0], ResponseType.NEVER_VIOLENT, dtype=np.int8)
    n_violent = int(violent.sum())
    if n_violent:
        draws = rng.choice(
            np.array(
                [ResponseType.NO_EFFECT, ResponseType.CESSATION,
                 ResponseType.REDUCTION, ResponseType.INCREASE],
                dtype=np.int8,
            ),
            size=n_violent,
            p=scenario.probs,
        )
        s[violent] = draws
    return s


def apply_effects(
    y0: np.ndarray,
    s: np.ndarray,
    scenario: EffectScenario,
    acts: Sequence[ActSpec],
) -> np.ndarray:
    """Build treated counts from control counts and response types.

    Only positive targeted entries change; zero entries within a violent
    unit's row stay zero (treatment never initiates an act).  Reductions
    stop at ``scenario.floor`` rather than silently becoming cessations.
    """
    y0 = np.asarray(y0, dtype=np.int64)
    s = np.asarray(s)
    cols = target_columns(acts, scenario.target)
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
        "binary": float(np.mean(coding.code_binary(c1) - coding.code_binary(c0))),
        "sum": float(np.mean(coding.code_sum(c1) - coding.code_sum(c0))),
    }


def check_schedule(table: PotentialOutcomeTable, scenario: EffectScenario,
                   acts: Sequence[ActSpec]) -> None:
    """Verify a schedule's invariants under ``scenario``; raises on violation."""
    cols = target_columns(acts, scenario.target)
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
