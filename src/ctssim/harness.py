"""Monte Carlo driver: replicate trials, collect estimates, score performance.

One replication draws a fresh potential-outcome schedule, randomizes half
the sample to treatment, reveals the assigned arm's counts, applies both
outcome codings to the categorized counts, and estimates each coded effect.
Performance statistics (bias, RMSE, power, coverage) are computed against
each replication's own finite-sample coded effect.  Their Monte Carlo
standard errors have closed forms (``summarize``); the SE of the power
difference between the codings is paired, because both codings are scored
on the same replications.  The tests pin the kernel below, bit for bit, to
a reference pipeline that runs each stage as a plain function.

Replications run in blocks of at most ``_BLOCK_ROWS`` rows of control
counts (at least one replication), one block after another.  Each
replication uses a counter-based substream seeded by (seed, replication
index) and makes its own random calls, in the order it makes them alone:
its standard normals (or ``sample_control``), then per target its
response-type uniforms and its permutation.  So a replication's result
does not depend on which others run, in what order, in which block or on
which thread.  Each level of a grid does its own work once, on a block's
stacked arrays: the grid builds the copula sampler and draws the control
counts (``fill_normals``, then ``finish_draw``; so ``sample_control(n,
rng)`` must depend on ``n`` and ``rng`` alone), each set of target columns
draws the uniforms and the permutation behind the arms and takes the
control arm's moments (``share``), the cells of a target whose CDFs start
at the same no-effect share and whose effects span the same count classes
gather the rows they act on and those rows' count classes (``hits``), and
each cell maps those rows' uniforms through its CDF, looks its effects up
in its tables and takes the treated arm's moments and the true effects
(``CellKernel.respond``).  A cell keeps these per replication and
estimates them all, both codings, in one ``estimation.hc2_from_moments``
call after the last block.

A copula grid runs on two threads.  One helper thread, started by
``scenario_grid`` and joined before it returns, runs ``fill_normals`` on
the next block (numpy fills it without the GIL) while the calling thread,
which made that block's generators and array, runs every other step on
the current one.  A ``sample_control`` grid starts no thread.

The helper runs on the CPUs the calling thread may use less the one it
runs on when the grid starts; only the helper's own affinity is set.
Left to itself, a 2-vCPU Linux host kept both threads on one CPU, so the
draw overlapped nothing.  The CPU left out must be the caller's: there
the kernel did not move a calling thread that shared the helper's CPU,
even with the other CPU idle, so a fixed choice (all but the lowest CPU)
ran the two threads on one CPU whenever the caller started on the
helper's (BENCH_33.json, BENCH_34.json).  Placement is skipped, and the
helper runs where the kernel puts it, when no other CPU is allowed, the
platform has no ``os.sched_setaffinity``, or reading the CPU or setting
the affinity fails.
``CellResult.draw_thread_cpus`` records the helper's CPUs.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import coding
from .estimation import _mean_var, hc2_from_moments
from .joint import CopulaSampler, MultiActModel
from .outcomes import EffectScenario, target_columns

CODINGS = ("binary", "sum")
REPLICATION_FIELDS = ("estimate", "se", "p_value", "ci_low", "ci_high", "true_ate")
STATISTICS = ("bias", "rmse", "power", "coverage")
# a cell's stages, timed over its blocks (CellKernel.stage_s, then
# CellResult.stage_s): the two of CellKernel.respond, then the cell's one
# HC2 call; the control draw and the target's shared work are timed apart
STAGES = ("types_effects", "code_truth", "hc2")

# p-vectors (no effect, cessation, reduction, increase) for the standard
# program-response scenarios; 70% of violent units are always unaffected.
SCENARIO_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "null": (1.0, 0.0, 0.0, 0.0),
    "cessation_only": (0.70, 0.30, 0.0, 0.0),
    "cessation_reduction": (0.70, 0.10, 0.20, 0.0),
    "reduction_only": (0.70, 0.0, 0.30, 0.0),
    "cessation_reduction_increase": (0.70, 0.10, 0.15, 0.05),
}


def scenario_preset(name: str, **settings) -> EffectScenario:
    """The preset ``name``'s scenario; ``settings`` go to EffectScenario (magnitude, floor)."""
    if name not in SCENARIO_PRESETS:
        raise KeyError(f"unknown scenario preset {name!r}; have {sorted(SCENARIO_PRESETS)}")
    return EffectScenario(SCENARIO_PRESETS[name], name=name, **settings)


class ReplicationError(RuntimeError):
    """An error inside one replication, tagged with its index.

    A replication whose ``sample_control`` draw fails or returns anything
    but counts names itself; any other error, in the work a block of
    replications shares, names the block's first replication.
    """

    def __init__(self, rep_index: int, cause: Exception):
        super().__init__(f"replication {rep_index} failed: {cause}")
        self.rep_index = rep_index


@dataclass
class SimulationConfig:
    """What the cells of a grid share: all one cell needs but its scenario and target.

    ``model`` is a MultiActModel or any source exposing ``acts`` and a
    ``sample_control(n, rng)`` method (e.g. the empirical resampler) whose
    draw depends on ``n`` and ``rng`` alone: a grid shares each draw
    among its cells.  It returns non-negative whole counts of shape
    ``(n, len(acts))``, integers or integer-valued floats, and runs on the
    thread that runs the grid.  Every run also records the latent count
    changes.  ``n_units``, ``n_reps`` and ``seed`` must be integers
    (``int`` or a numpy integer, not a bool).
    """

    model: object
    n_units: int
    n_reps: int = 1000
    alpha: float = 0.05
    seed: int = 0
    df: str = "normal"

    def __post_init__(self):
        for key in ("n_units", "n_reps", "seed"):  # a bool or float would pass the checks below
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.n_units < 4:
            raise ValueError("n_units must be >= 4")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        is_number = isinstance(self.alpha, (int, float, np.integer, np.floating))
        if isinstance(self.alpha, bool) or not is_number or not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.df not in ("normal", "welch"):
            raise ValueError(f"df must be 'normal' or 'welch', got {self.df!r}")


@dataclass(frozen=True)
class PerformanceStats:
    """Monte Carlo performance of one coding in one cell."""

    bias: float
    rmse: float
    power: float
    coverage: float
    mean_true_ate: float
    true_ate_is_zero: bool  # power column is a type-I error rate, not power
    mc_se: dict[str, float]  # statistic or "power_diff" -> its Monte Carlo SE


def _replication_rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep_index]))


# coding.categorize of the counts 0..5 as floats; every count from 5 up is
# category 3.  Row sums of these small integers are exact in any order.
_CATEGORY_CAP = coding.CATEGORY_BINS[-1]
_CATEGORY_SCORE = np.digitize(np.arange(_CATEGORY_CAP + 1), coding.CATEGORY_BINS).astype(float)
# classes of a targeted count that CellKernel's effect tables tell apart
_CLASSES = 2 * _CATEGORY_CAP + 1
# a block of replications holds at most this many rows of control counts,
# and at least one replication: larger blocks save few numpy calls more
# and cost memory
_BLOCK_ROWS = 8192


def _coded(sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sum-coded outcomes ``sums[rows]`` under each of CODINGS, on a new
    first axis: binary 1 where the sum is positive, then the sum itself."""
    coded = np.empty((len(CODINGS), *rows.shape))
    np.take(sums, rows, out=coded[1], mode="clip")  # "raise" would buffer out
    np.greater(coded[1], 0, out=coded[0])
    return coded


def _category_scores(rows: np.ndarray, counts: np.ndarray, n_rows: int) -> np.ndarray:
    """The category-score row sums of ``n_rows`` rows of counts, from the
    row and the count of every entry that may be positive."""
    scores = np.bincount(rows, weights=_CATEGORY_SCORE.take(np.minimum(counts, _CATEGORY_CAP)),
                         minlength=n_rows)
    # bincount returns integer zeros when there are no entries at all
    return scores.astype(float, copy=False)


class TargetDraw(NamedTuple):
    """A block of replications' work that the scenarios of one target share.

    The block's B replications of n units are its B * n rows: row r is unit
    r % n of the block's replication r // n.
    """

    y0: np.ndarray  # (B, n, K) control counts, shared by every target
    score0: np.ndarray  # (B * n,) their category-score row sums
    sum0: np.ndarray  # score0 under the sum coding
    targeted: np.ndarray  # (B * n, k) y0 on the target's columns
    violent: np.ndarray  # rows with targeted violence, ascending
    u: np.ndarray  # one uniform per violent row, each replication's in a run
    arm1: np.ndarray  # (B, n // 2) treated rows, one replication per row
    control: tuple[np.ndarray, np.ndarray]  # (2, B) control-arm _mean_var of _coded


def _current_cpu() -> int:
    """The CPU this thread runs on (Linux): field 39 of its stat, counted
    after the parenthesized command name, field 2, which may hold spaces."""
    with open("/proc/thread-self/stat") as stat:
        return int(stat.read().rpartition(")")[2].split()[36])


def _helper_cpus() -> set[int] | None:
    """The CPUs the grid's helper thread may run on: those this thread may
    run on but the one it runs on now, or None when there are none, the
    platform cannot set a thread's CPUs, or they cannot be read."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        return os.sched_getaffinity(0) - {_current_cpu()} or None
    except OSError:
        return None


def fill_normals(rngs: Sequence[np.random.Generator], normals: np.ndarray) -> None:
    """Fills ``normals[j]`` with standard normals from ``rngs[j]``: a copula
    block's own draws, and all that the grid's helper thread runs."""
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)


def _control_counts(drawn, shape: tuple[int, int]) -> np.ndarray:
    """``sample_control``'s output as int64 counts, refused unless it has
    ``shape`` and holds whole numbers from 0 to int64's maximum."""
    y0 = np.asarray(drawn)
    if y0.shape != shape:
        raise ValueError(f"sample_control must return counts of shape {shape}, got shape {y0.shape}")
    if y0.dtype.kind not in "biu":
        if not np.isfinite(y0).all():
            raise ValueError("sample_control returned a non-finite count")
        if (y0 != np.trunc(y0)).any():
            raise ValueError("sample_control returned a fractional count")
    if (y0 < 0).any():
        raise ValueError("sample_control returned a negative count")
    if y0.dtype.kind in "fu" and (y0 >= 2**63).any():
        raise ValueError("sample_control returned a count too large for int64")
    return y0.astype(np.int64)


def finish_draw(config: SimulationConfig, copula: CopulaSampler | None, reps: range,
                rngs: Sequence[np.random.Generator],
                normals: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n, K) control counts ``y0`` of the replications ``reps``,
    ``fill_normals``' block ``normals`` mapped through ``copula``, or, when
    it is None, ``config.model.sample_control`` drawn from each
    replication's generator in ``rngs``; and their category-score row sums
    ``score0`` over the block's B * n rows.  A row codes binary 1 when its
    score sum is positive, and sum/3K under the sum coding.  A replication
    whose ``sample_control`` fails raises ReplicationError with its index."""
    shape = (config.n_units, len(config.model.acts))
    if copula is not None:
        y0, rows, counts = copula.counts(normals)
    else:
        y0 = np.empty((len(reps), *shape), dtype=np.int64)
        for j, (i, rng) in enumerate(zip(reps, rngs)):
            try:
                y0[j] = _control_counts(config.model.sample_control(shape[0], rng), shape)
            except Exception as exc:  # noqa: BLE001 - re-raise with replication context
                raise ReplicationError(i, exc) from exc
        # the non-zero counts in np.nonzero's order, and their rows, from the
        # flat positions of a bool mask: numpy finds those several times
        # faster than the 2-D positions of int64 counts
        flat = np.flatnonzero(y0 != 0)
        rows, counts = flat // shape[1], y0.reshape(-1)[flat]
    return y0, _category_scores(rows, counts, y0.size // shape[1])


def share(y0: np.ndarray, score0: np.ndarray, rngs: Sequence[np.random.Generator],
          cols: np.ndarray) -> TargetDraw:
    """The work of the target with columns ``cols``, from ``finish_draw``'s
    output and the generators as the control draw left them: one uniform
    per violent row, the randomization, and the control arm's codings and
    moments.  Every cell whose target has these columns can ``respond`` to
    it, with its ``hits``."""
    b, n, k = y0.shape
    targeted = y0.reshape(b * n, k)[:, cols]
    violent = targeted.any(axis=1)  # counts are never negative
    u = []
    treated = np.zeros((b, n), dtype=bool)
    for j, (rng, n_violent) in enumerate(zip(rngs, violent.reshape(b, n).sum(axis=1).tolist())):
        # rng.choice draws these uniforms whatever p is; none when there are none
        u.append(rng.random(n_violent))
        treated[j, rng.permutation(n)[: n // 2]] = True
    # each replication's arms, in ascending rows
    arm1 = np.flatnonzero(treated).reshape(b, n // 2)
    arm0 = np.flatnonzero(~treated).reshape(b, n - n // 2)
    sum0 = score0 / (coding.MAX_CATEGORY * k)
    return TargetDraw(y0, score0, sum0, targeted, np.flatnonzero(violent), np.concatenate(u), arm1,
                      _mean_var(_coded(sum0, arm0)))


class Hits(NamedTuple):
    """The rows of a block that the cells of one target act on when they
    share a no-effect share and an effect span: ``hits``' output."""

    affected: np.ndarray  # violent rows of a type with an effect, ascending
    u: np.ndarray  # their uniforms
    before: np.ndarray  # (h, k) their targeted counts
    base: np.ndarray  # (h, k) min(count, 5) + clip(count, *span), a class before its offset
    score0: np.ndarray  # their category-score row sums
    positive0: np.ndarray  # score0 > 0: binary 1 untreated
    rep: np.ndarray  # their replication's index within the block


def hits(shared: TargetDraw, no_effect: float, span: tuple[int, int]) -> Hits:
    """The rows of ``share``'s block that every cell of its target acts on
    whose response-type CDF starts at ``no_effect`` and whose effect span,
    (x + floor, x + 5) at magnitude x, is ``span``: the violent rows whose
    uniform is at least ``no_effect``, with what their cells look up."""
    hit = np.flatnonzero(shared.u >= no_effect)
    affected = shared.violent[hit]
    before = shared.targeted[affected]
    base = np.minimum(before, _CATEGORY_CAP)
    base += np.clip(before, *span)
    score0 = shared.score0[affected]
    return Hits(affected, shared.u[hit], before, base, score0, score0 > 0,
                affected // shared.y0.shape[1])


class CellKernel:
    """The replication kernel of one cell, ``scenario`` on ``target``: its
    invariants (the target columns, the response-type CDF, the effect
    tables), built once, and ``stage_s``, the seconds each of ``STAGES``
    took in it."""

    def __init__(self, config: SimulationConfig, scenario: EffectScenario, target):
        self.config, self.scenario, self.target = config, scenario, target
        self.cols = target_columns(config.model.acts, target)
        # Generator.choice's own rule: cumsum(p) over its last entry
        self.cdf = np.cumsum(scenario.probs)
        self.cdf /= self.cdf[-1]
        self.stage_s = [0.0] * len(STAGES)
        # The effect tables hold an affected entry's score change and latent
        # count change intercept + slope * count (slope 0 or -1: cessation's
        # -count is exact for any int64 count) at _CLASSES * type + class,
        # for its type (index into the scenario's probs) and its count's class
        # min(count, 5) + clip(count, *span) - span[0]: the counts from 5 to
        # x + floor, where a reduction ends at the floor, share one, as do
        # those from x + 5 up, so few classes serve any x and any counts.
        x, floor, cap = int(scenario.magnitude), scenario.floor, _CATEGORY_CAP
        self.span = (x + floor, x + cap)
        # the smallest count of each class, and each type's entry for it
        counts = np.r_[0 : cap + 1, max(cap, x + floor) + 1 : x + cap + 1]
        keys = (_CLASSES * np.arange(1, len(self.cdf))[:, None] + np.minimum(counts, cap)
                + np.clip(counts, *self.span) - (x + floor))

        def treated(counts):  # under cessation, reduction and increase
            return np.where(counts > 0, [0 * counts, np.maximum(counts - x, floor), counts + x], 0)

        after = treated(counts)
        self.score_change = np.zeros(_CLASSES * len(self.cdf))
        self.score_change[keys] = (_CATEGORY_SCORE.take(np.minimum(after, cap))
                                   - _CATEGORY_SCORE.take(np.minimum(counts, cap)))
        # on a class of several counts the latent change is linear: there
        # the treated count is constant, or its change is
        wide = np.append(counts[1:], -1) != counts + 1
        slope = np.where(wide, treated(counts + 1) - after - 1, 0)
        self.slope, self.intercept = np.zeros((2, self.score_change.size), dtype=np.int64)
        self.slope[keys], self.intercept[keys] = slope, after - counts - slope * counts

    def respond(self, shared: TargetDraw, hits: Hits) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The cell's own work on a block of B replications, from ``share``'s
        output for its target columns and ``hits``' output for its CDF's
        first entry and its span (both read, never written): response types,
        effects, the treated arm's codings and the true effects.  Returns the
        treated arm's ``_mean_var`` and the true effects, (2, B) each, a row
        per coding, and the (B,) mean latent count changes."""
        b, n, k = shared.y0.shape
        t0 = time.perf_counter()
        if not len(hits.affected):  # no row changes: the arms differ by chance alone
            treated = _mean_var(_coded(shared.sum0, shared.arm1))
            self.stage_s[1] += time.perf_counter() - t0
            return treated, np.zeros((len(CODINGS), b)), np.zeros(b)
        # the affected rows' types, and their keys into the effect tables
        drawn = self.cdf.searchsorted(hits.u, side="right")
        key = hits.base + (_CLASSES * drawn - self.span[0])[:, None]
        # row sums as float products with ones: exact below 2**53, never wrapping
        ones = np.ones(key.shape[1])
        score1 = hits.score0 + self.score_change.take(key) @ ones
        latent = (self.intercept.take(key) + self.slope.take(key) * hits.before).astype(float) @ ones
        t1 = time.perf_counter()
        # the sum coding under treatment, the codings' true effects, and
        # each replication's integer count change, summed exactly as floats
        sum1 = shared.sum0.copy()
        sum1[hits.affected] = score1 / (coding.MAX_CATEGORY * k)
        truth = np.empty((len(CODINGS), b))
        truth[0] = np.bincount(hits.rep, weights=np.subtract(score1 > 0, hits.positive0, dtype=float),
                               minlength=b)
        np.sum((sum1 - shared.sum0).reshape(b, n), axis=1, out=truth[1])  # np.mean's arithmetic
        truth /= n
        treated = _mean_var(_coded(sum1, shared.arm1))
        latent = np.bincount(hits.rep, weights=latent, minlength=b) / n
        self.stage_s[0] += t1 - t0
        self.stage_s[1] += time.perf_counter() - t1
        return treated, truth, latent


@dataclass
class Replications:
    """Column-wise store of per-replication records for one cell."""

    data: dict[str, dict[str, np.ndarray]]  # coding -> field -> (n_reps,)
    latent_sum_true: np.ndarray  # (n_reps,) mean latent count change

    @property
    def n_reps(self) -> int:
        return len(self.data[CODINGS[0]]["estimate"])


def _replications(moments: np.ndarray, latent: np.ndarray,
                  config: SimulationConfig) -> Replications:
    """A cell's records, from the (5, 2, n_reps) stack of its treated and
    control arms' ``_mean_var`` and true effects: one HC2 call in all."""
    n1 = config.n_units // 2
    est, se, lo, hi, p = hc2_from_moments(*moments[:2], n1, *moments[2:4], config.n_units - n1,
                                          config.alpha, config.df)
    return Replications({c: dict(zip(REPLICATION_FIELDS, row)) for c, row in
                         zip(CODINGS, zip(est, se, p, lo, hi, moments[4]))}, latent)


def summarize(reps: Replications, alpha: float = 0.05) -> dict[str, PerformanceStats]:
    """Performance statistics per coding, with their closed-form MC SEs.

    The SEs follow Morris, White & Crowther, Stat Med 38:2074-2102 (2019),
    with m replications, err = estimate - true_ate, rej = p_value < alpha and
    sd at ddof 1: bias sd(err)/sqrt(m); power and coverage sqrt(p(1-p)/m);
    rmse sd(err**2)/sqrt(m), the SE of the MSE, over 2 rmse (0 when rmse is
    0).  "power_diff", the SE of power(binary) - power(sum), is the same for
    both codings and paired, as they share replications: sd(rej_b -
    rej_s)/sqrt(m) at ddof 0, which is the binary power SE when the sum never
    rejects.  Every SE is NaN when there is only one replication.
    """
    m = reps.n_reps
    rejects = {c: reps.data[c]["p_value"] < alpha for c in CODINGS}
    paired = (float(np.std(rejects["binary"].astype(float) - rejects["sum"])) / math.sqrt(m)
              if m > 1 else math.nan)
    out = {}
    for c in CODINGS:
        fields = reps.data[c]
        truth = fields["true_ate"]
        err = fields["estimate"] - truth
        covered = (fields["ci_low"] <= truth) & (truth <= fields["ci_high"])
        rmse = float(np.sqrt(np.mean(err**2)))
        power, coverage = float(np.mean(rejects[c])), float(np.mean(covered))
        mc_se = dict.fromkeys(STATISTICS, math.nan) if m < 2 else {
            "bias": float(np.std(err, ddof=1)) / math.sqrt(m),
            "rmse": float(np.std(err**2, ddof=1)) / math.sqrt(m) / (2.0 * rmse) if rmse > 0 else 0.0,
            "power": math.sqrt(power * (1.0 - power) / m),
            "coverage": math.sqrt(coverage * (1.0 - coverage) / m),
        }
        out[c] = PerformanceStats(
            bias=float(np.mean(err)), rmse=rmse, power=power, coverage=coverage,
            mean_true_ate=float(np.mean(truth)), true_ate_is_zero=bool(np.all(truth == 0.0)),
            mc_se={**mc_se, "power_diff": paired},
        )
    return out


def latent_summary(reps: Replications, n_items: int) -> dict[str, float]:
    """The sum coding against latent count changes.

    The coded sum estimator targets the category-scale effect; this report
    compares its denormalized estimate (times the maximum score 3K) with
    the true mean change in latent act counts.  Against that count-scale
    truth, bias and under-coverage are expected whenever effects move
    counts within a category.
    """
    scale = coding.MAX_CATEGORY * n_items
    fields = reps.data["sum"]
    latent = reps.latent_sum_true
    denorm = fields["estimate"] * scale
    covered = (fields["ci_low"] * scale <= latent) & (latent <= fields["ci_high"] * scale)
    return {
        "mean_latent_count_ate": float(np.mean(latent)),
        "denormalized_sum_bias": float(np.mean(denorm - latent)),
        "denormalized_sum_coverage": float(np.mean(covered)),
    }


@dataclass
class CellResult:
    """One (scenario, target) cell of a simulation grid: the grid's config,
    the cell's scenario and target, its statistics, records and clocks."""

    config: SimulationConfig
    scenario: EffectScenario
    target: object  # a preset of outcomes.TARGET_PRESETS or a tuple of act indices
    stats: dict[str, PerformanceStats]
    reps: Replications
    # seconds of the cell's own work, stage_s and summary_s summed: respond
    # (its type draw, lookups, codings and truths), its HC2 call and summarize
    wall_s: float
    summary_s: float  # seconds in summarize (statistics and their MC SEs)
    # seconds of the control draws and of the targets' shared work (uniforms,
    # arms, control-arm moments, and each hit set's rows and count classes),
    # which the cells of one grid share, so each carries the grid's totals;
    # not part of wall_s.  draw_s is the calling thread's: seeding the
    # generators, waiting for the helper's normals and finish_draw;
    # prefetch_s is the helper thread's fill_normals, which overlaps the
    # other work, and 0 for a sample_control grid
    draw_s: float
    prefetch_s: float
    # the sorted CPUs the helper thread was placed on, or None when the grid
    # left it where the kernel puts it (see _helper_cpus) or had no helper
    draw_thread_cpus: tuple[int, ...] | None
    target_s: float
    stage_s: dict[str, float]  # stage of STAGES -> seconds over the replications


def scenario_grid(
    base_config: SimulationConfig,
    scenarios: Sequence[EffectScenario],
    targets: Sequence,
) -> list[CellResult]:
    """Evaluate every scenario x target cell, in scenario-major order.

    All cells share the base seed, so schedules use common random numbers;
    what the cells would draw alike is drawn once (see the module
    docstring).  Every cell's results are those of a grid of that cell
    alone.  Every target is resolved (``target_columns``) before any draw.
    """
    if not scenarios or not targets:
        raise ValueError("scenarios and targets must be non-empty")
    model = base_config.model
    if isinstance(model, MultiActModel):
        copula = CopulaSampler(model)
    elif hasattr(model, "sample_control"):
        copula = None
    else:
        raise TypeError("model must be a MultiActModel or expose sample_control(n, rng)")
    kernels = [CellKernel(base_config, s, t) for s in scenarios for t in targets]
    # cells whose targets resolve to the same columns share the target work,
    # and of those, cells whose CDFs start at the same float and whose spans
    # are equal share a hit set: target columns -> (cdf[0], span) -> cells
    groups: dict[tuple, dict[tuple, list[int]]] = {}
    for j, kernel in enumerate(kernels):
        (groups.setdefault(tuple(kernel.cols), {})
         .setdefault((float(kernel.cdf[0]), kernel.span), []).append(j))
    m = base_config.n_reps
    size = max(1, _BLOCK_ROWS // base_config.n_units)
    blocks = [range(start, min(start + size, m)) for start in range(0, m, size)]
    # per cell: the (5, 2, m) arguments of _replications, and the latent changes
    moments = [np.empty((5, len(CODINGS), m)) for _ in kernels]
    latents = [np.empty(m) for _ in kernels]
    draw_s = prefetch_s = target_s = 0.0
    clock = time.perf_counter
    cpus = pool = None
    if copula is not None:
        # imported here, not at module level: importing ctssim starts no
        # thread and loads no thread pool
        from concurrent.futures import ThreadPoolExecutor

        # the helper runs off the CPU this thread is on (see the module
        # docstring); cpus ends empty, or is None, when it was not placed
        cpus = _helper_cpus()

        def place():
            try:
                os.sched_setaffinity(0, cpus)  # pid 0: the thread that runs this, the helper
            except OSError:  # raised here, it would break the pool
                cpus.clear()

        pool = ThreadPoolExecutor(1, thread_name_prefix="ctssim-draw",
                                  initializer=place if cpus else None)

    def fill(rngs, normals):  # the helper's work and its seconds
        t0 = clock()
        fill_normals(rngs, normals)
        return clock() - t0

    def start(reps: range):  # a block's generators, and its normals filling on the helper
        rngs = [_replication_rng(base_config.seed, i) for i in reps]
        if pool is None:
            return rngs, None, None
        normals = np.empty((len(reps), base_config.n_units, len(model.acts)))
        return rngs, normals, pool.submit(fill, rngs, normals)

    try:
        for b, reps in enumerate(blocks):
            t0 = clock()
            rngs, normals, filling = pending if b else start(reps)
            if filling is not None:
                prefetch_s += filling.result()
            if b + 1 < len(blocks):
                pending = start(blocks[b + 1])
            y0, score0 = finish_draw(base_config, copula, reps, rngs, normals)
            # each target restores the generator states that followed the
            # control draws, so every cell's replications are those it makes alone
            states = [rng.bit_generator.state for rng in rngs]
            t1 = clock()
            draw_s += t1 - t0
            rows = slice(reps.start, reps.stop)
            for cols, hit_sets in groups.items():
                for rng, state in zip(rngs, states):
                    rng.bit_generator.state = state
                shared = share(y0, score0, rngs, np.asarray(cols, dtype=np.intp))
                for (no_effect, span), members in hit_sets.items():
                    hit_set = hits(shared, no_effect, span)
                    target_s += clock() - t1
                    for j in members:  # timed by the kernel's stage_s
                        treated, truth, latents[j][rows] = kernels[j].respond(shared, hit_set)
                        moments[j][:, :, rows] = (*treated, *shared.control, truth)
                    t1 = clock()
                    # freed before the next block's arrays are allocated: a
                    # hit set held over them left a one-cell copula grid
                    # faulting in fresh pages on most blocks
                    del hit_set
    except ReplicationError:
        raise
    except Exception as exc:  # noqa: BLE001 - re-raise with replication context
        raise ReplicationError(reps.start, exc) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    draw_thread_cpus = tuple(sorted(cpus)) if cpus else None
    results = []
    for kernel, cell, latent in zip(kernels, moments, latents):
        t0 = clock()
        reps = _replications(cell, latent, base_config)
        t1 = clock()
        stats = summarize(reps, base_config.alpha)
        summary_s = clock() - t1
        kernel.stage_s[2] += t1 - t0
        results.append(CellResult(
            base_config, kernel.scenario, kernel.target, stats, reps,
            wall_s=sum(kernel.stage_s) + summary_s, summary_s=summary_s, draw_s=draw_s,
            prefetch_s=prefetch_s, draw_thread_cpus=draw_thread_cpus, target_s=target_s,
            stage_s=dict(zip(STAGES, kernel.stage_s))))
    return results
