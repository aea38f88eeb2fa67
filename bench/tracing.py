"""In-process span tracing of ctssim's module boundaries, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces the module attributes through which the
pipeline calls each layer with timing wrappers.  Nothing under ``src/``
changes: the wrappers live only in the traced workload process.  The
wrappers call the original function with the original arguments and hand
back its return value untouched, so they draw nothing from any random
stream; the benchmark checks that by comparing the traced run's output
bytes with an untraced run's.

A span is ``(id, name, start, end, parent, thread, rep, cell, extra)``.
``parent`` is the innermost open span on the same thread; a span opened on
a pool thread with nothing open there takes the main thread's innermost
span (``run_simulation``, which is blocked waiting for the pool) as its
parent.  ``rep`` is the replication index of the enclosing
``run_replication`` call, ``cell`` the index of the enclosing ``run_cell``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time

import numpy as np

# (attribute owner, attribute, span name).  The owner is a module path or
# "module:Class"; patching a class attribute catches every instance.
TARGETS = (
    ("ctssim.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("ctssim.cli", "load_run_config", "cli.load_run_config"),
    ("ctssim.cli", "scenario_grid", "cli.scenario_grid"),
    ("ctssim.cli", "read_survey", "ingest.read_survey"),
    ("ctssim.cli", "fit_model", "ingest.fit_model"),
    ("ctssim.harness", "run_cell", "harness.run_cell"),
    ("ctssim.harness", "run_simulation", "harness.run_simulation"),
    ("ctssim.harness", "run_replication", "harness.run_replication"),
    ("ctssim.harness", "summarize", "harness.summarize"),
    ("ctssim.harness", "sample_joint", "joint.sample_joint"),
    ("ctssim.harness", "assign_response_types", "outcomes.assign_response_types"),
    ("ctssim.harness", "apply_effects", "outcomes.apply_effects"),
    ("ctssim.harness", "randomize", "outcomes.randomize"),
    ("ctssim.harness", "PotentialOutcomeTable", "outcomes.PotentialOutcomeTable"),
    ("ctssim.outcomes:PotentialOutcomeTable", "observed", "outcomes.observed"),
    ("ctssim.harness", "true_estimands", "outcomes.true_estimands"),
    ("ctssim.harness", "estimate_ols_hc2", "estimation.estimate_ols_hc2"),
    ("ctssim.coding", "categorize", "coding.categorize"),
    ("ctssim.coding", "code_binary", "coding.code_binary"),
    ("ctssim.coding", "code_sum", "coding.code_sum"),
    ("ctssim.joint", "cdf_table", "marginals.cdf_table"),
    ("ctssim.joint:MultiActModel", "validate", "joint.validate"),
    ("ctssim.marginals", "category_probs", "marginals.category_probs"),
    ("ctssim.ingest", "category_probs", "marginals.category_probs"),
    ("ctssim.ingest", "fit_mle_censored", "marginals.fit_mle_censored"),
    ("ctssim.ingest", "latent_correlation_matrix", "ingest.latent_correlation_matrix"),
    ("ctssim.ingest:EmpiricalResampler", "__init__", "ingest.resampler_init"),
    ("ctssim.ingest:EmpiricalResampler", "sample_control", "ingest.sample_control"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _fit_note(result, args):
    return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}


def _estimate_note(result, args):
    return {"se0": bool(result.se == 0.0)}


def _replication_rep(args, kwargs):
    return kwargs.get("rep_index", args[1] if len(args) > 1 else None)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.cell: int | None = None
        self._ids = itertools.count()
        self._cells = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None, rep_of=None, cache_info=None, new_cell=False):
        tracer = self

        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            outer_rep = getattr(local, "rep", None)
            rep = rep_of(args, kwargs) if rep_of else outer_rep
            local.rep = rep
            if new_cell:
                tracer.cell = next(tracer._cells)
            hits = cache_info().hits if cache_info else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                local.rep = outer_rep
            extra = note(result, args) if note else None
            if cache_info:
                extra = {"hit": cache_info().hits > hits}
            tracer.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), rep, tracer.cell, extra)
            )
            return result

        return wrapper

    def install(self) -> list[str]:
        """Patch every target in TARGETS with a span-recording wrapper.

        Returns the targets that do not exist in this version of ctssim;
        the metrics that need their spans are then reported unmeasured."""
        import ctssim.marginals

        cache = getattr(ctssim.marginals, "_cdf_table_cached", None)
        special = {
            "harness.run_replication": {"rep_of": _replication_rep},
            "harness.run_cell": {"new_cell": True},
            "marginals.fit_mle_censored": {"note": _fit_note},
            "estimation.estimate_ols_hc2": {"note": _estimate_note},
            "marginals.cdf_table": {"cache_info": getattr(cache, "cache_info", None)},
        }
        missing = []
        for owner_path, attr, name in TARGETS:
            try:
                owner = _owner(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{owner_path}.{attr}: {exc}")
                continue
            setattr(owner, attr, self.wrap(name, original, **special.get(name, {})))
        return missing

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> unit.  The order is the order of BENCHMARK.json's per_layer list.
LAYER_UNITS = {
    "cli.config_ms": "ms",
    "cli.write_ms": "ms",
    "harness.rep_ms_p50": "ms",
    "harness.rep_ms_p99": "ms",
    "harness.rep_samples": "count",
    "harness.rep_self_ms": "ms",
    "harness.sim_ms_per_rep": "ms",
    "harness.summarize_ms_per_cell": "ms",
    "harness.cells": "count",
    "joint.sample_joint_ms_per_rep": "ms",
    "joint.validate_calls_per_rep": "count",
    "marginals.cdf_table_calls_per_rep": "count",
    "marginals.cdf_table_hit_ratio": "ratio",
    "marginals.cdf_table_calls": "count",
    "marginals.cdf_table_hits": "count",
    "marginals.category_probs_calls": "count",
    "marginals.category_probs_us": "us",
    "marginals.fit_censored_ms_per_act": "ms",
    "marginals.fit_acts": "count",
    "marginals.lbfgs_iters": "count",
    "marginals.converged_frac": "ratio",
    "ingest.read_survey_ms": "ms",
    "ingest.latent_correlation_ms": "ms",
    "ingest.resampler_init_ms": "ms",
    "ingest.sample_control_ms_per_rep": "ms",
    "outcomes.response_types_ms_per_rep": "ms",
    "outcomes.effects_ms_per_rep": "ms",
    "outcomes.randomize_ms_per_rep": "ms",
    "outcomes.true_estimands_ms_per_rep": "ms",
    "outcomes.schedule_ms_per_rep": "ms",
    "coding.categorize_calls_per_rep": "count",
    "coding.categorize_ms_per_rep": "ms",
    "coding.code_ms_per_rep": "ms",
    "estimation.hc2_ms_per_rep": "ms",
    "estimation.degenerate_frac": "ratio",
    "estimation.estimates": "count",
    "trace.overhead_frac": "ratio",
}

_CLI = {"cli.config_ms", "cli.write_ms"}
_REPLICATION = {
    "harness.rep_ms_p50", "harness.rep_ms_p99", "harness.rep_samples", "harness.rep_self_ms",
    "harness.sim_ms_per_rep", "harness.summarize_ms_per_cell", "harness.cells",
    "outcomes.response_types_ms_per_rep", "outcomes.effects_ms_per_rep",
    "outcomes.randomize_ms_per_rep", "outcomes.true_estimands_ms_per_rep",
    "outcomes.schedule_ms_per_rep", "coding.categorize_calls_per_rep",
    "coding.categorize_ms_per_rep", "coding.code_ms_per_rep", "estimation.hc2_ms_per_rep",
    "estimation.degenerate_frac", "estimation.estimates",
}
_COPULA = {
    "joint.sample_joint_ms_per_rep", "joint.validate_calls_per_rep",
    "marginals.cdf_table_calls_per_rep", "marginals.cdf_table_hit_ratio",
    "marginals.cdf_table_calls", "marginals.cdf_table_hits",
}
_FITTING = {
    "marginals.category_probs_calls", "marginals.category_probs_us",
    "marginals.fit_censored_ms_per_act", "marginals.fit_acts", "marginals.lbfgs_iters",
    "marginals.converged_frac", "ingest.read_survey_ms",
}

# Which metrics describe work each workload does.  A metric outside its
# workload's set is absent: the layer does none of that work there.
APPLIES = {
    "fit-zinb": _FITTING | {"ingest.latent_correlation_ms", "trace.overhead_frac"},
    "cell-copula": _CLI | _REPLICATION | _COPULA | {"trace.overhead_frac"},
    "grid-resample": _CLI | _REPLICATION | _FITTING | {
        "ingest.resampler_init_ms", "ingest.sample_control_ms_per_rep", "trace.overhead_frac",
    },
}


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (end - start) - covered
    return out


def layer_metrics(spans: list) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics the spans support, and for each other metric
    of LAYER_UNITS the reason it could not be measured.
    ``trace.overhead_frac`` needs the untraced wall time and is left out."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    selfs = self_times(spans)

    def of(name, in_rep=False):
        return [s for s in by_name.get(name, ()) if not in_rep or s[6] is not None]

    def ms(name, in_rep=False):
        return 1e3 * sum(s[3] - s[2] for s in of(name, in_rep))

    def self_ms(name):
        return 1e3 * sum(selfs[s[0]] for s in of(name))

    def notes(name, key, in_rep=False):
        return [s[8][key] for s in of(name, in_rep)]

    rep, est, fit, probs = ("harness.run_replication", "estimation.estimate_ols_hc2",
                            "marginals.fit_mle_censored", "marginals.category_probs")
    reps = len(of(rep))
    durations = 1e3 * np.array([s[3] - s[2] for s in of(rep)])

    def per_rep(*names):
        return ([rep, *names], lambda: sum(ms(n, in_rep=True) for n in names) / reps)

    # metric -> (span names it needs, how to compute it)
    rules = {
        "cli.config_ms": (["cli.load_run_config"], lambda: ms("cli.load_run_config")),
        "cli.write_ms": (["cli.cmd_simulate"], lambda: self_ms("cli.cmd_simulate")),
        "harness.rep_ms_p50": ([rep], lambda: float(np.percentile(durations, 50))),
        "harness.rep_ms_p99": ([rep], lambda: float(np.percentile(durations, 99))),
        "harness.rep_samples": ([rep], lambda: reps),
        "harness.rep_self_ms": ([rep], lambda: self_ms(rep) / reps),
        "harness.sim_ms_per_rep": ([rep, "harness.run_simulation"],
                                   lambda: ms("harness.run_simulation") / reps),
        "harness.summarize_ms_per_cell": (["harness.summarize", "harness.run_cell"],
                                          lambda: ms("harness.summarize") / len(of("harness.run_cell"))),
        "harness.cells": (["harness.run_cell"], lambda: len(of("harness.run_cell"))),
        "joint.sample_joint_ms_per_rep": per_rep("joint.sample_joint"),
        "joint.validate_calls_per_rep": ([rep], lambda: len(of("joint.validate", True)) / reps),
        "marginals.cdf_table_calls_per_rep": ([rep, "marginals.cdf_table"],
                                              lambda: len(of("marginals.cdf_table", True)) / reps),
        "marginals.cdf_table_hit_ratio": (["marginals.cdf_table"], lambda: (
            sum(notes("marginals.cdf_table", "hit", True)) / len(of("marginals.cdf_table", True)))),
        "marginals.cdf_table_calls": ([rep, "marginals.cdf_table"],
                                      lambda: len(of("marginals.cdf_table", True))),
        "marginals.cdf_table_hits": (["marginals.cdf_table"],
                                     lambda: sum(notes("marginals.cdf_table", "hit", True))),
        "marginals.category_probs_calls": ([probs], lambda: len(of(probs))),
        "marginals.category_probs_us": ([probs], lambda: 1e3 * ms(probs) / len(of(probs))),
        "marginals.fit_censored_ms_per_act": ([fit], lambda: ms(fit) / len(of(fit))),
        "marginals.fit_acts": ([fit], lambda: len(of(fit))),
        "marginals.lbfgs_iters": ([fit], lambda: sum(notes(fit, "n_iter"))),
        "marginals.converged_frac": ([fit], lambda: sum(notes(fit, "converged")) / len(of(fit))),
        "ingest.read_survey_ms": (["ingest.read_survey"], lambda: ms("ingest.read_survey")),
        "ingest.latent_correlation_ms": (["ingest.latent_correlation_matrix"],
                                         lambda: ms("ingest.latent_correlation_matrix")),
        "ingest.resampler_init_ms": (["ingest.resampler_init"], lambda: ms("ingest.resampler_init")),
        "ingest.sample_control_ms_per_rep": per_rep("ingest.sample_control"),
        "outcomes.response_types_ms_per_rep": per_rep("outcomes.assign_response_types"),
        "outcomes.effects_ms_per_rep": per_rep("outcomes.apply_effects"),
        "outcomes.randomize_ms_per_rep": per_rep("outcomes.randomize"),
        "outcomes.true_estimands_ms_per_rep": per_rep("outcomes.true_estimands"),
        "outcomes.schedule_ms_per_rep": per_rep("outcomes.PotentialOutcomeTable", "outcomes.observed"),
        "coding.categorize_calls_per_rep": ([rep, "coding.categorize"],
                                            lambda: len(of("coding.categorize", True)) / reps),
        "coding.categorize_ms_per_rep": per_rep("coding.categorize"),
        "coding.code_ms_per_rep": per_rep("coding.code_binary", "coding.code_sum"),
        "estimation.hc2_ms_per_rep": per_rep(est),
        "estimation.degenerate_frac": ([est], lambda: sum(notes(est, "se0")) / len(of(est))),
        "estimation.estimates": ([est], lambda: len(of(est))),
    }
    values: dict[str, float] = {}
    reasons: dict[str, str] = {}
    for metric, (needs, compute) in rules.items():
        lacking = [n for n in needs if n not in by_name]
        if lacking:
            reasons[metric] = f"no {', '.join(lacking)} spans"
            continue
        try:
            values[metric] = float(compute())
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            reasons[metric] = f"the spans lack the data ({type(exc).__name__}: {exc})"
    return values, reasons


def stage_table(spans: list) -> dict[str, float]:
    """ms/rep of each direct child of ``run_replication``, by span name,
    plus the replication's own self time: where one replication's time
    goes, without double counting nested calls."""
    reps = {s[0] for s in spans if s[1] == "harness.run_replication"}
    if not reps:
        return {}
    out: dict[str, float] = {}
    for s in spans:
        if s[4] in reps:
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2])
    selfs = self_times(spans)
    out["harness.run_replication (self)"] = sum(selfs[i] for i in reps)
    return {k: 1e3 * v / len(reps) for k, v in sorted(out.items(), key=lambda kv: -kv[1])}
