"""Benchmark of ``ctssim fit`` and ``ctssim simulate`` through the public CLI.

Usage (from the root of a ctssim checkout):

    python3 bench/run_bench.py --workload {fit-zinb,cell-copula,grid-resample}
        [--seed N] [--seconds S] [--trace 0|1] [--threads N] [--smoke]
        [--write-reference]

Each operation is a fresh ``python3 bench/worker.py`` process that imports
``ctssim.cli`` and calls ``ctssim.cli.main([...])`` once, as every CLI
invocation does.  The inputs (survey files, run configs) are written
during set-up from ``--seed`` and are not timed.  Operations repeat until
``--seconds`` have passed (at least one round over the workload's inputs).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation untraced and then traced (span wrappers from ``tracing.py``),
checks the two outputs are byte-identical, and reports the per-layer
metrics.  Every output is checked (see ``check_fit`` and
``check_results``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from tracing import APPLIES, LAYER_UNITS, layer_metrics, stage_table  # noqa: E402

WORKLOADS = ("fit-zinb", "cell-copula", "grid-resample")
DEFAULT_SEED = 20260801
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SCENARIOS = ["null", "cessation_only", "cessation_reduction", "reduction_only",
             "cessation_reduction_increase"]
GRID_TARGETS = ["all", "physical", "sexual", "moderate"]
POINT_STATS = ("mean_true_ate", "bias", "rmse", "power", "coverage")

# fit-zinb fits this many surveys per round: L-BFGS iteration counts, and
# so fit time, vary by about 12% from one survey to the next, and the mean
# over several surveys keeps that out of the run-to-run spread.
SIZES = {
    "full": {
        "survey_rows": 8000, "fit_surveys": 4, "setup_samples": 5,
        "cell": {"n_units": 1680, "n_reps": 1000, "n_bootstrap": 100},
        "grid": {"n_units": 1680, "n_reps": 100, "n_bootstrap": 100},
    },
    "smoke": {
        "survey_rows": 1000, "fit_surveys": 1, "setup_samples": 1,
        "cell": {"n_units": 200, "n_reps": 20, "n_bootstrap": 10},
        "grid": {"n_units": 100, "n_reps": 4, "n_bootstrap": 4},
    },
}
THREADS = {"cell-copula": 1, "grid-resample": 2}

# Seed-independent tolerances of a fitted act against example_model(): at
# 8000 rows the largest deviations seen over 12 seeds were 28% (rate) and
# 0.065 (zero_prob).
RATE_REL_TOL = 0.5
ZERO_PROB_ABS_TOL = 0.12
# Reference tolerances at the default seed.  sigma comes out of a root
# search with xtol 1e-6, so it is compared absolutely at twice that.
FIT_REL_TOL = 1e-6
SIGMA_ABS_TOL = 2e-6
# A ZINB marginal has 3 parameters and a 4-category histogram 3 free
# frequencies, so the maximum-likelihood fit reproduces the observed
# category frequencies; over 13 surveys of 8000 rows, ctssim's fits missed
# them by at most 5e-8.
FREQ_ABS_TOL = 1e-6
STATS_TOL = 1e-12
BIAS_SE_LIMIT = 4.0

# A run must end within 180 s of its start: start no operation after
# RUN_LIMIT_S, and kill any process still running at HARD_LIMIT_S.
RUN_LIMIT_S = 140.0
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


# ---------------------------------------------------------------------------
# Output checks


def zinb_category_probs(rate: float, zero_prob: float, dispersion: float) -> np.ndarray:
    """Masses of the survey categories {0}, {1}, {2..4}, {5+} under a ZINB
    with mean ``rate`` and size ``dispersion``, computed here rather than
    by ctssim."""
    from scipy import stats

    dist = stats.nbinom(dispersion, dispersion / (dispersion + rate))
    c0, c1, c4 = dist.cdf([0, 1, 4])
    return np.array([zero_prob, 0.0, 0.0, 0.0]) + (1.0 - zero_prob) * np.array(
        [c0, c1 - c0, c4 - c1, dist.sf(4)])


def check_fit(model_path: str, converged: list, generating, reference: dict | None,
              observed: list | None = None):
    """Per-act failures of one ``ctssim fit`` output, as (attempted,
    problems, notes).

    An act fails when its fitted category masses miss the survey's
    observed category frequencies (``observed``) by more than
    FREQ_ABS_TOL, i.e. it is not the maximum-likelihood fit; when its rate
    or zero_prob is outside the stated tolerance of the generating model;
    when a parameter is not finite or out of range; or (with a reference)
    when a parameter or its sigma row moved from the reference.

    ctssim's own ``converged`` flag is recorded in ``notes`` when it is
    False for an act that passes the maximum-likelihood check: L-BFGS-B can
    end the lowest-objective start with an abnormal line search at the
    optimum.  Without ``observed`` a False flag is a failure.
    """
    n = len(generating.margins)
    problems: dict[int, list[str]] = {j: [] for j in range(n)}
    notes: list[str] = []
    try:
        with open(model_path, encoding="utf-8") as fh:
            model = json.load(fh)
        margins = model["margins"]
        sigma = np.asarray(model["sigma"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return n, {j: [f"unreadable model: {exc}"] for j in range(n)}, notes
    if len(margins) != n or sigma.shape != (n, n):
        return n, {j: ["wrong number of acts"] for j in range(n)}, notes
    if not (np.all(np.isfinite(sigma)) and np.allclose(sigma, sigma.T)
            and np.allclose(np.diag(sigma), 1.0)):
        return n, {j: ["sigma is not a finite correlation matrix"] for j in range(n)}, notes
    for j, (got, want) in enumerate(zip(margins, generating.margins)):
        flagged = len(converged) != n or not converged[j]
        if flagged and observed is None:
            problems[j].append("not converged")
        rate, zp, disp = got.get("rate"), got.get("zero_prob"), got.get("dispersion")
        if got.get("family") != "zinb" or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in (rate, zp, disp)):
            problems[j].append(f"bad parameters {got}")
            continue
        if not (rate > 0 and 0.0 <= zp <= 1.0 and disp > 0):
            problems[j].append(f"parameters out of range {got}")
            continue
        if observed is not None:
            gap = float(np.max(np.abs(zinb_category_probs(rate, zp, disp) - observed[j])))
            if gap > FREQ_ABS_TOL:
                problems[j].append(f"category masses miss the observed frequencies by {gap:.3g}: "
                                   "not the maximum-likelihood fit")
            elif flagged:
                notes.append(f"act {j}: ctssim reports not converged, but the fit reproduces "
                             f"the observed category frequencies to {gap:.2g}")
        if abs(rate - want.rate) > RATE_REL_TOL * want.rate:
            problems[j].append(f"rate {rate:.4f} vs generating {want.rate}")
        if abs(zp - want.zero_prob) > ZERO_PROB_ABS_TOL:
            problems[j].append(f"zero_prob {zp:.4f} vs generating {want.zero_prob}")
        if reference is not None:
            ref = reference["margins"][j]
            for key in ("rate", "zero_prob", "dispersion"):
                if not math.isclose(got[key], ref[key], rel_tol=FIT_REL_TOL):
                    problems[j].append(f"{key} {got[key]!r} vs reference {ref[key]!r}")
            ref_row = np.asarray(reference["sigma"][j])
            if np.max(np.abs(sigma[j] - ref_row)) > SIGMA_ABS_TOL:
                problems[j].append("sigma row differs from reference")
    return n, problems, notes


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_results(results_path: str, cells: list, config: dict, bias_gate: bool,
                  reference_path: str | None):
    """Per-cell failures of one ``ctssim simulate`` output, as (attempted, problems).

    A cell fails when either coding's row is missing, when a statistic is
    not finite or out of range, when |bias| exceeds 4 bias MC SEs
    (``bias_gate``), or (with a reference) when a point statistic moved
    from the reference by more than 1e-12.  The ``*_mc_se`` columns are
    only checked for finiteness.
    """
    problems: dict[tuple, list[str]] = {cell: [] for cell in cells}
    try:
        rows = _read_csv(results_path)
    except OSError as exc:
        return len(cells), {cell: [f"unreadable results: {exc}"] for cell in cells}
    by_key = {(r.get("scenario"), r.get("target"), r.get("coding")): r for r in rows}
    ref_rows = None
    if reference_path is not None:
        ref_rows = {(r["scenario"], r["target"], r["coding"]): r for r in _read_csv(reference_path)}
    for cell in cells:
        for coding in ("binary", "sum"):
            row = by_key.get((*cell, coding))
            if row is None:
                problems[cell].append(f"{coding} row missing")
                continue
            try:
                values = {k: float(v) for k, v in row.items()
                          if k in POINT_STATS or k.endswith("_mc_se")}
                header = (int(row["n_units"]), int(row["n_reps"]), int(row["seed"]))
            except (TypeError, ValueError) as exc:
                problems[cell].append(f"{coding}: unparsable row: {exc}")
                continue
            missing = [k for k in POINT_STATS if k not in values]
            bad = [k for k, v in values.items() if not math.isfinite(v)]
            if missing or bad:
                problems[cell].append(f"{coding}: missing {missing}, non-finite {bad}")
                continue
            if header != (config["n_units"], config["n_reps"], config["seed"]):
                problems[cell].append(f"{coding}: header {header} does not match the config")
            if not (0.0 <= values["power"] <= 1.0 and 0.0 <= values["coverage"] <= 1.0):
                problems[cell].append(f"{coding}: power or coverage outside [0, 1]")
            if values["rmse"] < 0 or values["rmse"] < abs(values["bias"]) * (1 - 1e-12):
                problems[cell].append(f"{coding}: rmse below |bias|")
            if any(v < 0 for k, v in values.items() if k.endswith("_mc_se")):
                problems[cell].append(f"{coding}: negative MC SE")
            if bias_gate and abs(values["bias"]) > BIAS_SE_LIMIT * values.get("bias_mc_se", 0.0):
                problems[cell].append(
                    f"{coding}: |bias| {abs(values['bias']):.3g} > {BIAS_SE_LIMIT} x bias_mc_se")
            if ref_rows is not None:
                ref = ref_rows[(*cell, coding)]
                for k in POINT_STATS:
                    if not math.isclose(values[k], float(ref[k]), rel_tol=STATS_TOL, abs_tol=STATS_TOL):
                        problems[cell].append(f"{coding}: {k} {values[k]!r} vs reference {ref[k]}")
    return len(cells), problems


# ---------------------------------------------------------------------------
# Set-up: inputs written from the seed (not timed)


def _survey_seeds(seed: int, count: int) -> list[int]:
    """The run seed itself first (so the default seed gives the bundled
    survey), then seeds derived from it."""
    derived = np.random.SeedSequence([seed, 0x5EED]).generate_state(count, dtype=np.uint32)
    return [seed] + [int(s) for s in derived[1:]]


def prepare(workload: str, seed: int, size: dict, work: str, threads: int | None) -> list[dict]:
    """Write the workload's input files; return one input spec per distinct
    operation: its ctssim arguments (minus the output path) and checks."""
    from ctssim import datasets, ingest

    def write_survey(survey_seed: int, stem: str):
        table = datasets.build_example_survey(size["survey_rows"], survey_seed)
        data, desc = os.path.join(work, f"{stem}.csv"), os.path.join(work, f"{stem}.json")
        ingest.write_survey(table, data, desc)
        return table, data, desc

    if workload == "fit-zinb":
        inputs = []
        for i, survey_seed in enumerate(_survey_seeds(seed, size["fit_surveys"])):
            table, data, desc = write_survey(survey_seed, f"survey{i}")
            counts = [np.bincount(table.values[:, j], minlength=4) for j in range(table.n_acts)]
            inputs.append({
                "argv": ["fit", "--data", data, "--descriptor", desc, "--family", "zinb",
                         "--out", "{op}/model.json"],
                "output": "model.json",
                "observed": [c / c.sum() for c in counts],
            })
        return inputs

    if workload == "cell-copula":
        model = {"inline": datasets.example_model().to_dict()}
        scenarios, targets, sizes = ["cessation_reduction"], ["all"], size["cell"]
    else:
        write_survey(seed, "survey")
        model = {"survey": {"data": "survey.csv", "descriptor": "survey.json",
                            "family": "zip", "use": "resample"}}
        scenarios, targets, sizes = SCENARIOS, GRID_TARGETS, size["grid"]
    config = {"model": model, "scenarios": scenarios, "targets": targets, "seed": seed, **sizes}
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    threads = threads or THREADS[workload]
    return [{
        "config": config,
        "cells": [(s, t) for s in scenarios for t in targets],
        "argv": ["simulate", "--config", config_path, "--threads", str(threads),
                 "--out-dir", "{op}/out"],
        "output": "out/results.csv",
    }]


# ---------------------------------------------------------------------------
# Operations


class Runner:
    """Spawns workload processes from the checkout at ``root``."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        self.env = env
        self.count = 0

    def spawn(self, argv: list | None, trace: bool, deadline: float) -> dict:
        """One worker process running ``argv`` (``{op}`` stands for its own
        directory), or only importing when ``argv`` is None; returns its
        measurements plus ``dir``, and ``error`` if it failed."""
        self.count += 1
        op_dir = os.path.join(self.work, f"op{self.count:03d}")
        os.makedirs(op_dir)
        spec_path = os.path.join(op_dir, "spec.json")
        spec = {
            "argv": None if argv is None else [a.replace("{op}", op_dir) for a in argv],
            "trace": trace,
            "result": os.path.join(op_dir, "result.json"),
            "spans": os.path.join(op_dir, "spans.json"),
        }
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path]
        timeout = max(1.0, deadline - time.monotonic())
        with open(os.path.join(op_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(op_dir, "stderr.txt"), "w") as err:
            spec["spawned"] = time.monotonic()
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            try:
                exit_code = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                           timeout=timeout, check=False).returncode
            except subprocess.TimeoutExpired:
                exit_code = "timeout"
            except OSError as exc:  # the interpreter could not be started
                exit_code = f"not started ({exc})"
        try:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {}
        result["dir"] = op_dir
        if exit_code != 0 or result.get("rc", 0) != 0:
            result["error"] = (f"worker exit {exit_code}, ctssim exit {result.get('rc')}; "
                               f"stderr: {_tail(err.name)!r}")
        elif not result.get("ctssim_file", "").startswith(self.src + os.sep):
            result["error"] = f"imported ctssim from {result.get('ctssim_file')}, not {self.src}"
        return result


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()
    except OSError:
        return ""


def _difference(a: str, b: str) -> str | None:
    """None when the two files hold the same bytes, else where they part."""
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            ours, theirs = fa.read(), fb.read()
    except OSError as exc:
        return str(exc)
    if ours == theirs:
        return None
    for n, (x, y) in enumerate(zip(ours.splitlines(), theirs.splitlines()), 1):
        if x != y:
            return f"line {n}: {x[:120]!r} vs {y[:120]!r}"
    return "one is a prefix of the other"


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []  # findings that fail no operation
        self.checked = 0  # outputs whose content was checked, not only compared

    def add(self, label: str, attempted: int, problems: dict):
        self.attempted += attempted
        bad = {k: v for k, v in problems.items() if v}
        self.failed += len(bad)
        self.problems += [f"{label} {k}: {'; '.join(v)}" for k, v in bad.items()]

    def fail_all(self, label: str, units: list, reason: str):
        self.add(label, len(units), {u: [reason] for u in units})


def check_op(op: dict, inp: dict, first_output: str | None, workload: str, generating,
             reference: str | None, tally: Tally, label: str) -> str | None:
    """Check one operation's output; returns the output path if it passed
    as a whole.  Repeats of an input must reproduce the first output's bytes."""
    fit = inp["argv"][0] == "fit"
    units = list(range(len(generating.margins))) if fit else inp["cells"]
    output = os.path.join(op["dir"], inp["output"])
    if "error" in op:
        tally.fail_all(label, units, op["error"])
        return None
    if first_output is not None:
        diff = _difference(output, first_output)
        if diff is None:
            tally.add(label, len(units), {})
            return output
        tally.fail_all(label, units, f"{inp['output']} differs from {first_output} ({diff})")
        return None
    if fit:
        ref = None
        if reference is not None:
            with open(reference, encoding="utf-8") as fh:
                ref = json.load(fh)
        n, problems, notes = check_fit(output, op.get("converged", []), generating, ref,
                                       inp["observed"])
        tally.notes += [f"{label} {note}" for note in notes]
    else:
        n, problems = check_results(output, inp["cells"], inp["config"],
                                    bias_gate=workload == "cell-copula", reference_path=reference)
    tally.checked += 1
    tally.add(label, n, problems)
    return output


# ---------------------------------------------------------------------------
# Environment record


def environment(root: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# The run


def _per_input_mean(samples: dict[int, list[float]]) -> float:
    """Mean over inputs of each input's median."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def run(args) -> int:
    begun = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctssim", "cli.py")):
        print(f"error: no ctssim source under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from ctssim.datasets import example_model

    size = SIZES["smoke" if args.smoke else "full"]
    env = environment(root, args.seed)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = prepare(args.workload, args.seed, size, work, args.threads)
    use_reference = args.seed == DEFAULT_SEED and not args.smoke
    reference = os.path.join(REFERENCE_DIR, f"{args.workload}{os.path.splitext(inputs[0]['output'])[1]}")
    generating = example_model()
    runner = Runner(root, work)
    tally = Tally()

    started = time.monotonic()
    last_start, deadline = begun + RUN_LIMIT_S, begun + HARD_LIMIT_S
    untraced: list[tuple[int, dict]] = []
    traced: list[tuple[int, dict]] = []
    first_output: dict[int, str | None] = {}
    step = 0
    while True:
        idx = step % len(inputs)
        inp = inputs[idx]
        step += 1
        op = runner.spawn(inp["argv"], False, deadline)
        untraced.append((idx, op))
        ref = reference if use_reference and idx == 0 and not args.write_reference else None
        passed = check_op(op, inp, first_output.get(idx), args.workload, generating, ref,
                          tally, f"op{runner.count}")
        first_output.setdefault(idx, passed)
        if args.trace:
            top = runner.spawn(inp["argv"], True, deadline)
            traced.append((idx, top))
            check_op(top, inp, first_output[idx] or passed, args.workload, generating, None,
                     tally, f"op{runner.count} (traced)")
        elapsed = time.monotonic() - started
        per_step = elapsed / step
        if step >= len(inputs) and elapsed + per_step > args.seconds:
            break
        if time.monotonic() + per_step > last_start:
            break

    if args.write_reference and use_reference and first_output.get(0):
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        shutil.copyfile(first_output[0], reference)
        print(f"reference -> {reference}")

    good = [(i, op) for i, op in untraced if "error" not in op]
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    summary = {"env": env, "workload": args.workload, "smoke": args.smoke,
               "operations": len(untraced) + len(traced)}
    if not args.trace:
        setups = [op["setup_s"] for _, op in untraced if "setup_s" in op]
        while len(setups) < size["setup_samples"] and time.monotonic() < last_start:
            probe = runner.spawn(None, False, deadline)
            if "setup_s" not in probe:
                tally.problems.append(f"setup probe failed: {probe.get('error')}")
                break
            setups.append(probe["setup_s"])
        walls: dict[int, list[float]] = {}
        for i, op in good:
            walls.setdefault(i, []).append(op["wall_s"])
        values = {
            "setup_s": statistics.median(setups) if setups else None,
            "wall_s": _per_input_mean(walls) if walls else None,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for _, op in good) if good else None,
            "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        summary["samples"] = {"setup_s": setups, "wall_s": walls,
                              "peak_rss_mb": [op.get("peak_rss_mb") for _, op in untraced]}
        for name, unit in END_TO_END_UNITS.items():
            if values[name] is not None:
                metrics[name] = {"value": values[name], "unit": unit}
    else:
        per_input: dict[int, list[dict]] = {}
        reasons: dict[str, str] = {}
        unmeasured: dict[str, str] = {}
        missing_targets: set[str] = set()
        traced_walls: dict[int, list[float]] = {}
        for i, op in traced:
            if "error" in op:
                continue
            with open(os.path.join(op["dir"], "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)
            measured, reasons = layer_metrics(spans)
            per_input.setdefault(i, []).append(measured)
            missing_targets.update(op.get("missing_targets", ()))
            traced_walls.setdefault(i, []).append(op["wall_s"])
            if "stages_ms_per_rep" not in summary:
                summary["stages_ms_per_rep"] = stage_table(spans)
        plain: dict[int, list[float]] = {}
        for i, op in good:
            plain.setdefault(i, []).append(op["wall_s"])
        medians = {i: {name: statistics.median(m[name] for m in ms) for name in ms[0]}
                   for i, ms in per_input.items()}
        values = {}
        if medians and set(medians) <= set(plain):
            for name in set.intersection(*(set(m) for m in medians.values())):
                values[name] = statistics.fmean(m[name] for m in medians.values())
            traced_wall = sum(statistics.median(v) for v in traced_walls.values())
            plain_wall = sum(statistics.median(plain[i]) for i in traced_walls)
            values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        for name, unit in LAYER_UNITS.items():
            if name not in APPLIES[args.workload]:
                absent.append(name)
                value = 0.0
            elif name in values:
                value = values[name]
            else:
                unmeasured[name] = reasons.get(name, "no traced operation succeeded")
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        summary["absent"] = absent
        summary["unmeasured"] = unmeasured
        summary["missing_targets"] = sorted(missing_targets)
        summary["samples"] = {"wall_s": plain, "traced_wall_s": traced_walls}
        summary["per_input"] = medians

    correct = tally.failed == 0 and not tally.problems and bool(good)
    summary.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                   checked=tally.checked, problems=tally.problems, notes=tally.notes,
                   metrics=metrics)
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced operations in "
          f"{time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env))
    for problem in tally.problems:
        print(f"FAILED {problem}")
        print(f"FAILED {problem}", file=sys.stderr)
    if not good:
        print("FAILED no untraced operation succeeded", file=sys.stderr)
    for note in tally.notes:
        print(f"NOTE {note}")
    print(f"checks: {tally.checked} outputs checked in full; {tally.attempted} operations, "
          f"{tally.failed} failed (failed_frac {tally.failed / max(tally.attempted, 1):.4f})")
    unmeasured = summary.get("unmeasured", {})
    for name, m in metrics.items():
        if name in absent:
            shown = "absent (no such work in this workload)"
        elif name in unmeasured:
            shown = f"unmeasured ({unmeasured[name]})"
        else:
            shown = f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:40s} {shown}")
    for target in summary.get("missing_targets", ()):
        print(f"  tracer could not wrap {target}")
    for name, ms in summary.get("stages_ms_per_rep", {}).items():
        print(f"  stage {name:50s} {ms:.4f} ms/rep")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's --threads (simulate workloads only)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--write-reference", action="store_true",
                        help="at the default seed, store this run's output as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
