"""Command-line front door: fit models, run simulation grids, render reports.

Subcommands:

* ``fit``: estimate a model from a survey file and write it as JSON.
* ``simulate``: run a scenario grid from a declarative config and write
  machine-readable results, a human-readable table, and latent diagnostics.
* ``report``: compare binary vs sum power across one or more results files.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import scipy

from . import __version__
from .harness import (
    CODINGS,
    SCENARIO_PRESETS,
    STAGES,
    STATISTICS,
    CellResult,
    SimulationConfig,
    latent_summary,
    scenario_grid,
    scenario_preset,
)
from .ingest import (
    _RHO_LIMIT,
    EmpiricalResampler,
    SurveyFormatError,
    _atomic_write_text,
    fit_model,
    load_model,
    read_survey,
    save_model,
)
from .joint import MultiActModel
from .marginals import FAMILIES, ZIP
from .outcomes import TARGET_PRESETS, EffectScenario, target_columns

# shared by results.csv and latent_diagnostics.csv
RESULTS_SCHEMA_VERSION = 2

RESULTS_COLUMNS = [
    "schema_version", "scenario", "target", "coding", "n_units", "n_reps",
    "alpha", "seed", "mean_true_ate", "true_ate_is_zero",
    "bias", "bias_mc_se", "rmse", "rmse_mc_se", "power", "power_mc_se",
    "coverage", "coverage_mc_se", "power_diff_mc_se",
]
LATENT_COLUMNS = [
    "schema_version", "scenario", "target", "mean_latent_count_ate",
    "denormalized_sum_bias", "denormalized_sum_coverage",
]
# the results.csv columns that power_differences reads, each with the
# parser its values must pass
REPORT_FIELDS = {
    "scenario": str, "target": str, "coding": str, "n_units": int, "seed": int,
    "power": float, "true_ate_is_zero": int, "power_diff_mc_se": float,
}
# the top-level keys of a run config
CONFIG_KEYS = frozenset({
    "model", "scenarios", "targets", "n_units", "n_reps", "n_bootstrap",
    "alpha", "seed", "df", "magnitude", "floor",
})
# the keys of a config's model.survey
SURVEY_KEYS = frozenset({"data", "descriptor", "family", "use"})


class ConfigError(ValueError):
    """Bad run configuration; reported before any computation starts."""


# ---------------------------------------------------------------------------
# Run configuration


@dataclass
class RunConfig:
    base: SimulationConfig  # the settings every cell shares
    scenarios: list[EffectScenario]
    targets: list
    fingerprint: str  # sha256 of the canonical effective config document
    model_sha256: str | None  # _canonical_hash of the model's to_dict(); None when resampling
    survey_sha256: dict | None  # a model.survey's "data" and "descriptor" file hashes
    fit: dict | None  # run_meta.json's "fit": a model.survey's fit report (_fit_meta)


def _canonical_hash(document: dict) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _clamped_pairs(acts, report) -> list[tuple[int, int]]:
    """The act-index pairs whose latent correlation ``fit_model`` clamped."""
    return [(acts[j].index, acts[l].index) for j, l in report.clamped]


def _fit_meta(acts, per_act, report=None) -> dict:
    """run_meta.json's "fit": each act's fit diagnostics and, with a fitted
    model's ``report``, how far nearest_psd moved sigma and the clamped pairs."""
    meta = {"acts": [{"label": act_fit.label, "family": act_fit.fit.params.family,
                      "loglik": act_fit.fit.loglik, "gof_p": act_fit.chi2_p,
                      "converged": act_fit.fit.converged, "boundary": act_fit.fit.boundary_flag,
                      "degenerate": act_fit.fit.degenerate} for act_fit in per_act]}
    if report is not None:
        meta["sigma_psd_distance"] = report.sigma_psd_distance
        meta["clamped"] = _clamped_pairs(acts, report)
    return meta


def _build_model(source, base_dir: str):
    """The model a config's ``model`` names, its survey's file hashes, and the
    ``_fit_meta`` of the survey's fit: None for a file or inline model, and the
    fit None also for a counts-mode survey resampled as is."""
    source = _config_object("model", source)
    _check_keys("model", source, {"file", "inline", "survey"})
    if len(source) != 1:
        raise ConfigError(
            f"config 'model' must have exactly one of file/inline/survey, got {sorted(source)}"
        )
    (kind,) = source
    try:
        if kind == "file":
            path = os.path.join(base_dir, _config_str("model.file", source["file"]))
            return load_model(path), None, None
        if kind == "inline":
            inline = _config_object("model.inline", source["inline"])
            return MultiActModel.from_dict(inline), None, None
    except OSError as exc:
        raise ConfigError(f"cannot read the model file: {exc}") from None
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed {kind} model: {type(exc).__name__}: {exc}") from None
    survey = _config_object("model.survey", source["survey"])
    _check_keys("model.survey", survey, SURVEY_KEYS)
    for key in ("data", "descriptor"):
        if key not in survey:
            raise ConfigError(f"config model.survey is missing {key!r}")
    family = survey.get("family", ZIP)
    use = survey.get("use", "fit")
    for key, value, known in (("family", family, FAMILIES), ("use", use, ("fit", "resample"))):
        if value not in known:
            raise ConfigError(f"config model.survey.{key} must be one of {list(known)}, "
                              f"got {json.dumps(value)}")
    paths = {key: os.path.join(base_dir, _config_str(f"model.survey.{key}", survey[key]))
             for key in ("data", "descriptor")}
    try:
        table = read_survey(paths["data"], paths["descriptor"])
        hashes = {key: _file_sha256(path) for key, path in paths.items()}
    except OSError as exc:
        raise ConfigError(f"cannot read the survey: {exc}") from None
    if use == "fit":
        model, report = fit_model(table, family)
        return model, hashes, _fit_meta(table.acts, report.per_act, report)
    resampler = EmpiricalResampler(table, family=family)
    fit = None if resampler.fits is None else _fit_meta(table.acts, resampler.fits)
    return resampler, hashes, fit


def _effect_settings(obj: dict) -> dict:
    """The "magnitude" and "floor" that a config object sets."""
    return {key: _config_int(key, obj[key]) for key in ("magnitude", "floor") if key in obj}


def _build_scenarios(raw: list, settings: dict) -> list[EffectScenario]:
    """The scenarios a config's ``scenarios`` names, each taking ``settings``
    (the config's magnitude and floor) where it does not set its own."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config 'scenarios' must be a non-empty list")
    out = []
    for item in raw:
        if isinstance(item, str):
            try:
                out.append(scenario_preset(item, **settings))
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from None
        elif isinstance(item, dict):
            _check_keys("scenarios", item, {"probs", "magnitude", "floor", "name"})
            if "probs" not in item:
                raise ConfigError(f"custom scenario {item!r} is missing 'probs'")
            probs = item["probs"]
            if not isinstance(probs, list):
                raise ConfigError(f"config 'probs' must be a list of 4 numbers, got {json.dumps(probs)}")
            probs = tuple(_config_number("probs", p) for p in probs)
            name = _config_str("name", item.get("name", "custom")) or "custom"
            try:
                out.append(EffectScenario(probs, **{**settings, **_effect_settings(item)}, name=name))
            except ValueError as exc:
                raise ConfigError(f"bad custom scenario {item!r}: {exc}") from None
        else:
            raise ConfigError(f"scenario entries must be names or objects, got {item!r}")
    return out


def _build_targets(raw: list) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config 'targets' must be a non-empty list")
    out = []
    for item in raw:
        if isinstance(item, str):
            if item not in TARGET_PRESETS:
                raise ConfigError(f"unknown target preset {item!r}; have {TARGET_PRESETS}")
            out.append(item)
        elif isinstance(item, list):
            if not item:
                raise ConfigError("config 'targets' index lists must be non-empty")
            out.append(tuple(_config_int("targets", i) for i in item))
        else:
            raise ConfigError(f"target entries must be presets or index lists, got {item!r}")
    return out


def _check_keys(key: str, obj: dict, known: set) -> None:
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown keys in config {key!r}: {sorted(unknown)}")


def _config_object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config {key!r} must be an object, got {json.dumps(value)}")
    return value


def _config_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config {key!r} must be a string, got {json.dumps(value)}")
    return value


def _config_int(key: str, value) -> int:
    """A config integer: a JSON integer, or a number with no fractional part."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"config {key!r} must be an integer, got {json.dumps(value)}")
    return int(value)


def _config_number(key: str, value) -> float:
    """A config real number: a JSON integer or float, not a bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config {key!r} must be a number, got {json.dumps(value)}")
    return float(value)


def _repeated(names: list) -> list:
    """The names that ``names`` holds more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {json.dumps(doc)[:80]}")
    if "model" not in doc:
        raise ConfigError("config is missing 'model'")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "n_units" not in doc:
        raise ConfigError("config is missing 'n_units'")

    effective = dict(doc)
    if seed_override is not None:
        effective["seed"] = seed_override
    # MC SEs have closed forms; a config's n_bootstrap is checked and ignored
    if "n_bootstrap" in doc:
        _config_int("n_bootstrap", doc["n_bootstrap"])
    raw_scenarios = doc.get("scenarios", list(SCENARIO_PRESETS))
    scenarios = _build_scenarios(raw_scenarios, _effect_settings(doc))
    targets = _build_targets(doc.get("targets", ["all"]))
    # the outputs key a cell by these names, so two cells must not share them
    repeated = _repeated([(s.name, _target_name(t)) for s in scenarios for t in targets])
    if repeated:  # named by cause: a target or a preset listed twice, or a custom name taken
        presets = [item for item in raw_scenarios if isinstance(item, str)]
        names = [s.name for s in scenarios]
        causes = {
            "list each target once": _repeated([_target_name(t) for t in targets]),
            "list each scenario preset once": _repeated(presets),
            "give each custom scenario its own 'name'":
                [name for name in _repeated(names) if presets.count(name) < names.count(name)],
        }
        raise ConfigError(f"config names more than one cell (scenario, target) {repeated}; "
                          + "; ".join(f"{advice} (repeated: {', '.join(map(repr, found))})"
                                      for advice, found in causes.items() if found))
    model, survey_sha256, fit = _build_model(doc["model"], os.path.dirname(os.path.abspath(path)))
    for target in targets:  # resolved as each cell will, before any cell runs
        try:
            target_columns(model.acts, target)
        except ValueError as exc:
            raise ConfigError(f"config 'targets': {exc}") from None
    # a key the config leaves out takes SimulationConfig's default
    checks = {"n_units": _config_int, "n_reps": _config_int, "alpha": _config_number,
              "seed": _config_int, "df": lambda key, value: value}
    settings = {key: check(key, effective[key]) for key, check in checks.items() if key in effective}
    try:
        base = SimulationConfig(model=model, **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    model_sha256 = _canonical_hash(model.to_dict()) if isinstance(model, MultiActModel) else None
    return RunConfig(base, scenarios, targets, _canonical_hash(effective), model_sha256,
                     survey_sha256, fit)


# ---------------------------------------------------------------------------
# Output rendering


def _fmt(value: float) -> str:
    return repr(float(value))


def _target_name(target) -> str:
    return target if isinstance(target, str) else ",".join(map(str, target))


def _cell_names(cell: CellResult) -> dict[str, str]:
    """A cell's "scenario" name and "target", as the outputs write them."""
    return {"scenario": cell.scenario.name, "target": _target_name(cell.target)}


def _results_rows(cells: list[CellResult]) -> list[dict]:
    rows = []
    for cell in cells:
        config = cell.config
        for coding in CODINGS:
            stats = cell.stats[coding]
            row = {
                "schema_version": RESULTS_SCHEMA_VERSION,
                **_cell_names(cell),
                "coding": coding,
                "n_units": config.n_units,
                "n_reps": config.n_reps,
                "alpha": _fmt(config.alpha),
                "seed": config.seed,
                "mean_true_ate": _fmt(stats.mean_true_ate),
                "true_ate_is_zero": int(stats.true_ate_is_zero),
                "power_diff_mc_se": _fmt(stats.mc_se["power_diff"]),
            }
            for name in STATISTICS:
                row[name] = _fmt(getattr(stats, name))
                row[f"{name}_mc_se"] = _fmt(stats.mc_se[name])
            rows.append(row)
    return rows


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    """CSV of ``columns``, taken from each row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv(path: str, columns: list[str], rows: list[dict]):
    _atomic_write_text(path, _csv_text(columns, rows))


def _check_out_path(path: str, is_dir: bool = False) -> None:
    """Reject an output path that cannot be written, before any work: a file
    path whose directory is missing or not writable, or that is a directory,
    or (``is_dir``) an output directory at or under something that is not a
    directory, or whose nearest existing ancestor (itself, if it exists) is
    not writable."""
    if is_dir:
        existing = os.path.abspath(path)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"cannot write to {path}: {existing} is not a directory")
        if not os.access(existing, os.W_OK):
            raise ConfigError(f"cannot write to {path}: {existing} is not writable")
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write {path}: directory {directory} is not writable")


def _check_not_input(out: str, inputs) -> None:
    """Reject an output path that is the same file as one of the command's
    existing inputs, before any work."""
    if os.path.exists(out):
        for path in inputs:
            if os.path.exists(path) and os.path.samefile(out, path):
                raise ConfigError(f"cannot write {out}: it is the input {path}")


def _table(header: list[str], rows: list[list[str]], markdown: bool) -> list[str]:
    """The lines of a markdown table, or of left-aligned columns two spaces
    apart, each line without trailing spaces."""
    if markdown:
        return [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
            *("| " + " | ".join(r) + " |" for r in rows),
        ]
    widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(header)]
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in (header, *rows))
    return [line.rstrip() for line in lines]


def _human_table(cells: list[CellResult]) -> str:
    lines = []
    flagged = False
    named = [(cell, _cell_names(cell)) for cell in cells]
    for target in dict.fromkeys(names["target"] for _, names in named):  # first-seen order
        block = [(cell, names["scenario"]) for cell, names in named if names["target"] == target]
        first = block[0][0].config
        lines.append(f"## Target: {target}  (n_units={first.n_units}, n_reps={first.n_reps})")
        header = ["Scenario", "Coding", "Bias", "RMSE", "Power", "Coverage"]
        rows = []
        for cell, scenario in block:
            for coding in CODINGS:
                s = cell.stats[coding]
                mark = "*" if s.true_ate_is_zero else ""
                flagged = flagged or bool(mark)
                rows.append([
                    scenario, coding, f"{s.bias:.4f}", f"{s.rmse:.4f}",
                    f"{s.power:.3f}{mark}", f"{s.coverage:.3f}",
                ])
        lines.extend(_table(header, rows, markdown=True))
        lines.append("")
    if flagged:
        lines.append("* true effect is 0 for this coding; the power column is a type-I error rate.")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_fit(args) -> int:
    try:
        _check_out_path(args.out)
        _check_not_input(args.out, [args.data, args.descriptor])
        try:
            table = read_survey(args.data, args.descriptor)
        except OSError as exc:
            raise ConfigError(f"cannot read the survey: {exc}") from None
        model, report = fit_model(table, args.family)
    except (SurveyFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_model(model, args.out)
    print(f"fitted {table.n_acts} acts on {table.n_rows} rows "
          f"({table.n_dropped} dropped for missing values); model -> {args.out}")
    rows = [[act_fit.label[:40], margin.family, f"{margin.rate:.3f}", f"{margin.zero_prob:.3f}",
             "-" if margin.dispersion is None else f"{margin.dispersion:.4g}",
             f"{act_fit.fit.loglik:.2f}", "-" if act_fit.chi2_p is None else f"{act_fit.chi2_p:.3f}",
             str(act_fit.fit.converged),
             str(act_fit.fit.boundary_flag) + (" [degenerate]" if act_fit.fit.degenerate else "")]
            for act_fit, margin in zip(report.per_act, model.margins)]
    header = "act family rate zero_prob disp loglik gof_p converged boundary".split()
    print("\n".join(_table(header, rows, markdown=False)))
    print(f"nearest_psd moved sigma by {report.sigma_psd_distance:.3g} (Frobenius norm)")
    clamped = ", ".join(f"({j}, {l})" for j, l in _clamped_pairs(table.acts, report))
    print(f"latent correlation clamped at +/-{_RHO_LIMIT} for acts: {clamped or 'none'}")
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    try:
        _check_out_path(args.out_dir, is_dir=True)
        run = load_run_config(args.config, args.seed)
    except (ConfigError, SurveyFormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    before = resource and resource.getrusage(resource.RUSAGE_SELF)
    cells = scenario_grid(run.base, run.scenarios, run.targets)
    after = resource and resource.getrusage(resource.RUSAGE_SELF)

    _write_csv(os.path.join(out_dir, "results.csv"), RESULTS_COLUMNS, _results_rows(cells))
    _atomic_write_text(os.path.join(out_dir, "results.md"), _human_table(cells))
    n_items = len(run.base.model.acts)
    latent_rows = [
        {"schema_version": RESULTS_SCHEMA_VERSION, **_cell_names(cell),
         **{k: _fmt(v) for k, v in latent_summary(cell.reps, n_items).items()}}
        for cell in cells
    ]
    _write_csv(os.path.join(out_dir, "latent_diagnostics.csv"), LATENT_COLUMNS, latent_rows)

    elapsed = time.perf_counter() - started
    total_reps = sum(cell.config.n_reps for cell in cells)
    meta = {
        "config_hash": run.fingerprint,
        "model_sha256": run.model_sha256,
        "survey_sha256": run.survey_sha256,
        "fit": run.fit,
        "seed": run.base.seed,
        "version": __version__,
        "wall_clock_seconds": round(elapsed, 3),
        "cells": len(cells),
        # shared by every cell, and by the cells of one target: not in cell_wall_s;
        # the draw is this thread's part, the prefetch the helper thread's, which
        # ran on draw_thread_cpus (None: where the kernel put it)
        "draw_ms_per_rep": 1e3 * cells[0].draw_s / run.base.n_reps,
        "prefetch_ms_per_rep": 1e3 * cells[0].prefetch_s / run.base.n_reps,
        "draw_thread_cpus": cells[0].draw_thread_cpus,
        # the process's context switches and minor page faults over the grid,
        # or None where the platform has no resource module
        "grid_rusage": resource and {
            key: getattr(after, field) - getattr(before, field) for key, field in
            (("voluntary_switches", "ru_nvcsw"), ("involuntary_switches", "ru_nivcsw"),
             ("minor_faults", "ru_minflt"))},
        "target_ms_per_rep": 1e3 * cells[0].target_s / run.base.n_reps,
        "cell_wall_s": [cell.wall_s for cell in cells],
        "stage_ms_per_rep": {
            stage: 1e3 * sum(cell.stage_s[stage] for cell in cells) / total_reps
            for stage in STAGES
        },
        "summary_ms_per_cell": 1e3 * sum(cell.summary_s for cell in cells) / len(cells),
        "degenerate_estimates": {
            coding: sum(int(np.count_nonzero(cell.reps.data[coding]["se"] == 0.0)) for cell in cells)
            for coding in CODINGS
        },
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _atomic_write_text(os.path.join(out_dir, "run_meta.json"), json.dumps(meta, indent=2) + "\n")
    print(f"config {run.fingerprint[:12]} seed {run.base.seed} version {__version__}: "
          f"{len(cells)} cells in {elapsed:.1f}s -> {out_dir}")
    return 0


def _read_results(path: str) -> list[dict]:
    """The rows of a results.csv, each with every REPORT_FIELDS value filled
    and well-formed; a failure names the file and line."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        # raised after the schema version check, which names an old file as such
        lacking = [c for c in REPORT_FIELDS if c not in (reader.fieldnames or ())]
        for row in reader:
            where = f"{path}:{reader.line_num}"
            version = row.get("schema_version")
            try:
                version_number = int(version)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: schema_version must be an integer, got {version!r}"
                ) from None
            if version_number != RESULTS_SCHEMA_VERSION:
                raise ValueError(
                    f"{where}: results schema version {version!r} "
                    f"does not match supported version {RESULTS_SCHEMA_VERSION}"
                )
            if lacking:
                raise ValueError(f"{path}:1: header lacks columns {lacking}")
            for column, parse in REPORT_FIELDS.items():
                value = row[column]  # None when the row is shorter than the header
                if not value:
                    raise ValueError(f"{where}: column {column!r} has no value")
                try:
                    parse(value)
                except ValueError:
                    raise ValueError(
                        f"{where}: column {column!r} has malformed value {value!r}"
                    ) from None
            # full path: distinct runs often share the basename results.csv
            row["_source"] = path
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty results file")
    return rows


def power_differences(rows: list[dict]) -> list[dict]:
    """Per-cell power(binary) - power(sum) with its paired MC SE."""
    cells: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        key = (row["_source"], row["scenario"], row["target"], row["n_units"], row["seed"])
        pair = cells.setdefault(key, {})
        if row["coding"] in pair:
            raise ValueError(f"{key[0]}: more than one row for (scenario, target, n_units, seed, "
                             f"coding) {(*key[1:], row['coding'])}")
        pair[row["coding"]] = row
    out = []
    for key in sorted(cells):
        pair = cells[key]
        if set(pair) != {"binary", "sum"}:
            raise ValueError(f"cell {key} lacks both codings")
        b, s = pair["binary"], pair["sum"]
        diff = float(b["power"]) - float(s["power"])
        flags = []
        if int(b["true_ate_is_zero"]):
            flags.append("binary true effect = 0 (type-I rate)")
        if int(s["true_ate_is_zero"]):
            flags.append("sum true effect = 0 (type-I rate)")
        out.append({
            "source": key[0],
            "scenario": key[1],
            "target": key[2],
            "power_binary": float(b["power"]),
            "power_sum": float(s["power"]),
            "power_diff": diff,
            "power_diff_se": float(b["power_diff_mc_se"]),
            "flags": "; ".join(flags),
        })
    return out


def cmd_report(args) -> int:
    try:
        if args.out:
            _check_out_path(args.out)
            _check_not_input(args.out, args.results)
        for i, path in enumerate(args.results):
            for earlier in args.results[:i]:
                if os.path.samefile(path, earlier):
                    raise ValueError(f"{path} is listed more than once (as {earlier})")
        rows = []
        for path in args.results:
            rows.extend(_read_results(path))
        diffs = power_differences(rows)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    columns = ["source", "scenario", "target", "power_binary", "power_sum",
               "power_diff", "power_diff_se", "flags"]
    if args.format == "csv":
        text = _csv_text(columns, [
            {k: (_fmt(v) if isinstance(v, float) else v) for k, v in d.items()} for d in diffs
        ])
    else:
        body = [
            [d["source"], d["scenario"], d["target"], f"{d['power_binary']:.3f}",
             f"{d['power_sum']:.3f}", f"{d['power_diff']:+.3f}", f"{d['power_diff_se']:.3f}",
             d["flags"]]
            for d in diffs
        ]
        text = "\n".join(_table(columns, body, args.format == "md")) + "\n"
    if args.out:
        _atomic_write_text(args.out, text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctssim",
        description="Simulate randomized trials with multi-item violence outcomes "
                    "and compare binary vs normalized-sum outcome codings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to survey data")
    p_fit.add_argument("--data", required=True, help="survey CSV path")
    p_fit.add_argument("--descriptor", required=True, help="survey descriptor JSON path")
    p_fit.add_argument("--family", choices=FAMILIES, default=ZIP)
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario grid")
    p_sim.add_argument("--config", required=True, help="run config JSON path")
    p_sim.add_argument("--out-dir", required=True, help="output directory")
    # replications run on the calling thread with one fixed helper thread
    # for the draws; --threads is accepted and ignored so that existing
    # command lines keep working
    p_sim.add_argument("--threads", help=argparse.SUPPRESS)
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="binary-vs-sum power differences")
    p_rep.add_argument("--results", nargs="+", required=True, help="results.csv paths")
    p_rep.add_argument("--format", choices=["csv", "md", "txt"], default="txt")
    p_rep.add_argument("--out", default=None, help="write here instead of stdout")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
