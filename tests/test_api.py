"""The public surface of the ctssim package and of its command line.

``ctssim.__all__``, each subcommand's options, the top-level run config
keys, the ``model.survey`` keys and the files one ``simulate`` run writes
are pinned name for name, so any of them is added or removed only on
purpose.  The reference pipeline in ``tests/reference.py`` and the
fixtures in ``tests/helpers.py`` are test code: no module of the package
may import them.  The package attributes that the benchmark's scripts
call are listed too, so that none of them moves out of the package
unnoticed.
"""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import ctssim
from ctssim import cli
from ctssim.datasets import example_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = [
    "ActSpec",
    "CellResult",
    "EffectScenario",
    "EmpiricalResampler",
    "FitResult",
    "MarginalParams",
    "MultiActModel",
    "PerformanceStats",
    "Replications",
    "SCENARIO_PRESETS",
    "SimulationConfig",
    "SurveyTable",
    "categorize",
    "fit_mle_censored",
    "fit_mle_exact",
    "fit_model",
    "latent_correlation_matrix",
    "latent_summary",
    "load_model",
    "nearest_psd",
    "read_survey",
    "run_cell",
    "sample_joint",
    "save_model",
    "scenario_grid",
    "scenario_preset",
    "summarize",
    "write_survey",
]

# sorted option strings of the parser ("ctssim") and of each subcommand
CLI_OPTIONS = {
    "ctssim": ["--help", "--version", "-h"],
    "fit": ["--data", "--descriptor", "--family", "--help", "--out", "-h"],
    "report": ["--format", "--help", "--out", "--results", "-h"],
    "simulate": ["--config", "--help", "--out-dir", "--seed", "--threads", "-h"],
}
CONFIG_KEYS = [
    "alpha", "df", "floor", "magnitude", "model", "n_bootstrap", "n_reps", "n_units",
    "scenarios", "seed", "targets",
]
SURVEY_KEYS = ["data", "descriptor", "family", "use"]
SIMULATE_OUTPUTS = [
    "latent_diagnostics.csv", "power_long.csv", "results.csv", "results.md", "run_meta.json",
]
# the ctssim attributes, as "module.name", that bench/run_bench.py and
# bench/worker.py call in an untraced benchmark run
BENCH_CALLS = [
    "cli.main", "cli.fit_model", "datasets.build_example_survey", "datasets.example_model",
    "ingest.write_survey",
]


def package_modules() -> dict[str, str]:
    root = os.path.dirname(os.path.abspath(ctssim.__file__))
    return {
        name: os.path.join(root, name)
        for name in sorted(os.listdir(root))
        if name.endswith(".py")
    }


def test_public_names_are_pinned():
    assert sorted(ctssim.__all__) == PUBLIC_NAMES
    assert len(set(ctssim.__all__)) == len(ctssim.__all__)


def test_every_public_name_resolves():
    for name in ctssim.__all__:
        assert getattr(ctssim, name, None) is not None, name


def test_what_the_benchmark_calls_exists():
    scripts = ""
    for name in ("run_bench.py", "worker.py"):
        with open(os.path.join(REPO_ROOT, "bench", name), encoding="utf-8") as fh:
            scripts += fh.read()
    for call in BENCH_CALLS:
        module, name = call.split(".")
        assert callable(getattr(importlib.import_module(f"ctssim.{module}"), name, None)), call
        assert call in scripts, f"{call} is not called in bench/run_bench.py or bench/worker.py"


def test_no_package_module_imports_the_reference_pipeline():
    modules = package_modules()
    assert "harness.py" in modules and "cli.py" in modules
    for file_name, path in modules.items():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in imported:
                assert not {"reference", "helpers"} & set(name.split(".")), (file_name, name)


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {"ctssim": parser, **subcommands.choices}
    options = {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in parsers.items()
    }
    assert options == CLI_OPTIONS


def test_config_keys_are_pinned():
    assert sorted(cli.CONFIG_KEYS) == CONFIG_KEYS


def test_survey_keys_are_pinned():
    assert sorted(cli.SURVEY_KEYS) == SURVEY_KEYS


def test_simulate_outputs_are_pinned(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"inline": example_model().to_dict()},
        "scenarios": ["null"], "n_units": 40, "n_reps": 3,
    }))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
    assert sorted(os.listdir(out)) == SIMULATE_OUTPUTS


def run_python(script: str, blas_threads: str | None) -> str:
    """The standard output of ``script`` in a fresh interpreter that imports
    ctssim from this checkout, with OPENBLAS_NUM_THREADS unset or preset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(ctssim.__file__)))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_to_one_blas_thread(preset, expected):
    script = "import os, ctssim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(script, preset) == expected


def test_cli_import_starts_no_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    script = "import os, ctssim.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_python(script, None) == "1"


def test_simulate_joins_its_helper_thread(tmp_path):
    # a grid of three blocks draws on one helper thread, joined on return
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"inline": example_model().to_dict()},
        "scenarios": ["null"], "n_units": 4096, "n_reps": 5,
    }))
    script = (f"import os, ctssim.cli; "
              f"assert ctssim.cli.main(['simulate', '--config', {str(config)!r}, "
              f"'--out-dir', {str(tmp_path / 'out')!r}]) == 0; "
              f"print(len(os.listdir('/proc/self/task')))")
    assert run_python(script, None).splitlines()[-1] == "1"
