"""The public surface of the ctssim package.

``ctssim.__all__`` is pinned name for name, so an export is added or
removed only on purpose.  The reference pipeline in ``tests/reference.py``
is test code: no module of the package may import it.
"""

import ast
import os

import ctssim

PUBLIC_NAMES = [
    "ActSpec",
    "CellResult",
    "EffectScenario",
    "EmpiricalResampler",
    "FitResult",
    "MarginalParams",
    "MultiActModel",
    "PerformanceStats",
    "PotentialOutcomeTable",
    "Replications",
    "ResponseType",
    "SCENARIO_PRESETS",
    "SimulationConfig",
    "SurveyTable",
    "categorize",
    "code_binary",
    "code_sum",
    "fit_mle_censored",
    "fit_mle_exact",
    "fit_model",
    "latent_correlation_matrix",
    "latent_summary",
    "load_model",
    "mc_standard_errors",
    "nearest_psd",
    "read_survey",
    "run_cell",
    "sample_joint",
    "save_model",
    "scenario_grid",
    "scenario_preset",
    "summarize",
    "write_survey",
    "zi_cdf",
    "zi_loglik",
    "zi_pmf",
    "zi_quantile",
    "zi_sample",
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
                assert "reference" not in name.split("."), (file_name, name)
