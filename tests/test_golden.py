"""Golden-output pin: two small simulate configs and the ZIP and ZINB fits
of the bundled survey must reproduce stored hashes.

Rerun-equals-rerun cannot catch a change that moves every run the same
way.  These tests compare the sha256 of ``results.csv``,
``latent_diagnostics.csv``, ``power_long.csv`` and ``results.md``, and of
the ``model.json`` that ``ctssim fit`` writes, with the hashes in
``golden/sha256.json``, which also records the numpy and scipy versions
that produced them: the random streams and the special functions
both come from those libraries, so a mismatch under other versions may be
the libraries, not ctssim.

Regenerate the hashes only when a change to the results is deliberate, and
say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest
import scipy

from ctssim.cli import main
from ctssim.datasets import example_model, example_survey_paths

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sha256.json")
HASHED_FILES = ("results.csv", "latent_diagnostics.csv", "power_long.csv", "results.md")
# golden name -> the --family of a ``ctssim fit`` of the bundled survey
FIT_FAMILIES = {"fit-zinb": "zinb", "fit-zip": "zip"}


def golden_configs() -> dict[str, dict]:
    data, descriptor = example_survey_paths()
    return {
        "copula-welch": {
            "model": {"inline": example_model().to_dict()},
            "scenarios": ["cessation_reduction_increase", "reduction_only"],
            "targets": ["all", "sexual"],
            "n_units": 400,
            "n_reps": 200,
            "n_bootstrap": 50,
            "seed": 11,
            "df": "welch",
        },
        "resample-floor0": {
            "model": {"survey": {"data": data, "descriptor": descriptor, "use": "resample"}},
            "scenarios": ["null", "cessation_only"],
            "targets": ["physical", "moderate"],
            "n_units": 400,
            "n_reps": 200,
            "n_bootstrap": 50,
            "seed": 12,
            "floor": 0,
        },
    }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def file_hashes(out_dir: str, file_names) -> dict[str, str]:
    hashes = {}
    for file_name in file_names:
        with open(os.path.join(out_dir, file_name), "rb") as fh:
            hashes[file_name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run_hashes(name: str, work_dir: str) -> dict[str, str]:
    out_dir = os.path.join(work_dir, name)
    if name in FIT_FAMILIES:
        data, descriptor = example_survey_paths()
        os.makedirs(out_dir)
        assert main(["fit", "--data", data, "--descriptor", descriptor,
                     "--family", FIT_FAMILIES[name],
                     "--out", os.path.join(out_dir, "model.json")]) == 0
        return file_hashes(out_dir, ["model.json"])
    config_path = os.path.join(work_dir, f"{name}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(golden_configs()[name], fh)
    assert main(["simulate", "--config", config_path, "--out-dir", out_dir]) == 0
    return file_hashes(out_dir, HASHED_FILES)


def golden_names() -> list[str]:
    return sorted([*golden_configs(), *FIT_FAMILIES])


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", golden_names())
def test_outputs_match_golden_hashes(name, tmp_path):
    golden = load_golden()
    got = run_hashes(name, str(tmp_path))
    if got != golden["sha256"][name]:
        recorded = ", ".join(f"{k} {v}" for k, v in golden["versions"].items())
        running = ", ".join(f"{k} {v}" for k, v in versions().items())
        pytest.fail(
            f"{name}: outputs differ from the golden hashes, which were generated "
            f"with {recorded}; this run uses {running}.\n"
            f"expected {golden['sha256'][name]}\ngot      {got}"
        )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "versions": versions(),
            "sha256": {name: run_hashes(name, tmp) for name in golden_names()},
        }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
