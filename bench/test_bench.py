"""Self-test of the benchmark at smoke sizes.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py

Runs every workload in both modes (about 40 s on a 2-core host), checks
that every metric named in BENCHMARK.json is emitted with its unit or is
declared absent for that workload, and that the output checks run and
reject a wrong output.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run_bench  # noqa: E402
from tracing import APPLIES, LAYER_UNITS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# May legitimately read 0 or less where they apply.
SIGNED = {"estimation.degenerate_frac", "trace.overhead_frac"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run_bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert set(APPLIES) == set(run_bench.WORKLOADS)
    for names in APPLIES.values():
        assert names <= set(LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run_bench.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    with open(os.path.join(ROOT, ".bench_work", workload, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["checked"] >= 1
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "commit", "seed", "loadavg_1m"):
        assert key in summary["env"]
    if trace:
        assert set(summary["absent"]) == set(LAYER_UNITS) - APPLIES[workload]
        assert summary["unmeasured"] == {} and summary["missing_targets"] == []
        for name in APPLIES[workload] - SIGNED:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for m in result["metrics"].values():
            assert m["value"] > 0


def test_refuses_directory_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "cell-copula", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows, list(rows[0])


def _write(path, rows, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_results_check_rejects_wrong_output(tmp_path):
    reference = os.path.join(run_bench.REFERENCE_DIR, "cell-copula.csv")
    rows, columns = _results(reference)
    config = {"n_units": 1680, "n_reps": 1000, "seed": run_bench.DEFAULT_SEED}
    cells = [("cessation_reduction", "all")]
    assert run_bench.check_results(reference, cells, config, True, reference) == (1, {cells[0]: []})

    moved = [dict(r) for r in rows]
    moved[0]["bias"] = repr(float(moved[0]["bias"]) + 1e-9)
    _write(tmp_path / "moved.csv", moved, columns)
    _, problems = run_bench.check_results(str(tmp_path / "moved.csv"), cells, config, True, reference)
    assert problems[cells[0]]

    broken = [dict(r) for r in rows]
    broken[1]["power"] = "nan"
    _write(tmp_path / "nan.csv", broken, columns)
    _, problems = run_bench.check_results(str(tmp_path / "nan.csv"), cells, config, True, None)
    assert problems[cells[0]]

    _write(tmp_path / "short.csv", rows[:1], columns)
    _, problems = run_bench.check_results(str(tmp_path / "short.csv"), cells, config, True, None)
    assert problems[cells[0]]


def test_fit_check_rejects_wrong_output(tmp_path):
    from ctssim.datasets import build_example_survey, example_model

    reference = os.path.join(run_bench.REFERENCE_DIR, "fit-zinb.json")
    with open(reference, encoding="utf-8") as fh:
        ref = json.load(fh)
    generating = example_model()
    table = build_example_survey(8000, run_bench.DEFAULT_SEED)
    observed = [np.bincount(table.values[:, j], minlength=4) / table.n_rows
                for j in range(table.n_acts)]
    n, problems, notes = run_bench.check_fit(reference, [True] * 10, generating, ref, observed)
    assert n == 10 and not any(problems.values()) and not notes

    # Without the observed frequencies, ctssim's converged flag decides;
    # with them, a False flag on a maximum-likelihood fit is only noted.
    _, problems, _ = run_bench.check_fit(reference, [True] * 9 + [False], generating, ref)
    assert [j for j, p in problems.items() if p] == [9]
    _, problems, notes = run_bench.check_fit(reference, [True] * 9 + [False], generating, ref,
                                             observed)
    assert not any(problems.values()) and len(notes) == 1 and notes[0].startswith("act 9:")

    moved = json.loads(json.dumps(ref))
    moved["margins"][3]["rate"] *= 1 + 1e-5
    (tmp_path / "moved.json").write_text(json.dumps(moved))
    _, problems, _ = run_bench.check_fit(str(tmp_path / "moved.json"), [True] * 10, generating, ref)
    assert [j for j, p in problems.items() if p] == [3]

    off_optimum = json.loads(json.dumps(ref))
    off_optimum["margins"][5]["dispersion"] *= 1.01
    (tmp_path / "off.json").write_text(json.dumps(off_optimum))
    _, problems, _ = run_bench.check_fit(str(tmp_path / "off.json"), [True] * 10, generating, None,
                                         observed)
    assert [j for j, p in problems.items() if p] == [5]

    far = json.loads(json.dumps(ref))
    far["margins"][0]["zero_prob"] = 0.5
    (tmp_path / "far.json").write_text(json.dumps(far))
    _, problems, _ = run_bench.check_fit(str(tmp_path / "far.json"), [True] * 10, generating, None)
    assert [j for j, p in problems.items() if p] == [0]
