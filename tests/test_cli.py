"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ctssim
from ctssim import cli
from ctssim.cli import RESULTS_SCHEMA_VERSION, main
from ctssim.datasets import example_model, example_survey_paths
from ctssim.ingest import fit_model, load_model, read_survey, save_model, write_survey
from ctssim.joint import ActSpec, MultiActModel
from ctssim.marginals import MarginalParams
from ctssim.outcomes import MAX_MAGNITUDE

from helpers import far_from_zero_counts_table, report_loglik, write_example_counts_survey
from test_ingest import duplicated_column_table


def small_model():
    acts = tuple(ActSpec(i + 1, f"act {i + 1}", "physical", "severe") for i in range(3))
    margins = tuple(MarginalParams("zip", 2.0, 0.6) for _ in range(3))
    sigma = np.full((3, 3), 0.4)
    np.fill_diagonal(sigma, 1.0)
    return MultiActModel(acts, margins, sigma)


# malformed survey descriptors, each with the error it must report
BAD_DESCRIPTORS = [
    pytest.param(["x"], "descriptor must be a JSON object", id="not-an-object"),
    pytest.param({"mode": "counts", "acts": [5, 6]}, "descriptor act 1 must be an object, got 5",
                 id="act-is-a-number"),
    pytest.param({"mode": "counts", "acts": ["column"]},
                 'descriptor act 1 must be an object, got "column"', id="act-is-a-string"),
    pytest.param({"mode": "counts", "acts": [{"column": "a", "label": 7, "category": "physical",
                                              "severity": "severe"}]},
                 "descriptor act 1 'label' must be a string, got 7", id="label-not-a-string"),
    pytest.param({"mode": "categories", "acts": [
        {"column": c, "label": c, "category": "physical", "severity": "severe"}
        for c in ("act_01", "act_02", "act_01")
    ]}, "descriptor acts 1 and 3 both read column 'act_01'", id="column-read-twice"),
]


# descriptor files that are not JSON objects at all, each with the start of
# the error that must follow "<path>: "
DESCRIPTOR_FILE_ERRORS = [
    pytest.param(b'{"mode":', "descriptor is not valid JSON: Expecting value: line 1 column 9",
                 id="not-json"),
    pytest.param(b'{"mode": "\xff"}', "descriptor is not UTF-8: 'utf-8' codec can't decode",
                 id="not-utf8"),
]


def long_table_model() -> dict:
    """small_model's dict with a margin whose CDF table would hold about
    10**9 entries."""
    doc = small_model().to_dict()
    doc["margins"][1]["rate"] = 1e9
    return doc


def bool_model(part: str, key: str) -> dict:
    """small_model's dict with a JSON ``true`` for the first act's or margin's ``key``."""
    doc = small_model().to_dict()
    doc[part][0][key] = True
    return doc


def sigma_model(rho: float) -> dict:
    """small_model's dict with ``rho`` as the latent correlation of acts 1 and 2."""
    doc = small_model().to_dict()
    doc["sigma"][0][1] = doc["sigma"][1][0] = rho
    return doc


def huge_rate_model() -> dict:
    """small_model's dict with a ZINB margin of rate 1e300, where scipy's
    negative binomial quantile stalls."""
    doc = small_model().to_dict()
    doc["margins"][1].update(family="zinb", rate=1e300, dispersion=1e-4)
    return doc


# the start of the error for long_table_model's second act
LONG_TABLE_ERROR = ("act 2 ('act 2'): MarginalParams(family='zip', rate=1000000000.0, "
                    "zero_prob=0.6, dispersion=None) needs a CDF table of 1.00022e+09 entries "
                    "to tail mass 1e-12, more than the limit of 4194304")


# malformed model files, by name, that config cases below point model.file at
BAD_MODEL_FILES = {
    "not_json.json": "{x}",
    "string_sigma.json": json.dumps({"schema_version": 1, **small_model().to_dict(), "sigma": "x"}),
    "long_table.json": json.dumps({"schema_version": 1, **long_table_model()}),
    # json writes and reads these as the bare tokens Infinity and NaN
    "infinite_sigma.json": json.dumps({"schema_version": 1, **sigma_model(np.inf)}),
    "nan_sigma.json": json.dumps({"schema_version": 1, **sigma_model(np.nan)}),
    # true == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
    "bool_version.json": json.dumps({"schema_version": True, **small_model().to_dict()}),
    "float_version.json": json.dumps({"schema_version": 1.0, **small_model().to_dict()}),
}


# edits of one line of the bundled survey, read as counts, that fit and
# simulate must refuse with exit 2: (line index, edit, error after "<path>:")
BAD_SURVEY_LINES = [
    pytest.param(2, lambda line: b"7" * 200_000 + line[1:],
                 "3: field larger than field limit (131072)", id="huge-field"),
    pytest.param(0, lambda line: line + b"," + b"x" * 200_000,
                 "1: field larger than field limit (131072)", id="huge-header-field"),
    pytest.param(4, lambda line: line[:-1] + b"9" * 25,
                 "5: column 'act_10' has count 9999999999999999999999999 outside "
                 "0..9223372036854775807", id="count-beyond-int64"),
    pytest.param(4, lambda line: line[:-1] + b"1_0",
                 "5: column 'act_10' has non-integer value '1_0'", id="underscored-count"),
    pytest.param(4, lambda line: line[:-1] + "\uff13".encode(),
                 "5: column 'act_10' has non-integer value '\uff13'", id="full-width-digit"),
    # a 70-byte header line, then 20-byte rows
    pytest.param(5000, lambda line: b"\xff" + line[1:],
                 f"5001: not UTF-8: byte 0xff at offset {70 + 4999 * 20} (invalid start byte)",
                 id="not-utf8"),
]


def write_bad_survey(directory, index, edit):
    """The bundled survey with line ``index`` edited, and a counts
    descriptor of its columns."""
    data, desc = example_survey_paths()
    with open(data, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[index] = edit(lines[index])
    bad = directory / "survey.csv"
    bad.write_bytes(b"\n".join(lines))
    with open(desc, encoding="utf-8") as fh:
        counts = {**json.load(fh), "mode": "counts"}
    (directory / "counts.json").write_text(json.dumps(counts))
    return bad, directory / "counts.json"


def write_wide_counts_survey(directory):
    """A 2-act counts survey with counts near 6000 and 5000, whose margins'
    CDF tables run to thousands of counts."""
    rng = np.random.default_rng(5)
    values = np.column_stack([rng.poisson(6000, 200), rng.poisson(5000, 200)])
    values *= rng.random((200, 2)) < 0.7
    data, desc = directory / "wide.csv", directory / "wide.json"
    data.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in values))
    desc.write_text(json.dumps({"mode": "counts", "acts": [
        {"column": c, "label": c, "category": "physical", "severity": "severe"}
        for c in ("a", "b")]}))
    return data, desc


def write_int64_count_survey(directory):
    """A 2-act counts survey of 300 rows of Poisson(2) counts, one of which
    is the largest int64, 2**63 - 1."""
    values = np.random.default_rng(0).poisson(2, (300, 2)).astype(object)
    values[17, 0] = 2**63 - 1
    data, desc = directory / "int64.csv", directory / "int64.json"
    data.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in values))
    desc.write_text(json.dumps({"mode": "counts", "acts": [
        {"column": c, "label": c, "category": "physical", "severity": "severe"}
        for c in ("a", "b")]}))
    return data, desc


def write_zero_weight_survey(directory, mode: str):
    """A 2-act survey in ``mode`` whose weights are all 0."""
    data, desc = directory / "zero.csv", directory / "zero.json"
    data.write_text("a,b,w\n1,2,0\n0,1,0.0\n2,0,0\n")
    desc.write_text(json.dumps({"mode": mode, "weight_column": "w", "acts": [
        {"column": c, "label": c, "category": "physical", "severity": "severe"}
        for c in ("a", "b")]}))
    return data, desc


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# the start of the error for a magnitude past the bound
MAGNITUDE_ERROR = f"magnitude must be an integer from 1 to {MAX_MAGNITUDE}, got "


@pytest.fixture
def workdir(tmp_path):
    save_model(small_model(), str(tmp_path / "model.json"))
    return tmp_path


def write_config(path, **overrides):
    doc = {
        "model": {"file": "model.json"},
        "scenarios": ["null", "cessation_only", "reduction_only"],
        "targets": ["all"],
        "n_units": 200,
        "n_reps": 40,
        "seed": 7,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def deny_writes_to(monkeypatch, directory):
    """Make ``os.access`` report ``directory`` as not writable."""
    real_access = os.access

    def access(path, mode, *args, **kwargs):
        if mode & os.W_OK and os.path.abspath(path) == str(directory):
            return False
        return real_access(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli.os, "access", access)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFit:
    def test_bundled_dataset_recovers_documented_parameters(self, tmp_path, capsys):
        data, desc = example_survey_paths()
        out = str(tmp_path / "fitted.json")
        code = main(["fit", "--data", data, "--descriptor", desc,
                     "--family", "zinb", "--out", out])
        assert code == 0
        fitted = load_model(out)
        generating = example_model()
        for got, want in zip(fitted.margins, generating.margins):
            assert abs(got.rate - want.rate) <= 0.35
            assert abs(got.zero_prob - want.zero_prob) <= 0.03
            assert want.dispersion / 2 <= got.dispersion <= want.dispersion * 2
        upper = np.triu_indices(10, 1)
        assert np.max(np.abs((fitted.sigma - generating.sigma)[upper])) <= 0.08
        table_out = capsys.readouterr().out
        assert "rate" in table_out and "zero_prob" in table_out
        lines = table_out.splitlines()
        assert lines[1].split()[-2:] == ["converged", "boundary"]
        assert all(set(line.split()[-2:]) <= {"True", "False"} for line in lines[2:12])
        assert lines[12].startswith("nearest_psd moved sigma by ")
        assert lines[13] == "latent correlation clamped at +/-0.9995 for acts: none"

    def test_clamped_pairs_named(self, tmp_path, capsys):
        # acts 1 and 4 answer alike: their latent correlation stops at the limit
        table = duplicated_column_table()
        data, desc, out = (str(tmp_path / name) for name in ("s.csv", "s.json", "m.json"))
        write_survey(table, data, desc)
        assert main(["fit", "--data", data, "--descriptor", desc, "--family", "zip",
                     "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("nearest_psd moved sigma by ")
        assert lines[-1] == "latent correlation clamped at +/-0.9995 for acts: (1, 4)"

    def test_missing_descriptor_usage_error(self, tmp_path):
        data, _ = example_survey_paths()
        code = main(["fit", "--data", data, "--descriptor", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("descriptor, expected", BAD_DESCRIPTORS)
    def test_malformed_descriptor_exits_2(self, tmp_path, capsys, descriptor, expected):
        data, _ = example_survey_paths()
        desc = tmp_path / "desc.json"
        desc.write_text(json.dumps(descriptor))
        code = main(["fit", "--data", data, "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"error: {desc}: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_count_needing_a_huge_table_exits_2(self, tmp_path, capsys):
        # one count of about 10**11: the fitted margin's CDF table would
        # hold about 3.3e10 entries, which used to be allocated
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        data.write_text("a,b\n1,0\n0,2\n99999999999,1\n3,0\n")
        desc.write_text(json.dumps({"mode": "counts", "acts": [
            {"column": c, "label": c, "category": "physical", "severity": "severe"}
            for c in ("a", "b")]}))
        code = main(["fit", "--data", str(data), "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: act 1 ('a'), largest count 99999999999: "
                              "MarginalParams(family='zip', rate=33333333334.")
        assert err.endswith("more than the limit of 4194304\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_largest_int64_count_exits_2_naming_it(self, tmp_path, capsys, family):
        # the tests turn any RuntimeWarning into an error, which would exit 1
        data, desc = write_int64_count_survey(tmp_path)
        code = main(["fit", "--data", str(data), "--descriptor", str(desc), "--family", family,
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: act 1 ('a'), largest count {2**63 - 1}: "
                              f"MarginalParams(family='{family}', ")
        assert err.count("\n") == 1 and "nan" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text, expected", DESCRIPTOR_FILE_ERRORS)
    def test_unreadable_descriptor_exits_2_naming_it(self, tmp_path, capsys, text, expected):
        data, _ = example_survey_paths()
        desc = tmp_path / "desc.json"
        desc.write_bytes(text)
        code = main(["fit", "--data", data, "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {desc}: {expected}")

    @pytest.mark.parametrize("edit, fields", [
        pytest.param(lambda line: line + ",7", 11, id="extra-field"),
        pytest.param(lambda line: line.rsplit(",", 1)[0], 9, id="short-row"),
    ])
    def test_survey_row_field_count_exits_2(self, tmp_path, capsys, edit, fields):
        data, desc = example_survey_paths()
        with open(data, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = edit(lines[2])
        bad = tmp_path / "survey.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--data", str(bad), "--descriptor", desc, "--family", "zip",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"{bad}:3: expected 10 fields, got {fields}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("index, edit, expected", BAD_SURVEY_LINES)
    def test_unreadable_survey_exits_2_naming_file_and_line(self, tmp_path, capsys, index, edit,
                                                            expected):
        bad, desc = write_bad_survey(tmp_path, index, edit)
        code = main(["fit", "--data", str(bad), "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}:{expected}\n"
        assert not (tmp_path / "m.json").exists()

    def test_missing_out_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        data, desc = example_survey_paths()
        monkeypatch.chdir(tmp_path)
        code = main(["fit", "--data", data, "--descriptor", desc, "--out", "missing_dir/m.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write missing_dir/m.json: directory missing_dir does not exist" in err

    def test_unwritable_out_dir_exits_2_before_reading(self, tmp_path, capsys, monkeypatch):
        # os.access, not file modes: root may write to any directory
        def no_read(*args, **kwargs):
            raise AssertionError("the survey was read")

        locked = tmp_path / "locked"
        locked.mkdir()
        deny_writes_to(monkeypatch, locked)
        monkeypatch.setattr(cli, "read_survey", no_read)
        data, desc = example_survey_paths()
        out = str(locked / "m.json")
        assert main(["fit", "--data", data, "--descriptor", desc, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}: directory {locked} is not writable" in err

    @pytest.mark.parametrize("which", ["data", "descriptor"])
    def test_out_that_is_an_input_exits_2(self, tmp_path, capsys, monkeypatch, which):
        sources = dict(zip(["data", "descriptor"], example_survey_paths()))
        inputs = {"data": tmp_path / "s.csv", "descriptor": tmp_path / "s.json"}
        for name, path in inputs.items():
            shutil.copyfile(sources[name], path)
        before = {name: path.read_bytes() for name, path in inputs.items()}
        monkeypatch.chdir(tmp_path)
        # the same file under another spelling of its path
        out = os.path.join(".", inputs[which].name)
        assert main(["fit", "--data", str(inputs["data"]), "--descriptor",
                     str(inputs["descriptor"]), "--out", out]) == 2
        assert f"error: cannot write {out}: it is the input {inputs[which]}\n" \
            in capsys.readouterr().err
        assert {name: path.read_bytes() for name, path in inputs.items()} == before

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        _, desc = example_survey_paths()
        missing = str(tmp_path / "missing.csv")
        code = main(["fit", "--data", missing, "--descriptor", desc,
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read the survey: [Errno 2]" in err and missing in err
        assert not (tmp_path / "m.json").exists()

    def test_removed_sigma_method_option_exits_2(self, tmp_path, capsys):
        data, desc = example_survey_paths()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", data, "--descriptor", desc, "--sigma-method", "adjusted",
                  "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sigma-method adjusted" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_wide_counts_survey_fits(self, tmp_path):
        data, desc = write_wide_counts_survey(tmp_path)
        code = main(["fit", "--data", str(data), "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")])
        assert code == 0
        # the two acts were drawn independently
        assert abs(load_model(str(tmp_path / "m.json")).sigma[0, 1]) < 0.3

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_counts_far_from_zero_fit(self, tmp_path, family):
        data, desc, out = (str(tmp_path / name) for name in ("s.csv", "s.json", "m.json"))
        write_survey(far_from_zero_counts_table(), data, desc)
        assert main(["fit", "--data", data, "--descriptor", desc, "--family", family,
                     "--out", out]) == 0
        assert np.all(np.isfinite(load_model(out).sigma))

    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_zero_total_weights_exit_2(self, tmp_path, capsys, mode):
        data, desc = write_zero_weight_survey(tmp_path, mode)
        assert main(["fit", "--data", str(data), "--descriptor", str(desc),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {data}: weight column 'w' sums to zero\n"

    def test_zinb_fit_of_a_counts_survey_converges(self, tmp_path, capsys):
        data, desc = write_example_counts_survey(str(tmp_path))
        assert main(["fit", "--data", data, "--descriptor", desc, "--family", "zinb",
                     "--out", str(tmp_path / "m.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[-2:] == ["converged", "boundary"]
        flags = [line.split()[-2:] for line in lines[2:12]]
        # act 10's counts are capped at 2: its positives are not over-dispersed
        assert flags == [["True", "False"]] * 9 + [["True", "True"]]
        assert load_model(str(tmp_path / "m.json")).margins[9].dispersion == np.exp(20.0)

    def test_fit_table_columns_align(self, tmp_path, capsys):
        # act 10's dispersion is e^20, the widest the fit writes
        data, desc = write_example_counts_survey(str(tmp_path))
        assert main(["fit", "--data", data, "--descriptor", desc, "--family", "zinb",
                     "--out", str(tmp_path / "m.json")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:12]
        # the last column's True/False cells are narrower than its header, unpadded
        assert header.endswith("boundary")
        assert [row for row in [header, *rows] if row != row.rstrip()] == []
        start = header.index("loglik")
        assert header[start - 2:start] == "  "
        for row in rows:
            assert row[start - 2:start] == "  " and row[start] != " ", row
            assert float(row[start:].split()[0]) < 0.0, row

    def test_zinb_fit_dominates_zip(self, tmp_path):
        data, desc = example_survey_paths()
        table = read_survey(data, desc)
        _, zip_report = fit_model(table, "zip")
        _, zinb_report = fit_model(table, "zinb")
        assert report_loglik(zinb_report) >= report_loglik(zip_report) - 1e-6


class TestSimulate:
    def test_outputs_and_shape(self, workdir):
        cfg = write_config(
            workdir / "run.json",
            scenarios=["cessation_only", "cessation_reduction", "reduction_only",
                       "cessation_reduction_increase"],
        )
        out_dir = workdir / "out"
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0
        rows = read_rows(out_dir / "results.csv")
        # four standard presets x one target x 2 codings
        assert len(rows) == 8
        assert {r["coding"] for r in rows} == {"binary", "sum"}
        assert all(int(r["schema_version"]) == RESULTS_SCHEMA_VERSION for r in rows)
        assert (out_dir / "results.md").exists()
        assert (out_dir / "power_long.csv").exists()
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["seed"] == 7 and len(meta["config_hash"]) == 64

    def test_rerun_byte_identical(self, workdir):
        cfg = write_config(workdir / "run.json")
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "a")])
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "b")])
        assert (workdir / "a/results.csv").read_bytes() == (workdir / "b/results.csv").read_bytes()
        assert (workdir / "a/power_long.csv").read_bytes() == (workdir / "b/power_long.csv").read_bytes()
        meta_a = json.loads((workdir / "a/run_meta.json").read_text())
        meta_b = json.loads((workdir / "b/run_meta.json").read_text())
        assert meta_a["config_hash"] == meta_b["config_hash"]

    def test_thread_count_is_invisible(self, workdir):
        cfg = write_config(workdir / "run.json")
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "t1"), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "t4"), "--threads", "4"])
        assert (workdir / "t1/results.csv").read_bytes() == (workdir / "t4/results.csv").read_bytes()

    def test_seed_override_changes_results(self, workdir):
        cfg = write_config(workdir / "run.json")
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "s7")])
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "s8"), "--seed", "8"])
        assert (workdir / "s7/results.csv").read_bytes() != (workdir / "s8/results.csv").read_bytes()
        assert json.loads((workdir / "s8/run_meta.json").read_text())["seed"] == 8

    def test_null_calibration_through_cli(self, workdir):
        cfg = write_config(
            workdir / "null.json", scenarios=["null"], n_units=300, n_reps=1000
        )
        out_dir = workdir / "null_out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        for row in read_rows(out_dir / "results.csv"):
            assert abs(float(row["power"]) - 0.05) <= 0.02
            assert int(row["true_ate_is_zero"]) == 1

    def test_config_errors_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({
            "model": {"file": "model.json", "inline": {}},
            "n_units": 100,
        }))
        assert main(["simulate", "--config", str(bad), "--out-dir", str(workdir / "x")]) == 2
        assert "exactly one" in capsys.readouterr().err

        bad.write_text(json.dumps({
            "model": {"file": "model.json"},
            "scenarios": ["mystery"],
            "n_units": 100,
        }))
        assert main(["simulate", "--config", str(bad), "--out-dir", str(workdir / "x")]) == 2

        bad.write_text(json.dumps({"model": {"file": "model.json"}}))
        assert main(["simulate", "--config", str(bad), "--out-dir", str(workdir / "x")]) == 2

    @pytest.mark.parametrize("out_dir", ["taken", "taken/sub"])
    def test_out_dir_under_a_file_exits_2(self, workdir, capsys, monkeypatch, out_dir):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "scenario_grid", no_grid)
        (workdir / "taken").write_text("")
        cfg = write_config(workdir / "run.json")
        out = str(workdir / out_dir)
        assert main(["simulate", "--config", str(cfg), "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write to {out}: {workdir / 'taken'} is not a directory" in err
        assert (workdir / "taken").read_text() == ""

    @pytest.mark.parametrize("out_dir", ["locked", "locked/new/sub"])
    def test_unwritable_out_dir_exits_2_before_any_work(self, workdir, capsys, monkeypatch,
                                                        out_dir):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        locked = workdir / "locked"
        locked.mkdir()
        deny_writes_to(monkeypatch, locked)
        monkeypatch.setattr(cli, "load_run_config", no_work)
        monkeypatch.setattr(cli, "scenario_grid", no_work)
        cfg = write_config(workdir / "run.json")
        out = str(workdir / out_dir)
        assert main(["simulate", "--config", str(cfg), "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write to {out}: {locked} is not writable" in err
        assert os.listdir(locked) == []

    def test_unknown_df_exits_2(self, workdir, capsys):
        cfg = write_config(workdir / "run.json", df="student")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert "df must be 'normal' or 'welch', got 'student'" in capsys.readouterr().err

    def test_latent_diagnostics_file(self, workdir):
        cfg = write_config(
            workdir / "run.json",
            scenarios=["reduction_only"],
            n_units=600,
            n_reps=100,
        )
        out_dir = workdir / "latent_out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        rows = read_rows(out_dir / "latent_diagnostics.csv")
        assert len(rows) == 1
        # reductions inside a count category are invisible to the coded sum
        assert float(rows[0]["mean_latent_count_ate"]) < 0.0
        assert float(rows[0]["denormalized_sum_bias"]) > 0.0

    def test_survey_model_source(self, workdir):
        data, desc = example_survey_paths()
        cfg = workdir / "survey_run.json"
        cfg.write_text(json.dumps({
            "model": {"survey": {"data": data, "descriptor": desc, "use": "resample"}},
            "scenarios": ["cessation_only"],
            "targets": ["all"],
            "n_units": 200,
            "n_reps": 20,
            "seed": 3,
        }))
        out_dir = workdir / "survey_out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        rows = read_rows(out_dir / "results.csv")
        assert len(rows) == 2

    def test_survey_fit_route_equals_fit_then_model_file(self, workdir):
        # model.survey with the default use "fit" runs the model ctssim fit writes
        data, desc = example_survey_paths()
        assert main(["fit", "--data", data, "--descriptor", desc, "--family", "zinb",
                     "--out", str(workdir / "fitted.json")]) == 0
        grid = {"scenarios": ["cessation_only", "reduction_only"], "targets": ["all", "physical"],
                "n_units": 300, "n_reps": 40}
        sources = {
            "survey": {"survey": {"data": data, "descriptor": desc, "family": "zinb"}},
            "file": {"file": "fitted.json"},
        }
        for name, model in sources.items():
            cfg = write_config(workdir / f"{name}.json", model=model, **grid)
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / name)]) == 0
        for file_name in ("results.csv", "results.md"):
            survey, fitted = (workdir / "survey" / file_name), (workdir / "file" / file_name)
            assert survey.read_bytes() == fitted.read_bytes(), file_name

    def test_wide_counts_survey_simulates(self, workdir):
        data, desc = write_wide_counts_survey(workdir)
        cfg = write_config(workdir / "run.json",
                           model={"survey": {"data": str(data), "descriptor": str(desc)}})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 0
        assert (workdir / "x" / "results.csv").exists()

    @pytest.mark.parametrize("index, edit, expected", BAD_SURVEY_LINES)
    def test_unreadable_survey_exits_2_naming_file_and_line(self, workdir, capsys, index, edit,
                                                            expected):
        bad, desc = write_bad_survey(workdir, index, edit)
        cfg = write_config(workdir / "run.json",
                           model={"survey": {"data": bad.name, "descriptor": desc.name}})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert capsys.readouterr().err == f"config error: {bad}:{expected}\n"
        assert not (workdir / "x").exists()

    def test_zero_total_weights_exit_2(self, workdir, capsys):
        data, desc = write_zero_weight_survey(workdir, "categories")
        cfg = write_config(workdir / "run.json", model={
            "survey": {"data": data.name, "descriptor": desc.name, "use": "resample"}})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {data}: weight column 'w' sums to zero\n")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("descriptor, expected", BAD_DESCRIPTORS)
    def test_malformed_survey_descriptor_exits_2(self, workdir, capsys, descriptor, expected):
        data, _ = example_survey_paths()
        (workdir / "desc.json").write_text(json.dumps(descriptor))
        cfg = write_config(workdir / "run.json",
                           model={"survey": {"data": data, "descriptor": "desc.json"}})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert f"config error: {workdir / 'desc.json'}: {expected}" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("text, expected", DESCRIPTOR_FILE_ERRORS)
    def test_unreadable_survey_descriptor_exits_2_naming_it(self, workdir, capsys, text,
                                                            expected):
        data, _ = example_survey_paths()
        (workdir / "desc.json").write_bytes(text)
        cfg = write_config(workdir / "run.json",
                           model={"survey": {"data": data, "descriptor": "desc.json"}})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {workdir / 'desc.json'}: {expected}")
        assert not (workdir / "x").exists()


# edits of a results.csv table (header first) that ctssim report must refuse
def keep_four_columns(table):
    for row in table:
        del row[4:]  # schema_version, scenario, target, coding


def shorten_line_3(table):
    del table[2][4:]


def schema_version_x(table):
    table[1][0] = "x"


def power_abc(table):
    table[1][table[0].index("power")] = "abc"


class TestReport:
    @pytest.fixture
    def results_dir(self, workdir):
        cfg = write_config(workdir / "run.json")
        out_dir = workdir / "out"
        main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
        return out_dir

    def test_difference_table(self, results_dir, tmp_path, capsys):
        code = main(["report", "--results", str(results_dir / "results.csv"), "--format", "txt"])
        assert code == 0
        text = capsys.readouterr().out
        assert "power_diff" in text
        assert "reduction_only" in text
        assert [line for line in text.splitlines() if line != line.rstrip()] == []

    def test_reduction_only_flagged(self, results_dir, tmp_path):
        out = tmp_path / "report.csv"
        main(["report", "--results", str(results_dir / "results.csv"),
              "--format", "csv", "--out", str(out)])
        rows = read_rows(out)
        by_scenario = {r["scenario"]: r for r in rows}
        assert "binary true effect = 0" in by_scenario["reduction_only"]["flags"]
        assert "binary true effect = 0" in by_scenario["null"]["flags"]
        assert by_scenario["cessation_only"]["flags"] == ""

    def test_render_fidelity(self, results_dir, tmp_path):
        # the rendered differences equal those recomputed from the raw rows
        out = tmp_path / "report.csv"
        main(["report", "--results", str(results_dir / "results.csv"),
              "--format", "csv", "--out", str(out)])
        raw = read_rows(results_dir / "results.csv")
        cells = {}
        for row in raw:
            cells.setdefault((row["scenario"], row["target"]), {})[row["coding"]] = row
        for rendered in read_rows(out):
            pair = cells[(rendered["scenario"], rendered["target"])]
            expected = float(pair["binary"]["power"]) - float(pair["sum"]["power"])
            assert float(rendered["power_diff"]) == pytest.approx(expected, abs=1e-15)

    def test_byte_order_mark_ignored(self, results_dir, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (results_dir / "results.csv").read_bytes())
        assert main(["report", "--results", str(path), "--format", "txt"]) == 0
        assert "power_diff" in capsys.readouterr().out
        plain = cli._read_results(str(results_dir / "results.csv"))
        assert [{**row, "_source": None} for row in cli._read_results(str(path))] == \
               [{**row, "_source": None} for row in plain]

    def test_version_mismatch_rejected(self, results_dir, tmp_path, capsys):
        rows = read_rows(results_dir / "results.csv")
        for row in rows:
            row["schema_version"] = "99"
        path = tmp_path / "old.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        assert main(["report", "--results", str(path)]) == 2
        assert "schema version" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(keep_four_columns, ":1: header lacks columns ['n_units', 'seed', 'power', "
                                        "'true_ate_is_zero', 'power_diff_mc_se']",
                     id="header-lacks-columns"),
        pytest.param(shorten_line_3, ":3: column 'n_units' has no value", id="short-line"),
        pytest.param(schema_version_x, ":2: schema_version must be an integer, got 'x'",
                     id="schema-version-not-an-integer"),
        pytest.param(power_abc, ":2: column 'power' has malformed value 'abc'",
                     id="power-not-a-number"),
    ])
    def test_malformed_results_exit_2(self, results_dir, tmp_path, capsys, edit, expected):
        with open(results_dir / "results.csv", newline="") as fh:
            table = list(csv.reader(fh))
        edit(table)
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
        assert main(["report", "--results", str(path)]) == 2
        assert f"{path}{expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing_dir/x.txt", "."])
    def test_unwritable_out_exits_2(self, results_dir, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--results", str(results_dir / "results.csv"), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}: " in err and ".tmp" not in err

    def test_out_that_is_an_input_exits_2(self, results_dir, tmp_path, capsys):
        # the second of two inputs, so that the check covers every input
        results = results_dir / "results.csv"
        other = tmp_path / "other.csv"
        other.write_bytes(results.read_bytes())
        before = results.read_bytes()
        assert main(["report", "--results", str(other), str(results), "--out", str(results)]) == 2
        assert f"error: cannot write {results}: it is the input {results}\n" \
            in capsys.readouterr().err
        assert results.read_bytes() == before
        assert main(["report", "--results", str(results)]) == 0

    def test_repeated_cell_rows_exit_2(self, results_dir, tmp_path, capsys):
        # two unnamed custom scenarios on one target once wrote this file:
        # two cells named "custom", "all", of which the report kept one
        rows = read_rows(results_dir / "results.csv")[:4]
        for row in rows:
            row["scenario"] = "custom"
        path = tmp_path / "twice.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["report", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: more than one row for (scenario, target, n_units, seed, coding) " \
               "('custom', 'all', '200', '7', 'binary')" in err

    def test_power_differences_names_file_and_key(self, results_dir):
        rows = cli._read_results(str(results_dir / "results.csv"))
        assert len(cli.power_differences(rows)) == 3
        with pytest.raises(ValueError, match=r"results\.csv: more than one row for .*"
                                             r"\('reduction_only', 'all', '200', '7', 'sum'\)"):
            cli.power_differences(rows + rows[-1:])

    def test_multiple_files_stay_distinct(self, results_dir, workdir, tmp_path):
        cfg = write_config(workdir / "run2.json", seed=12)
        main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "out2")])
        out = tmp_path / "combined.csv"
        code = main(["report", "--results", str(results_dir / "results.csv"),
                     str(workdir / "out2" / "results.csv"), "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        # both runs share scenario names and the basename results.csv; the
        # report must keep one row per run per cell
        assert len(rows) == 6
        assert len({r["source"] for r in rows}) == 2


V2_COLUMNS = [
    "schema_version", "scenario", "target", "coding", "n_units", "n_reps", "alpha", "seed",
    "mean_true_ate", "true_ate_is_zero", "bias", "bias_mc_se", "rmse", "rmse_mc_se",
    "power", "power_mc_se", "coverage", "coverage_mc_se", "power_diff_mc_se",
]
V1_COLUMNS = [
    "schema_version", "scenario", "target", "coding", "n_units", "n_reps", "n_bootstrap",
    "alpha", "seed", "mean_true_ate", "true_ate_is_zero", "bias", "bias_mc_se", "rmse",
    "rmse_mc_se", "power", "power_mc_se", "coverage", "coverage_mc_se",
]


class TestResultsSchema:
    @pytest.fixture
    def results_path(self, workdir):
        # n_bootstrap as older configs (and the benchmark) still write it
        cfg = write_config(workdir / "run.json", n_bootstrap=100)
        out_dir = workdir / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        return out_dir / "results.csv"

    def test_v2_header(self, results_path):
        with open(results_path, newline="") as fh:
            assert next(csv.reader(fh)) == V2_COLUMNS
        assert RESULTS_SCHEMA_VERSION == 2
        assert {r["schema_version"] for r in read_rows(results_path)} == {"2"}

    def test_mc_ses_finite_and_non_negative(self, results_path):
        rows = read_rows(results_path)
        assert len(rows) == 6
        for row in rows:
            for key in (k for k in V2_COLUMNS if k.endswith("_mc_se")):
                assert np.isfinite(float(row[key])) and float(row[key]) >= 0.0, (row["scenario"], key)
        cells = {}
        for row in rows:
            cells.setdefault(row["scenario"], set()).add(row["power_diff_mc_se"])
        assert all(len(values) == 1 for values in cells.values())

    def test_report_uses_paired_se(self, results_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["report", "--results", str(results_path), "--format", "csv",
                     "--out", str(out)]) == 0
        paired = {r["scenario"]: r["power_diff_mc_se"] for r in read_rows(results_path)}
        report = read_rows(out)
        assert len(report) == 3
        for row in report:
            assert float(row["power_diff_se"]) == float(paired[row["scenario"]])

    def test_v1_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "v1.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=V1_COLUMNS)
            writer.writeheader()
            for coding in ("binary", "sum"):
                writer.writerow({**dict.fromkeys(V1_COLUMNS, "0"), "schema_version": "1",
                                 "scenario": "null", "target": "all", "coding": coding})
        assert main(["report", "--results", str(path)]) == 2
        assert "schema version '1' does not match supported version 2" in capsys.readouterr().err


class TestRunMeta:
    def test_timings_versions_and_degenerate_counts(self, workdir):
        cfg = write_config(workdir / "run.json", scenarios=["null", "cessation_only"],
                           targets=["all"], n_reps=30)
        out_dir = workdir / "meta"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        meta = json.loads((out_dir / "run_meta.json").read_text())
        from ctssim.harness import CODINGS, STAGES

        assert len(meta["cell_wall_s"]) == meta["cells"] == 2
        assert set(meta["stage_ms_per_rep"]) == set(STAGES)
        assert all(v >= 0.0 for v in meta["stage_ms_per_rep"].values())
        assert meta["summary_ms_per_cell"] >= 0.0
        assert meta["draw_ms_per_rep"] > 0.0
        assert meta["prefetch_ms_per_rep"] > 0.0
        assert meta["target_ms_per_rep"] > 0.0
        # each cell's stages and summary lie inside its wall time; the draw
        # and the target work, shared by the cells, lie outside every cell's;
        # the helper thread's prefetch overlaps them, so it is in no sum
        total_reps = 30 * meta["cells"]
        stage_ms = sum(meta["stage_ms_per_rep"].values()) * total_reps
        summary_ms = meta["summary_ms_per_cell"] * meta["cells"]
        cells_ms = 1e3 * sum(meta["cell_wall_s"])
        assert stage_ms + summary_ms <= cells_ms
        shared_ms = (meta["draw_ms_per_rep"] + meta["target_ms_per_rep"]) * 30
        assert shared_ms + cells_ms <= 1e3 * meta["wall_clock_seconds"]
        assert set(meta["degenerate_estimates"]) == set(CODINGS)
        assert all(isinstance(v, int) and v >= 0 for v in meta["degenerate_estimates"].values())
        assert meta["versions"] == {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        }

    def test_model_sha256_tells_models_at_one_path_apart(self, workdir):
        # one config, run with the ZIP and then the ZINB fit at the same path
        data, desc = example_survey_paths()
        cfg = write_config(workdir / "run.json", model={"file": "fitted.json"}, n_reps=5)
        metas = {}
        for family in ("zip", "zinb"):
            assert main(["fit", "--data", data, "--descriptor", desc, "--family", family,
                         "--out", str(workdir / "fitted.json")]) == 0
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / family)]) == 0
            metas[family] = json.loads((workdir / family / "run_meta.json").read_text())
            model = load_model(str(workdir / "fitted.json"))
            assert metas[family]["model_sha256"] == cli._canonical_hash(model.to_dict())
            assert metas[family]["survey_sha256"] is None
        assert metas["zip"]["config_hash"] == metas["zinb"]["config_hash"]
        assert metas["zip"]["model_sha256"] != metas["zinb"]["model_sha256"]
        # the same model given inline has the same hash
        inline = write_config(workdir / "inline.json", model={"inline": model.to_dict()}, n_reps=5)
        assert main(["simulate", "--config", str(inline), "--out-dir", str(workdir / "in")]) == 0
        meta = json.loads((workdir / "in" / "run_meta.json").read_text())
        assert meta["model_sha256"] == metas["zinb"]["model_sha256"]

    @pytest.mark.parametrize("use", ["fit", "resample"])
    def test_survey_hashes(self, workdir, use):
        data, desc = example_survey_paths()
        survey = {"data": str(data), "descriptor": str(desc), "use": use}
        cfg = write_config(workdir / "run.json", model={"survey": survey}, n_reps=5)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "out")]) == 0
        meta = json.loads((workdir / "out" / "run_meta.json").read_text())
        assert meta["survey_sha256"] == {"data": file_sha256(data), "descriptor": file_sha256(desc)}
        if use == "resample":
            assert meta["model_sha256"] is None
        else:
            model, _ = fit_model(read_survey(data, desc))
            assert meta["model_sha256"] == cli._canonical_hash(model.to_dict())

    def test_degenerate_estimates_counted(self, workdir):
        # nobody reports violence, so every arm has zero variance
        acts = small_model().acts
        silent = MultiActModel(acts, tuple(MarginalParams("zip", 2.0, 1.0) for _ in acts),
                               np.eye(len(acts)))
        save_model(silent, str(workdir / "silent.json"))
        cfg = write_config(workdir / "run.json", model={"file": "silent.json"},
                           scenarios=["null", "cessation_only"], n_reps=7)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "d")]) == 0
        meta = json.loads((workdir / "d" / "run_meta.json").read_text())
        assert meta["degenerate_estimates"] == {"binary": 14, "sum": 14}


class TestConfigIntegers:
    @pytest.mark.parametrize("key", ["n_units", "n_reps", "n_bootstrap", "seed"])
    @pytest.mark.parametrize("value", [True, False, 1.7, "200", None])
    def test_non_integers_exit_2(self, workdir, capsys, key, value):
        cfg = write_config(workdir / "run.json", **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be an integer, got {json.dumps(value)}" in err

    def test_integral_float_accepted(self, workdir):
        cfg = write_config(workdir / "run.json", n_units=200.0, n_reps=4)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 0
        rows = read_rows(workdir / "x" / "results.csv")
        assert {row["n_units"] for row in rows} == {"200"}



class TestConfigTypes:
    """Config values are checked as given, never coerced by bool()/float()/int()."""

    @pytest.mark.parametrize("key,value,expected", [
        pytest.param("alpha", "0.05", "must be a number", id="alpha-string"),
        pytest.param("alpha", True, "must be a number", id="alpha-bool"),
        pytest.param("alpha", None, "must be a number", id="alpha-null"),
        pytest.param("alpha", [0.05], "must be a number", id="alpha-list"),
        pytest.param("magnitude", True, "must be an integer", id="magnitude-bool"),
        pytest.param("magnitude", 1.5, "must be an integer", id="magnitude-float"),
        pytest.param("floor", "1", "must be an integer", id="floor-string"),
        pytest.param("floor", False, "must be an integer", id="floor-bool"),
    ])
    def test_wrong_type_exits_2(self, workdir, capsys, key, value, expected):
        cfg = write_config(workdir / "run.json", **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config '{key}' {expected}, got {json.dumps(value)}" in err
        assert not (workdir / "x").exists()

    def test_removed_latent_diagnostics_key_exits_2(self, workdir, capsys):
        # latent diagnostics are always written; the old switch is unknown
        cfg = write_config(workdir / "run.json", latent_diagnostics=True)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert "unknown config keys: ['latent_diagnostics']" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("index", [1.9, "1", True, None])
    def test_target_index_must_be_integer(self, workdir, capsys, index):
        cfg = write_config(workdir / "run.json", targets=[[index, 2]])
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert f"config 'targets' must be an integer, got {json.dumps(index)}" in capsys.readouterr().err

    def test_custom_scenario_magnitude_must_be_integer(self, workdir, capsys):
        custom = {"probs": [0.5, 0.0, 0.5, 0.0], "magnitude": True}
        cfg = write_config(workdir / "run.json", scenarios=[custom])
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert "config 'magnitude' must be an integer, got true" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,expected", [
        pytest.param({"scenarios": [{"probs": 5}]},
                     "config 'probs' must be a list of 4 numbers, got 5", id="probs-not-a-list"),
        pytest.param({"scenarios": [{"probs": [None, 0, 0, 1]}]},
                     "config 'probs' must be a number, got null", id="probs-entry-null"),
        pytest.param({"scenarios": [{"probs": [1, 0, 0, 0], "name": 7}]},
                     "config 'name' must be a string, got 7", id="name-not-a-string"),
        pytest.param({"scenarios": [{"probs": [1, 0, 0, 0], "magnitud": 3}]},
                     "unknown keys in config 'scenarios': ['magnitud']", id="scenario-unknown-key"),
        pytest.param({"scenarios": [{"name": "x"}]}, "is missing 'probs'",
                     id="scenario-missing-probs"),
        pytest.param({"model": 5}, "config 'model' must be an object, got 5",
                     id="model-not-an-object"),
        pytest.param({"model": {"file": "model.json", "seed": 1}},
                     "unknown keys in config 'model': ['seed']", id="model-unknown-key"),
        pytest.param({"model": {"inline": 5}}, "config 'model.inline' must be an object, got 5",
                     id="inline-not-an-object"),
        pytest.param({"model": {"inline": {"acts": 5}}}, "malformed inline model",
                     id="inline-malformed"),
        pytest.param({"model": {"file": 5}}, "config 'model.file' must be a string, got 5",
                     id="file-not-a-string"),
        pytest.param({"model": {"file": "absent.json"}}, "cannot read the model file",
                     id="file-absent"),
        pytest.param({"model": {"survey": 5}}, "config 'model.survey' must be an object, got 5",
                     id="survey-not-an-object"),
        pytest.param({"model": {"survey": {"data": 5, "descriptor": "d.json"}}},
                     "config 'model.survey.data' must be a string, got 5",
                     id="survey-data-not-a-string"),
        pytest.param({"model": {"survey": {"data": "absent.csv",
                                           "descriptor": example_survey_paths()[1]}}},
                     "cannot read the survey", id="survey-data-absent"),
        pytest.param({"model": {"survey": {"data": "a.csv", "descriptor": "a.json",
                                           "famly": "zinb"}}},
                     "unknown keys in config 'model.survey': ['famly']", id="survey-unknown-key"),
        pytest.param({"targets": [[]]}, "config 'targets' index lists must be non-empty",
                     id="target-empty-list"),
        pytest.param({"targets": [[99]]}, "target act index 99 not in act table",
                     id="target-index-not-in-table"),
        pytest.param({"targets": ["all", [99]]}, "target act index 99 not in act table",
                     id="target-index-not-in-table-after-preset"),
        pytest.param({"targets": [[1, 2, 1]]}, "target (1, 2, 1) repeats an act index",
                     id="target-repeats-index"),
        pytest.param({"targets": ["sexual"]}, "selects no acts", id="target-selects-no-acts"),
        # model files that name themselves in their errors (BAD_MODEL_FILES)
        pytest.param({"model": {"file": "not_json.json"}},
                     "not_json.json: JSONDecodeError: Expecting property name enclosed in "
                     "double quotes: line 1 column 2 (char 1)", id="model-file-not-json"),
        pytest.param({"model": {"file": "string_sigma.json"}},
                     "string_sigma.json: ValueError: could not convert string to float: 'x'",
                     id="model-file-string-sigma"),
        # a margin whose CDF table would pass marginals.CDF_TABLE_MAX
        pytest.param({"model": {"file": "long_table.json"}},
                     "long_table.json: ValueError: " + LONG_TABLE_ERROR,
                     id="model-file-long-table"),
        pytest.param({"model": {"inline": long_table_model()}}, "config error: " + LONG_TABLE_ERROR,
                     id="inline-model-long-table"),
        pytest.param({"model": {"file": "infinite_sigma.json"}},
                     "infinite_sigma.json: ValueError: sigma must be finite\n",
                     id="model-file-infinite-sigma"),
        pytest.param({"model": {"file": "nan_sigma.json"}},
                     "nan_sigma.json: ValueError: sigma must be finite\n", id="model-file-nan-sigma"),
        pytest.param({"model": {"inline": sigma_model(np.inf)}},
                     "config error: sigma must be finite\n", id="inline-model-infinite-sigma"),
        pytest.param({"model": {"inline": sigma_model(np.nan)}},
                     "config error: sigma must be finite\n", id="inline-model-nan-sigma"),
        pytest.param({"model": {"file": "bool_version.json"}},
                     "bool_version.json: ValueError: model file schema version True not supported "
                     "(expected 1)", id="model-file-bool-schema-version"),
        pytest.param({"model": {"file": "float_version.json"}},
                     "float_version.json: ValueError: model file schema version 1.0 not supported "
                     "(expected 1)", id="model-file-float-schema-version"),
        pytest.param({"model": {"inline": bool_model("margins", "rate")}},
                     "config error: rate must be a number, got a bool",
                     id="inline-model-bool-rate"),
        pytest.param({"model": {"inline": bool_model("acts", "index")}},
                     "config error: act index must be an integer >= 1, got True",
                     id="inline-model-bool-index"),
        # a margin whose table scipy's quantile could not size, as it stalls there
        pytest.param({"model": {"inline": huge_rate_model()}},
                     "config error: act 2 ('act 2'): MarginalParams(family='zinb', rate=1e+300, "
                     "zero_prob=0.6, dispersion=0.0001) needs a CDF table to tail mass 1e-12 "
                     "longer than the limit of 4194304: its tail quantile cannot be computed",
                     id="inline-model-huge-zinb-rate"),
        # settings are checked before the (here absent) survey is read
        pytest.param({"model": {"survey": {"data": "a.csv", "descriptor": "a.json",
                                           "use": "resample", "family": "bogus"}}},
                     "config model.survey.family must be one of ['zip', 'zinb'], got \"bogus\"",
                     id="resample-bad-family"),
        # the removed sigma_method key is unknown, whatever its value
        pytest.param({"model": {"survey": {"data": "a.csv", "descriptor": "a.json",
                                           "use": "resample", "sigma_method": "nope"}}},
                     "unknown keys in config 'model.survey': ['sigma_method']",
                     id="resample-removed-sigma-method"),
        pytest.param({"model": {"survey": {"data": "a.csv", "descriptor": "a.json",
                                           "sigma_method": "adjusted"}}},
                     "unknown keys in config 'model.survey': ['sigma_method']",
                     id="fit-removed-sigma-method"),
        # magnitudes past outcomes.MAX_MAGNITUDE, for presets and a custom scenario
        pytest.param({"magnitude": MAX_MAGNITUDE + 1}, f"{MAGNITUDE_ERROR}{MAX_MAGNITUDE + 1}",
                     id="magnitude-past-bound"),
        pytest.param({"magnitude": 2**70}, f"{MAGNITUDE_ERROR}{2**70}",
                     id="magnitude-past-int64"),
        pytest.param({"scenarios": [{"probs": [0, 0, 0, 1], "magnitude": MAX_MAGNITUDE + 1}]},
                     f"{MAGNITUDE_ERROR}{MAX_MAGNITUDE + 1}", id="custom-magnitude-past-bound"),
        pytest.param({"model": {"survey": {"data": "a.csv", "descriptor": "a.json",
                                           "use": "bogus"}}},
                     "config model.survey.use must be one of ['fit', 'resample'], got \"bogus\"",
                     id="survey-bad-use"),
    ])
    def test_malformed_config_exits_2_before_any_replication(
        self, workdir, capsys, monkeypatch, overrides, expected
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "scenario_grid", no_grid)
        for name, text in BAD_MODEL_FILES.items():
            (workdir / name).write_text(text)
        cfg = write_config(workdir / "run.json", **overrides)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert expected in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("overrides, cells", [
        pytest.param({"scenarios": [{"probs": [0.7, 0.3, 0, 0]}, {"probs": [1, 0, 0, 0]}]},
                     "[('custom', 'all')]", id="unnamed-customs"),
        pytest.param({"scenarios": ["null", {"probs": [1, 0, 0, 0], "name": "null"},
                                    "cessation_only"],
                      "targets": ["all", [1, 2], [1, 2]]},
                     "[('cessation_only', '1,2'), ('null', '1,2'), ('null', 'all')]",
                     id="named-custom-and-repeated-target"),
    ])
    def test_repeated_cell_names_exit_2(self, workdir, capsys, monkeypatch, overrides, cells):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "scenario_grid", no_grid)
        cfg = write_config(workdir / "run.json", **overrides)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert f"config names more than one cell (scenario, target) {cells}" \
            in capsys.readouterr().err

    def test_named_custom_scenarios_and_aliased_targets_run(self, workdir):
        # distinct names, and targets whose columns coincide but whose names do not
        scenarios = [{"probs": [0.7, 0.3, 0, 0], "name": "a"}, {"probs": [1, 0, 0, 0], "name": "b"}]
        cfg = write_config(workdir / "run.json", scenarios=scenarios, targets=["all", [1, 2, 3]],
                           n_reps=5)
        out = workdir / "x"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        assert {(r["scenario"], r["target"]) for r in rows} == {
            ("a", "all"), ("a", "1,2,3"), ("b", "all"), ("b", "1,2,3")}
        report = cli.power_differences(cli._read_results(str(out / "results.csv")))
        assert len(report) == 4

    @pytest.mark.parametrize("document", ["[1, 2]", "5", '"model"'])
    def test_config_must_be_an_object(self, workdir, capsys, document):
        cfg = workdir / "run.json"
        cfg.write_text(document)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_largest_magnitude_runs(self, workdir):
        cfg = write_config(workdir / "run.json", scenarios=["cessation_reduction_increase"],
                           magnitude=MAX_MAGNITUDE, n_reps=4)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(workdir / "x")]) == 0
        latent = read_rows(workdir / "x" / "latent_diagnostics.csv")
        assert len(latent) == 1 and np.isfinite(float(latent[0]["mean_latent_count_ate"]))

    def test_well_typed_values_accepted(self, workdir):
        cfg = write_config(workdir / "run.json", scenarios=["cessation_only"],
                           targets=[[1, 3.0]], alpha=0.1, magnitude=3, floor=0, n_reps=4)
        out = workdir / "x"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        assert {row["alpha"] for row in rows} == {"0.1"}
        assert len(read_rows(out / "latent_diagnostics.csv")) == 1
        cfg = write_config(workdir / "run.json", alpha=1, n_reps=4)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2

def test_cli_never_imports_scipy_stats(tmp_path):
    """The fit and simulate paths use scipy.special ufuncs only."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctssim.__file__)))
    script = (
        "import sys, ctssim.cli\n"
        "from ctssim.datasets import example_survey_paths\n"
        "data, desc = example_survey_paths()\n"
        "assert ctssim.cli.main(['fit', '--data', data, '--descriptor', desc,\n"
        "                        '--family', 'zinb', '--out', 'model.json']) == 0\n"
        "assert ctssim.cli.main(['simulate', '--config', 'run.json', '--out-dir', 'out']) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    write_config(tmp_path / "run.json", n_units=100, n_reps=5, df="welch")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
