"""Tests for survey ingestion, model calibration, and resampling."""

import csv
import functools
import io
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

import reference
from ctssim.coding import categorize
from ctssim.datasets import example_survey_paths
from ctssim import ingest
from ctssim.ingest import (
    EmpiricalResampler,
    SurveyFormatError,
    SurveyTable,
    _cell_structure,
    _ScoreCorrelation,
    fit_model,
    latent_correlation_matrix,
    load_model,
    read_survey,
    save_model,
    write_survey,
)
from ctssim.joint import ActSpec, MultiActModel, sample_joint
from ctssim.marginals import (
    COUNT_CELLS_MAX,
    MarginalParams,
    _count,
    category_probs,
    cdf_table,
    count_cells,
)

from helpers import far_from_zero_counts_table, report_loglik


def make_acts(k):
    cats = ["physical", "physical", "sexual", "emotional"]
    return tuple(ActSpec(i + 1, f"act {i + 1}", cats[i % 4], "severe") for i in range(k))


def reference_model(k=4):
    margins = (
        MarginalParams("zip", 2.36, 0.84),
        MarginalParams("zip", 1.5, 0.6),
        MarginalParams("zip", 1.0, 0.5),
        MarginalParams("zip", 2.5, 0.7),
    )[:k]
    sigma = np.array(
        [
            [1.0, 0.5, 0.3, 0.4],
            [0.5, 1.0, 0.45, 0.35],
            [0.3, 0.45, 1.0, 0.25],
            [0.4, 0.35, 0.25, 1.0],
        ]
    )[:k, :k]
    return MultiActModel(make_acts(k), margins, sigma)


def simulated_table(n=20_000, seed=101, mode="categories"):
    model = reference_model()
    counts = sample_joint(model, n, np.random.default_rng(seed))
    values = categorize(counts) if mode == "categories" else counts
    return SurveyTable(make_acts(4), values, mode=mode), model


def descriptor_act(column):
    return {"column": column, "label": column, "category": "physical", "severity": "severe"}


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        table, _ = simulated_table(n=300)
        data, desc = str(tmp_path / "s.csv"), str(tmp_path / "s.json")
        write_survey(table, data, desc)
        back = read_survey(data, desc)
        assert np.array_equal(back.values, table.values)
        assert back.mode == table.mode
        assert back.acts == table.acts
        assert back.weights is None

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a BOM, which must not join the first column's name
        data, desc = example_survey_paths()
        bom = [tmp_path / "survey.csv", tmp_path / "survey.json"]
        for path, original in zip(bom, (data, desc)):
            with open(original, "rb") as fh:
                path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        back, want = read_survey(*map(str, bom)), read_survey(data, desc)
        assert np.array_equal(back.values, want.values)
        assert (back.acts, back.mode, back.weights, back.n_dropped) == \
               (want.acts, want.mode, want.weights, want.n_dropped)

    def test_small_file_parses(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("a,b\n0,2\n3,0\n2,2\n")
        desc = tmp_path / "tiny.json"
        desc.write_text(json.dumps({
            "mode": "categories",
            "acts": [
                {"column": "a", "label": "act a", "category": "physical", "severity": "moderate"},
                {"column": "b", "label": "act b", "category": "sexual", "severity": "severe"},
            ],
        }))
        table = read_survey(str(data), str(desc))
        assert table.n_rows == 3
        assert np.array_equal(table.values, [[0, 2], [3, 0], [2, 2]])

    def test_missing_values_dropped_and_counted(self, tmp_path):
        data = tmp_path / "m.csv"
        data.write_text("a,b\n1,2\n,3\n2,NA\n0,0\n")
        desc = tmp_path / "m.json"
        desc.write_text(json.dumps({
            "mode": "categories",
            "acts": [
                {"column": "a", "label": "a", "category": "physical", "severity": "severe"},
                {"column": "b", "label": "b", "category": "physical", "severity": "severe"},
            ],
        }))
        table = read_survey(str(data), str(desc))
        assert table.n_rows == 2
        assert table.n_dropped == 2

    def test_out_of_range_category_names_row_and_column(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n0,4\n")
        desc = tmp_path / "bad.json"
        desc.write_text(json.dumps({
            "mode": "categories",
            "acts": [
                {"column": "a", "label": "a", "category": "physical", "severity": "severe"},
                {"column": "b", "label": "b", "category": "physical", "severity": "severe"},
            ],
        }))
        with pytest.raises(SurveyFormatError, match=r"bad\.csv:3.*'b'.*4"):
            read_survey(str(data), str(desc))

    def test_non_integer_reports_line_number(self, tmp_path):
        data = tmp_path / "nonint.csv"
        data.write_text("a\n1\n2\nx\n")
        desc = tmp_path / "nonint.json"
        desc.write_text(json.dumps({
            "mode": "counts",
            "acts": [{"column": "a", "label": "a", "category": "physical", "severity": "severe"}],
        }))
        with pytest.raises(SurveyFormatError, match=r"nonint\.csv:4"):
            read_survey(str(data), str(desc))

    @pytest.mark.parametrize("cell", ["1_0", "\uff13", "\u0663", "+-1", "0x1"])
    def test_integer_cell_is_ascii_digits(self, tmp_path, cell):
        # int() alone reads "1_0" as 10 and the full-width "\uff13" as 3
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        data.write_text(f"a,b\n1,2\n1,{cell}\n1,{cell}\n", encoding="utf-8")
        desc.write_text(json.dumps({"mode": "counts",
                                    "acts": [descriptor_act("a"), descriptor_act("b")]}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}:3: column 'b' has non-integer value {cell!r}"

    def test_integer_cell_may_have_unicode_spaces_around_it(self, tmp_path):
        # str.strip removes the no-break space, as int() ignores it
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        data.write_text("a,b\n1,\u00a03\n\u20032 ,+4\n", encoding="utf-8")
        desc.write_text(json.dumps({"mode": "counts",
                                    "acts": [descriptor_act("a"), descriptor_act("b")]}))
        assert read_survey(str(data), str(desc)).values.tolist() == [[1, 3], [2, 4]]
        assert reference.read_survey(str(data), str(desc)).values.tolist() == [[1, 3], [2, 4]]

    def test_missing_header_column(self, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("a\n1\n")
        desc = tmp_path / "h.json"
        desc.write_text(json.dumps({
            "mode": "counts",
            "acts": [{"column": "zz", "label": "z", "category": "physical", "severity": "severe"}],
        }))
        with pytest.raises(SurveyFormatError, match="zz"):
            read_survey(str(data), str(desc))

    @pytest.mark.parametrize("descriptor, expected", [
        (["x"], 'descriptor must be a JSON object, got ["x"]'),
        ({"mode": "counts", "acts": [5, 6]}, "descriptor act 1 must be an object, got 5"),
        # a string act would pass a key check by substring match
        ({"mode": "counts", "acts": ["column"]}, 'descriptor act 1 must be an object, got "column"'),
        ({"mode": "counts", "acts": [{"column": 1, "label": "a", "category": "physical",
                                      "severity": "severe"}]},
         "descriptor act 1 'column' must be a string, got 1"),
        ({"mode": "counts", "acts": [{"column": "a", "label": None, "category": "physical",
                                      "severity": "severe"}]},
         "descriptor act 1 'label' must be a string, got null"),
        ({"mode": "counts", "acts": [{"column": "a", "label": "a", "category": ["physical"],
                                      "severity": "severe"}]},
         """descriptor act 1 'category' must be a string, got ["physical"]"""),
        ({"mode": "counts", "acts": [{"column": "a", "label": "a", "category": "physical",
                                      "severity": 3}]},
         "descriptor act 1 'severity' must be a string, got 3"),
        # one survey item read as two acts
        ({"mode": "counts", "acts": [descriptor_act("a"), descriptor_act("b"), descriptor_act("a")]},
         "descriptor acts 1 and 3 both read column 'a'"),
        ({"mode": "counts", "acts": [descriptor_act("a"), descriptor_act("b")],
          "weight_column": "b"},
         "descriptor weight_column 'b' is also the column of act 2"),
        ({"mode": "counts", "acts": [descriptor_act("a")], "weight_column": ["w"]},
         """descriptor 'weight_column' must be a string, got ["w"]"""),
    ])
    def test_malformed_descriptor_rejected(self, tmp_path, descriptor, expected):
        data = tmp_path / "d.csv"
        data.write_text("a\n1\n")
        desc = tmp_path / "d.json"
        desc.write_text(json.dumps(descriptor))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{desc}: {expected}"

    @pytest.mark.parametrize("header, repeated", [
        pytest.param("a,b,a,w", "a", id="act"),
        pytest.param("w,a,b,w", "w", id="weight"),
    ])
    def test_repeated_header_column_rejected(self, tmp_path, header, repeated):
        # a column the descriptor reads must not be ambiguous; an unread
        # repeated column would be harmless
        data = tmp_path / "r.csv"
        data.write_text(f"{header},x,x\n1,2,3,1.0,0,0\n")
        desc = tmp_path / "r.json"
        desc.write_text(json.dumps({"mode": "counts", "acts": [descriptor_act("a"),
                                                               descriptor_act("b")],
                                    "weight_column": "w"}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}: header repeats columns [{repeated!r}]"

    def test_trailing_empty_fields_accepted(self, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("a,b\n1,2,\n3,0, ,\n")
        desc = tmp_path / "t.json"
        desc.write_text(json.dumps({"mode": "counts",
                                    "acts": [descriptor_act("a"), descriptor_act("b")]}))
        assert np.array_equal(read_survey(str(data), str(desc)).values, [[1, 2], [3, 0]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        table, _ = simulated_table(n=20)
        weights = np.ones(20)
        weights[3] = bad
        with pytest.raises(ValueError, match="finite, non-negative"):
            SurveyTable(table.acts, table.values, table.mode, weights=weights)

    @pytest.mark.parametrize("bad", ["inf", "-Infinity", "-1", "-nan"])
    def test_bad_weight_cell_names_file_and_line(self, tmp_path, bad):
        data = tmp_path / "w.csv"
        data.write_text(f"a,w\n1,1.0\n2,{bad}\n")
        desc = tmp_path / "w.json"
        desc.write_text(json.dumps({"mode": "counts", "acts": [descriptor_act("a")],
                                    "weight_column": "w"}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}:3: weight {bad!r} is not a finite, non-negative number"

    @pytest.mark.parametrize("bad", ["1_0", "1_000.5", "\uff11", "\u0661.5"])
    def test_underscored_or_non_ascii_weight_rejected(self, tmp_path, bad):
        data = tmp_path / "w.csv"
        data.write_text(f"a,w\n1,1.0\n2,{bad}\n", encoding="utf-8")
        desc = tmp_path / "w.json"
        desc.write_text(json.dumps({"mode": "counts", "acts": [descriptor_act("a")],
                                    "weight_column": "w"}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}:3: weight column 'w' has non-numeric value {bad!r}"

    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_zero_total_weights_rejected(self, tmp_path, mode):
        data, desc = tmp_path / "w.csv", tmp_path / "w.json"
        data.write_text("a,b,w\n1,2,0\n0,1,0.0\n2,2,NA\n")
        desc.write_text(json.dumps({"mode": mode, "acts": [descriptor_act("a"),
                                                           descriptor_act("b")],
                                    "weight_column": "w"}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}: weight column 'w' sums to zero"
        table, _ = simulated_table(n=20)
        with pytest.raises(ValueError, match="weights must have a positive total"):
            SurveyTable(table.acts, table.values, table.mode, weights=np.zeros(20))

    def test_weights_round_trip(self, tmp_path):
        table, _ = simulated_table(n=50)
        weighted = SurveyTable(
            table.acts, table.values, table.mode, weights=np.linspace(0.5, 2.0, 50)
        )
        data, desc = str(tmp_path / "w.csv"), str(tmp_path / "w.json")
        write_survey(weighted, data, desc)
        back = read_survey(data, desc)
        assert np.allclose(back.weights, weighted.weights)


# Row kinds of a generated survey, each with its chance: a valid row, a row
# dropped for a missing value, a row that is skipped or accepted as it is,
# and a row that is malformed.
ROW_KINDS = {
    "valid": 0.72, "missing": 0.06, "blank": 0.03, "trailing-empty": 0.03,
    "trailing-value": 0.02, "short": 0.02, "odd-cell": 0.06, "negative-then-text": 0.02,
    "bad-weight": 0.02, "missing-weight": 0.02,
}
# act cells that are valid, or not, depending on the mode
ODD_CELLS = [" 3 ", "+3", "3.0", "-1", "4", "x", "1_0", "\uff13"]
MISSING_CELLS = ["", "NA", "nan", "None", "null", ".", " na ", " "]
# kinds whose act cells may repeat an earlier row's, by the kind of acts
# they take: valid act cells, or act cells with a missing value
REUSED_ACTS = {"valid": "valid", "trailing-empty": "valid", "trailing-value": "valid",
               "short": "valid", "bad-weight": "valid", "missing-weight": "valid",
               "odd-cell": "valid", "missing": "missing"}


def fuzz_survey(rng, mode: str, weighted: bool) -> tuple[str, dict]:
    """The text and descriptor of a random survey mixing every row kind of
    ROW_KINDS, or (one in ten) of missing rows only; the header has an
    unread column and the acts out of descriptor order.

    Like a real survey's respondents, rows repeat earlier rows' act cells
    under their own id and weight: half the rows of a kind in REUSED_ACTS
    take the act cells of an earlier row of the same kind of acts, one in
    four of those with the spaces around one cell changed, and an
    odd-cell row then spoils one of them.  Blank rows come in runs.
    """
    header = ["id", "a2", "a1", "a3"] + (["w"] if weighted else [])
    top = 3 if mode == "categories" else 9
    lines = [",".join(header)]
    kinds, chances = list(ROW_KINDS), list(ROW_KINDS.values())
    all_missing = rng.random() < 0.1
    earlier = {"valid": [], "missing": []}
    for i in range(int(rng.integers(1, 24))):
        kind = "missing" if all_missing else kinds[rng.choice(len(kinds), p=chances)]
        acts = [str(v) for v in rng.integers(0, top + 1, 3)]
        weight = [f"{rng.uniform(0.1, 3.0):.3f}"] if weighted else []
        if kind == "missing":
            acts[rng.integers(3)] = MISSING_CELLS[rng.integers(len(MISSING_CELLS))]
        pool = earlier.get(REUSED_ACTS.get(kind), [])
        if pool and rng.random() < 0.5:
            acts = list(pool[rng.integers(len(pool))])
            if rng.random() < 0.25:
                j = rng.integers(3)
                acts[j] = " " * int(rng.integers(2)) + acts[j].strip() + " " * int(rng.integers(2))
        if kind in REUSED_ACTS:
            earlier[REUSED_ACTS[kind]].append(acts)
        if kind == "odd-cell":
            acts = list(acts)  # the pool keeps the valid cells
            acts[rng.integers(3)] = ODD_CELLS[rng.integers(len(ODD_CELLS))]
        elif kind == "negative-then-text":
            acts = ["-2", "1", "2.5"]
        elif kind == "bad-weight" and weighted:
            weight = [["abc", "-1", "inf", "1e999"][rng.integers(4)]]
        elif kind == "missing-weight" and weighted:
            weight = [["", "NA", "."][rng.integers(3)]]
        fields = [str(i), *acts, *weight]
        repeat = 1
        if kind == "blank":
            fields = [" " * int(rng.integers(2))] * int(rng.integers(1, len(header) + 2))
            repeat = int(rng.integers(1, 4))
        elif kind == "trailing-empty":
            fields += ["", " "][: int(rng.integers(1, 3))]
        elif kind == "trailing-value":
            fields += ["", "7"]
        elif kind == "short":
            fields = fields[: int(rng.integers(1, len(header)))]
        lines += [",".join(fields)] * repeat
    desc = {"mode": mode, "acts": [descriptor_act(c) for c in ("a1", "a2", "a3")]}
    if weighted:
        desc["weight_column"] = "w"
    return "\n".join(lines) + "\n", desc


def act_repeats(text: str) -> tuple[int, int]:
    """In a generated survey's rows that have act cells: how many repeat an
    earlier row's act cells as read, and how many distinct tuples of act
    cells as read equal another after ``strip``."""
    rows = [tuple(r[1:4]) for r in csv.reader(io.StringIO(text)) if len(r) >= 4][1:]
    stripped = {tuple(c.strip() for c in r) for r in rows}
    return len(rows) - len(set(rows)), len(set(rows)) - len(stripped)


def read_or_error(read, data, desc):
    try:
        return read(data, desc)
    except SurveyFormatError as exc:
        return str(exc)


class TestReadSurveyMatchesReference:
    """``read_survey`` checks each distinct act-cell string once, when a
    new tuple of act cells first holds it; ``reference.read_survey`` checks
    every cell of every row.  Both give the same table, or the same error
    text, for every file."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_generated_files(self, tmp_path, mode, weighted):
        rng = np.random.default_rng([17, mode == "counts", weighted])
        data, desc = str(tmp_path / "s.csv"), str(tmp_path / "s.json")
        outcomes, repeats = [], np.zeros(2, dtype=int)
        for _ in range(150):
            text, descriptor = fuzz_survey(rng, mode, weighted)
            repeats += act_repeats(text)
            with open(data, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(desc, "w", encoding="utf-8") as fh:
                json.dump(descriptor, fh)
            got = read_or_error(read_survey, data, desc)
            want = read_or_error(reference.read_survey, data, desc)
            if isinstance(want, str):
                assert got == want, text
            else:
                assert isinstance(got, SurveyTable), (got, text)
                assert got.values.dtype == want.values.dtype
                assert np.array_equal(got.values, want.values), text
                assert got.n_dropped == want.n_dropped and got.acts == want.acts
                assert got.mode == want.mode
                assert (got.weights is None) == (want.weights is None)
                if want.weights is not None:
                    assert np.array_equal(got.weights, want.weights)
            outcomes.append(want)
        tables = [o for o in outcomes if not isinstance(o, str)]
        errors = " ".join(o for o in outcomes if isinstance(o, str))
        assert tables and any(t.n_dropped for t in tables)
        expected = ["non-integer value", "is negative", "expected", "no complete rows"]
        expected += ["outside 0..3"] if mode == "categories" else []
        expected += ["non-numeric value", "not a finite"] if weighted else []
        assert all(e in errors for e in expected), errors
        # act cells repeated as read, and repeated only after strip()
        assert np.all(repeats > 0), repeats

    @pytest.mark.parametrize("lines, expected", [
        pytest.param(["a,b", "1,2", " 1,2", "1 ,2", "1,2"], ([[1, 2]] * 4, 0),
                     id="whitespace-twins"),
        pytest.param(["a,b", "NA,1", "1,2", "NA,1", " na,1"], ([[1, 2]], 3),
                     id="repeated-missing"),
        pytest.param(["a,b", "1,1", ",", " ,", ",", "1,1"], ([[1, 1]] * 2, 0),
                     id="repeated-blank"),
        pytest.param(["a,b,w", "1,1,1.0", "1,1,NA", "1,1,2.0"], ([[1, 1]] * 2, 1),
                     id="missing-weight-on-twin"),
        pytest.param(["a,b,w", "1,1,1.0", "1,1,1.0", "1,1,abc"],
                     "4: weight column 'w' has non-numeric value 'abc'", id="bad-weight-on-twin"),
        pytest.param(["a,b", "1,1", "1,1", "1,1,7"], "4: expected 2 fields, got 3",
                     id="extra-field-after-twins"),
        pytest.param(["a,b", "1,1", "1,1", "1"], "4: expected 2 fields, got 1",
                     id="short-row-after-twins"),
        pytest.param(["a,b", "1,1", "1,1", "1,-1"], "4: column 'b' is negative (-1)",
                     id="bad-cell-after-twins"),
        # a missing token anywhere drops the row, even beside a bad cell
        pytest.param(["a,b", "x,NA", "-1,na", "1,2"], ([[1, 2]], 2),
                     id="missing-beside-bad-cell"),
        # the first bad cell in column order, on the tuple's first row
        pytest.param(["a,b", "1,1", "x,-1", "x,-1"], "3: column 'a' has non-integer value 'x'",
                     id="two-bad-cells"),
        pytest.param(["a,b", "1,1", "1,-1 ", "-1,x"], "3: column 'b' is negative (-1)",
                     id="two-bad-cells-later-column-first"),
        # a bad cell first met in a dropped row, then in a row that has no missing token
        pytest.param(["a,b", "NA,x", "-1,NA", "1,1", "2,x"],
                     "5: column 'b' has non-integer value 'x'", id="bad-cell-seen-when-dropped"),
        pytest.param(["a,b", "1,1", "1,99999999999999999999"],
                     "3: column 'b' has count 99999999999999999999 outside 0..9223372036854775807",
                     id="count-beyond-int64"),
        pytest.param(["a,b", "1,1", "2," + "7" * 200_000],
                     "3: field larger than field limit (131072)", id="huge-field"),
        pytest.param(["a,b," + "x" * 200_000, "1,1"],
                     "1: field larger than field limit (131072)", id="huge-header-field"),
        pytest.param(["a,b", "1,1", "1,\udcff"],
                     "3: not UTF-8: byte 0xff at offset 10 (invalid start byte)", id="not-utf8"),
        pytest.param(["a,b", '"1\n",2', "x,1"], "4: column 'a' has non-integer value 'x'",
                     id="after-a-field-over-two-lines"),
        pytest.param(["a,b", "1,1", '"x\n\n",2', "1,1"], "3: column 'a' has non-integer value 'x'",
                     id="field-over-three-lines"),
        pytest.param(['"a\n",b', "1,1", "1,-2"], "4: column 'b' is negative (-2)",
                     id="header-over-two-lines"),
        pytest.param(["a,b", *["1,1"] * 4000, "1,\udcff"],
                     "4002: not UTF-8: byte 0xff at offset 16006 (invalid start byte)",
                     id="not-utf8-past-first-chunk"),
    ])
    def test_repeated_and_unreadable_rows(self, tmp_path, lines, expected):
        """Rows that repeat an earlier row's act cells, and files that the
        csv module or the UTF-8 codec refuses: the values and n_dropped, or
        the error after "<path>:", of both readers."""
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        # lone surrogates stand for the raw bytes they escape
        data.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        descriptor = {"mode": "counts", "acts": [descriptor_act("a"), descriptor_act("b")]}
        if lines[0].startswith("a,b,w"):
            descriptor["weight_column"] = "w"
        desc.write_text(json.dumps(descriptor))
        got = read_or_error(read_survey, str(data), str(desc))
        want = read_or_error(reference.read_survey, str(data), str(desc))
        if isinstance(expected, str):
            assert got == want == f"{data}:{expected}"
        else:
            values, n_dropped = expected
            assert np.array_equal(got.values, values) and got.values.flags.c_contiguous
            assert np.array_equal(got.values, want.values)
            assert got.n_dropped == want.n_dropped == n_dropped

    def test_each_cell_string_is_checked_once(self, tmp_path, monkeypatch):
        # strings repeat across rows and across columns, and a stripped
        # twin (" 1") is a string of its own
        lines = ["a,b,c", "1,2,0", "2,1,0", "1,2,0", "0,0,1", " 1,NA,2", "2,2,2", "NA,1,1"]
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        data.write_text("\n".join(lines) + "\n")
        desc.write_text(json.dumps({"mode": "counts", "acts": [descriptor_act(c) for c in "abc"]}))
        calls, act_value = [], ingest._act_value

        def counted(cell, max_allowed):
            calls.append(cell)
            return act_value(cell, max_allowed)

        monkeypatch.setattr(ingest, "_act_value", counted)
        table = read_survey(str(data), str(desc))
        assert sorted(calls) == [" 1", "0", "1", "2", "NA"]
        assert table.n_rows == 5 and table.n_dropped == 2

    def test_all_distinct_rows(self, tmp_path):
        """An 8000-row counts survey in which no two rows share their act
        cells, so every row is a new tuple."""
        values = sample_joint(reference_model(), 8000, np.random.default_rng(3))
        values[:, 0] = np.arange(8000)
        assert len(np.unique(values, axis=0)) == 8000
        data, desc = str(tmp_path / "s.csv"), str(tmp_path / "s.json")
        write_survey(SurveyTable(make_acts(4), values, "counts"), data, desc)
        got, want = read_survey(data, desc), reference.read_survey(data, desc)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.values, values)
        assert got.n_dropped == want.n_dropped == 0

    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_first_bad_cell_is_named(self, tmp_path, mode):
        data, desc = tmp_path / "s.csv", tmp_path / "s.json"
        data.write_text("a,b,c\n1,2,3\n2,-1,x\n")
        desc.write_text(json.dumps({"mode": mode, "acts": [descriptor_act(c) for c in "abc"]}))
        with pytest.raises(SurveyFormatError) as info:
            read_survey(str(data), str(desc))
        assert str(info.value) == f"{data}:3: column 'b' is negative (-1)"


def mpmath_bvn_cdf(h: float, k: float, rho: float) -> float:
    """Phi2(h, k; rho) at 30 digits: mpmath's quadrature of
    phi(x) Phi((k - rho x) / sqrt(1 - rho^2)) up to h, split where the
    integrand steps."""
    if -math.inf in (h, k):
        return 0.0
    if math.inf in (h, k):
        return float(mpmath.ncdf(min(h, k)))
    with mpmath.workdps(30):
        tau = mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
        points = [-mpmath.inf, h]
        if rho and k / rho < h:
            points.insert(1, k / rho)
        return float(mpmath.quad(lambda x: mpmath.npdf(x) * mpmath.ncdf((k - rho * x) / tau),
                                 points))


class TestBivariateNormalCdf:
    """``_bvn_cdf``, Owen's T form of Phi2, against mpmath on a grid of
    bounds that holds 0 (so h = k = 0) and +-inf, at the rho limits and in
    between."""

    BOUNDS = (-math.inf, -2.7, -0.4, 0.0, 0.9, math.inf)

    def test_matches_mpmath(self):
        points = [(h, k, rho) for h in self.BOUNDS for k in self.BOUNDS
                  for rho in (-0.9995, -0.3, 0.6, 0.9995)]
        h, k, rho = (np.array(column) for column in zip(*points))
        got = ingest._bvn_cdf(h, k, rho, ndtr(h), ndtr(k))
        want = np.array([mpmath_bvn_cdf(*point) for point in points])
        assert len(points) >= 50 and np.max(np.abs(got - want)) <= 1e-15


class TestScoreCorrelationMatchesReference:
    """The contraction over Owen's T form of Phi2 agrees with
    ``reference.score_corr_theory``, the double sum of adaptive-quadrature
    rectangle probabilities, to 1e-12."""

    MARGINS = [
        MarginalParams("zip", 2.36, 0.84),
        MarginalParams("zinb", 1.5, 0.6, 0.7),
        MarginalParams("zip", 0.3, 0.1),
        MarginalParams("zinb", 6.0, 0.2, 3.0),
    ]

    # counts-mode largest counts: two acts with a cell per count, two cut at quantiles
    LARGEST = [40, 63, 64, 300]

    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_every_pair_and_rho(self, mode):
        cells = [_cell_structure(category_probs(m) if mode == "categories"
                                 else count_cells(m, np.arange(largest + 1))[1])
                 for m, largest in zip(self.MARGINS, self.LARGEST)]
        pairs = list(itertools.permutations(range(len(cells)), 2))
        rhos = (-0.9995, -0.9, -0.5, 0.0, 0.5, 0.9, 0.9995)
        j, l, rho = (np.array(column) for column in zip(*((a, b, r) for r in rhos for a, b in pairs)))
        got = _ScoreCorrelation(cells)(j, l, rho)
        want = [reference.score_corr_theory(r, cells[a], cells[b]) for a, b, r in zip(j, l, rho)]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_mass_cells(self):
        # a Poisson(900) act leaves its low cells empty: their bounds are -inf
        cells = [_cell_structure(count_cells(m, np.arange(largest + 1))[1])
                 for m, largest in [(MarginalParams("zip", 900.0, 0.0), 1000),
                                    (MarginalParams("zip", 900.0, 0.5), 1000),
                                    (MarginalParams("zip", 1.0, 0.7), 6)]]
        assert np.isneginf(cells[0][2][0])
        j, l = np.array([0, 0, 1]), np.array([1, 2, 2])
        for r in (-0.9995, 0.0, 0.5):
            got = _ScoreCorrelation(cells)(j, l, np.full(3, r))
            want = [reference.score_corr_theory(r, cells[a], cells[b]) for a, b in zip(j, l)]
            assert np.max(np.abs(got - want)) <= 1e-12


def duplicated_column_table():
    """A survey whose fourth act repeats the first: their root lies past +0.9995."""
    table, _ = simulated_table(n=2000, seed=109)
    values = table.values.copy()
    values[:, 3] = values[:, 0]
    return SurveyTable(table.acts, values, table.mode)


class TestLatentCorrelationMatchesReference:
    """``find_root``'s batched root searches give the sigma of
    ``reference.latent_correlation_matrix``, one ``brentq`` per pair on the
    quadrature oracle, to within the root tolerance; clamped and zero
    entries are equal."""

    @staticmethod
    def check(table, margins):
        sigma = latent_correlation_matrix(table, margins)
        want = reference.latent_correlation_matrix(table, margins)
        exact = (np.abs(want) == 0.9995) | (want == 0.0)
        assert np.array_equal(sigma[exact], want[exact])
        assert np.max(np.abs(sigma - want)) <= ingest._ROOT_XTOL
        return sigma

    def test_bundled_survey(self):
        table = read_survey(*example_survey_paths())
        self.check(table, fit_model(table, "zinb")[0].margins)

    def test_counts_with_several_cell_shapes(self):
        table, _ = simulated_table(n=3000, seed=110, mode="counts")
        margins = fit_model(table, "zip")[0].margins
        assert len({len(count_cells(m, c)[1]) for m, c in zip(margins, table.values.T)}) >= 3
        self.check(table, margins)

    def test_weighted_with_an_act_constant_on_weighted_rows(self):
        table, _ = simulated_table(n=300, seed=106)
        weights = np.tile([1.0, 2.5, 0.0], 100)
        values = table.values.copy()
        values[weights > 0, 1] = 2
        table = SurveyTable(table.acts, values, table.mode, weights)
        sigma = self.check(table, fit_model(table, "zip")[0].margins)
        assert np.array_equal(sigma[1], np.eye(4)[1])

    def test_root_past_the_upper_limit(self):
        table = duplicated_column_table()
        assert self.check(table, fit_model(table, "zip")[0].margins)[0, 3] == 0.9995

    def test_root_past_the_lower_limit(self):
        # the fourth act reverses the first: the gap keeps one sign over the
        # bracket with f_bracket[1] > 0, so the pair clamps to -0.9995
        table, _ = simulated_table(n=2000, seed=109)
        values = table.values.copy()
        values[:, 3] = values[:, 0].max() - values[:, 0]
        table = SurveyTable(table.acts, values, table.mode)
        model, report = fit_model(table, "zip")
        assert self.check(table, model.margins)[0, 3] == -0.9995
        assert report.clamped == [(0, 3)]


class TestFitModel:
    def test_simulate_then_refit_round_trip(self):
        table, truth = simulated_table(n=20_000, seed=101)
        model, _ = fit_model(table, family="zip")
        for fitted, true in zip(model.margins, truth.margins):
            assert abs(fitted.rate - true.rate) <= 0.1
            assert abs(fitted.zero_prob - true.zero_prob) <= 0.02
        upper = np.triu_indices(4, 1)
        assert np.max(np.abs((model.sigma - truth.sigma)[upper])) <= 0.05

    def test_counts_mode_also_recovers(self):
        table, truth = simulated_table(n=20_000, seed=102, mode="counts")
        model, _ = fit_model(table, family="zip")
        for fitted, true in zip(model.margins, truth.margins):
            assert abs(fitted.rate - true.rate) <= 0.1
            assert abs(fitted.zero_prob - true.zero_prob) <= 0.02
        upper = np.triu_indices(4, 1)
        assert np.max(np.abs((model.sigma - truth.sigma)[upper])) <= 0.05

    def test_all_zero_act_flagged_degenerate(self):
        table, _ = simulated_table(n=500)
        values = table.values.copy()
        values[:, 2] = 0
        zeroed = SurveyTable(table.acts, values, table.mode)
        model, report = fit_model(zeroed, family="zip")
        assert report.per_act[2].fit.degenerate
        assert model.margins[2].zero_prob == 1.0
        off_diag = np.delete(model.sigma[2], 2)
        assert np.allclose(off_diag, 0.0)

    def test_zinb_loglik_dominates_zip_on_zinb_data(self):
        margins = tuple(
            MarginalParams("zinb", 2.0, 0.6, dispersion=0.6) for _ in range(2)
        )
        model = MultiActModel(make_acts(2), margins, np.eye(2))
        counts = sample_joint(model, 5000, np.random.default_rng(11))
        table = SurveyTable(make_acts(2), counts, mode="counts")
        _, zip_report = fit_model(table, family="zip")
        _, zinb_report = fit_model(table, family="zinb")
        assert report_loglik(zinb_report) >= report_loglik(zip_report) - 1e-6

    def test_requires_two_acts(self):
        table, _ = simulated_table(n=100)
        single = SurveyTable(table.acts[:1], table.values[:, :1], table.mode)
        with pytest.raises(ValueError, match="2 acts"):
            fit_model(single)

    def test_row_order_invariance(self):
        table, _ = simulated_table(n=4000, seed=103)
        perm = np.random.default_rng(0).permutation(table.n_rows)
        shuffled = SurveyTable(table.acts, table.values[perm], table.mode)
        a, _ = fit_model(table, family="zip")
        b, _ = fit_model(shuffled, family="zip")
        assert a.margins == b.margins
        assert np.allclose(a.sigma, b.sigma, atol=1e-7)

    def test_weight_two_equals_duplication(self):
        table, _ = simulated_table(n=800, seed=104)
        doubled = SurveyTable(
            table.acts, np.vstack([table.values, table.values]), table.mode
        )
        weighted = SurveyTable(
            table.acts, table.values, table.mode, weights=np.full(table.n_rows, 2.0)
        )
        m_dup, r_dup = fit_model(doubled, family="zip")
        m_w, r_w = fit_model(weighted, family="zip")
        assert report_loglik(r_w) == pytest.approx(report_loglik(r_dup), abs=1e-10)
        for a, b in zip(m_w.margins, m_dup.margins):
            assert a.rate == pytest.approx(b.rate, abs=1e-8)
            assert a.zero_prob == pytest.approx(b.zero_prob, abs=1e-8)
        assert np.allclose(m_w.sigma, m_dup.sigma, atol=1e-6)

    def test_gof_reported_for_zip(self):
        table, _ = simulated_table(n=5000, seed=105)
        _, report = fit_model(table, family="zip")
        for act_fit in report.per_act:
            assert act_fit.chi2_p is not None
            assert act_fit.chi2_p > 0.001  # data generated from the fitted family

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_fit_reproduces_survey_prevalence_and_sum_variance(self, family):
        # binary power hinges on the any-act prevalence, sum power on the
        # variance of the sum score; the plain (attenuated) score correlation
        # put the prevalence 21 SEs and the variance 11 SEs off
        table = read_survey(*example_survey_paths())
        model, _ = fit_model(table, family)
        drawn = categorize(sample_joint(model, 80_000, np.random.default_rng(1))).sum(axis=1)
        survey = table.values.sum(axis=1)
        root_n = np.sqrt(len(survey))
        prevalence = np.mean(survey > 0)  # 0.399, SE 0.0055
        prevalence_se = np.sqrt(prevalence * (1 - prevalence)) / root_n
        variance_se = np.std((survey - survey.mean()) ** 2, ddof=1) / root_n  # 16.05, SE 0.57
        assert abs(np.mean(drawn > 0) - prevalence) < 3 * prevalence_se
        assert abs(np.var(drawn, ddof=1) - np.var(survey, ddof=1)) < 3 * variance_se

    @pytest.mark.parametrize("mode", ["categories", "counts"])
    def test_act_constant_on_weighted_rows_gets_zero_correlation(self, mode):
        # act 2 varies only on rows of zero weight: scored with them, its
        # weighted scores had no variance and the root search met a NaN
        table, _ = simulated_table(n=300, seed=106, mode=mode)
        weights = np.tile([1.0, 1.0, 0.0], 100)
        values = table.values.copy()
        values[weights > 0, 1] = 2
        assert np.ptp(values[:, 1]) > 0
        model, _ = fit_model(SurveyTable(table.acts, values, mode, weights), family="zip")
        assert np.array_equal(model.sigma[1], np.eye(4)[1])
        assert np.all(model.sigma[np.ix_([0, 2, 3], [0, 2, 3])] != 0.0)

    def test_each_pair_evaluates_its_rho_limits_once(self, monkeypatch):
        # the first two calls evaluate every pair at one limit each; the root
        # searches start from those gaps and never evaluate a limit again
        table = duplicated_column_table()
        margins = fit_model(table, "zip")[0].margins
        evaluate, calls = ingest._ScoreCorrelation.__call__, []

        def recording(self, j, l, rho):
            calls.append(list(zip(j.tolist(), l.tolist(), rho.tolist())))
            return evaluate(self, j, l, rho)

        monkeypatch.setattr(ingest._ScoreCorrelation, "__call__", recording)
        sigma = latent_correlation_matrix(table, margins)
        pairs = list(itertools.combinations(range(4), 2))
        for call, limit in zip(calls, (-0.9995, 0.9995)):
            assert sorted(call) == [(j, l, limit) for j, l in pairs]
        searched = {(j, l) for call in calls[2:] for j, l, _ in call}
        assert all(abs(r) < 0.9995 for call in calls[2:] for _, _, r in call)
        assert sigma[0, 3] == 0.9995 and searched == set(pairs) - {(0, 3)}

    def test_nan_score_correlation_raises(self, monkeypatch):
        table, _ = simulated_table(n=2000, seed=109)
        margins = fit_model(table, "zip")[0].margins
        evaluate = ingest._ScoreCorrelation.__call__

        def poisoned(self, j, l, rho):
            return np.where((j == 1) & (l == 2), np.nan, evaluate(self, j, l, rho))

        monkeypatch.setattr(ingest._ScoreCorrelation, "__call__", poisoned)
        with pytest.raises(ValueError, match=r"acts \['act 2', 'act 3'\] is NaN"):
            latent_correlation_matrix(table, margins)

    def test_root_search_out_of_iterations_raises(self, monkeypatch):
        table, _ = simulated_table(n=2000, seed=109)
        margins = fit_model(table, "zip")[0].margins
        monkeypatch.setattr(ingest, "find_root", functools.partial(ingest.find_root, maxiter=2))
        with pytest.raises(RuntimeError, match="root search failed: status -2"):
            latent_correlation_matrix(table, margins)

    def test_report_names_clamped_pairs(self):
        _, report = fit_model(duplicated_column_table(), "zip")
        assert report.clamped == [(0, 3)]
        _, report = fit_model(simulated_table(n=2000, seed=109)[0], "zip")
        assert report.clamped == []

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    def test_counts_far_from_zero_fit(self, family):
        # ZIP met a NaN score correlation at the empty low cells' -inf
        # bounds; the ZINB fit overflowed in its truncated NB's gradient
        model, report = fit_model(far_from_zero_counts_table(), family)
        assert np.all(np.isfinite(model.sigma))
        assert all(np.isfinite(act_fit.fit.loglik) for act_fit in report.per_act)

    @pytest.mark.parametrize("dispersion", [0.3, 0.07])
    def test_overdispersed_counts_pair_fits(self, dispersion):
        # heavy ZINB tails run each margin's 1e-10 quantile to thousands of
        # counts, far past the largest observed count
        margins = tuple(MarginalParams("zinb", 10.0, 0.5, dispersion=dispersion) for _ in range(2))
        truth = MultiActModel(make_acts(2), margins, np.array([[1.0, 0.5], [0.5, 1.0]]))
        counts = sample_joint(truth, 2000, np.random.default_rng(12))
        model, _ = fit_model(SurveyTable(make_acts(2), counts, mode="counts"), family="zinb")
        for margin, column in zip(model.margins, counts.T):
            assert column.max() >= COUNT_CELLS_MAX
            assert len(count_cells(margin, column)[1]) <= COUNT_CELLS_MAX
        assert abs(model.sigma[0, 1] - 0.5) < 0.1


class TestCountCells:
    """A counts-mode act's cells: counts 0-5 alone, at most COUNT_CELLS_MAX in
    all, the last holding the largest observed count and the whole tail."""

    MARGINS = [MarginalParams("zip", 2.0, 0.3), MarginalParams("zinb", 10.0, 0.5, 0.3)]

    @pytest.mark.parametrize("margin", MARGINS, ids=["zip", "zinb"])
    @pytest.mark.parametrize("largest", [0, 3, 5, 6, 63, 64, 65, 300, "past-tail"])
    def test_rule(self, margin, largest):
        theta = margin.zero_prob
        if largest == "past-tail":  # one count past the 1e-10 tail quantile
            largest = int(_count(margin, "isf", 1e-10 / (1.0 - theta))) + 2
        codes, p = count_cells(margin, np.arange(largest + 1))
        assert len(p) <= COUNT_CELLS_MAX
        # every cell holds a count, the largest count's cell is the last
        assert np.array_equal(np.unique(codes), np.arange(len(p)))
        assert np.all(np.diff(codes) >= 0)
        assert np.array_equal(codes[:7], np.arange(min(largest, 6) + 1))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # each cell's probability is the mass of the counts binned into it,
        # the tail past the largest count in the last
        cdf = theta + (1.0 - theta) * _count(margin, "cdf", np.arange(largest))
        pmf = np.diff(cdf, prepend=0.0, append=1.0)
        assert np.allclose(np.bincount(codes, pmf, minlength=len(p)), p, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("margin", MARGINS, ids=["zip", "zinb"])
    def test_largest_int64_count(self, margin):
        codes, p = count_cells(margin, np.array([0, 5, 2**63 - 1]))
        assert len(p) <= COUNT_CELLS_MAX and p.sum() == pytest.approx(1.0, abs=1e-12)
        assert codes.tolist() == [0, 5, len(p) - 1]


@pytest.fixture(scope="module")
def resampler_table():
    return simulated_table(n=5000, seed=107)[0]


class TestEmpiricalResampler:
    @pytest.fixture
    def table(self, resampler_table):
        return resampler_table

    def test_category_frequencies_preserved(self, table):
        sampler = EmpiricalResampler(table)
        n = 100_000
        drawn = sampler.sample_control(n, np.random.default_rng(1))
        cats = categorize(drawn)
        for j in range(table.n_acts):
            table_freq = np.bincount(table.values[:, j], minlength=4) / table.n_rows
            drawn_freq = np.bincount(cats[:, j], minlength=4) / n
            se = np.sqrt(np.maximum(table_freq * (1 - table_freq), 1e-12) / n)
            assert np.all(np.abs(drawn_freq - table_freq) <= 4 * se + 1e-9)

    def test_category_one_imputes_exactly_one(self, table):
        sampler = EmpiricalResampler(table)
        drawn = sampler.sample_control(20_000, np.random.default_rng(2))
        cats = categorize(drawn)
        assert np.all(drawn[cats == 1] == 1)

    def test_category_two_imputes_interval(self, table):
        sampler = EmpiricalResampler(table)
        drawn = sampler.sample_control(20_000, np.random.default_rng(3))
        cats = categorize(drawn)
        values = drawn[cats == 2]
        assert values.min() >= 2 and values.max() <= 4

    def test_categorize_reproduces_observed_rows(self, table):
        # hard invariant: the imputed latent count always falls back into
        # the category the resampled respondent reported
        sampler = EmpiricalResampler(table)
        n = 10_000
        drawn = sampler.sample_control(n, np.random.default_rng(4))
        # same generator state draws the same row indices: re-derive them
        expected_rows = table.values[np.random.default_rng(4).integers(0, table.n_rows, size=n)]
        assert np.array_equal(categorize(drawn), expected_rows)

    @pytest.mark.parametrize("family", ["zip", "zinb"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_margins_are_fit_models(self, family, weighted):
        # one per-act fit: the resampler's margins are fit_model's, bit for bit
        table = read_survey(*example_survey_paths())
        if weighted:
            weights = np.random.default_rng(9).uniform(0.5, 2.0, table.n_rows)
            table = SurveyTable(table.acts, table.values, table.mode, weights)
        fitted = fit_model(table, family)[0].margins
        assert EmpiricalResampler(table, family=family).margins == fitted

    def test_counts_mode_passthrough(self):
        table, _ = simulated_table(n=2000, seed=108, mode="counts")
        sampler = EmpiricalResampler(table)
        drawn = sampler.sample_control(5000, np.random.default_rng(5))
        observed = {tuple(r) for r in table.values.tolist()}
        assert all(tuple(r) in observed for r in drawn.tolist())


def reference_conditional_tables(margin):
    """Per category: (support values, conditional CDF) under the margin."""
    table = cdf_table(margin)
    pmf = np.diff(np.concatenate([[0.0], table]))
    out = {}
    for cat, (lo, hi) in {0: (0, 0), 1: (1, 1), 2: (2, 4), 3: (5, None)}.items():
        hi_eff = len(pmf) - 1 if hi is None else min(hi, len(pmf) - 1)
        values = np.arange(lo, hi_eff + 1)
        mass = pmf[lo : hi_eff + 1] if lo < len(pmf) else np.array([])
        if mass.size == 0 or mass.sum() <= 0:
            values = np.array([lo])
            cdf = np.array([1.0])
        else:
            cdf = np.cumsum(mass) / mass.sum()
        out[cat] = (values, cdf)
    return out


def reference_sample_control(table, margins, n, rng):
    """Row draw plus one searchsorted per (act, category), as a plain loop."""
    if table.weights is None:
        idx = rng.integers(0, table.n_rows, size=n)
    else:
        idx = rng.choice(table.n_rows, size=n, p=table.weights / table.weights.sum())
    drawn = table.values[idx]
    if table.mode == "counts":
        return drawn.astype(np.int64)
    out = np.empty_like(drawn)
    for j in range(table.n_acts):
        tables = reference_conditional_tables(margins[j])
        column = drawn[:, j]
        u = rng.random(n)
        for cat, (values, cdf) in tables.items():
            mask = column == cat
            if not np.any(mask):
                continue
            out[mask, j] = values[np.searchsorted(cdf, u[mask], side="left").clip(max=len(values) - 1)]
    return out


def random_category_table(n_rows, k, seed, weights=False):
    rng = np.random.default_rng(seed)
    values = rng.choice(4, size=(n_rows, k), p=[0.5, 0.2, 0.2, 0.1])
    w = rng.gamma(1.0, size=n_rows) if weights else None
    return SurveyTable(make_acts(k), values, "categories", weights=w)


class TestResamplerMatchesReference:
    """sample_control equals the per-(act, category) loop, draw for draw."""

    @staticmethod
    def assert_matches(table, margins=None, sizes=(1, 2, 17, 1680), seeds=range(25)):
        sampler = EmpiricalResampler(table, margins=margins)
        margins = getattr(sampler, "margins", None)
        for seed in seeds:
            for n in sizes:
                rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
                got = sampler.sample_control(n, rng)
                want = reference_sample_control(table, margins, n, ref_rng)
                assert got.dtype == np.int64 and want.dtype == np.int64
                assert np.array_equal(got, want), (seed, n)
                assert rng.random() == ref_rng.random(), (seed, n)

    def test_bundled_survey(self):
        self.assert_matches(read_survey(*example_survey_paths()))

    def test_weighted_table(self):
        table = read_survey(*example_survey_paths())
        weights = np.random.default_rng(5).gamma(1.0, size=table.n_rows)
        weights[::7] = 0.0
        weighted = SurveyTable(table.acts, table.values, table.mode, weights=weights)
        self.assert_matches(weighted)

    def test_long_conditional_table(self):
        margins = (
            MarginalParams("zinb", 30.0, 0.3, dispersion=0.2),
            MarginalParams("zip", 40.0, 0.1),
            MarginalParams("zinb", 3.0, 0.6, dispersion=0.5),
        )
        assert len(cdf_table(margins[0])) > 1000
        self.assert_matches(random_category_table(300, 3, seed=1), margins)

    def test_unobservable_category_falls_back_to_lowest_count(self):
        # rate 1e-3: counts of 4 or more carry less than 1e-12 of the mass,
        # so category 3 is unobservable; zero_prob 1: only 0 is observable
        margins = (
            MarginalParams("zip", 1e-3, 0.2),
            MarginalParams("zip", 2.0, 1.0),
            MarginalParams("zinb", 1.5, 0.4, dispersion=1.0),
        )
        assert len(cdf_table(margins[0])) < 6
        assert len(cdf_table(margins[1])) == 1
        table = random_category_table(200, 3, seed=2)
        self.assert_matches(table, margins)
        drawn = EmpiricalResampler(table, margins=margins).sample_control(
            2000, np.random.default_rng(0)
        )
        assert set(np.unique(drawn[:, 0])) <= {0, 1, 2, 3, 5}
        assert set(np.unique(drawn[:, 1])) <= {0, 1, 2, 5}

    def test_single_unit(self):
        table = random_category_table(50, 4, seed=3, weights=True)
        self.assert_matches(table, sizes=(1,), seeds=range(200))

    def test_counts_mode_passthrough(self):
        table, _ = simulated_table(n=2000, seed=108, mode="counts")
        self.assert_matches(table)
        weighted = SurveyTable(table.acts, table.values, table.mode,
                               weights=np.linspace(0.0, 2.0, table.n_rows))
        self.assert_matches(weighted)

    def test_uniforms_on_and_beside_cdf_entries(self):
        # ties (u equal to a CDF entry) and the neighbouring 2**-53 grid
        # points decide the "left" rule and the floor in the key table
        margins = (
            MarginalParams("zinb", 30.0, 0.3, dispersion=0.2),
            MarginalParams("zip", 5.0, 0.2),
            MarginalParams("zip", 1e-3, 0.2),
            MarginalParams("zip", 2.0, 1.0),
        )
        grids = []
        for m in margins:
            entries = np.concatenate([c for _, c in reference_conditional_tables(m).values()])
            k = np.floor(entries * 2.0**53)
            grid = np.concatenate([k - 1, k, k + 1, k + 2, [0.0, 2.0**53 - 1]])
            grids.append(np.unique(np.clip(grid, 0.0, 2.0**53 - 1)) / 2.0**53)
        size = max(len(g) for g in grids)
        uniforms = np.stack([np.resize(g, size) for g in grids])  # one row per act
        acts = make_acts(4)
        table = SurveyTable(acts, np.array([[2] * 4, [3] * 4]), "categories")
        rows = np.repeat([0, 1], size)

        class ScriptedRng:
            """Hands out fixed rows, then fixed uniforms in stream order."""

            def __init__(self):
                self.stream = np.tile(uniforms, 2).ravel()

            def integers(self, low, high, size):
                return rows

            def random(self, size):
                count = int(np.prod(size))
                out, self.stream = self.stream[:count], self.stream[count:]
                return out.reshape(size)

        got = EmpiricalResampler(table, margins=margins).sample_control(2 * size, ScriptedRng())
        want = reference_sample_control(table, margins, 2 * size, ScriptedRng())
        assert np.array_equal(got, want)

    def test_act_count_limited_by_key_width(self):
        values = np.zeros((3, 257), dtype=np.int64)
        margins = (MarginalParams("zip", 1.0, 0.5),) * 257
        EmpiricalResampler(SurveyTable(make_acts(256), values[:, :256], "categories"), margins[:256])
        with pytest.raises(ValueError, match="at most 256 acts"):
            EmpiricalResampler(SurveyTable(make_acts(257), values, "categories"), margins)
        with pytest.raises(ValueError, match="257 margins for 256 acts"):
            EmpiricalResampler(SurveyTable(make_acts(256), values[:, :256], "categories"), margins)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        model = reference_model()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert back.margins == model.margins
        assert back.acts == model.acts
        assert np.allclose(back.sigma, model.sigma)

    def test_version_mismatch_rejected(self, tmp_path):
        model = reference_model()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["schema_version"] = 99
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="schema version"):
            load_model(path)
