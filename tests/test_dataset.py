"""Tests for dataset parsing, validation, and input normalization."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, ramp_inputs
from marketdyn import dataset as dataset_module
from marketdyn.dataset import (
    MarketDataset,
    _parse_header,
    example_dataset_path,
    load_csv,
    load_example,
    load_input_table,
    normalize_inputs,
    save_csv,
)
from marketdyn.dynamics import SharesState
from marketdyn.errors import DataError

GOOD_CSV = """\
# sample dataset for parser tests
label,share_1,share_2,y_1,y_2
2020Q1,0.49,0.49,10.0,3.5
2020Q2,0.5,0.5,11.0,3.0
2020Q3,0.65,0.35,12.5,2.5
"""


class TestLoadCsv:
    def test_parses_shapes_and_labels(self):
        dataset = load_csv(io.StringIO(GOOD_CSV))
        assert len(dataset) == 3
        assert dataset.n == 2 and dataset.n_y == 2
        assert dataset.labels == ("2020Q1", "2020Q2", "2020Q3")
        assert dataset.ownership == (0, 1)
        assert np.array_equal(dataset.inputs[:, 0], np.array([10.0, 11.0, 12.5]))

    def test_comments_become_provenance(self):
        dataset = load_csv(io.StringIO(GOOD_CSV))
        assert "sample dataset for parser tests" in dataset.provenance

    def test_row_sum_renormalized_exactly(self):
        # 0.49 + 0.49 is inside the accepted band and rescales to one half
        dataset = load_csv(io.StringIO(GOOD_CSV))
        assert dataset.shares[0].shares[0] == 0.5
        assert dataset.shares[0].shares[1] == 0.5

    def test_share_sum_outside_band_rejected(self):
        text = GOOD_CSV.replace("2020Q3,0.65,0.35", "2020Q3,0.2,0.2")
        with pytest.raises(DataError, match=r"line 5: share sum"):
            load_csv(io.StringIO(text))

    def test_negative_share_rejected(self):
        text = GOOD_CSV.replace("2020Q3,0.65,0.35", "2020Q3,-0.1,1.05")
        with pytest.raises(DataError, match="negative share"):
            load_csv(io.StringIO(text))

    def test_header_must_follow_contract(self):
        bad = "label,y_1,share_1,share_2\n2020Q1,1.0,0.5,0.5\n2020Q2,2.0,0.5,0.5\n"
        with pytest.raises(DataError, match="header must be"):
            load_csv(io.StringIO(bad))

    def test_single_share_column_rejected(self):
        bad = "label,share_1,y_1\n2020Q1,1.0,1.0\n2020Q2,1.0,2.0\n"
        with pytest.raises(DataError, match="header must be"):
            load_csv(io.StringIO(bad))

    def test_field_count_mismatch_reports_line(self):
        text = GOOD_CSV.replace("2020Q2,0.5,0.5,11.0,3.0", "2020Q2,0.5,0.5,11.0")
        with pytest.raises(DataError, match="line 4: expected 5 fields"):
            load_csv(io.StringIO(text))

    def test_non_numeric_cell_reports_line(self):
        text = GOOD_CSV.replace("12.5", "n/a")
        with pytest.raises(DataError, match="line 5"):
            load_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_line(self, cell):
        for row in (f"2020Q3,0.65,{cell},12.5,2.5", f"2020Q3,0.65,0.35,12.5,{cell}"):
            text = GOOD_CSV.replace("2020Q3,0.65,0.35,12.5,2.5", row)
            with pytest.raises(DataError, match=f"line 5: values must be finite, got '{cell}'"):
                load_csv(io.StringIO(text))

    def test_single_data_row_rejected(self):
        bad = "label,share_1,share_2,y_1\n2020Q1,0.5,0.5,1.0\n"
        with pytest.raises(DataError, match="length >= 2"):
            load_csv(io.StringIO(bad))

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError, match="no header"):
            load_csv(io.StringIO("# only a comment\n"))


class TestShareRows:
    def test_load_csv_builds_no_shares_state_until_a_row_is_read(self, monkeypatch):
        text = "label,share_1,share_2,y_1\n" + "".join(
            f"q{t:05d},{t / 20_000!r},{1.0 - t / 20_000!r},{t}\n" for t in range(20_000)
        )
        built = []

        def counted(build):
            return lambda *args: built.append(args) or build(*args)

        monkeypatch.setattr(SharesState, "__init__", counted(SharesState.__init__))
        dataset = load_csv(io.StringIO(text))
        assert built == []
        row = dataset.shares[12_345]
        assert len(built) == 1
        assert np.array(row.floats).tobytes() == dataset.shares.block[12_345].tobytes()
        assert row.floats == (0.61725, 1.0 - 0.61725)

    def test_rows_of_states_keep_their_bits_and_strategy_count(self):
        states = (SharesState(np.array([0.1, 0.9])), SharesState(np.array([-0.0, 1.0])))
        dataset = MarketDataset(labels=("a", "b"), shares=states,
                                inputs=ramp_inputs(2), ownership=(0, 1, 0, 1))
        assert not dataset.shares.block.flags.writeable
        assert _bits([s.floats for s in dataset.shares]) == _bits([s.floats for s in states])
        mixed = (states[0], SharesState(np.array([0.2, 0.3, 0.5])))
        with pytest.raises(DataError, match="same number of strategies"):
            MarketDataset(labels=("a", "b"), shares=mixed,
                          inputs=ramp_inputs(2), ownership=(0, 1, 0, 1))


class TestSaveCsv:
    def test_roundtrip_is_value_exact(self):
        dataset = make_dataset([0.3, 0.25, 0.5, 0.75], ramp_inputs(4))
        buf = io.StringIO()
        save_csv(dataset, buf)
        back = load_csv(io.StringIO(buf.getvalue()))
        assert back.labels == dataset.labels
        assert np.array_equal(back.inputs, dataset.inputs)
        for a, b in zip(back.shares, dataset.shares):
            assert np.array_equal(a.shares, b.shares)

    def test_provenance_written_as_comments(self, tmp_path):
        dataset = load_csv(io.StringIO(GOOD_CSV))
        path = tmp_path / "out.csv"
        save_csv(dataset, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# sample dataset for parser tests\n")
        assert load_csv(path).provenance == dataset.provenance


class TestMarketDatasetValidation:
    def test_rejects_short_series(self):
        with pytest.raises(DataError, match="length >= 2"):
            make_dataset([0.5], ramp_inputs(1))

    def test_rejects_misaligned_series(self):
        shares = tuple(SharesState(np.array([0.5, 0.5])) for _ in range(3))
        with pytest.raises(DataError, match="misaligned"):
            MarketDataset(labels=("a", "b", "c"), shares=shares,
                          inputs=ramp_inputs(4), ownership=(0, 1, 0, 1))

    def test_rejects_non_increasing_labels(self):
        shares = tuple(SharesState(np.array([0.5, 0.5])) for _ in range(3))
        with pytest.raises(DataError, match="strictly increasing"):
            MarketDataset(labels=("2020Q1", "2020Q1", "2020Q2"), shares=shares,
                          inputs=ramp_inputs(3), ownership=(0, 1, 0, 1))

    def test_rejects_non_finite_inputs(self):
        inputs = ramp_inputs(3).copy()
        inputs[1, 2] = np.inf
        with pytest.raises(DataError, match="finite"):
            make_dataset([0.5, 0.5, 0.5], inputs)

    def test_rejects_bad_ownership(self):
        shares = tuple(SharesState(np.array([0.5, 0.5])) for _ in range(2))
        with pytest.raises(DataError, match="ownership"):
            MarketDataset(labels=("a", "b"), shares=shares,
                          inputs=ramp_inputs(2), ownership=(0, 1, 0, 5))


class TestNormalizeInputs:
    def test_statistics_come_from_window_only(self):
        inputs = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0], [8.0, 9.0]])
        dataset = make_dataset([0.5, 0.5, 0.5, 0.5], inputs, ownership=(0, 1))
        scaled, record = normalize_inputs(dataset, (0, 3))
        assert record.minima == (0.0, 5.0)
        assert record.maxima == (4.0, 5.0)
        # the out-of-window sample may leave [0, 1]
        assert scaled.inputs[3, 0] == 2.0

    def test_constant_column_maps_to_half(self):
        inputs = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0], [8.0, 9.0]])
        dataset = make_dataset([0.5, 0.5, 0.5, 0.5], inputs, ownership=(0, 1))
        scaled, record = normalize_inputs(dataset, (0, 3))
        assert record.constant == (False, True)
        assert np.array_equal(scaled.inputs[:, 1], np.array([0.5, 0.5, 0.5, 0.5]))

    def test_window_bounds_validated(self):
        dataset = make_dataset([0.5, 0.5, 0.5], ramp_inputs(3))
        for window in ((2, 2), (-1, 3), (0, 9)):
            with pytest.raises(ValueError, match="window"):
                normalize_inputs(dataset, window)

    def test_record_apply_rejects_wrong_width(self):
        dataset = make_dataset([0.5, 0.5, 0.5], ramp_inputs(3))
        _, record = normalize_inputs(dataset, (0, 3))
        with pytest.raises(ValueError, match="covers 4 inputs"):
            record.apply(np.ones((2, 3)))

    def test_value_overflowing_the_window_scaling_names_its_row(self):
        inputs = ramp_inputs(4) * 1e-300
        inputs[3, 2] = 1e10
        dataset = make_dataset([0.5, 0.5, 0.5, 0.5], inputs)
        with np.errstate(all="raise"):  # and no floating-point warning
            with pytest.raises(DataError, match=r"^data row 4: y_3 = 10000000000.0 overflows"):
                normalize_inputs(dataset, (0, 3))

    def test_full_window_lands_in_unit_box(self):
        dataset = make_dataset([0.4, 0.5, 0.6, 0.7], ramp_inputs(4))
        scaled, _ = normalize_inputs(dataset, (0, 4))
        assert float(scaled.inputs.min()) == 0.0
        assert float(scaled.inputs.max()) == 1.0


class TestLoadInputTable:
    def test_parses_labeled_series(self):
        text = "# future plan\nlabel,y_1,y_2\nq1,1.5,2.0\nq2,1.6,2.2\n"
        table = load_input_table(io.StringIO(text))
        assert np.array_equal(table, np.array([[1.5, 2.0], [1.6, 2.2]]))

    def test_full_dataset_file_yields_its_inputs(self):
        table = load_input_table(io.StringIO(GOOD_CSV))
        expected = load_csv(io.StringIO(GOOD_CSV)).inputs
        assert np.array_equal(table, expected)

    def test_rejects_misnamed_columns(self):
        text = "label,y_2,y_1\nq1,1.0,2.0\n"
        with pytest.raises(DataError, match="unexpected column"):
            load_input_table(io.StringIO(text))

    def test_wrong_field_count_names_the_line(self):
        text = "# plan\nlabel,y_1,y_2\nq1,1.0,2.0\n\nq2,1.0\n"
        with pytest.raises(DataError, match="line 5: expected 3 fields, got 2"):
            load_input_table(io.StringIO(text))

    def test_non_numeric_cell_names_the_line(self):
        text = "label,y_1\nq1,1.0\nq2,high\n"
        with pytest.raises(DataError, match="line 3: could not convert string to float: 'high'"):
            load_input_table(io.StringIO(text))


    def test_non_finite_cell_names_the_line(self):
        text = "label,y_1,y_2\nq1,1.0,2.0\nq2,1.0, nan \n"
        with pytest.raises(DataError, match="line 3: values must be finite, got 'nan'"):
            load_input_table(io.StringIO(text))


class TestBundledExample:
    def test_path_points_at_packaged_file(self):
        path = example_dataset_path()
        assert path.name == "example_market.csv"
        assert path.is_file()

    def test_example_shape_and_initial_state(self, example_dataset):
        assert len(example_dataset) == 33
        assert example_dataset.n == 2
        assert example_dataset.n_y == 4
        assert example_dataset.ownership == (0, 1, 0, 1)
        assert example_dataset.labels[0] == "2009Q1"
        assert example_dataset.labels[-1] == "2017Q1"
        # 0.3 + 0.7 sums to exactly 1.0, so renormalization keeps the bits
        assert example_dataset.shares[0].shares[0] == 0.3
        assert example_dataset.shares[0].shares[1] == 0.7

    def test_example_marked_synthetic(self, example_dataset):
        assert "synthetic" in example_dataset.provenance.lower()

    def test_load_example_equals_load_csv_of_path(self, example_dataset):
        direct = load_csv(example_dataset_path())
        assert direct.labels == example_dataset.labels
        for a, b in zip(direct.shares, example_dataset.shares):
            assert np.array_equal(a.shares, b.shares)
        assert np.array_equal(direct.inputs, example_dataset.inputs)


def reference_rows(text: str, share_columns: bool):
    """Labels, share rows and input rows of a table, loaded row by row as
    the loader did before it checked the share block at once: one csv
    reader and one checked SharesState per row, the first bad row raising."""
    comments, rows = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped.lstrip("#").strip())
            continue
        rows.append((line_no, line))
    if not rows:
        raise DataError("no header row found")
    (header_no, header), *rows = rows
    header = [f.strip() for f in next(csv.reader((header,)))]
    n, n_y = _parse_header(header, header_no) if share_columns else (0, len(header) - 1)
    labels, shares, inputs = [], [], []
    for line_no, line in rows:
        fields = next(csv.reader((line,)))
        if len(fields) != 1 + n + n_y:
            raise DataError(f"line {line_no}: expected {1 + n + n_y} fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        for f, v in zip(fields[1:], values):
            if not math.isfinite(v):
                raise DataError(f"line {line_no}: values must be finite, got {f.strip()!r}")
        if share_columns:
            total = math.fsum(values[:n])
            if not 0.9 <= total <= 1.1:
                raise DataError(f"line {line_no}: share sum {total!r} outside [0.9, 1.1]")
            if any(s < 0.0 for s in values[:n]):
                raise DataError(f"line {line_no}: negative share")
            shares.append(SharesState(np.array([s / total for s in values[:n]])).floats)
        labels.append(fields[0].strip())
        inputs.append(values[n:])
    return comments, labels, shares, inputs


# "١" (ARABIC-INDIC DIGIT ONE) is 1.0 to float() and rejected by numpy's
# reader; "\u00a01.5" (a no-break space first) is 1.5 to both.
_CELLS = ("nan", "inf", "-inf", " NaN ", "1_0", "abc", "", "1e999", "-1e308", "1e308",
          "١", "\u00a01.5", "+.5", "1E5", "infinity")


_FAULTS = ("none",) * 12 + ("cell", "negative", "unclosed", "count", "quoted", "sum")


@st.composite
def ingest_tables(draw):
    """A dataset or input-only table near every ingest check: quoted
    fields, an unclosed quote, a wrong field count, non-finite and
    non-float cells, share sums at and just outside 0.9 and 1.1, negative
    shares, blank and comment lines."""
    n = draw(st.sampled_from((2, 3, 8, 9)))
    n_y = draw(st.integers(1, 4))
    share_columns = draw(st.booleans())
    header = ["label"] + [f"share_{i + 1}" for i in range(n)] * share_columns
    header += [f"y_{m + 1}" for m in range(n_y)]
    lines = ["# drawn table", ",".join(header)]
    for k in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("row",) * 6 + ("blank", "comment")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "  "))))
            continue
        if kind == "comment":
            lines.append("# note, with a comma")
            continue
        fault = draw(st.sampled_from(_FAULTS))
        cells = []
        if share_columns:
            target = draw(st.sampled_from((1.0, 0.9, 1.1) if fault != "sum" else (
                np.nextafter(0.9, 0.0), np.nextafter(1.1, 2.0), 0.5, 1.5)))
            weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            scale = sum(weights) or 1.0
            shares = [target * w / scale for w in weights]
            if fault == "negative":
                i = draw(st.integers(0, n - 1))
                d = draw(st.sampled_from((1e-300, 0.01, 0.5, 1e308)))
                shares[(i + 1) % n] += shares[i] + d
                shares[i] = -d
            cells += [repr(float(s)) for s in shares]
        cells += [repr(draw(st.floats(-1e6, 1e6))) for _ in range(n_y)]
        if fault == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELLS))
        label = f"q{k:03d}"
        fields = [f'"{label}"' if draw(st.booleans()) else label] + cells
        if fault == "unclosed":
            fields[draw(st.integers(1, len(fields) - 1))] = '"0.5'
        if fault == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0.5"]
        if fault == "quoted":
            fields[draw(st.integers(1, len(fields) - 1))] = '"0.25"'
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n", share_columns


def _outcome(load):
    try:
        return load()
    except DataError as exc:
        return ("DataError", str(exc))
    except (ValueError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


def _bits(rows) -> bytes:
    return np.array(rows, dtype=float).tobytes()


class TestIngestEqualsRowByRowLoad:
    @settings(max_examples=300, deadline=None)
    @given(drawn=ingest_tables())
    def test_load_csv_and_load_input_table(self, drawn):
        text, share_columns = drawn

        def reference_dataset():
            comments, labels, shares, inputs = reference_rows(text, share_columns)
            if len(labels) < 2:
                raise DataError("length >= 2 required, got %d data rows" % len(labels))
            return labels, _bits(shares), _bits(inputs), "\n".join(comments)

        def loaded_dataset():
            dataset = load_csv(io.StringIO(text))
            return (list(dataset.labels), _bits([s.floats for s in dataset.shares]),
                    _bits(dataset.inputs), dataset.provenance)

        def reference_table():
            _, labels, _, inputs = reference_rows(text, share_columns)
            if not share_columns and not inputs:
                raise DataError("input series contains no data rows")
            if share_columns and len(labels) < 2:
                raise DataError("length >= 2 required, got %d data rows" % len(labels))
            return _bits(inputs)

        if share_columns:
            assert _outcome(loaded_dataset) == _outcome(reference_dataset)
        assert _outcome(lambda: _bits(load_input_table(io.StringIO(text)))) == _outcome(
            reference_table)

    def test_an_extra_field_among_plain_lines_names_its_line(self):
        lines = ["label,share_1,share_2,y_1"] + [f"q{t},0.5,0.5,{t}" for t in range(6)]
        lines[4] += ",0.5"
        text = "\n".join(lines) + "\n"
        for load in (load_csv, load_input_table):
            with pytest.raises(DataError, match=r"^line 5: expected 4 fields, got 5$"):
                load(io.StringIO(text))

    def test_plain_lines_are_parsed_by_numpy_with_their_labels_stripped(self, monkeypatch):
        text = ("label,share_1,share_2,y_1,y_2\n a ,+.5,0.5,1E5,\u00a01.5\n"
                "\tb,0.25,0.75 ,-0.0, infinity\n")
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            parsed.append(loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        with pytest.raises(DataError, match=r"^line 3: values must be finite, got 'infinity'$"):
            load_csv(io.StringIO(text))
        dataset = load_csv(io.StringIO(text.replace("infinity", "2")))
        _, labels, shares, inputs = reference_rows(text.replace("infinity", "2"), True)
        assert len(parsed) == 2
        assert list(dataset.labels) == labels == ["a", "b"]
        assert _bits([s.floats for s in dataset.shares]) == _bits(shares)
        assert _bits(dataset.inputs) == _bits(inputs)

    def test_a_field_numpy_rejects_is_read_by_float(self):
        table = load_input_table(io.StringIO("label,y_1,y_2\na,0.5,\u0661\nb,1_0,2\n"))
        assert table.tolist() == [[0.5, 1.0], [10.0, 2.0]]

    def test_a_record_spanning_lines_is_read_line_by_line(self):
        text = 'label,share_1,share_2,y_1\na,0.5,0.5,"0.25\nb,0.5,0.5,0.75\n'
        dataset = load_csv(io.StringIO(text))
        assert dataset.labels == ("a", "b")
        assert dataset.inputs.tolist() == [[0.25], [0.75]]

    def test_the_first_bad_row_wins_over_a_later_row_the_csv_reader_rejects(self):
        too_long = "0" * 200_000  # beyond csv's field size limit
        text = f"label,share_1,share_2,y_1\na,0.5,0.5,1\nb,0.5,0.1,1\nc,0.5,0.5,{too_long}\n"
        with pytest.raises(DataError, match=r"^line 3: share sum 0\.6 outside"):
            load_csv(io.StringIO(text))
        with pytest.raises(DataError, match=r"^line 4: field larger than field limit"):
            load_csv(io.StringIO(text.replace("b,0.5,0.1", "b,0.5,0.5")))

    def test_the_first_bad_row_wins_over_a_later_row_whose_sum_overflows(self):
        text = "label,share_1,share_2,y_1\na,0.5,0.5,1\nb,0.5,0.1,1\nc,-1e308,-1e308,1\n"
        with pytest.raises(DataError, match=r"^line 3: share sum 0\.6 outside"):
            load_csv(io.StringIO(text))

    def test_no_data_line_is_parsed_twice(self, monkeypatch):
        """A share row that fails its check is named from the values already
        parsed: on the line-by-line path (a quoted label) each line up to
        the first rejected one reaches _parse_row once, and on numpy's path a
        bad share sum reaches it not at all, and a non-finite cell once."""
        parsed = []
        parse_row = dataset_module._parse_row

        def spy(line_no, line, width):
            parsed.append(line_no)
            return parse_row(line_no, line, width)

        monkeypatch.setattr(dataset_module, "_parse_row", spy)
        plain = "label,share_1,share_2,y_1\na,0.5,0.5,1\nb,0.5,0.1,1\nc,0.5,0.5,2\n"
        cases = (
            (plain.replace("a,", '"a",'), [2, 3, 4], r"^line 3: share sum 0\.6 outside"),
            (plain.replace("a,", '"a",').replace("0.1,1", "0.5"), [2, 3],
             r"^line 3: expected 4 fields, got 3$"),
            (plain, [], r"^line 3: share sum 0\.6 outside \[0\.9, 1\.1\]$"),
            (plain.replace("0.1,1", "0.5,inf"), [3],
             r"^line 3: values must be finite, got 'inf'$"),
        )
        for text, lines, message in cases:
            parsed.clear()
            with pytest.raises(DataError, match=message):
                load_csv(io.StringIO(text))
            assert parsed == lines
