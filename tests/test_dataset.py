"""Tests for dataset parsing, validation, and input normalization."""

import io

import numpy as np
import pytest

from conftest import make_dataset, ramp_inputs
from marketdyn.dataset import (
    MarketDataset,
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

    def test_ownership_override(self):
        dataset = load_csv(io.StringIO(GOOD_CSV), ownership=(1, 0))
        assert dataset.ownership == (1, 0)

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
