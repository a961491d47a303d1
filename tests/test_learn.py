"""Tests for the grid-search learner."""

import json
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DUOPOLY_MASK, DUOPOLY_PAIRS, DUOPOLY_SPEC, duopoly_alpha, make_dataset, ramp_inputs
from marketdyn.dataset import MarketDataset
from marketdyn.dynamics import SharesState
from marketdyn.errors import ConfigError, DataError
from marketdyn import learn
from marketdyn.influence import ConstraintSpec, InfluenceMatrix, InputVector, alpha_from_dict
from marketdyn.learn import (
    REPORT_FORMAT,
    FitReport,
    GridSpec,
    fit,
    fit_constant_market,
    fit_escalating,
    mse,
    paired_free_count,
    report_to_dict,
    save_report,
    search_space_size,
    split,
    train_error_table,
)
from marketdyn.simulate import custom_scenario, run

PLANTED = (1, 0, -1, 1, 0, 1)
WIGGLY = (0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7)


def planted_dataset(values=PLANTED, length=10, x0=0.35):
    """Dataset whose share series is exactly the trajectory of ``values``."""
    alpha = duopoly_alpha(values)
    inputs = ramp_inputs(length)
    wrapped = tuple(InputVector(values=row, ownership=(0, 1, 0, 1)) for row in inputs)
    traj = run(custom_scenario(wrapped, SharesState(np.array([x0, 1.0 - x0]))), alpha)
    labels = tuple(f"t{k:03d}" for k in range(length))
    return MarketDataset(labels=labels, shares=traj.states, inputs=inputs,
                         ownership=(0, 1, 0, 1))


def decode(rank, radius, free_count=6):
    """Free-value tuple at a lexicographic rank."""
    digits = []
    for _ in range(free_count):
        rank, digit = divmod(rank, 2 * radius + 1)
        digits.append(digit - radius)
    return tuple(reversed(digits))


def rank_of(values, radius):
    rank = 0
    for v in values:
        rank = rank * (2 * radius + 1) + v + radius
    return rank


def scalar_train_error(dataset, alpha, train_len, dt):
    """Training error of one coefficient matrix through simulate.run."""
    wrapped = tuple(InputVector(values=row, ownership=dataset.ownership)
                    for row in dataset.inputs)
    spec = custom_scenario(wrapped, dataset.shares[0], horizon=train_len - 1, dt=dt)
    series = run(spec, alpha).share_series(0)
    return mse(series, dataset.share_series(0)[:train_len])


class TestMse:
    def test_hand_example(self):
        assert mse([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.01, rel=1e-15)

    def test_single_sample(self):
        assert mse([0.7], [0.4]) == pytest.approx(0.09, rel=1e-12)

    def test_zero_for_identical_series(self):
        assert mse([0.1, 0.9, 0.5], [0.1, 0.9, 0.5]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="aligned"):
            mse([0.1, 0.2], [0.1, 0.2, 0.3])

    def test_empty_series(self):
        with pytest.raises(ValueError, match="at least one"):
            mse([], [])


class TestSplit:
    def test_windows_for_common_lengths(self):
        assert split(planted_dataset(length=10), 0.2) == ((0, 8), (8, 10))
        assert split(planted_dataset(length=33), 0.2) == ((0, 26), (26, 33))
        assert split(planted_dataset(length=5), 0.5) == ((0, 2), (2, 5))

    def test_validation_window_is_chronological_tail(self):
        (t0, t1), (v0, v1) = split(planted_dataset(length=12), 0.25)
        assert t0 == 0 and t1 == v0 and v1 == 12

    def test_short_dataset_rejected(self):
        with pytest.raises(DataError, match="too short"):
            split(planted_dataset(length=4), 0.2)

    def test_fraction_bounds(self):
        dataset = planted_dataset(length=10)
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError, match="holdout fraction"):
                split(dataset, bad)

    def test_fraction_leaving_one_training_sample_rejected(self):
        with pytest.raises(DataError, match="training samples"):
            split(planted_dataset(length=5), 0.8)


class TestGridSpec:
    def test_side_and_count(self):
        assert GridSpec(0).side == 1
        assert GridSpec(4).side == 9
        assert GridSpec(4).candidate_count(6) == 531441

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            GridSpec(-1)
        with pytest.raises(ValueError):
            GridSpec(2.5)

    def test_complexity_formula(self):
        assert paired_free_count(2, 4) == 8
        assert search_space_size(4, paired_free_count(2, 4)) == 43046721


class TestFit:
    def test_radius_zero_scores_the_frozen_market(self):
        share1 = [0.3, 0.4, 0.5, 0.35, 0.45]
        dataset = make_dataset(share1, ramp_inputs(5))
        report = fit(dataset, GridSpec(0), DUOPOLY_SPEC, 0.2)
        assert report.candidates_evaluated == 1
        assert report.best_values == (0, 0, 0, 0, 0, 0)
        assert report.tie_class_size == 1
        # all-zero coefficients freeze the market at the first observation
        expected = mse([0.3, 0.3, 0.3, 0.3], share1[:4])
        assert report.train_error == pytest.approx(expected, rel=1e-12)

    def test_recovers_planted_tuple_exactly(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.best_values == PLANTED
        assert report.train_error == 0.0
        assert report.validation_error == 0.0
        assert report.tie_class_size == 1
        assert report.candidates_evaluated == 729
        assert report.train_len == 8 and report.validation_len == 2

    def test_report_metadata(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert isinstance(report, FitReport)
        assert report.constraint_mode == "full-symmetry"
        assert report.radius == 1
        assert report.free_layout == ((0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3))
        assert np.array_equal(report.best_alpha.coeffs, duopoly_alpha(PLANTED).coeffs)

    def test_workers_and_chunking_do_not_change_the_result(self):
        dataset = planted_dataset()
        base = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        for workers, chunk in ((3, 64), (2, 7), (1, 11)):
            other = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2,
                        workers=workers, chunk_size=chunk)
            assert other.best_values == base.best_values
            assert other.train_error == base.train_error
            assert other.validation_error == base.validation_error
            assert other.tie_class_size == base.tie_class_size

    def test_constraint_ownership_must_match_dataset(self):
        dataset = planted_dataset()
        flipped = ConstraintSpec(mode=DUOPOLY_SPEC.mode, swap=DUOPOLY_SPEC.swap,
                                 input_pairing=DUOPOLY_SPEC.input_pairing,
                                 ownership=(1, 0, 1, 0))
        with pytest.raises(ConfigError, match="does not match"):
            fit(dataset, GridSpec(1), flipped, 0.2)

    def test_candidate_limit_guard(self):
        with pytest.raises(ConfigError, match="exceeds"):
            fit(planted_dataset(), GridSpec(40), DUOPOLY_SPEC, 0.2)


class TestTrainErrorTable:
    def test_agrees_with_fit_winner(self):
        dataset = planted_dataset()
        report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert table.shape == (729,)
        winner_rank = int(np.argmin(table))
        # decode the lexicographic rank back to a value tuple
        digits = []
        rem = winner_rank
        for _ in range(6):
            digits.append(rem % 3 - 1)
            rem //= 3
        assert tuple(reversed(digits)) == report.best_values
        assert float(table[winner_rank]) == report.train_error

    def test_parallel_table_is_bitwise_identical(self):
        dataset = planted_dataset()
        a = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        b = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2,
                              workers=4, chunk_size=13)
        assert np.array_equal(a, b)


def overflowing_dataset():
    """Training inputs near the float maximum: the payoff sums of many
    candidates overflow, while candidate 0 (every coefficient -1) stays
    finite. The validation inputs are small."""
    inputs = ramp_inputs(8)
    inputs[:5] *= 0.7e308
    return make_dataset(WIGGLY, inputs)


class TestNonFiniteErrors:
    def test_table_raises_naming_the_candidate(self):
        with pytest.raises(DataError, match=r"candidate \d+ has a non-finite error.*rescale"):
            train_error_table(overflowing_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)

    @pytest.mark.parametrize("workers, chunk", [(1, 1), (2, 5), (1, 16384)])
    def test_fit_raises_instead_of_pruning(self, workers, chunk):
        # from chunk size 1 on, every candidate after the first runs under a
        # finite bound, which a NaN partial error must not be dropped by
        with pytest.raises(DataError, match=r"candidate \d+ has a non-finite error"):
            fit(overflowing_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2,
                workers=workers, chunk_size=chunk)

    def test_fit_agrees_with_table_when_late_overflow_could_be_pruned(self):
        """Every input is near the float maximum, so some candidates overflow
        only after a pruning search would have dropped them."""
        dataset = make_dataset(WIGGLY, ramp_inputs(8) * 0.5e308)
        with pytest.raises(DataError, match="candidate 53 has a non-finite error"):
            train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        with pytest.raises(DataError, match="candidate 53 has a non-finite error"):
            fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, chunk_size=1)

    def test_overflowing_validation_window_names_the_winner(self):
        inputs = ramp_inputs(8)
        inputs[6:] *= 1e308  # read only after the 6-sample training window
        with pytest.raises(DataError, match="candidate 563 has a non-finite error"):
            fit(make_dataset(WIGGLY, inputs), GridSpec(1), DUOPOLY_SPEC, 0.2)


class TestPruning:
    @pytest.mark.parametrize("workers, chunk", [(1, 1), (2, 1), (2, 3), (2, 64), (4, 2)])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_fit_matches_the_full_table(self, workers, chunk, frozen):
        """Pruned candidates read +inf; a chunk pruned to nothing must not
        add ties, whatever order the workers finish in."""
        dataset = planted_dataset()
        target = np.full(len(dataset), float(dataset.shares[0].shares[0])) if frozen else None
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2,
                                  target_series=target)
        search = fit_constant_market if frozen else fit
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as finely as possible
        try:
            report = search(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2,
                            workers=workers, chunk_size=chunk)
        finally:
            sys.setswitchinterval(interval)
        best = float(table.min())
        assert report.train_error == best
        assert report.tie_class_size == int(np.count_nonzero(table == best))
        assert report.best_values == decode(int(np.argmin(table)), 1)

    def test_chunks_in_flight_are_bounded(self, monkeypatch):
        started = []
        kernel = learn._chunk_errors

        def counting(*args, **kwargs):
            started.append(kwargs["first"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(learn, "_chunk_errors", counting)
        problem = learn._build_problem(planted_dataset(), DUOPOLY_SPEC, 0.2, None, 1.0)
        chunks = learn._evaluate_chunks(problem, 1, 729, 7, 2, prune=False)
        first = next(chunks)
        time.sleep(0.2)  # a consumer slower than the workers
        assert len(started) <= 4
        rest = list(chunks)
        assert [first[0]] + [lo for lo, _, _ in rest] == list(range(0, 729, 7))
        assert sorted(started) == list(range(0, 729, 7))


class TestKernelProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        radius=st.integers(0, 2),
        length=st.integers(5, 9),
        dt=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_table_equals_scalar_run(self, data, radius, length, dt):
        unit = st.floats(0.0, 1.0)
        share1 = data.draw(st.lists(unit, min_size=length, max_size=length))
        inputs = np.array(data.draw(st.lists(
            st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
            min_size=length, max_size=length)))
        dataset = make_dataset(share1, inputs)
        (_, train_len), _ = split(dataset, 0.2)
        table = train_error_table(dataset, GridSpec(radius), DUOPOLY_SPEC, 0.2, dt=dt)
        for _ in range(3):
            values = tuple(data.draw(st.lists(st.integers(-radius, radius),
                                              min_size=6, max_size=6)))
            expected = scalar_train_error(dataset, duopoly_alpha(values), train_len, dt)
            assert table[rank_of(values, radius)] == expected

    @settings(max_examples=25, deadline=None)
    @given(
        share1=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=8),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        workers=st.integers(1, 2),
        chunk=st.integers(1, 100),
    )
    def test_fit_equals_table_reduction(self, share1, dt, workers, chunk):
        dataset = make_dataset(share1, ramp_inputs(len(share1)))
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, dt=dt)
        report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, dt=dt,
                     workers=workers, chunk_size=chunk)
        best = float(table.min())
        assert (report.best_values, report.train_error, report.tie_class_size) == (
            decode(int(np.argmin(table)), 1), best, int(np.count_nonzero(table == best)))

    def test_three_strategies_unconstrained(self):
        """The kernel is generic in the strategy count."""
        rng = np.random.default_rng(5)
        length = 7
        shares = tuple(SharesState(p) for p in rng.dirichlet(np.ones(3), size=length))
        dataset = MarketDataset(labels=tuple(f"t{k}" for k in range(length)), shares=shares,
                                inputs=rng.uniform(-1.0, 1.0, (length, 1)), ownership=(0,))
        spec = ConstraintSpec(mode="unconstrained", swap=(0, 1, 2), input_pairing=(0,),
                              ownership=(0,))
        (_, train_len), _ = split(dataset, 0.2)
        table = train_error_table(dataset, GridSpec(1), spec, 0.2, dt=0.5)
        assert table.shape == (3**9,)
        for rank in rng.integers(0, 3**9, size=20):
            values = decode(int(rank), 1, free_count=9)
            alpha = InfluenceMatrix(n=3, n_y=1, coeffs=np.array(values, dtype=float)[:, None])
            assert table[rank] == scalar_train_error(dataset, alpha, train_len, 0.5)
        report = fit(dataset, GridSpec(1), spec, 0.2, dt=0.5, workers=2, chunk_size=500)
        best = float(table.min())
        assert report.train_error == best
        assert report.tie_class_size == int(np.count_nonzero(table == best))


class TestConstantMarketFit:
    def test_zero_rate_family_wins_with_exact_zero_error(self):
        """Coefficients of the form (a, b, 0, a, 0, b) give identical payoff
        rows, hence zero rates and a perfectly frozen market. The
        lexicographic tie-break picks the smallest such tuple."""
        dataset = planted_dataset()
        report = fit_constant_market(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.train_error == 0.0
        assert report.best_values == (-1, -1, 0, -1, 0, -1)
        assert report.tie_class_size == 9

    def test_freeze_family_size_grows_with_radius(self):
        dataset = planted_dataset()
        report = fit_constant_market(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert report.train_error == 0.0
        assert report.best_values == (-2, -2, 0, -2, 0, -2)
        assert report.tie_class_size == 25


class TestErrorDump:
    def test_dump_lists_every_candidate(self, tmp_path):
        dataset = planted_dataset()
        path = tmp_path / "table.csv"
        report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, error_dump=path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = "candidate_index,param_1,param_2,param_3,param_4,param_5,param_6,train_error"
        assert lines[0] == header
        assert len(lines) == 1 + 729
        assert lines[1].startswith("0,-1,-1,-1,-1,-1,-1,")
        # the winner's dumped error matches the report bit for bit
        winner_cells = None
        for line in lines[1:]:
            cells = line.split(",")
            if tuple(int(v) for v in cells[1:7]) == report.best_values:
                winner_cells = cells
        assert winner_cells is not None
        assert float(winner_cells[7]) == report.train_error

    def test_dump_bytes_match_per_row_formatting(self, tmp_path):
        dataset = make_dataset(WIGGLY, ramp_inputs(8))
        path = tmp_path / "table.csv"
        fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=2, chunk_size=100,
            error_dump=path)
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        lines = ["candidate_index," + ",".join(f"param_{f + 1}" for f in range(6))
                 + ",train_error"]
        for index, err in enumerate(table):
            cells = [str(index)] + [str(int(v)) for v in decode(index, 1)]
            cells += [format(float(err), ".17g")]
            lines.append(",".join(cells))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class TestFitEscalating:
    def test_stops_at_first_radius_under_target(self):
        report = fit_escalating(planted_dataset(), DUOPOLY_SPEC, 0.2,
                                error_target=4e-5, start_radius=0, max_radius=3)
        assert report.radius == 1
        assert report.train_error == 0.0

    def test_returns_widest_radius_when_target_unreachable(self):
        # hand-written share series no lattice candidate reproduces exactly
        dataset = make_dataset([0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7],
                               ramp_inputs(8))
        report = fit_escalating(dataset, DUOPOLY_SPEC, 0.2,
                                error_target=1e-30, start_radius=0, max_radius=1)
        assert report.radius == 1
        assert report.train_error > 1e-30


class TestReportSerialization:
    def test_dict_has_stable_key_set_without_wall_time(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        doc = report_to_dict(report, (0, 1, 0, 1))
        assert doc["format"] == REPORT_FORMAT
        assert set(doc.keys()) == {
            "format", "alpha", "constraint_mode", "free_layout", "best_values",
            "train_error", "validation_error", "tie_class_size",
            "candidates_evaluated", "radius", "train_len", "validation_len",
        }
        assert doc["best_values"] == list(PLANTED)

    def test_saved_report_embeds_loadable_coefficients(self, tmp_path):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        path = tmp_path / "report.json"
        save_report(report, (0, 1, 0, 1), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        alpha, ownership = alpha_from_dict(doc)
        assert np.array_equal(alpha.coeffs, report.best_alpha.coeffs)
        assert ownership == (0, 1, 0, 1)
